"""The benchmark's workloads: which cases each runs, and how a seed draws them.

A case is one config from the repository's `configs/` directory (or the
off-centre n=4 config below), with its phantom moved and resized by the
seed, run in one fresh process. Every draw keeps the case's grids, so the
seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Off-centre Euclidean n=4: the centred configs take the identical-row
# shortcuts, this one runs the general path (one distinct row per centre).
# The boundary grid sets the error: 2 000 centres (p = 10) give rel_l2
# about 0.015, 1 458 give 0.048. The log table costs rows x targets, so
# 128 t-nodes (0.015 as well) keep the case near 15 s on 2 cores.
OFFCENTRE4 = {
    "space": {"kind": "euclidean", "n": 4, "radius": 1.0},
    "phantom": [{"center": [0.2, -0.1, 0.1, 0.05], "geodesic_radius": 0.35, "amplitude": 1.0}],
    "grids": {
        "boundary_points": 2000,
        "t_points": 128,
        "quadrature_order": 16,
        "fd_step": 0.01,
        "recon_grid": {"center": [0.2, -0.1, 0.1, 0.05], "half_width": 0.45,
                       "points_per_axis": 7, "ball_radius": 0.45},
    },
    "method": "direct",
    "seed": 7,
}

# (case name, config, mode, accuracy bound on rel_l2, reconstruction points
# per axis or None for the config's). Mode "roundtrip": forward then invert
# in memory; "files": forward, means CSV written and read back, invert from
# the file's data.
WORKLOADS = {
    "even_2d": [
        ("euclid2", "euclid2", "roundtrip", 0.03, None),
        ("sphere2", "sphere2", "roundtrip", 0.05, None),
        ("hyperbolic2", "hyperbolic2", "roundtrip", 0.05, None),
    ],
    "odd_3d_files": [
        ("euclid3", "euclid3", "files", 0.03, 21),
        ("sphere3", "sphere3", "files", 0.05, 21),
        ("hyperbolic3", "hyperbolic3", "files", 0.05, 21),
    ],
    "trace_3d": [
        ("epd_euclid3_wave", "epd_euclid3_wave", "roundtrip", 0.05, None),
        ("epd_sphere3", "epd_sphere3", "roundtrip", 0.05, None),
    ],
    "highdim_4d": [
        ("euclid4", "euclid4", "roundtrip", 0.05, None),
        ("offcentre4", OFFCENTRE4, "roundtrip", 0.05, None),
    ],
}

# Workloads whose forward steps take under a second: their cases repeat the
# step and time the median call (see case.py). The other workloads time
# the one call a CLI run makes.
REPEAT_FORWARD = {"even_2d", "highdim_4d"}

# Tiny grids for the smoke mode: every code path of every workload, in
# seconds. They cannot reach the acceptance bounds (centred n=4 needs
# thousands of centres for 0.05), so the smoke mode holds rel_l2 to
# SMOKE_BOUND instead; every other check stays.
SMOKE_GRIDS = {2: {"boundary_points": 48, "t_points": 128},
               3: {"boundary_points": 128, "t_points": 128},
               4: {"boundary_points": 250, "t_points": 128}}
SMOKE_POINTS_PER_AXIS = 5
SMOKE_BOUND = 0.5

# Seeded draw: the phantom centre moves by at most CENTRE_SHIFT (a share of
# the ball radius), uniformly in that ball, and its radius is scaled by a
# factor in RADIUS_SCALE. Centred phantoms stay centred. The reconstruction
# grid stays where the config puts it: its ball clipping leaves many grid
# points exactly on the ball's edge, where the largest errors sit, and a
# moved centre would keep or drop them by rounding. The draw is small
# because rel_l2 is sensitive to the bump radius (see README.md).
CENTRE_SHIFT = 0.0005
RADIUS_SCALE = (0.9995, 1.0005)


def _draw(config: dict, rng: random.Random) -> dict:
    config = json.loads(json.dumps(config))
    radius = config["space"]["radius"]
    for bump in config["phantom"]:
        centre = bump["center"]
        if any(centre):
            direction = [rng.gauss(0.0, 1.0) for _ in centre]
            norm = math.sqrt(sum(d * d for d in direction))
            shift = CENTRE_SHIFT * radius * rng.random() ** (1.0 / len(centre))
            bump["center"] = [c + shift * d / norm for c, d in zip(centre, direction)]
        bump["geodesic_radius"] *= rng.uniform(*RADIUS_SCALE)
    return config


def build(workload: str, seed: int, root: Path, smoke: bool = False) -> list[dict]:
    """The cases of one workload, drawn from the seed."""
    cases = []
    for name, source, mode, bound, points_per_axis in WORKLOADS[workload]:
        if isinstance(source, str):
            with open(root / "configs" / f"{source}.json") as fh:
                source = json.load(fh)
        config = _draw(source, random.Random(f"{seed}/{name}"))
        grids = config["grids"]
        if smoke:
            grids.update(SMOKE_GRIDS[config["space"]["n"]])
            points_per_axis = SMOKE_POINTS_PER_AXIS
        if points_per_axis is not None:
            grids["recon_grid"]["points_per_axis"] = points_per_axis
        cases.append({
            "name": name,
            "config": config,
            "mode": mode,
            "bound": SMOKE_BOUND if smoke else bound,
            # spot checks of the means against an independent quadrature
            "probe": (config["space"]["kind"] == "euclidean" and "alpha" not in config),
            "repeat_forward": workload in REPEAT_FORWARD,
        })
    return cases
