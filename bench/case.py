"""Run one benchmark case in a fresh Python process, as the CLI would.

    python3 bench/case.py SPEC.json

SPEC names the config file, the mode ("roundtrip", "files", or "setup" to
stop after the set-up), where to write the means and report files and the
result, whether to trace, whether to repeat the forward step, and an
optional probe seed. The case times the public calls it makes and writes one JSON
result: the stage seconds, peak RSS, the means at a few probe (centre, t)
pairs and, when traced, the spans and counters. The benchmark's parent
process checks the outputs; this file only produces them.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from time import perf_counter

# The shared host's speed wanders by 15% from one second to the next, and a
# forward step under a second follows it. So untraced cases of the workloads
# with such steps repeat the step until it has run FORWARD_MIN_S (at most
# FORWARD_MAX_CALLS calls), once before the inversion and once after the
# report, so that the calls sample two moments; they report every call and
# time the median one.
FORWARD_MIN_S = 1.5
FORWARD_MAX_CALLS = 5


def _forward(cfg: dict, boundary, tgrid):
    """The CLI's forward step, with the grids built beforehand."""
    from geomeans import forward

    grids = cfg["grids"]
    if cfg["alpha"] is None:
        return forward.forward_means(cfg["phantom"], boundary, tgrid,
                                     order=grids["quadrature_order"],
                                     profile=cfg["forward_profile"])
    generate = (forward.epd_trace_euclidean if cfg["space"].kind == "euclidean"
                else forward.epd_trace_sphere)
    return generate(cfg["phantom"], boundary, tgrid, cfg["alpha"],
                    order=grids["quadrature_order"])


def _timed_forward(cfg: dict, boundary, tgrid, repeat: bool):
    """The forward data and the seconds of each call, repeated if short."""
    calls = []
    while not calls or (repeat and sum(calls) < FORWARD_MIN_S
                        and len(calls) < FORWARD_MAX_CALLS):
        start = perf_counter()
        data = _forward(cfg, boundary, tgrid)
        calls.append(perf_counter() - start)
    return data, calls


def _probes(data, bumps: list, seed: int, count: int = 3) -> list:
    """Means at seeded (centre, t) pairs whose sphere meets the first bump."""
    import numpy as np

    rng = np.random.default_rng(seed)
    centre = np.asarray(bumps[0]["center"], dtype=float)
    radius = bumps[0]["geodesic_radius"]
    t = data.tgrid.values
    out = []
    for i in rng.choice(data.boundary.m, size=count, replace=False):
        xi = data.boundary.centers[i]
        near = np.flatnonzero(np.abs(t - np.linalg.norm(xi - centre)) < 0.8 * radius)
        j = int(rng.choice(near))
        out.append({"centre": xi.tolist(), "t": float(t[j]), "mean": float(data.values[i, j])})
    return out


def run(spec: dict) -> dict:
    start = perf_counter()
    import numpy as np
    from geomeans import cli, forward, inversion, spaces

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    cfg = cli.load_config(spec["config"])
    space, grids = cfg["space"], cfg["grids"]
    boundary = spaces.boundary_grid(space, grids["boundary_points"])
    tgrid = forward.default_tgrid(space, grids["t_points"])
    rg = grids["recon_grid"]
    points = inversion.chart_box_grid(space, np.asarray(rg["center"], dtype=float),
                                      float(rg["half_width"]), int(rg["points_per_axis"]),
                                      ball_radius=float(rg["ball_radius"]))
    seconds = {"setup": perf_counter() - start}
    if spec["mode"] == "setup":
        return {"seconds": seconds}

    repeat = tracer is None and spec["repeat_forward"]
    data, calls = _timed_forward(cfg, boundary, tgrid, repeat)
    result = {}
    if spec["mode"] == "files":
        start = perf_counter()
        cli.write_means(data, spec["means"])
        seconds["write_means"] = perf_counter() - start
        start = perf_counter()
        back = cli.read_means(spec["means"])
        seconds["read_means"] = perf_counter() - start
        result["means_bytes"] = os.path.getsize(spec["means"])
        result["bitwise"] = bool(
            np.array_equal(back.values, data.values)
            and np.array_equal(back.tgrid.values, data.tgrid.values)
            and np.array_equal(back.boundary.centers, data.boundary.centers)
            and back.alpha == data.alpha and back.space == data.space)
        data = back

    start = perf_counter()
    rec = inversion.invert(data, points, method=cfg["method"], fd_step=grids["fd_step"])
    seconds["invert"] = perf_counter() - start

    start = perf_counter()
    report = inversion.make_report(points, cfg["phantom"](points), rec, cfg["method"],
                                   seconds["invert"])
    cli.write_report(report, space, spec["report"])
    seconds["report"] = perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if repeat:
        calls += _timed_forward(cfg, boundary, tgrid, repeat)[1]
    seconds["forward"] = statistics.median(calls)
    result["forward_calls"] = calls
    result["seconds"] = seconds
    if spec["probe_seed"] is not None:
        result["probes"] = _probes(data, spec["bumps"], spec["probe_seed"])
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["self_s"] = tracer.self_times()
    return result


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
