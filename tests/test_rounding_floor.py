import json
from pathlib import Path

import pytest
from rounding_floor import config_floor

from geomeans import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name,boundary_points", [("euclid3", 128), ("sphere2", 48),
                                                  ("euclid4", 250), ("epd_sphere3", 128)])
def test_rounding_floor_on_small_grids(name, boundary_points):
    # one relative ulp in the means moves a small-grid reconstruction by a
    # nonzero share of its max, reproducibly for one seed; measured 8.9e-16
    # to 9.1e-14 (euclid4, radial means with one sign pattern for all rows)
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw["grids"].update(boundary_points=boundary_points, t_points=128)
    if raw["grids"].get("recon_grid"):
        raw["grids"]["recon_grid"]["points_per_axis"] = 5
    cfg = cli.parse_config(raw)
    floors = [config_floor(cfg, seed) for seed in (0, 0, 1, None)]
    assert floors[0] == floors[1]
    assert all(0.0 < f <= 1e-12 for f in floors)
