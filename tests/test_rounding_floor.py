import json
from pathlib import Path

import numpy as np
import pytest
from rounding_floor import config_floor, main, report_change

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


def test_compare_prints_the_change_next_to_the_floor(tmp_path, capsys):
    # two reports of one small-grid config, the second with one f_rec moved
    # by 1e-12 of max|f_rec|, read against the config's floor
    raw = json.loads((CONFIGS / "euclid3.json").read_text())
    raw["grids"].update(boundary_points=128, t_points=128)
    raw["grids"]["recon_grid"]["points_per_axis"] = 5
    config = tmp_path / "small.json"
    config.write_text(json.dumps(raw))
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    cli.cmd_roundtrip(cli.load_config(str(config)), str(old))
    capsys.readouterr()
    lines = old.read_text().splitlines()
    header, rows, _ = cli.read_report(str(old))
    peak = np.max(np.abs(rows[:, -1]))
    cells = lines[1].split(",")
    cells[-1] = repr(float(rows[0, -1] + 1e-12 * peak))
    new.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert report_change(str(old), str(old)) == 0.0
    assert report_change(str(old), str(new)) == pytest.approx(1e-12, rel=1e-3)
    main(["--compare", str(old), str(new), str(config)])
    floor = config_floor(cli.load_config(str(config)))
    assert capsys.readouterr().out == (f"{new} against {old} 1.00e-12 "
                                       f"(floor of {config} {floor:.2e})\n")
    lines[1] = ",".join(["0.5"] + lines[1].split(",")[1:])
    new.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not on the same points"):
        report_change(str(old), str(new))
