"""Rounding floor of a reconstruction: how far one ulp in the means moves it.

`rounding_floor` inverts the means twice, once as given and once with every
value scaled by 1 + 2^-52 or 1 - 2^-52 under a seeded sign pattern, and
returns max|f_1 - f_0| / max|f_0|. Radial means (all rows equal, which
`MeanData.rows` holds as one row) take one sign pattern for every row:
the one row is scaled and broadcast back to every centre, so they stay
radial and one row in memory. A comparison of two versions' reports that
moves the means by about an ulp can then be read against this figure
rather than against a hand-picked tolerance.

    PYTHONPATH=src python tests/rounding_floor.py configs/euclid3.json ...

prints each config's floor at its own grids, with the sign pattern of seed 0
and with every value scaled the same way.

    PYTHONPATH=src python tests/rounding_floor.py --compare OLD.csv NEW.csv CONFIG

prints how far the f_rec column of report NEW is from that of report OLD,
max|f_rec,NEW - f_rec,OLD| / max|f_rec,OLD|, next to CONFIG's floor.
"""

from __future__ import annotations

import sys

import numpy as np

from geomeans import cli
from geomeans.forward import MeanData
from geomeans.inversion import invert

ULP = 2.0 ** -52


def rounding_floor(data: MeanData, points: np.ndarray, method: str = "direct",
                   seed: int | None = 0) -> float:
    """max|Delta f_rec| / max|f_rec| when the means move by one relative ulp.

    `seed=None` scales every value by 1 + 2^-52; its rounding leaves a
    smaller random part than a sign pattern does.
    """
    f0 = invert(data, points, method=method)
    signs = 1.0
    if seed is not None:
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=data.rows.shape)
    moved = np.broadcast_to(data.rows * (1.0 + signs * ULP), data.values.shape)
    moved = MeanData(data.space, data.boundary, data.tgrid, moved, alpha=data.alpha)
    f1 = invert(moved, points, method=method)
    return float(np.max(np.abs(f1 - f0)) / np.max(np.abs(f0)))


def config_floor(cfg: dict, seed: int | None = 0) -> float:
    """The rounding floor of a parsed config at its own grids."""
    return rounding_floor(cli._forward_data(cfg), cli._recon_points(cfg), cfg["method"], seed)


def report_change(old_path: str, new_path: str) -> float:
    """max|f_rec,new - f_rec,old| / max|f_rec,old| of two reports on the same points."""
    old_header, old, _ = cli.read_report(old_path)
    new_header, new, _ = cli.read_report(new_path)
    if old_header != new_header or not np.array_equal(old[:, :-2], new[:, :-2]):
        raise ValueError(f"reports {old_path} and {new_path} are not on the same points")
    return float(np.max(np.abs(new[:, -1] - old[:, -1])) / np.max(np.abs(old[:, -1])))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--compare"]:
        if len(argv) != 4:
            raise SystemExit("usage: rounding_floor.py --compare OLD.csv NEW.csv CONFIG")
        old, new, path = argv[1:]
        print(f"{new} against {old} {report_change(old, new):.2e} "
              f"(floor of {path} {config_floor(cli.load_config(path)):.2e})")
        return
    for path in argv:
        cfg = cli.load_config(path)
        print(f"{path} {config_floor(cfg):.2e} (same sign {config_floor(cfg, None):.2e})")


if __name__ == "__main__":
    main(sys.argv[1:])
