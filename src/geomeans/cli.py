"""Command-line driver: forward simulation, inversion, round trips,
identity verification, and report rendering.

Configs are single JSON documents; data files are greppable CSV with a
versioned header line and a JSON metadata line, floats written as shortest
round-trippable decimals so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import numpy as np

from . import checks, spaces
from .forward import (
    MeanData,
    default_tgrid,
    epd_trace_euclidean,
    epd_trace_sphere,
    forward_means,
    validate_trace_order,
)
from .inversion import chart_box_grid, invert, make_report
from .numerics import TGrid
from .phantoms import Bump, Phantom, validate_margin
from .spaces import SpaceSpec, boundary_grid

MEANS_MAGIC = "# geomeans-means v1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing field {path}.{key}")
    return obj[key]


def _as_number(v, path: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{path} must be a number")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = float("inf")
    if not np.isfinite(v):
        raise ConfigError(f"{path} must be finite, not {v!r}")
    return v


def _as_coords(v, n: int, path: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != n:
        raise ConfigError(f"{path} must have {n} chart coordinates")
    return np.array([_as_number(c, f"{path}[{k}]") for k, c in enumerate(v)])


def _as_int(v, path: str, least: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path} must be an integer")
    if least is not None and v < least:
        raise ConfigError(f"{path} must be >= {least}, not {v}")
    return v


def _as_positive(v, path: str) -> float:
    v = _as_number(v, path)
    if v <= 0:
        raise ConfigError(f"{path} must be positive")
    return v


def _fields(obj, known: tuple[str, ...], path: str) -> dict:
    """obj as a JSON object with no field outside `known`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown field {path}.{key}")
    return obj


def load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(raw)


def parse_config(raw: dict) -> dict:
    _fields(raw, ("space", "phantom", "grids", "method", "alpha", "forward_profile", "seed"),
            "config")
    sp = _fields(_need(raw, "space", "config"), ("kind", "n", "radius"), "config.space")
    kind = _need(sp, "kind", "config.space")
    n = _need(sp, "n", "config.space")
    radius = _as_number(_need(sp, "radius", "config.space"), "config.space.radius")
    _as_int(n, "config.space.n")
    try:
        space = SpaceSpec(kind, n, radius)
    except ValueError as e:
        raise ConfigError(f"config.space: {e}") from None
    bumps = []
    for i, b in enumerate(_need(raw, "phantom", "config")):
        pth = f"config.phantom[{i}]"
        _fields(b, ("center", "geodesic_radius", "amplitude"), pth)
        bumps.append(Bump(
            spaces.lift(space, _as_coords(_need(b, "center", pth), n, f"{pth}.center")),
            _as_number(_need(b, "geodesic_radius", pth), f"{pth}.geodesic_radius"),
            _as_number(_need(b, "amplitude", pth), f"{pth}.amplitude"),
        ))
    try:
        phantom = Phantom(space, tuple(bumps))
        validate_margin(phantom)
    except ValueError as e:
        raise ConfigError(f"config.phantom: {e}") from None
    g = _fields(_need(raw, "grids", "config"),
                ("boundary_points", "t_points", "quadrature_order", "fd_step", "recon_grid"),
                "config.grids")
    # the least boundary grid, t-grid and section rule that the layers build
    grids = {
        "boundary_points": _as_int(_need(g, "boundary_points", "config.grids"),
                                   "config.grids.boundary_points", 4),
        "t_points": _as_int(_need(g, "t_points", "config.grids"), "config.grids.t_points", 64),
        "quadrature_order": _as_int(g.get("quadrature_order", 16),
                                    "config.grids.quadrature_order", 2),
        "fd_step": _as_positive(g.get("fd_step", 1e-2 * radius), "config.grids.fd_step"),
        "recon_grid": None,
    }
    if g.get("recon_grid") is not None:
        pth = "config.grids.recon_grid"
        rg = _fields(g["recon_grid"], ("center", "half_width", "points_per_axis", "ball_radius"),
                     pth)
        center = _as_coords(_need(rg, "center", pth), n, f"{pth}.center")
        ppa = _as_int(_need(rg, "points_per_axis", pth), f"{pth}.points_per_axis")
        if ppa < 1:
            raise ConfigError(f"{pth}.points_per_axis must be positive")
        half = _as_positive(_need(rg, "half_width", pth), f"{pth}.half_width")
        ball = rg.get("ball_radius")
        ball = None if ball is None else _as_positive(ball, f"{pth}.ball_radius")
        if chart_box_grid(space, center, half, ppa, ball).shape[0] == 0:
            raise ConfigError(f"{pth} selects no point: every node lies outside the "
                              "admissible interior or the ball_radius")
        grids["recon_grid"] = {"center": center, "half_width": half, "points_per_axis": ppa,
                               "ball_radius": ball}
    method = raw.get("method", "direct")
    if method not in ("direct", "modified"):
        raise ConfigError("config.method must be 'direct' or 'modified'")
    alpha = raw.get("alpha")
    if alpha is not None:
        alpha = _as_number(alpha, "config.alpha")
        try:
            validate_trace_order(space, alpha, "config.alpha")
        except ValueError as e:
            raise ConfigError(str(e)) from None
    profile = raw.get("forward_profile", "exact")
    if profile not in ("exact", "sections"):
        raise ConfigError("config.forward_profile must be 'exact' or 'sections'")
    if profile == "sections" and alpha is not None:
        # the trace generators take their means from the exact profile
        raise ConfigError("config.forward_profile 'sections' does not apply to traces "
                          "(config.alpha set)")
    return {
        "space": space,
        "phantom": phantom,
        "grids": grids,
        "method": method,
        "alpha": alpha,
        "forward_profile": profile,
        "seed": _as_int(raw.get("seed", 0), "config.seed"),
    }


def _recon_points(cfg: dict) -> np.ndarray:
    space = cfg["space"]
    phantom = cfg["phantom"]
    rg = cfg["grids"]["recon_grid"]
    if rg is None:
        b = phantom.bumps[0]
        center = spaces.chart(space, b.center)
        half = b.geodesic_radius + 0.1 * space.radius
        return chart_box_grid(space, center, half, 9, ball_radius=half)
    return chart_box_grid(space, rg["center"], rg["half_width"], rg["points_per_axis"],
                          ball_radius=rg["ball_radius"])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_means(data: MeanData, path: str) -> None:
    """Versioned long-format CSV: magic, JSON metadata, center_idx,t,value rows."""
    space = data.space
    meta = {
        "space": {"kind": space.kind, "n": space.n, "radius": repr(space.radius)},
        "boundary_m": data.boundary.m,
        "t0": repr(data.tgrid.a),
        "t1": repr(data.tgrid.b),
        "t_points": data.tgrid.n,
        "alpha": None if data.alpha is None else repr(data.alpha),
    }
    t = [repr(v) for v in data.tgrid.values.tolist()]
    with open(path, "w") as fh:
        fh.write(f"{MEANS_MAGIC}\n# {json.dumps(meta, sort_keys=True)}\ncenter_idx,t,value\n")
        # one centre's rows at a time, so the text of the whole file is never held
        for i, row in enumerate(data.values):
            fh.write("".join([f"{i},{tj},{v!r}\n" for tj, v in zip(t, row.tolist())]))


def read_means(path: str) -> MeanData:
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != MEANS_MAGIC:
            raise ValueError(f"not a means file (expected {MEANS_MAGIC!r})")
        meta_line = fh.readline().rstrip("\n")
        if not meta_line.startswith("# "):
            raise ValueError("missing metadata line")
        meta = json.loads(meta_line[2:])
        header = fh.readline().rstrip("\n")
        if header != "center_idx,t,value":
            raise ValueError("unexpected column header")
        sp = meta["space"]
        space = SpaceSpec(sp["kind"], int(sp["n"]), float(sp["radius"]))
        m = int(meta["boundary_m"])
        npts = int(meta["t_points"])
        t0, t1 = float(meta["t0"]), float(meta["t1"])
        grid = TGrid.linspace(t0, t1, npts)
        # allocated before the parse buffers: allocated after them, it pins
        # the heap above them once they are freed, and later stages peak
        # about 9 MB higher on an 800 x 800 file
        values = np.empty((m, npts))
        try:
            with warnings.catch_warnings():
                # an empty body is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise ValueError(f"malformed means row: {e}") from None
    if body.size == 0:
        raise ValueError("means file has no data rows")
    if body.shape[1] != 3:
        raise ValueError("means rows need 3 columns: center_idx,t,value")
    i_f, t, v = body.T
    j_f = np.rint((t - t0) / grid.h)
    bad = ~((i_f == np.rint(i_f)) & (i_f >= 0) & (i_f < m) & (j_f >= 0) & (j_f < npts))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"means data row {k}: center_idx {i_f[k]!r} or t {t[k]!r} outside "
                         f"the {m} centres x {npts} t-points of the metadata")
    i, j = i_f.astype(np.int64), j_f.astype(np.int64)
    off = np.abs(t - grid.values[j]) > 4.0 * np.finfo(float).eps * max(abs(t0), abs(t1))
    if np.any(off):
        k = int(np.argmax(off))
        raise ValueError(f"means data row {k}: t {t[k]!r} is not on the metadata t-grid "
                         f"(nearest node {grid.values[j[k]]!r})")
    counts = np.bincount(i * npts + j, minlength=m * npts)
    if np.any(counts != 1):
        k = int(np.argmax(counts != 1))
        what = "has no row" if counts[k] == 0 else f"has {counts[k]} rows"
        raise ValueError(f"means file {what} for center_idx {k // npts}, t {grid.values[k % npts]!r}")
    values[i, j] = v
    # feeding the actual count back through the budgeting reproduces the grid
    boundary = boundary_grid(space, m)
    if boundary.m != m:
        raise ValueError("boundary grid size mismatch on read-back")
    alpha = meta["alpha"]
    return MeanData(space, boundary, grid, values,
                    None if alpha is None else float(alpha))


def write_report(report, space: SpaceSpec, path: str) -> None:
    n = space.n
    cols = [f"x_{k + 1}" for k in range(n)] + ["f_true", "f_rec"]
    lines = [",".join(cols)]
    chart_pts = spaces.chart(space, report.points)
    for row, ft, fr in zip(chart_pts, report.f_true, report.f_rec):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(ft)), repr(float(fr))]))
    footer = {
        "rel_l2": repr(report.rel_l2),
        "sup_err": repr(report.sup_err),
        "calibration": repr(report.calibration),
        "method": report.method,
    }
    lines.append("# " + json.dumps(footer, sort_keys=True))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path: str):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        footer = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                footer = json.loads(line[2:])
                break
            if line:
                rows.append([float(v) for v in line.split(",")])
    return header, np.asarray(rows), footer


def write_pgm(values: np.ndarray, path: str) -> None:
    """Plain P2 grayscale with linear min-max scaling to 255 levels."""
    lo, hi = float(np.min(values)), float(np.max(values))
    span = hi - lo
    if span <= 0:
        img = np.zeros_like(values, dtype=int)
    else:
        img = np.rint((values - lo) / span * 255).astype(int)
    h, w = img.shape
    lines = ["P2", f"# min={lo!r} max={hi!r}", f"{w} {h}", "255"]
    for row in img:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _forward_data(cfg: dict) -> MeanData:
    space = cfg["space"]
    bd = boundary_grid(space, cfg["grids"]["boundary_points"])
    tg = default_tgrid(space, cfg["grids"]["t_points"])
    alpha = cfg["alpha"]
    if alpha is None:
        return forward_means(cfg["phantom"], bd, tg,
                             order=cfg["grids"]["quadrature_order"],
                             profile=cfg["forward_profile"])
    # parse_config admits traces in R^n and on the cap only
    generate = epd_trace_euclidean if space.kind == spaces.EUCLIDEAN else epd_trace_sphere
    return generate(cfg["phantom"], bd, tg, alpha, order=cfg["grids"]["quadrature_order"])


def cmd_forward(cfg: dict, out_path: str) -> int:
    write_means(_forward_data(cfg), out_path)
    print(f"wrote means to {out_path}")
    return 0


def _invert_to_report(cfg: dict, data: MeanData, out_path: str) -> int:
    pts = _recon_points(cfg)
    start = time.perf_counter()
    rec = invert(data, pts, method=cfg["method"])
    elapsed = time.perf_counter() - start
    rep = make_report(pts, cfg["phantom"](pts), rec, cfg["method"], elapsed)
    write_report(rep, cfg["space"], out_path)
    print(f"rel_l2={rep.rel_l2:.6f} sup_err={rep.sup_err:.6f} "
          f"calibration={rep.calibration:.6f} ({elapsed:.1f}s)")
    print(f"wrote report to {out_path}")
    return 0


def cmd_invert(cfg: dict, means_path: str, out_path: str) -> int:
    data = read_means(means_path)
    if data.space != cfg["space"]:
        raise ConfigError("means file space does not match the config")
    return _invert_to_report(cfg, data, out_path)


def cmd_roundtrip(cfg: dict, out_path: str) -> int:
    return _invert_to_report(cfg, _forward_data(cfg), out_path)


def cmd_epd_roundtrip(cfg: dict, out_path: str) -> int:
    if cfg["alpha"] is None:
        raise ConfigError("epd-roundtrip needs config.alpha")
    return cmd_roundtrip(cfg, out_path)


def _slice_parts(slice_spec: str, n: int) -> list[tuple[str, int, float]]:
    """(part, axis index, value) of each part of a slice 'x3=0.0,x4=0.1' over
    n axes, checked part by part: the form, the axis number and no axis
    twice."""
    parts = []
    for part in slice_spec.split(","):
        axis_s, _, val_s = part.partition("=")
        try:
            axis, val = int(axis_s.removeprefix("x")), float(val_s)
        except ValueError:
            axis, val = 0, np.nan
        if not (axis_s.startswith("x") and np.isfinite(val)):
            raise ValueError(f"slice part {part!r} is not of the form x<axis>=<finite number>")
        if not 1 <= axis <= n:
            raise ValueError(f"slice part {part!r} names no axis of the report, which has x1..x{n}")
        if any(axis - 1 == a for _, a, _ in parts):
            raise ValueError(f"slice part {part!r} repeats axis x{axis}")
        parts.append((part, axis - 1, val))
    return parts


def cmd_render(report_path: str, out_path: str, slice_spec: str | None) -> int:
    header, rows, _ = read_report(report_path)
    if rows.size == 0:
        raise ValueError(f"report {report_path} has no rows")
    ncols = len(header)
    n = ncols - 2
    coords = rows[:, :n]
    frec = rows[:, n + 1]
    keep_axes = list(range(n))
    for part, axis, val in _slice_parts(slice_spec, n) if slice_spec else []:
        vals = coords[:, axis]
        tol = 0.5 * _min_spacing(vals)
        mask = np.abs(vals - val) <= tol
        if not np.any(mask):
            raise ValueError(f"slice part {part!r} selects no point of the report")
        coords = coords[mask]
        frec = frec[mask]
        keep_axes.remove(axis)
    if len(keep_axes) != 2:
        raise ValueError("slice must reduce the grid to exactly 2 axes")
    ax0, ax1 = keep_axes
    u = np.unique(coords[:, ax0])
    v = np.unique(coords[:, ax1])
    img = np.zeros((v.size, u.size))
    iu = np.searchsorted(u, coords[:, ax0])
    iv = np.searchsorted(v, coords[:, ax1])
    img[iv, iu] = frec
    write_pgm(img[::-1], out_path)
    print(f"wrote {u.size}x{v.size} image to {out_path}")
    return 0


def _min_spacing(vals: np.ndarray) -> float:
    u = np.unique(vals)
    return float(np.min(np.diff(u))) if u.size > 1 else 1.0


def cmd_verify(suite: str, seed: int = checks.SEED) -> int:
    if suite != "all" and suite not in checks.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick {'|'.join(checks.SUITES)}|all")
    failures = 0
    for check in checks.CHECKS:
        if suite in ("all", check.suite):
            for figure in check.figures(seed):
                print(figure.line())
                failures += 0 if figure.passed else 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geomeans",
        description="Spherical mean transforms and their inversion in constant curvature spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="simulate boundary means / traces")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("invert", help="reconstruct from a means file")
    p.add_argument("--config", required=True)
    p.add_argument("--means", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("roundtrip", help="forward then invert in memory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("epd-roundtrip", help="trace forward then trace inversion")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run identity/lemma verification checks")
    p.add_argument("--suite", default="all", choices=[*checks.SUITES, "all"])
    p.add_argument("--seed", type=int, default=checks.SEED,
                   help="seed for the sampling-based property checks")

    p = sub.add_parser("render", help="render a report slice as a PGM image")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slice", default=None, help="axis=value, e.g. x3=0.0")

    args = parser.parse_args(argv)
    try:
        if args.command == "forward":
            return cmd_forward(load_config(args.config), args.out)
        if args.command == "invert":
            return cmd_invert(load_config(args.config), args.means, args.out)
        if args.command == "roundtrip":
            return cmd_roundtrip(load_config(args.config), args.out)
        if args.command == "epd-roundtrip":
            return cmd_epd_roundtrip(load_config(args.config), args.out)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed)
        if args.command == "render":
            return cmd_render(args.report, args.out, args.slice)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
