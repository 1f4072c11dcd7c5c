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
from contextlib import contextmanager
from typing import Callable

import numpy as np

from . import spaces
from .forward import (
    MeanData,
    default_tgrid,
    epd_trace_euclidean,
    epd_trace_sphere,
    forward_means,
    validate_tgrid_range,
    validate_trace_order,
)
from .inversion import ReconstructionReport, chart_box_grid, invert, make_report, validate_method
from .numerics import TGrid
from .phantoms import Bump, Phantom, validate_margin
from .spaces import BoundaryGrid, SpaceSpec, boundary_grid

MEANS_MAGIC = "# geomeans-means v2"


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
    _as_number(v, path)  # an integer that no float holds is not finite
    if least is not None and v < least:
        raise ConfigError(f"{path} must be >= {least}, not {v}")
    return v


def _as_positive(v, path: str) -> float:
    v = _as_number(v, path)
    if v <= 0:
        raise ConfigError(f"{path} must be positive")
    return v


@contextmanager
def _sizing(field: str, size: int):
    """Name the field and its size when the grid built in the block asks
    for more memory than there is."""
    try:
        yield
    except MemoryError as e:
        raise ConfigError(f"{field} {size}: {e}") from None


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


def _as_space(sp, path: str, as_radius: Callable[[object, str], float]) -> SpaceSpec:
    """The space object at path, its radius read by as_radius."""
    _fields(sp, ("kind", "n", "radius"), path)
    kind = _need(sp, "kind", path)
    if not isinstance(kind, str):
        raise ConfigError(f"{path}.kind must be a string")
    n = _as_int(_need(sp, "n", path), f"{path}.n")
    radius = as_radius(_need(sp, "radius", path), f"{path}.radius")
    try:
        return SpaceSpec(kind, n, radius)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_config(raw: dict) -> dict:
    _fields(raw, ("space", "phantom", "grids", "method", "alpha", "forward_profile", "seed"),
            "config")
    space = _as_space(_need(raw, "space", "config"), "config.space", _as_number)
    n = space.n
    bumps = []
    listed = _need(raw, "phantom", "config")
    if not isinstance(listed, list):
        raise ConfigError("config.phantom must be a list of bumps")
    for i, b in enumerate(listed):
        pth = f"config.phantom[{i}]"
        _fields(b, ("center", "geodesic_radius", "amplitude"), pth)
        center = spaces.lift(space, _as_coords(_need(b, "center", pth), n, f"{pth}.center"))
        radius = _as_number(_need(b, "geodesic_radius", pth), f"{pth}.geodesic_radius")
        amplitude = _as_number(_need(b, "amplitude", pth), f"{pth}.amplitude")
        try:
            bumps.append(Bump(center, radius, amplitude))
        except ValueError as e:
            raise ConfigError(f"{pth}: {e}") from None
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
        "fd_step": _as_positive(g.get("fd_step", 1e-2 * space.radius),
                               "config.grids.fd_step"),
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
        with _sizing(f"{pth}.points_per_axis", ppa):
            points = chart_box_grid(space, center, half, ppa, ball)
        if points.shape[0] == 0:
            raise ConfigError(f"{pth} selects no point: every node lies outside the "
                              "admissible interior or the ball_radius")
        grids["recon_grid"] = {"center": center, "half_width": half, "points_per_axis": ppa,
                               "ball_radius": ball}
    alpha = raw.get("alpha")
    if alpha is not None:
        alpha = _as_number(alpha, "config.alpha")
        try:
            validate_trace_order(space, alpha, "config.alpha")
        except ValueError as e:
            raise ConfigError(str(e)) from None
    method = raw.get("method", "direct")
    try:
        validate_method(space, alpha, method, "config.method")
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
    """Versioned CSV: magic, JSON metadata, then line k: centre k's index and
    its values on the metadata's t-grid."""
    space = data.space
    meta = {
        "space": {"kind": space.kind, "n": space.n, "radius": repr(space.radius)},
        "boundary_m": data.boundary.m,
        "t0": repr(data.tgrid.a),
        "t1": repr(data.tgrid.b),
        "t_points": data.tgrid.n,
        "alpha": None if data.alpha is None else repr(data.alpha),
    }
    with open(path, "w") as fh:
        fh.write(f"{MEANS_MAGIC}\n# {json.dumps(meta, sort_keys=True)}\ncenter_idx,values\n")
        # one centre's line at a time, so the text of the whole file is never
        # held; each distinct row's values are formatted once: the one row of
        # radial means serves every centre
        rows = data.rows
        for i in range(data.boundary.m):
            if i < len(rows):
                text = ",".join(map(repr, rows[i].tolist()))
            fh.write(f"{i},{text}\n")


def _as_float_text(v, path: str) -> float:
    """A float that `write_means` writes as its repr string."""
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            pass
    raise ConfigError(f"{path} must be a float written as a string, not {v!r}")


def _means_metadata(line: str) -> tuple[SpaceSpec, BoundaryGrid, TGrid, float | None]:
    """The space, boundary grid, t-grid and trace order of a means file's
    metadata line, each field checked and named as `means metadata.<field>`;
    the t-grid's range and the trace order take `MeanData`'s checks."""
    if not line.startswith("# "):
        raise ValueError("missing metadata line")
    try:
        meta = json.loads(line[2:])
    except json.JSONDecodeError as e:
        raise ValueError(f"means metadata is not valid JSON: {e}") from None
    path = "means metadata"
    _fields(meta, ("space", "boundary_m", "t0", "t1", "t_points", "alpha"), path)
    space = _as_space(_need(meta, "space", path), f"{path}.space", _as_float_text)
    m = _as_int(_need(meta, "boundary_m", path), f"{path}.boundary_m", 4)
    t0 = _as_float_text(_need(meta, "t0", path), f"{path}.t0")
    t1 = _as_float_text(_need(meta, "t1", path), f"{path}.t1")
    npts = _as_int(_need(meta, "t_points", path), f"{path}.t_points")
    alpha = _need(meta, "alpha", path)
    alpha = None if alpha is None else _as_float_text(alpha, f"{path}.alpha")
    try:
        grid = TGrid.linspace(t0, t1, npts)
    except (ValueError, MemoryError) as e:
        raise ValueError(f"means file t_points {npts} from t0 {t0!r} to t1 {t1!r}: "
                         f"{e}") from None
    # the writer's count is a grid size: fed back as the budget, it gives the grid
    try:
        boundary = boundary_grid(space, m)
    except (ValueError, MemoryError) as e:
        raise ConfigError(f"{path}.boundary_m {m}: {e}") from None
    if boundary.m != m:
        raise ConfigError(f"{path}.boundary_m {m} is no boundary grid size of the space: "
                          f"a budget of {m} gives {boundary.m} centres")
    validate_tgrid_range(space, grid)
    if alpha is not None:
        validate_trace_order(space, alpha, "alpha")
    return space, boundary, grid, alpha


def read_means(path: str) -> MeanData:
    """Read a means file one line at a time into the (m, N) values.

    The metadata is checked first; then the first bad data line, counted
    from 0 like the centres, is named: one that is missing or beyond the m
    centres, that does not hold its centre index and N values, or that
    holds a value which is no finite float (named by its value column j and
    t_j).
    """
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        version = magic.removeprefix("# geomeans-means ")
        if version != magic and magic != MEANS_MAGIC:
            raise ValueError(f"means file format {version!r} is not read "
                             f"(expected {MEANS_MAGIC!r})")
        if magic != MEANS_MAGIC:
            raise ValueError(f"not a means file (expected {MEANS_MAGIC!r})")
        space, boundary, grid, alpha = _means_metadata(fh.readline().rstrip("\n"))
        if fh.readline().rstrip("\n") != "center_idx,values":
            raise ValueError("unexpected column header")
        values = np.empty((boundary.m, grid.n))
        for k, row in enumerate(values):
            _read_line(fh.readline(), k, grid, row)
        if fh.readline():
            raise ValueError(f"means data line {boundary.m} is past the {boundary.m} centres "
                             "of the metadata")
    return MeanData(space, boundary, grid, values, alpha)


def _read_line(line: str, k: int, grid: TGrid, out: np.ndarray) -> None:
    """Parse data line k of a means file, `k,v_0,...,v_{N-1}`, into out."""
    where = f"means data line {k}"
    if not line:
        raise ValueError(f"{where} is missing: the file ends after {k} centres")
    fields = line.rstrip("\n").split(",")
    if len(fields) != 1 + grid.n:
        raise ValueError(f"{where} has {len(fields)} fields, not center_idx and {grid.n} values")
    if fields[0] != str(k):
        raise ValueError(f"{where} has center_idx {fields[0]!r}, not {k}")
    try:
        out[:] = fields[1:]
    except ValueError:
        out[:] = [_float_or_nan(v) for v in fields[1:]]
    if not np.all(np.isfinite(out)):
        j = int(np.argmin(np.isfinite(out)))
        raise ValueError(f"{where}, value column {j} (t = {float(grid.values[j])!r}): "
                         f"{fields[1 + j]!r} is not a finite number")


def _float_or_nan(text: str) -> float:
    """The float of text, or nan where text is no float."""
    try:
        return float(text)
    except ValueError:
        return np.nan


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
    """A report's header, data rows and footer. A header that is not
    x_1,...,x_n,f_true,f_rec, a footer that is not a JSON object, a row
    without one cell per header column, or a cell that is no finite float
    fails naming the part: the header, the footer or the data row, counted
    from 0, and column."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        n = len(header) - 2
        if n < 1 or header != [f"x_{k + 1}" for k in range(n)] + ["f_true", "f_rec"]:
            raise ValueError(f"report {path} header: {','.join(header)!r} is not "
                             "x_1,...,x_n,f_true,f_rec")
        rows = []
        footer = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                try:
                    footer = json.loads(line[2:])
                except json.JSONDecodeError as e:
                    raise ValueError(f"report {path} footer: {e}") from None
                if not isinstance(footer, dict):
                    raise ValueError(f"report {path} footer: {line[2:]!r} is not a JSON object")
                break
            if not line:
                continue
            cells, where = line.split(","), f"report {path} data row {len(rows)}"
            if len(cells) != len(header):
                raise ValueError(f"{where} has {len(cells)} cells for the {len(header)} "
                                 f"columns {','.join(header)}")
            values = []
            for name, cell in zip(header, cells):
                values.append(_float_or_nan(cell))
                if not np.isfinite(values[-1]):
                    raise ValueError(f"{where}, column {name}: {cell!r} is not a finite number")
            rows.append(values)
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
    space, grids = cfg["space"], cfg["grids"]
    with _sizing("config.grids.boundary_points", grids["boundary_points"]):
        bd = boundary_grid(space, grids["boundary_points"])
    with _sizing("config.grids.t_points", grids["t_points"]):
        tg = default_tgrid(space, grids["t_points"])
    alpha = cfg["alpha"]
    if alpha is None:
        return forward_means(cfg["phantom"], bd, tg, order=grids["quadrature_order"],
                             profile=cfg["forward_profile"])
    # parse_config admits traces in R^n and on the cap only
    generate = epd_trace_euclidean if space.kind == spaces.EUCLIDEAN else epd_trace_sphere
    return generate(cfg["phantom"], bd, tg, alpha, order=grids["quadrature_order"])


def cmd_forward(cfg: dict, out_path: str) -> int:
    write_means(_forward_data(cfg), out_path)
    print(f"wrote means to {out_path}")
    return 0


def _reconstruct(cfg: dict, data: MeanData) -> ReconstructionReport:
    """The report of inverting data at the config's points, with the
    seconds of the inversion."""
    pts = _recon_points(cfg)
    start = time.perf_counter()
    rec = invert(data, pts, method=cfg["method"])
    elapsed = time.perf_counter() - start
    return make_report(pts, cfg["phantom"](pts), rec, cfg["method"], elapsed)


def _invert_to_report(cfg: dict, data: MeanData, out_path: str) -> int:
    rep = _reconstruct(cfg, data)
    write_report(rep, cfg["space"], out_path)
    print(f"rel_l2={rep.rel_l2:.6f} sup_err={rep.sup_err:.6f} "
          f"calibration={rep.calibration:.6f} ({rep.seconds:.1f}s)")
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


def cmd_verify(suite: str) -> int:
    # only verify reads the checks, so a plain import of cli does not load them
    from . import checks

    if suite != "all" and suite not in checks.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick {'|'.join(checks.SUITES)}|all")
    failures = 0
    for check in checks.CHECKS:
        if suite in ("all", check.suite):
            for figure in check.figures():
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
    p.set_defaults(run=lambda a: cmd_forward(load_config(a.config), a.out))

    p = sub.add_parser("invert", help="reconstruct from a means file")
    p.add_argument("--config", required=True)
    p.add_argument("--means", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_invert(load_config(a.config), a.means, a.out))

    p = sub.add_parser("roundtrip", help="forward then invert in memory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_roundtrip(load_config(a.config), a.out))

    p = sub.add_parser("epd-roundtrip", help="trace forward then trace inversion")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_epd_roundtrip(load_config(a.config), a.out))

    p = sub.add_parser("verify", help="run identity/lemma verification checks")
    # verify checks the suite name, so that the other subcommands never load
    # the checks
    p.add_argument("--suite", default="all", help="a suite of the checks, or all")
    p.set_defaults(run=lambda a: cmd_verify(a.suite))

    p = sub.add_parser("render", help="render a report slice as a PGM image")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slice", default=None, help="axis=value, e.g. x3=0.0")
    p.set_defaults(run=lambda a: cmd_render(a.report, a.out, a.slice))

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
