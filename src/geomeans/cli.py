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
from scipy.special import gamma

from . import spaces, special_verify as sv
from .forward import MeanData, default_tgrid, epd_trace_euclidean, epd_trace_sphere, forward_means
from .fractional import FractionalSpec, erdelyi_kober, erdelyi_kober_ac, riemann_liouville_right
from .inversion import (
    backproject,
    chart_box_grid,
    invert,
    log_potential,
    make_report,
    phantom_integral,
    riesz_potential,
)
from .numerics import (
    SampledProfile,
    TGrid,
    darboux_L_matrix,
    laplacian_fd,
    log_kernel_table,
)
from .phantoms import Bump, Phantom, laplacian_field, validate_margin
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
    return float(v)


def _as_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path} must be an integer")
    return v


def load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(raw)


def parse_config(raw: dict) -> dict:
    sp = _need(raw, "space", "config")
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
        center = np.asarray(_need(b, "center", pth), dtype=float)
        if center.shape != (n,):
            raise ConfigError(f"{pth}.center must have {n} chart coordinates")
        bumps.append(Bump(
            spaces.lift(space, center),
            _as_number(_need(b, "geodesic_radius", pth), f"{pth}.geodesic_radius"),
            _as_number(_need(b, "amplitude", pth), f"{pth}.amplitude"),
        ))
    try:
        phantom = Phantom(space, tuple(bumps))
        validate_margin(phantom)
    except ValueError as e:
        raise ConfigError(f"config.phantom: {e}") from None
    g = _need(raw, "grids", "config")
    grids = {
        "boundary_points": _as_int(_need(g, "boundary_points", "config.grids"),
                                   "config.grids.boundary_points"),
        "t_points": _as_int(_need(g, "t_points", "config.grids"), "config.grids.t_points"),
        "quadrature_order": _as_int(g.get("quadrature_order", 16), "config.grids.quadrature_order"),
        "fd_step": _as_number(g.get("fd_step", 1e-2 * radius), "config.grids.fd_step"),
        "recon_grid": g.get("recon_grid"),
    }
    if grids["fd_step"] <= 0:
        raise ConfigError("config.grids.fd_step must be positive")
    rg = grids["recon_grid"]
    if rg is not None:
        center = np.asarray(_need(rg, "center", "config.grids.recon_grid"), dtype=float)
        if center.shape != (n,):
            raise ConfigError(f"config.grids.recon_grid.center must have {n} coordinates")
    method = raw.get("method", "direct")
    if method not in ("direct", "modified"):
        raise ConfigError("config.method must be 'direct' or 'modified'")
    alpha = raw.get("alpha")
    if alpha is not None:
        alpha = _as_number(alpha, "config.alpha")
    profile = raw.get("forward_profile", "exact")
    if profile not in ("exact", "sections"):
        raise ConfigError("config.forward_profile must be 'exact' or 'sections'")
    return {
        "space": space,
        "phantom": phantom,
        "grids": grids,
        "method": method,
        "alpha": alpha,
        "forward_profile": profile,
        "seed": int(raw.get("seed", 0)),
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
    center = np.asarray(rg["center"], dtype=float)
    half = float(rg["half_width"])
    ppa = int(rg["points_per_axis"])
    ball = rg.get("ball_radius")
    return chart_box_grid(space, center, half, ppa,
                          ball_radius=None if ball is None else float(ball))


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
    lines = [MEANS_MAGIC, "# " + json.dumps(meta, sort_keys=True), "center_idx,t,value"]
    t = data.tgrid.values
    for i in range(data.boundary.m):
        for j in range(data.tgrid.n):
            lines.append(f"{i},{float(t[j])!r},{float(data.values[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        grid = TGrid(np.linspace(t0, t1, npts))
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
    if space.kind == spaces.EUCLIDEAN:
        return epd_trace_euclidean(cfg["phantom"], bd, tg, alpha,
                                   order=cfg["grids"]["quadrature_order"])
    if space.kind == spaces.SPHERE:
        return epd_trace_sphere(cfg["phantom"], bd, tg, alpha,
                                order=cfg["grids"]["quadrature_order"])
    raise ConfigError("trace generation is not provided on the hyperboloid")


def cmd_forward(cfg: dict, out_path: str) -> int:
    write_means(_forward_data(cfg), out_path)
    print(f"wrote means to {out_path}")
    return 0


def _invert_to_report(cfg: dict, data: MeanData, out_path: str) -> int:
    pts = _recon_points(cfg)
    start = time.perf_counter()
    rec = invert(data, pts, method=cfg["method"], fd_step=cfg["grids"]["fd_step"])
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


def cmd_render(report_path: str, out_path: str, slice_spec: str | None) -> int:
    header, rows, _ = read_report(report_path)
    ncols = len(header)
    n = ncols - 2
    coords = rows[:, :n]
    frec = rows[:, n + 1]
    keep_axes = list(range(n))
    if slice_spec:
        for part in slice_spec.split(","):
            axis_s, val_s = part.split("=")
            axis = int(axis_s.lstrip("x")) - 1
            val = float(val_s)
            vals = coords[:, axis]
            tol = 0.5 * _min_spacing(vals)
            mask = np.abs(vals - val) <= tol
            rows = rows[mask]
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


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_lemmas():
    checks = []
    for n in (3, 4, 5, 6):
        expect = float(gamma((n - 1) / 2.0))
        for h in (-0.9, -0.5, 0.0, 0.4, 0.8):
            got = sv.g_alpha_continued(n, 3 - n, h)
            checks.append((f"g_alpha_limit n={n} h={h:+.1f}", got, expect,
                           1e-6 * expect, abs(got - expect) <= 1e-6 * expect))
    for n in (3, 4, 5):
        for a in (0.5, 1.0, 1.7):
            for h in (-0.6, 0.0, 0.7):
                d = sv.g_alpha_direct(n, a, h)
                cont = sv.g_alpha_continued(n, a, h)
                checks.append((f"g_alpha_match n={n} a={a} h={h:+.1f}", d, cont,
                               1e-8, abs(d - cont) < 1e-8))
    expect = -2.0 * np.pi * np.log(2.0)
    for h in (-0.9, 0.0, 0.5):
        got = sv.log_circle_integral(h)
        checks.append((f"log_circle h={h:+.1f}", got, expect, 1e-8,
                       abs(got - expect) < 1e-8))
    for nn in range(1, 7):
        for h in (-0.7, 0.0, 0.3, 0.8):
            got = sv.chebyshev_pv(nn, h)
            expect = np.pi * sv.chebyshev_u(nn - 1, h)
            checks.append((f"chebyshev_pv deg={nn} h={h:+.1f}", got, expect,
                           1e-6, abs(got - expect) < 1e-6))
    gp = sv.gaussian_profile()
    for a in (-4.0, -3.0, -2.0, -1.0):
        got = sv.regularized_power_integral(gp, a)
        checks.append((f"power_integral a={a}", got, 1.0, 1e-6, abs(got - 1.0) < 1e-6))
    for m in (1, 2):
        got = sv.power_integral_log_form(gp, m)
        checks.append((f"power_integral_log m={m}", got, 1.0, 1e-6, abs(got - 1.0) < 1e-6))
    return checks


def _suite_fractional():
    from .phantoms import bump_profile

    checks = []
    g = TGrid.linspace(1e-3, 2.0, 1200)
    bump = bump_profile((g.values - 1.0) / 0.4)
    pb = SampledProfile(g, bump)
    for a in (0.5, 1.0, 1.5):
        fwd = erdelyi_kober(pb, FractionalSpec(0.5, a), order=256)
        back = erdelyi_kober_ac(fwd, FractionalSpec(0.5 + a, -a), order=256)
        err = float(np.max(np.abs(back.samples - bump)))
        checks.append((f"ek_roundtrip a={a}", err, 0.0, 1e-4, err <= 1e-4))
    g2 = TGrid.linspace(-1 + 1e-3, 1 - 1e-3, 1200)
    bump2 = bump_profile(g2.values / 0.5)
    pb2 = SampledProfile(g2, bump2)
    for a in (0.5, 1.0, 1.5):
        fwd = riemann_liouville_right(pb2, a, order=256)
        back = riemann_liouville_right(fwd, -a, order=256)
        err = float(np.max(np.abs(back.samples - bump2)))
        checks.append((f"rl_roundtrip a={a}", err, 0.0, 1e-4, err <= 1e-4))
    for a, b in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)):
        one = erdelyi_kober(pb, FractionalSpec(0.5, a), order=256)
        two = erdelyi_kober(one, FractionalSpec(0.5 + a, b), order=256)
        direct = erdelyi_kober(pb, FractionalSpec(0.5, a + b), order=256)
        err = float(np.max(np.abs(two.samples - direct.samples)))
        checks.append((f"ek_semigroup {a}+{b}", err, 0.0, 1e-4, err <= 1e-4))
    return checks


def _suite_identities(seed: int = 20240817):
    checks = []
    # potential identities
    spec3 = SpaceSpec(spaces.EUCLIDEAN, 3, 1.0)
    ph3 = Phantom(spec3, (Bump(np.array([0.2, 0.1, -0.15]), 0.32, 1.0),))
    xs3 = np.array([[0.2, 0.1, -0.15], [0.3, 0.15, -0.1], [0.1, 0.0, -0.2]])
    lap = laplacian_fd(lambda P: np.array([riesz_potential(ph3, p) for p in P]), xs3, 3e-3)
    tru = ph3(xs3)
    for k in range(3):
        rel = abs(-lap[k] - tru[k]) / abs(tru[k])
        checks.append((f"riesz_inverse pt{k}", -lap[k], tru[k], 0.01 * abs(tru[k]), rel <= 0.01))
    spec2 = SpaceSpec(spaces.EUCLIDEAN, 2, 1.0)
    ph2 = Phantom(spec2, (Bump(np.array([0.25, 0.1]), 0.30, 1.0),))
    xs2 = np.array([[0.25, 0.1], [0.35, 0.05], [0.15, 0.2]])
    lap2 = laplacian_fd(lambda P: np.array([log_potential(ph2, p) for p in P]), xs2, 3e-3)
    tru2 = ph2(xs2)
    for k in range(3):
        rel = abs(lap2[k] - tru2[k]) / abs(tru2[k])
        checks.append((f"log_inverse pt{k}", lap2[k], tru2[k], 0.01 * abs(tru2[k]), rel <= 0.01))
    # boundary-integral identities against the chart potential
    for kind, rad, const in ((spaces.EUCLIDEAN, 1.0, None),
                             (spaces.SPHERE, 0.8, None),
                             (spaces.HYPERBOLIC, 0.8, None)):
        spec = SpaceSpec(kind, 2, rad)
        cp = np.array([0.15, -0.10])
        center = spaces.lift(spec, cp)
        ph = Phantom(spec, (Bump(center, 0.22, 1.0),))
        bd = boundary_grid(spec, 128)
        tg = default_tgrid(spec)
        data = forward_means(ph, bd, tg)
        t = tg.values
        if kind == spaces.EUCLIDEAN:
            prof = data.values * t
            kern = "log|t^2-s^2|"
            cf_log = np.log(spec.radius)
        else:
            prof = data.values
            kern = "log|t-s|"
            cf_log = np.log(np.sin(rad) / 2) if kind == spaces.SPHERE else np.log(np.sinh(rad) / 2)
        lo, hi = spec.tgrid_range
        slack = 1e-6 * (hi - lo)
        tbl_grid = TGrid.linspace(lo + slack, hi - slack, 700)
        tbl = log_kernel_table(prof, tg, tbl_grid.values, kernel=kern)
        cf = -cf_log / (2.0 * np.pi) * phantom_integral(ph)
        for xp in (np.array([0.15, -0.10]), np.array([0.05, 0.02])):
            x = spaces.lift(spec, xp)
            rhs = float(backproject(bd, tbl_grid, tbl, x[None, :], fill="error")[0]) + cf
            lhs = log_potential(ph, x)
            checks.append((f"log_identity {kind} x=({xp[0]:+.2f},{xp[1]:+.2f})",
                           rhs, lhs, 1e-3, abs(lhs - rhs) <= 1e-3))
    # radial wave operator intertwines with the means (n = 3)
    spec = SpaceSpec(spaces.EUCLIDEAN, 3, 1.0)
    ph = Phantom(spec, (Bump(np.array([0.2, 0.1, -0.15]), 0.32, 1.0),))
    bd = boundary_grid(spec, 16)
    tg = default_tgrid(spec)
    means = forward_means(ph, bd, tg)
    lap_means = forward_means(laplacian_field(ph), bd, tg)
    L_means = darboux_L_matrix(means.values, tg, 3)
    sel = (tg.values > 0.7) & (tg.values < 1.3)
    rel = float(np.max(np.abs(lap_means.values[:, sel] - L_means[:, sel]))
                / np.max(np.abs(lap_means.values[:, sel])))
    checks.append(("darboux_property n=3", rel, 0.0, 1e-3, rel <= 1e-3))
    # interior pairs keep the kernel offset strictly inside (-1, 1)
    rng = np.random.default_rng(seed)
    for kind, rad in ((spaces.EUCLIDEAN, 1.0), (spaces.SPHERE, 0.8), (spaces.HYPERBOLIC, 0.8)):
        spec = SpaceSpec(kind, 2, rad)
        worst = _h_bound_worst(spec, rng, 10_000)
        checks.append((f"h_bound {kind}", worst, 0.0, 1.0, worst < 1.0))
    return checks


def _h_bound_worst(spec: SpaceSpec, rng, pairs: int) -> float:
    """Largest |h| over random pairs at geodesic distance <= 0.9 radius."""
    bound = 0.9 * spec.radius
    worst = 0.0
    got = 0
    while got < pairs:
        draw = rng.uniform(-1.0, 1.0, size=(2 * pairs, 2, spec.n)) * bound
        r = np.linalg.norm(draw, axis=2)
        sel = draw[(r <= bound).all(axis=1)][: pairs - got]
        if sel.size == 0:
            continue
        got += sel.shape[0]
        if spec.kind == spaces.EUCLIDEAN:
            x, y = sel[:, 0, :], sel[:, 1, :]
            sep = np.linalg.norm(x - y, axis=1)
            ok = sep > 1e-9
            h = ((x ** 2).sum(1) - (y ** 2).sum(1))[ok] / (2.0 * spec.radius * sep[ok])
        else:
            # cube radius taken as geodesic distance in polar normal coordinates
            r = np.linalg.norm(sel, axis=2)
            scale = np.sin(r) if spec.kind == spaces.SPHERE else np.sinh(r)
            chart = sel * np.divide(scale, r, out=np.ones_like(r), where=r > 0)[..., None]
            lifted = spaces.lift(spec, chart)
            sep = np.linalg.norm(chart[:, 0, :] - chart[:, 1, :], axis=1)
            ok = sep > 1e-9
            ratio = (lifted[:, 0, -1] - lifted[:, 1, -1])[ok] / sep[ok]
            factor = 1.0 / np.tan(spec.radius) if spec.kind == spaces.SPHERE \
                else 1.0 / np.tanh(spec.radius)
            h = ratio * factor
        if h.size:
            worst = max(worst, float(np.max(np.abs(h))))
    return worst


def cmd_verify(suite: str, seed: int = 20240817) -> int:
    suites = {
        "lemmas": _suite_lemmas,
        "identities": lambda: _suite_identities(seed),
        "fractional": _suite_fractional,
    }
    if suite == "all":
        names = ["lemmas", "fractional", "identities"]
    elif suite in suites:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}; pick lemmas|identities|fractional|all")
    failures = 0
    for name in names:
        for label, got, expect, tol, ok in suites[name]():
            status = "PASS" if ok else "FAIL"
            print(f"{label:<42s} computed={got: .10g} expected={expect: .10g} "
                  f"tol={tol:.2g} {status}")
            failures += 0 if ok else 1
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
    p.add_argument("--suite", default="all",
                   choices=["lemmas", "identities", "fractional", "all"])
    p.add_argument("--seed", type=int, default=20240817,
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
