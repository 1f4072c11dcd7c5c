import re

import numpy as np
import pytest
from cubic_reference import cubic_cells, cubic_weights
from hypothesis import given, settings, strategies as st
from scipy.special import gamma
from whole_reference import whole_invert, whole_rows, whole_source

from geomeans import cli, fractional, inversion, spaces
from geomeans.checks import phantom_integral, riesz_potential
from geomeans.forward import MeanData, default_tgrid, forward_means
from geomeans.inversion import (
    _BLOCK_CELLS,
    _chart_coefficients,
    _observation_args,
    _prefactor,
    _read_range,
    backproject,
    chart_box_grid,
    invert,
    make_report,
)
from geomeans.numerics import (
    TGrid,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    laplacian_fd,
    log_kernel_table,
    quintic_interp,
)
from geomeans.phantoms import Bump, Phantom, bump_profile
from geomeans.spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid

E2 = SpaceSpec(EUCLIDEAN, 2, 1.0)
E3 = SpaceSpec(EUCLIDEAN, 3, 1.0)


def bump_at(space, chart_center, radius, amp=1.0):
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, amp),))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_n3():
    assert abs(_prefactor(E3) - (-1.0 / (2.0 * np.pi))) < 1e-15
    assert abs(E3.boundary_area - 4.0 * np.pi) < 1e-12
    for kind in (SPHERE, HYPERBOLIC):
        assert abs(_prefactor(SpaceSpec(kind, 3, 0.8)) - 1.0 / (2.0 * np.pi)) < 1e-15


def test_constants_n2():
    # the even-dimension constant continues down to n = 2 as +1/(2 pi R)
    assert abs(_prefactor(E2) - 1.0 / (2.0 * np.pi)) < 1e-15
    for kind in (SPHERE, HYPERBOLIC):
        assert abs(_prefactor(SpaceSpec(kind, 2, 0.8)) - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# back-projection
# ---------------------------------------------------------------------------

def test_backproject_constant():
    bd = boundary_grid(E2, 32)
    tg = default_tgrid(E2, 128)
    F = np.ones((bd.m, tg.n))
    out = backproject(bd, tg, whole_source(F), np.array([[0.2, 0.1]]), fill="error")
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_backproject_squared_distance_at_origin():
    bd = boundary_grid(E2, 64)
    tg = default_tgrid(E2, 256)
    F = np.tile(tg.values ** 2, (bd.m, 1))
    out = backproject(bd, tg, whole_source(F), np.zeros((1, 2)), fill="error")
    assert abs(out[0, 0] - 1.0) < 1e-9  # all |x - xi| = R


def test_backproject_single_center():
    bd = boundary_grid(E2, 4)
    centers = bd.centers[:1]
    from geomeans.spaces import BoundaryGrid

    single = BoundaryGrid(E2, centers, np.array([1.0]))
    tg = default_tgrid(E2, 128)
    F = np.sin(tg.values)[None, :]
    x = np.array([[0.3, 0.0]])
    out = backproject(single, tg, whole_source(F), x, fill="error")
    r = np.linalg.norm(x[0] - centers[0])
    assert abs(out[0, 0] - np.sin(r)) < 1e-9


def test_backproject_fill_policy():
    bd = boundary_grid(E2, 8)
    tg = default_tgrid(E2, 128)
    supported = np.zeros((bd.m, tg.n))
    supported[:, 40:60] = 1.0
    # fill=0.0: arguments outside the grid count as zero
    far = np.array([[0.999, 0.0]])
    out = backproject(bd, tg, whole_source(supported), far, fill=0.0)
    assert np.isfinite(out[0, 0])
    # fill='error': out-of-grid arguments must raise
    touching = np.ones((bd.m, tg.n))
    closer = np.array([[0.9997, 0.0]])
    with pytest.raises(ValueError):
        backproject(bd, tg, whole_source(touching), closer, fill="error")


def _asking(source, asked):
    """source, keeping each block (lo, hi) it is asked for in `asked`."""
    def asking(lo, hi):
        asked.append((lo, hi))
        return source(lo, hi)

    return asking


def test_backproject_checks_its_arguments_and_takes_no_points(monkeypatch):
    bd = boundary_grid(E2, 8)
    tg = default_tgrid(E2, 128)
    F = np.ones((bd.m, tg.n))
    x = np.array([[0.2, 0.1]])
    with pytest.raises(ValueError, match="^fill must be 0.0 or 'error'$"):
        backproject(bd, tg, whole_source(F), x, fill="zero")
    # sources whose block is no sequence of (hi - lo, N) tables of one
    # shape: a bare table, short or long on either axis, one row for the
    # first or a later block, mixed, none, or a count that changes from
    # block to block
    sources = (lambda lo, hi: F[lo:hi], lambda lo, hi: (F[lo:hi - 1],),
               lambda lo, hi: (F[lo:hi + 1],), lambda lo, hi: (F[lo:hi, :-1],),
               lambda lo, hi: (np.ones((hi - lo, tg.n + 1)),), lambda lo, hi: (F[:1],),
               lambda lo, hi: (F[lo:hi] if lo == 0 else F[:1],),
               lambda lo, hi: [F[lo:hi], F[lo:hi, :-1]], lambda lo, hi: (),
               lambda lo, hi: [F[lo:hi]] * (1 + (lo > 0)))
    monkeypatch.setattr(inversion, "_BLOCK_CELLS", 3 * tg.n)
    assert bd.m > 3
    for bad in sources:
        with pytest.raises(ValueError, match=r"^need tables \(centres, N\) on the grid"):
            backproject(bd, tg, bad, x, fill=0.0)
    # with no points only the first block is asked for, and the result
    # still holds one row per table, and the t row
    none, asked = np.zeros((0, 2)), []
    source = _asking(whole_source(F, F), asked)
    assert backproject(bd, tg, source, none, fill=0.0).shape == (2, 0)
    assert backproject(bd, tg, source, none, fill="error", times_t=True).shape == (3, 0)
    assert asked == [(0, 3)] * 2


@pytest.mark.parametrize("space", [E2, SpaceSpec(SPHERE, 3, 0.8)])
def test_backproject_stack_equals_single_calls(monkeypatch, space):
    # a stack of tables shares arguments and cells but must give exactly the
    # numbers of one call per table, in blocks of 7 centres
    rng = np.random.default_rng(5)
    bd = boundary_grid(space, 40)
    tg = default_tgrid(space, 128)
    tables = rng.standard_normal((3, bd.m, tg.n))
    x = spaces.lift(space, rng.uniform(-0.3, 0.3, size=(50, space.n)))
    monkeypatch.setattr(inversion, "_BLOCK_CELLS", 7 * tg.n)
    assert bd.m % 7 and bd.m > 14
    asked = []
    stacked = backproject(bd, tg, _asking(whole_source(*tables), asked), x, fill=0.0)
    assert stacked.shape == (3, 50)
    assert asked == [(lo, min(lo + 7, bd.m)) for lo in range(0, bd.m, 7)]
    for table, row in zip(tables, stacked):
        assert np.array_equal(row, backproject(bd, tg, whole_source(table), x, fill=0.0)[0])
    # a table that is not C-contiguous reads the same numbers
    fortran = whole_source(tables[0], np.asfortranarray(tables[1]), tables[2])
    assert np.array_equal(backproject(bd, tg, fortran, x, fill=0.0), stacked)


def _backproject_reference(boundary, grid, tables, x, fill):
    """The back-projection of a sequence of whole tables by the route without
    blocks or a flat index: the broadcast distance resp. pairing on
    (centres, points), every point in one block, the four stencil values
    read with take_along_axis and the fill applied with np.where."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    space, centers = boundary.space, boundary.centers
    if space.kind == EUCLIDEAN:
        args = np.linalg.norm(centers[:, None, :] - x[None, :, :], axis=-1)
    else:
        args = spaces.pairing(space, centers[:, None, :], x[None, :, :])
    inside = (args >= grid.a) & (args <= grid.b)
    if fill == "error" and not np.all(inside):
        raise ValueError("interpolation point outside grid range")
    idx, s = cubic_cells(grid, np.where(inside, args, grid.a))
    out = []
    for table in tables:
        vals = np.zeros(idx.shape)
        for w, off in zip(cubic_weights(s), (-1, 0, 1, 2)):
            vals += w * np.take_along_axis(table, idx + off, axis=1)
        out.append(boundary.weights @ np.where(inside, vals, 0.0))
    return np.array(out)


def _interior_points(space, count, scale, rng):
    """count random points of the ball of chart radius scale * R, on the space."""
    xp = rng.standard_normal((count, space.n))
    xp *= scale * space.chart_radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / space.n) \
        / np.linalg.norm(xp, axis=1, keepdims=True)
    return spaces.lift(space, xp)


# 128 grid nodes: blocks of _BLOCK_CELLS // max(count, 128) centres, the
# last one partial at 800 centres
@pytest.mark.parametrize("space,m,rows,k,count", [
    (E2, 64, "m", None, 200),
    (E2, 64, 1, None, 200),
    (E3, 800, "m", None, 83),
    (E3, 800, 1, None, 83),
    (E3, 800, "m", None, 1),
    (SpaceSpec(EUCLIDEAN, 4, 1.0), 500, "m", None, 150),
    (SpaceSpec(EUCLIDEAN, 4, 1.0), 500, 1, None, 150),
    (SpaceSpec(SPHERE, 2, 0.8), 64, "m", 3, 200),
    (SpaceSpec(SPHERE, 3, 0.8), 800, "m", 3, 83),
    (SpaceSpec(HYPERBOLIC, 2, 0.8), 64, "m", 3, 200),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 800, 1, 3, 83),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 800, "m", 3, 1),
    (E3, 800, "m", None, 300),
    (SpaceSpec(SPHERE, 3, 0.8), 800, "m", 2, 300),
])
@pytest.mark.parametrize("coverage", ["full", "partial"])
def test_backproject_matches_reference(space, m, rows, k, count, coverage):
    # the blocked Newton form against the one-block Lagrange route. A partial
    # grid leaves some arguments off the grid, which fill=0.0 zeroes. Table
    # entries are positive, so no point's average cancels to a few ulps
    rng = np.random.default_rng(11)
    bd = boundary_grid(space, m)
    grid = default_tgrid(space, 128)
    fill = "error"
    if coverage == "partial":
        lo, hi = space.tgrid_range
        grid, fill = TGrid.linspace(lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo), 128), 0.0
    # k tables, or one where k is None, of a row per centre or of one row
    # tiled to every centre
    tables = rng.uniform(0.5, 1.5, (k or 1, bd.m if rows == "m" else 1, grid.n))
    tables = np.broadcast_to(tables, (k or 1, bd.m, grid.n))
    x = _interior_points(space, count, 0.9, rng)
    got = backproject(bd, grid, whole_source(*tables), x, fill=fill)
    ref = _backproject_reference(bd, grid, tables, x, fill)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_backproject_block_of_one_centre():
    # more points than a block has cells: each block holds one centre
    K = _BLOCK_CELLS + 7
    rng = np.random.default_rng(12)
    bd = boundary_grid(E2, 5)
    grid = TGrid(np.linspace(0.0, 2.0, 16))
    x = _interior_points(E2, K, 0.9, rng)
    for table in (rng.uniform(0.5, 1.5, (bd.m, grid.n)),
                  np.broadcast_to(rng.uniform(0.5, 1.5, grid.n), (bd.m, grid.n))):
        got = backproject(bd, grid, whole_source(table), x, fill="error")
        ref = _backproject_reference(bd, grid, [table], x, "error")
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("rows", ["m", 1])
def test_backproject_times_t_is_the_t_table(rows):
    # BP[t g] from the values gathered for g, against the explicit table
    # t g: arguments in both end cells (s in [-1, 0) and (1, 2]), on the
    # grid's ends, and off the grid on either side, which fill=0.0 zeroes
    rng = np.random.default_rng(14)
    grid = TGrid(np.linspace(0.3, 1.5, 40))
    h = grid.h
    wanted = np.concatenate([grid.a + h * rng.uniform(0.0, 1.0, 6),
                             grid.b - h * rng.uniform(0.0, 1.0, 6),
                             [grid.a, grid.b, grid.a - 0.1 * h, grid.b + 0.1 * h, 0.1, 1.9],
                             rng.uniform(grid.a, grid.b, 40)])
    # one point per argument at that distance from the first centre
    bd = boundary_grid(E2, 12)
    toward = -bd.centers[0] / np.linalg.norm(bd.centers[0])
    x = bd.centers[0] + wanted[:, None] * toward
    table = rng.uniform(0.5, 1.5, (bd.m if rows == "m" else 1, grid.n))
    table = np.broadcast_to(table, (bd.m, grid.n))
    got = backproject(bd, grid, whole_source(table), x, fill=0.0, times_t=True)
    assert got.shape == (2, x.shape[0])
    assert np.array_equal(got[:1], backproject(bd, grid, whole_source(table), x, fill=0.0))
    ref = _backproject_reference(bd, grid, [grid.values * table], x, 0.0)
    assert np.max(np.abs(got[1] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a stack keeps its tables' rows and adds t times the first one last
    stacked = backproject(bd, grid, whole_source(table, 2.0 * table), x, fill=0.0, times_t=True)
    assert np.array_equal(stacked[[0, 2]], got)
    with pytest.raises(ValueError, match="outside"):
        backproject(bd, grid, whole_source(table), x, fill="error", times_t=True)


def test_backproject_reads_cubics_exactly():
    # the nested Newton form reproduces a cubic profile g at every argument,
    # end cells included, and the t row reproduces t g for a quadratic g
    grid = TGrid(np.linspace(0.3, 1.5, 40))
    bd = boundary_grid(E2, 12)
    x = _interior_points(E2, 300, 0.5, np.random.default_rng(15))
    args = np.linalg.norm(x[:, None, :] - bd.centers[None, :, :], axis=-1)
    for g in (lambda t: 2.0 - t + 0.5 * t ** 2 - 1.5 * t ** 3, lambda t: 2.0 - t + 0.5 * t ** 2):
        table = np.broadcast_to(g(grid.values), (bd.m, grid.n))
        got = backproject(bd, grid, whole_source(table), x, fill="error", times_t=True)
        exact = (g(args) * bd.weights).sum(axis=1)
        assert np.max(np.abs(got[0] - exact)) <= 1e-13 * np.max(np.abs(exact))
    t_exact = (args * g(args) * bd.weights).sum(axis=1)
    assert np.max(np.abs(got[1] - t_exact)) <= 1e-13 * np.max(np.abs(t_exact))


# ---------------------------------------------------------------------------
# inversion basics
# ---------------------------------------------------------------------------

def test_zero_data_reconstructs_zero():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 300)
    data = MeanData(E3, bd, tg, np.zeros((bd.m, tg.n)))
    x = np.array([[0.1, 0.0, 0.2]])
    assert invert(data, x)[0] == 0.0
    bd2 = boundary_grid(E2, 16)
    tg2 = default_tgrid(E2, 300)
    data2 = MeanData(E2, bd2, tg2, np.zeros((bd2.m, tg2.n)))
    assert invert(data2, np.array([[0.1, 0.2]]))[0] == 0.0
    assert invert(data2, np.array([[0.1, 0.2]]), method="modified")[0] == 0.0


def test_inversion_linear_in_data():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 400)
    b1 = bump_at(E3, [0.2, 0.1, 0.0], 0.25)
    b2 = bump_at(E3, [-0.2, 0.0, 0.1], 0.2, amp=0.6)
    d1 = forward_means(b1, bd, tg)
    d2 = forward_means(b2, bd, tg)
    dsum = MeanData(E3, bd, tg, d1.values + d2.values)
    x = np.array([[0.15, 0.05, 0.0], [-0.1, 0.0, 0.05]])
    lhs = invert(dsum, x)
    rhs = invert(d1, x) + invert(d2, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_newtonian_potential_identity_n3():
    # filtered back-projection of t * means equals the weighted Newton
    # potential of the phantom at interior points
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    t = tg.values
    G = t * data.values
    x = np.array([[0.25, 0.05, -0.1], [0.0, 0.0, 0.0], [0.4, 0.2, -0.3]])
    lhs = 0.5 * E3.boundary_area * backproject(bd, tg, whole_source(G), x, fill=0.0)[0]
    lam = 0.25  # (2R)^{2-n} Gamma(n/2) / sqrt(pi) at n = 3, R = 1
    for k in range(3):
        newton = riesz_potential(ph, x[k]) / (gamma(0.5) / (4.0 * np.pi ** 1.5))
        assert abs(lhs[k] - lam * newton) / abs(lam * newton) < 0.01


def test_phantom_integral_euclid_closed_form():
    # mass of a single bump equals sigma_1 * amp * r^2 * int_0^1 w(s) s ds
    from geomeans.numerics import gauss_legendre
    from geomeans.phantoms import bump_profile

    ph = bump_at(E2, [0.25, 0.1], 0.30, amp=1.3)
    x, w = gauss_legendre(200, 0.0, 1.0)
    expect = 2.0 * np.pi * 1.3 * 0.3 ** 2 * np.dot(w, bump_profile(x) * x)
    assert abs(phantom_integral(ph) - expect) < 1e-12


# ---------------------------------------------------------------------------
# compact round trips (full-scale ones live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_roundtrip_euclid_n3_quick():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    pts = chart_box_grid(E3, np.array([0.2, 0.1, -0.15]), 0.42, 7, ball_radius=0.42)
    rec = invert(data, pts)
    rep = make_report(pts, ph(pts), rec, "direct")
    assert rep.rel_l2 < 0.01
    assert abs(rep.calibration - 1.0) < 0.01


def test_modified_agrees_with_direct_n3():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    pts = chart_box_grid(E3, np.array([0.2, 0.1, -0.15]), 0.42, 7, ball_radius=0.42)
    direct = invert(data, pts, method="direct")
    modified = invert(data, pts, method="modified")
    rel = np.linalg.norm(direct - modified) / np.linalg.norm(direct)
    assert rel <= 0.02


def test_curved_roundtrips_quick():
    for kind in (SPHERE, HYPERBOLIC):
        spec = SpaceSpec(kind, 2, 0.8)
        cp = np.array([0.15, -0.10])
        ph = bump_at(spec, cp, 0.22)
        bd = boundary_grid(spec, 96)
        tg = default_tgrid(spec)
        data = forward_means(ph, bd, tg)
        pts = chart_box_grid(spec, cp, 0.3, 9, ball_radius=0.3)
        rec = invert(data, pts)
        rep = make_report(pts, ph(pts), rec, "direct")
        assert rep.rel_l2 < 0.03
        assert abs(rep.calibration - 1.0) < 0.01


def test_report_ratios_of_huge_values_are_those_of_the_values():
    # rel_l2 and the calibration come from the values scaled by a power of
    # two, exactly, so values times 2^600 give the same bits and overflow no
    # sum of squares (a warning fails the suite); sup_err stays unscaled
    rng = np.random.default_rng(16)
    points = rng.standard_normal((40, 2))
    f_true = rng.uniform(0.5, 1.5, 40)
    f_rec = f_true + 1e-3 * rng.standard_normal(40)
    rep = make_report(points, f_true, f_rec, "direct")
    big = make_report(points, f_true * 2.0 ** 600, f_rec * 2.0 ** 600, "direct")
    assert (big.rel_l2, big.calibration) == (rep.rel_l2, rep.calibration)
    assert big.sup_err == rep.sup_err * 2.0 ** 600
    assert np.array_equal(big.f_true, f_true * 2.0 ** 600)

def _table_grid(space, tg):
    """The full log-table target grid: the nodes of the data grid's lattice,
    stepped by (b - a)/(N - 1), from the first below the open t-range (the
    first above 0 in R^n) to the first above it, counted in whole steps
    from the data grid's ends."""
    lo, hi = space.tgrid_range
    step = (tg.b - tg.a) / (tg.n - 1)
    k = np.arange(-np.floor((tg.a - lo) / step) - 1, tg.n + np.floor((hi - tg.b) / step) + 1)
    t = tg.a + k * step
    return TGrid(t[t > 0] if space.kind == EUCLIDEAN else t)


def _fd_laplacian_reference(data, x):
    """Reconstruction by the finite-difference route: the filtered
    back-projection as a field of chart points, and laplacian_fd on it with
    a step of 1% of the radius."""
    space, bd, tg = data.space, data.boundary, data.tgrid
    n, t = space.n, tg.values
    d = _prefactor(space)
    h = 1e-2 * space.radius
    if space.kind == EUCLIDEAN:
        if n % 2 == 1:
            grid, fill = tg, 0.0
            prof = d_operator_matrix(t ** (n - 2) * data.values, tg, n - 3)
        else:
            grid, fill = _table_grid(space, tg), "error"
            q = t * d_operator_matrix(t ** (n - 2) * data.values, tg, n - 2)
            prof = log_kernel_table(q, tg, grid.values, kernel="log|t^2-s^2|")
        field = lambda p: space.boundary_area * backproject(bd, grid, whole_source(prof), p,
                                                            fill=fill)[0]
        return d * laplacian_fd(field, x, h)
    weight = (1.0 - t ** 2) if space.kind == SPHERE else (t ** 2 - 1.0)
    F = data.values * weight ** (n / 2.0 - 1.0)
    if n % 2 == 1:
        grid, fill, scale = tg, 0.0, -1.0
        prof = diff_matrix(F, tg, n - 3)
    else:
        grid, fill, scale = _table_grid(space, tg), "error", 1.0 / np.pi
        prof = log_kernel_table(diff_matrix(F, tg, n - 2), tg, grid.values, kernel="log|t-s|")
    field = lambda p: scale * space.boundary_area * backproject(
        bd, grid, whole_source(prof), spaces.lift(space, p), fill=fill)[0]
    rim = np.sin(space.radius) if space.kind == SPHERE else np.sinh(space.radius)
    return d * x[:, -1] / rim * laplacian_fd(field, spaces.chart(space, x), h)


@pytest.mark.parametrize("space,chart_c,m,n_t", [
    (E2, [0.25, 0.1], 64, 256),
    (E3, [0.2, 0.1, -0.15], 200, 256),
    (SpaceSpec(EUCLIDEAN, 4, 1.0), [0.2, -0.1, 0.1, 0.05], 500, 256),
    (SpaceSpec(SPHERE, 2, 0.8), [0.15, -0.1], 64, 256),
    (SpaceSpec(SPHERE, 3, 0.8), [0.12, -0.08, 0.1], 200, 256),
    (SpaceSpec(HYPERBOLIC, 2, 0.8), [0.18, -0.12], 64, 256),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), [0.15, -0.1, 0.08], 200, 256),
    (SpaceSpec(SPHERE, 4, 0.8), [0.12, -0.08, 0.1, 0.05], 500, 512),
    (SpaceSpec(HYPERBOLIC, 4, 0.8), [0.12, -0.08, 0.1, 0.05], 500, 512),
    (SpaceSpec(EUCLIDEAN, 5, 1.0), [0.2, -0.1, 0.1, 0.05, 0.0], 1000, 256),
])
def test_closed_form_laplacian_matches_fd(space, chart_c, m, n_t):
    # Two inputs: the means of a bump, and synthetic data (one broad bump in
    # t per centre, moving with the centre). On the means the first-order
    # terms (n-1)/t P' and C P' back-project to almost nothing, so only the
    # synthetic data can expose an error in them. Measured differences:
    # at most 6.0e-3 (means, hyperbolic n = 4) and 4.1e-3 (synthetic,
    # Euclidean n = 4; 5.9e-4 elsewhere). The curved n = 4 cases need 512
    # t-nodes: on 256 the hyperbolic one reads 1.05e-2 on the means.
    cc = np.asarray(chart_c, dtype=float)
    bd = boundary_grid(space, m)
    tg = default_tgrid(space, n_t)
    t = tg.values
    mid = t[0] + (t[-1] - t[0]) * (0.45 + 0.1 * bd.centers[:, 0] / np.max(np.abs(bd.centers[:, 0])))
    synthetic = bump_profile((t[None, :] - mid[:, None]) / (0.45 * (t[-1] - t[0])))
    x = chart_box_grid(space, cc, 0.25, 3, ball_radius=0.25)
    for data in (forward_means(bump_at(space, cc, 0.3), bd, tg),
                 MeanData(space, bd, tg, synthetic)):
        got = invert(data, x)
        ref = _fd_laplacian_reference(data, x)
        assert np.linalg.norm(got - ref) <= 1e-2 * np.linalg.norm(ref)


def _chart_arg(space, xi, xp):
    """a(x') = xi . lift(x') resp. [xi, lift(x')], for complex chart points."""
    rho2 = (xp ** 2).sum(axis=-1)
    if space.kind == SPHERE:
        return xp @ xi[:-1] + xi[-1] * np.sqrt(1.0 - rho2)
    return xi[-1] * np.sqrt(1.0 + rho2) - xp @ xi[:-1]


def _chart_arg_gradient(space, xi, xp):
    """Per-pair chart gradient of a: xi' - xi_{n+1} x'/z resp. xi_{n+1} x'/z - xi'."""
    rho2 = (xp ** 2).sum(axis=-1, keepdims=True)
    if space.kind == SPHERE:
        return xi[:-1] - xi[-1] * xp / np.sqrt(1.0 - rho2)
    return xi[-1] * xp / np.sqrt(1.0 + rho2) - xi[:-1]


@pytest.mark.parametrize("space", [SpaceSpec(SPHERE, 2, 0.8), SpaceSpec(SPHERE, 3, 1.2),
                                   SpaceSpec(HYPERBOLIC, 2, 0.8), SpaceSpec(HYPERBOLIC, 3, 1.1)])
def test_chart_coefficients_match_per_pair_derivatives(space):
    # |grad a|^2 = A + B a and Lap a = C for every centre; the per-pair
    # derivatives come from complex steps, exact to rounding
    rng = np.random.default_rng(9)
    rim = np.sin(space.radius) if space.kind == SPHERE else np.sinh(space.radius)
    xp = rng.uniform(-0.6, 0.6, size=(20, space.n)) * rim / np.sqrt(space.n)
    A, B, C = _chart_coefficients(space, xp)
    step = 1e-30
    for xi in boundary_grid(space, 12).centers:
        a = _chart_arg(space, xi, xp)
        grad = np.stack([_chart_arg(space, xi, xp + 1j * step * e).imag / step
                         for e in np.eye(space.n)], axis=-1)
        assert np.max(np.abs(grad - _chart_arg_gradient(space, xi, xp))) < 1e-14
        lap = sum(_chart_arg_gradient(space, xi, xp + 1j * step * e)[:, j].imag / step
                  for j, e in enumerate(np.eye(space.n)))
        assert np.max(np.abs((grad ** 2).sum(axis=-1) - (A + B * a))) < 1e-13
        assert np.max(np.abs(lap - C)) < 1e-13


def test_curved_zero_data():
    spec = SpaceSpec(SPHERE, 2, 0.8)
    bd = boundary_grid(spec, 32)
    tg = default_tgrid(spec, 300)
    data = MeanData(spec, bd, tg, np.zeros((bd.m, tg.n)))
    x = spaces.lift(spec, np.array([[0.1, 0.0]]))
    assert invert(data, x)[0] == 0.0


def test_curved_interior_guard():
    spec = SpaceSpec(SPHERE, 2, 0.8)
    bd = boundary_grid(spec, 32)
    tg = default_tgrid(spec, 300)
    data = MeanData(spec, bd, tg, np.zeros((bd.m, tg.n)))
    rim = spaces.lift(spec, np.array([[np.sin(0.8), 0.0]]))
    with pytest.raises(ValueError):
        invert(data, rim)


@pytest.mark.parametrize("space,point", [(E2, [1.5, 0.0]), (E3, [1.5, 0.0, 0.0]),
                                         (E3, [0.0, 1.0, 0.0])])
def test_euclidean_interior_guard(space, point):
    # points on or outside the boundary sphere are named, not reconstructed
    bd = boundary_grid(space, 200)
    tg = default_tgrid(space, 300)
    data = forward_means(bump_at(space, [0.2, 0.1, 0.0][:space.n], 0.3), bd, tg)
    x = np.array([[0.1] * space.n, point])
    with pytest.raises(ValueError, match=r"strictly inside the ball of radius 1; \[" + str(point[0])):
        invert(data, x)


def test_hyperbolic_prefactor_is_origin_neutral():
    # at the origin of the hyperboloid the prefactor reduces to d_n/sinh R
    spec = SpaceSpec(HYPERBOLIC, 2, 0.8)
    e = spaces.origin(spec)
    assert abs(e[-1] - 1.0) < 1e-15


def test_epd_zero_order_matches_plain():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 96)
    tg = default_tgrid(E3, 400)
    from geomeans.forward import epd_trace_euclidean

    traces = epd_trace_euclidean(ph, bd, tg, 0.0)
    means = forward_means(ph, bd, tg)
    x = np.array([[0.2, 0.1, -0.15], [0.1, 0.0, 0.0]])
    a = invert(traces, x)
    b = invert(means, x)
    assert np.max(np.abs(a - b)) < 1e-12


def test_invert_ignores_fd_step():
    # the keyword stays accepted for callers that pass the configured step
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    data = forward_means(ph, boundary_grid(E3, 96), default_tgrid(E3, 400))
    x = np.array([[0.2, 0.1, -0.15], [0.1, 0.0, 0.0]])
    assert np.array_equal(invert(data, x, fd_step=0.5), invert(data, x))


# the product rule's distance from the zonal route, measured 1.6e-4, 1.1e-5
# and 5.0e-6 in R^3, 8.4e-5, 7.7e-5 and 1.3e-5 on the cap, 3.7e-5, 1.1e-5
# and 6.0e-6 on the hyperboloid, and 6.6e-6, 1.7e-6 and 3.7e-7 on S^2
@pytest.mark.parametrize("space,ms", [
    (E3, (800, 3_200, 12_800)),
    (SpaceSpec(SPHERE, 3, 0.8), (800, 3_200, 12_800)),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), (800, 3_200, 12_800)),
    (SpaceSpec(SPHERE, 2, 0.8), (64, 256, 1_024)),
])
def test_radial_data_are_the_limit_of_the_every_row_route(space, ms):
    # radial data back-project on the zonal grid. e changes one centre's
    # row, so d + e and e take the product rule over every centre, and by
    # linearity invert(d + e) - invert(e) is the product rule's inversion of
    # d, which approaches the zonal one as the centres grow
    tg = default_tgrid(space, 400)
    ph = Phantom(space, (Bump(spaces.origin(space), 0.3, 1.0),))
    x = chart_box_grid(space, np.zeros(space.n), 0.3, 5, ball_radius=0.3)
    distance = []
    for m in ms:
        bd = boundary_grid(space, m)
        d = forward_means(ph, bd, tg)
        assert d.rows.shape[0] == 1
        e = np.zeros_like(d.values)
        e[3] = 0.5 * d.values[3] + bump_profile((tg.values - tg.values[60]) / (0.2 * (tg.b - tg.a)))
        zonal = invert(d, x)
        every_row = (invert(MeanData(space, bd, tg, d.values + e), x)
                     - invert(MeanData(space, bd, tg, e), x))
        distance.append(np.linalg.norm(every_row - zonal) / np.linalg.norm(zonal))
    assert distance[-1] < distance[0] and distance[-1] < 2e-5, distance


def test_radial_data_ignore_the_boundary_grid():
    # the zonal grid stands in for the data's centres, so centred data on 8
    # or on 800 centres invert to the same bits
    tg = default_tgrid(E3, 400)
    ph = Phantom(E3, (Bump(np.zeros(3), 0.3, 1.0),))
    x = chart_box_grid(E3, np.zeros(3), 0.3, 5, ball_radius=0.3)
    few, many = (invert(forward_means(ph, boundary_grid(E3, m), tg), x) for m in (8, 800))
    assert np.array_equal(few, many)


@pytest.mark.parametrize("space,alpha,method,match", [
    (E3, 0.5, "modified", "trace data only supports the direct method"),
    (SpaceSpec(SPHERE, 2, 0.8), None, "modified", "modified inversion is Euclidean-only"),
    (SpaceSpec(HYPERBOLIC, 2, 0.8), 1.0, "direct", "hyperboloid trace inversion is not provided"),
    (E3, None, "sideways", "unknown method 'sideways'"),
    (E3, -1.5, "direct", r"alpha must be >= \(1-n\)/2"),
    (SpaceSpec(SPHERE, 3, 0.8), 0.0, "direct", "cap traces are generated with alpha > 0"),
])
def test_invert_rejections(space, alpha, method, match):
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 128)
    values = np.zeros((bd.m, tg.n))
    if alpha is not None and method == "direct":
        # a trace order that no trace of the space has fails where the data
        # are built, so invert never sees it
        with pytest.raises(ValueError, match=match):
            MeanData(space, bd, tg, values, alpha)
        return
    data = MeanData(space, bd, tg, values, alpha)
    x = spaces.lift(space, np.full((1, space.n), 0.1))
    with pytest.raises(ValueError, match=match):
        invert(data, x, method=method)


def test_invert_rejects_lower_sheet_points():
    space = SpaceSpec(HYPERBOLIC, 3, 0.8)
    bd = boundary_grid(space, 16)
    data = MeanData(space, bd, default_tgrid(space, 128), np.zeros((bd.m, 128)))
    x = spaces.lift(space, np.array([[0.1, 0.0, 0.0]]))
    assert invert(data, x)[0] == 0.0
    with pytest.raises(ValueError, match="lower sheet"):
        invert(data, x * np.array([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("space", [E3, SpaceSpec(SPHERE, 3, 0.8), E2, SpaceSpec(SPHERE, 2, 0.8),
                                   SpaceSpec(HYPERBOLIC, 2, 0.8)])
def test_invert_rejects_points_that_are_not_finite(space):
    # unchecked, R^3 read such a point as -0.0, the cap as nan, and the n = 2
    # log tables failed to make a grid window of nan
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 128)
    data = MeanData(space, bd, tg, np.ones((bd.m, tg.n)))
    x = spaces.lift(space, np.full((2, space.n), 0.1))
    x[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^point \[nan, [^]]*\] has a coordinate that is not finite$"):
        invert(data, x)


@pytest.mark.parametrize("space", [E2, SpaceSpec(SPHERE, 2, 0.8), SpaceSpec(HYPERBOLIC, 2, 0.8)])
def test_off_grid_arguments_name_the_point_and_the_grid(space):
    # a point at geodesic radius 0.999999 R reads arguments near both ends
    # of the t-range, at the centre next to it and the one opposite. The
    # full log-table grid runs one data step past the ends on the cap and
    # the hyperboloid, where the point inverts, and starts at the data
    # grid's first node 1e-3 in R^n, where it raises. A back-projection on
    # the window of a point near the origin names it in every space; rows
    # that differ from centre to centre keep the back-projection on the
    # data's own centres
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 128)
    data = MeanData(space, bd, tg, np.ones((bd.m, tg.n)) + np.arange(bd.m)[:, None])
    r = 0.999999 * space.radius
    x = spaces.lift(space, np.array([[0.1, 0.0], [float(space.sin_k(r)), 0.0]]))
    near = inversion._table_grid(space, tg, _read_range(space, x[:1]))
    runs = [(near, lambda: backproject(bd, near, whole_source(np.ones((bd.m, near.n))), x,
                                       fill="error"))]
    if space.kind == EUCLIDEAN:
        runs.append((inversion._table_grid(space, tg, _read_range(space, x)),
                     lambda: invert(data, x)))
    else:
        assert np.all(np.isfinite(invert(data, x)))
    point = re.escape(str(x[1].tolist()))
    for grid, run in runs:
        ends = re.escape(f"[{grid.a!r}, {grid.b!r}]")
        with pytest.raises(ValueError, match=rf"^point 1 {point} reads argument \S+ outside the grid {ends}$"):
            run()


# ---------------------------------------------------------------------------
# the log-table window
# ---------------------------------------------------------------------------

def _full_range_invert(data, x, method="direct"):
    """Even-n inversion by the route without the window: the log table and
    its differences along the target axis on the whole table grid, then the
    back-projection and the prefactor. Radial data take the windowed route's
    zonal grid, of one centre per node of its window, and its points."""
    space, tg, bd = data.space, data.tgrid, data.boundary
    n, t = space.n, tg.values
    values, points = data.rows, x
    if len(values) == 1:
        q = inversion._table_grid(space, tg, _read_range(space, x)).n
        bd, points = inversion._zonal(space, x, q)
        values = np.repeat(values, q, axis=0)
    grid = _table_grid(space, tg)
    d = _prefactor(space)
    if space.kind == EUCLIDEAN:
        if method == "modified":
            values = darboux_L_matrix(values, tg, n)
        q = t * d_operator_matrix(t ** (n - 2) * values, tg, n - 2)
        rows = log_kernel_table(q, tg, grid.values, kernel="log|t^2-s^2|")
        if method == "direct":
            rows = darboux_L_matrix(rows, grid, n)
        return d * space.boundary_area * backproject(bd, grid, whole_source(rows), points,
                                                     fill="error")[0]
    F = values * (space.curvature * (1.0 - t ** 2)) ** (n / 2.0 - 1.0)
    rows = log_kernel_table(diff_matrix(F, tg, n - 2), tg, grid.values, kernel="log|t-s|")
    d1 = diff_matrix(rows, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    p2, tp2, p1 = backproject(bd, grid, whole_source(d2, grid.values * d2, d1), points,
                              fill="error")
    A, B, C = _chart_coefficients(space, spaces.chart(space, x))
    lap = space.boundary_area / np.pi * (A * p2 + B * tp2 + C * p1)
    return d * x[:, -1] / space.chart_radius * lap


def _geodesic_read_range(space, x):
    """The arguments' bounds from the points' geodesic radii r: R -+ r in
    R^n, cos_k(R +- r) on the cap and the hyperboloid."""
    r = spaces.geodesic_distance(space, spaces.origin(space)[None, :], x)
    near, far = space.radius - r, space.radius + r
    if space.kind == EUCLIDEAN:
        return float(np.min(near)), float(np.max(far))
    ends = np.concatenate([space.cos_k(near), space.cos_k(far)])
    return float(np.min(ends)), float(np.max(ends))


E4 = SpaceSpec(EUCLIDEAN, 4, 1.0)
S2 = SpaceSpec(SPHERE, 2, 0.8)
H2 = SpaceSpec(HYPERBOLIC, 2, 0.8)


@pytest.mark.parametrize("space,chart_c,m,method", [
    (E2, [0.25, 0.1], 64, "direct"),
    (E2, [0.25, 0.1], 64, "modified"),
    (E4, [0.0, 0.0, 0.0, 0.0], 250, "direct"),
    (E4, [0.2, -0.1, 0.1, 0.05], 250, "direct"),
    (E4, [0.2, -0.1, 0.1, 0.05], 250, "modified"),
    (S2, [0.15, -0.1], 64, "direct"),
    (H2, [0.18, -0.12], 64, "direct"),
])
@pytest.mark.parametrize("scale", [0.5, 0.98])
def test_windowed_tables_match_the_full_range(space, chart_c, m, method, scale):
    # points out to half the chart radius, whose window is a part of the
    # grid, or out to the interior limit of chart_box_grid, and one at the
    # origin; a centred E4 bump runs as one row, on the zonal grid
    rng = np.random.default_rng(5)
    data = forward_means(bump_at(space, chart_c, 0.3), boundary_grid(space, m),
                         default_tgrid(space, 256))
    assert (np.all(data.values == data.values[0])) == (not np.any(chart_c))
    x = np.concatenate([spaces.lift(space, np.zeros((1, space.n))),
                        _interior_points(space, 60, scale, rng)])
    got = invert(data, x, method=method)
    ref = _full_range_invert(data, x, method)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["euclid2", "euclid3"])
@pytest.mark.parametrize("method", ["direct", "modified"])
def test_invert_leaves_the_means_untouched(name, method):
    # the direct method's Darboux filter writes over the rows it is given,
    # which are its own temporaries there; the modified method filters the
    # means themselves, so it must not
    cfg = cli.load_config(f"configs/{name}.json")
    data, x = cli._forward_data(cfg), cli._recon_points(cfg)
    kept = data.values.copy()
    invert(data, x, method=method)
    assert np.array_equal(data.values, kept)


@pytest.mark.parametrize("method", ["direct", "modified"])
def test_broadcast_means_invert_as_their_dense_copy(method):
    # centred euclid4's means are one row broadcast to every centre; invert
    # runs the view as one row without comparing rows, and its dense copy as
    # one row after finding every row equal
    cfg = cli.load_config("configs/euclid4.json")
    data, x = cli._forward_data(cfg), cli._recon_points(cfg)
    assert data.values.strides[0] == 0
    dense = MeanData(data.space, data.boundary, data.tgrid, np.array(data.values))
    assert np.array_equal(invert(data, x, method=method), invert(dense, x, method=method))


@pytest.mark.parametrize("p", [45, 90])
def test_centred_round_trip_memory_does_not_grow_with_the_centres(p):
    # 4 050 and 16 200 centres: the means stay one row from the forward step
    # through the inversion, whose back-projection runs in blocks of cells;
    # measured 3.8 and 4.2 MB, where the tiled means alone took m N 8 bytes,
    # 13 and 52 MB
    import tracemalloc

    bd = boundary_grid(E3, 2 * p * p)
    tg = default_tgrid(E3, 400)
    ph = bump_at(E3, np.zeros(3), 0.4)
    x = chart_box_grid(E3, np.zeros(3), 0.3, 5)
    assert bd.m >= 4000
    tracemalloc.start()
    try:
        f = invert(forward_means(ph, bd, tg), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(f - ph(x))) < 1e-4
    assert peak < 6e6


@pytest.mark.parametrize("name,kernel", [("euclid2", "log|t^2-s^2|"), ("sphere2", "log|t-s|"),
                                         ("hyperbolic2", "log|t-s|")])
def test_windowed_table_is_the_full_tables_columns(name, kernel):
    # each target's operator row depends on that target alone, so the
    # window's rows are the full table's bit for bit; the unit profiles read
    # the operator exactly. Profiles in general meet the operator in a matrix
    # product whose last bits follow the BLAS blocking of its output shape
    cfg = cli.load_config(f"configs/{name}.json")
    data, x = cli._forward_data(cfg), cli._recon_points(cfg)
    tg = data.tgrid
    full = _table_grid(data.space, tg)
    window = inversion._table_grid(data.space, tg, _read_range(data.space, x))
    first = int(np.searchsorted(full.values, window.a))
    assert np.array_equal(window.values, full.values[first:first + window.n])
    assert window.n < full.n
    unit = np.eye(tg.n)
    assert np.array_equal(log_kernel_table(unit, tg, window.values, kernel=kernel),
                          log_kernel_table(unit, tg, full.values, kernel=kernel)[:, first:first + window.n])
    got = log_kernel_table(data.values, tg, window.values, kernel=kernel)
    ref = log_kernel_table(data.values, tg, full.values, kernel=kernel)[:, first:first + window.n]
    assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(ref))


def test_invert_builds_only_the_window(monkeypatch):
    # the targets asked of log_kernel_table: the nodes of the cells that hold
    # the points' argument bounds, and the margin on each side
    cfg = cli.load_config("configs/sphere2.json")
    data, x = cli._forward_data(cfg), cli._recon_points(cfg)
    asked = []

    def counting(profiles, grid, targets, *args, **kwargs):
        asked.append(np.size(targets))
        return log_kernel_table(profiles, grid, targets, *args, **kwargs)

    monkeypatch.setattr(inversion, "log_kernel_table", counting)
    invert(data, x)
    full = _table_grid(data.space, data.tgrid)
    lo, hi = _geodesic_read_range(data.space, x)
    window = int(np.ceil((hi - full.a) / full.h)) - int(np.floor((lo - full.a) / full.h)) + 1
    assert len(asked) == 1
    # the cubic stencil's reach of 2 and 2 per pass of the derivative pair
    margin = 2 + 2 * 2
    assert asked[0] <= window + 2 * margin < full.n


@pytest.mark.parametrize("kind", [EUCLIDEAN, SPHERE, HYPERBOLIC])
@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.0, 0.99))
def test_read_range_bounds_every_argument(kind, n, seed, scale):
    # up to 0.99 of the chart radius: nearer the boundary the Gram form of
    # the Euclidean distance loses digits as |x - xi| -> 0
    space = SpaceSpec(kind, n, 1.0 if kind == EUCLIDEAN else 0.8)
    rng = np.random.default_rng(seed)
    x = _interior_points(space, 30, scale, rng)
    lo, hi = _read_range(space, x)
    tol = 1e-12 * max(abs(lo), abs(hi))
    centers = boundary_grid(space, 64 if n == 2 else 200).centers
    args = _observation_args(space, x)(centers, out=np.empty((len(x), len(centers))))
    assert lo - tol <= np.min(args) and np.max(args) <= hi + tol


def _admissible_edge(space, tg):
    """The geodesic radius at which the points' argument bounds first reach
    an end of the full table grid: the boundary, on the cap and the
    hyperboloid."""
    grid = _table_grid(space, tg)
    lo, hi = 0.0, space.radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = spaces.lift(space, np.array([[space.sin_k(mid)] + [0.0] * (space.n - 1)]))
        a, b = _geodesic_read_range(space, x)
        lo, hi = (mid, hi) if grid.a <= a and b <= grid.b else (lo, mid)
    return lo


@pytest.mark.parametrize("space,m", [(E2, 64), (E4, 250), (S2, 64), (H2, 64)])
def test_points_at_the_admissible_edge_invert(space, m):
    # within 1e-9 of that radius, towards a centre and between two, the
    # window runs to the end of the grid and no argument leaves it
    bd = boundary_grid(space, m)
    tg = default_tgrid(space, 128)
    data = forward_means(bump_at(space, np.full(space.n, 0.1), 0.3), bd, tg)
    r = _admissible_edge(space, tg) * (1.0 - 1e-9)
    toward = spaces.chart(space, bd.centers[:2])
    toward = np.stack([toward[0], toward[0] + toward[1]])
    xp = space.sin_k(r) * toward / np.linalg.norm(toward, axis=1, keepdims=True)
    x = spaces.lift(space, xp)
    assert np.all(np.isfinite(invert(data, x)))
    full = _table_grid(space, tg)
    window = inversion._table_grid(space, tg, _read_range(space, x))
    assert window.a == full.a or window.b == full.b


# ---------------------------------------------------------------------------
# symmetries of the boundary grid
# ---------------------------------------------------------------------------

def _azimuth_symmetries(space, m):
    """The rotation by one azimuth step and the reflection of the azimuth,
    as matrices on ambient points. The azimuth is the angle in the plane of
    the last two chart coordinates, with m steps for n = 2 and 2p steps for
    the product rule of order p = floor((m/2)^(1/(n-1))) in n >= 3."""
    n, dim = space.n, space.ambient_dim
    steps = m if n == 2 else 2 * int(np.floor((m / 2.0) ** (1.0 / (n - 1)) + 1e-9))
    c, s = np.cos(2.0 * np.pi / steps), np.sin(2.0 * np.pi / steps)
    rotation, reflection = np.eye(dim), np.eye(dim)
    rotation[n - 2:n, n - 2:n] = [[c, -s], [s, c]]
    reflection[n - 1, n - 1] = -1.0
    return {"rotation": rotation, "reflection": reflection}


def _centre_permutation(boundary, g):
    """q with g xi_j = xi_{q[j]}, found by matching the moved centres."""
    moved = boundary.centers @ g.T
    dist = np.linalg.norm(moved[:, None, :] - boundary.centers[None, :, :], axis=-1)
    q = np.argmin(dist, axis=1)
    assert np.max(dist[np.arange(boundary.m), q]) < 1e-12
    assert np.array_equal(np.sort(q), np.arange(boundary.m))
    return q


@pytest.mark.parametrize("space,m,symmetry", [
    (E2, 64, "rotation"),
    (E3, 128, "rotation"),
    (E3, 128, "reflection"),
    (SpaceSpec(SPHERE, 3, 0.8), 128, "rotation"),
    (SpaceSpec(SPHERE, 3, 0.8), 128, "reflection"),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 128, "rotation"),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 128, "reflection"),
])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_forward_and_invert_are_equivariant(space, m, symmetry, seed):
    # g maps the boundary grid onto itself: the means of g.phantom are the
    # permuted rows, and the permuted rows reconstruct at g.x what the rows
    # reconstruct at x
    rng = np.random.default_rng(seed)
    bd = boundary_grid(space, m)
    tg = default_tgrid(space, 128)
    g = _azimuth_symmetries(space, m)[symmetry]
    q = _centre_permutation(bd, g)
    assert np.max(np.abs(bd.weights[q] - bd.weights)) <= 1e-15
    chart_c = rng.standard_normal(space.n)
    chart_c *= rng.uniform(0.0, 0.3) * space.chart_radius / np.linalg.norm(chart_c)
    ph = bump_at(space, chart_c, 0.3)
    moved = Phantom(space, tuple(Bump(g @ b.center, b.geodesic_radius, b.amplitude)
                                 for b in ph.bumps))
    data = forward_means(ph, bd, tg)
    moved_rows = forward_means(moved, bd, tg).values
    assert np.max(np.abs(moved_rows[q] - data.values)) <= 1e-12 * np.max(np.abs(data.values))
    permuted = np.empty_like(data.values)
    permuted[q] = data.values
    x = _interior_points(space, 20, 0.8, rng)
    rec = invert(data, x)
    moved_rec = invert(MeanData(space, bd, tg, permuted), x @ g.T)
    assert np.linalg.norm(moved_rec - rec) <= 1e-12 * np.linalg.norm(rec)
    zero = MeanData(space, bd, tg, np.zeros_like(permuted))
    assert np.all(invert(zero, x) == 0.0)


def _curved_invert_keeping(monkeypatch, space):
    """invert on random curved rows at the origin and two more points, in
    blocks of 3 centres, with its back-projection's arguments and every
    block (lo, hi, tables) that its source gave kept, and the whole rows P
    of the whole-array route."""
    rng = np.random.default_rng(9)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 16)
    data = MeanData(space, bd, tg, rng.standard_normal((bd.m, tg.n)))
    projected, blocks = [], []

    def keeping(boundary, grid, rows, x, **kwargs):
        def source(lo, hi):
            blocks.append((lo, hi, rows(lo, hi)))
            return blocks[-1][2]

        projected.append((boundary, grid, x, kwargs))
        monkeypatch.setattr(inversion, "_BLOCK_CELLS", 3 * max(len(x), grid.n))
        return backproject(boundary, grid, source, x, **kwargs)

    monkeypatch.setattr(inversion, "backproject", keeping)
    chart = np.array([[0.0] * space.n, [0.1] * space.n, [-0.2] + [0.05] * (space.n - 1)])
    x = spaces.lift(space, chart)
    f = invert(data, x)
    assert len(projected) == 1
    return f, whole_rows(data, x)[1], projected[0], blocks


CURVED = [SpaceSpec(SPHERE, 3, 0.8), SpaceSpec(HYPERBOLIC, 3, 0.8), S2]


@pytest.mark.parametrize("space", CURVED)
def test_curved_stack_is_the_stacked_derivatives(monkeypatch, space):
    # the source takes P' and then P'' over the block's rows P, on the
    # back-projection's columns (odd n's read window); each pair (P'', P')
    # it returns must hold the bits of the separate derivatives of those
    # rows of the whole P, except the 4 columns at each end of a window
    # inside the grid that the pair's one-sided ends reach, and the blocks
    # must cover the centres in order, the last one short
    _, rows, (bd, grid, x, kwargs), blocks = _curved_invert_keeping(monkeypatch, space)
    assert [(lo, hi) for lo, hi, _ in blocks] == [(lo, min(lo + 3, bd.m))
                                                 for lo in range(0, bd.m, 3)]
    assert bd.m > 6 and bd.m % 3
    c0, c1, _ = kwargs.get("columns", slice(None)).indices(grid.n)
    exact = slice(c0 + 4 if c0 else 0, c1 - 4 if c1 < grid.n else grid.n)
    assert exact.stop - exact.start >= 8
    for lo, hi, pair in blocks:
        d1 = diff_matrix(rows[lo:hi], grid, 1)
        d2 = diff_matrix(d1, grid, 1)
        assert isinstance(pair, tuple) and len(pair) == 2
        assert all(table.shape == (hi - lo, c1 - c0) for table in pair)
        assert np.array_equal(pair[0][:, exact.start - c0:exact.stop - c0], d2[:, exact])
        assert np.array_equal(pair[1][:, exact.start - c0:exact.stop - c0], d1[:, exact])
    assert kwargs["times_t"]


@pytest.mark.parametrize("space", CURVED)
def test_curved_finish_matches_the_three_table_stack(monkeypatch, space):
    # BP[t P''] from the values gathered for P'' against the back-projection
    # of the explicit table t P'', finished in closed form
    f, rows, (bd, grid, x, kwargs), _ = _curved_invert_keeping(monkeypatch, space)
    d1 = diff_matrix(rows, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    p2, tp2, p1 = backproject(bd, grid, whole_source(d2, grid.values * d2, d1), x,
                              fill=kwargs["fill"])
    A, B, C = _chart_coefficients(space, spaces.chart(space, x))
    scale = -1.0 if space.n % 2 == 1 else 1.0 / np.pi
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    ref = _prefactor(space) * x[:, -1] / space.chart_radius * lap
    assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))


# every space for n = 2, 3 and 4 on plain means, traces of the R^3 and the
# cap orders the trace configs take, and the modified formula of R^n
STREAMED = ([(SpaceSpec(kind, n, 1.0 if kind == EUCLIDEAN else 0.8), None, "direct")
             for kind in (EUCLIDEAN, SPHERE, HYPERBOLIC) for n in (2, 3, 4)]
            + [(E3, -1.0, "direct"), (SpaceSpec(SPHERE, 3, 0.8), 1.0, "direct")]
            + [(SpaceSpec(EUCLIDEAN, n, 1.0), None, "modified") for n in (2, 3, 4)])


@pytest.mark.parametrize("space,alpha,method", STREAMED)
@pytest.mark.parametrize("rows", ["dense", "radial"])
@pytest.mark.parametrize("block", [None, 5])
def test_streamed_invert_is_the_whole_array_route(monkeypatch, space, alpha, method, rows, block):
    # invert pulls each block's rows through layers 3 to 5 as the
    # back-projection reaches them; every step works row by row, so it gives
    # the bits of every layer on whole arrays, in one block or in blocks of
    # 5 centres whose last one is short, and for one radial row
    rng = np.random.default_rng(11)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 24)
    x = _interior_points(space, 9, 0.8, rng)
    values = (rng.standard_normal((bd.m, tg.n)) if rows == "dense"
              else np.broadcast_to(rng.standard_normal(tg.n), (bd.m, tg.n)))
    data = MeanData(space, bd, tg, values, alpha)
    assert data.rows.shape[0] == (1 if rows == "radial" else bd.m)
    if block is not None:
        # the back-projection's grid is the table's window in even n; both
        # routes sum the blocks' values in the same order
        grid = whole_rows(data, x, method)[0]
        monkeypatch.setattr(inversion, "_BLOCK_CELLS", block * max(len(x), grid.n))
        assert bd.m % block and bd.m > 2 * block
    assert np.array_equal(invert(data, x, method=method), whole_invert(data, x, method))



@pytest.mark.parametrize("space,method", [(E2, "direct"), (E4, "modified"), (E3, "direct"),
                                          (S2, "direct"), (SpaceSpec(HYPERBOLIC, 3, 0.8), "direct")])
def test_radial_invert_in_blocks_of_one_centre(monkeypatch, space, method):
    # radial data back-project on the zonal grid, from one row repeated to
    # its every centre; in blocks of one centre each block's row is still
    # that of the whole-array route, though the derivative pair writes over
    # the rows
    rng = np.random.default_rng(13)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 24)
    x = _interior_points(space, 9, 0.8, rng)
    data = MeanData(space, bd, tg, np.broadcast_to(rng.standard_normal(tg.n), (bd.m, tg.n)))
    grid = whole_rows(data, x, method)[0]
    monkeypatch.setattr(inversion, "_BLOCK_CELLS", max(len(x), grid.n))
    assert np.array_equal(invert(data, x, method=method), whole_invert(data, x, method))


S3 = SpaceSpec(SPHERE, 3, 0.8)
E5 = SpaceSpec(EUCLIDEAN, 5, 1.0)
# odd n on the read window: two filter passes at n = 5 in every space, the
# modified formula's L_n, trace undos with a fractional remainder (R^3 at
# alpha -0.5 an order-0.5 integral, at 0.5 a derivative and then that
# integral; the cap at 0.5 a derivative of an order-0.5 integral), and
# t-grids that end or start midway through the points' arguments
WINDOWED = ([(SpaceSpec(kind, 5, 1.0 if kind == EUCLIDEAN else 0.8), None, "direct", None)
             for kind in (EUCLIDEAN, SPHERE, HYPERBOLIC)]
            + [(E3, None, "modified", None), (E5, None, "modified", None)]
            + [(E3, -0.5, "direct", None), (E3, 0.5, "direct", None), (S3, 0.5, "direct", None)]
            + [(space, None, "direct", cut) for space in (E3, S3) for cut in ("above", "below")])


@pytest.mark.parametrize("space,alpha,method,cut", WINDOWED)
@pytest.mark.parametrize("rows", ["dense", "radial"])
def test_windowed_invert_is_the_whole_array_route(monkeypatch, space, alpha, method, cut, rows):
    # odd n undoes the trace weighting, filters and differentiates only the
    # t-columns that the back-projection reads, widened by the passes that
    # follow; the whole-array route runs every layer on every column, and
    # both give the same bits, in blocks of 5 centres. On a t-grid that ends
    # midway, the arguments past it read 0 from a window that starts inside
    # the grid
    rng = np.random.default_rng(17)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 24 if space.n < 5 else 32)
    x = _interior_points(space, 9, 0.8, rng)
    lo, hi = _read_range(space, x)
    if cut == "above":
        tg = TGrid.linspace(tg.a, 0.5 * (lo + hi), 128)
    elif cut == "below":
        tg = TGrid.linspace(0.5 * (lo + hi), tg.b, 128)
    values = (rng.standard_normal((bd.m, tg.n)) if rows == "dense"
              else np.broadcast_to(rng.standard_normal(tg.n), (bd.m, tg.n)))
    data = MeanData(space, bd, tg, values, alpha)
    c0, c1 = inversion._read_window(tg, (lo, hi), space.n - 1, 0, tg.n)
    if cut is None:
        assert 0 < c1 - c0 < tg.n
    elif cut == "above":
        assert hi > tg.b and c0 > 0
    else:
        assert lo < tg.a and c0 == 0
    monkeypatch.setattr(inversion, "_BLOCK_CELLS", 5 * max(len(x), tg.n))
    assert np.array_equal(invert(data, x, method=method), whole_invert(data, x, method))


@pytest.mark.parametrize("space,alpha,method,cut", [case for case in WINDOWED if case[3] is None]
                         + [(E3, -1.0, "direct", None), (E3, 1.0, "direct", None),
                            (S3, 1.0, "direct", None),
                            (SpaceSpec(HYPERBOLIC, 3, 0.8), None, "direct", None)])
def test_windowed_tables_hold_every_column_an_argument_reads(monkeypatch, space, alpha, method,
                                                             cut):
    # an argument in cell j reads the nodes j - 1, ..., j + 2, and one that
    # rounds past the points' bounds reads one node further: every table
    # the source gives must hold the whole route's bits from 2 nodes below
    # the node at or below the smallest bound to 2 above the node at or
    # above the largest, the bounds taken from the points' geodesic radii
    rng = np.random.default_rng(23)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 24 if space.n < 5 else 32)
    x = _interior_points(space, 9, 0.6, rng)
    data = MeanData(space, bd, tg, rng.standard_normal((bd.m, tg.n)), alpha)
    kept = []

    def keeping(boundary, grid, rows, x, **kwargs):
        def source(lo, hi):
            kept.append((lo, hi, rows(lo, hi)))
            return kept[-1][2]

        kept.append(kwargs["columns"].indices(grid.n)[:2])
        return backproject(boundary, grid, source, x, **kwargs)

    monkeypatch.setattr(inversion, "backproject", keeping)
    invert(data, x, method=method)
    (c0, c1), *blocks = kept
    P = whole_rows(data, x, method)[1]
    if method == "modified":
        whole = (P,)
    elif space.kind == EUCLIDEAN:
        whole = (darboux_L_matrix(P, tg, space.n),)
    else:
        whole = (diff_matrix(diff_matrix(P, tg, 1), tg, 1), diff_matrix(P, tg, 1))
    lo, hi = _geodesic_read_range(space, x)
    step = (tg.b - tg.a) / (tg.n - 1)
    r0 = max(int(np.floor((lo - tg.a) / step)) - 2, 0)
    r1 = min(int(np.ceil((hi - tg.a) / step)) + 2, tg.n - 1) + 1
    assert c0 <= r0 < r1 <= c1 and c1 - c0 < tg.n
    for lo, hi, tables in blocks:
        assert len(tables) == len(whole)
        for table, ref in zip(tables, whole):
            assert np.array_equal(table[:, r0 - c0:r1 - c0], ref[lo:hi, r0:r1])


@pytest.mark.parametrize("space,alpha", [(E3, -1.0), (E3, 0.5), (S3, 0.5)])
def test_trace_undo_builds_only_the_window(monkeypatch, space, alpha):
    # the target rows the undo's operator builds, the quadrature nodes asked
    # of quintic_interp over the rule's order (192) in R^3 and the rows of
    # the RL moment operator on the cap: the nodes of the cells that hold
    # the points' argument bounds and a margin on each side, the cubic
    # stencil and a node for rounding (2), the n - 1 difference passes after
    # the undo (2 each) and the derivative of the cap's order -0.5 undo (2)
    rng = np.random.default_rng(19)
    tg = default_tgrid(space, 400)
    bd = boundary_grid(space, 16)
    x = _interior_points(space, 9, 0.5, rng)
    data = MeanData(space, bd, tg, rng.standard_normal((bd.m, tg.n)), alpha)
    built = []

    def counting(values, grid, x, *args, **kwargs):
        built.append(np.size(x) / 192)
        return quintic_interp(values, grid, x, *args, **kwargs)

    def counting_rl(grid, alpha, lo, hi, rl_operator=fractional._rl_operator):
        built.append(hi - lo)
        return rl_operator(grid, alpha, lo, hi)

    monkeypatch.setattr(fractional, "quintic_interp", counting)
    monkeypatch.setattr(fractional, "_rl_operator", counting_rl)
    invert(data, x)
    lo, hi = _geodesic_read_range(space, x)
    window = int(np.ceil((hi - tg.a) / tg.h)) - int(np.floor((lo - tg.a) / tg.h)) + 1
    margin = 2 + 2 * (space.n - 1) + 2
    assert 0 < sum(built) <= window + 2 * margin < tg.n


def test_invert_memory_on_a_cap():
    # (800, 600) dense means: the back-projection pulls each block's rows
    # through the t-filter and the derivative pair, so odd n makes no
    # (m, N) array; the peak is one block's working set, measured 0.48 times
    # the means on the cap and the hyperboloid and 0.47 in R^3. Whole rows
    # took all three to 3.03 times, and a (2, m, N) stack of (P'', P')
    # beside P took the cap and the hyperboloid to 4.03. Traces undo their
    # weighting on every row at once, measured 1.87 times at the R^3 order
    # -1 and 3.03 at the cap order 1 (4.03 with whole rows after it). Even n
    # filter blocks of rows into the one array the log table reads, measured
    # 1.59 in R^4 (686 centres) with the table beside it; whole-row filters
    # took it to 4.03
    import tracemalloc

    E4 = SpaceSpec(EUCLIDEAN, 4, 1.0)
    for space, alpha, bound in ((SpaceSpec(SPHERE, 3, 0.8), None, 0.5),
                                (SpaceSpec(HYPERBOLIC, 3, 0.8), None, 0.5), (E3, None, 0.5),
                                (E3, -1.0, 2.1), (SpaceSpec(SPHERE, 3, 0.8), 1.0, 3.3),
                                (E4, None, 1.7)):
        tg = default_tgrid(space, 600)
        bd = boundary_grid(space, 800)
        values = np.random.default_rng(10).standard_normal((bd.m, tg.n))
        data = MeanData(space, bd, tg, values, alpha)
        x = chart_box_grid(space, np.zeros(space.n), 0.3, 5, ball_radius=0.3)
        tracemalloc.start()
        try:
            invert(data, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * data.values.nbytes, (space, alpha)
