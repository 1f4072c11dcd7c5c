import numpy as np
import pytest
from cubic_reference import cubic_cells, cubic_weights
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

from geomeans import cli, inversion, spaces
from geomeans.checks import phantom_integral, riesz_potential
from geomeans.forward import MeanData, default_tgrid, epd_trace_sphere, forward_means
from geomeans.inversion import (
    _BLOCK_CELLS,
    _WINDOW_MARGIN,
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
    out = backproject(bd, tg, F, np.array([[0.2, 0.1]]), fill="error")
    assert abs(out[0] - 1.0) < 1e-12


def test_backproject_squared_distance_at_origin():
    bd = boundary_grid(E2, 64)
    tg = default_tgrid(E2, 256)
    F = np.tile(tg.values ** 2, (bd.m, 1))
    out = backproject(bd, tg, F, np.zeros((1, 2)), fill="error")
    assert abs(out[0] - 1.0) < 1e-9  # all |x - xi| = R


def test_backproject_single_center():
    bd = boundary_grid(E2, 4)
    centers = bd.centers[:1]
    from geomeans.spaces import BoundaryGrid

    single = BoundaryGrid(E2, centers, np.array([1.0]))
    tg = default_tgrid(E2, 128)
    F = np.sin(tg.values)[None, :]
    x = np.array([[0.3, 0.0]])
    out = backproject(single, tg, F, x, fill="error")
    r = np.linalg.norm(x[0] - centers[0])
    assert abs(out[0] - np.sin(r)) < 1e-9


def test_backproject_fill_policy():
    bd = boundary_grid(E2, 8)
    tg = default_tgrid(E2, 128)
    supported = np.zeros((bd.m, tg.n))
    supported[:, 40:60] = 1.0
    # fill=0.0: arguments outside the grid count as zero
    far = np.array([[0.999, 0.0]])
    out = backproject(bd, tg, supported, far, fill=0.0)
    assert np.isfinite(out[0])
    # fill='error': out-of-grid arguments must raise
    touching = np.ones((bd.m, tg.n))
    closer = np.array([[0.9997, 0.0]])
    with pytest.raises(ValueError):
        backproject(bd, tg, touching, closer, fill="error")


def test_backproject_checks_its_arguments_and_takes_no_points():
    bd = boundary_grid(E2, 8)
    tg = default_tgrid(E2, 128)
    F = np.ones((bd.m, tg.n))
    x = np.array([[0.2, 0.1]])
    with pytest.raises(ValueError, match="^fill must be 0.0 or 'error'$"):
        backproject(bd, tg, F, x, fill="zero")
    for bad in (F[:3], F[:, :-1], F[None, :, :-1]):
        with pytest.raises(ValueError, match=r"^need tables \(centres, N\) on the grid"):
            backproject(bd, tg, bad, x, fill=0.0)
    none = np.zeros((0, 2))
    assert backproject(bd, tg, F, none, fill="error").shape == (0,)
    assert backproject(bd, tg, F, none, fill="error", times_t=True).shape == (2, 0)
    assert backproject(bd, tg, np.stack([F, F]), none, fill=0.0).shape == (2, 0)


@pytest.mark.parametrize("space", [E2, SpaceSpec(SPHERE, 3, 0.8)])
def test_backproject_stack_equals_single_calls(space):
    # a stack of tables shares arguments and cells but must give exactly the
    # numbers of one call per table
    rng = np.random.default_rng(5)
    bd = boundary_grid(space, 40)
    tg = default_tgrid(space, 128)
    tables = rng.standard_normal((3, bd.m, tg.n))
    x = spaces.lift(space, rng.uniform(-0.3, 0.3, size=(50, space.n)))
    stacked = backproject(bd, tg, tables, x, fill=0.0)
    assert stacked.shape == (3, 50)
    for table, row in zip(tables, stacked):
        assert np.array_equal(row, backproject(bd, tg, table, x, fill=0.0))
    # one (1, N) row stands for every centre, alone and in a stack
    one = tables[:, :1]
    tiled = np.tile(one, (1, bd.m, 1))
    assert np.array_equal(backproject(bd, tg, one[0], x, fill=0.0),
                          backproject(bd, tg, tiled[0], x, fill=0.0))
    assert np.array_equal(backproject(bd, tg, one, x, fill=0.0),
                          backproject(bd, tg, tiled, x, fill=0.0))


def _backproject_reference(boundary, grid, F, x, fill):
    """The back-projection by the route without blocks or a flat index: the
    broadcast distance resp. pairing on (centres, points), every point in one
    block, the four stencil values read with take_along_axis and the fill
    applied with np.where."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    tables = F if F.ndim == 3 else F[None]
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
    return np.array(out) if F.ndim == 3 else out[0]


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
    shape = (bd.m if rows == "m" else 1, grid.n)
    tables = rng.uniform(0.5, 1.5, shape if k is None else (k,) + shape)
    x = _interior_points(space, count, 0.9, rng)
    got = backproject(bd, grid, tables, x, fill=fill)
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
    for tables in (rng.uniform(0.5, 1.5, (bd.m, grid.n)), rng.uniform(0.5, 1.5, (1, grid.n))):
        got = backproject(bd, grid, tables, x, fill="error")
        ref = _backproject_reference(bd, grid, tables, x, "error")
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
    tables = rng.uniform(0.5, 1.5, (bd.m if rows == "m" else 1, grid.n))
    got = backproject(bd, grid, tables, x, fill=0.0, times_t=True)
    assert got.shape == (2, x.shape[0])
    assert np.array_equal(got[0], backproject(bd, grid, tables, x, fill=0.0))
    ref = _backproject_reference(bd, grid, grid.values * tables, x, 0.0)
    assert np.max(np.abs(got[1] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a stack keeps its tables' rows and adds t times the first one last
    stacked = backproject(bd, grid, np.stack([tables, 2.0 * tables]), x, fill=0.0, times_t=True)
    assert np.array_equal(stacked[[0, 2]], got)
    with pytest.raises(ValueError, match="outside"):
        backproject(bd, grid, tables, x, fill="error", times_t=True)


def test_backproject_reads_cubics_exactly():
    # the nested Newton form reproduces a cubic profile g at every argument,
    # end cells included, and the t row reproduces t g for a quadratic g
    grid = TGrid(np.linspace(0.3, 1.5, 40))
    bd = boundary_grid(E2, 12)
    x = _interior_points(E2, 300, 0.5, np.random.default_rng(15))
    args = np.linalg.norm(x[:, None, :] - bd.centers[None, :, :], axis=-1)
    for g in (lambda t: 2.0 - t + 0.5 * t ** 2 - 1.5 * t ** 3, lambda t: 2.0 - t + 0.5 * t ** 2):
        got = backproject(bd, grid, g(grid.values)[None, :], x, fill="error", times_t=True)
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
    lhs = 0.5 * E3.boundary_area * backproject(bd, tg, G, x, fill=0.0)
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


def _table_grid(space, n_points):
    lo, hi = space.tgrid_range
    slack = 1e-6 * (hi - lo)
    return TGrid.linspace(lo + slack, hi - slack, n_points)


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
            grid, fill = _table_grid(space, tg.n), "error"
            q = t * d_operator_matrix(t ** (n - 2) * data.values, tg, n - 2)
            prof = log_kernel_table(q, tg, grid.values, kernel="log|t^2-s^2|")
        field = lambda p: space.boundary_area * backproject(bd, grid, prof, p, fill=fill)
        return d * laplacian_fd(field, x, h)
    weight = (1.0 - t ** 2) if space.kind == SPHERE else (t ** 2 - 1.0)
    F = data.values * weight ** (n / 2.0 - 1.0)
    if n % 2 == 1:
        grid, fill, scale = tg, 0.0, -1.0
        prof = diff_matrix(F, tg, n - 3)
    else:
        grid, fill, scale = _table_grid(space, tg.n), "error", 1.0 / np.pi
        prof = log_kernel_table(diff_matrix(F, tg, n - 2), tg, grid.values, kernel="log|t-s|")
    field = lambda p: scale * space.boundary_area * backproject(
        bd, grid, prof, spaces.lift(space, p), fill=fill)
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


@pytest.mark.parametrize("space,m,alpha", [
    (E3, 200, None),
    (SpaceSpec(EUCLIDEAN, 4, 1.0), 250, None),
    (SpaceSpec(SPHERE, 2, 0.8), 32, None),
    (SpaceSpec(SPHERE, 3, 0.8), 128, 1.0),
])
def test_radial_data_match_the_every_row_route(space, m, alpha):
    # radial data run as one row through every layer. e changes one centre's
    # row, so d + e and e take the every-row route, and by linearity
    # invert(d + e) - invert(e) is the every-row inversion of d
    bd = boundary_grid(space, m)
    tg = default_tgrid(space, 128)
    ph = Phantom(space, (Bump(spaces.origin(space), 0.3, 1.0),))
    d = forward_means(ph, bd, tg) if alpha is None else epd_trace_sphere(ph, bd, tg, alpha)
    assert np.all(d.values == d.values[0])
    e = np.zeros_like(d.values)
    e[3] = 0.5 * d.values[3] + bump_profile((tg.values - tg.values[60]) / (0.2 * (tg.b - tg.a)))
    x = chart_box_grid(space, np.zeros(space.n), 0.25, 3, ball_radius=0.25)
    radial = invert(d, x)
    every_row = (invert(MeanData(space, bd, tg, d.values + e, alpha), x)
                 - invert(MeanData(space, bd, tg, e, alpha), x))
    assert np.linalg.norm(radial - every_row) <= 1e-12 * np.linalg.norm(radial)


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


# ---------------------------------------------------------------------------
# the log-table window
# ---------------------------------------------------------------------------

def _full_range_invert(data, x, method="direct"):
    """Even-n inversion by the route without the window: the log table and
    its differences along the target axis on the whole table grid, then the
    back-projection and the prefactor."""
    space, tg, bd = data.space, data.tgrid, data.boundary
    n, t = space.n, tg.values
    values = data.values[:1] if np.all(data.values == data.values[0]) else data.values
    grid = _table_grid(space, tg.n)
    d = _prefactor(space)
    if space.kind == EUCLIDEAN:
        if method == "modified":
            values = darboux_L_matrix(values, tg, n)
        q = t * d_operator_matrix(t ** (n - 2) * values, tg, n - 2)
        rows = log_kernel_table(q, tg, grid.values, kernel="log|t^2-s^2|")
        if method == "direct":
            rows = darboux_L_matrix(rows, grid, n)
        return d * space.boundary_area * backproject(bd, grid, rows, x, fill="error")
    F = values * (space.curvature * (1.0 - t ** 2)) ** (n / 2.0 - 1.0)
    rows = log_kernel_table(diff_matrix(F, tg, n - 2), tg, grid.values, kernel="log|t-s|")
    d1 = diff_matrix(rows, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    p2, tp2, p1 = backproject(bd, grid, np.stack([d2, grid.values * d2, d1]), x, fill="error")
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
    # origin; a centred E4 bump runs as one row
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
    full = _table_grid(data.space, tg.n)
    window = inversion._table_grid(data.space, tg.n, _read_range(data.space, x))
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
    full = _table_grid(data.space, data.tgrid.n)
    lo, hi = _geodesic_read_range(data.space, x)
    window = int(np.ceil((hi - full.a) / full.h)) - int(np.floor((lo - full.a) / full.h)) + 1
    assert len(asked) == 1
    assert asked[0] <= window + 2 * _WINDOW_MARGIN < full.n


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
    args = _observation_args(space, x)(boundary_grid(space, 64 if n == 2 else 200).centers)
    assert lo - tol <= np.min(args) and np.max(args) <= hi + tol


def _admissible_edge(space, n_points):
    """The geodesic radius at which the points' argument bounds first reach
    an end of the full table grid."""
    grid = _table_grid(space, n_points)
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
    r = _admissible_edge(space, tg.n) * (1.0 - 1e-9)
    toward = spaces.chart(space, bd.centers[:2])
    toward = np.stack([toward[0], toward[0] + toward[1]])
    xp = space.sin_k(r) * toward / np.linalg.norm(toward, axis=1, keepdims=True)
    x = spaces.lift(space, xp)
    assert np.all(np.isfinite(invert(data, x)))
    full = _table_grid(space, tg.n)
    window = inversion._table_grid(space, tg.n, _read_range(space, x))
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
    """invert on random curved rows at the origin and two more points, with
    its last rows P (the filter's or the log table's) and its
    back-projection's arguments kept."""
    rng = np.random.default_rng(9)
    tg = default_tgrid(space, 128)
    bd = boundary_grid(space, 16)
    values = rng.standard_normal((bd.m, tg.n))
    made, projected = [], []

    def keeping(fn, into):
        def wrapped(*args, **kwargs):
            into.append((args, kwargs, fn(*args, **kwargs)))
            return into[-1][2]
        return wrapped

    monkeypatch.setattr(inversion, "diff_matrix", keeping(diff_matrix, made))
    monkeypatch.setattr(inversion, "log_kernel_table", keeping(log_kernel_table, made))
    monkeypatch.setattr(inversion, "backproject", keeping(backproject, projected))
    chart = np.array([[0.0] * space.n, [0.1] * space.n, [-0.2] + [0.05] * (space.n - 1)])
    x = spaces.lift(space, chart)
    f = invert(MeanData(space, bd, tg, values), x)
    assert len(projected) == 1
    return f, made[-1][2], projected[-1]


CURVED = [SpaceSpec(SPHERE, 3, 0.8), SpaceSpec(HYPERBOLIC, 3, 0.8), S2]


@pytest.mark.parametrize("space", CURVED)
def test_curved_stack_is_the_stacked_derivatives(monkeypatch, space):
    # invert fills the (P'', P') stack in place; the stack it back-projects
    # must hold the bits of np.stack over the separate derivatives of the
    # same rows P
    _, rows, ((_, grid, stack, _), kwargs, _) = _curved_invert_keeping(monkeypatch, space)
    d1 = diff_matrix(rows, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    assert np.array_equal(stack, np.stack([d2, d1]))
    assert kwargs["times_t"]


@pytest.mark.parametrize("space", CURVED)
def test_curved_finish_matches_the_three_table_stack(monkeypatch, space):
    # BP[t P''] from the values gathered for P'' against the back-projection
    # of the explicit table t P'', finished in closed form
    f, rows, ((bd, grid, _, x), kwargs, _) = _curved_invert_keeping(monkeypatch, space)
    d1 = diff_matrix(rows, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    p2, tp2, p1 = backproject(bd, grid, np.stack([d2, grid.values * d2, d1]), x,
                              fill=kwargs["fill"])
    A, B, C = _chart_coefficients(space, spaces.chart(space, x))
    scale = -1.0 if space.n % 2 == 1 else 1.0 / np.pi
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    ref = _prefactor(space) * x[:, -1] / space.chart_radius * lap
    assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_invert_memory_on_a_cap(tmp_path):
    # an (800, 600) cap case: the filters hold the rows, the (2, m, N) stack
    # and one derivative's interior; with whole-array temporaries and
    # np.stack the peak was 7 times the means, with the (3, m, N) stack of
    # (P'', t P'', P') 5
    import tracemalloc

    space = SpaceSpec(SPHERE, 3, 0.8)
    tg = default_tgrid(space, 600)
    bd = boundary_grid(space, 800)
    data = MeanData(space, bd, tg, np.random.default_rng(10).standard_normal((bd.m, tg.n)))
    x = chart_box_grid(space, np.zeros(3), 0.3, 5, ball_radius=0.3)
    tracemalloc.start()
    try:
        invert(data, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * data.values.nbytes
