import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, roots_jacobi

from geomeans import fractional
from geomeans.fractional import _quintic_operator, ek_ac_matrix, ek_matrix, rl_matrix
from geomeans.numerics import TGrid, d_operator_matrix, diff_matrix, quintic_interp
from geomeans.phantoms import bump_profile


@pytest.fixture
def pos_grid():
    return TGrid.linspace(1e-3, 2.0, 800)


@pytest.fixture
def sym_grid():
    return TGrid.linspace(-1 + 1e-3, 1 - 1e-3, 800)


def interior(grid, lo=0.3):
    return grid.values > lo


def test_spec_validation(pos_grid):
    ones = np.ones(pos_grid.n)
    with pytest.raises(ValueError):
        ek_matrix(ones, pos_grid, -0.8, 1.0)
    ek_ac_matrix(ones, pos_grid, -0.8, -1.0)  # negative orders do not need the constraint
    ek_matrix(ones, pos_grid, -0.5, 0.5)


def test_constant_profile(pos_grid):
    # the weighted integral of 1 is 1/(eta+1) away from the grid cutoff
    ones = np.ones(pos_grid.n)
    for eta in (0.0, 0.5, 1.0):
        out = ek_matrix(ones, pos_grid, eta, 1.0)[0]
        sel = interior(pos_grid)
        assert np.max(np.abs(out[sel] - 1.0 / (eta + 1.0))) < 1e-5


def test_quadratic_profile(pos_grid):
    t = pos_grid.values
    out = ek_matrix(t ** 2, pos_grid, 0.0, 1.0)[0]
    sel = interior(pos_grid)
    assert np.max(np.abs(out[sel] - t[sel] ** 2 / 2.0)) < 1e-5


def test_small_order_limit(pos_grid):
    t = pos_grid.values
    bump = bump_profile((t - 1.0) / 0.4)
    out = ek_matrix(bump, pos_grid, 0.5, 1e-3)[0]
    assert np.max(np.abs(out - bump)) < 1e-2


def test_zero_order_identity(pos_grid):
    p = np.sin(pos_grid.values)
    out = ek_ac_matrix(p, pos_grid, 0.7, 0.0)[0]
    assert np.array_equal(out, p)


def test_integer_negative_formula_polynomial(pos_grid):
    # forward order 1 on a polynomial, then the pure-derivative inverse
    t = pos_grid.values
    phi = t ** 2
    eta = 1.0
    fwd = ek_matrix(phi, pos_grid, eta, 1.0)
    back = ek_ac_matrix(fwd, pos_grid, eta + 1.0, -1.0)[0]
    sel = interior(pos_grid)
    assert np.max(np.abs(back[sel] - phi[sel])) < 1e-4


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_ek_roundtrip(alpha):
    g = TGrid.linspace(1e-3, 2.0, 1200)
    bump = bump_profile((g.values - 1.0) / 0.4)
    fwd = ek_matrix(bump, g, 0.5, alpha, order=256)
    back = ek_ac_matrix(fwd, g, 0.5 + alpha, -alpha, order=256)[0]
    assert np.max(np.abs(back - bump)) <= 1e-4


def test_rl_constant(sym_grid):
    out = rl_matrix(np.ones(sym_grid.n), sym_grid, 1.0)[0]
    assert np.max(np.abs(out - (sym_grid.b - sym_grid.values))) < 1e-12


def test_rl_zero_order(sym_grid):
    p = np.sin(sym_grid.values)
    out = rl_matrix(p, sym_grid, 0.0)[0]
    assert np.array_equal(out, p)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_rl_roundtrip(alpha):
    g = TGrid.linspace(-1 + 1e-3, 1 - 1e-3, 1200)
    bump = bump_profile(g.values / 0.5)
    back = rl_matrix(rl_matrix(bump, g, alpha, order=256), g, -alpha, order=256)[0]
    assert np.max(np.abs(back - bump)) <= 1e-4


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_ek_semigroup(a, b):
    g = TGrid.linspace(1e-3, 2.0, 800)
    bump = bump_profile((g.values - 1.0) / 0.4)
    eta = 0.5
    two = ek_matrix(ek_matrix(bump, g, eta, a), g, eta + a, b)
    direct = ek_matrix(bump, g, eta, a + b)
    assert np.max(np.abs(two - direct)) < 1e-4


def test_positivity_preserved(pos_grid):
    t = pos_grid.values
    bump = bump_profile((t - 1.0) / 0.4)
    for alpha in (0.5, 1.0):
        out = ek_matrix(bump, pos_grid, 0.5, alpha)
        assert np.min(out) > -1e-12
    g = TGrid.linspace(-1 + 1e-3, 1 - 1e-3, 800)
    bump2 = bump_profile(g.values / 0.5)
    for alpha in (0.5, 1.0):
        out = rl_matrix(bump2, g, alpha)
        assert np.min(out) > -1e-12


def test_positive_path_rejects_nonpositive_alpha(pos_grid):
    ones = np.ones(pos_grid.n)
    with pytest.raises(ValueError):
        ek_matrix(ones, pos_grid, 0.5, -0.5)
    with pytest.raises(ValueError):
        ek_ac_matrix(ones, pos_grid, 0.5, 0.5)


# Reference routes without the operator matrix: interpolate the samples at
# every quadrature node of every grid node, one grid node at a time.

def ek_rule(eta, alpha, order):
    x, w = roots_jacobi(order, eta, 2.0 * alpha - 1.0)
    c = 0.5 * (1.0 + x)
    return np.sqrt(np.clip(1.0 - c * c, 0.0, None)), w * 2.0 ** (-2.0 * alpha - eta) * (1.0 + c) ** eta


def rl_rule(alpha, order):
    x, w = roots_jacobi(order, 0.0, alpha - 1.0)
    return 0.5 * (1.0 + x), w * 2.0 ** (-alpha)


def ek_per_node(samples, grid, eta, alpha, order):
    s, F = ek_rule(eta, alpha, order)
    return np.stack([2.0 / gamma(alpha) * quintic_interp(samples, grid, t * s) @ F
                     for t in grid.values], axis=-1)


def rl_per_node(samples, grid, alpha, order):
    v, F = rl_rule(alpha, order)
    return np.stack([(grid.b - t) ** alpha / gamma(alpha)
                     * quintic_interp(samples, grid, t + (grid.b - t) * v) @ F
                     for t in grid.values], axis=-1)


def close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def clips(grid, nodes):
    """Whether the nodes reach the left and the right quintic stencil clip."""
    u = (nodes[(nodes >= grid.a) & (nodes <= grid.b)] - grid.a) / grid.h
    return bool(np.any(u < 2.0)), bool(np.any(u >= grid.n - 3))


@pytest.fixture
def small_rows():
    g = TGrid.linspace(0.05, 2.0, 96)
    t = g.values
    return g, np.stack([np.exp(-3.0 * (t - 1.0) ** 2), np.cos(2.0 * t), t ** 2])


@pytest.mark.parametrize("eta,alpha", [(0.5, 0.3), (1.0, 1.0), (-0.5, 1.7)])
def test_ek_operator_matches_per_node_route(small_rows, eta, alpha):
    g, rows = small_rows
    order = 24
    s, _ = ek_rule(eta, alpha, order)
    # some nodes t*s fall below the grid start (filled with zero)
    assert np.any(np.outer(g.values, s) < g.a)
    assert clips(g, np.outer(g.values, s).ravel()) == (True, True)
    assert close(ek_matrix(rows, g, eta, alpha, order), ek_per_node(rows, g, eta, alpha, order))


@pytest.mark.parametrize("alpha", [-0.4, -1.0, -1.6])
def test_ek_continuation_matches_per_node_route(small_rows, alpha):
    g, rows = small_rows
    eta, order = 0.5, 24
    m = int(np.ceil(-alpha))
    rem = m + alpha
    t = g.values
    inner = d_operator_matrix(rows * t ** (2.0 * (eta + rem)), g, m) * t ** (-2.0 * (eta + rem - m))
    ref = inner if rem == 0 else ek_per_node(inner, g, eta, rem, order)
    assert close(ek_ac_matrix(rows, g, eta, alpha, order), ref)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.3, -0.5, -1.0, -1.5])
def test_rl_operator_matches_per_node_route(alpha):
    g = TGrid.linspace(-0.95, 0.95, 96)
    t = g.values
    rows = np.stack([np.exp(-3.0 * t ** 2), np.sin(2.0 * t) + 0.3, np.ones_like(t)])
    order = 24
    m = max(0, int(np.ceil(-alpha)))
    rem = m + alpha
    ref = rows
    if rem > 0:
        v, _ = rl_rule(rem, order)
        assert clips(g, (t[:, None] + (g.b - t)[:, None] * v).ravel()) == (True, True)
        ref = rl_per_node(rows, g, rem, order)
    ref = (-1.0) ** m * diff_matrix(ref, g, m)
    assert close(rl_matrix(rows, g, alpha, order), ref)


def test_operator_nodes_at_the_grid_ends():
    # nodes on, and one ulp beyond, both grid ends; with a start this close to
    # 0 the node below it lands on the unit stencil's end unless it is masked
    g = TGrid.linspace(1e-3, 2.0, 96)
    x = np.array([np.nextafter(g.a, -1.0), g.a, g.b, np.nextafter(g.b, 3.0), 1.0])
    A = _quintic_operator(g, x[:, None], np.ones((x.size, 1)))
    rows = np.stack([np.cos(g.values), 1.0 + g.values ** 2])
    direct = np.stack([quintic_interp(rows, g, x[k:k + 1])[:, 0] for k in range(x.size)], axis=-1)
    assert np.array_equal((rows @ A.T)[:, :x.size] == 0.0, direct == 0.0)
    assert close((rows @ A.T)[:, :x.size], direct)
    # grids whose (b - a)/h rounds above n - 1, so that the node at b lies a
    # rounding error past the last cell: it still takes the last sample
    for g in (TGrid.linspace(0.1, 1.0, 128), TGrid.linspace(0.6967, 0.99999, 64)):
        assert (g.b - g.a) / g.h > g.n - 1
        A = _quintic_operator(g, np.array([[g.b]]), np.ones((1, 1)))
        rows = np.stack([np.cos(g.values), 1.0 + g.values ** 2])
        assert np.array_equal((rows @ A.T)[:, 0], rows[:, -1])


# The operator built at all quadrature nodes at once, as before the blocked
# build: the reference route for `_quintic_operator`.

def whole_array_operator(grid, rows, x, coef):
    inside = (x >= grid.a) & (x <= grid.b)
    rows, x, coef = rows[inside], x[inside], coef[inside]
    u = (x - grid.a) / grid.h
    idx = np.clip(np.floor(u).astype(np.int64), 2, grid.n - 4)
    s = np.minimum(u - idx, 3.0)
    base = np.where(s < 1.0, 0, 2)
    w = quintic_interp(np.eye(8), TGrid(np.arange(8.0)), s + 2.0 + base)
    stencil = np.arange(6)[:, None]
    w = np.take_along_axis(w, base + stencil, axis=0)
    flat = rows * grid.n + idx - 2 + stencil
    A = np.bincount(flat.ravel(), (w * coef).ravel(), minlength=grid.n * grid.n)
    return A.reshape(grid.n, grid.n)


def reference_operator(grid, x, coef):
    rows = np.repeat(np.arange(x.shape[0]), x.shape[1])
    return whole_array_operator(grid, rows, x.ravel(), np.broadcast_to(coef, x.shape).ravel())


OPERATORS = {
    "ek": lambda rows, g, order: ek_matrix(rows, g, 0.5, 0.7, order),
    "ek_continuation": lambda rows, g, order: ek_ac_matrix(rows, g, 0.5, -1.4, order),
    "rl": lambda rows, g, order: rl_matrix(rows, g, 1.3, order),
    "rl_negative": lambda rows, g, order: rl_matrix(rows, g, -0.6, order),
}


# 797 rows are a whole number of blocks at none of the orders (42, 512 and
# 32 rows a block); the 128-node grid puts the RL node at b a rounding error
# past its last cell (with a zero weight there; the clamp that keeps it on
# the last sample is pinned by test_operator_nodes_at_the_grid_ends); 7
# nodes a block make every row a block of its own
@pytest.mark.parametrize("grid,order,nodes", [
    ((1e-3, 2.0, 797), 16, None),
    ((1e-3, 2.0, 797), 192, None),
    ((1e-3, 2.0, 797), 256, None),
    ((0.1, 1.0, 128), 192, None),
    ((0.05, 2.0, 96), 16, 7),
], ids=["797-16", "797-192", "797-256", "clamp-192", "one-row-blocks"])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_blocked_operator_equals_whole_array_build(monkeypatch, name, grid, order, nodes):
    g = TGrid.linspace(*grid)
    if nodes is not None:
        monkeypatch.setattr(fractional, "_OPERATOR_NODES", nodes)
        assert fractional._OPERATOR_NODES < order
    if grid[2] == 128:
        assert (g.b - g.a) / g.h > g.n - 1
    t = g.values
    rows = np.stack([np.exp(-3.0 * (t - 1.0) ** 2), np.cos(2.0 * t), t ** 2])
    blocked = OPERATORS[name](rows, g, order)
    monkeypatch.setattr(fractional, "_quintic_operator", reference_operator)
    assert np.array_equal(blocked, OPERATORS[name](rows, g, order))


def traced_peak(build):
    build()  # the Gauss-Jacobi rules are cached after the first call
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_operator_builds_stay_near_the_matrix_size():
    # the whole-array build peaked at 9.65 (EK) and 13.2 (RL) N x N matrices
    g = TGrid.linspace(1e-3, 2.0, 800)
    assert traced_peak(lambda: ek_matrix(np.sin(g.values), g, 0.5, 1.0, 192)) < 3 * 8 * 800 ** 2
    g = TGrid.linspace(-0.99, 0.99, 600)
    assert traced_peak(lambda: rl_matrix(np.sin(g.values), g, 1.0, 192)) < 4 * 8 * 600 ** 2
