import numpy as np
import pytest

from geomeans.numerics import (
    CubicStencil,
    TGrid,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    gauss_legendre,
    graded_panels,
    laplacian_fd,
    log_kernel_table,
    quintic_interp,
)


def test_gauss_legendre_midpoint():
    x, w = gauss_legendre(1, -1.0, 1.0)
    assert np.allclose(x, [0.0]) and np.allclose(w, [2.0])


def test_gauss_legendre_exactness_degree3():
    x, w = gauss_legendre(2, -1.0, 1.0)
    assert abs(np.dot(w, x ** 2) - 2.0 / 3.0) < 1e-15


def test_gauss_legendre_exp():
    x, w = gauss_legendre(20, 0.0, 1.0)
    assert abs(np.dot(w, np.exp(x)) - (np.e - 1.0)) < 1e-14


def test_tgrid_validation():
    with pytest.raises(ValueError):
        TGrid(np.array([0.0, 1.0, 1.5]))  # non-uniform
    with pytest.raises(ValueError):
        TGrid(np.linspace(1.0, 0.0, 100))  # decreasing
    g = TGrid.linspace(0.0, 1.0, 101)
    assert g.n == 101 and abs(g.h - 0.01) < 1e-15


@pytest.fixture
def grid():
    return TGrid(np.linspace(0.5, 2.5, 256))


def test_derivative_cubic_exact(grid):
    t = grid.values
    out = diff_matrix(t ** 3, grid, 2)
    assert np.max(np.abs(out - 6.0 * t)) < 1e-8


def test_derivative_quartic_exact_first(grid):
    t = grid.values
    out = diff_matrix(t ** 4, grid, 1)
    assert np.max(np.abs(out - 4.0 * t ** 3)) < 1e-8


def test_derivative_sin(grid):
    t = grid.values
    out = diff_matrix(np.sin(t), grid, 1)
    assert np.max(np.abs(out - np.cos(t))) < 5.0 * grid.h ** 4


def test_derivative_constant(grid):
    out = diff_matrix(np.full(grid.n, 3.7), grid, 3)
    assert np.max(np.abs(out)) < 1e-8


def test_derivative_grid_too_short():
    g = TGrid(np.linspace(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        diff_matrix(np.zeros(10), g, 5)


def test_d_operator(grid):
    t = grid.values
    assert np.max(np.abs(d_operator_matrix(t ** 2, grid, 1) - 1.0)) < 1e-8
    assert np.max(np.abs(d_operator_matrix(t ** 4, grid, 2) - 2.0)) < 1e-7
    p = np.sin(t)
    assert np.array_equal(d_operator_matrix(p, grid, 0), p)


def test_d_operator_needs_positive_grid():
    g = TGrid(np.linspace(-1.0, 1.0, 128))
    with pytest.raises(ValueError):
        d_operator_matrix(np.ones(128), g, 1)


def test_darboux_radial_operator(grid):
    t = grid.values
    out = darboux_L_matrix(t ** 2, grid, 3)
    assert np.max(np.abs(out - 6.0)) < 1e-7
    out = darboux_L_matrix(np.full(grid.n, 2.0), grid, 4)
    assert np.max(np.abs(out)) < 1e-10
    # t^{2-n} solves the radial equation for n = 3
    out = darboux_L_matrix(1.0 / t, grid, 3)
    assert np.max(np.abs(out[4:-4])) < 5e-5


def interp(samples, grid, x):
    """Cubic interpolant of one row of samples at the points x, zero outside the grid."""
    return CubicStencil.build(grid, np.asarray(x, dtype=float)[None, :])(samples[None, :])[0]


def log_kernel_reference(samples, grid, s: float, kernel: str = "log|t-s|",
                         order: int = 20) -> float:
    """One target's log-kernel integral by interpolating the profile at every
    panel node: the route without the operator matrix."""
    if kernel == "log|t-s|":
        pts = [s]
        kern = lambda t: np.log(np.abs(t - s))
    else:
        pts = [abs(s), -abs(s)]
        kern = lambda t: np.log(np.abs(t * t - s * s))
    nodes, weights, slivers = graded_panels(grid.a, grid.b, pts, order=order)
    total = float(np.dot(weights, interp(samples, grid, nodes) * kern(nodes)))
    for c, eps in slivers:
        # kernel moment over (c - eps, c + eps); log|t + c| is smooth there
        moment = 2.0 * eps * (np.log(eps) - 1.0)
        if kernel == "log|t^2-s^2|":
            moment = 2.0 * moment if c < 1e-8 else moment + 2.0 * eps * np.log(2.0 * c)
        total += float(interp(samples, grid, [c])[0]) * moment
    return total


def log_kernel_one(samples, grid, s: float, kernel: str = "log|t-s|", order: int = 20) -> float:
    return float(log_kernel_table(samples, grid, [s], kernel, order)[0, 0])


def test_log_kernel_point_singularity():
    g = TGrid(np.linspace(-1.0, 1.0, 400))
    assert abs(log_kernel_one(np.ones(400), g, 0.0, "log|t-s|") - (-2.0)) < 1e-10


def test_log_kernel_difference_of_squares():
    g = TGrid(np.linspace(1e-6, 2.0, 400))
    exact = 3.0 * np.log(3.0) - 4.0
    assert abs(log_kernel_one(np.ones(400), g, 1.0, "log|t^2-s^2|") - exact) < 1e-8


def test_log_kernel_profile_away_from_singularity():
    # smooth profile vanishing near the singular point: plain quadrature oracle
    from geomeans.phantoms import bump_profile

    g = TGrid(np.linspace(0.0, 2.0, 600))
    t = g.values
    p = bump_profile((t - 1.5) / 0.3)
    x, w = gauss_legendre(400, 1.2, 1.8)
    # oracle integrates the same interpolant, isolating the panel scheme
    expected = np.dot(w, interp(p, g, x) * np.log(np.abs(x - 0.3)))
    assert abs(log_kernel_one(p, g, 0.3) - expected) < 1e-8


def test_log_kernel_panel_doubling():
    g = TGrid(np.linspace(0.0, 2.0, 600))
    t = g.values
    p = np.exp(-((t - 1.0) ** 2) * 8.0)
    a = log_kernel_one(p, g, 0.8, order=12)
    b = log_kernel_one(p, g, 0.8, order=24)
    assert abs(a - b) < 1e-8


def test_log_kernel_table_matches_scalar():
    g = TGrid(np.linspace(0.0, 2.0, 300))
    t = g.values
    rows = np.stack([np.sin(t), np.cos(t) ** 2])
    targets = np.array([0.3, 1.1, 1.7])
    table = log_kernel_table(rows, g, targets, kernel="log|t-s|")
    for i in range(2):
        for j, s in enumerate(targets):
            ref = log_kernel_reference(rows[i], g, float(s))
            assert abs(table[i, j] - ref) < 1e-12


@pytest.mark.parametrize("kernel,lo", [("log|t-s|", -1.0), ("log|t^2-s^2|", 1e-6)])
def test_log_kernel_operator_matches_per_node_route(kernel, lo):
    # targets at both grid ends, on and between nodes, and (log|t-s|) outside
    # the grid; every target's panels reach both cubic stencil clips
    g = TGrid.linspace(lo, 1.0, 96)
    t = g.values
    rows = np.stack([np.exp(-4.0 * (t - 0.3) ** 2), np.sin(3.0 * t) + 0.5, np.ones_like(t)])
    targets = np.concatenate([[g.a, g.b, t[40], 0.5 * (t[60] + t[61])],
                              [-1.2, 1.3] if kernel == "log|t-s|" else [0.0]])
    table = log_kernel_table(rows, g, targets, kernel=kernel)
    ref = np.array([[log_kernel_reference(r, g, float(s), kernel)
                     for s in targets] for r in rows])
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_graded_panels_cover_interval():
    nodes, weights, slivers = graded_panels(0.0, 1.0, [0.4])
    assert abs(weights.sum() - (1.0 - 2 * slivers[0][1])) < 1e-12
    assert np.all((nodes > 0.0) & (nodes < 1.0))


def test_laplacian_quadratic():
    f = lambda p: (p ** 2).sum(axis=1)
    out = laplacian_fd(f, np.array([[0.3, -0.2, 0.1]]), 1e-3)
    assert abs(out[0] - 6.0) < 1e-7


def test_laplacian_affine():
    f = lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.5
    out = laplacian_fd(f, np.array([[0.3, -0.2]]), 1e-3)
    assert abs(out[0]) < 1e-9


def test_laplacian_second_order_ratio():
    f = lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    x = np.array([[0.4, 0.2]])
    exact = -2.0 * np.sin(0.4) * np.cos(0.2)
    e1 = abs(laplacian_fd(f, x, 2e-2)[0] - exact)
    e2 = abs(laplacian_fd(f, x, 1e-2)[0] - exact)
    assert 3.5 < e1 / e2 < 4.5


def test_cubic_interp_polynomial_exact():
    g = TGrid(np.linspace(0.0, 1.0, 101))
    vals = g.values ** 3 - 2.0 * g.values
    x = np.linspace(0.05, 0.95, 37)
    out = interp(vals, g, x)
    assert np.max(np.abs(out - (x ** 3 - 2.0 * x))) < 1e-13


def test_cubic_interp_fill_modes():
    g = TGrid(np.linspace(0.0, 1.0, 101))
    vals = np.ones(101)
    x = np.array([[1.5]])
    assert CubicStencil.build(g, x, fill=0.0)(vals[None, :])[0, 0] == 0.0
    with pytest.raises(ValueError):
        CubicStencil.build(g, x, fill="error")


def test_quintic_interp_degree5_exact():
    g = TGrid(np.linspace(0.0, 1.0, 101))
    vals = g.values ** 5 - g.values ** 2
    x = np.linspace(0.05, 0.95, 37)
    out = quintic_interp(vals, g, x)
    assert np.max(np.abs(out - (x ** 5 - x ** 2))) < 1e-12
