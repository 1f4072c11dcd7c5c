import math
import re

import numpy as np
import pytest
from cubic_reference import cubic_interp
from hypothesis import example, given, settings, strategies as st

from geomeans.checks import graded_panels
from geomeans.numerics import (
    TGrid,
    _diff1,
    _widen,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    gauss_jacobi,
    gauss_legendre,
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


def chebyshev_u_rule(n):
    th = np.arange(n, 0, -1) * np.pi / (n + 1)
    return np.cos(th), np.pi / (n + 1) * np.sin(th) ** 2


def chebyshev_t_rule(n):
    th = (2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n)
    return np.cos(th), np.full(n, np.pi / n)


# Relative weight tolerances over orders 2..256. Against the closed forms
# the rule stays within 1.5e-12, where scipy's roots_jacobi is off by up
# to 1.9e-10 for Chebyshev U (its Chebyshev T rule is the closed form).
# numpy's leggauss is itself off by 4.2e-11 at order 192 against a 40-digit
# reference, and the rule and scipy differ from it by up to 1.6e-10 and
# 2.8e-10; the moment test below holds the Legendre case to 3e-12.
@pytest.mark.parametrize("a,b,reference,rtol", [
    (0.5, 0.5, chebyshev_u_rule, 2e-12),
    (-0.5, -0.5, chebyshev_t_rule, 2e-12),
    (0.0, 0.0, np.polynomial.legendre.leggauss, 2e-10),
])
def test_gauss_jacobi_matches_closed_forms(a, b, reference, rtol):
    for order in range(2, 257):
        x, w = gauss_jacobi(order, a, b)
        x_ref, w_ref = reference(order)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w / w_ref - 1.0)) <= rtol


# (a, b) of every Gauss-Jacobi rule that the package and its tests build:
# the n = 4, 5 boundary sphere rules ((k-1)/2, (k-1)/2), k = 2, 3; the
# Erdelyi-Kober rules (eta, 2 alpha - 1) of the trace configs, criteria 6
# and 13 and the fractional and forward tests; and the Riemann-Liouville
# rules (0, alpha - 1) of the cap traces and tests, alpha = 1e-3 included.
JACOBI_PAIRS = [
    (0.5, 0.5), (1.0, 1.0),
    (-0.5, 1.0), (0.5, 1.0), (0.5, 3.0), (0.5, 0.0), (0.5, 2.0), (1.0, 0.0),
    (2.0, 0.0), (1.5, 1.0), (0.0, 1.0), (-0.5, 0.0), (0.5, -0.998),
    (0.5, -0.4), (-0.5, 2.4), (0.5, 0.2), (0.5, -0.2),
    (0.0, 0.0), (0.0, -0.5), (0.0, 0.5), (0.0, 1.3), (0.0, -0.999),
]


@pytest.mark.parametrize("a,b", JACOBI_PAIRS)
def test_gauss_jacobi_integrates_beta_moments(a, b):
    # sum w (1+x)^j = 2^(a+b+j+1) B(a+1, b+j+1) for every j <= 2 order - 1;
    # the reference itself is good to about 1e-12 at j = 511
    for order in (2, 3, 4, 5, 8, 13, 24, 64, 128, 192, 255, 256):
        x, w = gauss_jacobi(order, a, b)
        j = np.arange(2 * order)
        ref = np.exp([(a + b + k + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                      + math.lgamma(b + k + 1.0) - math.lgamma(a + b + k + 2.0) for k in j])
        got = w @ (1.0 + x[:, None]) ** j
        assert np.max(np.abs(got / ref - 1.0)) <= 3e-12


def test_gauss_jacobi_one_node_and_argument_checks():
    # one node: the weight's mean (b - a) / (a + b + 2), carrying its integral
    x, w = gauss_jacobi(1, 0.3, -0.2)
    mu0 = 2.0 ** 1.1 * math.gamma(1.3) * math.gamma(0.8) / math.gamma(2.1)
    assert abs(x[0] + 0.5 / 2.1) < 1e-16 and abs(w[0] - mu0) < 1e-15
    assert gauss_jacobi(24, 0.5, 1.0)[0] is gauss_jacobi(24, 0.5, 1.0)[0]
    assert not gauss_jacobi(24, 0.5, 1.0)[1].flags.writeable
    for args in ((0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, -1.5)):
        with pytest.raises(ValueError):
            gauss_jacobi(*args)


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


# The filters as whole-array expressions, the form they had before they
# wrote into preallocated arrays; the in-place forms must give the same bits.

def _diff1_reference(f, h):
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h)
    out[..., 0] = (-25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
                   + 16.0 * f[..., 3] - 3.0 * f[..., 4]) / (12.0 * h)
    out[..., 1] = (-3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
                   - 6.0 * f[..., 3] + f[..., 4]) / (12.0 * h)
    out[..., -2] = (3.0 * f[..., -1] + 10.0 * f[..., -2] - 18.0 * f[..., -3]
                    + 6.0 * f[..., -4] - f[..., -5]) / (12.0 * h)
    out[..., -1] = (25.0 * f[..., -1] - 48.0 * f[..., -2] + 36.0 * f[..., -3]
                    - 16.0 * f[..., -4] + 3.0 * f[..., -5]) / (12.0 * h)
    return out


def _d_operator_reference(samples, grid, m):
    out = samples
    for _ in range(m):
        out = _diff1_reference(out, grid.h) / (2.0 * grid.values)
    return out


def _darboux_reference(samples, grid, n):
    d1 = _diff1_reference(samples, grid.h)
    d2 = _diff1_reference(d1, grid.h)
    return d2 + (n - 1) / grid.values * d1


@pytest.mark.parametrize("shape", [(8,), (256,), (3, 8), (5, 256), (2, 3, 256)])
def test_diff1_in_place_matches_the_expression_form(shape):
    # magnitudes over 16 decades, so that any change in the order of the
    # operations shows in the last bits
    rng = np.random.default_rng(11)
    f = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    h = 0.0123
    ref = _diff1_reference(f, h)
    kept = f.copy()
    assert np.array_equal(_diff1(f, h), ref)
    stack = np.full((2,) + shape, np.nan)
    slot = stack[1]
    assert _diff1(f, h, out=slot) is slot
    assert np.array_equal(slot, ref) and np.all(np.isnan(stack[0]))
    assert np.array_equal(f, kept)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_d_operator_matches_the_expression_form(grid, m):
    samples = np.random.default_rng(12).standard_normal((4, grid.n))
    kept = samples.copy()
    assert np.array_equal(d_operator_matrix(samples, grid, m),
                          _d_operator_reference(samples, grid, m))
    assert np.array_equal(samples, kept)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_darboux_matches_the_expression_form(grid, n):
    samples = np.random.default_rng(13).standard_normal((4, grid.n))
    kept = samples.copy()
    assert np.array_equal(darboux_L_matrix(samples, grid, n), _darboux_reference(samples, grid, n))
    assert np.array_equal(samples, kept)


@pytest.mark.parametrize("start,stop", [(0, 64), (-3, 70)])
def test_widen_states_the_reach_rule(start, stop):
    # reach 0 is the run itself, clipped to the limits; a limit below 0 or
    # past the grid, as on a log table's lattice, clips there alike
    assert _widen(5, 9, 0, start, stop) == (5, 9)
    assert _widen(start - 2, stop + 2, 0, start, stop) == (start, stop)
    assert _widen(start, start + 1, 0, start, stop) == (start, start + 1)
    assert _widen(20, 30, 4, start, stop) == (16, 34)
    assert _widen(start + 1, stop - 1, 4, start, stop) == (start, stop)
    # a run of one or two nodes at either limit keeps reach + 3 nodes
    for reach in (1, 2, 3, 6):
        for width in (1, 2):
            assert _widen(start, start + width, reach, start, stop) == (start, start + reach + 3)
            assert _widen(stop - width, stop, reach, start, stop) == (stop - reach - 3, stop)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_widened_windows_keep_the_whole_grid_bits(passes):
    # p difference passes on the window of reach 2 p give every node of the
    # run the whole grid's bits, at the grid's ends too
    f = np.random.default_rng(14).standard_normal(64)
    whole = f
    for _ in range(passes):
        whole = _diff1(whole, 0.1)
    for lo, hi in [(0, 1), (0, 2), (1, 2), (2, 3), (30, 31), (20, 40), (61, 62), (62, 64),
                   (63, 64)]:
        w0, w1 = _widen(lo, hi, 2 * passes, 0, 64)
        part = f[w0:w1]
        for _ in range(passes):
            part = _diff1(part, 0.1)
        assert np.array_equal(part[lo - w0:hi - w0], whole[lo:hi])


def log_kernel_reference(samples, grid, s: float, kernel: str = "log|t-s|") -> float:
    """One target's log-kernel integral by interpolating the profile at the
    nodes of order-20 graded panels on every grid cell, plus a moment for
    each excluded sliver: the route without the operator matrix and without
    the cell moments."""
    if kernel == "log|t-s|":
        pts = [s]
        kern = lambda t: np.log(np.abs(t - s))
    else:
        pts = [abs(s), -abs(s)]
        kern = lambda t: np.log(np.abs(t * t - s * s))
    total = 0.0
    for lo, hi in zip(grid.values[:-1], grid.values[1:]):
        nodes, weights, slivers = graded_panels(lo, hi, pts, order=20)
        total += float(np.dot(weights, cubic_interp(samples, grid, nodes) * kern(nodes)))
        for c, eps in slivers:
            # kernel moment over (c - eps, c + eps): log|t - c| integrates to
            # 2 eps (log eps - 1); for log|t^2-s^2| add the integral of
            # log|t + c| there, except at s = 0, where each of the two
            # coincident slivers carries one of the two equal terms
            moment = 2.0 * eps * (np.log(eps) - 1.0)
            if kernel == "log|t^2-s^2|" and c != 0.0:
                moment += log_kernel_closed_form(c - eps, c + eps, -c, "log|t-s|")
            total += float(cubic_interp(samples, grid, [c])[0]) * moment
    return total


def log_kernel_one(samples, grid, s: float, kernel: str = "log|t-s|") -> float:
    return float(log_kernel_table(samples, grid, [s], kernel)[0, 0])


def log_kernel_each(rows, grid, targets, kernel: str = "log|t-s|") -> np.ndarray:
    """The table at targets off the grid's step, one call per target."""
    return np.concatenate([log_kernel_table(rows, grid, [s], kernel) for s in targets], axis=1)


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
    # oracle integrates the same interpolant, isolating the cell rule
    expected = np.dot(w, cubic_interp(p, g, x) * np.log(np.abs(x - 0.3)))
    assert abs(log_kernel_one(p, g, 0.3) - expected) < 1e-8


def test_log_kernel_table_matches_scalar():
    g = TGrid(np.linspace(0.0, 2.0, 300))
    t = g.values
    rows = np.stack([np.sin(t), np.cos(t) ** 2])
    targets = np.array([0.3, 1.1, 1.7])
    table = log_kernel_each(rows, g, targets)
    for i in range(2):
        for j, s in enumerate(targets):
            ref = log_kernel_reference(rows[i], g, float(s))
            assert abs(table[i, j] - ref) < 1e-12


@pytest.mark.parametrize("kernel,lo", [("log|t-s|", -1.0), ("log|t^2-s^2|", 1e-6)])
def test_log_kernel_operator_matches_per_node_route(kernel, lo):
    # targets at both grid ends, on and between nodes, and (log|t-s|) outside
    # the grid; the end targets' exact cell moments meet the end cells'
    # shifted stencils
    g = TGrid.linspace(lo, 1.0, 96)
    t = g.values
    rows = np.stack([np.exp(-4.0 * (t - 0.3) ** 2), np.sin(3.0 * t) + 0.5, np.ones_like(t)])
    targets = np.concatenate([[g.a, g.b, t[40], 0.5 * (t[60] + t[61])],
                              [-1.2, 1.3] if kernel == "log|t-s|" else [0.0]])
    table = log_kernel_each(rows, g, targets, kernel)
    ref = np.array([[log_kernel_reference(r, g, float(s), kernel)
                     for s in targets] for r in rows])
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


def _lattice(g, case):
    """Targets that step by the grid's step (b - a)/(N - 1): the grid's own
    nodes, 12 of them at either end, a run anchored 0.37 steps off the nodes
    from 1.63 steps below the grid to 0.63 steps below its end, or one target."""
    step = (g.b - g.a) / (g.n - 1)
    return {"full": g.values, "window at a": g.values[:12], "window at b": g.values[-12:],
            "off the nodes": g.a + (0.37 + np.arange(-2, g.n)) * step, "one": [0.3]}[case]


@pytest.mark.parametrize("case", ["full", "window at a", "window at b", "off the nodes", "one"])
@pytest.mark.parametrize("kernel,lo", [("log|t-s|", -0.7), ("log|t-s|", 0.05),
                                       ("log|t^2-s^2|", -0.7), ("log|t^2-s^2|", 0.05)])
def test_log_kernel_lattice_matches_per_target_route(kernel, lo, case):
    # the cells' integrals by offset against order-20 graded panels, target
    # by target; a grid through 0, where -s and s both meet it, and a
    # positive one. The reference misses targets within 1e-10 of a cell of
    # a node they are not on (its sliver crosses the node), so the runs on
    # the nodes are the grid's own values, and the grid's ends (-0.7, 1)
    # put no -s near a node
    g = TGrid(np.linspace(lo, 1.0, 40))
    t = g.values
    rows = np.stack([np.exp(-3.0 * (t - 0.2) ** 2), np.sin(4.0 * t) + 0.5])
    targets = _lattice(g, case)
    table = log_kernel_table(rows, g, targets, kernel=kernel)
    ref = np.array([[log_kernel_reference(r, g, float(s), kernel)
                     for s in targets] for r in rows])
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("targets", [[0.1, 0.2, 0.35], "every other node", "one off by 1e-6"])
def test_log_kernel_targets_off_the_step_raise(targets):
    g = TGrid.linspace(0.0, 1.0, 64)
    step = (g.b - g.a) / (g.n - 1)
    if targets == "every other node":
        targets = g.values[::2]
    elif targets == "one off by 1e-6":
        targets = g.values[10:30].copy()
        targets[7] += 1e-6 * step
    with pytest.raises(ValueError, match=re.escape(f"the grid's step {step!r}")):
        log_kernel_table(np.ones(g.n), g, targets)


def log_kernel_closed_form(a, b, s, kernel, coef=(1.0,)):
    """Integral over [a, b] of the polynomial sum_p coef[p] t^p times the
    kernel, from the antiderivatives x^(i+1)/(i+1) (log|x| - 1/(i+1)) of
    x^i log|x| and t^p = sum_i binom(p, i) c^(p-i) (t - c)^i."""
    F = lambda u, i: u ** (i + 1) / (i + 1) * (np.log(abs(u)) - 1.0 / (i + 1)) if u != 0 else 0.0
    # log|t^2-s^2| = log|t-c| + log|t+c| at c = |s|
    points = [s] if kernel == "log|t-s|" else [abs(s), -abs(s)]
    return sum(cp * math.comb(p, i) * c ** (p - i) * (F(b - c, i) - F(a - c, i))
               for c in points for p, cp in enumerate(coef) for i in range(p + 1))


@pytest.mark.parametrize("kernel", ["log|t-s|", "log|t^2-s^2|"])
@pytest.mark.parametrize("a", [0.05, 1e-12])
def test_log_kernel_table_matches_closed_form(a, kernel):
    # a constant and a cubic profile: cubic interpolation is exact, so only
    # the cell rule is tested; targets inside, outside and at 0
    g = TGrid.linspace(a, 1.0, 128)
    targets = [0.4, 0.73, 0.02, 0.0]
    for coef in [(1.0,), (2.0, 1.0, -1.0, 0.5)]:
        profile = np.polynomial.polynomial.polyval(g.values, coef)
        table = log_kernel_each(profile, g, targets, kernel)[0]
        ref = np.array([log_kernel_closed_form(a, 1.0, s, kernel, coef) for s in targets])
        assert np.max(np.abs(table - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("a,s", [
    (-1.0, 0.0),    # grid through 0: the singular points |s| and -|s| coincide
    (-1.0, 0.4),    # grid through 0: exact moments around the negative point -|s|
    # grid through 0, 0 < |s| < 2e-10: |s| and -|s| share their near cells
    (-1.0, 1e-11),
    (-1.0, 5e-11),
    (-1.0, 1e-10),
    (-1.0, 1.9e-10),
    (1e-12, 5e-9),  # positive grid, -|s| just below its first node
])
def test_log_kernel_sliver_moment_near_zero(a, s):
    g = TGrid.linspace(a, 1.0, 128)
    table = log_kernel_table(np.ones(g.n), g, [s], kernel="log|t^2-s^2|")[0, 0]
    ref = log_kernel_closed_form(a, 1.0, s, "log|t^2-s^2|")
    assert abs(table - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("kernel", ["log|t-s|", "log|t^2-s^2|"])
@pytest.mark.parametrize("offset", [0.3, 0.9, -0.5])
def test_log_kernel_sliver_cut_at_interval_end(kernel, offset):
    # a target within 9.5e-11 of an end of (0.05, 1): the exact moment of
    # the end cell keeps its tiny offset from the grid's end node
    g = TGrid.linspace(0.05, 1.0, 128)
    eps = 1e-10 * (g.b - g.a)
    s = (g.a if offset > 0 else g.b) + offset * eps
    table = log_kernel_table(np.ones(g.n), g, [s], kernel=kernel)[0, 0]
    ref = log_kernel_closed_form(g.a, g.b, s, kernel)
    assert abs(table - ref) <= 1e-14 * abs(ref)


KERNELS = st.sampled_from([("log|t-s|", -1.0), ("log|t^2-s^2|", 1e-6)])


@settings(max_examples=20, deadline=None)
@given(KERNELS, st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
@example(("log|t-s|", -1.0), [0.0], 0.0, 2.2250738585e-313, 0)
def test_log_kernel_table_is_linear(kernel, targets, alpha, beta, seed):
    # the bound is relative, with a floor of one subnormal ulp per grid node:
    # a subnormal coefficient's table is exact only to a few such ulps
    # (1.5e-323 on the example), where 1e-12 of its scale underflows to 0
    kernel, lo = kernel
    g = TGrid.linspace(lo, 1.0, 64)
    p, q = np.random.default_rng(seed).standard_normal((2, 3, g.n))
    table = lambda rows: log_kernel_each(rows, g, targets, kernel)
    tp, tq = alpha * table(p), beta * table(q)
    scale = max(np.max(np.abs(tp)), np.max(np.abs(tq)))
    bound = 1e-12 * scale + g.n * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(table(alpha * p + beta * q) - (tp + tq))) <= bound


@settings(max_examples=20, deadline=None)
@given(KERNELS, st.floats(-1.5, 1.5), st.integers(1, 100), st.integers(1, 100))
def test_log_kernel_table_splits_over_runs(kernel, anchor, first, second):
    # a lattice of targets split into two consecutive runs: the second run's
    # anchor and the blocks of the build do not show in the table beyond
    # the rounding of the cells' offsets
    kernel, lo = kernel
    g = TGrid.linspace(lo, 1.0, 64)
    targets = anchor + np.arange(first + second) * ((g.b - g.a) / (g.n - 1))
    rows = np.stack([np.exp(-3.0 * (g.values - 0.2) ** 2), np.sin(4.0 * g.values)])
    joint = log_kernel_table(rows, g, targets, kernel=kernel)
    apart = np.concatenate([log_kernel_table(rows, g, targets[:first], kernel=kernel),
                            log_kernel_table(rows, g, targets[first:], kernel=kernel)], axis=1)
    assert np.max(np.abs(joint - apart)) <= 1e-14 * np.max(np.abs(joint))


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
    out = cubic_interp(vals, g, x)
    assert np.max(np.abs(out - (x ** 3 - 2.0 * x))) < 1e-13


def test_cubic_interp_fill_modes():
    g = TGrid(np.linspace(0.0, 1.0, 101))
    vals = np.ones(101)
    assert cubic_interp(vals, g, [1.5])[0] == 0.0
    with pytest.raises(ValueError):
        cubic_interp(vals, g, [1.5], fill="error")


def test_quintic_interp_degree5_exact():
    g = TGrid(np.linspace(0.0, 1.0, 101))
    vals = g.values ** 5 - g.values ** 2
    x = np.linspace(0.05, 0.95, 37)
    out = quintic_interp(vals, g, x)
    assert np.max(np.abs(out - (x ** 5 - x ** 2))) < 1e-12
