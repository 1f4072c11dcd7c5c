"""The lemma evaluators of `geomeans.checks` on what no criterion checks:
closed forms of the regularized 2F1, evenness in h, flatness in alpha, the
log circle's convergence in `order`, the graded panels that the evaluators
integrate on, and the shape of the registry. Criteria 1-5 themselves run
once each, from `CHECKS`, in `tests/test_acceptance.py`."""

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from geomeans.checks import (
    CHECKS,
    SUITES,
    chebyshev_pv,
    chebyshev_u,
    g_alpha_continued,
    g_alpha_direct,
    graded_panels,
    hyp2f1_regularized,
    log_circle_integral,
    power_integral_log_form,
    regularized_power_integral,
)


def _hyp2f1(a, b, c, z):
    """2F1(a, b; c; z) from the regularized series, away from the poles in c."""
    return hyp2f1_regularized(a, b, c, z) * gamma(c)


def test_2f1_at_zero():
    assert _hyp2f1(0.3, 1.7, 2.1, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_2f1_log_closed_form():
    # F(1,1;2;z) = -log(1-z)/z
    for z in (0.5, -0.7, 0.9):
        got = _hyp2f1(1.0, 1.0, 2.0, z)
        assert got == pytest.approx(-np.log(1.0 - z) / z, rel=1e-14)
        assert got == pytest.approx(float(mpmath.hyp2f1(1, 1, 2, z)), rel=1e-14)


def test_2f1_terminating():
    assert _hyp2f1(2.0, 0.0, 1.3, 0.7) == pytest.approx(1.0, rel=1e-15)
    # a = -2 ends the series after three terms
    for c, z in ((1.3, 0.5), (-4.5, 0.8)):
        assert _hyp2f1(-2.0, 1.0, c, z) == pytest.approx(
            float(mpmath.hyp2f1(-2, 1, c, z)), rel=1e-14)
    # at c = -5 the three nonzero terms (k <= 2) all sit where 1/Gamma(c + k)
    # vanishes (k <= 5)
    assert hyp2f1_regularized(-2.0, 1.0, -5.0, 0.5) == 0.0


def test_2f1_regularized_nonpositive_c():
    # F(a,b;-j;z)/Gamma(-j) = (a)_{j+1} (b)_{j+1} / (j+1)! z^{j+1} F(a+j+1,b+j+1;j+2;z)
    a, b, z = 0.4, 1.3, 0.35
    for j in (0, 2):
        expect = float(mpmath.rf(a, j + 1) * mpmath.rf(b, j + 1) / mpmath.factorial(j + 1)
                       * mpmath.mpf(z) ** (j + 1)
                       * mpmath.hyp2f1(a + j + 1, b + j + 1, j + 2, z))
        assert hyp2f1_regularized(a, b, -float(j), z) == pytest.approx(expect, rel=1e-13)
    # and away from the poles it is the plain function over Gamma(c)
    assert _hyp2f1(a, b, 1.7, z) == pytest.approx(float(mpmath.hyp2f1(a, b, 1.7, z)), rel=1e-14)


def test_g_direct_constant_kernel():
    # alpha = 1 makes the kernel constant, so the value is the beta moment
    assert abs(g_alpha_direct(3, 1.0, 0.3) - 2.0 / np.sqrt(np.pi)) < 1e-12


def test_g_direct_requires_positive_alpha():
    with pytest.raises(ValueError):
        g_alpha_direct(3, -0.5, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_continuation_limit(n):
    expect = gamma((n - 1) / 2.0)
    vals = [g_alpha_continued(n, 3 - n, h) for h in (-0.8, 0.0, 0.8)]
    for v in vals:
        assert abs(v - expect) / expect < 1e-6
    assert max(vals) - min(vals) < 1e-6


def test_continued_even_in_h():
    for alpha in (-0.7, 0.4, -2.3):
        a = g_alpha_continued(4, alpha, 0.55)
        b = g_alpha_continued(4, alpha, -0.55)
        assert abs(a - b) < 1e-10


def test_gaussian_power_integral_flat_in_alpha():
    alphas = [a for a in np.linspace(-5.0, 2.0, 20)]
    for a in alphas:
        v = regularized_power_integral(float(a))
        assert abs(v - 1.0) < 1e-6


def test_gaussian_power_integral_at_continuation_points():
    for a in (-4.0, -3.0, -2.0, -1.0):
        assert abs(regularized_power_integral(a) - 1.0) < 1e-6


def test_gaussian_exact_derivative_coefficient():
    # at a = -2m the value is (-1)^m m!/(2m)! phi^(2m)(0); for the Gaussian
    # with m = 1 this is (-1/2) * (-2) = 1
    assert regularized_power_integral(-2.0) == pytest.approx(1.0, abs=1e-14)


def test_log_form_matches():
    for m in (1, 2):  # continuation points alpha = -1, -3
        assert abs(power_integral_log_form(m) - 1.0) < 1e-6
        a = 1.0 - 2.0 * m
        assert abs(power_integral_log_form(m)
                   - regularized_power_integral(a)) < 1e-6


def test_log_circle_value_and_h_independence():
    expect = -2.0 * np.pi * np.log(2.0)
    for h in (-0.9, 0.0, 0.5, 0.9):
        assert abs(log_circle_integral(h) - expect) < 1e-8


def test_log_circle_convergence():
    a = log_circle_integral(0.4, order=12)
    b = log_circle_integral(0.4, order=24)
    assert abs(a - b) < 1e-10


def test_chebyshev_pv_low_degrees():
    for h in (-0.5, 0.0, 0.4):
        assert abs(chebyshev_pv(1, h) - np.pi) < 1e-7
    assert abs(chebyshev_pv(2, 0.0)) < 1e-7  # pi U_1(0) = 0


def _union_length(intervals):
    """Total length of a union of intervals (lo, hi)."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        total += max(0.0, hi - max(lo, reach))
        reach = max(reach, hi)
    return total


def test_graded_panels_cover_interval():
    # on [0, 1], eps = 1e-10: 0.5 - eps 2^30 meets the uniform split 0.5
    # exactly, and two ulps above it lands within 1e-15 of 0.5 and is merged;
    # points outside the interval, the log|t^2-s^2| pairs (|s|, -|s|) with
    # s = 0, two points on another interval and none at all
    exact = 0.5 - 1e-10 * 2.0 ** 30
    cases = [(0.0, 1.0, [s]) for s in (0.0, 1.0, -0.5, 2.5, exact,
                                       np.nextafter(np.nextafter(exact, 1.0), 1.0), 0.4, -1.0, 2.0)]
    cases += [(-1.0, 1.0, [abs(s), -abs(s)]) for s in (0.0, 0.3, -0.7, 1.0, -1.0, 1.5, 3.2)]
    cases += [(0.2, 1.7, [0.9, 0.5]), (0.2, 1.7, [1.69, 5.0]), (0.2, 1.7, [-9.0, 9.0]),
              (0.0, 2.0, [])]
    for a, b, singular in cases:
        nodes, weights, slivers = graded_panels(a, b, singular, order=8)
        eps = 1e-10 * (b - a)
        assert [c for c, _ in slivers] == [s for s in singular if a < s < b]
        assert all(half == eps for _, half in slivers)
        assert np.all((nodes > a) & (nodes < b)) and np.all(weights > 0.0)
        assert all(np.all(np.abs(nodes - c) > eps) for c, _ in slivers)
        # the weights cover the interval but the union of the slivers
        cut = _union_length([(max(c - eps, a), min(c + eps, b)) for c, _ in slivers])
        assert abs(weights.sum() + cut - (b - a)) <= 1e-15 * (b - a), (a, b, singular)


def test_registry_labels_and_suites():
    # verify's lines are read by label, so no two figures share one; SUITES
    # lists each entry's suite once, in the order the criteria first use it
    labels = [label for c in CHECKS for label, _, _ in c.bounds]
    assert len(set(labels)) == len(labels)
    first = {}
    for c in CHECKS:
        first[c.suite] = min(first.get(c.suite, c.number), c.number)
    assert list(SUITES) == sorted(first, key=first.get)
