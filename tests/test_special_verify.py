import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from geomeans.checks import (
    chebyshev_pv,
    chebyshev_u,
    g_alpha_continued,
    g_alpha_direct,
    gaussian_profile,
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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("h", [-0.6, 0.0, 0.7])
def test_direct_matches_continued(n, alpha, h):
    assert abs(g_alpha_direct(n, alpha, h) - g_alpha_continued(n, alpha, h)) < 1e-8


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
    gp = gaussian_profile()
    alphas = [a for a in np.linspace(-5.0, 2.0, 20)]
    for a in alphas:
        v = regularized_power_integral(gp, float(a))
        assert abs(v - 1.0) < 1e-6


def test_gaussian_power_integral_at_continuation_points():
    gp = gaussian_profile()
    for a in (-4.0, -3.0, -2.0, -1.0):
        assert abs(regularized_power_integral(gp, a) - 1.0) < 1e-6


def test_gaussian_exact_derivative_coefficient():
    # at a = -2m the value is (-1)^m m!/(2m)! phi^(2m)(0); for the Gaussian
    # with m = 1 this is (-1/2) * (-2) = 1
    gp = gaussian_profile()
    assert regularized_power_integral(gp, -2.0) == pytest.approx(1.0, abs=1e-14)


def test_log_form_matches():
    gp = gaussian_profile()
    for m in (1, 2):  # continuation points alpha = -1, -3
        assert abs(power_integral_log_form(gp, m) - 1.0) < 1e-6
        a = 1.0 - 2.0 * m
        assert abs(power_integral_log_form(gp, m)
                   - regularized_power_integral(gp, a)) < 1e-6


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


@pytest.mark.parametrize("nn", range(1, 7))
@pytest.mark.parametrize("h", [-0.7, 0.0, 0.3, 0.8])
def test_chebyshev_pv_recurrence_oracle(nn, h):
    assert abs(chebyshev_pv(nn, h) - np.pi * chebyshev_u(nn - 1, h)) < 1e-6
