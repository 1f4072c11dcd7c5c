"""Analytic-continuation building blocks and their numerical evaluators.

The power-kernel moment family

    g_alpha(h) = (1/Gamma(a/2)) int_{-1}^1 |t-h|^{a-1} (1-t^2)^{(n-3)/2} dt

is computed two independent ways (direct singular quadrature for Re a > 0,
and a hypergeometric closed form entire in a), together with the
subtraction-regularized power integrals, the log moment of the circle, and
Chebyshev principal-value integrals. These are the identities the
reconstruction formulas rest on, so each gets an evaluator precise enough
to check against its exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gamma
from typing import Callable

import numpy as np

from .numerics import gauss_legendre, graded_panels

__all__ = [
    "gauss_2f1",
    "hyp2f1_regularized",
    "g_alpha_direct",
    "g_alpha_continued",
    "TaylorProfile",
    "gaussian_profile",
    "regularized_power_integral",
    "power_integral_log_form",
    "log_circle_integral",
    "chebyshev_pv",
    "chebyshev_u",
]


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------

def gauss_2f1(a: float, b: float, c: float, z: float, tol: float = 1e-15,
              max_terms: int = 100_000) -> float:
    """2F1(a, b; c; z) by power series with term-ratio recurrence, |z| < 1.

    Terminates early when a or b is a nonpositive integer; raises if the
    series runs into a pole of 1/(c + k).
    """
    if abs(z) >= 1.0:
        raise ValueError("series evaluation needs |z| < 1")
    total = 0.0
    term = 1.0
    small = 0
    for k in range(max_terms):
        total += term
        num = (a + k) * (b + k)
        if num == 0.0:
            return total
        den = (k + 1.0) * (c + k)
        if den == 0.0:
            raise ValueError(f"2F1 pole: c = {c} is a nonpositive integer reached at k = {k}")
        term *= num * z / den
        if abs(term) < tol * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total + term
        else:
            small = 0
    raise ValueError("2F1 series did not converge")


def hyp2f1_regularized(a: float, b: float, c: float, z: float, tol: float = 1e-16,
                       max_terms: int = 100_000) -> float:
    """2F1(a, b; c; z) / Gamma(c), entire in c (nonpositive integers allowed)."""
    if abs(z) >= 1.0:
        raise ValueError("series evaluation needs |z| < 1")
    k0 = 0
    if c <= 0.5 and abs(c - round(c)) < 1e-13:
        # leading 1/Gamma(c + k) factors vanish through k = -c
        j = int(-round(c))
        k0 = j + 1
        coeff = 1.0
        for i in range(k0):
            coeff *= (a + i) * (b + i) / (i + 1.0)
            if coeff == 0.0:
                return 0.0
        # the first surviving term's 1/Gamma(c + k0), taken at round(c) + k0 = 1
        term = coeff * z ** k0
    else:
        term = 1.0 / gamma(c)
    total = 0.0
    small = 0
    for k in range(k0, max_terms + k0):
        total += term
        num = (a + k) * (b + k)
        if num == 0.0:
            return total
        term *= num * z / ((k + 1.0) * (c + k))
        if abs(term) < tol * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total + term
        else:
            small = 0
    raise ValueError("regularized 2F1 series did not converge")


# ---------------------------------------------------------------------------
# the g_alpha family
# ---------------------------------------------------------------------------

def g_alpha_direct(n: int, alpha: float, h: float, order: int = 16) -> float:
    """Direct quadrature of the power-kernel moment, Re alpha > 0, |h| < 1.

    Substituting t = cos(psi) removes the endpoint weight; the remaining
    |cos(psi) - h|^(alpha-1) factor is handled by graded panels with an
    analytic moment for the excluded sliver.
    """
    if alpha <= 0:
        raise ValueError("direct evaluation needs alpha > 0")
    if not -1.0 < h < 1.0:
        raise ValueError("need |h| < 1")
    if n <= 2:
        raise ValueError("the weight exponent needs n > 2")
    psi_h = float(np.arccos(h))
    nodes, weights, slivers = graded_panels(0.0, np.pi, [psi_h], order=order)
    vals = np.abs(np.cos(nodes) - h) ** (alpha - 1.0) * np.sin(nodes) ** (n - 2)
    total = float(np.dot(weights, vals))
    for c, eps in slivers:
        sc = np.sin(c)
        total += sc ** (n - 2) * sc ** (alpha - 1.0) * 2.0 * eps ** alpha / alpha
    return total / gamma(alpha / 2.0)


def _g_hyper(n: int, alpha: float, h: float) -> float:
    """Closed-form moment via the convolution split into two Euler integrals.

    G(xi) = 2^(a+n-3) Gamma((n-1)/2) * (Gamma(a)/Gamma(a/2)) *
            [xi^(a+(n-3)/2) Freg(xi) + (1-xi)^(a+(n-3)/2) Freg(1-xi)],
    xi = (1+h)/2, Freg = regularized 2F1((n-1)/2, (3-n)/2; (n-1)/2 + a; .).
    Valid away from the nonpositive-integer poles of Gamma(a)/Gamma(a/2).
    """
    xi = 0.5 * (1.0 + h)
    a2 = 0.5 * (n - 1.0)
    b2 = 0.5 * (3.0 - n)
    c2 = a2 + alpha
    p = alpha + 0.5 * (n - 3.0)
    ratio = gamma(alpha) / gamma(alpha / 2.0)
    both = xi ** p * hyp2f1_regularized(a2, b2, c2, xi) \
        + (1.0 - xi) ** p * hyp2f1_regularized(a2, b2, c2, 1.0 - xi)
    return 2.0 ** (alpha + n - 3.0) * gamma(a2) * ratio * both


def g_alpha_continued(n: int, alpha: float, h: float) -> float:
    """Analytic continuation of g_alpha(h) to arbitrary real order.

    Away from nonpositive integer alpha the closed form applies directly.
    At (or within 1e-4 of) a nonpositive integer the Gamma(a)/Gamma(a/2)
    factor degenerates, so the value is recovered from symmetric offsets
    alpha0 +- eps, eps in {1e-3, 5e-4}, with Richardson extrapolation.
    """
    if not -1.0 < h < 1.0:
        raise ValueError("need |h| < 1")
    if n <= 2:
        raise ValueError("the weight exponent needs n > 2")
    a0 = round(alpha)
    if a0 <= 0 and abs(alpha - a0) < 1e-4:
        def sym(eps: float) -> float:
            return 0.5 * (_g_hyper(n, a0 + eps, h) + _g_hyper(n, a0 - eps, h))
        s1, s2 = sym(1e-3), sym(5e-4)
        return (4.0 * s2 - s1) / 3.0
    return _g_hyper(n, alpha, h)


# ---------------------------------------------------------------------------
# subtraction-regularized power integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorProfile:
    """Smooth rapidly decaying test function with Taylor data at 0.

    `derivs[k]` is the k-th derivative at 0; `deriv_fn(k)` returns the k-th
    derivative as a vectorized callable when available; `tail` bounds the
    numerically relevant support.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivs: tuple[float, ...]
    tail: float = 40.0
    deriv_fn: Callable[[int], Callable[[np.ndarray], np.ndarray]] | None = None

    def taylor(self, degree: int) -> np.polynomial.Polynomial:
        if degree >= len(self.derivs):
            raise ValueError("not enough Taylor data for the requested subtraction order")
        coeffs = [self.derivs[j] / factorial(j) for j in range(degree + 1)]
        return np.polynomial.Polynomial(coeffs)


def gaussian_profile(tail: float = 9.0) -> TaylorProfile:
    """exp(-t^2) with closed-form derivatives (Hermite recursion)."""
    derivs = []
    for k in range(64):
        if k % 2:
            derivs.append(0.0)
        else:
            m = k // 2
            derivs.append((-1.0) ** m * factorial(k) / factorial(m))

    def deriv_fn(k: int) -> Callable[[np.ndarray], np.ndarray]:
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0

        def d(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            return (-1.0) ** k * np.polynomial.hermite.hermval(t, coeffs) * np.exp(-t * t)

        return d

    return TaylorProfile(fn=lambda t: np.exp(-np.asarray(t, dtype=float) ** 2),
                         derivs=tuple(derivs), tail=tail, deriv_fn=deriv_fn)


def regularized_power_integral(profile: TaylorProfile, alpha: float,
                               subtract_order: int | None = None,
                               order: int = 24) -> float:
    """Analytic continuation of int_R |t|^(a-1) phi(t) dt / Gamma(a/2).

    On |t| <= 1 the degree 2m+1 Taylor polynomial is subtracted and returned
    through its closed-form moments sum_k 2 phi^(2k)(0) / ((2k)! (a + 2k));
    the pole of the k-th term at a = -2k cancels against the zero of
    1/Gamma(a/2), so at those points the limit value
    (-1)^k k!/(2k)! phi^(2k)(0) is returned exactly.
    """
    m = subtract_order if subtract_order is not None else int(np.ceil((1.0 - alpha) / 2.0))
    if m < 0:
        m = 0
    if alpha <= -2.0 * m - 2.0:
        raise ValueError("alpha too negative for the chosen subtraction order")
    half = round(alpha / 2.0)
    if half <= 0 and abs(alpha - 2.0 * half) < 1e-9:
        k = int(-half)
        if k > m:
            raise ValueError("subtraction order too small for this continuation point")
        return (-1.0) ** k * factorial(k) / factorial(2 * k) * profile.derivs[2 * k]
    poly = profile.taylor(2 * m + 1)
    # below t_cut the subtracted remainder cancels catastrophically against
    # the t^(alpha-1) blowup, so that stretch is covered by the next Taylor
    # moments instead of quadrature
    extra = 3
    if 2 * (m + extra) >= len(profile.derivs):
        raise ValueError("not enough Taylor data for the cutoff moments")
    t_cut = 0.05
    nodes, weights, _ = graded_panels(t_cut, 1.0, [t_cut], order=order)
    # even part: phi(t) + phi(-t) - 2 * even Taylor part
    even_poly = np.polynomial.Polynomial(poly.coef[::2])
    rem = profile.fn(nodes) + profile.fn(-nodes) - 2.0 * even_poly(nodes ** 2)
    inner = float(np.dot(weights, nodes ** (alpha - 1.0) * rem))
    inner += sum(2.0 * profile.derivs[2 * k] / factorial(2 * k)
                 * t_cut ** (alpha + 2.0 * k) / (alpha + 2.0 * k)
                 for k in range(m + 1, m + extra + 1))
    moments = sum(2.0 * profile.derivs[2 * k] / (factorial(2 * k) * (alpha + 2.0 * k))
                  for k in range(m + 1))
    tail_nodes, tail_w = _tail_rule(profile.tail, order)
    outer = float(np.dot(tail_w, tail_nodes ** (alpha - 1.0)
                         * (profile.fn(tail_nodes) + profile.fn(-tail_nodes))))
    return (inner + moments + outer) / gamma(alpha / 2.0)


def _tail_rule(tail: float, order: int):
    edges = np.geomspace(1.0, tail, 12)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(order, lo, hi)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def power_integral_log_form(profile: TaylorProfile, m: int, order: int = 24) -> float:
    """The log-moment form of the continuation at a = 1 - 2m:

    -c * int phi^(2m)(t) log|t| dt,  c = 1/(Gamma(1/2 - m) (2m-1)!).
    """
    if m < 1:
        raise ValueError("the log form needs m >= 1")
    if profile.deriv_fn is None:
        raise ValueError("profile does not expose derivative callables")
    d = profile.deriv_fn(2 * m)
    nodes, weights, slivers = graded_panels(0.0, profile.tail, [0.0], order=order)
    total = float(np.dot(weights, np.log(nodes) * (d(nodes) + d(-nodes))))
    for c0, eps in slivers:
        total += 2.0 * d(np.array([c0]))[0] * eps * (np.log(eps) - 1.0)
    coeff = 1.0 / (gamma(0.5 - m) * factorial(2 * m - 1))
    return -coeff * total


# ---------------------------------------------------------------------------
# circle log moment and Chebyshev principal values
# ---------------------------------------------------------------------------

def log_circle_integral(h: float, order: int = 16) -> float:
    """2 int_{-1}^1 log|t-h| / sqrt(1-t^2) dt, equal to -2 pi log 2 for |h| < 1."""
    if not -1.0 < h < 1.0:
        raise ValueError("need |h| < 1")
    psi_h = float(np.arccos(h))
    nodes, weights, slivers = graded_panels(0.0, np.pi, [psi_h], order=order)
    total = float(np.dot(weights, np.log(np.abs(np.cos(nodes) - h))))
    for c, eps in slivers:
        # log|cos psi - h| ~ log|psi - c| + log(sin c) near the zero crossing
        total += 2.0 * eps * (np.log(eps) - 1.0) + 2.0 * eps * np.log(np.sin(c))
    return 2.0 * total


def chebyshev_u(k: int, x: float) -> float:
    """Second-kind Chebyshev polynomial by recurrence."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_pv(nn: int, h: float, eps: float = 1e-3, order: int = 16) -> float:
    """p.v. int_{-1}^1 T_nn(t) / ((t-h) sqrt(1-t^2)) dt by symmetric excision.

    The excised integral is evaluated in the psi = arccos t variable with
    panels graded toward the excision edges; two excision widths are
    combined by Richardson extrapolation (the leading error is linear in
    the width).
    """
    if nn < 1:
        raise ValueError("degree must be >= 1")
    if not -1.0 + eps < h < 1.0 - eps:
        raise ValueError("excision must stay inside (-1, 1)")

    def excised(e: float) -> float:
        psi_h = float(np.arccos(h))
        total = 0.0
        for lo, hi in ((0.0, float(np.arccos(h + e))), (float(np.arccos(h - e)), np.pi)):
            nodes, weights, _ = graded_panels(lo, hi, [psi_h], order=order)
            total += float(np.dot(weights, np.cos(nn * nodes) / (np.cos(nodes) - h)))
        return total

    return 2.0 * excised(eps / 2.0) - excised(eps)
