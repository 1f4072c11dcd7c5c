"""The 15 acceptance criteria, stated once, beside the evaluators they check.

Criteria 1-9 and 14 are the analytic identities the inversion formulas
rest on. The power-kernel moment family

    g_alpha(h) = (1/Gamma(a/2)) int_{-1}^1 |t-h|^{a-1} (1-t^2)^{(n-3)/2} dt

is computed two independent ways (direct singular quadrature for Re a > 0,
and a hypergeometric closed form entire in a), together with the
subtraction-regularized power integrals, the log moment of the circle,
Chebyshev principal-value integrals, and the Riesz and logarithmic
potentials whose Laplacians return the phantom. Each evaluator is precise
enough to check against its exact value; the singular ones integrate on
graded Gauss-Legendre panels (`graded_panels`).

Criteria 10-13 and 15 are round trips in R^n, on the cap and on the
hyperboloid. Each reads the shipped configs in `configs/` as the CLI reads
them and states its changes to them.

Each entry of `CHECKS` computes its figures on fixed grids, points, orders
and seeds, and compares each figure with its own bound by its own
comparator. `geomeans verify` prints the entries of a suite; the
acceptance suite runs each entry as one test and also holds it to the
entry's time limit.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import factorial, gamma
from pathlib import Path
from typing import Callable

import numpy as np

from . import spaces
from .forward import default_tgrid, forward_means
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix
from .inversion import ReconstructionReport, _read_range, _table_grid, backproject
from .numerics import (
    TGrid,
    darboux_L_matrix,
    gauss_legendre,
    laplacian_fd,
    log_kernel_table,
)
from .phantoms import Bump, Phantom, bump_profile, laplacian_field
from .spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid

__all__ = [
    "SEED",
    "SUITES",
    "Figure",
    "Check",
    "CHECKS",
    "graded_panels",
    "hyp2f1_regularized",
    "g_alpha_direct",
    "g_alpha_continued",
    "regularized_power_integral",
    "power_integral_log_form",
    "log_circle_integral",
    "chebyshev_pv",
    "chebyshev_u",
    "riesz_potential",
    "log_potential",
    "phantom_integral",
]

# seed of the sampled pairs of criterion 14
SEED = 20240817

# the shipped configs the round-trip criteria read
CONFIGS = Path(__file__).resolve().parents[2] / "configs"

_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Figure:
    """One measured figure and the bound it is held to."""

    label: str
    value: float
    op: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_COMPARATORS[self.op](self.value, self.bound))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[acceptance] {self.label:<44s} {self.value:.3e} {self.op} {self.bound:.1e}  {status}"


@dataclass(frozen=True)
class Check:
    """One acceptance criterion.

    `compute()` returns one value per entry of `bounds`, a (label,
    comparator, bound) triple.
    """

    number: int
    name: str
    suite: str
    bounds: tuple[tuple[str, str, float], ...]
    compute: Callable[[], tuple[float, ...]]
    time_limit: float

    def figures(self) -> list[Figure]:
        return [Figure(label, float(v), op, bound)
                for (label, op, bound), v in zip(self.bounds, self.compute(), strict=True)]


def _held(op: str, bound: float, *labels: str) -> tuple[tuple[str, str, float], ...]:
    """Figures all held to one bound by one comparator."""
    return tuple((label, op, bound) for label in labels)


# ---------------------------------------------------------------------------
# graded-panel quadrature for integrable singular kernels
# ---------------------------------------------------------------------------

def graded_panels(a: float, b: float, singular: tuple[float, ...] | list[float], order: int):
    """Gauss-Legendre panels on [a, b], graded by breakpoints s +/- eps 2^k
    (eps = 1e-10 of the interval) toward each singular point s within one
    interval length of it, and split in ten; breakpoints within 1e-15 of the
    interval merge. Interior singular points are excluded by slivers of
    half-width eps, which the caller accounts for analytically. Returns
    (nodes, weights, slivers) with slivers a list of (point, half_width).
    """
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    span = b - a
    eps = 1e-10 * span
    bps = {a, b} | {a + span * j / 10 for j in range(1, 10)}
    slivers = []
    for s in singular:
        if s <= a - span or s >= b + span:
            continue
        d = eps
        while d <= span:
            bps.update(t for t in (s - d, s + d) if a < t < b)
            d *= 2.0
        if a < s < b:
            slivers.append((float(s), eps))
    pts = np.array(sorted(bps))
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-15 * span])]
    mid, half = 0.5 * (pts[:-1] + pts[1:]), 0.5 * (pts[1:] - pts[:-1])
    keep = [not any(abs(m - s) < e for s, e in slivers) for m in mid]
    x, w = gauss_legendre(order, -1.0, 1.0)
    return (mid[keep, None] + half[keep, None] * x).ravel(), (half[keep, None] * w).ravel(), slivers


# ---------------------------------------------------------------------------
# the g_alpha family
# ---------------------------------------------------------------------------

def hyp2f1_regularized(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) / Gamma(c) by power series, |z| < 1, entire in c
    (nonpositive integers allowed)."""
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
    for k in range(k0, 100_000 + k0):
        total += term
        num = (a + k) * (b + k)
        if num == 0.0:
            return total
        term *= num * z / ((k + 1.0) * (c + k))
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total + term
        else:
            small = 0
    raise ValueError("regularized 2F1 series did not converge")


def g_alpha_direct(n: int, alpha: float, h: float) -> float:
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
    nodes, weights, slivers = graded_panels(0.0, np.pi, [psi_h], order=16)
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

# exp(-t^2) is below 1e-35 beyond this: the end of the numerically relevant support
_GAUSSIAN_TAIL = 9.0


def _gaussian_even_derivative(k: int) -> float:
    """The derivative of order 2k of exp(-t^2) at 0: (-1)^k (2k)!/k!."""
    return (-1.0) ** k * factorial(2 * k) / factorial(k)


def regularized_power_integral(alpha: float) -> float:
    """Analytic continuation of int_R |t|^(a-1) phi(t) dt / Gamma(a/2) for
    the Gaussian phi(t) = exp(-t^2), whose value is 1 for every a.

    On |t| <= 1 the degree 2m+1 Taylor polynomial, m = max(0, ceil((1-a)/2)),
    is subtracted and returned through its closed-form moments
    sum_k 2 phi^(2k)(0) / ((2k)! (a + 2k)); the pole of the k-th term at
    a = -2k cancels against the zero of 1/Gamma(a/2), so at those points the
    limit value (-1)^k k!/(2k)! phi^(2k)(0) is returned exactly.
    """
    m = max(0, int(np.ceil((1.0 - alpha) / 2.0)))
    half = round(alpha / 2.0)
    if half <= 0 and abs(alpha - 2.0 * half) < 1e-9:
        k = int(-half)
        return (-1.0) ** k * factorial(k) / factorial(2 * k) * _gaussian_even_derivative(k)
    # below t_cut the subtracted remainder cancels catastrophically against
    # the t^(alpha-1) blowup, so that stretch is covered by the next Taylor
    # moments instead of quadrature
    extra = 3
    t_cut = 0.05
    nodes, weights, _ = graded_panels(t_cut, 1.0, [t_cut], order=24)
    # even part: phi(t) + phi(-t) - 2 * even Taylor part
    even_poly = np.polynomial.Polynomial([_gaussian_even_derivative(j) / factorial(2 * j)
                                          for j in range(m + 1)])
    rem = 2.0 * np.exp(-nodes ** 2) - 2.0 * even_poly(nodes ** 2)
    inner = float(np.dot(weights, nodes ** (alpha - 1.0) * rem))
    inner += sum(2.0 * _gaussian_even_derivative(k) / factorial(2 * k)
                 * t_cut ** (alpha + 2.0 * k) / (alpha + 2.0 * k)
                 for k in range(m + 1, m + extra + 1))
    moments = sum(2.0 * _gaussian_even_derivative(k) / (factorial(2 * k) * (alpha + 2.0 * k))
                  for k in range(m + 1))
    edges = np.geomspace(1.0, _GAUSSIAN_TAIL, 12)
    rules = [gauss_legendre(24, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    tail_nodes = np.concatenate([x for x, _ in rules])
    tail_w = np.concatenate([w for _, w in rules])
    outer = float(np.dot(tail_w, tail_nodes ** (alpha - 1.0) * 2.0 * np.exp(-tail_nodes ** 2)))
    return (inner + moments + outer) / gamma(alpha / 2.0)


def power_integral_log_form(m: int) -> float:
    """The log-moment form of the continuation at a = 1 - 2m for the
    Gaussian phi(t) = exp(-t^2):

    -c * int phi^(2m)(t) log|t| dt,  c = 1/(Gamma(1/2 - m) (2m-1)!),

    with phi^(2m)(t) = H_2m(t) exp(-t^2) (physicists' Hermite H_2m).
    """
    if m < 1:
        raise ValueError("the log form needs m >= 1")
    # the singular point 0 ends the interval, so the panels leave no sliver
    nodes, weights, _ = graded_panels(0.0, _GAUSSIAN_TAIL, [0.0], order=24)
    d = np.polynomial.hermite.hermval(nodes, np.eye(2 * m + 1)[2 * m]) * np.exp(-nodes * nodes)
    total = float(np.dot(weights, np.log(nodes) * (2.0 * d)))
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


def chebyshev_pv(nn: int, h: float) -> float:
    """p.v. int_{-1}^1 T_nn(t) / ((t-h) sqrt(1-t^2)) dt by symmetric excision.

    The excised integral is evaluated in the psi = arccos t variable with
    16-node panels graded toward the excision edges; the excision widths
    1e-3 and 5e-4 are combined by Richardson extrapolation (the leading
    error is linear in the width).
    """
    if nn < 1:
        raise ValueError("degree must be >= 1")
    if not -1.0 + 1e-3 < h < 1.0 - 1e-3:
        raise ValueError("excision must stay inside (-1, 1)")

    def excised(e: float) -> float:
        psi_h = float(np.arccos(h))
        total = 0.0
        for lo, hi in ((0.0, float(np.arccos(h + e))), (float(np.arccos(h - e)), np.pi)):
            nodes, weights, _ = graded_panels(lo, hi, [psi_h], order=16)
            total += float(np.dot(weights, np.cos(nn * nodes) / (np.cos(nodes) - h)))
        return total

    return 2.0 * excised(5e-4) - excised(1e-3)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def _polar_integral(phantom: Phantom, xp: np.ndarray, kernel, edges: np.ndarray,
                    ang_order: int) -> float:
    """int kernel(rho) M(rho) drho over the panels between `edges`, 24 Gauss
    nodes each, where M(rho) is the angular mean of the phantom on the chart
    sphere of radius rho around the chart point xp, with the area weight
    1/sqrt(1 - kappa |y'|^2) of the lift folded in."""
    space = phantom.space
    omega, w_ang = spaces.unit_sphere_rule(space.n - 1, ang_order)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        rho, w = gauss_legendre(24, lo, hi)
        yp = xp[None, None, :] + rho[:, None, None] * omega[None, :, :]
        y2 = (yp ** 2).sum(-1)
        ok = space.curvature * y2 < 1.0
        vals = np.zeros_like(y2)
        if np.any(ok):
            lifted = spaces.lift(space, yp[ok])
            vals[ok] = phantom(lifted) * (1.0 / np.sqrt(1.0 - space.curvature * y2[ok]))
        total += float(np.dot(w, kernel(rho) * (vals @ w_ang)))
    return total


def riesz_potential(phantom: Phantom, x: np.ndarray) -> float:
    """Second-order Riesz potential Gamma(n/2-1)/(4 pi^{n/2}) int f |x-y|^{2-n} dy.

    Polar coordinates around x absorb the kernel singularity exactly.
    """
    space = phantom.space
    if space.kind != spaces.EUCLIDEAN or space.n < 3:
        raise ValueError("Riesz potential needs Euclidean n >= 3")
    x = np.asarray(x, dtype=float)
    n = space.n
    rho_max = max(np.linalg.norm(x - b.center) + b.geodesic_radius for b in phantom.bumps)
    sigma = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    total = _polar_integral(phantom, x, lambda rho: rho, np.linspace(0.0, rho_max, 17), 24)
    return gamma(n / 2.0 - 1.0) / (4.0 * np.pi ** (n / 2.0)) * sigma * total


def log_potential(phantom: Phantom, x: np.ndarray) -> float:
    """Logarithmic potential (1/2 pi) int f(y) log|x' - y'| dy for n = 2.

    Euclidean disks use the plane measure; the cap and hyperboloid versions
    integrate in the chart with the surface resp. invariant area weight,
    against the chart distance log|x' - y'|, around the chart point x'.
    """
    space = phantom.space
    if space.n != 2:
        raise ValueError("logarithmic potential is the n = 2 companion")
    xp = spaces.chart(space, np.asarray(x, dtype=float))
    rho_max = space.chart_radius + float(np.linalg.norm(xp))
    # rho log(rho) is integrable; geometric panels resolve the kink at 0,
    # uniform panels the bulk
    inner = np.concatenate([[0.0], np.geomspace(rho_max * 1e-9, rho_max / 16.0, 8)])
    edges = np.concatenate([inner, np.linspace(rho_max / 16.0, rho_max, 17)[1:]])
    return _polar_integral(
        phantom, xp,
        lambda rho: np.where(rho > 0, rho * np.log(np.maximum(rho, 1e-300)), 0.0),
        edges, 256)


def phantom_integral(phantom: Phantom) -> float:
    """Total mass int f dy in the per-space volume measure.

    Bumps are radial about their centers, so geodesic polar coordinates
    give the exact 1-D form sigma_{n-1} int_0^r w(rho/r) sin_k(rho)^{n-1} drho.
    """
    space = phantom.space
    n = space.n
    sigma = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    total = 0.0
    for b in phantom.bumps:
        nodes, w = gauss_legendre(64, 0.0, b.geodesic_radius)
        total += b.amplitude * float(
            np.dot(w, bump_profile(nodes / b.geodesic_radius) * space.sin_k(nodes) ** (n - 1)))
    return sigma * total


def _bump_at(space: SpaceSpec, chart_center, radius: float) -> Phantom:
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, 1.0),))


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def _continuation_limit() -> tuple[float]:
    """a.c. of the power-kernel moment at the critical order is Gamma((n-1)/2)."""
    worst = 0.0
    for n in (3, 4, 5, 6):
        expect = float(gamma((n - 1) / 2.0))
        for h in (-0.9, -0.5, 0.0, 0.4, 0.8):
            got = g_alpha_continued(n, 3 - n, h)
            worst = max(worst, abs(got - expect) / expect)
    return (worst,)


def _direct_vs_continued() -> tuple[float]:
    worst = 0.0
    for n in (3, 4, 5):
        for a in (0.5, 1.0, 1.7):
            for h in (-0.6, 0.0, 0.7):
                worst = max(worst, abs(g_alpha_direct(n, a, h) - g_alpha_continued(n, a, h)))
    return (worst,)


def _log_circle() -> tuple[float]:
    expect = -2.0 * np.pi * np.log(2.0)
    return (max(abs(log_circle_integral(h) - expect) for h in (-0.9, 0.0, 0.5)),)


def _chebyshev_pv() -> tuple[float]:
    worst = 0.0
    for nn in range(1, 7):
        for h in (-0.7, 0.0, 0.3, 0.8):
            worst = max(worst, abs(chebyshev_pv(nn, h) - np.pi * chebyshev_u(nn - 1, h)))
    return (worst,)


def _power_integrals() -> tuple[float, float]:
    worst = max(abs(regularized_power_integral(a) - 1.0) for a in (-4.0, -3.0, -2.0, -1.0))
    worst_log = 0.0
    for m in (1, 2):  # continuation points -1 and -3
        worst_log = max(worst_log, abs(power_integral_log_form(m)
                                       - regularized_power_integral(1.0 - 2.0 * m)))
    return worst, worst_log


# ---------------------------------------------------------------------------
# fractional operators
# ---------------------------------------------------------------------------

def _fractional_roundtrips() -> tuple[float, float]:
    g = TGrid.linspace(1e-3, 2.0, 1200)
    bump = bump_profile((g.values - 1.0) / 0.4)
    worst_ek = 0.0
    for a in (0.5, 1.0, 1.5):
        fwd = ek_matrix(bump, g, 0.5, a, order=256)
        back = ek_ac_matrix(fwd, g, 0.5 + a, -a, order=256)
        worst_ek = max(worst_ek, float(np.max(np.abs(back[0] - bump))))
    g2 = TGrid.linspace(-1 + 1e-3, 1 - 1e-3, 1200)
    bump2 = bump_profile(g2.values / 0.5)
    worst_rl = 0.0
    for a in (0.5, 1.0, 1.5):
        back = rl_matrix(rl_matrix(bump2, g2, a), g2, -a)
        worst_rl = max(worst_rl, float(np.max(np.abs(back[0] - bump2))))
    return worst_ek, worst_rl


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _darboux_property() -> tuple[float]:
    """The radial wave operator L intertwines with the means (n = 3)."""
    space = SpaceSpec(EUCLIDEAN, 3, 1.0)
    ph = _bump_at(space, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(space, 8)
    tg = default_tgrid(space)
    means = forward_means(ph, bd, tg)
    lap_means = forward_means(laplacian_field(ph), bd, tg)
    L = darboux_L_matrix(means.values, tg, 3)
    scale = np.max(np.abs(lap_means.values))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        i = rng.integers(0, bd.m)
        j = rng.integers(np.searchsorted(tg.values, 0.72), np.searchsorted(tg.values, 1.28))
        worst = max(worst, abs(lap_means.values[i, j] - L[i, j]) / scale)
    return (worst,)


def _potential_identities() -> tuple[float, float]:
    """Minus the Laplacian of the Riesz potential (n = 3) and the Laplacian
    of the log potential (n = 2) return the phantom."""
    ph = _bump_at(SpaceSpec(EUCLIDEAN, 3, 1.0), [0.2, 0.1, -0.15], 0.32)
    xs = np.array([[0.2, 0.1, -0.15], [0.3, 0.15, -0.1], [0.1, 0.0, -0.2]])
    lap = laplacian_fd(lambda P: np.array([riesz_potential(ph, p) for p in P]), xs, 3e-3)
    tru = ph(xs)
    ph2 = _bump_at(SpaceSpec(EUCLIDEAN, 2, 1.0), [0.25, 0.1], 0.30)
    xs2 = np.array([[0.25, 0.1], [0.35, 0.05], [0.15, 0.2]])
    lap2 = laplacian_fd(lambda P: np.array([log_potential(ph2, p) for p in P]), xs2, 3e-3)
    tru2 = ph2(xs2)
    return (float(np.max(np.abs(-lap - tru) / np.abs(tru))),
            float(np.max(np.abs(lap2 - tru2) / np.abs(tru2))))


def _log_identities() -> tuple[float]:
    """The back-projected log-kernel table of the means plus the boundary
    constant is the log potential, in all three spaces (n = 2). R^n tables
    t means against log|t^2-s^2| with the constant log R; the cap and the
    hyperboloid table the means against log|t-s| with log(sin_k(R)/2)."""
    cases = [
        (SpaceSpec(EUCLIDEAN, 2, 1.0), [[0.15, -0.10], [0.05, 0.02], [0.25, 0.05]]),
        (SpaceSpec(SPHERE, 2, 0.8), [[0.15, -0.10], [0.05, 0.02]]),
        (SpaceSpec(HYPERBOLIC, 2, 0.8), [[0.15, -0.10], [0.05, 0.02]]),
    ]
    worst = 0.0
    for spec, points in cases:
        flat = spec.kind == EUCLIDEAN
        ph = _bump_at(spec, [0.15, -0.10], 0.22)
        bd = boundary_grid(spec, 128)
        tg = default_tgrid(spec)
        data = forward_means(ph, bd, tg)
        prof = data.values * (tg.values if flat else 1.0)
        xs = spaces.lift(spec, points)
        tbl_grid = _table_grid(spec, tg, _read_range(spec, xs))
        tbl = log_kernel_table(prof, tg, tbl_grid.values,
                               kernel="log|t^2-s^2|" if flat else "log|t-s|")
        cf_log = np.log(spec.chart_radius if flat else spec.chart_radius / 2)
        cf = -cf_log / (2.0 * np.pi) * phantom_integral(ph)
        for x in xs:
            rhs = float(backproject(bd, tbl_grid, lambda lo, hi: (tbl[lo:hi],), x[None, :],
                                    fill="error")[0, 0]) + cf
            worst = max(worst, abs(log_potential(ph, x) - rhs))
    return (worst,)


def _h_bound() -> tuple[float, float, float]:
    """max|h| - 1 over sampled interior pairs, per space (negative: |h| < 1)."""
    rng = np.random.default_rng(SEED)
    return tuple(_h_bound_worst(SpaceSpec(kind, 2, radius), rng, 10_000) - 1.0
                 for kind, radius in ((EUCLIDEAN, 1.0), (SPHERE, 0.8), (HYPERBOLIC, 0.8)))


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
        # cube radius taken as geodesic distance in polar normal coordinates
        r = np.linalg.norm(sel, axis=2)
        chart = sel * np.divide(spec.sin_k(r), r, out=np.ones_like(r), where=r > 0)[..., None]
        lifted = spaces.lift(spec, chart)
        x, y = lifted[:, 0, :], lifted[:, 1, :]
        ok = np.linalg.norm(spaces.chart(spec, x) - spaces.chart(spec, y), axis=1) > 1e-9
        h = spaces.h_parameter(spec, x[ok], y[ok])
        if h.size:
            worst = max(worst, float(np.max(np.abs(h))))
    return worst


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def _roundtrip(name: str, changes: dict | None = None) -> ReconstructionReport:
    """The report of configs/<name>.json with `changes` made, run as
    `geomeans roundtrip` runs it.

    A key of `changes` is a dotted path into the JSON document, list indices
    as numbers: {"phantom.0.center": [...]} moves the first bump.
    """
    # here, not at the top: `python -m geomeans.cli verify` runs cli as
    # __main__ and imports this module, so a top-level import would load cli
    # a second time even for the suites that run no round trip
    from . import cli

    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    for path, value in (changes or {}).items():
        *steps, last = [int(step) if step.isdigit() else step for step in path.split(".")]
        node = raw
        for step in steps:
            node = node[step]
        node[last] = value
    cfg = cli.parse_config(raw)
    return cli._reconstruct(cfg, cli._forward_data(cfg))


def _euclidean_roundtrips() -> tuple[float, ...]:
    return tuple(_roundtrip(name).rel_l2 for name in ("euclid2", "euclid3", "euclid4", "euclid5"))


def _offcentre_n4_roundtrip() -> tuple[float]:
    """euclid4 with its bump off the centre: every centre has its own row,
    so the general n = 4 path runs (one log-table row per centre), which
    the centred configs skip."""
    return (_roundtrip("euclid4", {"phantom.0.center": [0.2, -0.1, 0.1, 0.05]}).rel_l2,)


def _modified_formulas() -> tuple[float, float]:
    """The direct and the Laplacian-free formula agree on the same data."""
    rels = []
    for name in ("euclid2", "euclid3"):
        direct, modified = (_roundtrip(name, {"grids.recon_grid.points_per_axis": 9,
                                              "method": method}).f_rec
                            for method in ("direct", "modified"))
        rels.append(float(np.linalg.norm(direct - modified) / np.linalg.norm(direct)))
    return tuple(rels)


def _curved_roundtrips() -> tuple[float, ...]:
    """rel_l2 and calibration gap of each cap and hyperboloid config."""
    figures = []
    for name in ("sphere2", "sphere3", "hyperbolic2", "hyperbolic3"):
        rep = _roundtrip(name)
        figures += [rep.rel_l2, abs(rep.calibration - 1.0)]
    return tuple(figures)


def _trace_roundtrips() -> tuple[float, ...]:
    """Traces of orders +1 and +2 besides the config's -1 in R^3, and the
    cap's trace config."""
    return (_roundtrip("epd_euclid3_wave", {"alpha": 1.0}).rel_l2,
            _roundtrip("epd_euclid3_wave", {"alpha": 2.0}).rel_l2,
            _roundtrip("epd_euclid3_wave").rel_l2,
            _roundtrip("epd_sphere3").rel_l2)


def _convergence_monotonicity() -> tuple[float]:
    """Error ratio of section quadrature of order 8 on 400 t-nodes to order
    16 on 800, on 96 centres and 9 points per axis."""
    coarse, fine = (_roundtrip("euclid2", {"grids.boundary_points": 96,
                                           "grids.recon_grid.points_per_axis": 9,
                                           "forward_profile": "sections",
                                           "grids.quadrature_order": order,
                                           "grids.t_points": n_t}).rel_l2
                    for order, n_t in ((8, 400), (16, 800)))
    return (coarse / fine,)


CHECKS = (
    Check(1, "continuation_limit", "lemmas", _held("<=", 1e-6, "1. continuation limit (rel)"),
          _continuation_limit, 5.0),
    Check(2, "direct_vs_continued", "lemmas", _held("<", 1e-8, "2. direct vs continued (abs)"),
          _direct_vs_continued, 5.0),
    Check(3, "log_circle", "lemmas", _held("<=", 1e-8, "3. circle log moment (abs)"),
          _log_circle, 1.0),
    Check(4, "chebyshev_pv", "lemmas", _held("<", 1e-6, "4. chebyshev principal values (abs)"),
          _chebyshev_pv, 2.0),
    Check(5, "regularized_power_integrals", "lemmas",
          _held("<=", 1e-6, "5a. gaussian power integrals (abs)", "5b. log-form agreement (abs)"),
          _power_integrals, 2.0),
    Check(6, "fractional_roundtrips", "fractional",
          _held("<=", 1e-4, "6a. weighted-integral round trips (sup)",
                "6b. right-sided round trips (sup)"),
          _fractional_roundtrips, 10.0),
    Check(7, "darboux_property", "identities",
          _held("<=", 1e-3, "7. wave structure of the means (rel)"), _darboux_property, 30.0),
    Check(8, "potential_identities", "identities",
          _held("<=", 1e-2, "8a. second-order potential inverse (rel)",
                "8b. log potential inverse (rel)"),
          _potential_identities, 60.0),
    Check(9, "log_identities_three_spaces", "identities",
          _held("<=", 1e-3, "9. boundary log identities (abs)"), _log_identities, 60.0),
    Check(10, "euclidean_roundtrips", "roundtrips",
          _held("<=", 0.03, *(f"10. euclidean n={n} round trip (relL2)" for n in (2, 3)))
          + _held("<=", 0.05, *(f"10. euclidean n={n} round trip (relL2)" for n in (4, 5))),
          _euclidean_roundtrips, 300.0),
    Check(10, "offcentre_n4_roundtrip", "roundtrips",
          _held("<=", 0.03, "10. off-centre euclidean n=4 round trip (relL2)"),
          _offcentre_n4_roundtrip, 300.0),
    Check(11, "modified_formulas", "roundtrips",
          _held("<=", 0.02, *(f"11. direct vs modified n={n} (relL2)" for n in (2, 3))),
          _modified_formulas, 300.0),
    Check(12, "curved_roundtrips", "roundtrips",
          tuple(bound for space in ("sphere n=2", "sphere n=3", "hyperbolic n=2", "hyperbolic n=3")
                for bound in ((f"12. {space} round trip (relL2)", "<=", 0.05),
                              (f"12. {space} calibration gap", "<=", 0.03))),
          _curved_roundtrips, 300.0),
    Check(13, "trace_roundtrips", "roundtrips",
          _held("<=", 0.05, *(f"13. trace round trip n=3 a={a} (relL2)"
                              for a in ("+1", "+2", "-1")),
                "13. cap trace round trip a=+1 (relL2)"),
          _trace_roundtrips, 300.0),
    Check(14, "h_bound", "identities",
          _held("<", 0.0, *(f"14. |h|<1 margin {kind} (1-max|h|>0)"
                            for kind in (EUCLIDEAN, SPHERE, HYPERBOLIC))),
          _h_bound, 1.0),
    Check(15, "convergence_monotonicity", "roundtrips",
          _held(">=", 1.5, "15. refinement error ratio"), _convergence_monotonicity, 300.0),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))
