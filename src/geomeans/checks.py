"""Acceptance criteria 1-9 and 14: the analytic identities the inversion
formulas rest on, stated once.

Each entry of `CHECKS` computes its figures on fixed grids, points, orders
and seeds, and compares every figure with one bound by one comparator.
`geomeans verify` prints the entries of a suite; the acceptance suite runs
each entry as one test and also holds it to the entry's time limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gamma
from typing import Callable

import numpy as np

from . import spaces, special_verify as sv
from .forward import default_tgrid, forward_means
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix
from .inversion import backproject, log_potential, phantom_integral, riesz_potential
from .numerics import TGrid, darboux_L_matrix, laplacian_fd, log_kernel_table
from .phantoms import Bump, Phantom, bump_profile, laplacian_field
from .spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid

__all__ = ["SEED", "SUITES", "Figure", "Check", "CHECKS"]

# seed of the sampled pairs of criterion 14
SEED = 20240817

SUITES = ("lemmas", "fractional", "identities")

_COMPARATORS = {"<": operator.lt, "<=": operator.le}


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

    `compute(seed)` returns one value per label; only criterion 14 draws
    from the seed. Every value is compared with `bound` by `op`.
    """

    number: int
    name: str
    suite: str
    labels: tuple[str, ...]
    compute: Callable[[int], tuple[float, ...]]
    op: str
    bound: float
    time_limit: float

    def figures(self, seed: int = SEED) -> list[Figure]:
        return [Figure(label, float(v), self.op, self.bound)
                for label, v in zip(self.labels, self.compute(seed), strict=True)]


def _bump_at(space: SpaceSpec, chart_center, radius: float) -> Phantom:
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, 1.0),))


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def _continuation_limit(seed: int) -> tuple[float]:
    """a.c. of the power-kernel moment at the critical order is Gamma((n-1)/2)."""
    worst = 0.0
    for n in (3, 4, 5, 6):
        expect = float(gamma((n - 1) / 2.0))
        for h in (-0.9, -0.5, 0.0, 0.4, 0.8):
            got = sv.g_alpha_continued(n, 3 - n, h)
            worst = max(worst, abs(got - expect) / expect)
    return (worst,)


def _direct_vs_continued(seed: int) -> tuple[float]:
    worst = 0.0
    for n in (3, 4, 5):
        for a in (0.5, 1.0, 1.7):
            for h in (-0.6, 0.0, 0.7):
                worst = max(worst, abs(sv.g_alpha_direct(n, a, h)
                                       - sv.g_alpha_continued(n, a, h)))
    return (worst,)


def _log_circle(seed: int) -> tuple[float]:
    expect = -2.0 * np.pi * np.log(2.0)
    return (max(abs(sv.log_circle_integral(h) - expect) for h in (-0.9, 0.0, 0.5)),)


def _chebyshev_pv(seed: int) -> tuple[float]:
    worst = 0.0
    for nn in range(1, 7):
        for h in (-0.7, 0.0, 0.3, 0.8):
            worst = max(worst, abs(sv.chebyshev_pv(nn, h) - np.pi * sv.chebyshev_u(nn - 1, h)))
    return (worst,)


def _power_integrals(seed: int) -> tuple[float, float]:
    gp = sv.gaussian_profile()
    worst = max(abs(sv.regularized_power_integral(gp, a) - 1.0)
                for a in (-4.0, -3.0, -2.0, -1.0))
    worst_log = 0.0
    for m in (1, 2):  # continuation points -1 and -3
        worst_log = max(worst_log, abs(sv.power_integral_log_form(gp, m)
                                       - sv.regularized_power_integral(gp, 1.0 - 2.0 * m)))
    return worst, worst_log


# ---------------------------------------------------------------------------
# fractional operators
# ---------------------------------------------------------------------------

def _fractional_roundtrips(seed: int) -> tuple[float, float]:
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
        back = rl_matrix(rl_matrix(bump2, g2, a, order=256), g2, -a, order=256)
        worst_rl = max(worst_rl, float(np.max(np.abs(back[0] - bump2))))
    return worst_ek, worst_rl


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _darboux_property(seed: int) -> tuple[float]:
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


def _potential_identities(seed: int) -> tuple[float, float]:
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


def _log_identities(seed: int) -> tuple[float]:
    """The back-projected log-kernel table of the means plus the boundary
    constant is the log potential, in all three spaces (n = 2). R^n tables
    t means against log|t^2-s^2| with the constant log R; the cap and the
    hyperboloid table the means against log|t-s| with log(sin_k(R)/2)."""
    cases = [
        (SpaceSpec(EUCLIDEAN, 2, 1.0),
         [np.array([0.15, -0.10]), np.array([0.05, 0.02]), np.array([0.25, 0.05])]),
        (SpaceSpec(SPHERE, 2, 0.8), [np.array([0.15, -0.10]), np.array([0.05, 0.02])]),
        (SpaceSpec(HYPERBOLIC, 2, 0.8), [np.array([0.15, -0.10]), np.array([0.05, 0.02])]),
    ]
    worst = 0.0
    for spec, points in cases:
        flat = spec.kind == EUCLIDEAN
        ph = _bump_at(spec, [0.15, -0.10], 0.22)
        bd = boundary_grid(spec, 128)
        tg = default_tgrid(spec)
        data = forward_means(ph, bd, tg)
        prof = data.values * (tg.values if flat else 1.0)
        lo, hi = spec.tgrid_range
        slack = 1e-6 * (hi - lo)
        tbl_grid = TGrid.linspace(lo + slack, hi - slack, 700)
        tbl = log_kernel_table(prof, tg, tbl_grid.values,
                               kernel="log|t^2-s^2|" if flat else "log|t-s|")
        cf_log = np.log(spec.chart_radius if flat else spec.chart_radius / 2)
        cf = -cf_log / (2.0 * np.pi) * phantom_integral(ph)
        for xp in points:
            x = spaces.lift(spec, xp)
            rhs = float(backproject(bd, tbl_grid, tbl, x[None, :], fill="error")[0]) + cf
            worst = max(worst, abs(log_potential(ph, x) - rhs))
    return (worst,)


def _h_bound(seed: int) -> tuple[float, float, float]:
    """max|h| - 1 over sampled interior pairs, per space (negative: |h| < 1)."""
    rng = np.random.default_rng(seed)
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


CHECKS = (
    Check(1, "continuation_limit", "lemmas", ("1. continuation limit (rel)",),
          _continuation_limit, "<=", 1e-6, 5.0),
    Check(2, "direct_vs_continued", "lemmas", ("2. direct vs continued (abs)",),
          _direct_vs_continued, "<", 1e-8, 5.0),
    Check(3, "log_circle", "lemmas", ("3. circle log moment (abs)",),
          _log_circle, "<=", 1e-8, 1.0),
    Check(4, "chebyshev_pv", "lemmas", ("4. chebyshev principal values (abs)",),
          _chebyshev_pv, "<", 1e-6, 2.0),
    Check(5, "regularized_power_integrals", "lemmas",
          ("5a. gaussian power integrals (abs)", "5b. log-form agreement (abs)"),
          _power_integrals, "<=", 1e-6, 2.0),
    Check(6, "fractional_roundtrips", "fractional",
          ("6a. weighted-integral round trips (sup)", "6b. right-sided round trips (sup)"),
          _fractional_roundtrips, "<=", 1e-4, 10.0),
    Check(7, "darboux_property", "identities", ("7. wave structure of the means (rel)",),
          _darboux_property, "<=", 1e-3, 30.0),
    Check(8, "potential_identities", "identities",
          ("8a. second-order potential inverse (rel)", "8b. log potential inverse (rel)"),
          _potential_identities, "<=", 1e-2, 60.0),
    Check(9, "log_identities_three_spaces", "identities", ("9. boundary log identities (abs)",),
          _log_identities, "<=", 1e-3, 60.0),
    Check(14, "h_bound", "identities",
          tuple(f"14. |h|<1 margin {kind} (1-max|h|>0)" for kind in (EUCLIDEAN, SPHERE, HYPERBOLIC)),
          _h_bound, "<", 0.0, 1.0),
)
