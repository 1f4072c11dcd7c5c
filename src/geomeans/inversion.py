"""Reconstruction formulas for all three spaces.

Euclidean odd/even-dimension filtered back-projections (with the direct
outer Laplacian or the modified radial-operator variant), the cap and
hyperboloid analogues built on chart Laplacians, the weighted-trace
inversions that first undo the fractional time-weighting, and the Riesz /
logarithmic potentials used as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from . import spaces
from .forward import MeanData
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix
from .numerics import (
    CubicStencil,
    TGrid,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    gauss_legendre,
    log_kernel_table,
)

# The inversions compute their Laplacians in closed form. laplacian_fd stays
# bound here because the benchmark's tracer wraps it at this binding site;
# its counters read 0.
from .numerics import laplacian_fd  # noqa: F401
from .phantoms import Phantom
from .spaces import BoundaryGrid, SpaceSpec

__all__ = [
    "InversionConstants",
    "constants",
    "backproject",
    "invert_euclidean_odd",
    "invert_euclidean_even",
    "invert_euclidean_modified",
    "invert_sphere",
    "invert_hyperbolic",
    "epd_invert_euclidean",
    "epd_invert_sphere",
    "riesz_potential",
    "log_potential",
    "phantom_integral",
    "invert",
    "ReconstructionReport",
    "make_report",
    "chart_box_grid",
]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionConstants:
    n: int
    radius: float
    sigma: float
    d_n1: float | None
    d_n2: float | None
    d_curved: float


def constants(n: int, radius: float) -> InversionConstants:
    """Numeric values of the inversion prefactors for dimension n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    sigma = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    d_n1 = d_n2 = None
    if n % 2 == 1:
        d_n1 = (-1.0) ** ((n - 1) // 2) * np.pi ** (1 - n / 2.0) / (4.0 * radius * gamma(n / 2.0))
    else:
        d_n2 = (-1.0) ** (n // 2 - 1) * np.pi ** (-n / 2.0) / (2.0 * radius * gamma(n / 2.0))
    d_curved = (-1.0) ** ((n // 2) - 1) / (2.0 ** (n - 1) * np.pi ** (n / 2.0 - 1.0) * gamma(n / 2.0))
    return InversionConstants(n=n, radius=radius, sigma=sigma, d_n1=d_n1, d_n2=d_n2,
                              d_curved=d_curved)


# ---------------------------------------------------------------------------
# back-projection
# ---------------------------------------------------------------------------

def _observation_args(space: SpaceSpec, centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-(point, center) observation argument: |x-xi|, xi.x, or [xi, x]."""
    if space.kind == spaces.EUCLIDEAN:
        return np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=-1)
    if space.kind == spaces.SPHERE:
        return x @ centers.T
    return x[:, -1:] * centers[None, :, -1] - x[:, :-1] @ centers[:, :-1].T


def _edge_vanishes(F: np.ndarray) -> bool:
    scale = np.max(np.abs(F)) or 1.0
    edge = max(np.max(np.abs(F[..., :4])), np.max(np.abs(F[..., -4:])))
    return edge <= 1e-10 * scale


def backproject(boundary: BoundaryGrid, grid: TGrid, F: np.ndarray, x: np.ndarray,
                fill: float | str = "auto") -> np.ndarray:
    """Weighted boundary average of per-center profiles at the observation args.

    F is (centers x grid), or a stack (k, centers, grid) of such tables,
    and is sampled by cubic interpolation at |x - xi|, xi.x, or [xi, x] per
    space. The result is (K,) for one table and (k, K) for a stack; the
    tables of a stack share each point's arguments and cubic cells. With
    fill='auto', arguments outside the grid are treated as zero when the
    data vanish at the grid edge (support strictly inside) and raise
    otherwise.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    tables = F if F.ndim == 3 else F[None]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if fill == "auto":
        fill = 0.0 if _edge_vanishes(F) else "error"
    out = np.empty((tables.shape[0], x.shape[0]))
    block = max(1, int(2_000_000 / max(boundary.m, 1)))
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        args = _observation_args(boundary.space, boundary.centers, x[lo:hi])
        stencil = CubicStencil.build(grid, args.T, fill=fill)
        for j, table in enumerate(tables):
            out[j, lo:hi] = boundary.weights @ stencil(table)
    return out if F.ndim == 3 else out[0]


def _table_grid(space: SpaceSpec, n_points: int) -> TGrid:
    """Target grid for log-kernel tables, spanning the full open t-range."""
    lo, hi = space.tgrid_range
    slack = 1e-6 * (hi - lo)
    return TGrid.linspace(lo + slack, hi - slack, n_points)


def _require_plain(data: MeanData) -> None:
    if data.alpha not in (None, 0.0):
        raise ValueError("this inversion needs plain means, not a weighted trace")


def _rows_table(profiles: np.ndarray, grid: TGrid, targets: np.ndarray, kernel: str,
                order: int) -> np.ndarray:
    """log_kernel_table with a shortcut for identical rows (radial data)."""
    if profiles.shape[0] > 1 and np.all(profiles == profiles[0]):
        row = log_kernel_table(profiles[:1], grid, targets, kernel=kernel, order=order)
        return np.tile(row, (profiles.shape[0], 1))
    return log_kernel_table(profiles, grid, targets, kernel=kernel, order=order)


# ---------------------------------------------------------------------------
# Euclidean inversions
# ---------------------------------------------------------------------------
#
# The Laplacian of x -> P(|x - xi|) is (L_n P)(|x - xi|) with the radial
# operator L_n = d^2/dt^2 + (n-1)/t d/dt, so the outer Laplacian of a
# back-projection is the back-projection of L_n applied to its profiles.

def _euclid_odd_profiles(data: MeanData) -> np.ndarray:
    n = data.space.n
    t = data.tgrid.values
    return d_operator_matrix(t ** (n - 2) * data.values, data.tgrid, n - 3)


def _euclid_even_table(data: MeanData, table_order: int):
    n = data.space.n
    t = data.tgrid.values
    q = t * d_operator_matrix(t ** (n - 2) * data.values, data.tgrid, n - 2)
    tgrid = _table_grid(data.space, data.tgrid.n)
    table = _rows_table(q, data.tgrid, tgrid.values, "log|t^2-s^2|", table_order)
    return tgrid, table


def invert_euclidean_odd(data: MeanData, x: np.ndarray) -> np.ndarray:
    """Odd-dimension reconstruction at ambient points x (K, n).

    f = d_{n,1} Laplacian of the boundary integral of
    P = D^{n-3}[t^{n-2} means](xi, |x - xi|), computed as the boundary
    integral of L_n P.
    """
    space = data.space
    if space.kind != spaces.EUCLIDEAN or space.n % 2 == 0:
        raise ValueError("odd-dimension Euclidean inversion needs odd n >= 3")
    _require_plain(data)
    c = constants(space.n, space.radius)
    lap = darboux_L_matrix(_euclid_odd_profiles(data), data.tgrid, space.n)
    return c.d_n1 * space.boundary_area * backproject(data.boundary, data.tgrid, lap,
                                                      np.atleast_2d(x), fill=0.0)


def invert_euclidean_even(data: MeanData, x: np.ndarray, table_order: int = 20) -> np.ndarray:
    """Even-dimension reconstruction at ambient points x (K, n).

    f = d_{n,2} Laplacian of the boundary integral of the log-kernel
    transform of t D^{n-2}[t^{n-2} means], computed as the boundary
    integral of L_n applied along the table's target axis; n = 2 uses the
    identity radial operator and reproduces the disk formula.
    """
    space = data.space
    if space.kind != spaces.EUCLIDEAN or space.n % 2 == 1:
        raise ValueError("even-dimension Euclidean inversion needs even n >= 2")
    _require_plain(data)
    c = constants(space.n, space.radius)
    tgrid, table = _euclid_even_table(data, table_order)
    lap = darboux_L_matrix(table, tgrid, space.n)
    return c.d_n2 * space.boundary_area * backproject(data.boundary, tgrid, lap,
                                                      np.atleast_2d(x), fill="error")


def invert_euclidean_modified(data: MeanData, x: np.ndarray,
                              table_order: int = 20) -> np.ndarray:
    """Laplacian-free variant: the radial wave operator is applied to the
    means profiles instead of the outer Laplacian, same constants."""
    space = data.space
    if space.kind != spaces.EUCLIDEAN:
        raise ValueError("modified inversion is Euclidean-only")
    _require_plain(data)
    n = space.n
    c = constants(n, space.radius)
    filtered = MeanData(space, data.boundary, data.tgrid,
                        darboux_L_matrix(data.values, data.tgrid, n))
    x = np.atleast_2d(x)
    if n % 2 == 1:
        return c.d_n1 * space.boundary_area * backproject(
            data.boundary, data.tgrid, _euclid_odd_profiles(filtered), x, fill=0.0)
    tgrid, table = _euclid_even_table(filtered, table_order)
    return c.d_n2 * space.boundary_area * backproject(data.boundary, tgrid, table, x,
                                                      fill="error")


# ---------------------------------------------------------------------------
# sphere and hyperboloid inversions
# ---------------------------------------------------------------------------
#
# Every boundary centre has the same height xi_{n+1} = cos R (cosh R), so
# the argument a(x') = xi . lift(x') (resp. [xi, lift(x')]) has a chart
# gradient with |grad a|^2 = A + B a and a chart Laplacian C that depend on
# the point alone. The chart Laplacian of the back-projection of P is then
# A BP[P''] + B BP[t P''] + C BP[P'].

def _chart_coefficients(space: SpaceSpec, xp: np.ndarray):
    """(A, B, C) at chart points xp (K, n): |grad a|^2 = A + B a, Lap a = C."""
    n = space.n
    rho2 = (xp ** 2).sum(axis=-1)
    if space.kind == spaces.SPHERE:
        c, s, z = np.cos(space.radius), np.sin(space.radius), np.sqrt(1.0 - rho2)
        return (s ** 2 + c ** 2 * (2.0 + rho2 / z ** 2), -2.0 * c / z,
                -c * (n / z + rho2 / z ** 3))
    c, s, z = np.cosh(space.radius), np.sinh(space.radius), np.sqrt(1.0 + rho2)
    return (s ** 2 + c ** 2 * (rho2 / z ** 2 - 2.0), 2.0 * c / z,
            c * (n / z - rho2 / z ** 3))


def _curved_tables(data: MeanData, table_order: int):
    """Grid, stack (P'', t P'', P'), scale and fill of the filtered
    back-projection f0 = scale * integral of P(xi, arg(xi, x))."""
    space = data.space
    n = space.n
    t = data.tgrid.values
    if space.kind == spaces.SPHERE:
        weight = (1.0 - t ** 2) ** (n / 2.0 - 1.0)
    else:
        weight = (t ** 2 - 1.0) ** (n / 2.0 - 1.0)
    F = data.values * weight
    if n % 2 == 1:
        grid, prof, scale, fill = data.tgrid, diff_matrix(F, data.tgrid, n - 3), -1.0, 0.0
    else:
        grid = _table_grid(space, data.tgrid.n)
        prof = _rows_table(diff_matrix(F, data.tgrid, n - 2), data.tgrid, grid.values,
                           "log|t-s|", table_order)
        scale, fill = 1.0 / np.pi, "error"
    d1 = diff_matrix(prof, grid, 1)
    d2 = diff_matrix(d1, grid, 1)
    return grid, np.stack([d2, grid.values * d2, d1]), scale, fill


def _curved_invert(data: MeanData, x: np.ndarray, table_order: int) -> np.ndarray:
    space = data.space
    x = np.atleast_2d(np.asarray(x, dtype=float))
    spaces.validate_point(space, x)
    xp = spaces.chart(space, x)
    interior = (xp ** 2).sum(axis=1)
    if space.kind == spaces.SPHERE:
        if np.any(x[:, -1] <= np.cos(space.radius) + 1e-12):
            raise ValueError("evaluation points must lie strictly inside the cap")
        rim = np.sin(space.radius)
    else:
        if np.any(interior >= np.sinh(space.radius) ** 2):
            raise ValueError("evaluation points must lie strictly inside the ball")
        rim = np.sinh(space.radius)
    c = constants(space.n, space.radius)
    grid, tables, scale, fill = _curved_tables(data, table_order)
    p2, tp2, p1 = backproject(data.boundary, grid, tables, x, fill=fill)
    A, B, C = _chart_coefficients(space, xp)
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    return c.d_curved * x[:, -1] / rim * lap


def invert_sphere(data: MeanData, x: np.ndarray, table_order: int = 20) -> np.ndarray:
    """Cap reconstruction at ambient points x (K, n+1) strictly inside the cap.

    f = d_n x_{n+1}/sin(theta) times the chart Laplacian of the filtered
    back-projection of means(xi, t)(1-t^2)^{n/2-1}; odd n differentiates
    the profile n-3 times, even n (including 2) goes through the log
    kernel.
    """
    if data.space.kind != spaces.SPHERE:
        raise ValueError("needs cap data")
    _require_plain(data)
    return _curved_invert(data, x, table_order)


def invert_hyperbolic(data: MeanData, x: np.ndarray, table_order: int = 20) -> np.ndarray:
    """Hyperboloid reconstruction, mirror of the cap formula.

    Weight (t^2-1)^{n/2-1}, log bounds (1, cosh 2R), prefactor
    d_n x_{n+1}/sinh(R). The invariant-measure convention fixes the
    prefactor; see the chart-measure consistency tests.
    """
    if data.space.kind != spaces.HYPERBOLIC:
        raise ValueError("needs hyperboloid data")
    _require_plain(data)
    return _curved_invert(data, x, table_order)


# ---------------------------------------------------------------------------
# weighted-trace (EPD) inversions
# ---------------------------------------------------------------------------

def epd_invert_euclidean(traces: MeanData, x: np.ndarray, frac_order: int = 192,
                         table_order: int = 20) -> np.ndarray:
    """Recover plain means from the weighted trace, then invert.

    Per center: means = Gamma(n/2)/Gamma(alpha + n/2) * EK(eta + alpha,
    -alpha) applied to the trace profile (eta = n/2 - 1); the remaining
    steps coincide with the plain-means inversion, the trace constants
    differing only by the gamma factor already absorbed here.
    """
    space = traces.space
    if space.kind != spaces.EUCLIDEAN:
        raise ValueError("needs Euclidean trace data")
    if traces.alpha is None:
        raise ValueError("trace data must carry its order tag")
    alpha = traces.alpha
    n = space.n
    if alpha < (1.0 - n) / 2.0:
        raise ValueError(f"alpha must be >= (1-n)/2 = {(1 - n) / 2}")
    eta = n / 2.0 - 1.0
    if alpha == 0:
        phi = traces.values.copy()
    elif alpha > 0:
        phi = ek_ac_matrix(traces.values, traces.tgrid, eta + alpha, -alpha, order=frac_order)
    else:
        phi = ek_matrix(traces.values, traces.tgrid, eta + alpha, -alpha, order=frac_order)
    phi *= gamma(n / 2.0) / gamma(alpha + n / 2.0)
    means = MeanData(space, traces.boundary, traces.tgrid, phi)
    if n % 2 == 1:
        return invert_euclidean_odd(means, x)
    return invert_euclidean_even(means, x, table_order)


def epd_invert_sphere(traces: MeanData, x: np.ndarray, frac_order: int = 192,
                      table_order: int = 20) -> np.ndarray:
    """Undo the right-sided fractional weighting of a cap trace, then invert."""
    space = traces.space
    if space.kind != spaces.SPHERE:
        raise ValueError("needs cap trace data")
    if traces.alpha is None or traces.alpha <= 0:
        raise ValueError("cap traces are generated with alpha > 0")
    alpha = traces.alpha
    n = space.n
    t = traces.tgrid.values
    G = traces.values * (1.0 - t ** 2) ** (alpha - 1.0 + n / 2.0) \
        * gamma(n / 2.0) / (2.0 ** alpha * gamma(alpha + n / 2.0))
    F = rl_matrix(G, traces.tgrid, -alpha, order=frac_order)
    means = MeanData(space, traces.boundary, traces.tgrid,
                     F * (1.0 - t ** 2) ** (1.0 - n / 2.0))
    return invert_sphere(means, x, table_order)


# ---------------------------------------------------------------------------
# potentials (independent cross-checks)
# ---------------------------------------------------------------------------

def _radial_mean_factory(phantom: Phantom, x: np.ndarray, ang_order: int):
    """Angular mean of the phantom around x in chart coordinates, with the
    per-space area weight folded in."""
    space = phantom.space
    n = space.n
    omega, w = spaces.unit_sphere_rule(n - 1, ang_order)
    if space.kind == spaces.EUCLIDEAN:
        def mean(rho: np.ndarray) -> np.ndarray:
            pts = x[None, None, :] + rho[:, None, None] * omega[None, :, :]
            return phantom(pts) @ w
        return mean
    if space.kind == spaces.SPHERE:
        bound = 1.0

        def weight(y2):
            return 1.0 / np.sqrt(1.0 - y2)
    else:
        bound = np.inf

        def weight(y2):
            return 1.0 / np.sqrt(1.0 + y2)

    def mean(rho: np.ndarray) -> np.ndarray:
        yp = x[None, None, :] + rho[:, None, None] * omega[None, :, :]
        y2 = (yp ** 2).sum(-1)
        ok = y2 < bound
        vals = np.zeros_like(y2)
        if np.any(ok):
            lifted = spaces.lift(space, yp[ok])
            vals[ok] = phantom(lifted) * weight(y2[ok])
        return vals @ w

    return mean


def riesz_potential(phantom: Phantom, x: np.ndarray, radial_order: int = 24,
                    ang_order: int = 24, panels: int = 16) -> float:
    """Second-order Riesz potential Gamma(n/2-1)/(4 pi^{n/2}) int f |x-y|^{2-n} dy.

    Polar coordinates around x absorb the kernel singularity exactly.
    """
    space = phantom.space
    if space.kind != spaces.EUCLIDEAN or space.n < 3:
        raise ValueError("Riesz potential needs Euclidean n >= 3")
    x = np.asarray(x, dtype=float)
    n = space.n
    rho_max = max(np.linalg.norm(x - b.center) + b.geodesic_radius for b in phantom.bumps)
    mean = _radial_mean_factory(phantom, x, ang_order)
    sigma = constants(n, space.radius).sigma
    total = 0.0
    edges = np.linspace(0.0, rho_max, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, w = gauss_legendre(radial_order, lo, hi)
        total += float(np.dot(w, nodes * mean(nodes)))
    return gamma(n / 2.0 - 1.0) / (4.0 * np.pi ** (n / 2.0)) * sigma * total


def log_potential(phantom: Phantom, x: np.ndarray, radial_order: int = 24,
                  ang_order: int = 256, panels: int = 16) -> float:
    """Logarithmic potential (1/2 pi) int f(y) log|x' - y'| dy for n = 2.

    Euclidean disks use the plane measure; the cap and hyperboloid versions
    integrate in the chart with the surface resp. invariant area weight,
    against the chart distance log|x' - y'|, around the chart point x'.
    """
    space = phantom.space
    if space.n != 2:
        raise ValueError("logarithmic potential is the n = 2 companion")
    xp = spaces.chart(space, np.asarray(x, dtype=float))
    if space.kind == spaces.EUCLIDEAN:
        chart_bound = space.radius
    elif space.kind == spaces.SPHERE:
        chart_bound = np.sin(space.radius)
    else:
        chart_bound = np.sinh(space.radius)
    rho_max = chart_bound + float(np.linalg.norm(xp))
    mean = _radial_mean_factory(phantom, xp, ang_order)
    # rho log(rho) is integrable; geometric panels resolve the kink at 0,
    # uniform panels the bulk
    inner = np.concatenate([[0.0], np.geomspace(rho_max * 1e-9, rho_max / 16.0, 8)])
    edges = np.concatenate([inner, np.linspace(rho_max / 16.0, rho_max, panels + 1)[1:]])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, w = gauss_legendre(radial_order, lo, hi)
        vals = np.where(nodes > 0, nodes * np.log(np.maximum(nodes, 1e-300)), 0.0)
        total += float(np.dot(w, vals * mean(nodes)))
    return total


def phantom_integral(phantom: Phantom, radial_order: int = 64) -> float:
    """Total mass int f dy in the per-space volume measure.

    Bumps are radial about their centers, so geodesic polar coordinates
    give the exact 1-D form sigma_{n-1} int_0^r w(rho/r) s(rho)^{n-1} drho
    with s = id, sin, or sinh.
    """
    from .phantoms import bump_profile

    space = phantom.space
    n = space.n
    sigma = constants(n, space.radius).sigma
    if space.kind == spaces.EUCLIDEAN:
        s = lambda r: r
    elif space.kind == spaces.SPHERE:
        s = np.sin
    else:
        s = np.sinh
    total = 0.0
    for b in phantom.bumps:
        nodes, w = gauss_legendre(radial_order, 0.0, b.geodesic_radius)
        total += b.amplitude * float(
            np.dot(w, bump_profile(nodes / b.geodesic_radius) * s(nodes) ** (n - 1)))
    return sigma * total


# ---------------------------------------------------------------------------
# dispatch and reporting
# ---------------------------------------------------------------------------

def invert(data: MeanData, x: np.ndarray, method: str = "direct",
           fd_step: float | None = None) -> np.ndarray:
    """Reconstruct at ambient points, dispatching on space, parity, and trace tag.

    `fd_step` is accepted and ignored: every outer Laplacian is computed in
    closed form inside the back-projection, with no finite-difference step.
    The keyword stays for callers that still pass the configured step.
    """
    space = data.space
    if data.alpha is not None:
        if method != "direct":
            raise ValueError("trace data only supports the direct method")
        if space.kind == spaces.EUCLIDEAN:
            return epd_invert_euclidean(data, x)
        if space.kind == spaces.SPHERE:
            return epd_invert_sphere(data, x)
        raise ValueError("hyperboloid trace inversion is not provided")
    if method == "modified":
        return invert_euclidean_modified(data, x)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    if space.kind == spaces.EUCLIDEAN:
        if space.n % 2 == 1:
            return invert_euclidean_odd(data, x)
        return invert_euclidean_even(data, x)
    if space.kind == spaces.SPHERE:
        return invert_sphere(data, x)
    return invert_hyperbolic(data, x)


@dataclass
class ReconstructionReport:
    """Reconstruction vs ground truth on an evaluation grid."""

    points: np.ndarray
    f_true: np.ndarray
    f_rec: np.ndarray
    rel_l2: float
    sup_err: float
    calibration: float
    method: str
    seconds: float

    def __post_init__(self):
        if not (self.points.shape[0] == self.f_true.size == self.f_rec.size):
            raise ValueError("report arrays must be congruent")


def make_report(points: np.ndarray, f_true: np.ndarray, f_rec: np.ndarray,
                method: str, seconds: float = 0.0) -> ReconstructionReport:
    f_true = np.asarray(f_true, dtype=float)
    f_rec = np.asarray(f_rec, dtype=float)
    denom = float(np.linalg.norm(f_true))
    rel = float(np.linalg.norm(f_rec - f_true)) / denom if denom > 0 else float("nan")
    sup = float(np.max(np.abs(f_rec - f_true)))
    cal = float(np.dot(f_rec, f_true) / np.dot(f_true, f_true)) if denom > 0 else float("nan")
    return ReconstructionReport(np.atleast_2d(points), f_true, f_rec, rel, sup, cal,
                                method, seconds)


def chart_box_grid(space: SpaceSpec, center: np.ndarray, half_width: float,
                   points_per_axis: int, interior_margin: float = 0.02,
                   ball_radius: float | None = None) -> np.ndarray:
    """Ambient evaluation points on a chart-coordinate box grid.

    Points whose chart radius leaves the admissible interior (less a
    relative margin, which keeps points off the boundary sphere) are dropped;
    with `ball_radius` the grid is additionally clipped to a chart ball
    around `center`, which keeps box corners away from the boundary where
    the back-projection integrand needs far more centers to resolve.
    """
    center = np.asarray(center, dtype=float)
    axes = [np.linspace(c - half_width, c + half_width, points_per_axis) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if space.kind == spaces.EUCLIDEAN:
        bound = space.radius
    elif space.kind == spaces.SPHERE:
        bound = np.sin(space.radius)
    else:
        bound = np.sinh(space.radius)
    keep = (pts ** 2).sum(axis=1) < ((1.0 - interior_margin) * bound) ** 2
    if ball_radius is not None:
        keep &= ((pts - center) ** 2).sum(axis=1) <= ball_radius ** 2
    return spaces.lift(space, pts[keep])
