"""Reconstruction from boundary means in R^n, on the cap and on the hyperboloid.

`invert` is the one inversion path. It validates the request once, reduces
radial data (every centre's row equal) to one row, undoes a trace's
fractional time weighting (layer 2: Erdelyi-Kober in R^n, right-sided
Riemann-Liouville on the cap) by the index law with
`forward.trace_weighting`, filters the rows in t and, in even
dimensions, tables them against the log kernel (layers 3 and 4), and
back-projects once, with the outer Laplacian in closed form (layer 5). The
Euclidean odd/even formulas are those of Finch, Haltmeier & Rakesh (SIAM J.
Appl. Math. 68, 2007), with a Laplacian-free `modified` variant; the cap and
hyperboloid formulas apply chart Laplacians. Also report helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from . import spaces
from .forward import MeanData, trace_weighting
from .numerics import (
    CubicStencil,
    TGrid,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    log_kernel_table,
)

# Bound here only because the benchmark's tracer wraps them at this binding
# site. The inversions compute their Laplacians in closed form, so the
# laplacian_fd counters read 0; traces are undone by forward.trace_weighting,
# whose calls the tracer counts at forward's bindings of the operators.
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix  # noqa: F401
from .numerics import laplacian_fd  # noqa: F401
from .spaces import BoundaryGrid, SpaceSpec

__all__ = [
    "InversionConstants",
    "constants",
    "backproject",
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

# (point, centre) cells per back-projection block: the block's arguments,
# cubic weights and gathered values, a few arrays of 256 KiB, stay in cache
_BLOCK_CELLS = 32_768


def _observation_args(space: SpaceSpec, centers: np.ndarray):
    """The map from points x (K, dim) to their (K, m) observation arguments:
    |x - xi| in R^n, the pairing (xi, x) on the cap and the hyperboloid.

    Both come from one product x xi^T; the distance is
    sqrt(max(|x|^2 + |xi|^2 - 2 x.xi, 0)), which loses no accuracy where
    |x - xi| >= R - |x| stays well away from 0.
    """
    if space.kind == spaces.EUCLIDEAN:
        centers_t = np.ascontiguousarray(centers.T)
        centers_sq = (centers ** 2).sum(axis=1)

        def args(x: np.ndarray) -> np.ndarray:
            d2 = x @ centers_t
            d2 *= -2.0
            d2 += (x ** 2).sum(axis=1)[:, None]
            d2 += centers_sq
            np.maximum(d2, 0.0, out=d2)
            return np.sqrt(d2, out=d2)

        return args
    chart_t = np.ascontiguousarray(centers[:, :-1].T)
    height = centers[:, -1]

    def args(x: np.ndarray) -> np.ndarray:
        a = x[:, :-1] @ chart_t
        a *= space.curvature
        a += x[:, -1:] * height
        return a

    return args


def backproject(boundary: BoundaryGrid, grid: TGrid, F: np.ndarray, x: np.ndarray,
                fill: float | str) -> np.ndarray:
    """Weighted boundary average of per-center profiles at the observation args.

    F is (centers x grid), or a stack (k, centers, grid) of such tables,
    and is sampled by cubic interpolation at |x - xi| in R^n and at the
    pairing (xi, x) on the cap and the hyperboloid. A table of one row
    stands for every centre (radial data). The result is (K,) for one table
    and (k, K) for a stack; the tables of a stack share each point's
    arguments and cubic stencil. Arguments outside the grid count as zero
    with fill=0.0, and raise with fill='error'. The points run in blocks of
    about `_BLOCK_CELLS` (point, centre) pairs.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    tables = F if F.ndim == 3 else F[None]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((tables.shape[0], x.shape[0]))
    args = _observation_args(boundary.space, boundary.centers)
    block = max(1, _BLOCK_CELLS // max(boundary.m, 1))
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        stencil = CubicStencil.build(grid, args(x[lo:hi]), fill=fill)
        for j, values in enumerate(stencil(tables)):
            out[j, lo:hi] = values @ boundary.weights
    return out if F.ndim == 3 else out[0]


# Nodes a log-kernel table keeps on each side of the arguments it is read at.
# Its differences along the target axis (L_n in R^n, d/dt twice on the cap and
# the hyperboloid) are two 4th-order first differences, whose one-sided end
# formulas reach 4 nodes in, and the cubic stencil reads from one node below
# its cell to two above. Reads then need 5 nodes below the node at or below
# the smallest argument, and 6 above the node at or above the largest one,
# whose cell starts there when an argument falls on it; 6 on each side
# covers both.
_WINDOW_MARGIN = 6


def _table_grid(space: SpaceSpec, n_points: int,
                read: tuple[float, float] | None = None) -> TGrid:
    """Target grid for log-kernel tables, spanning the full open t-range.

    With read = (lo, hi), only the grid's nodes from the one at or below lo
    to the one at or above hi, plus `_WINDOW_MARGIN` nodes on each side,
    clipped to the grid.
    """
    lo, hi = space.tgrid_range
    slack = 1e-6 * (hi - lo)
    grid = TGrid.linspace(lo + slack, hi - slack, n_points)
    if read is None:
        return grid
    first = int(np.floor((read[0] - grid.a) / grid.h)) - _WINDOW_MARGIN
    last = int(np.ceil((read[1] - grid.a) / grid.h)) + _WINDOW_MARGIN
    return TGrid(grid.values[max(first, 0):min(last, grid.n - 1) + 1])


def _read_range(space: SpaceSpec, x: np.ndarray) -> tuple[float, float]:
    """Bounds of the observation arguments of the points x (K, dim) against
    any boundary centres, from the points alone.

    Every centre has |xi| = R in R^n, so |x - xi| lies in [R - |x|, R + |x|].
    On the cap and the hyperboloid every centre has height cos_k R and chart
    radius sin_k R, so (xi, x) lies in x_{n+1} cos_k R -+ sin_k R |x'|.
    Every point's bounds hold the origin's single argument (R, resp.
    cos_k R), which an empty set of points reads.
    """
    if space.kind == spaces.EUCLIDEAN:
        r = float(np.max(np.linalg.norm(x, axis=1), initial=0.0))
        return space.radius - r, space.radius + r
    c = space.cos_k(space.radius)
    spread = space.chart_radius * np.linalg.norm(x[:, :-1], axis=1)
    return (float(np.min(x[:, -1] * c - spread, initial=c)),
            float(np.max(x[:, -1] * c + spread, initial=c)))


# ---------------------------------------------------------------------------
# the inversion pipeline
# ---------------------------------------------------------------------------

# The Laplacian of x -> P(|x - xi|) is (L_n P)(|x - xi|) with the radial
# operator L_n = d^2/dt^2 + (n-1)/t d/dt, so the outer Laplacian of a
# Euclidean back-projection is the back-projection of L_n applied to its
# profiles.

def _euclidean_rows(space: SpaceSpec, grid: TGrid, values: np.ndarray, method: str,
                    read: tuple[float, float]):
    """Grid, rows and fill of the Euclidean back-projection (layers 3 and 4).

    Odd n: P = D^{n-3}[t^{n-2} means]. Even n: P is the log|t^2-s^2| table
    of t D^{n-2}[t^{n-2} means], built only on the window of the full target
    grid that arguments in `read` reach (`_table_grid`); n = 2 reproduces
    the disk formula. The direct method back-projects L_n P (along the
    table's target axis in even n); the Laplacian-free modified method
    applies L_n to the means first and back-projects P.
    """
    n, t = space.n, grid.values
    if method == "modified":
        values = darboux_L_matrix(values, grid, n)
    # t^{n-2} means stays a temporary: held through the log table, it would
    # raise the peak memory by one more (m, N) array
    if n % 2 == 1:
        out_grid, rows, fill = grid, d_operator_matrix(t ** (n - 2) * values, grid, n - 3), 0.0
    else:
        out_grid, fill = _table_grid(space, grid.n, read), "error"
        rows = log_kernel_table(t * d_operator_matrix(t ** (n - 2) * values, grid, n - 2),
                                grid, out_grid.values, kernel="log|t^2-s^2|")
    if method == "direct":
        rows = darboux_L_matrix(rows, out_grid, n)
    return out_grid, rows, fill


# Every boundary centre has the same height xi_{n+1} = cos_k R, so the
# argument a(x') = (xi, lift(x')) has a chart gradient with
# |grad a|^2 = A + B a and a chart Laplacian C that depend on the point
# alone. The chart Laplacian of the back-projection of P is then
# A BP[P''] + B BP[t P''] + C BP[P'].

def _chart_coefficients(space: SpaceSpec, xp: np.ndarray):
    """(A, B, C) at chart points xp (K, n): |grad a|^2 = A + B a, Lap a = C.

    With c = cos_k R, s = sin_k R, rho = |x'| and z = sqrt(1 - kappa rho^2):
    A = s^2 + c^2 (2 kappa + rho^2/z^2), B = -2 kappa c/z and
    C = -c (kappa n/z + rho^2/z^3).
    """
    n, k = space.n, space.curvature
    rho2 = (xp ** 2).sum(axis=-1)
    c, s, z = space.cos_k(space.radius), space.chart_radius, np.sqrt(1.0 - k * rho2)
    return (s ** 2 + c ** 2 * (2.0 * k + rho2 / z ** 2), -2.0 * k * c / z,
            -c * (k * n / z + rho2 / z ** 3))


def _curved_rows(space: SpaceSpec, grid: TGrid, values: np.ndarray,
                 read: tuple[float, float]):
    """Grid, stack (P'', t P'', P') and fill of the cap/hyperboloid
    back-projection (layers 3 and 4).

    F = means (kappa (1-t^2))^{n/2-1}. Odd n: P = F^{(n-3)}. Even n
    (including 2): P is the log|t-s| table of F^{(n-2)}, built only on the
    window of the full target grid that arguments in `read` reach.
    """
    n, t = space.n, grid.values
    F = values * (space.curvature * (1.0 - t ** 2)) ** (n / 2.0 - 1.0)
    if n % 2 == 1:
        out_grid, rows, fill = grid, diff_matrix(F, grid, n - 3), 0.0
    else:
        out_grid, fill = _table_grid(space, grid.n, read), "error"
        rows = log_kernel_table(diff_matrix(F, grid, n - 2), grid, out_grid.values,
                                kernel="log|t-s|")
    d1 = diff_matrix(rows, out_grid, 1)
    d2 = diff_matrix(d1, out_grid, 1)
    return out_grid, np.stack([d2, out_grid.values * d2, d1]), fill


def invert(data: MeanData, x: np.ndarray, method: str = "direct",
           fd_step: float | None = None) -> np.ndarray:
    """Reconstruct f at ambient points x (K, n) in R^n, (K, n+1) on the cap
    and the hyperboloid.

    R^n: f = d_{n,1} (odd n) resp. d_{n,2} (even n) times the Laplacian of
    the boundary integral of the filtered profiles. Cap and hyperboloid:
    f = d_n x_{n+1}/sin_k(R) times the chart Laplacian of the boundary
    integral of P(xi, (xi, x)), scaled by -1 (odd n) resp. 1/pi (even n).
    Points must lie strictly inside: |x| < R in R^n, kappa (x_{n+1} - cos_k R)
    > 0 on the cap and the hyperboloid. Trace data (`data.alpha` set, its
    order checked by `MeanData`) first have their fractional weighting
    undone, and then take the direct formula. Radial data, whose rows are
    all equal, run as one row through every layer, which back-projects to
    the same numbers. In even n the log-kernel table and its differences are
    built only on the targets between the points' smallest and largest
    possible arguments (`_read_range`) plus a margin; an argument outside
    that window still raises.

    `fd_step` is accepted and ignored: every outer Laplacian is computed in
    closed form inside the back-projection, with no finite-difference step.
    The keyword stays for callers that still pass the configured step.
    """
    space, alpha, n = data.space, data.alpha, data.space.n
    if method not in ("direct", "modified"):
        raise ValueError(f"unknown method {method!r}")
    if alpha is not None and method != "direct":
        raise ValueError("trace data only supports the direct method")
    if method == "modified" and space.kind != spaces.EUCLIDEAN:
        raise ValueError("modified inversion is Euclidean-only")
    x = spaces.validate_point(space, np.atleast_2d(np.asarray(x, dtype=float)))
    if space.kind == spaces.EUCLIDEAN:
        outside = np.linalg.norm(x, axis=1) >= space.radius
    else:
        outside = space.curvature * (x[:, -1] - space.cos_k(space.radius)) <= 1e-12
    if np.any(outside):
        region = "cap" if space.kind == spaces.SPHERE else "ball"
        raise ValueError(f"evaluation points must lie strictly inside the {region} of radius "
                         f"{space.radius:g}; {x[outside][0].tolist()} does not")

    values = data.values
    if np.all(values == values[0]):
        values = values[:1]
    if alpha is not None:
        # the index law: T_{eta+alpha,-alpha} undoes T_{eta,alpha}, eta = n/2 - 1
        values = trace_weighting(space, data.tgrid, values, n / 2.0 - 1.0 + alpha, -alpha)
    read = _read_range(space, x)
    if space.kind == spaces.EUCLIDEAN:
        grid, rows, fill = _euclidean_rows(space, data.tgrid, values, method, read)
    else:
        grid, rows, fill = _curved_rows(space, data.tgrid, values, read)
    f0 = backproject(data.boundary, grid, rows, x, fill=fill)

    c = constants(n, space.radius)
    if space.kind == spaces.EUCLIDEAN:
        return (c.d_n1 if n % 2 == 1 else c.d_n2) * space.boundary_area * f0
    p2, tp2, p1 = f0
    A, B, C = _chart_coefficients(space, spaces.chart(space, x))
    scale = -1.0 if n % 2 == 1 else 1.0 / np.pi
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    return c.d_curved * x[:, -1] / space.chart_radius * lap


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

# share of the chart radius kept free between evaluation points and the boundary
_INTERIOR_MARGIN = 0.02


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
                   points_per_axis: int, ball_radius: float | None = None) -> np.ndarray:
    """Ambient evaluation points on a chart-coordinate box grid.

    Points whose chart radius leaves the admissible interior (less the
    relative margin `_INTERIOR_MARGIN`, which keeps points off the boundary
    sphere) are dropped;
    with `ball_radius` the grid is additionally clipped to a chart ball
    around `center`, which keeps box corners away from the boundary where
    the back-projection integrand needs far more centers to resolve.
    """
    center = np.asarray(center, dtype=float)
    axes = [np.linspace(c - half_width, c + half_width, points_per_axis) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = (pts ** 2).sum(axis=1) < ((1.0 - _INTERIOR_MARGIN) * space.chart_radius) ** 2
    if ball_radius is not None:
        keep &= ((pts - center) ** 2).sum(axis=1) <= ball_radius ** 2
    return spaces.lift(space, pts[keep])
