"""Reconstruction from boundary means in R^n, on the cap and on the hyperboloid.

`invert` is the one inversion path. It validates the request once and
runs the distinct rows of the means (`MeanData.rows`, one row for radial
data): it undoes a trace's fractional time weighting (layer 2:
Erdelyi-Kober in R^n, right-sided Riemann-Liouville on the cap) by the
index law with `forward.trace_weighting`, filters the rows in t and, in
even dimensions, tables them against the log kernel (layers 3 and 4, one
row builder for all three spaces), and back-projects once, with the outer
Laplacian in closed form (layer 5), the one step that differs by space.
The result is one constant (`_prefactor`) times that Laplacian. The
Euclidean odd/even formulas are those of Finch, Haltmeier & Rakesh (SIAM J.
Appl. Math. 68, 2007), with a Laplacian-free `modified` variant; the cap and
hyperboloid formulas apply chart Laplacians. Also report helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, gamma

import numpy as np

from . import spaces
from .forward import MeanData, trace_weighting
from .numerics import (
    TGrid,
    _diff1,
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
    "backproject",
    "invert",
    "ReconstructionReport",
    "make_report",
    "chart_box_grid",
]


# ---------------------------------------------------------------------------
# back-projection
# ---------------------------------------------------------------------------

# (point, centre) cells per back-projection block. A block holds every
# point and b = max(1, _BLOCK_CELLS // max(K, N)) centres, for K points and
# N grid nodes: its arguments, cells, gathers and values, a few (K, b)
# arrays of up to 256 KiB, and a table's three (b, N) difference planes
# stay in cache
_BLOCK_CELLS = 32_768


def _observation_args(space: SpaceSpec, x: np.ndarray):
    """The map from a block of boundary centres (b, dim) to the observation
    arguments (K, b) of the points x (K, dim): |x - xi| in R^n, the pairing
    (xi, x) on the cap and the hyperboloid.

    Both come from one product x xi^T, and whatever depends on the points
    alone is taken once; the distance is sqrt(max(|x|^2 + |xi|^2 - 2 x.xi, 0)),
    which loses no accuracy where |x - xi| >= R - |x| stays well away from 0.
    """
    if space.kind == spaces.EUCLIDEAN:
        x_sq = (x ** 2).sum(axis=1)[:, None]

        def args(centers: np.ndarray) -> np.ndarray:
            d2 = x @ centers.T
            d2 *= -2.0
            d2 += x_sq
            d2 += (centers ** 2).sum(axis=1)
            np.maximum(d2, 0.0, out=d2)
            return np.sqrt(d2, out=d2)

        return args
    chart, height = np.ascontiguousarray(x[:, :-1]), x[:, -1:]

    def args(centers: np.ndarray) -> np.ndarray:
        a = chart @ centers[:, :-1].T
        a *= space.curvature
        a += height * centers[:, -1]
        return a

    return args


def _differences(rows: np.ndarray, first: int, width: int, out: np.ndarray) -> np.ndarray:
    """The forward differences Dg, D^2g and D^3g of rows (b, N) into out
    (3, b, N), in the columns first, ..., first + width - 1 that width cells
    from node `first` on read: column j of the planes and of the rows holds
    the Newton coefficients of the cubic through the nodes j, ..., j + 3.
    The other columns are left as they were."""
    window = rows[:, first:first + width + 3]
    d1, d2, d3 = (plane[:, first:first + width + 3 - k] for k, plane in enumerate(out, 1))
    np.subtract(window[:, 1:], window[:, :-1], out=d1)
    np.subtract(d1[:, 1:], d1[:, :-1], out=d2)
    np.subtract(d2[:, 1:], d2[:, :-1], out=d3)
    return out


def backproject(boundary: BoundaryGrid, grid: TGrid, F: np.ndarray, x: np.ndarray,
                fill: float | str, times_t: bool = False) -> np.ndarray:
    """Weighted boundary average of per-center profiles at the observation args.

    F is (centers x grid), or a stack (k, centers, grid) of such tables,
    and is sampled by cubic interpolation at |x - xi| in R^n and at the
    pairing (xi, x) on the cap and the hyperboloid. A table of one row
    stands for every centre (radial data). The result is (K,) for one table
    and (k, K) for a stack. Arguments outside the grid count as zero with
    fill=0.0, and raise with fill='error'. With times_t the result gains
    one more row at the end, (2, K) for one table: the back-projection of
    t times the first table, from the values gathered for it. The cubic
    through the nodes' t_i g_i is t p(t) less p's leading coefficient times
    the nodes' polynomial, so it reads a p(a) - h (D^3g/6) (s+1) s (s-1) (s-2)
    at a = t_j + s h.

    The centres run in blocks, each against every point (`_BLOCK_CELLS`).
    A block's table rows become Newton forward differences on the columns
    its cells reach, and each cell reads its cubic in nested form,
    g + (s+1) (Dg + s/2 (D^2g + (s-1)/3 D^3g)), from four gathers at one flat
    index: the stencil's first node plus the row's offset, or the node
    alone in a one-row table, which is differenced once. Each block's
    values add into the result by one product against its boundary
    weights.
    """
    if fill not in (0.0, "error"):
        raise ValueError("fill must be 0.0 or 'error'")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    tables = np.ascontiguousarray(F if F.ndim == 3 else F[None])
    x = np.atleast_2d(np.asarray(x, dtype=float))
    (K, m, N), radial = (x.shape[0], boundary.m, grid.n), tables.shape[1] == 1
    if tables.shape[1:] not in ((m, N), (1, N)):
        raise ValueError("need tables (centres, N) on the grid, or one row")
    out = np.zeros((tables.shape[0] + times_t, K))
    result = out if F.ndim == 3 or times_t else out[0]
    if K == 0:
        return result
    args = _observation_args(boundary.space, x)
    block = max(1, _BLOCK_CELLS // max(K, N))
    if radial:
        diffs = [_differences(table, 0, N - 3, np.empty((3, 1, N))) for table in tables]
    else:
        spare = np.empty((3, min(block, m), N))
    values = np.empty((out.shape[0], K, min(block, m)))
    a0, h = grid.a, grid.h

    def first_node(arg: float) -> int:
        # the stencil's first node at one argument, as for the cells below
        return min(max(floor((arg - a0) / h), 1), N - 3) - 1

    for lo in range(0, m, block):
        hi = min(lo + block, m)
        a = args(boundary.centers[lo:hi])
        low, high = a.min(), a.max()
        everywhere = low >= a0 and high <= grid.b
        if not everywhere:
            if fill == "error":
                raise ValueError("interpolation point outside grid range")
            inside = (a >= a0) & (a <= grid.b)
            # the arguments off the grid read the first cell
            a = np.where(inside, a, a0)
            low, high = a0, a.max()
        # cell j covers [t_j, t_j+1), the end cells reach one cell further
        # out, and s = (a - t_j)/h; the cubic's nodes are j-1, ..., j+2
        s = a - a0
        s /= h
        node = np.floor(s)
        np.clip(node, 1.0, N - 3.0, out=node)
        s -= node
        node -= 1.0
        if not radial:
            first = first_node(low)
            width = first_node(high) - first + 1
            node += np.arange(0.0, (hi - lo) * N, N)
        cell = node.astype(np.intp)
        third, term = np.empty_like(s), np.empty_like(s)
        f1, f2, f3 = s + 1.0, s * 0.5, (s - 1.0) / 3.0  # the nested form's factors
        vals = values[:, :, :hi - lo]
        for j, (table, acc) in enumerate(zip(tables, vals)):
            rows = table if radial else table[lo:hi]
            d = diffs[j] if radial else _differences(rows, first, width, spare[:, :hi - lo])
            # the cells keep every index in range; mode="clip" only spares
            # the buffered copy that mode="raise" makes of `out`
            np.take(d[2].ravel(), cell, out=third, mode="clip")
            np.multiply(third, f3, out=acc)
            for plane, factor in ((d[1], f2), (d[0], f1), (rows, None)):
                acc += np.take(plane.ravel(), cell, out=term, mode="clip")
                if factor is not None:
                    acc *= factor
            if times_t and j == 0:
                # h (D^3g/6) (s+1) s (s-1) (s-2) = h D^3g f1 f2 f3 (s-2)
                third *= f1
                third *= f2
                third *= f3
                np.subtract(s, 2.0, out=term)
                third *= term
                third *= h
                np.multiply(a, acc, out=vals[-1])
                vals[-1] -= third
        if not everywhere:
            vals *= inside
        out += vals @ boundary.weights[lo:hi]
    return result


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

def _section_weight(space: SpaceSpec, t: np.ndarray) -> np.ndarray:
    """sin_k(r)^{n-2} at the grid's arguments t: t^{n-2} in R^n,
    (kappa (1-t^2))^{n/2-1} on the cap and the hyperboloid."""
    n = space.n
    if space.kind == spaces.EUCLIDEAN:
        return t ** (n - 2)
    return (space.curvature * (1.0 - t ** 2)) ** (n / 2.0 - 1.0)


def _rows(space: SpaceSpec, grid: TGrid, values: np.ndarray, read: tuple[float, float]):
    """Grid, rows P and fill of the back-projection (layers 3 and 4), in R^n,
    on the cap and on the hyperboloid.

    F = sin_k(r)^{n-2} means. The filter is d/da in the pairing variable up
    to a constant: D = (1/2t) d/dt in R^n, d/dt on the curved grids. Odd n:
    P = filter^{n-3} F on the data grid, and arguments off it read 0. Even
    n: P is the log-kernel table (log|t^2-s^2| in R^n, log|t-s| on the
    curved grids) of filter^{n-2} F, times t in R^n, built only on the
    window of the full target grid that arguments in `read` reach
    (`_table_grid`); an argument off it raises. n = 2 reproduces the disk
    formula.
    """
    n, euclidean = space.n, space.kind == spaces.EUCLIDEAN
    filt = d_operator_matrix if euclidean else diff_matrix
    # F stays a temporary: held through the log table, it would raise the
    # peak memory by one more (m, N) array
    rows = filt(_section_weight(space, grid.values) * values, grid, n - 3 if n % 2 else n - 2)
    if n % 2 == 1:
        return grid, rows, 0.0
    if euclidean:
        # rows is F or the filter's own array, never the caller's means
        rows *= grid.values
    out_grid = _table_grid(space, grid.n, read)
    kernel = "log|t^2-s^2|" if euclidean else "log|t-s|"
    return out_grid, log_kernel_table(rows, grid, out_grid.values, kernel=kernel), "error"


def _prefactor(space: SpaceSpec) -> float:
    """The constant of the inversion formula: d_{n,1} (odd n) resp. d_{n,2}
    (even n) in R^n, d_n on the cap and the hyperboloid."""
    n, g = space.n, gamma(space.n / 2.0)
    if space.kind != spaces.EUCLIDEAN:
        return (-1.0) ** (n // 2 - 1) / (2.0 ** (n - 1) * np.pi ** (n / 2.0 - 1.0) * g)
    if n % 2 == 1:
        return (-1.0) ** ((n - 1) // 2) * np.pi ** (1 - n / 2.0) / (4.0 * space.radius * g)
    return (-1.0) ** (n // 2 - 1) * np.pi ** (-n / 2.0) / (2.0 * space.radius * g)


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
    undone, and then take the direct formula. Only the distinct rows
    `data.rows` run through the layers: radial data, whose rows are all
    equal, run as one row, which back-projects to the same numbers. In even
    n the log-kernel table and its differences are built only on the
    targets between the points' smallest and largest possible arguments
    (`_read_range`) plus a margin; an argument outside that window still
    raises.

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

    values = data.rows
    if alpha is not None:
        # the index law: T_{eta+alpha,-alpha} undoes T_{eta,alpha}, eta = n/2 - 1
        values = trace_weighting(space, data.tgrid, values, n / 2.0 - 1.0 + alpha, -alpha)
    if method == "modified":
        values = darboux_L_matrix(values, data.tgrid, n)
    grid, rows, fill = _rows(space, data.tgrid, values, _read_range(space, x))
    if space.kind == spaces.EUCLIDEAN:
        if method == "direct":
            # The Laplacian of x -> P(|x - xi|) is (L_n P)(|x - xi|), with
            # L_n = d^2/dt^2 + (n-1)/t d/dt: the direct formula back-projects
            # L_n P (along the target axis of the even table), the modified
            # one has applied L_n to the means. rows is never the caller's
            # means, so L_n may write over it.
            rows = darboux_L_matrix(rows, grid, n, _overwrite=True)
    else:
        # the stack (P'', P') is filled in place: P' into its last slot, P''
        # from it; rebinding rows frees P before the back-projection, which
        # adds BP[t P''] from the values it gathers for P''
        stack = np.empty((2,) + rows.shape)
        _diff1(rows, grid.h, out=stack[1])
        _diff1(stack[1], grid.h, out=stack[0])
        rows = stack
    f0 = backproject(data.boundary, grid, rows, x, fill=fill,
                     times_t=space.kind != spaces.EUCLIDEAN)

    d = _prefactor(space)
    if space.kind == spaces.EUCLIDEAN:
        return d * space.boundary_area * f0
    p2, p1, tp2 = f0
    A, B, C = _chart_coefficients(space, spaces.chart(space, x))
    scale = -1.0 if n % 2 == 1 else 1.0 / np.pi
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    return d * x[:, -1] / space.chart_radius * lap


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

# share of the chart radius kept free between evaluation points and the boundary
_INTERIOR_MARGIN = 0.02


@dataclass(eq=False)
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
