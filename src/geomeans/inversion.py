"""Reconstruction from boundary means in R^n, on the cap and on the hyperboloid.

`invert` is the one inversion path. It validates the request once and
runs the distinct rows of the means (`MeanData.rows`, one row for radial
data): it undoes a trace's fractional time weighting (layer 2:
Erdelyi-Kober in R^n, right-sided Riemann-Liouville on the cap) by the
index law with `forward.trace_weighting`, filters the rows in t and, in
even dimensions, tables them against the log kernel (layers 3 and 4, the
same steps in all three spaces), and back-projects once, with the outer
Laplacian in closed form (layer 5), the one step that differs by space.
The back-projection takes one input form, a source of the filtered rows of
each block of centres, which it pulls as it reaches them, so only the
operator products of layers 2 and 4 run on every row at once; radial data
back-project on a zonal grid (`_zonal`). In odd dimensions layers 2 and 3
run only on the t-columns that the back-projection reads, and it reads them
against the whole t-grid; one window function (`_read_window`) gives those
columns and even n's table targets, from the points' argument bounds, and
rejects a t-grid too coarse for them.
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
    _widen,
    d_operator_matrix,
    darboux_L_matrix,
    diff_matrix,
    gauss_jacobi,
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
    "validate_method",
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
    arguments (K, b) of the points x (K, dim), into `out`: |x - xi| in R^n,
    the pairing (xi, x) on the cap and the hyperboloid.

    Both come from one product x xi^T, and whatever depends on the points
    alone is taken once; the distance is sqrt(max(|x|^2 + |xi|^2 - 2 x.xi, 0)),
    which loses no accuracy where |x - xi| >= R - |x| stays well away from 0.
    """
    if space.kind == spaces.EUCLIDEAN:
        x_sq = (x ** 2).sum(axis=1)[:, None]

        def args(centers: np.ndarray, out: np.ndarray) -> np.ndarray:
            d2 = np.matmul(x, centers.T, out=out)
            d2 *= -2.0
            d2 += x_sq
            d2 += (centers ** 2).sum(axis=1)
            np.maximum(d2, 0.0, out=d2)
            return np.sqrt(d2, out=d2)

        return args
    chart, height = np.ascontiguousarray(x[:, :-1]), x[:, -1:]

    def args(centers: np.ndarray, out: np.ndarray) -> np.ndarray:
        a = np.matmul(chart, centers[:, :-1].T, out=out)
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


def _tables(block, shape: tuple, count: int | None = None) -> list[np.ndarray]:
    """A source's block of tables as a list of float tables, each of the
    `shape` (and `count` of them, when it is given)."""
    # the flat gathers need C-contiguous tables
    tables = [np.ascontiguousarray(table, dtype=float) for table in block]
    if not tables or any(t.shape != shape for t in tables) or count not in (None, len(tables)):
        raise ValueError("need tables (centres, N) on the grid, all of one shape")
    return tables


def backproject(boundary: BoundaryGrid, grid: TGrid, rows, x: np.ndarray,
                fill: float | str, times_t: bool = False,
                columns: slice = slice(None)) -> np.ndarray:
    """Weighted boundary average of per-center profiles at the observation args.

    rows is the block source of k tables on the grid's nodes `columns`
    (every node by default): rows(lo, hi) returns a sequence of k tables,
    each (hi - lo, those nodes), for the centres lo to hi - 1.
    It is called once per block of centres, in order (with no points, for
    the first block alone), so that its caller never needs every centre's
    rows at once. Each table is sampled by cubic interpolation at |x - xi|
    in R^n and at the pairing (xi, x) on the cap and the hyperboloid. The
    result is (k + times_t, K), one row per table. Arguments outside the
    grid count as zero with fill=0.0. With fill='error' they raise at the
    first block of centres that reads one, naming the first point there
    that does, its argument and the grid's ends. With times_t the last row
    is the back-projection of t times the first table, from the values
    gathered for it. The cubic through the nodes' t_i g_i is t p(t) less
    p's leading coefficient times the nodes' polynomial, so it reads
    a p(a) - h (D^3g/6) (s+1) s (s-1) (s-2) at a = t_j + s h.

    The centres run in blocks, each against every point (`_BLOCK_CELLS`).
    A block's table rows become Newton forward differences on the columns
    its cells reach, and each cell reads its cubic in nested form,
    g + (s+1) (Dg + s/2 (D^2g + (s-1)/3 D^3g)), from four gathers at the
    stencil's first node plus the row's offset. Each block's values add
    into the result by one product against its boundary weights. Every cell
    and every s is taken on the whole grid, whatever `columns`: the tables
    must hold the stencil of every argument on the grid. Arguments off it
    read the first cell of the columns.
    """
    if fill not in (0.0, "error"):
        raise ValueError("fill must be 0.0 or 'error'")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    K, m, N = x.shape[0], boundary.m, grid.n
    c0, c1, _ = columns.indices(N)
    W = c1 - c0
    block = max(1, _BLOCK_CELLS // max(K, N))
    b = min(block, m)
    tables = _tables(rows(0, b), (b, W))
    count = len(tables)
    out = np.zeros((count + times_t, K))
    if K == 0:
        return out
    args = _observation_args(boundary.space, x)
    spare = np.empty((3, b, W))
    values = np.empty((out.shape[0], K, b))
    # Every block reuses one set of the cells' arrays. Made afresh for each
    # block, between a source's rows, they left the heap's top free for the
    # allocator to return, and each block faulted its pages in again: the
    # benchmark's odd_3d_files invert_s read 13% above whole tables. Seven
    # arrays of a block's size, not one seven times as large: that one, once
    # freed, raised the allocator's mapping threshold for the calls after,
    # and highdim_4d's repeated forward steps read 7-10% slower
    work = [np.empty(K * b) for _ in range(7)]
    cells = np.empty(K * b, dtype=np.intp)
    a0, h = grid.a, grid.h

    def first_node(arg: float) -> int:
        # the stencil's first column at one argument, as for the cells below
        return min(max(floor((arg - a0) / h), c0 + 1), c1 - 3) - 1 - c0

    for lo in range(0, m, block):
        hi = min(lo + block, m)
        if lo:
            tables = _tables(rows(lo, hi), (hi - lo, W), count)
        a, s, node, third, term, f1, f2 = (w[:K * (hi - lo)].reshape(K, hi - lo) for w in work)
        a = args(boundary.centers[lo:hi], out=a)
        low, high = a.min(), a.max()
        everywhere = low >= a0 and high <= grid.b
        if not everywhere:
            inside = (a >= a0) & (a <= grid.b)
            if fill == "error":
                i, j = np.argwhere(~inside)[0]
                raise ValueError(f"point {i} {x[i].tolist()} reads argument {float(a[i, j])!r} "
                                 f"outside the grid [{a0!r}, {grid.b!r}]")
            # the arguments off the grid read the first cell of the columns
            a = np.where(inside, a, a0)
            low, high = a0, a.max()
        # cell j covers [t_j, t_j+1), the end cells of the columns reach one
        # cell further out, and s = (a - t_j)/h; the cubic's nodes are j-1,
        # ..., j+2, which sit in column j - 1 - c0 on
        np.subtract(a, a0, out=s)
        s /= h
        np.floor(s, out=node)
        np.clip(node, c0 + 1.0, c1 - 3.0, out=node)
        s -= node
        node -= 1.0 + c0
        first = first_node(low)
        width = first_node(high) - first + 1
        node += np.arange(0.0, (hi - lo) * W, W)
        cell = cells[:K * (hi - lo)].reshape(K, hi - lo)
        np.copyto(cell, node, casting="unsafe")
        # the nested form's factors s + 1, s/2 and (s - 1)/3, the last one
        # over the nodes, which are read no further
        f3 = node
        np.add(s, 1.0, out=f1)
        np.multiply(s, 0.5, out=f2)
        np.subtract(s, 1.0, out=f3)
        f3 /= 3.0
        vals = values[:, :, :hi - lo]
        for j, (table, acc) in enumerate(zip(tables, vals)):
            d = _differences(table, first, width, spare[:, :table.shape[0]])
            # the cells keep every index in range; mode="clip" only spares
            # the buffered copy that mode="raise" makes of `out`
            np.take(d[2].ravel(), cell, out=third, mode="clip")
            np.multiply(third, f3, out=acc)
            for plane, factor in ((d[1], f2), (d[0], f1), (table, None)):
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
        # a block's own tables go before the source makes the next block's
        del table, plane, tables
    return out


def _read_nodes(grid: TGrid, read: tuple[float, float]) -> tuple[float, float]:
    """The data grid's node at or below read[0] and the one at or above
    read[1], in steps (b - a)/(N - 1) from a; either may lie off the grid.
    Reads that all lie in the grid's first or last cell, or beyond it, or
    that span an interval inside one of its cells raise, naming t_points:
    the grid is too coarse to resolve them. A single argument (the origin
    alone, or no points) spans no interval."""
    a, b, N = float(grid.a), float(grid.b), grid.n
    step = (b - a) / (N - 1)
    first = np.floor((read[0] - a) / step)
    last = np.ceil((read[1] - a) / step)
    if last <= 1:
        cell = f"first cell {[a, a + step]} or beyond it"
    elif first >= N - 2:
        cell = f"last cell {[b - step, b]} or beyond it"
    elif last - first <= 1 and read[0] < read[1]:
        cell = f"cell {[a + float(first) * step, a + float(last) * step]}"
    else:
        return first, last
    raise ValueError(f"t_points {N} put every argument the points read in the t-grid's "
                     f"{cell}: too coarse a grid for them")


def _read_window(grid: TGrid, read: tuple[float, float], passes: int, start: int,
                 stop: int) -> tuple[int, int]:
    """The window (first node, one past the last), in steps (b - a)/(N - 1)
    from the data grid's a and within [start, stop), that reads over
    read = (lo, hi) need computed when `passes` difference passes follow:
    from the node at or below lo to the one at or above hi (`_read_nodes`,
    which rejects too coarse a grid), widened by the cubic stencil's reach
    of 2 and by 2 nodes per pass (`numerics._widen`). A cell's stencil
    starts one node below it and ends two above; one more node on each side
    takes an argument that rounds past lo or hi into the next cell."""
    first, last = _read_nodes(grid, read)
    return _widen(int(first), int(last) + 1, 2 + 2 * passes, start, stop)


def _table_grid(space: SpaceSpec, grid: TGrid, read: tuple[float, float]) -> TGrid:
    """Target grid for log-kernel tables of rows on the data grid `grid` that
    are read over read = (lo, hi). The full target grid is the data grid's
    lattice a + k h (h = (b - a)/(N - 1), k any integer) from the first node
    below the open t-range to the first above it: the data grid's own nodes,
    extended by whole steps, so every argument inside the range lies on it.
    In R^n it starts at the first node above 0 instead, where the radial
    operator's (n - 1)/t is defined. Of those, the window is `_read_window`'s
    for the pair of difference passes along the target axis (L_n in R^n,
    d/dt twice on the cap and the hyperboloid), between the full grid's ends.
    """
    lo, hi = space.tgrid_range
    a, b, N = float(grid.a), float(grid.b), grid.n
    step = (b - a) / (N - 1)
    # the full grid's end nodes, counted from the data grid's ends: a grid
    # that ends on the range's end (the hyperboloid's cosh 2R) takes the
    # node one step past it, whatever the rounding
    below = -np.floor((a - lo) / step) - 1
    if space.kind == spaces.EUCLIDEAN:
        below += 1 if a + (below + 1) * step > 0 else 2
    above = N + np.floor((hi - b) / step)
    first, stop = _read_window(grid, read, 2, int(below), int(above) + 1)
    return TGrid(a + np.arange(first, stop) * step)


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


def _zonal(space: SpaceSpec, x: np.ndarray, q: int) -> tuple[BoundaryGrid, np.ndarray]:
    """The zonal boundary grid of q centres chart_radius (u_q, sqrt(1 - u_q^2),
    0, ...), at height cos_k R off R^n, and the points x turned onto its axis,
    (|x'|, 0, ..., 0), keeping x_{n+1}. With every centre's row the same, the
    boundary average at x depends on a centre only through u = omega . x'/|x'|,
    of density (1 - u^2)^((n-3)/2): one integral in u, which the u_q sum by
    that weight's Gauss-Jacobi rule (Chebyshev's at n = 2)."""
    n = space.n
    u, w = gauss_jacobi(q, (n - 3) / 2.0, (n - 3) / 2.0)
    centers = np.zeros((q, x.shape[1]))
    centers[:, :2] = space.chart_radius * np.stack([u, np.sqrt(1.0 - u ** 2)], axis=1)
    if space.kind != spaces.EUCLIDEAN:
        centers[:, n] = space.cos_k(space.radius)
    turned = np.zeros_like(x)
    turned[:, 0] = np.linalg.norm(x[:, :n], axis=1)
    turned[:, n:] = x[:, n:]
    return BoundaryGrid(space, centers, w / w.sum()), turned


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


def _filtered(space: SpaceSpec, grid: TGrid, values: np.ndarray, method: str,
              columns: slice = slice(None)) -> np.ndarray:
    """Layer 3 on rows of the means at the grid's nodes `columns` (every
    node by default), in R^n, on the cap and on the hyperboloid: filter^k F,
    always a new array, never the caller's means.

    F = sin_k(r)^{n-2} times the means, or times L_n of them for the
    `modified` formula. The filter is d/da in the pairing variable up to a
    constant: D = (1/2t) d/dt in R^n, d/dt on the curved grids; k = n - 3
    for odd n and n - 2 for even n. Every step works row by row, so the
    rows of a block of centres come out as they do from all rows at once,
    and a window's passes leave inexact only the columns that
    `numerics._widen` adds.
    """
    n = space.n
    if method == "modified":
        values = darboux_L_matrix(values, grid, n, columns)
    weighted = _section_weight(space, grid.values)[columns] * values
    k = n - 3 if n % 2 else n - 2
    if space.kind == spaces.EUCLIDEAN:
        return d_operator_matrix(weighted, grid, k, columns)
    return diff_matrix(weighted, grid, k)


def _log_table(space: SpaceSpec, grid: TGrid, values: np.ndarray, method: str,
               read: tuple[float, float]):
    """Layers 3 and 4 of even n: the target grid and the log-kernel table of
    the filtered rows of the means (log|t^2-s^2| in R^n, of the rows times
    t; log|t-s| on the curved grids). The filter runs on blocks of rows into
    the one array that the table reads, so none of its temporaries holds
    every row. The table is built only on the window of the full target
    grid that arguments in `read` reach (`_table_grid`); an argument off it
    raises. n = 2 reproduces the disk formula.
    """
    out_grid = _table_grid(space, grid, read)
    rows = np.empty(values.shape)
    size = max(1, _BLOCK_CELLS // grid.n)
    for lo in range(0, len(values), size):
        rows[lo:lo + size] = _filtered(space, grid, values[lo:lo + size], method)
    if space.kind == spaces.EUCLIDEAN:
        rows *= grid.values
    kernel = "log|t^2-s^2|" if space.kind == spaces.EUCLIDEAN else "log|t-s|"
    return out_grid, log_kernel_table(rows, grid, out_grid.values, kernel=kernel)


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


def validate_method(space: SpaceSpec, alpha: float | None, method: str, name: str) -> None:
    """Reject an inversion method that does not apply, naming the field:
    'direct' or 'modified', and only 'direct' for traces (alpha set) and
    off R^n."""
    if method not in ("direct", "modified"):
        raise ValueError(f"{name}: unknown method {method!r}; pick 'direct' or 'modified'")
    if alpha is not None and method != "direct":
        raise ValueError(f"{name}: trace data only supports the direct method")
    if method == "modified" and space.kind != spaces.EUCLIDEAN:
        raise ValueError(f"{name}: modified inversion is Euclidean-only")


def invert(data: MeanData, x: np.ndarray, method: str = "direct",
           fd_step: float | None = None) -> np.ndarray:
    """Reconstruct f at ambient points x (K, n) in R^n, (K, n+1) on the cap
    and the hyperboloid.

    R^n: f = d_{n,1} (odd n) resp. d_{n,2} (even n) times the Laplacian of
    the boundary integral of the filtered profiles. Cap and hyperboloid:
    f = d_n x_{n+1}/sin_k(R) times the chart Laplacian of the boundary
    integral of P(xi, (xi, x)), scaled by -1 (odd n) resp. 1/pi (even n).
    Points must lie strictly inside: |x| < R in R^n, kappa (x_{n+1} - cos_k R)
    > 0 on the cap and the hyperboloid. In even n they read the full
    log-table grid (`_table_grid`), which runs one data step past the
    t-range's ends on the cap and the hyperboloid and starts at its first
    node above 0 in R^n: a point that reads below that node raises, named.
    In odd n arguments off the t-grid read 0. In both, a t-grid so coarse
    that all the points' arguments fall in its first or last cell, or
    beyond it, or in one interior cell raises, naming t_points. Trace data
    (`data.alpha` set, its order checked by `MeanData`) first have their
    fractional weighting undone, and then take the direct formula. Only
    the distinct rows `data.rows` run through the layers. Radial data (all
    rows equal) back-project on `_zonal`'s grid of one centre per node of
    the back-projection's grid, not on `data.boundary`, the points turned
    onto its axis (an argument off the grid names the turned point); the
    one row's tables are made once and repeated to every block of centres.

    Two steps run once over every distinct row: the undoing of a trace's
    weighting (layer 2, an operator product save at integer EK orders) and,
    in even n, the log-kernel table (layer 4), an operator built only on
    the targets that the points' smallest and largest possible arguments
    (`_read_range`) read (`_table_grid`); an argument outside that window
    still raises. The even-n filter that feeds the table runs on blocks of
    rows into the one array the table reads. Every other step works row by row,
    so the back-projection pulls its rows block by block from a source: the
    section weighting and the t-filter (odd n, after L_n for `modified`) or
    the block's slice of the table (even n), then the pair of derivative
    passes, on the block's centres alone. No (m, N) array is made after
    those two steps.

    In odd n every step before the back-projection runs on one window of
    the t-grid's nodes: `_read_window`'s for the n - 1 difference passes
    after layer 2 (`numerics._widen` states the rule). The trace undo
    builds its operator's rows only there (an integer order reads only the
    columns below its end) and differentiates only the nodes they read; the
    back-projection reads the window against the whole grid's a and h. Each
    window column holds the whole-grid route's bits. A float overflow in
    these layers raises a ValueError naming the means' largest |value|.

    `fd_step` is accepted and ignored: every outer Laplacian is computed in
    closed form inside the back-projection, with no finite-difference step.
    The keyword stays for callers that still pass the configured step.
    """
    space, alpha, n = data.space, data.alpha, data.space.n
    validate_method(space, alpha, method, "method")
    x = spaces.validate_point(space, np.atleast_2d(np.asarray(x, dtype=float)))
    if space.kind == spaces.EUCLIDEAN:
        outside = np.linalg.norm(x, axis=1) >= space.radius
    else:
        outside = space.curvature * (x[:, -1] - space.cos_k(space.radius)) <= 1e-12
    if np.any(outside):
        region = "cap" if space.kind == spaces.SPHERE else "ball"
        raise ValueError(f"evaluation points must lie strictly inside the {region} of radius "
                         f"{space.radius:g}; {x[outside][0].tolist()} does not")
    try:
        with np.errstate(over="raise"):
            values, grid, fill, read = data.rows, data.tgrid, 0.0, _read_range(space, x)
            # odd n computes layers 2 and 3 on the nodes the back-projection reads,
            # widened by the n - 1 difference passes after layer 2: L_n or the
            # derivative pair, and the filter's n - 3; even n's table reads all
            columns = slice(*_read_window(grid, read, n - 1, 0, grid.n)) if n % 2 else slice(None)
            if alpha is not None:
                # the index law: T_{eta+alpha,-alpha} undoes T_{eta,alpha}, eta = n/2 - 1
                values = trace_weighting(space, grid, values, n / 2.0 - 1.0 + alpha, -alpha,
                                         columns=columns)
            else:
                values = values[:, columns]
            if n % 2 == 0:
                grid, values = _log_table(space, grid, values, method, read)
                fill = "error"

            def tables(P: np.ndarray):
                # the tables of the rows P: layer 3 on means in odd n, rows of
                # invert's own table in even n (overwritten there)
                if n % 2:
                    P = _filtered(space, grid, P, method, columns)
                if method == "modified":
                    return (P,)
                # The Laplacian of x -> P(arg(xi, x)) is P''(arg) |grad arg|^2 +
                # P'(arg) Lap arg. One pair of passes gives P', then P'' over P. In
                # R^n this is the back-projection of L_n P = P'' + (n-1)/t P', formed
                # in place as `darboux_L_matrix` forms it (along the target axis of
                # the even table); the modified formula has applied L_n to the means.
                # On the cap and the hyperboloid the back-projection adds BP[t P'']
                # from the values it gathers for P''.
                first = _diff1(P, grid.h)
                P = _diff1(first, grid.h, out=P)
                if space.kind != spaces.EUCLIDEAN:
                    return P, first
                first *= (n - 1) / grid.values[columns]
                P += first
                return (P,)

            boundary, points = data.boundary, x
            if values.shape[0] == 1:
                # every zonal centre takes the one row's tables; the passes work
                # row by row, so its copies keep the bits of tables made per block
                boundary, points = _zonal(space, x, grid.n)
                one = tables(values)

                def rows(lo: int, hi: int):
                    return [np.repeat(table, hi - lo, axis=0) for table in one]
            else:
                def rows(lo: int, hi: int):
                    return tables(values[lo:hi])

            f0 = backproject(boundary, grid, rows, points, fill=fill,
                             times_t=space.kind != spaces.EUCLIDEAN, columns=columns)

            d = _prefactor(space)
            if space.kind == spaces.EUCLIDEAN:
                return d * space.boundary_area * f0[0]
            p2, p1, tp2 = f0
            A, B, C = _chart_coefficients(space, spaces.chart(space, x))
            scale = -1.0 if n % 2 == 1 else 1.0 / np.pi
            lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
            return d * x[:, -1] / space.chart_radius * lap
    except FloatingPointError as e:
        raise ValueError(f"the inversion overflows the float range ({e}) on means of largest "
                         f"|value| {np.max(np.abs(data.rows)):.6g}") from None


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
    sup = float(np.max(np.abs(f_rec - f_true)))
    # the ratios come from both arrays scaled by 2^-e, max|f_true| = q 2^e
    # with q in [0.5, 1): exact, so they keep their bits, and no sum of
    # squares overflows
    e = np.frexp(np.max(np.abs(f_true), initial=0.0))[1]
    true, rec = np.ldexp(f_true, -e), np.ldexp(f_rec, -e)
    denom = float(np.linalg.norm(true))
    rel = float(np.linalg.norm(rec - true)) / denom if denom > 0 else float("nan")
    cal = float(np.dot(rec, true) / np.dot(true, true)) if denom > 0 else float("nan")
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
