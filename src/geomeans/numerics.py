"""Shared numerical kernels.

1-D Gauss-Legendre and Gauss-Jacobi quadrature, quintic interpolation
on uniform grids, finite-difference derivatives there, the
radial operators D = (1/2t) d/dt and L = d^2/dt^2 + (n-1)/t d/dt,
log-kernel tables of cubic interpolants by product integration cell by
cell, at targets on the grid's lattice, whose cell integrals depend on
the cell-to-target offset alone, and finite-difference Laplacians of
callable fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TGrid",
    "gauss_legendre",
    "gauss_jacobi",
    "quintic_interp",
    "diff_matrix",
    "d_operator_matrix",
    "darboux_L_matrix",
    "log_kernel_table",
    "laplacian_fd",
]

@lru_cache(maxsize=128)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_legendre(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b]; exact for degree <= 2*order - 1."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    x, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _jacobi_matrix(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of the polynomials p_k orthonormal for the
    probability measure with density proportional to (1-x)^a (1+x)^b:

    off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1},  p_0 = 1.

    diag and off[:-1] are the Jacobi matrix; off[-1] closes p_order.
    """
    k = np.arange(1.0, order + 1.0)
    s = 2.0 * k + a + b
    diag = np.empty(order)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[:-1] * (s[:-1] + 2.0))
    off2 = 4.0 * k * (k + a) * (k + b) / (s * s * (s + 1.0))
    # the factor (k + a + b) / (s - 1) is 1 at k = 1, also where a + b = -1
    off2[1:] *= (k[1:] + a + b) / (s[1:] - 1.0)
    return diag, np.sqrt(off2)


def _orthonormal_sweep(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """p_order(x), p_order'(x) and sum_{k < order} p_k(x)^2 by the recurrence."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for k in range(diag.size):
        total += p * p
        back = off[k - 1] if k else 0.0
        shifted = x - diag[k]
        p_prev, p, d_prev, d = (p, (shifted * p - back * p_prev) / off[k],
                                d, (p + shifted * d - back * d_prev) / off[k])
    return p, d, total


@lru_cache(maxsize=64)
def gauss_jacobi(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes (increasing) and weights for the weight
    (1-x)^a (1+x)^b on [-1, 1], a, b > -1; exact for degree <= 2*order - 1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    refined by one Newton step on the three-term recurrence. The weights are
    the Christoffel numbers mu_0 / sum_{k < order} p_k(x)^2 of the orthonormal
    p_k, with mu_0 the integral of the weight: a sum of positive terms, which
    keeps its relative accuracy at the extreme nodes, where the derivative
    form 1 / (p_order' p_{order-1}) loses about order^3 ulps. The cached
    arrays are read-only.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if not (a > -1.0 and b > -1.0):
        raise ValueError("Jacobi exponents must exceed -1")
    diag, off = _jacobi_matrix(order, a, b)
    J = np.diag(diag)
    J[np.arange(1, order), np.arange(order - 1)] = off[:-1]
    x = np.linalg.eigvalsh(J, UPLO="L")
    p, d, _ = _orthonormal_sweep(x, diag, off)
    x -= p / d
    _, _, total = _orthonormal_sweep(x, diag, off)
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    w = mu0 / total
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True, eq=False)
class TGrid:
    """Uniform strictly increasing grid of radial/section parameters."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 8:
            raise ValueError("grid needs at least 8 nodes")
        d = np.diff(v)
        if not np.all(d > 0):
            raise ValueError("grid must be strictly increasing")
        if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
            raise ValueError("grid must be uniform")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return float(self.values[1] - self.values[0])

    @property
    def a(self) -> float:
        return float(self.values[0])

    @property
    def b(self) -> float:
        return float(self.values[-1])

    @staticmethod
    def linspace(a: float, b: float, n: int) -> "TGrid":
        if n < 64:
            raise ValueError("grids shorter than 64 nodes are not supported")
        return TGrid(np.linspace(a, b, n))


# ---------------------------------------------------------------------------
# quintic interpolation on uniform grids
# ---------------------------------------------------------------------------

_QUINTIC_OFFSETS = (-2, -1, 0, 1, 2, 3)


def _lagrange_powers(offsets, shift: int) -> np.ndarray:
    """The Lagrange weights of the stencil of nodes `offsets` in powers of a
    cell's coordinate x: row i holds node offsets[i]'s weight at s = x + shift,
    lowest power first, integer coefficients over an integer denominator."""
    return np.array([np.poly([q - shift for q in offsets if q != o])[::-1]
                     / math.prod(o - q for q in offsets if q != o) for o in offsets])


def quintic_interp(values: np.ndarray, grid: TGrid, x: np.ndarray) -> np.ndarray:
    """6-point local quintic interpolation of `values` (..., N) at `x` (K,),
    0 at arguments off the grid.

    Order-6 accuracy; used where later differentiation would amplify the
    interpolation error of the cubic scheme.
    """
    values = np.asarray(values, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (x >= grid.a) & (x <= grid.b)
    xc = np.where(inside, x, grid.a)
    u = (xc - grid.a) / grid.h
    idx = np.clip(np.floor(u).astype(np.int64), 2, grid.n - 4)
    s = u - idx
    out = np.zeros(values.shape[:-1] + x.shape, dtype=float)
    for off in _QUINTIC_OFFSETS:
        num, den = np.ones_like(s), 1
        for other in _QUINTIC_OFFSETS:
            if other != off:
                num, den = num * (s - other), den * (off - other)
        out += (num / den) * values[..., idx + off]
    return np.where(inside, out, 0.0)


# ---------------------------------------------------------------------------
# finite-difference derivatives on uniform grids
# ---------------------------------------------------------------------------

# The one-sided end formulas of `_diff1`: columns 0, 1, -2 and -1 weigh the
# nodes 0, ..., 4 resp. -1, ..., -5 by these weights (times 1/12h)
_END_COLUMNS = [0, 1, -2, -1]
_END_NODES = np.array([[0, 1, 2, 3, 4]] * 2 + [[-1, -2, -3, -4, -5]] * 2)
_END_WEIGHTS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0],
                         [3.0, 10.0, -18.0, 6.0, -1.0], [25.0, -48.0, 36.0, -16.0, 3.0]])


def _diff1(samples: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order first derivative along the last axis (one-sided at the ends),
    into `out` (which must not share memory with samples) if given.

    The interior takes one temporary of its own size. The four end columns
    take a handful of calls for any number of rows, which matters for the
    few rows of a block of centres; each sums its weighted nodes from the
    left, as the written-out formula would.
    """
    f = samples
    out = np.empty_like(f) if out is None else out
    inner = out[..., 2:-2]
    np.multiply(f[..., 1:-3], 8.0, out=inner)
    np.subtract(f[..., :-4], inner, out=inner)
    inner += 8.0 * f[..., 3:-1]
    inner -= f[..., 4:]
    inner /= 12.0 * h
    terms = f[..., _END_NODES] * _END_WEIGHTS
    ends = terms[..., 0] + terms[..., 1]
    for k in range(2, 5):
        ends += terms[..., k]
    ends /= 12.0 * h
    out[..., _END_COLUMNS] = ends
    return out


def _widen(lo: int, hi: int, reach: int, start: int, stop: int) -> tuple[int, int]:
    """The window (first, one past the last) of the nodes start, ..., stop - 1
    that a step on the nodes lo, ..., hi - 1 reads, each reading `reach` nodes
    to either side: the t-grid's one stencil rule. A `_diff1` pass reads 2
    nodes each way, so a stencil of reach r and p passes after it read
    r + 2 p, and the passes leave inexact only the 2 p columns at a window
    end inside the grid. The 2 end columns' one-sided formulas read 5 nodes,
    as far as the third column's central one, and the 2 end cells' quintic
    stencils are the third cell's: so a nonzero reach takes the run to hold
    the third node from either end, and a window at a grid end holds at
    least reach + 3 nodes."""
    if reach:
        lo, hi = min(lo, stop - 3), max(hi, start + 3)
    return max(lo - reach, start), min(hi + reach, stop)


def diff_matrix(samples: np.ndarray, grid: TGrid, k: int = 1) -> np.ndarray:
    """k-fold 4th-order derivative of (..., N) samples on a uniform grid."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if grid.n < k + 8:
        raise ValueError("grid too short for the requested derivative order")
    out = np.asarray(samples, dtype=float)
    for _ in range(k):
        out = _diff1(out, grid.h)
    return out


def d_operator_matrix(samples: np.ndarray, grid: TGrid, m: int,
                      columns: slice = slice(None)) -> np.ndarray:
    """Apply D = (1/2t) d/dt m times along the last axis (positive grids only)
    to samples that hold the grid's nodes `columns` (every node by default),
    at the grid's own step. Each pass leaves the 2 columns at each end of a
    window inside the grid inexact: `_widen` gives the window to pass in."""
    if m < 0:
        raise ValueError("operator power must be >= 0")
    t = grid.values[columns]
    if m > 0 and np.any(t <= 0):
        raise ValueError("D = (1/2t) d/dt needs a strictly positive grid")
    out = np.asarray(samples, dtype=float)
    spare = None
    for _ in range(m):
        # two buffers in turn, never the caller's samples
        out, spare = _diff1(out, grid.h, out=spare), (None if out is samples else out)
        out /= 2.0 * t
    return out


def darboux_L_matrix(samples: np.ndarray, grid: TGrid, n: int,
                     columns: slice = slice(None)) -> np.ndarray:
    """L = d^2/dt^2 + (n-1)/t d/dt along the last axis of samples that hold
    the grid's nodes `columns` (every node by default), as `d_operator_matrix`
    takes them."""
    t = grid.values[columns]
    if np.any(t <= 0):
        raise ValueError("the radial operator needs a strictly positive grid")
    d1 = _diff1(np.asarray(samples, dtype=float), grid.h)
    d2 = _diff1(d1, grid.h)
    d1 *= (n - 1) / t
    d2 += d1
    return d2


# ---------------------------------------------------------------------------
# log-kernel tables of cubic interpolants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cell_rules():
    """The cubic weights [cell, node, power] in v = (t - t_j)/h on the first,
    an interior and the last cell: the Lagrange polynomials of the offsets
    {-1, 0, 1, 2} at v - 1, v and v + 1 (`_lagrange_powers`; the end cells'
    stencils sit one node inward). Then the 6 Gauss-Legendre nodes v of a
    far cell and their weights times the cubic ones (3, 6, 4): Gauss 4
    misses closed forms by 3e-11 there, Gauss 6 meets them to 1e-14. Built
    on first use, so that importing the module loads no numpy.polynomial."""
    polys = np.array([_lagrange_powers((-1, 0, 1, 2), shift) for shift in (-1, 0, 1)])
    x, w = _leggauss(6)
    v = 0.5 * (x + 1.0)
    cubic = np.vander(v, 4, increasing=True) @ polys.transpose(0, 2, 1)
    return polys, v, 0.5 * w[:, None] * cubic


# cells whose midpoints lie within _NEAR_REACH steps of a singular point take
# exact moments: 6 cells about a point on a node, 5 about one midway
_NEAR_REACH = 3
# binom(p, i) and the power p - i of the moments' binomial expansion
_BINOM = np.array([[math.comb(p, i) for i in range(4)] for p in range(4)], dtype=float)
_BINOM_POWER = np.maximum(np.subtract.outer(range(4), range(4)), 0)
# target rows per block of the operator: 64 N doubles, never the whole
# targets x N operator
_ROW_BLOCK = 64


def _offset_cells(ends: np.ndarray, step: float) -> np.ndarray:
    """The integrals (3, C, 4) of the cubic weights of the first, an
    interior and the last cell against log|t - sigma| over the C cells of
    the grid's step between consecutive `ends` (C + 1,), given in steps from
    sigma.

    The cells whose midpoints lie within _NEAR_REACH steps of sigma take
    exact moments. With v = x + c, x = (t - sigma)/step,

        int_0^1 v^p log|t - sigma| dv = sum_i binom(p, i) c^(p-i) [G_i(hi) - G_i(lo)],
        G_i(x) = x^(i+1)/(i+1) (log|step x| - 1/(i+1)),

    lo = -c and hi the cell's ends, each given apart, so that a target at a
    grid end keeps its tiny offset. |c| < 3.5: no cancellation. Every other
    cell, 2.5 steps or more from sigma, takes 6 Gauss-Legendre nodes.
    """
    polys, v, weights = _cell_rules()
    lo, hi = ends[:-1], ends[1:]
    near = np.abs(lo + 0.5) < _NEAR_REACH
    out = np.empty((3, lo.size, 4))
    out[:, ~near] = np.log(np.abs(step * (lo[~near, None] + v))) @ weights
    e = np.stack([lo[near], hi[near]])
    i = np.arange(4.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = np.where(e[..., None] == 0.0, 0.0, e[..., None] ** (i + 1) / (i + 1)
                     * (np.log(np.abs(step * e))[..., None] - 1.0 / (i + 1)))
    moments = (_BINOM * (-lo[near, None, None]) ** _BINOM_POWER) @ (G[1] - G[0])[..., None]
    out[:, near] = (polys[:, None] @ moments)[..., 0]
    return step * out


def log_kernel_table(profiles: np.ndarray, grid: TGrid, targets: np.ndarray,
                     kernel: str = "log|t-s|") -> np.ndarray:
    """Log-kernel integrals of cubic-interpolated profiles (M, N) at targets (K,) -> (M, K).

    Entry (i, k) integrates profile i times kernel(t; targets[k]) over the
    grid range cell by cell, on each of which the interpolant is one cubic
    (product integration: Atkinson, The Numerical Solution of Integral
    Equations of the Second Kind, 1997, ch. 4). The kernel is the sum of
    log|t - sigma| over s, and -s too for log|t^2-s^2|; each term takes exact
    moments near sigma, Gauss-Legendre nodes elsewhere.

    The targets step by the grid's step h = (b - a)/(N - 1): one target, or
    a run targets[0] + k h from any anchor (to 1e-9 h); others raise. An
    anchor within rounding of a node a + n h (n any integer; 8 ulps of
    |a| + |targets[0]|) is taken on it. Cell j then meets target k at the
    offset j - k of the term s and j + k of the term -s, so each term's
    cell integrals are computed once per offset, N + K - 2 of them, with
    the cells' ends a whole number of steps less one fraction common to
    every offset: a target's row does not depend on the other targets.
    Each term folds its interior cells into one vector over the nodes'
    offsets, of which each target's row is a window; the rows of a block
    of targets take those windows, the 3 stencil columns at each end afresh
    and the two end cells, and one matrix product applies them to every
    profile.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    targets = np.asarray(targets, dtype=float).ravel()
    if kernel not in ("log|t-s|", "log|t^2-s^2|"):
        raise ValueError(f"unknown kernel {kernel!r}")
    N, K = grid.n, targets.size
    step = (grid.b - grid.a) / (N - 1)
    k = np.arange(K)
    if np.any(np.abs(targets - (targets[:1] + k * step)) > 1e-9 * step):
        raise ValueError(f"log-kernel targets must step by the grid's step {step!r}")
    out = np.empty((profiles.shape[0], K))
    if K == 0:
        return out
    # target k sits n + k + f steps above a (n an integer, |f| <= 1/2; f = 0
    # within the anchor's rounding), and -target k sits u - n - k - f steps
    # above it, u = -2a/h
    anchor = (targets[0] - grid.a) / step
    n = np.round(anchor)
    slack = 8 * np.finfo(float).eps * (abs(grid.a) + abs(targets[0]))
    f = 0.0 if abs(targets[0] - grid.a - n * step) <= slack else anchor - n
    u = -2.0 * grid.a / step
    points = [(1, n, f)]
    if kernel == "log|t^2-s^2|":
        points.append((-1, np.round(u) - n, u - np.round(u) - f))
    terms = []
    for e, whole, frac in points:
        # cell j's lower end lies j - e k - whole - frac steps from the
        # singular point e targets[k]: the offset d = j - e k, from `first` on
        first = min(0, -e * (K - 1))
        ends = np.arange(first - whole, first - whole + N + K - 1) - frac
        cells = _offset_cells(ends, step)
        # interior cell j weighs the nodes j - 1, ..., j + 2: fold them into
        # the nodes' offsets, of which target k's row reads N from j = 0's
        pad = np.zeros((N + K + 2, 4))
        pad[2:-2] = cells[1]
        nodes = sum(pad[3 - p:N + K + 2 - p, p] for p in range(4))
        terms.append((e, first, cells, np.lib.stride_tricks.sliding_window_view(nodes, N)))
    rows = np.empty((min(K, _ROW_BLOCK), N))
    for start in range(0, K, _ROW_BLOCK):
        ks = k[start:start + _ROW_BLOCK]
        block = rows[:ks.size]
        block.fill(0.0)
        # target k's cell j sits at j + at, at = -e k - first, in the term's
        # arrays, and so does its row's window: a block's windows run from
        # its first target's by -e
        ats = [-e * ks - first for e, first, _, _ in terms]
        for at, (e, _, _, windows) in zip(ats, terms):
            block += windows[at[0]::-e][:ks.size]
        # the end cells read their own stencils, one node inward, and the
        # interior cells reach the 3 columns at each end only in part
        block[:, :3] = block[:, -3:] = 0.0
        for at, (_, _, cells, _) in zip(ats, terms):
            block[:, :4] += cells[0, at]
            block[:, -4:] += cells[2, at + N - 2]
            for r in (1, 2, 3):
                block[:, r - 1:3] += cells[1, at + r, :4 - r]
                block[:, N - 3:N + 1 - r] += cells[1, at + N - 2 - r, r:]
        out[:, start:start + ks.size] = profiles @ block.T
    return out


# ---------------------------------------------------------------------------
# finite-difference Laplacian of a callable field
# ---------------------------------------------------------------------------

def laplacian_fd(field, x: np.ndarray, h: float) -> np.ndarray:
    """Second-order FD Laplacian of a field evaluator at chart points x (K, d).

    `field` maps an (m, d) array of chart points to (m,) values; one call
    evaluates the whole stencil batch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k, d = x.shape
    pts = [x]
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        pts.append(x + step)
        pts.append(x - step)
    vals = np.asarray(field(np.concatenate(pts, axis=0)), dtype=float)
    if vals.shape != (k * (2 * d + 1),):
        raise ValueError("field evaluator returned an unexpected shape")
    center = vals[:k]
    out = np.zeros(k)
    for j in range(d):
        plus = vals[k * (1 + 2 * j): k * (2 + 2 * j)]
        minus = vals[k * (2 + 2 * j): k * (3 + 2 * j)]
        out += plus - 2.0 * center + minus
    return out / (h * h)
