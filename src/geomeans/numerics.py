"""Shared numerical kernels.

1-D Gauss-Legendre and Gauss-Jacobi quadrature, quintic interpolation
on uniform grids, finite-difference derivatives there, the
radial operators D = (1/2t) d/dt and L = d^2/dt^2 + (n-1)/t d/dt,
graded-panel quadrature for integrable singular kernels (log and
algebraic), log-kernel tables of cubic interpolants by product
integration cell by cell, and finite-difference Laplacians of callable
fields.
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
    "graded_panels",
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
_QUINTIC_DENOMS = (-120.0, 24.0, -12.0, 12.0, -24.0, 120.0)


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
    for off, den in zip(_QUINTIC_OFFSETS, _QUINTIC_DENOMS):
        num = np.ones_like(s)
        for other in _QUINTIC_OFFSETS:
            if other != off:
                num = num * (s - other)
        out += (num / den) * values[..., idx + off]
    return np.where(inside, out, 0.0)


# ---------------------------------------------------------------------------
# finite-difference derivatives on uniform grids
# ---------------------------------------------------------------------------

def _diff1(samples: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order first derivative along the last axis (one-sided at the ends),
    into `out` (which must not share memory with samples) if given.

    The interior takes one temporary of its own size.
    """
    f = samples
    out = np.empty_like(f) if out is None else out
    inner = out[..., 2:-2]
    np.multiply(f[..., 1:-3], 8.0, out=inner)
    np.subtract(f[..., :-4], inner, out=inner)
    inner += 8.0 * f[..., 3:-1]
    inner -= f[..., 4:]
    inner /= 12.0 * h
    out[..., 0] = (-25.0 * f[..., 0] + 48.0 * f[..., 1] - 36.0 * f[..., 2]
                   + 16.0 * f[..., 3] - 3.0 * f[..., 4]) / (12.0 * h)
    out[..., 1] = (-3.0 * f[..., 0] - 10.0 * f[..., 1] + 18.0 * f[..., 2]
                   - 6.0 * f[..., 3] + f[..., 4]) / (12.0 * h)
    out[..., -2] = (3.0 * f[..., -1] + 10.0 * f[..., -2] - 18.0 * f[..., -3]
                    + 6.0 * f[..., -4] - f[..., -5]) / (12.0 * h)
    out[..., -1] = (25.0 * f[..., -1] - 48.0 * f[..., -2] + 36.0 * f[..., -3]
                    - 16.0 * f[..., -4] + 3.0 * f[..., -5]) / (12.0 * h)
    return out


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


def d_operator_matrix(samples: np.ndarray, grid: TGrid, m: int) -> np.ndarray:
    """Apply D = (1/2t) d/dt m times along the last axis (positive grids only)."""
    if m < 0:
        raise ValueError("operator power must be >= 0")
    t = grid.values
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
                     _overwrite: bool = False) -> np.ndarray:
    """L = d^2/dt^2 + (n-1)/t d/dt along the last axis.

    With _overwrite the result is written over `samples`, which must then be
    a float array that the caller owns and no longer reads.
    """
    t = grid.values
    if np.any(t <= 0):
        raise ValueError("the radial operator needs a strictly positive grid")
    samples = np.asarray(samples, dtype=float)
    d1 = _diff1(samples, grid.h)
    d2 = _diff1(d1, grid.h, out=samples if _overwrite else None)
    d1 *= (n - 1) / t
    d2 += d1
    return d2


# ---------------------------------------------------------------------------
# graded-panel quadrature for integrable singular kernels
# ---------------------------------------------------------------------------

def graded_panels(a: float, b: float, singular: tuple[float, ...] | list[float],
                  order: int = 16):
    """Gauss-Legendre panels on [a, b], graded by breakpoints s +/- eps 2^k
    (eps = 1e-10 of the interval) toward each singular point s within one
    interval length of it, and split in ten; breakpoints within 1e-15 of the
    interval merge. Interior singular points are excluded by slivers of
    half-width eps, which the caller accounts for analytically. Returns
    (nodes, weights, slivers) with slivers a list of (point, half_width).
    """
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
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
    x, w = _leggauss(order)
    return (mid[keep, None] + half[keep, None] * x).ravel(), (half[keep, None] * w).ravel(), slivers


# ---------------------------------------------------------------------------
# log-kernel tables of cubic interpolants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cell_rules():
    """The cubic weights [cell, node, power] in v = (t - t_j)/h on the first,
    an interior and the last cell: the Lagrange polynomials of the offsets
    {-1, 0, 1, 2} at v - 1, v and v + 1 (the end cells' stencils sit one
    node inward), exact from their integer roots. Then the 6 Gauss-Legendre
    nodes v of a far cell and their weights times the cubic ones (3, 6, 4):
    Gauss 4 misses closed forms by 3e-11 there, Gauss 6 meets them to 1e-14.
    Built on first use, so that importing the module loads no numpy.polynomial."""
    offsets = np.arange(-1.0, 3.0)
    polys = np.array([[np.polynomial.polynomial.polyfromroots(offsets[offsets != o] - shift)
                       / np.prod(o - offsets[offsets != o]) for o in offsets]
                      for shift in (-1.0, 0.0, 1.0)])
    x, w = _leggauss(6)
    v = 0.5 * (x + 1.0)
    cubic = np.vander(v, 4, increasing=True) @ polys.transpose(0, 2, 1)
    return polys, v, 0.5 * w[:, None] * cubic


# cells within _NEAR_REACH cells of a singular point take exact moments
_NEAR_REACH = 2
# binom(p, i) and the power p - i of the moments' binomial expansion
_BINOM = np.array([[math.comb(p, i) for i in range(4)] for p in range(4)], dtype=float)
_BINOM_POWER = np.maximum(np.subtract.outer(range(4), range(4)), 0)
# targets per block: a block's kernel values take 6 (N - 1) doubles a target
_TARGET_BLOCK = 8


def _far_cells(grid: TGrid, sigma: np.ndarray, home: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals (K, N - 1, 4) of each cell's cubic weights
    against the terms log|t - sigma| (sigma (K, S)) of the cells farther
    than _NEAR_REACH from the cells `home` of sigma."""
    _, v, weights = _cell_rules()
    t = grid.values[:-1, None] + grid.h * v
    # the far terms' distances multiply into one logarithm; a near term gives 1
    dist = np.ones(sigma.shape[:1] + t.shape)
    for s, c in zip(sigma.T, home.T):
        far = np.abs(np.arange(grid.n - 1) - c[:, None]) > _NEAR_REACH
        dist *= np.where(far[..., None], np.abs(t - s[:, None, None]), 1.0)
    kv = np.log(dist, out=dist)
    cells = kv @ weights[1]
    cells[:, 0] = kv[:, 0] @ weights[0]
    cells[:, -1] = kv[:, -1] @ weights[2]
    return grid.h * cells


def _near_cells(grid: TGrid, sigma: np.ndarray, home: np.ndarray):
    """The cells j (K, S, C) within _NEAR_REACH cells of the singular points
    sigma (K, S), and the exact integrals (K, S, C, 4) of their cubic weights
    against log|t - sigma| (0 off the grid). With v = x + c, x = (t - sigma)/h,

        int_0^1 v^p log|t - sigma| dv = sum_i binom(p, i) c^(p-i) [G_i(hi) - G_i(lo)],
        G_i(x) = x^(i+1)/(i+1) (log|h x| - 1/(i+1)),

    lo = -c = (t_j - sigma)/h, hi = (t_{j+1} - sigma)/h off the grid's nodes,
    so that a target at a grid end keeps its tiny offset. |c| <= 3: no cancellation.
    """
    h, last = grid.h, grid.n - 2
    near = home[..., None] + np.arange(-_NEAR_REACH, _NEAR_REACH + 1)
    on = (near >= 0) & (near <= last)
    j = np.clip(near, 0, last)  # cells off the grid take a stand-in offset
    lo = np.where(on, (grid.values[j] - sigma[..., None]) / h, -0.5)
    hi = np.where(on, (grid.values[j + 1] - sigma[..., None]) / h, 0.5)
    i = np.arange(4.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = [np.where(e[..., None] == 0.0, 0.0, e[..., None] ** (i + 1) / (i + 1)
                      * (np.log(np.abs(h * e))[..., None] - 1.0 / (i + 1)))
             for e in (lo, hi)]
    moments = (_BINOM * (-lo[..., None, None]) ** _BINOM_POWER) @ (G[1] - G[0])[..., None]
    polys = _cell_rules()[0][np.minimum(j, 1) + (j == last)]
    return j, h * on[..., None] * (polys @ moments)[..., 0]


def log_kernel_table(profiles: np.ndarray, grid: TGrid, targets: np.ndarray,
                     kernel: str = "log|t-s|") -> np.ndarray:
    """Log-kernel integrals of cubic-interpolated profiles (M, N) at targets (K,) -> (M, K).

    Entry (i, j) integrates profile i times kernel(t; targets[j]) over the
    grid range cell by cell, on each of which the interpolant is one cubic
    (product integration: Atkinson, The Numerical Solution of Integral
    Equations of the Second Kind, 1997, ch. 4). The kernel is the sum of
    log|t - sigma| over s, and -s too for log|t^2-s^2|; each term takes exact
    moments near sigma, Gauss-Legendre nodes elsewhere. The operator rows
    of a block of targets fold their cells into the cubic stencils, and one
    matrix product applies them to every profile.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    targets = np.asarray(targets, dtype=float).ravel()
    if kernel == "log|t-s|":
        sigma = targets[:, None]
    elif kernel == "log|t^2-s^2|":
        sigma = np.stack([np.abs(targets), -np.abs(targets)], axis=1)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    home = np.clip(np.floor((sigma - grid.a) / grid.h), -_NEAR_REACH - 1,
                   grid.n + _NEAR_REACH - 1).astype(np.int64)  # the cells of sigma
    near, near_cells = _near_cells(grid, sigma, home)
    out = np.empty((profiles.shape[0], targets.size))
    for start in range(0, targets.size, _TARGET_BLOCK):
        block = slice(start, start + _TARGET_BLOCK)
        cells = _far_cells(grid, sigma[block], home[block])
        np.add.at(cells, (np.arange(cells.shape[0])[:, None, None], near[block]), near_cells[block])
        # cell j's stencil starts at node j - 1, the end cells' one node inward
        rows = np.zeros((cells.shape[0], grid.n))
        rows[:, :4] = cells[:, 0]
        rows[:, -4:] += cells[:, -1]
        for k in range(4):
            rows[:, k:k + grid.n - 3] += cells[:, 1:-1, k]
        out[:, block] = profiles @ rows.T
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
