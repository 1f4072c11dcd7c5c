"""Shared numerical kernels.

1-D Gauss-Legendre quadrature, finite-difference derivatives on uniform
grids, the radial operators D = (1/2t) d/dt and L = d^2/dt^2 + (n-1)/t d/dt,
graded-panel quadrature for integrable singular kernels (log and algebraic),
and finite-difference Laplacians of callable fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TGrid",
    "gauss_legendre",
    "quintic_interp",
    "CubicStencil",
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


@dataclass(frozen=True)
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
# cubic interpolation on uniform grids
# ---------------------------------------------------------------------------

def _cubic_cells(grid: TGrid, x: np.ndarray):
    """Cell indices and local coordinates for 4-point cubic interpolation."""
    h = grid.h
    u = (x - grid.a) / h
    idx = np.floor(u).astype(np.int64)
    idx = np.clip(idx, 1, grid.n - 3)
    s = u - idx
    return idx, s


def _cubic_weights(s: np.ndarray):
    # Lagrange weights on stencil offsets {-1, 0, 1, 2}
    w_m1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w_0 = (s * s - 1.0) * (s - 2.0) / 2.0
    w_1 = -s * (s + 1.0) * (s - 2.0) / 2.0
    w_2 = s * (s * s - 1.0) / 6.0
    return w_m1, w_0, w_1, w_2


_QUINTIC_OFFSETS = (-2, -1, 0, 1, 2, 3)
_QUINTIC_DENOMS = (-120.0, 24.0, -12.0, 12.0, -24.0, 120.0)


def quintic_interp(values: np.ndarray, grid: TGrid, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """6-point local quintic interpolation of `values` (..., N) at `x` (K,).

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
    return np.where(inside, out, fill)


@dataclass(frozen=True)
class CubicStencil:
    """Cells and weights of row-aligned cubic interpolation at queries (M, K).

    Built once per query set, it interpolates any number of (M, N) tables
    on the same grid at those queries; queries outside the grid take `fill`.
    """

    idx: np.ndarray
    weights: tuple[np.ndarray, ...]
    inside: np.ndarray
    fill: float | str

    @staticmethod
    def build(grid: TGrid, x: np.ndarray, fill: float | str = 0.0) -> "CubicStencil":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("need row-aligned queries (M, K)")
        inside = (x >= grid.a) & (x <= grid.b)
        if isinstance(fill, str):
            if fill != "error":
                raise ValueError("fill must be a float or 'error'")
            if not np.all(inside):
                raise ValueError("interpolation point outside grid range")
        idx, s = _cubic_cells(grid, np.where(inside, x, grid.a))
        return CubicStencil(idx, _cubic_weights(s), inside, fill)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Interpolate the rows of values (M, N): row i at the queries of row i."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.idx.shape[0]:
            raise ValueError("need values (M, N) aligned with the query rows")
        out = np.zeros(self.idx.shape)
        for k, off in enumerate((-1, 0, 1, 2)):
            out += self.weights[k] * np.take_along_axis(values, self.idx + off, axis=1)
        if not isinstance(self.fill, str):
            out = np.where(self.inside, out, self.fill)
        return out


# ---------------------------------------------------------------------------
# finite-difference derivatives on uniform grids
# ---------------------------------------------------------------------------

def _diff1(samples: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative along the last axis (one-sided at the ends)."""
    f = samples
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h)
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
    for _ in range(m):
        out = _diff1(out, grid.h) / (2.0 * t)
    return out


def darboux_L_matrix(samples: np.ndarray, grid: TGrid, n: int) -> np.ndarray:
    """L = d^2/dt^2 + (n-1)/t d/dt along the last axis."""
    t = grid.values
    if np.any(t <= 0):
        raise ValueError("the radial operator needs a strictly positive grid")
    d1 = _diff1(np.asarray(samples, dtype=float), grid.h)
    d2 = _diff1(d1, grid.h)
    return d2 + (n - 1) / t * d1


# ---------------------------------------------------------------------------
# graded-panel quadrature for integrable singular kernels
# ---------------------------------------------------------------------------

def graded_panels(
    a: float,
    b: float,
    singular: tuple[float, ...] | list[float],
    ratio: float = 2.0,
    smallest: float = 1e-10,
    order: int = 16,
    max_panel_frac: float = 0.1,
):
    """Gauss-Legendre panels on [a, b], geometrically graded toward singularities.

    Interior singular points are excluded by slivers of half-width `smallest`
    (scaled by the interval length); the caller accounts for the slivers
    analytically. Returns (nodes, weights, slivers) with slivers a list of
    (point, half_width).
    """
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    span = b - a
    eps = smallest * span
    bps = {a, b}
    slivers = []
    for s in singular:
        if s <= a - span or s >= b + span:
            continue
        d = eps
        while d <= span:
            for t in (s - d, s + d):
                if a < t < b:
                    bps.add(t)
            d *= ratio
        if a < s < b:
            slivers.append((float(s), eps))
    # uniform safety splits keep the largest panels moderate
    k = int(np.ceil(1.0 / max_panel_frac))
    for j in range(1, k):
        bps.add(a + span * j / k)
    pts = np.array(sorted(bps))
    keep = np.concatenate([[True], np.diff(pts) > 1e-15 * span])
    pts = pts[keep]
    nodes, weights = [], []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        if any(abs(mid - s) < w for s, w in slivers):
            continue
        x, w = gauss_legendre(order, lo, hi)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights), slivers


def _log_kernel_values(t: np.ndarray, s: float, kernel: str) -> np.ndarray:
    if kernel == "log|t-s|":
        return np.log(np.abs(t - s))
    if kernel == "log|t^2-s^2|":
        return np.log(np.abs(t * t - s * s))
    raise ValueError(f"unknown kernel {kernel!r}")


def _log_sliver_moment(c: float, eps: float, s: float, kernel: str) -> float:
    """Integral of the kernel over (c-eps, c+eps) around the singular point c."""
    base = 2.0 * eps * (np.log(eps) - 1.0)
    if kernel == "log|t-s|":
        return base
    # log|t^2-s^2| = log|t-c| + log|t+c| with c = |s|; second factor is smooth
    if c < 1e-8:
        return 2.0 * base
    return base + 2.0 * eps * np.log(2.0 * c)


def _log_singular_points(s: float, kernel: str) -> list[float]:
    if kernel == "log|t-s|":
        return [s]
    return [abs(s), -abs(s)]


def log_kernel_table(profiles: np.ndarray, grid: TGrid, targets: np.ndarray,
                     kernel: str = "log|t-s|", order: int = 20) -> np.ndarray:
    """Log-kernel integrals of cubic-interpolated profiles (M, N) at targets (K,) -> (M, K).

    Entry (i, j) is the integral of profile i times kernel(t; targets[j]) over
    the grid range. The integrable log singularity is handled by
    geometrically graded panels plus an analytic moment for each excluded
    sliver. Row j of a K x N operator holds target j's rule folded into the
    cubic interpolation weights; one matrix product applies it to every row.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    targets = np.asarray(targets, dtype=float)
    A = np.empty((targets.size, grid.n))
    for j, s in enumerate(targets):
        s = float(s)
        nodes, weights, slivers = graded_panels(grid.a, grid.b, _log_singular_points(s, kernel),
                                                order=order)
        kv = _log_kernel_values(nodes, s, kernel) * weights
        # each excluded sliver adds its kernel moment times the profile at its centre
        nodes = np.concatenate([nodes, [c for c, _ in slivers]])
        kv = np.concatenate([kv, [_log_sliver_moment(c, eps, s, kernel) for c, eps in slivers]])
        idx, u = _cubic_cells(grid, nodes)
        A[j] = sum(np.bincount(idx + off, w * kv, minlength=grid.n)
                   for off, w in zip((-1, 0, 1, 2), _cubic_weights(u)))
    return profiles @ A.T


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
