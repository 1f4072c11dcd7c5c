"""Shared numerical kernels.

1-D Gauss-Legendre and Gauss-Jacobi quadrature, finite-difference
derivatives on uniform grids, the radial operators D = (1/2t) d/dt and
L = d^2/dt^2 + (n-1)/t d/dt, graded-panel quadrature for integrable singular
kernels (log and algebraic), and finite-difference Laplacians of callable
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
    """First stencil nodes and weights of column-aligned cubic interpolation
    at queries (K, M).

    Built once per query set, it interpolates (M, N) tables on the same grid
    at those queries, column j at row j, or one (1, N) row that stands for
    every column. A table is read through one flat index, the first node
    `start + j N` of column j, and the four stencil values are the table's
    flattened entries at that index plus 0, 1, 2 and 3. With fill=0.0 the
    weights are zero at queries outside the grid; fill='error' raises there.
    """

    start: np.ndarray
    weights: tuple[np.ndarray, ...]
    size: int

    @staticmethod
    def build(grid: TGrid, x: np.ndarray, fill: float | str = 0.0) -> "CubicStencil":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("need column-aligned queries (K, M)")
        if fill not in (0.0, "error"):
            raise ValueError("fill must be 0.0 or 'error'")
        inside = (x >= grid.a) & (x <= grid.b)
        everywhere = np.all(inside)
        if fill == "error" and not everywhere:
            raise ValueError("interpolation point outside grid range")
        cell, s = _cubic_cells(grid, x if everywhere else np.where(inside, x, grid.a))
        weights = _cubic_weights(s)
        if not everywhere:
            for w in weights:
                w *= inside
        cell -= 1
        return CubicStencil(cell, weights, grid.n)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Interpolate values (M, N), or one row (1, N), or a stack (k, M, N)
        or (k, 1, N) of such tables: (K, M) resp. (k, K, M).
        """
        values = np.asarray(values, dtype=float)
        K, M = self.start.shape
        if values.ndim not in (2, 3) or values.shape[-2:] not in ((M, self.size), (1, self.size)):
            raise ValueError("need values (M, N) aligned with the query columns, or one row")
        tables = np.ascontiguousarray(values.reshape(-1, *values.shape[-2:]))
        base = self.start if tables.shape[1] == 1 else self.start + np.arange(M) * self.size
        out = np.empty((tables.shape[0], K, M))
        term = np.empty((K, M))
        # the cells keep every index in range; mode="clip" only spares the
        # buffered copy that mode="raise" makes of `out`
        for table, acc in zip(tables, out):
            flat = table.ravel()
            np.take(flat, base, out=acc, mode="clip")
            acc *= self.weights[0]
            for k in (1, 2, 3):
                np.take(flat[k:], base, out=term, mode="clip")
                term *= self.weights[k]
                acc += term
        return out if values.ndim == 3 else out[0]


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

@dataclass(frozen=True)
class PanelRule:
    """Graded-panel rules of K targets on one interval, flattened target-major.

    `owner[i]` is the target of node i; a target's nodes come panel by
    panel in increasing order. Its slivers (excluded intervals of half-width
    `eps` around its interior singular points) follow the same layout in
    `sliver_owner` and `slivers`, in the order of its singular points.
    """

    owner: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    sliver_owner: np.ndarray
    slivers: np.ndarray
    eps: float


# Panels are graded toward each singular point s by breakpoints s +/- eps 2^k,
# eps = _SLIVER_FRAC of the interval, for every eps 2^k within the interval
# (2^33 * 1e-10 = 0.86); _UNIFORM_SPLITS uniform splits keep the largest
# panels at a tenth of it.
_SLIVER_FRAC = 1e-10
_GRADING = 2.0 ** np.arange(34)
_UNIFORM_SPLITS = 10


def graded_panel_rule(a: float, b: float, singular: np.ndarray, order: int = 16) -> PanelRule:
    """Gauss-Legendre panels on [a, b] for each row of singular points (K, S).

    Each target's panels are graded geometrically toward its singular points;
    points farther than the interval length outside [a, b] add no
    breakpoints. Breakpoints closer than 1e-15 of the interval are merged,
    and the panel around each interior singular point is left out as a
    sliver of half-width eps, which the caller accounts for analytically.
    """
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    singular = np.asarray(singular, dtype=float)
    span = b - a
    eps = _SLIVER_FRAC * span
    steps = eps * _GRADING
    live = (singular > a - span) & (singular < b + span)
    graded = np.concatenate([singular[..., None] - steps, singular[..., None] + steps], axis=-1)
    graded = np.where(live[..., None] & (graded > a) & (graded < b), graded, np.inf)
    fixed = [a, b] + [a + span * j / _UNIFORM_SPLITS for j in range(1, _UNIFORM_SPLITS)]
    pts = np.concatenate([graded.reshape(len(singular), -1),
                          np.broadcast_to(fixed, (len(singular), len(fixed)))], axis=1)
    pts.sort(axis=1)
    # exact repeats fall with the near-duplicates, leaving each point's
    # first copy; the dropped points move behind the kept ones
    keep = np.ones(pts.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf between padding entries
        keep[:, 1:] = np.diff(pts, axis=1) > 1e-15 * span
    pts = np.where(keep, pts, np.inf)
    pts.sort(axis=1)
    lo, hi = pts[:, :-1], pts[:, 1:]
    mid = 0.5 * (lo + hi)
    inside = (singular > a) & (singular < b)
    in_sliver = inside[:, None, :] & (np.abs(mid[..., None] - singular[:, None, :]) < eps)
    owner, panel = np.nonzero(np.isfinite(hi) & ~in_sliver.any(axis=-1))
    lo, hi = lo[owner, panel], hi[owner, panel]
    x, w = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sliver_owner, point = np.nonzero(inside)
    return PanelRule(np.repeat(owner, order), (mid[:, None] + half[:, None] * x).ravel(),
                     (half[:, None] * w).ravel(), sliver_owner, singular[sliver_owner, point], eps)


def graded_panels(a: float, b: float, singular: tuple[float, ...] | list[float],
                  order: int = 16):
    """Gauss-Legendre panels on [a, b], geometrically graded toward singularities.

    The one-target case of `graded_panel_rule`. Interior singular points are
    excluded by slivers of half-width 1e-10 of the interval; the caller
    accounts for the slivers analytically. Returns (nodes, weights, slivers)
    with slivers a list of (point, half_width).
    """
    rule = graded_panel_rule(a, b, np.reshape(singular, (1, -1)), order)
    return rule.nodes, rule.weights, [(float(c), rule.eps) for c in rule.slivers]


def _log_kernel_values(t: np.ndarray, s: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "log|t-s|":
        return np.log(np.abs(t - s))
    if kernel == "log|t^2-s^2|":
        return np.log(np.abs(t * t - s * s))
    raise ValueError(f"unknown kernel {kernel!r}")


def _u_log_u(u: np.ndarray) -> np.ndarray:
    """u log|u| - u, the antiderivative of log|u|, continued by 0 at u = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == 0.0, 0.0, u * np.log(np.abs(u)) - u)


def _log_sliver_moments(c: np.ndarray, eps: float, kernel: str, a: float,
                        b: float) -> np.ndarray:
    """Integrals of the kernel over the slivers around the singular points c,
    cut at the ends of the interval [a, b]."""
    base = 2.0 * eps * (np.log(eps) - 1.0)
    lo, hi = c - eps, c + eps
    if kernel == "log|t-s|":
        moments, partner = np.full(c.shape, base), np.zeros(c.shape, dtype=bool)
    else:
        # log|t^2-s^2| = log|t-c| + log|t+c| at c = +-|s|. On its own sliver
        # (c-eps, c+eps) the first term gives base, the second exactly
        # G(2c+eps) - G(2c-eps) with G(u) = u log|u| - u. For c >= 1e-8 the
        # midpoint value 2 eps log(2c) differs from that by about eps (eps/2c)^2 / 3.
        # For |s| < eps the slivers at |s| and -|s| overlap into the one excluded
        # interval (-|s|-eps, |s|+eps), and each carries its own term over all of
        # it: G(|s|+eps-c) - G(-|s|-eps-c), which is base at s = 0.
        far = c >= 1e-8
        exact = _u_log_u(2.0 * c + eps) - _u_log_u(2.0 * c - eps)
        smooth = np.where(far, 2.0 * eps * np.log(2.0 * np.where(far, c, 1.0)), exact)
        reach = np.abs(c) + eps
        union = _u_log_u(reach - c) - _u_log_u(-reach - c)
        partner = np.abs(c) >= eps
        moments = np.where(partner, base + smooth, union)
        lo, hi = np.where(partner, lo, -reach), np.where(partner, hi, reach)
    # A sliver that reaches past a or b loses its panels there too, so it
    # takes the integral over its part inside [a, b]: its own term, and the
    # partner term where it carries one, exactly from G.
    cut = (lo < a) | (hi > b)
    if cut.any():
        c, lo, hi = c[cut], np.maximum(lo[cut], a), np.minimum(hi[cut], b)
        moments[cut] = (_u_log_u(hi - c) - _u_log_u(lo - c)
                        + np.where(partner[cut], _u_log_u(hi + c) - _u_log_u(lo + c), 0.0))
    return moments


def _log_singular_points(s: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "log|t-s|":
        return s[:, None]
    return np.stack([np.abs(s), -np.abs(s)], axis=1)


def _log_kernel_rows(grid: TGrid, s: np.ndarray, kernel: str, order: int) -> np.ndarray:
    """Rows (K, N) of the log-kernel operator for the targets s (K,)."""
    rule = graded_panel_rule(grid.a, grid.b, _log_singular_points(s, kernel), order)
    # each excluded sliver adds its kernel moment times the profile at its centre
    kv = np.concatenate([_log_kernel_values(rule.nodes, s[rule.owner], kernel) * rule.weights,
                         _log_sliver_moments(rule.slivers, rule.eps, kernel, grid.a, grid.b)])
    bins, u = _cubic_cells(grid, np.concatenate([rule.nodes, rule.slivers]))
    bins += np.concatenate([rule.owner, rule.sliver_owner]) * grid.n
    del rule  # freed before the cubic weights are formed
    rows = sum(np.bincount(bins + off, w * kv, minlength=s.size * grid.n)
               for off, w in zip((-1, 0, 1, 2), _cubic_weights(u)))
    return rows.reshape(s.size, grid.n)


# targets per block of the log-kernel operator build. A block's transient
# node arrays take about 0.1 MiB per target at order 20. On
# configs/euclid2.json the traced allocation peak of the table is 5.67 MiB
# with blocks of 1, 5.83 MiB with 8 and 6.78 MiB with 16, against 5.68 MiB
# target by target; blocks of 16 save little time over 8.
_TARGET_BLOCK = 8


def log_kernel_table(profiles: np.ndarray, grid: TGrid, targets: np.ndarray,
                     kernel: str = "log|t-s|", order: int = 20) -> np.ndarray:
    """Log-kernel integrals of cubic-interpolated profiles (M, N) at targets (K,) -> (M, K).

    Entry (i, j) is the integral of profile i times kernel(t; targets[j]) over
    the grid range. The integrable log singularity is handled by
    geometrically graded panels plus an analytic moment for each excluded
    sliver. Row j of a K x N operator holds target j's rule folded into the
    cubic interpolation weights; the rows are built for blocks of targets at
    a time, and one matrix product applies the operator to every profile.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    targets = np.asarray(targets, dtype=float).ravel()
    A = np.empty((targets.size, grid.n))
    for start in range(0, targets.size, _TARGET_BLOCK):
        s = targets[start:start + _TARGET_BLOCK]
        A[start:start + s.size] = _log_kernel_rows(grid, s, kernel, order)
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
