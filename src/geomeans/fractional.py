"""Erdelyi-Kober and right-sided Riemann-Liouville fractional operators.

Positive orders are weighted integrals with an algebraic endpoint factor,
integrated against the samples' quintic interpolant. The Erdelyi-Kober
kernel changes with the target. At an integer order it is a polynomial in
t^2, so the integral is running sums of exact cell integrals on the samples
(six weights a cell, a prefix sum along t); at a fractional order a
Gauss-Jacobi rule absorbs its factor exactly after
substituting out the singularity, at nodes interpolated from the samples.
The Riemann-Liouville kernel depends on the offset from the target alone:
each cell takes the kernel's exact moments against its stencil's powers
(product integration), so one vector of weights by offset gives every
interior row.
Nonpositive orders are realized by analytic continuation with
m = ceil(-alpha), in two orders. `rl_matrix` integrates to the positive
fractional order m + alpha, then applies (-d/dt)^m. `ek_ac_matrix` applies
the derivative factor first, I_eta^alpha = I_eta^{m+alpha} o
I_{eta+m+alpha}^{-m}: the integer-order derivative formula, then the
fractional integral. Both derivative formulas come from the numerics module.

Every operator takes the target nodes `columns` (a slice of the grid's
nodes, all of them by default) and returns those columns alone, with the
bits of the whole grid's. A fractional-order operator is built only on their
rows and applied at its full (N, N) shape; a derivative runs on the window
its targets read (`numerics._widen`). A left-sided (Erdelyi-Kober) integral
reads every node below its targets, a right-sided (Riemann-Liouville) one
every node above.
"""

from __future__ import annotations

from math import comb, gamma

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import (
    _QUINTIC_OFFSETS,
    TGrid,
    _lagrange_powers,
    _widen,
    d_operator_matrix,
    diff_matrix,
    gauss_jacobi,
    gauss_legendre,
    quintic_interp,
)

__all__ = ["ek_matrix", "ek_ac_matrix", "rl_matrix"]


def _ek_rule(eta: float, alpha: float, order: int):
    """Nodes s_i in (0, 1) and weights F_i with

    integral_0^1 c^{2a-1} (1-c^2)^eta g(sqrt(1-c^2)) dc  ~=  sum F_i g(s_i),

    where s = sqrt(1-c^2) = r/t is the radial fraction.
    """
    x, w = gauss_jacobi(order, eta, 2.0 * alpha - 1.0)
    c = 0.5 * (1.0 + x)
    F = w * 2.0 ** (-2.0 * alpha - eta) * (1.0 + c) ** eta
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    return s, F


# Quadrature nodes per block of target rows in `_quintic_operator`: the
# block's (8, nodes) interpolation temporaries stay cache-sized (about 0.5 MB)
# whatever N and the order.
_OPERATOR_NODES = 8192


def _quintic_operator(grid: TGrid, x: np.ndarray, coef: np.ndarray,
                      first: int = 0) -> np.ndarray:
    """N x N matrix A with (samples @ A.T)[:, first + j] = sum over q of
    coef[j, q] * quintic_interp(samples, grid, x[j, q]).

    x holds the quadrature nodes of target row first + j in row j, shape
    (R, Q) with first + R <= N; coef broadcasts against x, and the other
    rows of A are zero.
    Each node's six stencil weights come from quintic_interp applied to the
    rows of an 8 x 8 identity on a unit grid, at the node's local coordinate s:
    the stencil starts at base 0 when s < 1 (interior cells and the left-edge
    clip, s in [-2, 1)) and at base 2 at the right-edge clip (s in [1, 3]).

    A is built in blocks of whole rows, about _OPERATOR_NODES nodes each. A
    row's nodes keep their order and bincount adds in input order, so the
    blocks change no bit of A.
    """
    n = grid.n
    coef = np.broadcast_to(coef, x.shape)
    unit, eye, stencil = TGrid(np.arange(8.0)), np.eye(8), np.arange(6)[:, None]
    A = np.zeros((n, n))
    step = max(1, _OPERATOR_NODES // x.shape[1])
    for j0 in range(0, x.shape[0], step):
        j1 = min(j0 + step, x.shape[0])
        inside = (x[j0:j1] >= grid.a) & (x[j0:j1] <= grid.b)
        rows, xb, cb = np.nonzero(inside)[0], x[j0:j1][inside], coef[j0:j1][inside]
        u = (xb - grid.a) / grid.h
        idx = np.clip(np.floor(u).astype(np.int64), 2, n - 4)
        # a node at b whose u rounds above n - 1 would fall past the unit grid
        s = np.minimum(u - idx, 3.0)
        base = np.where(s < 1.0, 0, 2)
        w = quintic_interp(eye, unit, s + 2.0 + base)
        w = np.take_along_axis(w, base + stencil, axis=0)
        flat = rows * n + idx - 2 + stencil
        A[first + j0:first + j1] = np.bincount(flat.ravel(), (w * cb).ravel(),
                                               minlength=(j1 - j0) * n).reshape(j1 - j0, n)
    return A


# cells per block of rows in `_ek_running_sums`: its two buffers, reused, stay 256 KiB
_RUNNING_CELLS = 32_768


def _ek_running_sums(samples: np.ndarray, grid: TGrid, eta: float, k: int,
                     lo: int, hi: int) -> np.ndarray:
    """Columns lo:hi of the Erdelyi-Kober integral of integer order k of
    each row's quintic interpolant: by the binomial theorem, a sum over i < k
    of running integrals of r^p phi(r), p = 2i + 2 eta + 1, times 2/Gamma(k)
    C(k-1, i) (-1)^i t^(-2(i+1+eta)). Per power and block of rows, each cell
    below hi weighs its stencil's six samples (_MOMENT_NODES Gauss-Legendre
    nodes a cell, exact for integer p <= 26) in six shifted multiply-adds,
    and one prefix sum along t gives node j the cells below j. No step sums
    across rows or depends on lo: each row and column keeps the whole grid's bits.
    """
    n, m = grid.n, samples.shape[0]
    x, w = gauss_legendre(_MOMENT_NODES, 0.0, 1.0)
    # column j holds cell j - 1's integral (none at j = 0) until the prefix
    # sum; the cell reads nodes start[j] + 0..5 at x + shift: -2, -1 in the first
    # two cells, 1, 2 in the last two, else 0; on a unit grid s >= 1 reads 2..7
    start, ends = np.clip(np.arange(n) - 3, 0, n - 6), {1: -2, 2: -1, n - 2: 1, n - 1: 2}
    unit = quintic_interp(np.eye(8), TGrid(np.arange(8.0)), np.concatenate(
        [x + s + 2 + 2 * (s > 0) for s in range(-2, 3)])).reshape(8, 5, x.size)
    stencils = {s: unit[2 * (s > 0):2 * (s > 0) + 6, s + 2].T for s in range(-2, 3)}
    cells = grid.a + (np.arange(n - 1)[:, None] + x) * grid.h
    out, t, W = np.zeros((m, hi - lo)), grid.values[lo:hi], np.zeros((n, 6))
    rows = max(1, min(m, _RUNNING_CELLS // max(hi, 1)))
    cell, term = np.empty((rows, hi)), np.empty((rows, hi))
    for i in range(k):
        G = cells ** (2 * i + 2 * eta + 1)
        G *= grid.h * w
        W[1:] = G @ stencils[0]  # row j: cell j - 1's weights on its stencil
        W[list(ends)] = [G[j - 1] @ stencils[shift] for j, shift in ends.items()]
        t_power = 2.0 / gamma(k) * comb(k - 1, i) * (-1) ** i * t ** (-2.0 * (i + 1 + eta))
        for r in range(0, m, rows):
            S, C, T = samples[r:r + rows], cell[:m - r], term[:m - r]
            C.fill(0.0)
            for o in range(6):
                np.take(S, start[:hi] + o, axis=1, out=T, mode="clip")
                C += np.multiply(T, W[:hi, o], out=T)
            np.cumsum(C, axis=1, out=C)
            out[r:r + rows] += np.multiply(C[:, lo:], t_power, out=C[:, lo:])
    return out


def ek_matrix(samples: np.ndarray, grid: TGrid, eta: float, alpha: float,
              order: int = 192, columns: slice = slice(None)) -> np.ndarray:
    """Positive-order Erdelyi-Kober integral of each row of samples (M, N).

    (I_eta^a phi)(t) = (2 t^{-2(a+eta)} / Gamma(a)) *
                       int_0^t (t^2 - r^2)^{a-1} r^{2 eta + 1} phi(r) dr,
    evaluated at every grid node; rows are treated as independent profiles
    extended by zero outside the grid. An integer order takes banded exact
    cell integrals of the samples below the last target and one prefix sum
    per power (`_ek_running_sums`). A fractional order builds an N x N
    operator of quintic interpolation at the `order` Gauss-Jacobi nodes
    t * s_q of each target (`order` sizes this rule alone), a block of rows
    at a time, and applies it with one matrix product. Both return `columns`.
    """
    if alpha <= 0:
        raise ValueError("use the analytic-continuation path for alpha <= 0")
    if eta < -0.5:
        raise ValueError("positive-order operators need eta >= -1/2")
    if grid.a <= 0:
        raise ValueError("Erdelyi-Kober integrals need a t-grid in t > 0")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lo, hi, _ = columns.indices(grid.n)
    if float(alpha).is_integer():
        return _ek_running_sums(samples, grid, eta, int(alpha), lo, hi)
    s, F = _ek_rule(eta, alpha, order)
    A = _quintic_operator(grid, grid.values[lo:hi, None] * s, 2.0 / gamma(alpha) * F, first=lo)
    return (samples @ A.T)[:, lo:hi]


def _ek_integer_neg_matrix(samples: np.ndarray, grid: TGrid, eta: float, m: int,
                           columns: slice = slice(None)) -> np.ndarray:
    """(I_eta^{-m} phi)(t) = t^{-2(eta-m)} D^m [t^{2 eta} phi(t)], D = (1/2t) d/dt,
    at the grid's nodes `columns`."""
    t = grid.values
    lo, hi, _ = columns.indices(grid.n)
    w0, w1 = _widen(lo, hi, 2 * m, 0, grid.n)
    weighted = np.asarray(samples, dtype=float)[:, w0:w1] * (t ** (2.0 * eta))[w0:w1]
    inner = d_operator_matrix(weighted, grid, m, slice(w0, w1))[:, lo - w0:hi - w0]
    return inner * (t ** (-2.0 * (eta - m)))[lo:hi]


def ek_ac_matrix(samples: np.ndarray, grid: TGrid, eta: float, alpha: float,
                 order: int = 192, columns: slice = slice(None)) -> np.ndarray:
    """Erdelyi-Kober operator of order alpha <= 0 by analytic continuation.

    With m = ceil(-alpha), factor I_eta^alpha = I_eta^{m+alpha} o
    I_{eta+m+alpha}^{-m}; the integer-negative factor is the derivative
    formula, the fractional remainder (if any) the positive-order integral.
    The derivative runs on the nodes that the integral's targets `columns`
    read: every node up to the last one's quintic stencil, 3 nodes above it
    (`numerics._widen`).
    """
    if alpha > 0:
        raise ValueError("alpha must be <= 0 on this path")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lo, hi, _ = columns.indices(grid.n)
    if alpha == 0:
        return samples[:, lo:hi].copy()
    m = int(np.ceil(-alpha))
    rem = m + alpha
    eta_prime = eta + rem
    if rem == 0:
        return _ek_integer_neg_matrix(samples, grid, eta_prime, m, columns)
    reads = _widen(0, hi, 3, 0, grid.n)[1]
    inner = np.zeros((samples.shape[0], grid.n))
    inner[:, :reads] = _ek_integer_neg_matrix(samples, grid, eta_prime, m, slice(reads))
    return ek_matrix(inner, grid, eta, rem, order=order, columns=columns)


# The Lagrange weights of the quintic stencil (nodes base - 2, ..., base + 3)
# in powers of a cell's coordinate x in [0, 1]: stencil node o's weight at
# s = x + shift is sum over p of _STENCIL_POWERS[shift][o, p] x^p. Interior
# cells take shift 0; the two cells at each grid end share the end stencil,
# at shifts -2 and -1 on the left and 1 and 2 on the right.
_STENCIL_POWERS = {shift: _lagrange_powers(_QUINTIC_OFFSETS, shift) for shift in (-2, -1, 0, 1, 2)}

# Gauss-Legendre nodes of the cell moments at offsets d >= 1, where the kernel
# (d + x)^(alpha - 1) is analytic on [0, 1] with its singularity at x = -d: the
# error falls as (3 + sqrt 8)^(-2 nodes), so 16 nodes reach rounding
_MOMENT_NODES = 16


def _rl_moments(alpha: float, count: int) -> np.ndarray:
    """m[p, d] = int_0^1 (d + x)^(alpha - 1) x^p dx for p <= 5 and the
    offsets d < count: 1/(alpha + p) at d = 0, Gauss-Legendre beyond."""
    x, w = gauss_legendre(_MOMENT_NODES, 0.0, 1.0)
    powers = np.arange(6)
    kernel = (np.arange(1.0, count)[None, :] + x[:, None]) ** (alpha - 1.0)
    m = np.empty((6, count))
    m[:, 0] = 1.0 / (alpha + powers)
    m[:, 1:] = (w * x ** powers[:, None]) @ kernel
    return m


def _rl_operator(grid: TGrid, alpha: float, lo: int, hi: int) -> np.ndarray:
    """N x N matrix A with (samples @ A.T)[:, j] the order-alpha right-sided
    integral of the samples' quintic interpolant from t_j to b, for the
    target rows lo <= j < hi; the other rows of A are zero.

    Cell k = [t_k, t_k+1] sits d = k - j cells above target j, so its weights
    are h^alpha / Gamma(alpha) times its stencil's power coefficients against
    the moments m_p(d) (`_rl_moments`). Were every cell interior, row j would
    be one band read at the offsets i - j: `band`, a view of one vector,
    which holds every cell k >= j, those past the grid's end too. Each row
    then trades the interior stencil for the end stencil at the clipped cells
    0, 1, N - 3 and N - 2 and drops the cells N - 1, N and N + 1 that the
    band reaches past the end. Every row takes the same steps whatever lo and
    hi, so it keeps its bits in any window. The last target integrates over
    no cell, and its row stays zero.
    """
    n = grid.n
    m = _rl_moments(alpha, n + 2) * (grid.h ** alpha / gamma(alpha))
    weights = {shift: powers @ m for shift, powers in _STENCIL_POWERS.items()}
    band = np.zeros(2 * n + 6)  # band[n + e]: node j + e's weight at target j
    for off, row in zip(_QUINTIC_OFFSETS, weights[0]):
        band[n + off:n + off + n + 2] += row
    last = min(hi, n - 1)
    A = np.zeros((n, n))
    A[lo:last] = sliding_window_view(band, n)[n - last + 1:n - lo + 1][::-1]
    # (cell, its end stencil's first node and shift, or None past the end)
    ends = [(0, 0, -2), (1, 0, -1), (n - 3, n - 6, 1), (n - 2, n - 6, 2),
            (n - 1, None, None), (n, None, None), (n + 1, None, None)]
    for k, base, shift in ends:
        rows = slice(lo, min(last, k + 1))
        if rows.start >= rows.stop:
            continue
        d = slice(k - rows.stop + 1, k - lo + 1)
        c0, c1 = max(k - 2, 0), min(k + 4, n)
        A[rows, c0:c1] -= weights[0][c0 - k + 2:c1 - k + 2, d][:, ::-1].T
        if shift is not None:
            A[rows, base:base + 6] += weights[shift][:, d][:, ::-1].T
    return A


def rl_matrix(samples: np.ndarray, grid: TGrid, alpha: float,
              columns: slice = slice(None)) -> np.ndarray:
    """Right-sided Riemann-Liouville integral of order alpha of rows (M, N).

    alpha > 0: (I_-^a u)(t) = (1/Gamma(a)) int_t^b (tau - t)^{a-1} u(tau) dtau
    with b the grid end (profiles vanish beyond it). alpha <= 0 with
    m = ceil(-alpha): (-d/dt)^m applied to the order m + alpha integral.
    The positive-order rule is product integration of the samples' quintic
    interpolant: the kernel's exact moments on each cell, which depend on
    the cell's offset from the target alone (`_rl_operator`). It is one
    N x N operator, applied to all rows with one matrix product. Only the
    target rows `columns` are built, and only those columns are returned;
    the derivative of a nonpositive order runs on the window of its m passes
    (`numerics._widen`).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lo, hi, _ = columns.indices(grid.n)
    if alpha == 0:
        return samples[:, lo:hi].copy()
    if alpha < 0:
        m = int(np.ceil(-alpha))
        rem = m + alpha
        w0, w1 = _widen(lo, hi, 2 * m, 0, grid.n)
        inner = samples[:, w0:w1] if rem == 0 else rl_matrix(samples, grid, rem, slice(w0, w1))
        return (-1.0) ** m * diff_matrix(inner, grid, m)[:, lo - w0:hi - w0]
    return (samples @ _rl_operator(grid, alpha, lo, hi).T)[:, lo:hi]
