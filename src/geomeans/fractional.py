"""Erdelyi-Kober and right-sided Riemann-Liouville fractional operators.

Positive orders are weighted integrals with an algebraic endpoint factor;
the factor is absorbed exactly by a Gauss-Jacobi rule after substituting
out the singularity, so smooth profiles integrate with spectral accuracy.
Nonpositive orders are realized by analytic continuation with
m = ceil(-alpha), in two orders. `rl_matrix` integrates to the positive
fractional order m + alpha, then applies (-d/dt)^m. `ek_ac_matrix` applies
the derivative factor first, I_eta^alpha = I_eta^{m+alpha} o
I_{eta+m+alpha}^{-m}: the integer-order derivative formula, then the
fractional integral. Both derivative formulas come from the numerics module.
"""

from __future__ import annotations

from math import gamma

import numpy as np

from .numerics import TGrid, d_operator_matrix, diff_matrix, gauss_jacobi, quintic_interp

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


def _quintic_operator(grid: TGrid, x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """N x N matrix A with (samples @ A.T)[:, j] = sum over q of
    coef[j, q] * quintic_interp(samples, grid, x[j, q]).

    x holds the quadrature nodes of target row j in row j, shape (R, Q) with
    R <= N; coef broadcasts against x, and the rows of A past R are zero.
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
        A[j0:j1] = np.bincount(flat.ravel(), (w * cb).ravel(),
                               minlength=(j1 - j0) * n).reshape(j1 - j0, n)
    return A


def ek_matrix(samples: np.ndarray, grid: TGrid, eta: float, alpha: float,
              order: int = 192) -> np.ndarray:
    """Positive-order Erdelyi-Kober integral of each row of samples (M, N).

    (I_eta^a phi)(t) = (2 t^{-2(a+eta)} / Gamma(a)) *
                       int_0^t (t^2 - r^2)^{a-1} r^{2 eta + 1} phi(r) dr,
    evaluated at every grid node; rows are treated as independent profiles
    extended by zero outside the grid. The rule is built once as an N x N
    operator (quintic interpolation at the nodes t * s_q, a block of target
    rows at a time, so the build holds about 2 N x N arrays whatever the
    order) and applied to all rows with one matrix product.
    """
    if alpha <= 0:
        raise ValueError("use the analytic-continuation path for alpha <= 0")
    if eta < -0.5:
        raise ValueError("positive-order operators need eta >= -1/2")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    t = grid.values
    s, F = _ek_rule(eta, alpha, order)
    A = _quintic_operator(grid, t[:, None] * s[None, :], 2.0 / gamma(alpha) * F)
    return samples @ A.T


def _ek_integer_neg_matrix(samples: np.ndarray, grid: TGrid, eta: float, m: int) -> np.ndarray:
    """(I_eta^{-m} phi)(t) = t^{-2(eta-m)} D^m [t^{2 eta} phi(t)], D = (1/2t) d/dt."""
    t = grid.values
    weighted = np.asarray(samples, dtype=float) * t ** (2.0 * eta)
    return d_operator_matrix(weighted, grid, m) * t ** (-2.0 * (eta - m))


def ek_ac_matrix(samples: np.ndarray, grid: TGrid, eta: float, alpha: float,
                 order: int = 192) -> np.ndarray:
    """Erdelyi-Kober operator of order alpha <= 0 by analytic continuation.

    With m = ceil(-alpha), factor I_eta^alpha = I_eta^{m+alpha} o
    I_{eta+m+alpha}^{-m}; the integer-negative factor is the derivative
    formula, the fractional remainder (if any) the positive-order integral.
    """
    if alpha > 0:
        raise ValueError("alpha must be <= 0 on this path")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if alpha == 0:
        return samples.copy()
    m = int(np.ceil(-alpha))
    rem = m + alpha
    eta_prime = eta + rem
    inner = _ek_integer_neg_matrix(samples, grid, eta_prime, m)
    if rem == 0:
        return inner
    return ek_matrix(inner, grid, eta, rem, order=order)


def rl_matrix(samples: np.ndarray, grid: TGrid, alpha: float, order: int = 192) -> np.ndarray:
    """Right-sided Riemann-Liouville integral of order alpha of rows (M, N).

    alpha > 0: (I_-^a u)(t) = (1/Gamma(a)) int_t^b (tau - t)^{a-1} u(tau) dtau
    with b the grid end (profiles vanish beyond it). alpha <= 0 with
    m = ceil(-alpha): (-d/dt)^m applied to the order m + alpha integral.
    The positive-order rule is one N x N operator, quintic interpolation at
    the nodes tau = t + (b - t) v_q built a block of target rows at a time
    (about 3 N x N arrays at the peak with the nodes and weights), applied
    to all rows with one matrix product.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if alpha == 0:
        return samples.copy()
    if alpha < 0:
        m = int(np.ceil(-alpha))
        rem = m + alpha
        inner = samples if rem == 0 else rl_matrix(samples, grid, rem, order)
        return (-1.0) ** m * diff_matrix(inner, grid, m)
    t = grid.values
    x, w = gauss_jacobi(order, 0.0, alpha - 1.0)
    v = 0.5 * (1.0 + x)
    F = w * 2.0 ** (-alpha)
    span = (grid.b - t)[:, None]
    tau = t[:, None] + span * v[None, :]
    coef = (span ** alpha / gamma(alpha)) * F[None, :]
    A = _quintic_operator(grid, tau, coef)
    return samples @ A.T
