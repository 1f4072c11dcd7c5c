"""Cubic interpolation on a uniform grid by its four Lagrange weights.

The reference route for the back-projection's nested Newton form and for
the log-kernel tables' cell rule: every query locates its cell and weighs
the four stencil values separately, with no shared differences.
"""

from __future__ import annotations

import numpy as np


def cubic_cells(grid, x):
    """Cell indices and local coordinates for 4-point cubic interpolation."""
    h = grid.h
    u = (x - grid.a) / h
    idx = np.floor(u).astype(np.int64)
    idx = np.clip(idx, 1, grid.n - 3)
    s = u - idx
    return idx, s


def cubic_weights(s):
    # Lagrange weights on stencil offsets {-1, 0, 1, 2}
    w_m1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w_0 = (s * s - 1.0) * (s - 2.0) / 2.0
    w_1 = -s * (s + 1.0) * (s - 2.0) / 2.0
    w_2 = s * (s * s - 1.0) / 6.0
    return w_m1, w_0, w_1, w_2


def cubic_interp(samples, grid, x, fill=0.0):
    """Cubic interpolant of one row of samples (N,) at the points x (K,):
    fill=0.0 reads 0 outside the grid, fill='error' raises there."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (x >= grid.a) & (x <= grid.b)
    if fill == "error" and not np.all(inside):
        raise ValueError("interpolation point outside grid range")
    idx, s = cubic_cells(grid, np.where(inside, x, grid.a))
    out = np.zeros(x.shape)
    for w, off in zip(cubic_weights(s), (-1, 0, 1, 2)):
        out += w * np.asarray(samples, dtype=float)[idx + off]
    return np.where(inside, out, 0.0)
