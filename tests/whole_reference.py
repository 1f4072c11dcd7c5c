"""The inversion with every layer on whole arrays.

The reference route for `invert`, which pulls the filtered rows of each
block of centres into the back-projection: here every layer runs on all
distinct rows at once, the derivative tables are whole (m, N) arrays, and
the back-projection takes them whole. Every step between the operator
products works row by row, so both routes give the same bits. Radial data
take the zonal grid here as there.

It is also the reference without the read window: in odd n, `invert`
undoes a trace's weighting, filters and differentiates only the t-columns
that the back-projection reads; here every layer runs on every column of
the t-grid, and the back-projection reads the columns it needs.
`whole_source` makes the back-projection's block source of whole tables.
"""

from __future__ import annotations

import numpy as np

from geomeans import inversion, spaces
from geomeans.forward import trace_weighting
from geomeans.numerics import d_operator_matrix, darboux_L_matrix, diff_matrix, log_kernel_table
from geomeans.spaces import EUCLIDEAN


def whole_source(*tables):
    """The block source of whole tables, each (m, N): the rows lo to hi - 1
    of every table."""
    return lambda lo, hi: [table[lo:hi] for table in tables]


def whole_rows(data, x, method="direct"):
    """The grid, the rows P of every distinct centre row and the fill of
    the back-projection: the trace weighting undone, the section weighting,
    the t-filter and, in even n, the log-kernel table on the read window."""
    space, n, tg = data.space, data.space.n, data.tgrid
    euclidean, t = space.kind == EUCLIDEAN, tg.values
    values = data.rows
    if data.alpha is not None:
        values = trace_weighting(space, tg, values, n / 2.0 - 1.0 + data.alpha, -data.alpha)
    if method == "modified":
        values = darboux_L_matrix(values, tg, n)
    weight = t ** (n - 2) if euclidean else (space.curvature * (1.0 - t ** 2)) ** (n / 2.0 - 1.0)
    filt = d_operator_matrix if euclidean else diff_matrix
    rows = filt(weight * values, tg, n - 3 if n % 2 else n - 2)
    if n % 2 == 1:
        return tg, rows, 0.0
    if euclidean:
        rows = rows * t
    grid = inversion._table_grid(space, tg, inversion._read_range(space, x))
    kernel = "log|t^2-s^2|" if euclidean else "log|t-s|"
    return grid, log_kernel_table(rows, tg, grid.values, kernel=kernel), "error"


def whole_invert(data, x, method="direct"):
    """f at the points x from the whole rows, finished as `invert` finishes."""
    space, n = data.space, data.space.n
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grid, P, fill = whole_rows(data, x, method)
    boundary, points = data.boundary, x
    if P.shape[0] == 1:
        boundary, points = inversion._zonal(space, x, grid.n)
        P = np.repeat(P, grid.n, axis=0)
    euclidean = space.kind == EUCLIDEAN
    tables = (P,)
    if method == "direct":
        # L_n P in R^n; the pair (P'', P') on the cap and the hyperboloid
        if euclidean:
            tables = (darboux_L_matrix(P, grid, n),)
        else:
            first = diff_matrix(P, grid, 1)
            tables = (diff_matrix(first, grid, 1), first)
    f0 = inversion.backproject(boundary, grid, whole_source(*tables), points, fill=fill,
                               times_t=not euclidean)
    d = inversion._prefactor(space)
    if euclidean:
        return d * space.boundary_area * f0[0]
    p2, p1, tp2 = f0
    A, B, C = inversion._chart_coefficients(space, spaces.chart(space, x))
    scale = -1.0 if n % 2 == 1 else 1.0 / np.pi
    lap = scale * space.boundary_area * (A * p2 + B * tp2 + C * p1)
    return d * x[:, -1] / space.chart_radius * lap
