"""Forward data generators.

Samples the normalized means of a phantom over all boundary-centered
geodesic spheres onto a (center x t) matrix, and produces the weighted-mean
traces that solve the singular-time Cauchy problems on the boundary
cylinder: the Euclidean weighted means via Erdelyi-Kober integrals of the
plain means, and the spherical ones via right-sided Riemann-Liouville
integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from . import spaces
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix
from .numerics import TGrid, gauss_legendre
from .phantoms import Phantom, RadialField, as_radial_field
from .spaces import BoundaryGrid, SpaceSpec

__all__ = [
    "MeanData",
    "default_tgrid",
    "forward_field_profile",
    "forward_means",
    "epd_trace_euclidean",
    "epd_trace_sphere",
]

_T_CHUNK = 96


@dataclass
class MeanData:
    """Sampled means (or weighted-mean traces) on boundary centers x t-grid.

    `alpha` is None for plain means and carries the trace order otherwise.
    """

    space: SpaceSpec
    boundary: BoundaryGrid
    tgrid: TGrid
    values: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.boundary.m, self.tgrid.n):
            raise ValueError("values must be (centers x t-grid)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("mean data contains non-finite values")


def default_tgrid(space: SpaceSpec, n_points: int | None = None) -> TGrid:
    """Per-space default section-parameter grids.

    Euclidean: 800 nodes on (1e-3, 2R - 1e-3); sphere: 600 on
    (-1 + 1e-3, 1 - 1e-3); hyperbolic: 600 on (1 + 1e-3, cosh 2R).
    """
    lo, hi = space.tgrid_range
    if space.kind == spaces.EUCLIDEAN:
        n = n_points or 800
        return TGrid.linspace(lo + 1e-3, hi - 1e-3, n)
    if space.kind == spaces.SPHERE:
        n = n_points or 600
        return TGrid.linspace(lo + 1e-3, hi - 1e-3, n)
    n = n_points or 600
    return TGrid.linspace(lo + 1e-3, hi, n)


def forward_field_profile(field, space: SpaceSpec, center: np.ndarray, tgrid: TGrid,
                          order: int) -> np.ndarray:
    """Mean of an arbitrary field evaluator over the sections at one center."""
    rule = spaces.section_rule(space, center, order)
    t = tgrid.values
    out = np.empty(t.size)
    for lo in range(0, t.size, _T_CHUNK):
        hi = min(lo + _T_CHUNK, t.size)
        a, b = rule.scales(t[lo:hi])
        nodes = (a[:, None, None] * rule.base[None, None, :]
                 + b[:, None, None] * rule.directions[None, :, :])
        vals = field(nodes.reshape(-1, nodes.shape[-1])).reshape(hi - lo, -1)
        out[lo:hi] = vals @ rule.weights
    return out


def _radial_part_profile(space: SpaceSpec, center: np.ndarray, part_center: np.ndarray,
                         scale: float, fn, tgrid: TGrid, order: int) -> np.ndarray:
    """Section means of one radial part, via exact azimuthal reduction.

    On the section at parameter t the distance to the part center depends
    only on the cosine u of one angle, with density proportional to
    (1-u^2)^{(n-3)/2}; the remaining 1-D integral runs over the support
    window of the part, so a Gauss rule on that window is exactly resolved.
    """
    n = space.n
    t = tgrid.values
    if space.kind == spaces.EUCLIDEAN:
        d = float(np.linalg.norm(center - part_center))

        def dist(tt, u):
            return np.sqrt(np.maximum(tt ** 2 + d ** 2 - 2.0 * tt * d * u, 0.0))

        u_star = (t ** 2 + d ** 2 - scale ** 2) / (2.0 * t * d)
    elif space.kind == spaces.SPHERE:
        a = float(np.dot(center, part_center))
        B = np.sqrt(np.maximum((1.0 - t ** 2) * (1.0 - a ** 2), 0.0))

        def dist(tt, u, a=a):
            bb = np.sqrt(np.maximum((1.0 - tt ** 2) * (1.0 - a ** 2), 0.0))
            return np.arccos(np.clip(tt * a + bb * u, -1.0, 1.0))

        u_star = (np.cos(scale) - t * a) / np.maximum(B, 1e-300)
    else:
        A = float(spaces.minkowski_form(center, part_center))
        sin_d = np.sqrt(max(A ** 2 - 1.0, 0.0))
        S = np.sqrt(np.maximum(t ** 2 - 1.0, 0.0)) * sin_d

        def dist(tt, u, A=A, sin_d=sin_d):
            ss = np.sqrt(np.maximum(tt ** 2 - 1.0, 0.0)) * sin_d
            return np.arccosh(np.clip(tt * A - ss * u, 1.0, None))

        u_star = (t * A - np.cosh(scale)) / np.maximum(S, 1e-300)
    phi_max = np.arccos(np.clip(u_star, -1.0, 1.0))
    # sections that miss the support (phi_max = 0) have mean exactly 0
    rows = np.flatnonzero(phi_max > 0)
    out = np.zeros(t.size)
    phi_max = phi_max[rows]
    x, w = gauss_legendre(order, 0.0, 1.0)
    phi = phi_max[:, None] * x[None, :]
    u = np.cos(phi)
    vals = fn(dist(t[rows, None], u) / scale) * np.sin(phi) ** (n - 2)
    ratio = float(gamma(n / 2.0) / (np.sqrt(np.pi) * gamma((n - 1) / 2.0)))
    out[rows] = ratio * phi_max * (vals @ w)
    return out


def _exact_means_row(field: RadialField, center: np.ndarray, tgrid: TGrid,
                     order: int) -> np.ndarray:
    row = np.zeros(tgrid.n)
    for part_center, scale, fn in field.parts:
        row += _radial_part_profile(field.space, center, part_center, scale, fn,
                                    tgrid, order)
    return row


def forward_means(phantom, boundary: BoundaryGrid, tgrid: TGrid,
                  order: int = 16, profile: str = "exact",
                  exact_order: int = 64) -> MeanData:
    """Normalized means of the phantom over all (center, t) sections.

    profile='exact' (phantoms and radial fields) integrates each radial
    part with the azimuthal reduction, which is exactly resolved regardless
    of how small the part is; profile='sections' uses the generic section
    quadrature of the given order. Fields radial about the space origin
    give one profile broadcast to every center.
    """
    if isinstance(phantom, Phantom):
        space = phantom.space
        field = as_radial_field(phantom) if profile == "exact" else phantom
        centered = phantom.is_centered()
    elif isinstance(phantom, RadialField):
        space = phantom.space
        field = phantom
        o = spaces.origin(space)
        centered = all(
            float(spaces.geodesic_distance(space, c, o)) < 1e-14
            for c, _, _ in phantom.parts
        )
    else:
        raise TypeError("forward_means needs a Phantom or RadialField")
    if space != boundary.space:
        raise ValueError("phantom and boundary grid live in different spaces")
    if profile == "exact":
        def row_for(center):
            return _exact_means_row(field, center, tgrid, exact_order)
    elif profile == "sections":
        def row_for(center):
            return forward_field_profile(field, space, center, tgrid, order)
    else:
        raise ValueError("profile must be 'exact' or 'sections'")
    if centered:
        values = np.tile(row_for(boundary.centers[0]), (boundary.m, 1))
        return MeanData(space, boundary, tgrid, values)
    values = np.empty((boundary.m, tgrid.n))
    for i in range(boundary.m):
        values[i] = row_for(boundary.centers[i])
    return MeanData(space, boundary, tgrid, values)


def epd_trace_euclidean(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                        alpha: float, order: int = 16, frac_order: int = 192) -> MeanData:
    """Weighted-mean trace of order alpha on the boundary cylinder.

    The trace profile per center is Gamma(alpha + n/2)/Gamma(n/2) times the
    Erdelyi-Kober integral (index eta = n/2 - 1, order alpha) of the plain
    means profile; alpha = 0 reduces to the plain means and negative orders
    use the analytic continuation (alpha >= (1-n)/2 for well-posedness).
    """
    space = phantom.space
    if space.kind != spaces.EUCLIDEAN:
        raise ValueError("Euclidean trace generator needs a Euclidean space")
    n = space.n
    if alpha < (1.0 - n) / 2.0:
        raise ValueError(f"alpha must be >= (1-n)/2 = {(1 - n) / 2}")
    means = forward_means(phantom, boundary, tgrid, order)
    eta = n / 2.0 - 1.0
    if alpha == 0:
        return MeanData(space, boundary, tgrid, means.values, alpha=0.0)
    if alpha > 0:
        u = ek_matrix(means.values, tgrid, eta, alpha, order=frac_order)
    else:
        u = ek_ac_matrix(means.values, tgrid, eta, alpha, order=frac_order)
    u *= gamma(alpha + n / 2.0) / gamma(n / 2.0)
    return MeanData(space, boundary, tgrid, u, alpha=alpha)


def epd_trace_sphere(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                     alpha: float, order: int = 16, frac_order: int = 192) -> MeanData:
    """Weighted-mean trace on the cap boundary, directly integrable regime.

    Per center: F(t) = means(t) (1-t^2)^{n/2-1}, G = I_-^alpha F, and the
    stored trace is u(xi, t) = 2^alpha Gamma(alpha + n/2)/Gamma(n/2) *
    (1-t^2)^{1-alpha-n/2} G(t).
    """
    space = phantom.space
    if space.kind != spaces.SPHERE:
        raise ValueError("spherical trace generator needs a sphere space")
    if alpha <= 0:
        raise ValueError("forward trace generation is restricted to alpha > 0")
    n = space.n
    means = forward_means(phantom, boundary, tgrid, order)
    t = tgrid.values
    F = means.values * (1.0 - t ** 2) ** (n / 2.0 - 1.0)
    G = rl_matrix(F, tgrid, alpha, order=frac_order)
    u = 2.0 ** alpha * gamma(alpha + n / 2.0) / gamma(n / 2.0) \
        * (1.0 - t ** 2) ** (1.0 - alpha - n / 2.0) * G
    return MeanData(space, boundary, tgrid, u, alpha=alpha)
