"""Geometry of the three constant-curvature model spaces.

Euclidean balls B = {|x| < R} in R^n, spherical caps around the north pole
of S^n in R^{n+1}, and geodesic balls around e_{n+1} in the hyperboloid
model of H^n. The cap and the hyperboloid are one model with curvature sign
kappa = +1 resp. -1 (0 in R^n): the surface x_{n+1}^2 + kappa |x'|^2 = 1
(upper sheet on H^n), the pairing x_{n+1} y_{n+1} + kappa x'.y' (x.y on
S^n, the Minkowski form [x, y] on H^n) equal to cos_k of the geodesic
distance, and sin_k, cos_k = sin, cos resp. sinh, cosh. Provides
boundary-center grids, the unit-sphere rule and the scales and frames that
carry it to geodesic spheres (the "planar sections" |x - y| = t resp.
(x, y) = t), and the h-parameter entering the kernel bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .numerics import gauss_jacobi, gauss_legendre

__all__ = [
    "EUCLIDEAN",
    "SPHERE",
    "HYPERBOLIC",
    "SpaceSpec",
    "BoundaryGrid",
    "origin",
    "lift",
    "chart",
    "validate_point",
    "geodesic_distance",
    "pairing",
    "unit_sphere_rule",
    "boundary_grid",
    "section_scales",
    "section_frame",
    "h_parameter",
]

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
_CURVATURE = {EUCLIDEAN: 0, SPHERE: 1, HYPERBOLIC: -1}


@dataclass(frozen=True)
class SpaceSpec:
    """Which model space, its dimension n >= 2, and the ball/cap radius.

    For Euclidean and hyperbolic spaces `radius` is the geodesic ball radius
    R > 0; for the sphere it is the cap angle theta in (0, pi/2]. `kind`
    fixes the curvature sign `curvature`.
    """

    kind: str
    n: int
    radius: float

    def __post_init__(self):
        if self.kind not in _CURVATURE:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.kind == SPHERE and self.radius > np.pi / 2 + 1e-12:
            raise ValueError("cap angle must lie in (0, pi/2]")
        # the grids take the chart radius squared, the boundary area and the
        # square of the t-range end (2R, cosh 2R); in R^n and on the cap
        # `default_tgrid` ends 1e-3 inside that end
        with np.errstate(over="ignore"):
            hi = self.tgrid_range[1]
            try:
                finite = np.all(np.isfinite([self.chart_radius ** 2, self.boundary_area,
                                             np.square(hi)]))
            except OverflowError:
                finite = False
        if not finite or (self.kind != HYPERBOLIC and not hi - 1e-3 < hi):
            raise ValueError(f"radius {self.radius!r} in dimension {self.n} gives grids that no "
                             f"float holds: the chart radius or the t-range end {hi!r} squared, "
                             "or the boundary area, overflows, or that end less 1e-3 rounds "
                             "back to itself")

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind == EUCLIDEAN else self.n + 1

    @property
    def curvature(self) -> int:
        """Curvature sign kappa: 0 in R^n, +1 on the sphere, -1 on the hyperboloid."""
        return _CURVATURE[self.kind]

    def sin_k(self, r):
        """r, sin r or sinh r: the chart radius of a geodesic sphere of radius r."""
        if self.curvature == 0:
            return r
        return np.sin(r) if self.curvature > 0 else np.sinh(r)

    def cos_k(self, r):
        """cos r or cosh r (curved spaces): the height of a geodesic sphere of radius r."""
        return np.cos(r) if self.curvature > 0 else np.cosh(r)

    def arc_k(self, c):
        """Inverse of cos_k: arccos of c clipped to [-1, 1], arccosh of c clipped to [1, inf)."""
        if self.curvature > 0:
            return np.arccos(np.clip(c, -1.0, 1.0))
        return np.arccosh(np.clip(c, 1.0, None))

    @property
    def chart_radius(self) -> float:
        """Chart radius of the boundary sphere: R, sin(theta) or sinh(R)."""
        return self.sin_k(self.radius)

    @property
    def boundary_area(self) -> float:
        """Surface area of the boundary sphere/cap rim."""
        sigma = 2.0 * np.pi ** (self.n / 2.0) / gamma(self.n / 2.0)
        return sigma * self.chart_radius ** (self.n - 1)

    @property
    def tgrid_range(self) -> tuple[float, float]:
        """Open range of the section parameter t."""
        if self.kind == EUCLIDEAN:
            return 0.0, 2.0 * self.radius
        if self.kind == SPHERE:
            return -1.0, 1.0
        return 1.0, float(np.cosh(2.0 * self.radius))


def origin(space: SpaceSpec) -> np.ndarray:
    """Center of the ball: 0 in R^n, the pole e_{n+1} on S^n and H^n."""
    if space.kind == EUCLIDEAN:
        return np.zeros(space.n)
    e = np.zeros(space.n + 1)
    e[-1] = 1.0
    return e


def lift(space: SpaceSpec, xprime: np.ndarray) -> np.ndarray:
    """Chart points x' (…, n) -> ambient points on the space."""
    xprime = np.asarray(xprime, dtype=float)
    if space.kind == EUCLIDEAN:
        return xprime
    r2 = (xprime ** 2).sum(axis=-1, keepdims=True)
    if space.curvature > 0 and np.any(r2 > 1.0):
        raise ValueError("chart point outside the unit disk")
    return np.concatenate([xprime, np.sqrt(1.0 - space.curvature * r2)], axis=-1)


def chart(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Ambient points -> chart coordinates x' (drops the last coordinate)."""
    x = np.asarray(x, dtype=float)
    if space.kind == EUCLIDEAN:
        return x
    return x[..., :-1]


def validate_point(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """x as a float array, checked to have finite coordinates and to lie on
    the space: x_{n+1}^2 + kappa |x'|^2 = 1, and x_{n+1} > 0 on the
    hyperboloid (its upper sheet)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.ambient_dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, expected {space.ambient_dim}")
    if not np.isfinite(x).all():
        bad = x[~np.isfinite(x).all(axis=-1)][0]
        raise ValueError(f"point {bad.tolist()} has a coordinate that is not finite")
    if space.kind == EUCLIDEAN:
        return x
    if np.any(np.abs(pairing(space, x, x) - 1.0) > 1e-11):
        raise ValueError(f"point not on the {space.kind} space")
    if space.curvature < 0 and np.any(x[..., -1] <= 0.0):
        raise ValueError("point on the lower sheet of the hyperboloid")
    return x


def pairing(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_{n+1} y_{n+1} + kappa x'.y' of ambient points (..., n+1) of a curved space.

    This is x.y on the sphere and the Minkowski form [x, y] on the
    hyperboloid; for points on the space it is cos_k of their geodesic
    distance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # x'.y' first, then the last term: on the sphere this is x.y summed in order
    return space.curvature * (x[..., :-1] * y[..., :-1]).sum(axis=-1) + x[..., -1] * y[..., -1]


def geodesic_distance(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if space.kind == EUCLIDEAN:
        # the squares summed column by column, in np.linalg.norm's order up
        # to n = 7; numpy runs a reduction over a short last axis slowly
        d = x - y
        sq = d[..., 0] ** 2
        for k in range(1, d.shape[-1]):
            sq += d[..., k] ** 2
        return np.sqrt(sq)
    return space.arc_k(pairing(space, x, y))


# ---------------------------------------------------------------------------
# quadrature on unit spheres S^d in R^{d+1}
# ---------------------------------------------------------------------------

def unit_sphere_rule(d: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on S^d with weights normalized to sum 1.

    Product rule: `order` Gauss-Jacobi points in u = cos(phi) for each
    polar angle (the Gauss rule for the sin^k phi weights; plain
    Gauss-Legendre for k = 1) and 2*order equally spaced azimuth points,
    since the trapezoid rule needs twice the Gauss count for a matched
    bandwidth. Returns points (M, d+1) and weights (M,).
    """
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if order < 2:
        raise ValueError("order must be >= 2")
    if d == 1:
        th = 2.0 * np.pi * np.arange(order) / order
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
        return pts, np.full(order, 1.0 / order)
    sub_pts, sub_w = unit_sphere_rule(d - 1, order if d > 2 else 2 * order)
    k = d - 1
    if k == 1:
        u, wu = gauss_legendre(order, -1.0, 1.0)
    else:
        u, wu = gauss_jacobi(order, (k - 1) / 2.0, (k - 1) / 2.0)
    s = np.sqrt(1.0 - u ** 2)
    pts = np.concatenate(
        [u[:, None, None] * np.ones((1, sub_pts.shape[0], 1)),
         s[:, None, None] * sub_pts[None, :, :]], axis=2
    ).reshape(-1, d + 1)
    w = (wu[:, None] * sub_w[None, :]).reshape(-1)
    return pts, w / w.sum()


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Quadrature points on the boundary sphere with normalized weights."""

    space: SpaceSpec
    centers: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("boundary weights must sum to 1")

    @property
    def m(self) -> int:
        return self.centers.shape[0]


def boundary_grid(space: SpaceSpec, m: int) -> BoundaryGrid:
    """Discretize the boundary of the ball/cap with about m points.

    n = 2: exactly m equally spaced centers. n >= 3: a product rule with
    p = floor((m/2)**(1/(n-1))) points per polar angle and 2p azimuth
    points, so the actual count is 2 p^(n-1).
    """
    if m < 4:
        raise ValueError("need at least 4 boundary points")
    d = space.n - 1
    if d == 1:
        omega, w = unit_sphere_rule(1, m)
    else:
        p = int(np.floor((m / 2.0) ** (1.0 / d) + 1e-9))
        if p < 2:
            raise ValueError(f"m={m} too small for the requested polar order in {d} angles")
        omega, w = unit_sphere_rule(d, p)
    centers = space.chart_radius * omega
    if space.kind != EUCLIDEAN:
        height = np.full((omega.shape[0], 1), space.cos_k(space.radius))
        centers = np.concatenate([centers, height], axis=1)
    return BoundaryGrid(space, centers, w / w.sum())


# ---------------------------------------------------------------------------
# geodesic-sphere sections
# ---------------------------------------------------------------------------

def _pole_to(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """The rotation (cap) or boost (hyperboloid) in span{x', e_{n+1}} taking
    e_{n+1} to the point x.

    With x = (s u, c), |u| = 1, it acts as [[c, s], [-kappa s, c]] on
    (u, e_{n+1}) and as the identity on the rest, so it preserves the
    pairing. A pole x' = 0 takes u = e_1, which makes the sphere's -e_{n+1}
    the half turn in span{e_1, e_{n+1}}.
    """
    dim = x.shape[0]
    xp, c = x[:-1], x[-1]
    s = np.linalg.norm(xp)
    u = xp / s if s > 0 else np.eye(dim - 1)[0]
    out = np.eye(dim)
    out[:-1, :-1] += (c - 1.0) * np.outer(u, u)
    out[:-1, -1] = s * u
    out[-1, :-1] = -space.curvature * s * u
    out[-1, -1] = c
    return out


def section_scales(space: SpaceSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors (a, b) of the section nodes a center + b direction at t:
    (1, t) in R^n; (t, sqrt(kappa (1 - t^2))) on the cap and the hyperboloid."""
    t = np.asarray(t, dtype=float)
    if space.kind == EUCLIDEAN:
        return np.ones_like(t), t
    return t, np.sqrt(space.curvature * (1.0 - t ** 2))


def section_frame(space: SpaceSpec, center: np.ndarray) -> np.ndarray:
    """The (n, dim) matrix that carries the unit-sphere rule's points omega
    of S^{n-1} to the section directions omega @ frame around `center`.

    It turns the rule with the center. An orthogonal map of R^n takes the
    rule's pole e_1 to the inward direction -u, u = center'/|center'|: the
    Householder reflection along e_1 + u, or for u_1 < 0, where that would
    cancel, minus the one along e_1 - u. On the cap and the hyperboloid the
    first n rows of `_pole_to`'s transpose then carry the pole's tangent
    space to the center's.
    """
    center = validate_point(space, np.asarray(center, dtype=float))
    xp = chart(space, center)
    s = np.linalg.norm(xp)
    u = xp / s if s > 0 else np.eye(space.n)[0]  # the origin, or a pole, as in `_pole_to`
    sign = 1.0 if u[0] >= 0 else -1.0
    w = np.eye(space.n)[0] + sign * u
    turn = sign * (np.eye(space.n) - 2.0 * np.outer(w, w) / (w @ w))
    return turn if space.kind == EUCLIDEAN else turn @ _pole_to(space, center)[:, :-1].T


def h_parameter(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """The kernel offset h for pairs of interior points x, y (..., dim).

    Euclidean: (|x|^2 - |y|^2) / (2R|x - y|). Curved spaces:
    (x_{n+1} - y_{n+1}) / |x' - y'| times cos_k(R) / sin_k(R).
    Interior pairs with a support margin satisfy |h| < 1. One pair gives a
    float, stacked pairs an array of their values.
    """
    x = validate_point(space, np.asarray(x, dtype=float))
    y = validate_point(space, np.asarray(y, dtype=float))
    if space.kind == EUCLIDEAN:
        sep = np.linalg.norm(x - y, axis=-1)
        if np.any(sep < 1e-14):
            raise ValueError("coincident points have no h parameter")
        h = ((x ** 2).sum(axis=-1) - (y ** 2).sum(axis=-1)) / (2.0 * space.radius * sep)
    else:
        sep = np.linalg.norm(x[..., :-1] - y[..., :-1], axis=-1)
        if np.any(sep < 1e-14):
            raise ValueError("coincident chart projections have no h parameter")
        ratio = (x[..., -1] - y[..., -1]) / sep
        h = ratio / (space.sin_k(space.radius) / space.cos_k(space.radius))
    return float(h) if np.ndim(h) == 0 else h
