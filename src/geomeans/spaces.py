"""Geometry of the three constant-curvature model spaces.

Euclidean balls B = {|x| < R} in R^n, spherical caps around the north pole
of S^n in R^{n+1}, and geodesic balls around e_{n+1} in the hyperboloid
model of H^n. Provides boundary-center grids, quadrature over geodesic
spheres (the "planar sections" x.y = t resp. [x, y] = t), the Minkowski
bilinear form, and the h-parameter entering the kernel bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, roots_jacobi

from .numerics import gauss_legendre

__all__ = [
    "EUCLIDEAN",
    "SPHERE",
    "HYPERBOLIC",
    "SpaceSpec",
    "BoundaryGrid",
    "SectionRule",
    "origin",
    "lift",
    "chart",
    "validate_point",
    "geodesic_distance",
    "minkowski_form",
    "unit_sphere_rule",
    "boundary_grid",
    "section_rule",
    "section_quadrature",
    "h_parameter",
]

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
_KINDS = (EUCLIDEAN, SPHERE, HYPERBOLIC)


@dataclass(frozen=True)
class SpaceSpec:
    """Which model space, its dimension n >= 2, and the ball/cap radius.

    For Euclidean and hyperbolic spaces `radius` is the geodesic ball radius
    R > 0; for the sphere it is the cap angle theta in (0, pi/2].
    """

    kind: str
    n: int
    radius: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.kind == SPHERE and self.radius > np.pi / 2 + 1e-12:
            raise ValueError("cap angle must lie in (0, pi/2]")

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind == EUCLIDEAN else self.n + 1

    @property
    def boundary_area(self) -> float:
        """Surface area of the boundary sphere/cap rim."""
        sigma = 2.0 * np.pi ** (self.n / 2.0) / gamma(self.n / 2.0)
        if self.kind == EUCLIDEAN:
            return sigma * self.radius ** (self.n - 1)
        if self.kind == SPHERE:
            return sigma * np.sin(self.radius) ** (self.n - 1)
        return sigma * np.sinh(self.radius) ** (self.n - 1)

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
    if space.kind == SPHERE:
        if np.any(r2 > 1.0):
            raise ValueError("chart point outside the unit disk")
        last = np.sqrt(1.0 - r2)
    else:
        last = np.sqrt(1.0 + r2)
    return np.concatenate([xprime, last], axis=-1)


def chart(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Ambient points -> chart coordinates x' (drops the last coordinate)."""
    x = np.asarray(x, dtype=float)
    if space.kind == EUCLIDEAN:
        return x
    return x[..., :-1]


def validate_point(space: SpaceSpec, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.ambient_dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, expected {space.ambient_dim}")
    if space.kind == SPHERE:
        err = np.abs((x ** 2).sum(axis=-1) - 1.0)
        if np.any(err > tol * 10):
            raise ValueError("point not on the unit sphere")
    elif space.kind == HYPERBOLIC:
        err = np.abs(x[..., -1] ** 2 - (x[..., :-1] ** 2).sum(axis=-1) - 1.0)
        if np.any(err > tol * 10):
            raise ValueError("point not on the hyperboloid")
    return x


def minkowski_form(x: np.ndarray, y: np.ndarray, validate: bool = True) -> np.ndarray:
    """[x, y] = x_{n+1} y_{n+1} - x'.y'; equals cosh of the geodesic distance.

    Both arguments must lie on the hyperboloid (checked unless validate is
    disabled for points already known to satisfy the constraint).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if validate:
        for z in (x, y):
            gap = np.abs(z[..., -1] ** 2 - (z[..., :-1] ** 2).sum(axis=-1) - 1.0)
            if np.any(gap > 1e-9):
                raise ValueError("point not on the hyperboloid")
    return x[..., -1] * y[..., -1] - (x[..., :-1] * y[..., :-1]).sum(axis=-1)


def geodesic_distance(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if space.kind == EUCLIDEAN:
        return np.linalg.norm(x - y, axis=-1)
    if space.kind == SPHERE:
        c = np.clip((x * y).sum(axis=-1), -1.0, 1.0)
        return np.arccos(c)
    return np.arccosh(np.clip(minkowski_form(x, y, validate=False), 1.0, None))


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
        u, wu = roots_jacobi(order, (k - 1) / 2.0, (k - 1) / 2.0)
    s = np.sqrt(1.0 - u ** 2)
    pts = np.concatenate(
        [u[:, None, None] * np.ones((1, sub_pts.shape[0], 1)),
         s[:, None, None] * sub_pts[None, :, :]], axis=2
    ).reshape(-1, d + 1)
    w = (wu[:, None] * sub_w[None, :]).reshape(-1)
    return pts, w / w.sum()


@dataclass(frozen=True)
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
    if space.kind == EUCLIDEAN:
        centers = space.radius * omega
    elif space.kind == SPHERE:
        centers = np.concatenate(
            [np.sin(space.radius) * omega,
             np.full((omega.shape[0], 1), np.cos(space.radius))], axis=1)
    else:
        centers = np.concatenate(
            [np.sinh(space.radius) * omega,
             np.full((omega.shape[0], 1), np.cosh(space.radius))], axis=1)
    return BoundaryGrid(space, centers, w / w.sum())


# ---------------------------------------------------------------------------
# geodesic-sphere sections and their quadrature
# ---------------------------------------------------------------------------

def _completion_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal completion of a unit vector, deterministic Gram-Schmidt.

    Returns a (dim-1, dim) matrix of vectors orthogonal to `axis`; the
    standard basis vector most parallel to the axis is skipped.
    """
    dim = axis.shape[0]
    skip = int(np.argmax(np.abs(axis)))
    basis = [axis]
    for j in range(dim):
        if j == skip:
            continue
        v = np.zeros(dim)
        v[j] = 1.0
        for b in basis:
            v = v - np.dot(v, b) * b
        nv = np.linalg.norm(v)
        if nv < 1e-13:
            raise ValueError("degenerate frame")
        basis.append(v / nv)
    return np.stack(basis[1:], axis=0)


def _lorentz_boost_to(x: np.ndarray) -> np.ndarray:
    """Matrix of the Lorentz boost taking e_{n+1} to the hyperboloid point x."""
    dim = x.shape[0]
    xp = x[:-1]
    s = np.linalg.norm(xp)
    out = np.eye(dim)
    if s < 1e-15:
        return out
    u = xp / s
    xn = x[-1]
    # acts as [[cosh, sinh], [sinh, cosh]] on span{u, e_{n+1}}
    out[:-1, :-1] += (xn - 1.0) * np.outer(u, u)
    out[:-1, -1] = s * u
    out[-1, :-1] = s * u
    out[-1, -1] = xn
    return out


@dataclass(frozen=True)
class SectionRule:
    """Nodes of a geodesic-sphere quadrature in separated form.

    For a fixed center, the section nodes at parameter t are
    base_scale(t) * base + dir_scale(t) * directions[i], which lets forward
    transforms assemble all (t, node) combinations without recomputing
    frames. Weights are normalized so a constant integrand has mean 1.
    """

    space: SpaceSpec
    center: np.ndarray
    directions: np.ndarray
    weights: np.ndarray
    base: np.ndarray

    def scales(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        if self.space.kind == EUCLIDEAN:
            return np.ones_like(t), t
        if self.space.kind == SPHERE:
            return t, np.sqrt(1.0 - t ** 2)
        return t, np.sqrt(t ** 2 - 1.0)

    def nodes(self, t: float) -> np.ndarray:
        a, b = self.scales(np.asarray(t))
        return a * self.base[None, :] + b * self.directions


def _check_t(space: SpaceSpec, t: np.ndarray) -> None:
    lo, hi = space.tgrid_range
    t = np.asarray(t, dtype=float)
    if space.kind == HYPERBOLIC:
        ok = np.all(t > lo)
    else:
        ok = np.all((t > lo) & (t < hi))
    if not ok:
        raise ValueError(f"section parameter outside the admissible range for {space.kind}")


def section_rule(space: SpaceSpec, center: np.ndarray, order: int) -> SectionRule:
    """Reusable section quadrature around one center."""
    center = validate_point(space, np.asarray(center, dtype=float))
    omega, w = unit_sphere_rule(space.n - 1, order)
    if space.kind == EUCLIDEAN:
        return SectionRule(space, center, -omega, w, center)
    if space.kind == SPHERE:
        frame = _completion_frame(center)
        dirs = omega @ frame
        return SectionRule(space, center, dirs, w, center)
    boost = _lorentz_boost_to(center)
    flat = np.concatenate([omega, np.zeros((omega.shape[0], 1))], axis=1)
    dirs = flat @ boost.T
    base = boost[:, -1]
    return SectionRule(space, center, dirs, w, base)


def section_quadrature(space: SpaceSpec, center: np.ndarray, t: float,
                       order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights whose weighted sum is the normalized section mean.

    Euclidean: the sphere |y - center| = t. Sphere: {y : center.y = t}.
    Hyperbolic: {y : [center, y] = t}. Constant functions average to 1.
    """
    _check_t(space, np.asarray([t]))
    rule = section_rule(space, center, order)
    return rule.nodes(float(t)), rule.weights


def h_parameter(space: SpaceSpec, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """The kernel offset h for pairs of interior points x, y (..., dim).

    Euclidean: (|x|^2 - |y|^2) / (2R|x - y|). Curved spaces:
    (x_{n+1} - y_{n+1}) / |x' - y'| times cot(theta) resp. coth(R).
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
        h = ratio / (np.tan(space.radius) if space.kind == SPHERE else np.tanh(space.radius))
    return float(h) if np.ndim(h) == 0 else h
