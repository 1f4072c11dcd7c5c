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
from math import gamma

import numpy as np

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

# Gauss-Legendre nodes of the exact profile on each part's support window
_EXACT_ORDER = 64

# sections x nodes per block of the exact profile: the live sections of a
# block of centres run in the fewest blocks within this budget, of near-equal
# length, and a block of centres holds at most this many sections. A whole
# support window in one block made temporaries of about 128 KiB, the C
# allocator's threshold for fresh page mappings, and the 800-centre forward
# of configs/euclid3.json took about 154 000 minor page faults (0.2 s);
# blocks of at most 60 KiB reuse heap memory and take about 400, and 64 KiB
# blocks sometimes faulted again. Smaller blocks add per-block overhead on
# the 128-centre n = 2 configs.
_EXACT_BLOCK_CELLS = 7680


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


def _rows_meeting_support(field, space: SpaceSpec, center: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
    """Indices of the sections at `center` whose geodesic sphere can meet the
    support of a Phantom's bumps or a RadialField's parts; every section for
    other field evaluators.

    The sphere of radius r misses the ball of radius s at distance d when
    |r - d| >= s. Sections kept up to 1e-9 s beyond that keep node rounding
    clear of the support's edge, so every skipped section's nodes evaluate
    to 0.
    """
    if isinstance(field, Phantom):
        parts = [(b.center, b.geodesic_radius) for b in field.bumps]
    elif isinstance(field, RadialField):
        parts = [(c, scale) for c, scale, _ in field.parts]
    else:
        return np.arange(t.size)
    r = t if space.kind == spaces.EUCLIDEAN else space.arc_k(t)
    live = np.zeros(t.size, dtype=bool)
    for part_center, scale in parts:
        d = float(spaces.geodesic_distance(space, center, part_center))
        live |= np.abs(r - d) < scale * (1.0 + 1e-9)
    return np.flatnonzero(live)


def forward_field_profile(field, space: SpaceSpec, center: np.ndarray, tgrid: TGrid,
                          order: int) -> np.ndarray:
    """Mean of an arbitrary field evaluator over the sections at one center.

    Sections that miss the support of a Phantom or a RadialField have mean
    exactly 0 and are not evaluated, as in the exact route.
    """
    rule = spaces.section_rule(space, center, order)
    t = tgrid.values
    rows = _rows_meeting_support(field, space, center, t)
    out = np.zeros(t.size)
    for lo in range(0, rows.size, _T_CHUNK):
        chunk = rows[lo:lo + _T_CHUNK]
        a, b = rule.scales(t[chunk])
        nodes = (a[:, None, None] * rule.center[None, None, :]
                 + b[:, None, None] * rule.directions[None, :, :])
        vals = field(nodes.reshape(-1, nodes.shape[-1])).reshape(chunk.size, -1)
        out[chunk] = vals @ rule.weights
    return out


def _half_power(v: np.ndarray, k: int) -> np.ndarray:
    """v ** (k/2) for an integer k = -1 or k >= 1, from products and at most
    one sqrt, which numpy runs far faster than a general power."""
    if k < 0:
        return 1.0 / np.sqrt(v)
    out = np.sqrt(v) if k % 2 else None
    for _ in range(k // 2):
        out = v if out is None else out * v
    return out


def _radial_part_profile(space: SpaceSpec, centers: np.ndarray, part_center: np.ndarray,
                         scale: float, fn, tgrid: TGrid, order: int,
                         out: np.ndarray) -> np.ndarray:
    """Section means of one radial part at the centres (m, dim), added into
    the C-contiguous `out` (m, N) and returned in it, via the exact
    half-angle reduction.

    On the section of radius r about a centre at distance d from the part's
    centre, let phi be the angle at the centre between a section point and
    the part's centre, and sigma = sin(phi/2). The point's distance D from
    the part's centre obeys sin_k(D/2)^2 = sin_k(rho/2)^2 + B sigma^2, with
    rho = |r - d| and B = sin_k(r) sin_k(d) (D^2 = rho^2 + 4 r d sigma^2 in
    R^n), and the section's normalised measure is
    c_n 2^{n-1} sigma^{n-2} (1 - sigma^2)^{(n-3)/2} dsigma. The part's
    support D < scale is the window sigma < sigma_max with
    B sigma_max^2 = sin_k((scale + rho)/2) sin_k((scale - rho)/2), empty
    unless rho < scale; a Gauss rule on the window resolves the part exactly.
    Every centre must lie outside the support (d > scale): then
    sigma_max^2 < 1/2 and the weight is analytic on the window.
    """
    n, k = space.n, space.curvature
    t = tgrid.values
    if k == 0:
        r, sin_r = t, t
        d = np.linalg.norm(centers - part_center, axis=-1)
        sin_d = d
        half_arc = np.sqrt
    else:
        a = spaces.pairing(space, centers, part_center)
        r, d = space.arc_k(t), space.arc_k(a)
        sin_r = np.sqrt(np.maximum(k * (1.0 - t ** 2), 0.0))
        sin_d = np.sqrt(np.maximum(k * (1.0 - a ** 2), 0.0))
        half_arc = (lambda q: np.arcsin(np.sqrt(q))) if k > 0 else (lambda q: np.arcsinh(np.sqrt(q)))
    if np.any(d <= scale):
        raise ValueError(f"the radial part at {part_center} with scale {scale} contains a "
                         "boundary centre; the exact profile needs every centre outside "
                         "every part's support")
    x, w = gauss_legendre(order, 0.0, 1.0)
    x2 = x * x
    wx = w * x ** (n - 2)
    const = 2.0 ** (n - 1) * gamma(n / 2.0) / (np.sqrt(np.pi) * gamma((n - 1) / 2.0))
    flat = out.reshape(-1)
    per_block = max(1, _EXACT_BLOCK_CELLS // t.size)
    for c0 in range(0, centers.shape[0], per_block):
        rho = np.abs(r[None, :] - d[c0:c0 + per_block, None]).ravel()
        # sections that miss the support (rho >= scale) have mean exactly 0
        live = np.flatnonzero(rho < scale)
        i, j = np.divmod(live, t.size)
        rho = rho[live]
        h0 = space.sin_k(0.5 * rho) ** 2
        A = space.sin_k(0.5 * (scale + rho)) * space.sin_k(0.5 * (scale - rho))
        sm2 = A / (sin_d[c0 + i] * sin_r[j])
        sums = np.empty(live.size)
        blocks = -(-live.size * order // _EXACT_BLOCK_CELLS)
        step = -(-live.size // blocks) if blocks else 1
        for lo in range(0, live.size, step):
            sl = slice(lo, lo + step)
            vals = fn(half_arc(h0[sl, None] + A[sl, None] * x2) * (2.0 / scale))
            if n != 3:
                vals = vals * _half_power(1.0 - sm2[sl, None] * x2, n - 3)
            sums[sl] = vals @ wx
        flat[live + c0 * t.size] += const * _half_power(sm2, n - 1) * sums
    return out


def _exact_means_row(field: RadialField, centers: np.ndarray, tgrid: TGrid,
                     order: int) -> np.ndarray:
    """Exact section means of a RadialField at the centres (m, dim): (m, N)."""
    out = np.zeros((centers.shape[0], tgrid.n))
    for part_center, scale, fn in field.parts:
        _radial_part_profile(field.space, centers, part_center, scale, fn, tgrid, order, out)
    return out


def forward_means(phantom, boundary: BoundaryGrid, tgrid: TGrid,
                  order: int = 16, profile: str = "exact") -> MeanData:
    """Normalized means of the phantom over all (center, t) sections.

    profile='exact' (phantoms and radial fields) integrates each radial
    part with the half-angle reduction on `_EXACT_ORDER` nodes, which is
    exactly resolved regardless of how small the part is, at all centres in
    one call; profile='sections' uses the generic section quadrature of the
    given order, centre by centre. Fields radial about the space origin give
    one profile broadcast to every center.
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
    centers = boundary.centers[:1] if centered else boundary.centers
    if profile == "exact":
        values = _exact_means_row(field, centers, tgrid, _EXACT_ORDER)
    elif profile == "sections":
        values = np.empty((centers.shape[0], tgrid.n))
        for i, center in enumerate(centers):
            values[i] = forward_field_profile(field, space, center, tgrid, order)
    else:
        raise ValueError("profile must be 'exact' or 'sections'")
    if centered:
        values = np.tile(values, (boundary.m, 1))
    return MeanData(space, boundary, tgrid, values)


def epd_trace_euclidean(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                        alpha: float, order: int = 16) -> MeanData:
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
        u = ek_matrix(means.values, tgrid, eta, alpha)
    else:
        u = ek_ac_matrix(means.values, tgrid, eta, alpha)
    u *= gamma(alpha + n / 2.0) / gamma(n / 2.0)
    return MeanData(space, boundary, tgrid, u, alpha=alpha)


def epd_trace_sphere(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                     alpha: float, order: int = 16) -> MeanData:
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
    G = rl_matrix(F, tgrid, alpha)
    u = 2.0 ** alpha * gamma(alpha + n / 2.0) / gamma(n / 2.0) \
        * (1.0 - t ** 2) ** (1.0 - alpha - n / 2.0) * G
    return MeanData(space, boundary, tgrid, u, alpha=alpha)
