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
from math import comb, gamma

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

# Gauss-Legendre nodes of the half-angle rule (even n) on each section's
# support window
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

# (section, node) pairs per block of the sections route, whose nodes and the
# field's temporaries then stay in cache. On 8 E^3 centres at orders 192 and
# 384 (73 728 and 294 912 nodes a section), 8192 took 5.7 s, 4096 and 16384
# about 7 s, and whole sections in blocks of 96, 11.6 s
_SECTION_BLOCK_NODES = 8192

# Gauss-Legendre nodes per panel of the odd-n running integral, and the widest
# panel, as a share of y_s = sin_k(scale/2) in y = sin_k(D/2) (of the scale in
# D in R^n), that runs in one piece; a wider panel runs in that many equal
# pieces. The bump's composite rule on 6 nodes is within 1e-15 of its
# integral up to this width, and within 8e-15 at 0.02
_PANEL_ORDER = 6
_PANEL_WIDTH = 0.015

# y -> D/2 for y = sin_k(D/2), by curvature
_ARC = {0: lambda y: y, 1: np.arcsin, -1: np.arcsinh}


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


def _section_means(field, space: SpaceSpec, centers: np.ndarray, tgrid: TGrid,
                   order: int) -> np.ndarray:
    """Means of an arbitrary field evaluator over the sections at the
    centres (m, dim) by the section rule of the given order: (m, N).

    Sections that miss the support of a Phantom or a RadialField have mean
    exactly 0 and are not evaluated, as in the exact route. The live
    sections of all centres run together in blocks of at most
    `_SECTION_BLOCK_NODES` (section, node) pairs, the rule's nodes in
    chunks of at most that many.
    """
    t = tgrid.values
    omega, weights = spaces.unit_sphere_rule(space.n - 1, order)
    rows = [_rows_meeting_support(field, space, c, t) for c in centers]
    owner = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    j = np.concatenate(rows)
    # the nodes of section (owner, j) are a center + b (omega @ frame)
    a, b = spaces.section_scales(space, t[j])
    base = a[:, None] * centers[owner]
    frames = np.stack([spaces.section_frame(space, c) for c in centers])
    step = min(omega.shape[0], _SECTION_BLOCK_NODES)
    per_block = max(1, _SECTION_BLOCK_NODES // step)
    sums = np.zeros(j.size)
    for lo in range(0, j.size, per_block):
        sl = slice(lo, lo + per_block)
        scaled = b[sl, None, None] * frames[owner[sl]]
        for k0 in range(0, omega.shape[0], step):
            nodes = base[sl, None, :] + omega[k0:k0 + step] @ scaled
            vals = field(nodes.reshape(-1, nodes.shape[-1])).reshape(nodes.shape[:2])
            sums[sl] += vals @ weights[k0:k0 + step]
    out = np.zeros((centers.shape[0], t.size))
    out[owner, j] = sums
    return out


def forward_field_profile(field, space: SpaceSpec, center: np.ndarray, tgrid: TGrid,
                          order: int) -> np.ndarray:
    """Mean of an arbitrary field evaluator over the sections at one center.

    Sections that miss the support of a Phantom or a RadialField have mean
    exactly 0 and are not evaluated, as in the exact route.
    """
    return _section_means(field, space, np.asarray(center, dtype=float)[None], tgrid, order)[0]


def _half_power(v: np.ndarray, k: int) -> np.ndarray:
    """v ** (k/2) for an integer k = -1 or k >= 1, from products and at most
    one sqrt, which numpy runs far faster than a general power."""
    if k < 0:
        return 1.0 / np.sqrt(v)
    out = np.sqrt(v) if k % 2 else None
    for _ in range(k // 2):
        out = v if out is None else out * v
    return out


def _near_equal_slices(size: int, per_item: int):
    """Slices of range(size) in the fewest near-equal blocks of at most
    `_EXACT_BLOCK_CELLS` cells, each item taking `per_item` cells."""
    blocks = -(-size * per_item // _EXACT_BLOCK_CELLS)
    step = -(-size // blocks) if blocks else 1
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _half_angle_sums(space: SpaceSpec, rho: np.ndarray, sin_r: np.ndarray,
                     sin_d: np.ndarray, scale: float, fn, const: float) -> np.ndarray:
    """Section means of one radial part on its live sections by the
    half-angle rule on `_EXACT_ORDER` nodes (even n).

    sigma_max^2 = A / B with A = sin_k((scale + rho)/2) sin_k((scale - rho)/2)
    and B = sin_k(r) sin_k(d); the weight sigma^{n-2} (1 - sigma^2)^{(n-3)/2}
    is the fixed nodes' w x^{n-2} times a half-integer power of
    1 - sigma_max^2 x^2.
    """
    n = space.n
    arc = _ARC[space.curvature]
    x, w = gauss_legendre(_EXACT_ORDER, 0.0, 1.0)
    x2 = x * x
    wx = w * x ** (n - 2)
    h0 = space.sin_k(0.5 * rho) ** 2
    A = space.sin_k(0.5 * (scale + rho)) * space.sin_k(0.5 * (scale - rho))
    sm2 = A / (sin_d * sin_r)
    sums = np.empty(rho.size)
    for sl in _near_equal_slices(rho.size, _EXACT_ORDER):
        vals = fn(arc(np.sqrt(h0[sl, None] + A[sl, None] * x2)) * (2.0 / scale))
        vals = vals * _half_power(1.0 - sm2[sl, None] * x2, n - 3)
        sums[sl] = vals @ wx
    return const * _half_power(sm2, n - 1) * sums


def _panel_moments(space: SpaceSpec, y_lo: np.ndarray, y_hi: np.ndarray, scale: float,
                   fn, moments: int) -> np.ndarray:
    """(moments, panels): the integrals of fn(D/scale) (u_s - u)^l du over
    y_lo < y < y_hi, l < moments, with y = sin_k(D/2), u = y^2 and
    u_s = sin_k(scale/2)^2.

    A panel wider than `_PANEL_WIDTH` y_s runs in that many equal pieces,
    each on `_PANEL_ORDER` Gauss-Legendre nodes in y.
    """
    arc = _ARC[space.curvature]
    y_s = space.sin_k(0.5 * scale)
    pieces = np.ceil((y_hi - y_lo) * (1.0 / (_PANEL_WIDTH * y_s))).astype(np.intp)
    split = pieces.max() > 1
    if split:
        pieces = np.maximum(pieces, 1)
        first = np.cumsum(pieces) - pieces
        owner = np.repeat(np.arange(pieces.size), pieces)
        share = (np.arange(owner.size) - first[owner]) / pieces[owner]
        width = (y_hi - y_lo)[owner]
        y_lo, y_hi = (y_lo[owner] + width * share,
                      y_lo[owner] + width * (share + 1.0 / pieces[owner]))
    x, w = gauss_legendre(_PANEL_ORDER, 0.0, 1.0)
    out = np.empty((moments, y_lo.size))
    for sl in _near_equal_slices(y_lo.size, _PANEL_ORDER):
        width = y_hi[sl] - y_lo[sl]
        y = y_lo[sl] + x[:, None] * width
        # du = 2 y dy
        g = fn(arc(y) * (2.0 / scale)) * y
        out[0, sl] = w @ g
        if moments > 1:
            v = (y_s - y) * (y_s + y)
            for l in range(1, moments):
                g = g * v
                out[l, sl] = w @ g
        out[:, sl] *= 2.0 * width
    return np.add.reduceat(out, first, axis=1) if split else out


def _running_sums(space: SpaceSpec, rho: np.ndarray, i: np.ndarray, falling: np.ndarray,
                  sin_r: np.ndarray, sin_d: np.ndarray, scale: float, fn,
                  const: float) -> np.ndarray:
    """Section means of one radial part on its live sections as running
    integrals over each centre's ladder of rho (odd n).

    The live sections come in the flat order of their (centre, t) cells;
    `i` is each one's centre within the block, and `falling` marks the first
    leg of the centre's V of rho = |r - d| along t, where rho falls; on the
    second it rises. On each leg the ladder points y = sin_k(rho/2) bound
    panels, the top one up to y_s = sin_k(scale/2); every panel is
    integrated once and summed from the top down, so each section's moments
    G_l = int_{u_rho}^{u_s} f (u_s - u)^l du (u = y^2) come from one
    cumulative sum. With the weight
    [(u - u_rho)(u_top - u)]^{(n-3)/2} = [(A - w)(E + w)]^{(n-3)/2},
    w = u_s - u, A = u_s - u_rho and E = u_top - u_s = B - A, each mean is
    B^{2-n} times a fixed combination of the moments.
    """
    n = space.n
    p = (n - 3) // 2
    y_s = space.sin_k(0.5 * scale)
    y = space.sin_k(0.5 * rho)
    # each section's place on its leg, counted from the top: one row of
    # `ladder` per (centre, leg), the top panel's upper end y_s in column 0
    counts = np.bincount(i)
    first = np.cumsum(counts) - counts
    pos = np.arange(i.size) - first[i]
    k = np.where(falling, pos, counts[i] - 1 - pos)
    legs = int(k.max()) + 2
    cell = (2 * i + ~falling) * legs + k
    ladder = np.full(2 * counts.size * legs, y_s)
    ladder[cell + 1] = y
    panels = np.zeros((n - 2, ladder.size))
    panels[:, cell] = _panel_moments(space, y, ladder[cell], scale, fn, n - 2)
    G = np.cumsum(panels.reshape(n - 2, -1, legs), axis=2).reshape(n - 2, -1)[:, cell]
    B = sin_d * sin_r
    if p == 0:
        return const * G[0] / B
    A = (y_s - y) * (y_s + y)
    E = B - A
    # the coefficient of w^(a+b) in (A - w)^p (E + w)^p
    total = np.zeros(i.size)
    for a in range(p + 1):
        for b in range(p + 1):
            term = comb(p, a) * comb(p, b) * (-1) ** a * G[a + b]
            if a < p:
                term = term * A ** (p - a)
            if b < p:
                term = term * E ** (p - b)
            total += term
    return const * total / B ** (n - 2)


def _radial_part_profile(space: SpaceSpec, centers: np.ndarray, part_center: np.ndarray,
                         scale: float, fn, tgrid: TGrid, out: np.ndarray) -> np.ndarray:
    """Section means of one radial part at the centres (m, dim), added into
    the C-contiguous `out` (m, N) and returned in it.

    On the section of radius r about a centre at distance d from the part's
    centre, let phi be the angle at the centre between a section point and
    the part's centre, and sigma = sin(phi/2). The point's distance D from
    the part's centre obeys sin_k(D/2)^2 = sin_k(rho/2)^2 + B sigma^2, with
    rho = |r - d| and B = sin_k(r) sin_k(d) (D^2 = rho^2 + 4 r d sigma^2 in
    R^n), and the section's normalised measure is
    c_n 2^{n-1} sigma^{n-2} (1 - sigma^2)^{(n-3)/2} dsigma. The part's
    support D < scale is empty unless rho < scale; the other sections have
    mean exactly 0 and are skipped.

    Even n integrates each section's window in sigma (`_half_angle_sums`).
    Odd n writes the mean in u = sin_k(D/2)^2, where the weight is
    c_n 2^{n-2} [(u - u_rho)(u_top - u)]^{(n-3)/2} du / B^{n-2}, with
    u_rho = sin_k(rho/2)^2 and u_top = sin_k((r + d)/2)^2 = u_rho + B; the
    exponent is an integer, so the sections of one centre share their
    nested integrals (`_running_sums`). Every centre must lie outside the
    support (d > scale): then sigma_max^2 < 1/2.
    """
    n, k = space.n, space.curvature
    t = tgrid.values
    if k == 0:
        r, sin_r = t, t
        d = np.linalg.norm(centers - part_center, axis=-1)
        sin_d = d
    else:
        a = spaces.pairing(space, centers, part_center)
        r, d = space.arc_k(t), space.arc_k(a)
        sin_r = np.sqrt(np.maximum(k * (1.0 - t ** 2), 0.0))
        sin_d = np.sqrt(np.maximum(k * (1.0 - a ** 2), 0.0))
    if np.any(d <= scale):
        raise ValueError(f"the radial part at {part_center} with scale {scale} contains a "
                         "boundary centre; the exact profile needs every centre outside "
                         "every part's support")
    const = 2.0 ** (n - 1) * gamma(n / 2.0) / (np.sqrt(np.pi) * gamma((n - 1) / 2.0))
    # r grows along t in R^n and on the hyperboloid, falls on the cap
    rising_r = r[-1] > r[0]
    flat = out.reshape(-1)
    per_block = max(1, _EXACT_BLOCK_CELLS // t.size)
    for c0 in range(0, centers.shape[0], per_block):
        rho = np.abs(r[None, :] - d[c0:c0 + per_block, None]).ravel()
        # sections that miss the support (rho >= scale) have mean exactly 0
        live = np.flatnonzero(rho < scale)
        if live.size == 0:
            continue
        i, j = np.divmod(live, t.size)
        rho = rho[live]
        if n % 2:
            falling = (r[j] < d[c0 + i]) == rising_r
            vals = _running_sums(space, rho, i, falling, sin_r[j], sin_d[c0 + i], scale, fn,
                                 0.5 * const)
        else:
            vals = _half_angle_sums(space, rho, sin_r[j], sin_d[c0 + i], scale, fn, const)
        flat[live + c0 * t.size] += vals
    return out


def _exact_means_row(field: RadialField, centers: np.ndarray, tgrid: TGrid) -> np.ndarray:
    """Exact section means of a RadialField at the centres (m, dim): (m, N)."""
    out = np.zeros((centers.shape[0], tgrid.n))
    for part_center, scale, fn in field.parts:
        _radial_part_profile(field.space, centers, part_center, scale, fn, tgrid, out)
    return out


def forward_means(phantom, boundary: BoundaryGrid, tgrid: TGrid,
                  order: int = 16, profile: str = "exact") -> MeanData:
    """Normalized means of the phantom over all (center, t) sections.

    profile='exact' (phantoms and radial fields) reduces each radial part
    to a 1-D integral, exactly resolved regardless of how small the part
    is, at all centres in one call: for even n the half-angle rule on
    `_EXACT_ORDER` nodes per section, for odd n one running integral per
    centre over panels of `_PANEL_ORDER` nodes (`_radial_part_profile`).
    profile='sections' uses the generic section quadrature of the given
    order over the live sections of all centres. Fields radial about the
    space origin give one profile broadcast to every center.
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
        values = _exact_means_row(field, centers, tgrid)
    elif profile == "sections":
        values = _section_means(field, space, centers, tgrid, order)
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
