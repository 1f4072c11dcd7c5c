"""Forward data generators.

Samples the normalized means of a phantom over all boundary-centered
geodesic spheres onto a (center x t) matrix, and produces the weighted-mean
traces that solve the singular-time Cauchy problems on the boundary
cylinder: the Euclidean weighted means via Erdelyi-Kober integrals of the
plain means, and the spherical ones via right-sided Riemann-Liouville
integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gamma

import numpy as np

from . import spaces
from .fractional import ek_ac_matrix, ek_matrix, rl_matrix
from .numerics import TGrid, gauss_legendre
from .phantoms import Phantom, RadialField
from .spaces import BoundaryGrid, SpaceSpec

__all__ = [
    "MeanData",
    "validate_trace_order",
    "validate_tgrid_range",
    "default_tgrid",
    "forward_field_profile",
    "forward_means",
    "epd_trace_euclidean",
    "epd_trace_sphere",
    "trace_weighting",
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


def validate_trace_order(space: SpaceSpec, alpha: float, name: str) -> None:
    """Reject a trace order that no trace of this space has, naming the field.

    The order is finite; alpha >= (1-n)/2 in R^n and alpha > 0 on the cap,
    and the hyperboloid has no traces.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"{name} must be finite, not {alpha!r}")
    if space.kind == spaces.HYPERBOLIC:
        raise ValueError(f"{name} is set, but hyperboloid trace inversion is not provided")
    if space.kind == spaces.EUCLIDEAN and alpha < (1.0 - space.n) / 2.0:
        raise ValueError(f"{name} must be >= (1-n)/2 = {(1 - space.n) / 2}, not {alpha!r}")
    if space.kind == spaces.SPHERE and not alpha > 0:
        raise ValueError(f"cap traces are generated with {name} > 0, not {alpha!r}")


def validate_tgrid_range(space: SpaceSpec, tgrid: TGrid) -> None:
    """Reject a t-grid that leaves the space's open `tgrid_range`; on the
    hyperboloid it may end at cosh 2R, where `default_tgrid` ends."""
    lo, hi = space.tgrid_range
    t0, t1 = tgrid.a, tgrid.b
    closed = space.curvature < 0
    if not (lo < t0 and (t1 <= hi if closed else t1 < hi)):
        raise ValueError(f"t-grid from t0 = {t0!r} to t1 = {t1!r} leaves the {space.kind} "
                         f"section range ({lo!r}, {hi!r}{']' if closed else ')'}")


@dataclass(frozen=True, eq=False)
class MeanData:
    """Sampled means (or weighted-mean traces) on boundary centers x t-grid.

    `alpha` is None for plain means and carries the trace order otherwise,
    which `validate_trace_order` checks; `validate_tgrid_range` checks the
    t-grid. `values` is a read-only view of the caller's array, not a copy.
    `rows` holds the distinct rows: a (1, N) view of the first row when
    every centre's row is equal (radial data), which a zero row stride
    gives at once and dense values give by comparison, and the values
    themselves otherwise.
    """

    space: SpaceSpec
    boundary: BoundaryGrid
    tgrid: TGrid
    values: np.ndarray
    alpha: float | None = None
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.boundary.m, self.tgrid.n):
            raise ValueError("values must be (centers x t-grid)")
        validate_tgrid_range(self.space, self.tgrid)
        # the last row against the first settles off-centre data in O(N)
        radial = v.strides[0] == 0 or (np.array_equal(v[-1], v[0]) and np.all(v == v[0]))
        object.__setattr__(self, "rows", v[:1] if radial else v)
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("mean data contains non-finite values")
        if self.alpha is not None:
            validate_trace_order(self.space, self.alpha, "alpha")


def default_tgrid(space: SpaceSpec, n_points: int | None = None) -> TGrid:
    """Per-space default section-parameter grids.

    Euclidean: 800 nodes on (1e-3, 2R - 1e-3); sphere: 600 on
    (-1 + 1e-3, 1 - 1e-3); hyperbolic: 600 on (1 + 1e-3, cosh 2R).
    """
    lo, hi = space.tgrid_range
    if n_points is None:
        n_points = 800 if space.kind == spaces.EUCLIDEAN else 600
    if space.kind == spaces.HYPERBOLIC:
        return TGrid.linspace(lo + 1e-3, hi, n_points)
    return TGrid.linspace(lo + 1e-3, hi - 1e-3, n_points)


def _rows_meeting_support(field, space: SpaceSpec, center: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
    """Indices of the sections at `center` whose geodesic sphere can meet the
    support of a RadialField's parts (a Phantom's bumps); every section for
    other field evaluators.

    The sphere of radius r misses the ball of radius s at distance d when
    |r - d| >= s. Sections kept up to 1e-9 s beyond that keep node rounding
    clear of the support's edge, so every skipped section's nodes evaluate
    to 0.
    """
    if not isinstance(field, RadialField):
        return np.arange(t.size)
    r = t if space.kind == spaces.EUCLIDEAN else space.arc_k(t)
    live = np.zeros(t.size, dtype=bool)
    for part_center, scale, _ in field.parts:
        d = float(spaces.geodesic_distance(space, center, part_center))
        live |= np.abs(r - d) < scale * (1.0 + 1e-9)
    return np.flatnonzero(live)


def _section_means(field, space: SpaceSpec, centers: np.ndarray, tgrid: TGrid,
                   order: int) -> np.ndarray:
    """Means of an arbitrary field evaluator over the sections at the
    centres (m, dim) by the section rule of the given order: (m, N).

    Sections that miss the support of a RadialField have mean exactly 0
    and are not evaluated, as in the exact route. The live
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

    Sections that miss the support of a RadialField have mean exactly 0
    and are not evaluated, as in the exact route.
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

    profile='exact' (radial fields, phantoms among them) reduces each
    radial part to a 1-D integral over its support window, however small
    the part is, at all centres in one call: for even n the half-angle rule
    on `_EXACT_ORDER` nodes per section, for odd n one running integral per
    centre over panels of `_PANEL_ORDER` nodes (`_radial_part_profile`).
    The even-n rule resolves bump profiles to rounding (within 3e-14 of max
    of a 256-node rule), but the sharper profiles of `laplacian_field` only
    to about 1.2e-10 of max (n = 2) and 8e-10 (n = 4).
    profile='sections' uses the generic section quadrature of the given
    order over the live sections of all centres. Fields radial about the
    space origin give one profile broadcast to every center: a read-only
    (m, N) view of one row, whose row stride is 0, so a caller copies it
    before writing in place.
    """
    if not isinstance(phantom, RadialField):
        raise TypeError("forward_means needs a Phantom or RadialField")
    space = phantom.space
    if space != boundary.space:
        raise ValueError("phantom and boundary grid live in different spaces")
    o = spaces.origin(space)
    centered = all(float(spaces.geodesic_distance(space, c, o)) < 1e-14
                   for c, _, _ in phantom.parts)
    centers = boundary.centers[:1] if centered else boundary.centers
    if profile == "exact":
        values = _exact_means_row(phantom, centers, tgrid)
    elif profile == "sections":
        values = _section_means(phantom, space, centers, tgrid, order)
    else:
        raise ValueError("profile must be 'exact' or 'sections'")
    if centered:
        values = np.broadcast_to(values, (boundary.m, tgrid.n))
    return MeanData(space, boundary, tgrid, values)


def trace_weighting(space: SpaceSpec, grid: TGrid, values: np.ndarray, eta: float,
                    alpha: float) -> np.ndarray:
    """T_{eta,alpha}, the time weighting of the traces (layer 2), on rows (M, N).

    R^n: Gamma(alpha+eta+1)/Gamma(eta+1) times the Erdelyi-Kober integral
    I_eta^alpha (its analytic continuation for alpha <= 0). Cap:
    2^alpha Gamma(alpha+eta+1)/Gamma(eta+1) w^{-alpha-eta} I_-^alpha[w^eta .]
    with w = 1 - t^2. At eta = n/2 - 1 it takes plain means to the trace of
    order alpha; by the index law I_{eta+alpha}^{-alpha} I_eta^alpha = I,
    T_{eta+alpha,-alpha} takes that trace back to the means.
    """
    scale = gamma(alpha + (eta + 1.0)) / gamma(eta + 1.0)
    if space.kind == spaces.EUCLIDEAN:
        u = (ek_matrix if alpha > 0 else ek_ac_matrix)(values, grid, eta, alpha)
        u *= scale
        return u
    w = 1.0 - grid.values ** 2
    G = rl_matrix(values * w ** eta, grid, alpha)
    return 2.0 ** alpha * scale * w ** (-alpha - eta) * G


def _trace(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid, alpha: float,
           order: int) -> MeanData:
    """Both generators' body: the means' distinct rows, weighted, for every centre."""
    space = phantom.space
    validate_trace_order(space, alpha, "alpha")
    rows = forward_means(phantom, boundary, tgrid, order).rows
    u = trace_weighting(space, tgrid, rows, space.n / 2.0 - 1.0, alpha)
    return MeanData(space, boundary, tgrid, np.broadcast_to(u, (boundary.m, tgrid.n)), alpha)


def epd_trace_euclidean(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                        alpha: float, order: int = 16) -> MeanData:
    """Weighted-mean trace of order alpha on the boundary cylinder: each
    centre's means profile weighted by `trace_weighting` at eta = n/2 - 1.

    alpha = 0 gives the plain means; negative orders take the analytic
    continuation (alpha >= (1-n)/2 for well-posedness).
    """
    if phantom.space.kind != spaces.EUCLIDEAN:
        raise ValueError("Euclidean trace generator needs a Euclidean space")
    return _trace(phantom, boundary, tgrid, alpha, order)


def epd_trace_sphere(phantom: Phantom, boundary: BoundaryGrid, tgrid: TGrid,
                     alpha: float, order: int = 16) -> MeanData:
    """Weighted-mean trace on the cap boundary, directly integrable regime
    (alpha > 0): each centre's means profile weighted by `trace_weighting`
    at eta = n/2 - 1.
    """
    if phantom.space.kind != spaces.SPHERE:
        raise ValueError("spherical trace generator needs a sphere space")
    return _trace(phantom, boundary, tgrid, alpha, order)
