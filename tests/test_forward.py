import numpy as np
import pytest
from scipy.special import gamma

from geomeans import spaces
from geomeans.forward import (
    default_tgrid,
    epd_trace_euclidean,
    epd_trace_sphere,
    forward_means,
)
from geomeans.inversion import phantom_integral
from geomeans.numerics import gauss_legendre
from geomeans.phantoms import Bump, Phantom, laplacian_field
from geomeans.spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid

E3 = SpaceSpec(EUCLIDEAN, 3, 1.0)
S2 = SpaceSpec(SPHERE, 2, 0.8)
S3 = SpaceSpec(SPHERE, 3, 0.8)
H2 = SpaceSpec(HYPERBOLIC, 2, 0.8)


def bump_at(space, chart_center, radius, amp=1.0):
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, amp),))


def test_support_geometry():
    ph = bump_at(E3, [0.0, 0.0, 0.0], 0.3)
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 400)
    data = forward_means(ph, bd, tg)
    t = tg.values
    outside = (t < 1.0 - 0.3 - 1e-9) | (t > 1.0 + 0.3 + 1e-9)
    assert np.max(np.abs(data.values[:, outside])) == 0.0
    inside = np.abs(t - 1.0) < 0.2
    assert np.max(data.values[:, inside]) > 0.0


def test_linearity_two_bumps():
    b1 = Bump(np.array([0.2, 0.1, 0.0]), 0.25, 1.0)
    b2 = Bump(np.array([-0.2, 0.0, 0.1]), 0.2, 0.6)
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 300)
    both = forward_means(Phantom(E3, (b1, b2)), bd, tg)
    one = forward_means(Phantom(E3, (b1,)), bd, tg)
    two = forward_means(Phantom(E3, (b2,)), bd, tg)
    assert np.max(np.abs(both.values - one.values - two.values)) < 1e-12


@pytest.mark.parametrize("space,chart_c", [
    (E3, [0.2, 0.1, -0.15]),
    (S2, [0.12, -0.08]),
    (H2, [0.15, -0.10]),
])
def test_exact_reduction_matches_sections(space, chart_c):
    ph = bump_at(space, chart_c, 0.22)
    bd = boundary_grid(space, 12)
    tg = default_tgrid(space, 128)
    exact = forward_means(ph, bd, tg, profile="exact")
    coarse = forward_means(ph, bd, tg, order=192, profile="sections")
    fine = forward_means(ph, bd, tg, order=384, profile="sections")
    gap_coarse = np.max(np.abs(exact.values - coarse.values))
    gap_fine = np.max(np.abs(exact.values - fine.values))
    assert gap_fine < gap_coarse  # sections converge toward the reduction
    assert gap_fine < 5e-5


def _radial_part_profile_all_rows(space, center, part_center, scale, fn, tgrid, order):
    """Reference: the azimuthal reduction evaluated on every t-row, including
    the sections that miss the part's support; also returns the half-angle
    phi_max of each section's arc inside the support."""
    n = space.n
    t = tgrid.values
    if space.kind == EUCLIDEAN:
        d = float(np.linalg.norm(center - part_center))
        dist = lambda tt, u: np.sqrt(np.maximum(tt ** 2 + d ** 2 - 2.0 * tt * d * u, 0.0))
        u_star = (t ** 2 + d ** 2 - scale ** 2) / (2.0 * t * d)
    else:
        k = space.curvature
        a = float(spaces.pairing(space, center, part_center))
        sin_a = np.sqrt(max(k * (1.0 - a ** 2), 0.0))
        dist = lambda tt, u: space.arc_k(
            tt * a + k * (np.sqrt(np.maximum(k * (1.0 - tt ** 2), 0.0)) * sin_a) * u)
        B = np.sqrt(np.maximum(k * (1.0 - t ** 2), 0.0)) * sin_a
        u_star = k * (space.cos_k(scale) - t * a) / np.maximum(B, 1e-300)
    phi_max = np.arccos(np.clip(u_star, -1.0, 1.0))
    x, w = gauss_legendre(order, 0.0, 1.0)
    phi = phi_max[:, None] * x[None, :]
    vals = fn(dist(t[:, None], np.cos(phi)) / scale) * np.sin(phi) ** (n - 2)
    ratio = float(gamma(n / 2.0) / (np.sqrt(np.pi) * gamma((n - 1) / 2.0)))
    return ratio * phi_max * (vals @ w), phi_max


@pytest.mark.parametrize("space", [E3, S2, S3, H2, SpaceSpec(HYPERBOLIC, 3, 0.8)])
def test_radial_part_skips_only_empty_rows(space):
    # rows whose section misses the support are skipped; the others match
    # the every-row formula, also where the section only grazes the support
    from geomeans.forward import _radial_part_profile
    from geomeans.phantoms import bump_profile

    to_t = {EUCLIDEAN: lambda r: r, SPHERE: np.cos, HYPERBOLIC: np.cosh}[space.kind]
    center = boundary_grid(space, 12).centers[3]
    part = spaces.lift(space, 0.3 * spaces.chart(space, center) / np.linalg.norm(
        spaces.chart(space, center)))
    d = float(spaces.geodesic_distance(space, center, part))
    tg = default_tgrid(space, 128)
    t = tg.values
    # scales whose inner or outer tangent section sits on a grid node,
    # just inside or just outside the support, plus one generic scale
    inner = np.searchsorted(t, to_t(d - 0.2))
    outer = np.searchsorted(t, to_t(d + 0.2))
    from_t = {EUCLIDEAN: lambda v: v, SPHERE: np.arccos, HYPERBOLIC: np.arccosh}[space.kind]
    scales = [0.17]
    for eps in (-1e-12, 1e-12):
        scales.append(abs(d - from_t(t[inner])) + eps)
        scales.append(abs(from_t(t[outer]) - d) + eps)
    # the bump vanishes to all orders at its edge; the hard-edged profile
    # gives grazing sections a nonzero mean
    hard_edge = lambda s: np.where(s < 1.0, 1.0 + s, 0.0)
    grazing = 0
    for fn in (bump_profile, hard_edge):
        for scale in scales:
            got = _radial_part_profile(space, center, part, scale, fn, tg, 64)
            ref, phi_max = _radial_part_profile_all_rows(space, center, part, scale, fn, tg, 64)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.all(got[phi_max == 0.0] == 0.0)
            grazing += int(np.count_nonzero((phi_max > 0) & (phi_max < 1e-4)))
    assert grazing > 0


@pytest.mark.parametrize("space", [E3, S2, S3, H2, SpaceSpec(HYPERBOLIC, 3, 0.8)])
def test_sections_skip_only_rows_that_miss_the_support(space):
    # phantoms and radial fields skip the sections that miss every part's
    # support; the same field as a plain callable takes every row. The
    # hard-edged part's scales put its tangent sections 1e-12 inside or
    # outside a grid node.
    from geomeans.forward import _rows_meeting_support, forward_field_profile
    from geomeans.phantoms import RadialField

    from_t = {EUCLIDEAN: lambda v: v, SPHERE: np.arccos, HYPERBOLIC: np.arccosh}[space.kind]
    center = boundary_grid(space, 12).centers[3]
    toward = spaces.chart(space, center) / np.linalg.norm(spaces.chart(space, center))
    near, far = spaces.lift(space, 0.3 * toward), spaces.lift(space, -0.2 * toward)
    tg = default_tgrid(space, 128)
    r = from_t(tg.values)
    d = float(spaces.geodesic_distance(space, center, near))
    inner = np.searchsorted(r, d - 0.2) if space.kind != SPHERE else np.searchsorted(-r, 0.2 - d)
    hard_edge = lambda s: np.where(s < 1.0, 1.0 + s, 0.0)
    fields = [Phantom(space, (Bump(near, 0.15, 1.0), Bump(far, 0.1, 0.5)))]
    for eps in (-1e-12, 1e-12):
        fields.append(RadialField(space, ((near, abs(d - r[inner]) + eps, hard_edge),
                                          (far, 0.1, hard_edge))))
    for field in fields:
        got = forward_field_profile(field, space, center, tg, 12)
        ref = forward_field_profile(lambda x: field(x), space, center, tg, 12)
        skipped = np.setdiff1d(np.arange(tg.n), _rows_meeting_support(field, space, center, tg.values))
        assert 0 < skipped.size < tg.n
        assert np.all(got[skipped] == 0.0) and np.all(ref[skipped] == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_sections_self_convergence_broad_bump():
    # resolved sections change by < 1e-8 when the order doubles
    ph = bump_at(E3, [0.0, 0.0, 0.0], 0.6)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 128)
    a = forward_means(ph, bd, tg, order=192, profile="sections")
    b = forward_means(ph, bd, tg, order=384, profile="sections")
    assert np.max(np.abs(a.values - b.values)) < 1e-8


def test_sphere_constant_field_hook():
    # a constant field has mean exactly 1 at every (center, t)
    from geomeans.forward import forward_field_profile

    bd = boundary_grid(S3, 16)
    tg = default_tgrid(S3, 128)
    row = forward_field_profile(lambda pts: np.ones(pts.shape[0]), S3,
                                bd.centers[2], tg, order=12)
    assert np.max(np.abs(row - 1.0)) < 1e-12


def test_exact_reduction_radial_agrees_with_1d_formula():
    # radial bump: mean over the section only depends on (|xi|, t); compare
    # with the classical 1-D average for n = 3
    ph = bump_at(E3, [0.0, 0.0, 0.0], 0.4)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 200)
    data = forward_means(ph, bd, tg)
    t = tg.values
    d = 1.0
    from geomeans.phantoms import bump_profile

    x, w = gauss_legendre(400, -1.0, 1.0)
    for j in (50, 100, 150):
        rho = np.sqrt(t[j] ** 2 + d ** 2 - 2 * t[j] * d * x)
        expect = 0.5 * np.dot(w, bump_profile(rho / 0.4))
        assert abs(data.values[0, j] - expect) < 1e-9


def test_darboux_property():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3)
    means = forward_means(ph, bd, tg)
    lap_means = forward_means(laplacian_field(ph), bd, tg)
    from geomeans.numerics import darboux_L_matrix

    L = darboux_L_matrix(means.values, tg, 3)
    sel = (tg.values > 0.7) & (tg.values < 1.3)
    num = np.max(np.abs(lap_means.values[:, sel] - L[:, sel]))
    assert num / np.max(np.abs(lap_means.values[:, sel])) <= 1e-3


def test_epd_trace_zero_order_is_means():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.3)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 300)
    means = forward_means(ph, bd, tg)
    tr = epd_trace_euclidean(ph, bd, tg, 0.0)
    assert np.array_equal(tr.values, means.values)
    assert tr.alpha == 0.0


def test_epd_trace_euclidean_alpha_range():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.3)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 300)
    with pytest.raises(ValueError):
        epd_trace_euclidean(ph, bd, tg, -1.5)


def test_epd_trace_euclidean_ball_integral_oracle():
    # for alpha = 1, n = 3 the trace is a constant times the average of f
    # over the ball of radius t around the center; with z = xi - t y the
    # integral becomes t^{-3} int_{|xi - z| < t} f(z) dz, which has the
    # closed values 0 (support missed) and t^{-3} * mass (support inside)
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.3)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 400)
    tr = epd_trace_euclidean(ph, bd, tg, 1.0)
    xi = bd.centers[3]
    n = 3
    mass = phantom_integral(ph)
    c = spaces.lift(E3, np.array([0.2, 0.1, -0.15]))
    dist = np.linalg.norm(xi - c)
    pref = gamma(1.0 + n / 2.0) / np.pi ** (n / 2.0)
    for t_lo in (0.3, 0.5):
        if t_lo < dist - 0.3:
            j = np.argmin(np.abs(tg.values - t_lo))
            assert abs(tr.values[3, j]) < 1e-12
    for t_hi in (dist + 0.35, 1.9):
        if t_hi < tg.b:
            j = np.argmin(np.abs(tg.values - t_hi))
            expect = pref * mass / tg.values[j] ** 3
            assert abs(tr.values[3, j] - expect) < 1e-7
    # mid-range cross-check against the radial form of the ball average
    means = forward_means(ph, bd, tg)
    sx, sw = gauss_legendre(400, 0.0, 1.0)
    sigma = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    for j in (180, 240):
        t = tg.values[j]
        mf = np.interp(t * sx, tg.values, means.values[3], left=0.0, right=0.0)
        ball = sigma * np.dot(sw, sx ** (n - 1) * mf)
        expect = pref * ball
        assert abs(tr.values[3, j] - expect) < 1e-6


def test_epd_trace_wave_case_oracle():
    # alpha = -1, n = 3: the trace is the t-derivative of t * means
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.3)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3)
    means = forward_means(ph, bd, tg)
    tr = epd_trace_euclidean(ph, bd, tg, -1.0)
    from geomeans.numerics import diff_matrix

    expect = diff_matrix(tg.values * means.values, tg, 1)
    sel = slice(4, -4)
    assert np.max(np.abs(tr.values[:, sel] - expect[:, sel])) < 1e-6


def test_epd_trace_sphere_identity_limit():
    ph = bump_at(S3, [0.12, -0.08, 0.10], 0.22)
    bd = boundary_grid(S3, 8)
    tg = default_tgrid(S3, 300)
    means = forward_means(ph, bd, tg)
    tr = epd_trace_sphere(ph, bd, tg, 1e-3)
    sel = np.abs(means.values) > 1e-6
    assert np.max(np.abs(tr.values[sel] - means.values[sel])) < 1e-2


def test_epd_trace_sphere_zero_phantom():
    ph = bump_at(S3, [0.12, -0.08, 0.10], 0.22, amp=0.0)
    bd = boundary_grid(S3, 8)
    tg = default_tgrid(S3, 300)
    tr = epd_trace_sphere(ph, bd, tg, 1.0)
    assert np.max(np.abs(tr.values)) == 0.0


def test_epd_trace_sphere_alpha_guard():
    ph = bump_at(S3, [0.12, -0.08, 0.10], 0.22)
    bd = boundary_grid(S3, 8)
    tg = default_tgrid(S3, 300)
    with pytest.raises(ValueError):
        epd_trace_sphere(ph, bd, tg, -0.5)


def test_epd_trace_sphere_direct_quadrature_oracle():
    # alpha = 1, n = 3: compare against plain quadrature of the polar-form
    # integral at random t, and against the closed-form mass value when the
    # section parameter sits below the data support
    rng = np.random.default_rng(7)
    ph = bump_at(S3, [0.12, -0.08, 0.10], 0.22)
    bd = boundary_grid(S3, 8)
    tg = default_tgrid(S3)
    tr = epd_trace_sphere(ph, bd, tg, 1.0)
    means = forward_means(ph, bd, tg)
    n, alpha = 3, 1.0
    pref = 2.0 ** alpha * gamma(alpha + n / 2.0) / gamma(n / 2.0)
    i = 3
    for t in rng.uniform(-0.6, 0.8, size=5):
        j = np.argmin(np.abs(tg.values - t))
        got_G = tr.values[i, j] / (pref * (1.0 - tg.values[j] ** 2) ** (1.0 - alpha - n / 2.0))
        ref_x, ref_w = gauss_legendre(500, tg.values[j], tg.b)
        ref_mf = np.interp(ref_x, tg.values, means.values[i])
        ref_G = np.dot(ref_w, ref_mf * (1.0 - ref_x ** 2) ** (n / 2.0 - 1.0))
        assert abs(got_G - ref_G) < 1e-6
    # below-support section: the integral is the full weighted mass
    support_min = np.min(tg.values[np.abs(means.values[i]) > 0]) if np.any(means.values[i]) else tg.a
    t_low = support_min - 0.1
    if t_low > tg.a:
        j = np.argmin(np.abs(tg.values - t_low))
        sigma = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
        mass = phantom_integral(ph)
        expect = pref * (1.0 - tg.values[j] ** 2) ** (1.0 - alpha - n / 2.0) * mass / sigma
        assert abs(tr.values[i, j] - expect) < 1e-6
