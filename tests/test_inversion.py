import numpy as np
import pytest
from scipy.special import gamma

from geomeans import spaces
from geomeans.forward import MeanData, default_tgrid, forward_means
from geomeans.inversion import (
    backproject,
    chart_box_grid,
    constants,
    invert,
    invert_euclidean_even,
    invert_euclidean_modified,
    invert_euclidean_odd,
    make_report,
    phantom_integral,
    riesz_potential,
)

from geomeans.phantoms import Bump, Phantom
from geomeans.spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid

E2 = SpaceSpec(EUCLIDEAN, 2, 1.0)
E3 = SpaceSpec(EUCLIDEAN, 3, 1.0)


def bump_at(space, chart_center, radius, amp=1.0):
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, amp),))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_n3():
    c = constants(3, 1.0)
    assert abs(c.d_n1 - (-1.0 / (2.0 * np.pi))) < 1e-15
    assert abs(c.sigma - 4.0 * np.pi) < 1e-12
    assert abs(c.d_curved - 1.0 / (2.0 * np.pi)) < 1e-15


def test_constants_n2():
    c = constants(2, 1.0)
    # the even-dimension constant continues down to n = 2 as +1/(2 pi R)
    assert abs(c.d_n2 - 1.0 / (2.0 * np.pi)) < 1e-15
    assert abs(c.d_curved - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# back-projection
# ---------------------------------------------------------------------------

def test_backproject_constant():
    bd = boundary_grid(E2, 32)
    tg = default_tgrid(E2, 128)
    F = np.ones((bd.m, tg.n))
    out = backproject(bd, tg, F, np.array([[0.2, 0.1]]), fill="error")
    assert abs(out[0] - 1.0) < 1e-12


def test_backproject_squared_distance_at_origin():
    bd = boundary_grid(E2, 64)
    tg = default_tgrid(E2, 256)
    F = np.tile(tg.values ** 2, (bd.m, 1))
    out = backproject(bd, tg, F, np.zeros((1, 2)), fill="error")
    assert abs(out[0] - 1.0) < 1e-9  # all |x - xi| = R


def test_backproject_single_center():
    bd = boundary_grid(E2, 4)
    centers = bd.centers[:1]
    from geomeans.spaces import BoundaryGrid

    single = BoundaryGrid(E2, centers, np.array([1.0]))
    tg = default_tgrid(E2, 128)
    F = np.sin(tg.values)[None, :]
    x = np.array([[0.3, 0.0]])
    out = backproject(single, tg, F, x, fill="error")
    r = np.linalg.norm(x[0] - centers[0])
    assert abs(out[0] - np.sin(r)) < 1e-9


def test_backproject_auto_fill_policy():
    bd = boundary_grid(E2, 8)
    tg = default_tgrid(E2, 128)
    supported = np.zeros((bd.m, tg.n))
    supported[:, 40:60] = 1.0
    # interior support: arguments outside the grid count as zero
    far = np.array([[0.999, 0.0]])
    out = backproject(bd, tg, supported, far)
    assert np.isfinite(out[0])
    # support touching the edge: out-of-grid arguments must raise
    touching = np.ones((bd.m, tg.n))
    closer = np.array([[0.9997, 0.0]])
    with pytest.raises(ValueError):
        backproject(bd, tg, touching, closer)


# ---------------------------------------------------------------------------
# inversion basics
# ---------------------------------------------------------------------------

def test_zero_data_reconstructs_zero():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 300)
    data = MeanData(E3, bd, tg, np.zeros((bd.m, tg.n)))
    x = np.array([[0.1, 0.0, 0.2]])
    assert invert_euclidean_odd(data, x)[0] == 0.0
    bd2 = boundary_grid(E2, 16)
    tg2 = default_tgrid(E2, 300)
    data2 = MeanData(E2, bd2, tg2, np.zeros((bd2.m, tg2.n)))
    assert invert_euclidean_even(data2, np.array([[0.1, 0.2]]))[0] == 0.0
    assert invert_euclidean_modified(data2, np.array([[0.1, 0.2]]))[0] == 0.0


def test_parity_dispatch_errors():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 300)
    data = MeanData(E3, bd, tg, np.zeros((bd.m, tg.n)))
    with pytest.raises(ValueError):
        invert_euclidean_even(data, np.array([[0.0, 0.0, 0.0]]))
    bd2 = boundary_grid(E2, 16)
    tg2 = default_tgrid(E2, 300)
    data2 = MeanData(E2, bd2, tg2, np.zeros((bd2.m, tg2.n)))
    with pytest.raises(ValueError):
        invert_euclidean_odd(data2, np.array([[0.0, 0.0]]))


def test_inversion_linear_in_data():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 400)
    b1 = bump_at(E3, [0.2, 0.1, 0.0], 0.25)
    b2 = bump_at(E3, [-0.2, 0.0, 0.1], 0.2, amp=0.6)
    d1 = forward_means(b1, bd, tg)
    d2 = forward_means(b2, bd, tg)
    dsum = MeanData(E3, bd, tg, d1.values + d2.values)
    x = np.array([[0.15, 0.05, 0.0], [-0.1, 0.0, 0.05]])
    lhs = invert_euclidean_odd(dsum, x)
    rhs = invert_euclidean_odd(d1, x) + invert_euclidean_odd(d2, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_newtonian_potential_identity_n3():
    # filtered back-projection of t * means equals the weighted Newton
    # potential of the phantom at interior points
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    t = tg.values
    G = t * data.values
    x = np.array([[0.25, 0.05, -0.1], [0.0, 0.0, 0.0], [0.4, 0.2, -0.3]])
    lhs = 0.5 * E3.boundary_area * backproject(bd, tg, G, x, fill=0.0)
    lam = 0.25  # (2R)^{2-n} Gamma(n/2) / sqrt(pi) at n = 3, R = 1
    for k in range(3):
        newton = riesz_potential(ph, x[k]) / (gamma(0.5) / (4.0 * np.pi ** 1.5))
        assert abs(lhs[k] - lam * newton) / abs(lam * newton) < 0.01


def test_phantom_integral_euclid_closed_form():
    # mass of a single bump equals sigma_1 * amp * r^2 * int_0^1 w(s) s ds
    from geomeans.numerics import gauss_legendre
    from geomeans.phantoms import bump_profile

    ph = bump_at(E2, [0.25, 0.1], 0.30, amp=1.3)
    x, w = gauss_legendre(200, 0.0, 1.0)
    expect = 2.0 * np.pi * 1.3 * 0.3 ** 2 * np.dot(w, bump_profile(x) * x)
    assert abs(phantom_integral(ph) - expect) < 1e-12


# ---------------------------------------------------------------------------
# compact round trips (full-scale ones live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_roundtrip_euclid_n3_quick():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    pts = chart_box_grid(E3, np.array([0.2, 0.1, -0.15]), 0.42, 7, ball_radius=0.42)
    rec = invert(data, pts)
    rep = make_report(pts, ph(pts), rec, "direct")
    assert rep.rel_l2 < 0.01
    assert abs(rep.calibration - 1.0) < 0.01


def test_modified_agrees_with_direct_n3():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3)
    data = forward_means(ph, bd, tg)
    pts = chart_box_grid(E3, np.array([0.2, 0.1, -0.15]), 0.42, 7, ball_radius=0.42)
    direct = invert(data, pts, method="direct")
    modified = invert(data, pts, method="modified")
    rel = np.linalg.norm(direct - modified) / np.linalg.norm(direct)
    assert rel <= 0.02


def test_curved_roundtrips_quick():
    for kind in (SPHERE, HYPERBOLIC):
        spec = SpaceSpec(kind, 2, 0.8)
        cp = np.array([0.15, -0.10])
        ph = bump_at(spec, cp, 0.22)
        bd = boundary_grid(spec, 96)
        tg = default_tgrid(spec)
        data = forward_means(ph, bd, tg)
        pts = chart_box_grid(spec, cp, 0.3, 9, ball_radius=0.3)
        rec = invert(data, pts)
        rep = make_report(pts, ph(pts), rec, "direct")
        assert rep.rel_l2 < 0.03
        assert abs(rep.calibration - 1.0) < 0.01


def test_curved_zero_data():
    spec = SpaceSpec(SPHERE, 2, 0.8)
    bd = boundary_grid(spec, 32)
    tg = default_tgrid(spec, 300)
    data = MeanData(spec, bd, tg, np.zeros((bd.m, tg.n)))
    x = spaces.lift(spec, np.array([[0.1, 0.0]]))
    assert invert(data, x)[0] == 0.0


def test_curved_interior_guard():
    spec = SpaceSpec(SPHERE, 2, 0.8)
    bd = boundary_grid(spec, 32)
    tg = default_tgrid(spec, 300)
    data = MeanData(spec, bd, tg, np.zeros((bd.m, tg.n)))
    rim = spaces.lift(spec, np.array([[np.sin(0.8), 0.0]]))
    with pytest.raises(ValueError):
        invert(data, rim)


def test_hyperbolic_prefactor_is_origin_neutral():
    # at the origin of the hyperboloid the prefactor reduces to d_n/sinh R
    spec = SpaceSpec(HYPERBOLIC, 2, 0.8)
    e = spaces.origin(spec)
    assert abs(e[-1] - 1.0) < 1e-15


def test_epd_invert_requires_tag():
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 300)
    data = MeanData(E3, bd, tg, np.zeros((bd.m, tg.n)))
    from geomeans.inversion import epd_invert_euclidean

    with pytest.raises(ValueError):
        epd_invert_euclidean(data, np.array([[0.0, 0.0, 0.0]]))


def test_epd_zero_order_matches_plain():
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 96)
    tg = default_tgrid(E3, 400)
    from geomeans.forward import epd_trace_euclidean

    traces = epd_trace_euclidean(ph, bd, tg, 0.0)
    means = forward_means(ph, bd, tg)
    x = np.array([[0.2, 0.1, -0.15], [0.1, 0.0, 0.0]])
    a = invert(traces, x)
    b = invert(means, x)
    assert np.max(np.abs(a - b)) < 1e-12
