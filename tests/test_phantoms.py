import numpy as np
import pytest

from geomeans import spaces
from geomeans.numerics import laplacian_fd
from geomeans.phantoms import (
    Bump,
    Phantom,
    as_radial_field,
    bump_profile,
    laplacian_field,
    validate_margin,
)
from geomeans.spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec

E2 = SpaceSpec(EUCLIDEAN, 2, 1.0)
E3 = SpaceSpec(EUCLIDEAN, 3, 1.0)


def test_profile_values():
    assert bump_profile(np.array([0.0]))[0] == 1.0
    assert bump_profile(np.array([1.0]))[0] == 0.0
    assert abs(bump_profile(np.array([0.5]))[0] - np.exp(-1.0 / 3.0)) < 1e-15


def test_eval_center_and_support():
    ph = Phantom(E2, (Bump(np.array([0.2, 0.1]), 0.3, 1.7),))
    assert abs(ph(np.array([0.2, 0.1])) - 1.7) < 1e-14
    assert ph(np.array([0.9, 0.0])) == 0.0
    # half-radius point
    p = np.array([0.2 + 0.15, 0.1])
    assert abs(ph(p) - 1.7 * np.exp(-1.0 / 3.0)) < 1e-14


def test_eval_nonnegative_and_outside():
    ph = Phantom(E2, (Bump(np.array([0.2, 0.1]), 0.3, 1.0),
                      Bump(np.array([-0.3, 0.0]), 0.2, 0.5)))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    vals = ph(pts)
    assert np.all(vals >= 0.0)
    far = np.linalg.norm(pts - np.array([0.2, 0.1]), axis=1) > 0.3
    far &= np.linalg.norm(pts - np.array([-0.3, 0.0]), axis=1) > 0.2
    assert np.all(vals[far] == 0.0)


def test_support_margin():
    ph = Phantom(E2, (Bump(np.zeros(2), 0.4, 1.0),))
    assert abs(ph.support_margin() - 0.6) < 1e-14
    two = Phantom(E2, (Bump(np.zeros(2), 0.4, 1.0),
                       Bump(np.array([0.5, 0.0]), 0.3, 1.0)))
    assert abs(two.support_margin() - 0.2) < 1e-14


def test_margin_violation_rejected():
    with pytest.raises(ValueError):
        Phantom(E2, (Bump(np.array([0.8, 0.0]), 0.3, 1.0),))
    tight = Phantom(E2, (Bump(np.array([0.6, 0.0]), 0.38, 1.0),))
    with pytest.raises(ValueError):
        validate_margin(tight)


def test_smooth_across_support_edge():
    # FD derivatives up to order 4 along a ray through the support edge are
    # resolution-stable: a C^k discontinuity would scale like h^{-4}
    ph = Phantom(E2, (Bump(np.array([0.2, 0.1]), 0.3, 1.0),))

    def fd4_max(npts):
        s = np.linspace(0.25, 0.35, npts)
        h = s[1] - s[0]
        ray = np.array([0.2, 0.1])[None, :] + s[:, None] * np.array([1.0, 0.0])
        d = ph(ray)
        for _ in range(4):
            d = np.gradient(d, h)
        return np.max(np.abs(d[12:-12]))  # skip the window-edge stencils

    coarse, fine = fd4_max(801), fd4_max(1601)
    assert fine < 1.5 * coarse  # a C^3 break at the edge would grow ~2x


def test_curved_space_phantoms():
    for spec in (SpaceSpec(SPHERE, 2, 0.8), SpaceSpec(HYPERBOLIC, 2, 0.8)):
        c = spaces.lift(spec, np.array([0.1, -0.05]))
        ph = Phantom(spec, (Bump(c, 0.2, 2.0),))
        assert abs(ph(c) - 2.0) < 1e-13
        far = spaces.lift(spec, np.array([0.0, 0.0]))
        d = spaces.geodesic_distance(spec, far, c)
        expect = 2.0 * bump_profile(np.array([d / 0.2]))[0]
        assert abs(ph(far) - expect) < 1e-13


def test_closed_form_laplacian_vs_fd():
    ph = Phantom(E3, (Bump(np.array([0.2, 0.1, -0.1]), 0.35, 1.0),))
    pts = np.array([[0.2, 0.1, -0.1], [0.3, 0.2, -0.05], [0.05, 0.1, -0.25]])
    fd = laplacian_fd(lambda p: ph(p), pts, 1e-3)
    exact = laplacian_field(ph)(pts)
    assert np.max(np.abs(fd - exact)) < 5e-3 * np.max(np.abs(exact))


def test_laplacian_field_matches_pointwise():
    ph = Phantom(E3, (Bump(np.array([0.2, 0.1, -0.1]), 0.35, 1.2),))
    lf = laplacian_field(ph)
    pts = np.array([[0.25, 0.12, -0.15], [0.0, 0.0, 0.0]])
    fd = laplacian_fd(lambda p: ph(p), pts, 1e-3)
    assert np.max(np.abs(fd - lf(pts))) < 5e-3 * np.max(np.abs(lf(pts)))


def test_radial_field_equals_phantom():
    ph = Phantom(E3, (Bump(np.array([0.2, 0.1, -0.1]), 0.35, 1.2),
                      Bump(np.array([-0.1, 0.0, 0.2]), 0.25, 0.7),))
    rf = as_radial_field(ph)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    assert np.allclose(rf(pts), ph(pts), atol=1e-14)
