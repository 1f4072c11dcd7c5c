import pickle

import mpmath as mp
import numpy as np
import pytest

from geomeans import spaces
from geomeans.numerics import laplacian_fd
from geomeans.phantoms import (
    Bump,
    Phantom,
    RadialField,
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


@pytest.mark.parametrize("radius", [float("nan"), 0.0, -0.3])
def test_bump_radius_must_be_positive(radius):
    with pytest.raises(ValueError, match="bump radius must be positive"):
        Bump(np.array([0.2, 0.0]), radius, 1.0)


@pytest.mark.parametrize("space", [E2, SpaceSpec(SPHERE, 2, 0.8)])
def test_bump_centre_must_be_finite(space):
    # unchecked, a nan centre gave the support margin nan, which passed the
    # margin check, and means that were all 0
    centre = spaces.lift(space, np.array([0.1, 0.0]))
    centre[0] = np.nan
    with pytest.raises(ValueError, match=r"^point \[nan, .*\] has a coordinate that is not finite$"):
        Phantom(space, (Bump(centre, 0.3, 1.0),))


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


TWO_BUMPS = Phantom(E3, (Bump(np.array([0.2, 0.1, -0.1]), 0.35, 1.2),
                         Bump(np.array([-0.1, 0.0, 0.2]), 0.25, -0.7)))


def _near_the_bumps(ph, count, seed):
    """The bump centres, then points at up to 1.05 bump radii from each."""
    rng = np.random.default_rng(seed)
    pts = [np.stack([b.center for b in ph.bumps])]
    for b in ph.bumps:
        u = rng.standard_normal((count, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts.append(b.center + u * rng.uniform(0.0, 1.05 * b.geodesic_radius, (count, 1)))
    return np.concatenate(pts)


def test_laplacian_field_against_30_digit_derivatives():
    # w'' + (n - 1) w'/s of each bump by mpmath's differentiation of w at 30
    # digits, w'/s at s = 0 by its limit w''(0); the closed form stays within
    # a few ulps of max|Δf|, bump centres included
    w = lambda s: mp.exp(1 - 1 / (1 - s * s)) if abs(s) < 1 else mp.mpf(0)
    pts = _near_the_bumps(TWO_BUMPS, 60, 4)
    ref = np.zeros(len(pts))
    with mp.workdps(30):
        for b in TWO_BUMPS.bumps:
            for k, s in enumerate(np.linalg.norm(pts - b.center, axis=-1) / b.geodesic_radius):
                if s < 1.0:
                    s = mp.mpf(float(s))
                    d2 = mp.diff(w, s, 2)
                    d1_over_s = d2 if s == 0 else mp.diff(w, s, 1) / s
                    ref[k] += float(b.amplitude / mp.mpf(b.geodesic_radius) ** 2
                                    * (d2 + (E3.n - 1) * d1_over_s))
    got = laplacian_field(TWO_BUMPS)(pts)
    assert np.count_nonzero(ref) > len(pts) // 2
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_laplacian_field_pickles():
    # its parts are module functions bound by partial, as a phantom's are
    lf = laplacian_field(TWO_BUMPS)
    pts = _near_the_bumps(TWO_BUMPS, 50, 5)
    assert np.array_equal(pickle.loads(pickle.dumps(lf))(pts), lf(pts))


def test_radial_field_equals_phantom():
    # a phantom is the radial field of its bumps, bit for bit
    ph = Phantom(E3, (Bump(np.array([0.2, 0.1, -0.1]), 0.35, 1.2),
                      Bump(np.array([-0.1, 0.0, 0.2]), 0.25, 0.7),))
    assert isinstance(ph, RadialField)
    assert len(ph.parts) == len(ph.bumps)
    assert all(c is b.center and s == b.geodesic_radius for (c, s, _), b in zip(ph.parts, ph.bumps))
    rf = RadialField(E3, ph.parts)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    assert np.array_equal(rf(pts), ph(pts))
    expect = sum(b.amplitude * bump_profile(np.linalg.norm(pts - b.center, axis=-1)
                                            / b.geodesic_radius) for b in ph.bumps)
    assert np.array_equal(ph(pts), expect)
    assert np.array_equal(pickle.loads(pickle.dumps(ph))(pts), expect)
