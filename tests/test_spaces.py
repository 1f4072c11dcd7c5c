import re

import numpy as np
import pytest

from geomeans import spaces
from geomeans.spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    SpaceSpec,
    boundary_grid,
    geodesic_distance,
    h_parameter,
    pairing,
    section_frame,
    section_scales,
    unit_sphere_rule,
)

E2 = SpaceSpec(EUCLIDEAN, 2, 1.0)
E3 = SpaceSpec(EUCLIDEAN, 3, 1.0)
S2 = SpaceSpec(SPHERE, 2, 0.8)
S3 = SpaceSpec(SPHERE, 3, 0.8)
H2 = SpaceSpec(HYPERBOLIC, 2, 0.8)
H3 = SpaceSpec(HYPERBOLIC, 3, 0.8)


def test_space_validation():
    with pytest.raises(ValueError):
        SpaceSpec(EUCLIDEAN, 1, 1.0)
    with pytest.raises(ValueError):
        SpaceSpec(SPHERE, 2, 2.0)  # cap angle beyond pi/2
    with pytest.raises(ValueError):
        SpaceSpec("flat", 2, 1.0)
    for radius in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="radius must be positive"):
            SpaceSpec(EUCLIDEAN, 3, radius)
    # radii whose grids no float holds, built without a config: the chart
    # radius squared overflows (1e200, inf, and sinh 800), 2R less 1e-3
    # rounds back to 2R (1e150), cosh 2R squared overflows (300)
    for kind, radius in ((EUCLIDEAN, 1e200), (EUCLIDEAN, float("inf")), (EUCLIDEAN, 1e150),
                         (HYPERBOLIC, 800.0), (HYPERBOLIC, 300.0)):
        message = f"radius {radius!r} in dimension 3 gives grids that no float holds: "
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SpaceSpec(kind, 3, radius)
    assert np.isfinite(SpaceSpec(EUCLIDEAN, 3, 1e6).boundary_area)
    assert np.isfinite(SpaceSpec(HYPERBOLIC, 3, 100.0).boundary_area)


def test_boundary_square_example():
    bg = boundary_grid(E2, 4)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(bg.centers, expect, atol=1e-12)
    assert np.allclose(bg.weights, 0.25)


def test_boundary_equator_example():
    bg = boundary_grid(SpaceSpec(SPHERE, 2, np.pi / 2), 4)
    assert np.allclose(bg.centers[:, 2], 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(bg.centers, axis=1), 1.0)
    assert np.allclose(bg.weights, 0.25)


@pytest.mark.parametrize("space", [E2, E3, S2, S3, H2, H3])
def test_boundary_weights_and_surface(space):
    bg = boundary_grid(space, 60)
    assert abs(bg.weights.sum() - 1.0) < 1e-12
    if space.kind == EUCLIDEAN:
        err = np.abs(np.linalg.norm(bg.centers, axis=1) - space.radius)
    elif space.kind == SPHERE:
        err = np.abs((bg.centers ** 2).sum(axis=1) - 1.0)
    else:
        err = np.abs(bg.centers[:, -1] ** 2 - (bg.centers[:, :-1] ** 2).sum(axis=1) - 1.0)
    assert np.max(err) < 1e-12


def test_boundary_too_small():
    with pytest.raises(ValueError):
        boundary_grid(E3, 3)


def test_sphere_rule_normalized():
    for d in (1, 2, 3):
        pts, w = unit_sphere_rule(d, 8)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_sphere_rule_polynomial_moments():
    # mean of x_1^2 over S^2 is 1/3; over S^3 is 1/4
    for d, expect in ((2, 1.0 / 3.0), (3, 0.25)):
        pts, w = unit_sphere_rule(d, 10)
        assert abs(np.dot(w, pts[:, 0] ** 2) - expect) < 1e-13


def _section_directions(space, center, order):
    # the unit-sphere rule carried to the sections around `center`
    omega, w = unit_sphere_rule(space.n - 1, order)
    return omega @ section_frame(space, center), w


@pytest.mark.parametrize("space,ts", [
    (E3, (0.3, 1.2, 1.9)),
    (S3, (-0.7, 0.1, 0.9)),
    (H3, (1.1, 1.9, 2.6)),
    (E2, (0.5, 1.5)),
    (S2, (-0.5, 0.6)),
    (H2, (1.2, 2.0)),
])
def test_section_mean_of_one(space, ts):
    centers = boundary_grid(space, 16).centers
    directions, w = _section_directions(space, centers[3], 12)
    assert abs(w.sum() - 1.0) < 1e-10
    assert np.all(w > 0)
    for t in ts:
        a, b = section_scales(space, t)
        pts = a * centers[3] + b * directions
        # nodes satisfy the section equation
        if space.kind == EUCLIDEAN:
            err = np.abs(np.linalg.norm(pts - centers[3], axis=1) - t)
        else:
            err = np.abs(pairing(space, pts, centers[3]) - t)
        assert np.max(err) < 1e-10


def test_section_odd_integrand_cancels():
    xi = boundary_grid(E3, 16).centers[2]
    directions, w = _section_directions(E3, xi, 16)
    a, b = section_scales(E3, 0.7)
    assert abs(np.dot(w, (a * xi + b * directions)[:, 0]) - xi[0]) < 1e-12


def test_section_frame_deterministic():
    xi = boundary_grid(S3, 16).centers[5]
    assert np.array_equal(section_frame(S3, xi), section_frame(S3, xi))


@pytest.mark.parametrize("space", [E2, E3, S2, S3, H2, H3])
def test_section_frame_turns_the_pole_inward(space):
    # the rule's pole e_1 goes to the direction toward the origin, the other
    # axes across it, and the frame keeps the rule's metric: x.y in R^n,
    # the pairing (kappa at the pole's tangents) on the cap and the
    # hyperboloid. At the origin or a pole, u = e_1 as in _pole_to
    for center in [*boundary_grid(space, 16).centers, spaces.origin(space)]:
        frame = section_frame(space, center)
        xp = spaces.chart(space, center)
        u = xp / np.linalg.norm(xp) if np.any(xp) else np.eye(space.n)[0]
        across = spaces.chart(space, frame)
        inward = across[0] / np.linalg.norm(across[0])
        assert np.allclose(inward, -u, rtol=0.0, atol=1e-14)
        assert np.allclose(across[1:] @ u, 0.0, rtol=0.0, atol=1e-14)
        gram = (frame @ frame.T if space.kind == EUCLIDEAN
                else pairing(space, frame[:, None], frame[None]) / space.curvature)
        assert np.allclose(gram, np.eye(space.n), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("space", [S2, S3, H2, H3])
def test_pole_frame_preserves_the_form(space):
    # _pole_to is a rotation or boost (determinant 1) that preserves
    # x_{n+1} y_{n+1} + kappa x'.y' and takes e_{n+1} to x, also at the
    # poles x' = 0 (the sphere's -e_{n+1} included)
    rng = np.random.default_rng(17)
    e = spaces.origin(space)
    poles = [e] + ([-e] if space.kind == SPHERE else [])
    for x in [*poles, *spaces.lift(space, rng.uniform(-0.5, 0.5, size=(4, space.n)))]:
        M = spaces._pole_to(space, x)
        assert np.allclose(M @ e, x, rtol=0.0, atol=1e-15)
        assert abs(np.linalg.det(M) - 1.0) < 1e-13
        a, b = rng.standard_normal((2, 5, space.n + 1))
        assert np.allclose(pairing(space, a @ M.T, b @ M.T), pairing(space, a, b),
                           rtol=0.0, atol=1e-13)
    assert np.array_equal(spaces._pole_to(space, e), np.eye(space.n + 1))


def test_lower_sheet_rejected():
    x = spaces.lift(H3, np.array([0.1, 0.0, 0.0]))
    spaces.validate_point(H3, x)
    with pytest.raises(ValueError, match="lower sheet"):
        spaces.validate_point(H3, x * np.array([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_points_that_are_not_finite_rejected(bad):
    # the first such point is named; the on-space check alone let nan pass
    for space in (E2, H3):
        x = spaces.lift(space, np.array([[0.1] * space.n, [0.2] * space.n, [0.0] * space.n]))
        x[1, -1] = x[2, 0] = bad
        with pytest.raises(ValueError, match=re.escape(f"point {x[1].tolist()} has a coordinate")):
            spaces.validate_point(space, x)


def test_minkowski_identity_point():
    e = spaces.origin(H3)
    assert abs(pairing(H3, e, e) - 1.0) < 1e-15


def test_minkowski_known_distance():
    r = 0.37
    x = np.array([np.sinh(r), 0.0, np.cosh(r)])
    e = spaces.origin(H2)
    assert abs(pairing(H2, x, e) - np.cosh(r)) < 1e-14


def test_minkowski_vs_geodesic_integrator():
    # shoot the geodesic ODE gamma'' = -[gamma', gamma'] gamma from x toward y
    # and compare the arg-min arrival parameter against arccosh [x, y]
    rng = np.random.default_rng(5)
    for _ in range(3):
        xp, yp = rng.uniform(-0.5, 0.5, size=(2, 2))
        x = spaces.lift(H2, xp)
        y = spaces.lift(H2, yp)
        c = pairing(H2, x, y)
        w = y - c * x
        v = w / np.sqrt(max(c * c - 1.0, 1e-300))

        def rhs(state):
            g, dg = state
            return np.array([dg, -(dg[-1] ** 2 - (dg[:-1] ** 2).sum()) * g])

        state = np.array([x, v])
        hstep = 1e-3
        best = (np.inf, 0.0)
        for k in range(int(3.0 / hstep)):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * hstep * k1)
            k3 = rhs(state + 0.5 * hstep * k2)
            k4 = rhs(state + hstep * k3)
            state = state + hstep / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            gap = np.linalg.norm(state[0] - y)
            if gap < best[0]:
                best = (gap, (k + 1) * hstep)
        assert best[0] < 1e-3
        assert abs(np.cosh(best[1]) - c) < 1e-3


def test_h_examples():
    x = np.array([0.3, 0.2])
    assert abs(h_parameter(E2, x, np.zeros(2)) - np.linalg.norm(x) / 2.0) < 1e-14
    # reflected pair with equal heights has h = 0
    xp = np.array([0.2, 0.1])
    x = spaces.lift(S2, xp)
    y = spaces.lift(S2, -xp)
    assert abs(h_parameter(S2, x, y)) < 1e-14
    x = spaces.lift(H2, xp)
    y = spaces.lift(H2, -xp)
    assert abs(h_parameter(H2, x, y)) < 1e-14


def test_h_degenerate_pair():
    x = np.array([0.3, 0.2])
    with pytest.raises(ValueError):
        h_parameter(E2, x, x)


@pytest.mark.parametrize("space", [E2, S3, H2])
def test_h_stacked_pairs_match_single_pairs(space):
    rng = np.random.default_rng(3)
    chart_pts = rng.uniform(-0.3, 0.3, size=(2, 4, 3, space.n))
    x, y = spaces.lift(space, chart_pts)
    h = h_parameter(space, x, y)
    assert h.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert h[i, j] == h_parameter(space, x[i, j], y[i, j])
    with pytest.raises(ValueError):
        h_parameter(space, x, np.where(np.arange(4)[:, None, None] == 2, x, y))


@pytest.mark.parametrize("space", [E2, S2, H2, E3, S3, H3])
def test_h_bound_random_pairs(space):
    rng = np.random.default_rng(11)
    bound = 0.9 * space.radius
    worst = 0.0
    count = 0
    while count < 2000:
        g = rng.uniform(-bound, bound, size=(2, space.n))
        r = np.linalg.norm(g, axis=1)
        if np.max(r) > bound:
            continue
        if space.kind == EUCLIDEAN:
            x, y = g
        else:
            scale = np.sin(r) if space.kind == SPHERE else np.sinh(r)
            chart = g * np.divide(scale, r, out=np.ones_like(r), where=r > 0)[:, None]
            x, y = spaces.lift(space, chart)
        if np.linalg.norm(np.asarray(x)[: space.n] - np.asarray(y)[: space.n]) < 1e-9:
            continue
        worst = max(worst, abs(h_parameter(space, x, y)))
        count += 1
    assert worst < 1.0


def test_geodesic_distance_consistency():
    xp = np.array([0.2, -0.1])
    x = spaces.lift(S2, xp)
    e = spaces.origin(S2)
    assert abs(geodesic_distance(S2, x, e) - np.arccos(x[-1])) < 1e-14
    x = spaces.lift(H2, xp)
    e = spaces.origin(H2)
    assert abs(geodesic_distance(H2, x, e) - np.arccosh(x[-1])) < 1e-14


@pytest.mark.parametrize("n", range(2, 8))
def test_euclidean_distance_equals_numpy_norm(n):
    # summed column by column in the order np.linalg.norm sums up to n = 7,
    # so the distances are its numbers bit for bit
    space = SpaceSpec(EUCLIDEAN, n, 1.0)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, 50, n))
    y = rng.standard_normal(n)
    assert np.array_equal(geodesic_distance(space, x, y), np.linalg.norm(x - y, axis=-1))
    assert geodesic_distance(space, x[0, 0], y) == np.linalg.norm(x[0, 0] - y, axis=-1)
