import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma

from geomeans import cli, forward, inversion, spaces
from geomeans.checks import phantom_integral
from geomeans.forward import (
    MeanData,
    default_tgrid,
    epd_trace_euclidean,
    epd_trace_sphere,
    forward_means,
    trace_weighting,
)
from geomeans.fractional import ek_ac_matrix, ek_matrix, rl_matrix
from geomeans.numerics import TGrid, gauss_legendre
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


@pytest.mark.parametrize("space,shift,message", [
    (E3, 0.2, r"t1 = 2\.19.* leaves the euclidean section range \(0\.0, 2\.0\)"),
    (E3, -0.05, r"t0 = -0\.04.* leaves the euclidean section range"),
    (S3, 0.2, r"t1 = 1\.19.* leaves the sphere section range \(-1\.0, 1\.0\)"),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), -0.05,
     r"t0 = 0\.95.* leaves the hyperbolic section range \(1\.0, 2\.577.*\]"),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 1e-9, r"t1 = 2\.577.* leaves the hyperbolic section range"),
])
def test_mean_data_rejects_a_t_grid_outside_the_section_range(space, shift, message):
    # the default grid is accepted, on the hyperboloid up to t1 = cosh 2R;
    # the same grid shifted past either end of the range is rejected
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 64)
    assert space.kind != HYPERBOLIC or tg.b == space.tgrid_range[1]
    MeanData(space, bd, tg, np.zeros((bd.m, tg.n)))
    with pytest.raises(ValueError, match=message):
        MeanData(space, bd, TGrid(tg.values + shift), np.zeros((bd.m, tg.n)))


@pytest.mark.parametrize("space,alpha,message", [
    (E3, float("nan"), "alpha must be finite, not nan"),
    (E3, float("inf"), "alpha must be finite, not inf"),
    (E3, -1.5, r"alpha must be >= \(1-n\)/2 = -1.0, not -1.5"),
    (S3, 0.0, r"cap traces are generated with alpha > 0, not 0.0"),
    (SpaceSpec(HYPERBOLIC, 3, 0.8), 1.0,
     "alpha is set, but hyperboloid trace inversion is not provided"),
])
def test_mean_data_checks_the_trace_order(space, alpha, message):
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 64)
    values = np.zeros((bd.m, tg.n))
    assert MeanData(space, bd, tg, values).alpha is None
    if space.kind != HYPERBOLIC:
        # the lower end (1-n)/2 of the R^3 range, and an order inside the cap's
        ok = -1.0 if space.kind == EUCLIDEAN else 0.5
        assert MeanData(space, bd, tg, values, ok).alpha == ok
    with pytest.raises(ValueError, match=f"^{message}$"):
        MeanData(space, bd, tg, values, alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mean_data_checks_the_one_row_of_broadcast_means(bad):
    # a zero row stride holds one row for every centre: that row is checked
    bd = boundary_grid(E3, 16)
    tg = default_tgrid(E3, 64)
    row = np.zeros(tg.n)
    MeanData(E3, bd, tg, np.broadcast_to(row, (bd.m, tg.n)))
    row[40] = bad
    for values in (np.broadcast_to(row, (bd.m, tg.n)), np.tile(row, (bd.m, 1))):
        with pytest.raises(ValueError, match="^mean data contains non-finite values$"):
            MeanData(E3, bd, tg, values)


def test_mean_data_rows_are_the_distinct_rows():
    # one (1, N) view of the first row when every centre's row is equal, from
    # a zero row stride or by comparing dense rows; the values otherwise
    bd = boundary_grid(E3, 16)
    tg = default_tgrid(E3, 64)
    row = np.linspace(0.0, 1.0, tg.n)
    for values in (np.broadcast_to(row, (bd.m, tg.n)), np.tile(row, (bd.m, 1))):
        data = MeanData(E3, bd, tg, values)
        assert data.rows.shape == (1, tg.n) and np.shares_memory(data.rows, data.values)
        assert np.array_equal(data.rows[0], row)
    values = np.tile(row, (bd.m, 1))
    values[5, 3] = np.nextafter(values[5, 3], 1.0)
    rows = MeanData(E3, bd, tg, values).rows
    assert rows.shape == values.shape and np.shares_memory(rows, values)



def test_mean_data_checks_dense_values_without_a_copy():
    # finiteness from the values' min and max, and the last row against the
    # first for radial data: no (m, N) temporary, not even a bool mask
    import tracemalloc

    bd = boundary_grid(E3, 800)
    tg = default_tgrid(E3, 600)
    values = np.random.default_rng(2).standard_normal((bd.m, tg.n))
    tracemalloc.start()
    try:
        data = MeanData(E3, bd, tg, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.rows.shape == values.shape
    assert peak < 0.01 * values.nbytes

def _file_data(phantom, bd, tg):
    # plain means through a means file, as `geomeans invert` reads them
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "means.csv")
        cli.write_means(forward_means(phantom, bd, tg), path)
        return cli.read_means(path)


@pytest.mark.parametrize("source", ["forward", "trace", "file", "caller"])
@pytest.mark.parametrize("chart_c", [[0.0, 0.0, 0.0], [0.2, 0.1, -0.15]])
def test_mean_data_is_frozen_and_read_only(source, chart_c):
    # no field can be reassigned and neither values nor rows written into,
    # so rows cannot go stale; values is a view of the caller's array, which
    # stays writable
    bd = boundary_grid(E3, 16)
    tg = default_tgrid(E3, 64)
    ph = bump_at(E3, chart_c, 0.3)
    dense = np.array(forward_means(ph, bd, tg).values)
    data = {"forward": lambda: forward_means(ph, bd, tg),
            "trace": lambda: epd_trace_euclidean(ph, bd, tg, 0.5),
            "file": lambda: _file_data(ph, bd, tg),
            "caller": lambda: MeanData(E3, bd, tg, dense)}[source]()
    for name in ("values", "rows", "alpha"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, getattr(data, name))
    for array in (data.values, data.rows):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    if source == "caller":
        assert np.shares_memory(data.values, dense) and dense.flags.writeable
        dense[0, 0] = 1.0


@pytest.mark.parametrize("profile", ["exact", "sections"])
@pytest.mark.parametrize("space", [E3, S3, SpaceSpec(HYPERBOLIC, 3, 0.8)])
def test_centred_means_are_one_read_only_row(space, profile):
    # a phantom centred at the origin has the same means at every centre:
    # one row broadcast to all of them (row stride 0, no copy), read-only and
    # indexed as the tiled rows were, and the every-centre route's to
    # rounding: the sections rule turns with its centre, its pole toward the
    # origin, so even the coarse order-12 rule (up to 0.3 of max off the
    # exact profile) gives every centre the same row
    bd = boundary_grid(space, 64)
    tg = default_tgrid(space, 128)
    ph = bump_at(space, np.zeros(space.n), 0.3, 0.7)
    values = forward_means(ph, bd, tg, order=12, profile=profile).values
    assert values.shape == (bd.m, tg.n) and values.strides[0] == 0
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[1, 2] = 0.0
    assert np.array_equal(values, np.tile(values[0], (bd.m, 1)))
    every = (forward._exact_means_row(ph, bd.centers, tg) if profile == "exact"
             else forward._section_means(ph, space, bd.centers, tg, 12))
    assert np.max(np.abs(every - values)) <= 1e-13 * np.max(np.abs(values))


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


# largest gap between the half-angle and the phi rule, relative to max, on
# sections whose window is not grazing; measured 4.2e-14 (H^5), 2.9e-14
# (H^3), at most 1.6e-14 in R^n and on the cap, mostly the phi rule's rounding
PHI_RULE_GAP = 1e-13


def _half_angle_all_rows(space, center, part_center, scale, fn, tgrid, order):
    """Reference: the half-angle reduction evaluated on every t-row, with the
    window sigma_max^2 = sin_k((scale+rho)/2) sin_k((scale-rho)/2) / B clipped
    at 0 on the sections that miss the part's support; also returns
    sigma_max^2."""
    n = space.n
    t = tgrid.values
    if space.kind == EUCLIDEAN:
        r, d = t, float(np.linalg.norm(center - part_center))
        B = r * d
        half_dist = lambda q: np.sqrt(q)
    else:
        k = space.curvature
        a = float(spaces.pairing(space, center, part_center))
        r, d = space.arc_k(t), float(space.arc_k(a))
        B = np.sqrt(k * (1.0 - t ** 2)) * np.sqrt(k * (1.0 - a ** 2))
        half_dist = (lambda q: np.arcsin(np.sqrt(q))) if k > 0 else (lambda q: np.arcsinh(np.sqrt(q)))
    rho = np.abs(r - d)
    A = np.maximum(space.sin_k((scale + rho) / 2.0) * space.sin_k((scale - rho) / 2.0), 0.0)
    sm2 = A / B
    x, w = gauss_legendre(order, 0.0, 1.0)
    sigma = np.sqrt(sm2)[:, None] * x[None, :]
    D = 2.0 * half_dist(space.sin_k(rho / 2.0)[:, None] ** 2 + B[:, None] * sigma ** 2)
    vals = fn(D / scale) * sigma ** (n - 2) * (1.0 - sigma ** 2) ** ((n - 3) / 2.0)
    c_n = float(gamma(n / 2.0) / (np.sqrt(np.pi) * gamma((n - 1) / 2.0)))
    return c_n * 2.0 ** (n - 1) * np.sqrt(sm2) * (vals @ w), sm2


def _part_toward(space, center, chart_radius):
    """The point at `chart_radius` on the chart ray toward a boundary centre."""
    toward = spaces.chart(space, center) / np.linalg.norm(spaces.chart(space, center))
    return spaces.lift(space, chart_radius * toward)


def _tangent_scales(space, center, part, t):
    """Scales whose inner or outer tangent section sits on a grid node, 1e-12
    inside or outside the support, plus one generic scale."""
    to_t = {EUCLIDEAN: lambda r: r, SPHERE: np.cos, HYPERBOLIC: np.cosh}[space.kind]
    from_t = {EUCLIDEAN: lambda v: v, SPHERE: np.arccos, HYPERBOLIC: np.arccosh}[space.kind]
    d = float(spaces.geodesic_distance(space, center, part))
    inner = np.searchsorted(t, to_t(d - 0.2))
    outer = np.searchsorted(t, to_t(d + 0.2))
    scales = [0.17]
    for eps in (-1e-12, 1e-12):
        scales.append(abs(d - from_t(t[inner])) + eps)
        scales.append(abs(from_t(t[outer]) - d) + eps)
    return scales


# the bump vanishes to all orders at its edge; the hard-edged profile gives
# grazing sections a nonzero mean
def _hard_edge(s):
    return np.where(s < 1.0, 1.0 + s, 0.0)


SPACES = [E3, S2, S3, H2, SpaceSpec(HYPERBOLIC, 3, 0.8)]


# largest gap between the running integral of odd n and the half-angle rule,
# relative to max, on every live section of `_tangent_scales`; measured
# 3.6e-14 (E5, H5, bump) and 1.1e-14 (E3, S3, H3, bump), at most 2.9e-15
# for the hard-edged profile: mostly the half-angle rule's 64-node error on
# the bump
RUNNING_RULE_GAP = 8e-14


@pytest.mark.parametrize("space", SPACES + [SpaceSpec(EUCLIDEAN, 5, 1.0),
                                             SpaceSpec(HYPERBOLIC, 5, 0.8)])
def test_radial_part_skips_only_empty_rows(space):
    # rows whose section misses the support are skipped; the others match
    # the every-row half-angle formula, also where the section only grazes
    # the support: to rounding for even n, where the profile runs the same
    # rule, and to RUNNING_RULE_GAP for odd n. The profile is 0 where the
    # formula is 0, and 0 elsewhere only where the formula gives a denormal
    from geomeans.forward import _radial_part_profile
    from geomeans.phantoms import bump_profile

    center = boundary_grid(space, max(12, 2 ** space.n)).centers[3]
    part = _part_toward(space, center, 0.3)
    tg = default_tgrid(space, 128)
    grazing = 0
    for fn in (bump_profile, _hard_edge):
        for scale in _tangent_scales(space, center, part, tg.values):
            got = _radial_part_profile(space, center[None], part, scale, fn, tg,
                                       np.zeros((1, tg.n)))[0]
            ref, sm2 = _half_angle_all_rows(space, center, part, scale, fn, tg, 64)
            gap = RUNNING_RULE_GAP if space.n % 2 else 1e-14
            assert np.max(np.abs(got - ref)) <= gap * np.max(np.abs(ref))
            assert np.all(got[sm2 == 0.0] == 0.0)
            assert np.all(got[ref == 0.0] == 0.0)
            assert np.all(np.abs(ref[got == 0.0]) <= 1e-300)
            phi_max = 2.0 * np.arcsin(np.sqrt(sm2))
            grazing += int(np.count_nonzero((phi_max > 0) & (phi_max < 1e-4)))
    assert grazing > 0


@pytest.mark.parametrize("space", SPACES + [
    SpaceSpec(EUCLIDEAN, 4, 1.0), SpaceSpec(EUCLIDEAN, 5, 1.0),
    SpaceSpec(SPHERE, 4, 0.8), SpaceSpec(HYPERBOLIC, 5, 0.8)])
def test_half_angle_rule_matches_phi_rule(space):
    # the exact profile (the half-angle rule for even n, the running integral
    # for odd n) against the rule in the angle phi itself, on the sections
    # whose window is not grazing (phi_max >= 1e-2); n = 4, 5 check the
    # weight's powers of sigma and 1 - sigma^2 resp. its moments
    from geomeans.forward import _radial_part_profile
    from geomeans.phantoms import bump_profile

    center = boundary_grid(space, max(12, 2 ** space.n)).centers[3]
    part = _part_toward(space, center, 0.3)
    tg = default_tgrid(space, 128)
    for fn in (bump_profile, _hard_edge):
        for scale in _tangent_scales(space, center, part, tg.values):
            got = _radial_part_profile(space, center[None], part, scale, fn, tg,
                                       np.zeros((1, tg.n)))[0]
            ref, phi_max = _radial_part_profile_all_rows(space, center, part, scale, fn, tg, 64)
            wide = phi_max >= 1e-2
            assert np.max(np.abs(got - ref)[wide]) <= PHI_RULE_GAP * np.max(np.abs(ref))


def _mp_section_mean(mp, space, center, part_center, scale, profile, t):
    """One section mean of a radial part at 40 digits from the same float
    inputs: c_n times the integral of profile(D/scale) sin^{n-2} phi over the
    arc 0 < phi < phi_max inside the support, with D from the law of cosines."""
    mp.mp.dps = 40
    n, k = space.n, space.curvature
    c = [mp.mpf(float(v)) for v in center]
    p = [mp.mpf(float(v)) for v in part_center]
    t, s = mp.mpf(float(t)), mp.mpf(float(scale))
    if k == 0:
        d = mp.sqrt(sum((ci - pi) ** 2 for ci, pi in zip(c, p)))
        dist = lambda phi: mp.sqrt(t ** 2 + d ** 2 - 2 * t * d * mp.cos(phi))
        cos_edge = (t ** 2 + d ** 2 - s ** 2) / (2 * t * d)
    else:
        a = k * sum(ci * pi for ci, pi in zip(c[:-1], p[:-1])) + c[-1] * p[-1]
        B = mp.sqrt(k * (1 - t ** 2)) * mp.sqrt(k * (1 - a ** 2))
        arc, cos_s = (mp.acos, mp.cos(s)) if k > 0 else (mp.acosh, mp.cosh(s))
        dist = lambda phi: arc(t * a + k * B * mp.cos(phi))
        cos_edge = k * (cos_s - t * a) / B
    if cos_edge >= 1:
        return 0.0
    c_n = mp.gamma(mp.mpf(n) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
    integrand = lambda phi: profile(dist(phi) / s) * mp.sin(phi) ** (n - 2)
    return float(c_n * mp.quad(integrand, [0, mp.acos(cos_edge)]))


@pytest.mark.parametrize("space", SPACES + [SpaceSpec(EUCLIDEAN, 5, 1.0),
                                             SpaceSpec(HYPERBOLIC, 5, 0.8)])
def test_half_angle_rule_against_40_digit_means(space):
    # on grazing rows (0 < phi_max < 1e-4) the rounding of the inputs gives
    # the rules errors of order eps / phi_max^2 relative; on mid-window rows
    # the bump's 64-node quadrature error is about 1e-14 of max in the phi
    # and half-angle rules. The exact profile (the half-angle rule for even
    # n, the running integral for odd n) is no farther from the truth than
    # the phi rule, and for odd n than the half-angle rule, up to that floor
    mp = pytest.importorskip("mpmath")
    from geomeans.forward import _radial_part_profile
    from geomeans.phantoms import bump_profile

    profiles = [(bump_profile, lambda u: mp.exp(1 - 1 / (1 - u * u)) if u < 1 else mp.mpf(0)),
                (_hard_edge, lambda u: 1 + u)]
    center = boundary_grid(space, max(12, 2 ** space.n)).centers[3]
    part = _part_toward(space, center, 0.3)
    tg = default_tgrid(space, 128)
    grazing = 0
    for fn, profile in profiles:
        err_got = err_phi = err_sigma = 0.0
        for scale in _tangent_scales(space, center, part, tg.values):
            got = _radial_part_profile(space, center[None], part, scale, fn, tg,
                                       np.zeros((1, tg.n)))[0]
            phi_rule, phi_max = _radial_part_profile_all_rows(space, center, part, scale, fn, tg, 64)
            sigma_rule, _ = _half_angle_all_rows(space, center, part, scale, fn, tg, 64)
            live = np.flatnonzero(phi_max > 0)
            rows = np.concatenate([np.flatnonzero((phi_max > 0) & (phi_max < 1e-4)),
                                   live[[live.size // 3, live.size // 2]]])
            grazing += rows.size - 2
            truth = np.array([_mp_section_mean(mp, space, center, part, scale, profile, tg.values[j])
                              for j in rows])
            top = np.max(np.abs(phi_rule))
            err_got = max(err_got, np.max(np.abs(got[rows] - truth)) / top)
            err_phi = max(err_phi, np.max(np.abs(phi_rule[rows] - truth)) / top)
            err_sigma = max(err_sigma, np.max(np.abs(sigma_rule[rows] - truth)) / top)
        assert err_got <= max(err_phi, 2e-14)
        if space.n % 2:
            assert err_got <= max(err_sigma, 2e-14)
    assert grazing > 0


# gap between the half-angle rule on `_EXACT_ORDER` = 64 nodes and on 256
# nodes, relative to max, on 16 centres x 128 t of a two-bump phantom and of
# its Laplacian; measured bump 3.4e-15 (n = 2), 2.0e-14 (n = 4) and
# Laplacian 1.18e-10 (n = 2), 7.7e-10 (n = 4), the same levels as on 128 resp.
# 432 centres x 800 t
EVEN_RULE_GAP = {2: (1e-14, 2.5e-10), 4: (5e-14, 1.5e-9)}


@pytest.mark.parametrize("n", [2, 4])
def test_half_angle_rule_resolution_on_laplacian_profiles(n, monkeypatch):
    # the 64-node rule resolves bump profiles to rounding but the sharper
    # Laplacian profiles only to about 1e-10 of max; the lower bound keeps
    # the level stated in `forward_means` honest
    space = SpaceSpec(EUCLIDEAN, n, 1.0)
    c1, c2 = np.zeros(n), np.zeros(n)
    c1[:2], c2[:2] = [0.2, -0.1], [-0.25, 0.15]
    ph = Phantom(space, (Bump(c1, 0.32, 1.0), Bump(c2, 0.2, 0.6)))
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 128)
    bump_gap, lap_gap = EVEN_RULE_GAP[n]
    for field, lo, hi in ((ph, 0.0, bump_gap), (laplacian_field(ph), 1e-11, lap_gap)):
        rule64 = forward_means(field, bd, tg).values
        with monkeypatch.context() as patch:
            patch.setattr(forward, "_EXACT_ORDER", 256)
            rule256 = forward_means(field, bd, tg).values
        gap = np.max(np.abs(rule64 - rule256)) / np.max(np.abs(rule256))
        assert lo <= gap <= hi


@pytest.mark.parametrize("space", [E3, S3, H2, SpaceSpec(HYPERBOLIC, 3, 0.8),
                                   SpaceSpec(EUCLIDEAN, 5, 1.0)])
def test_exact_means_over_all_centres_match_per_centre_calls(space):
    # all centres in one call, in blocks of centres and of sections, give the
    # rows of one call per centre
    from geomeans.forward import _exact_means_row

    bd = boundary_grid(space, 200)
    toward = spaces.chart(space, bd.centers[7]) / np.linalg.norm(spaces.chart(space, bd.centers[7]))
    ph = Phantom(space, (Bump(spaces.lift(space, 0.3 * toward), 0.2, 1.0),
                         Bump(spaces.lift(space, -0.2 * toward), 0.15, -0.5)))
    tg = default_tgrid(space, 128)
    together = forward_means(ph, bd, tg).values
    apart = np.concatenate([_exact_means_row(ph, c[None], tg) for c in bd.centers])
    assert bd.m * tg.n > 2 * forward._EXACT_BLOCK_CELLS
    assert np.max(np.abs(together - apart)) <= 1e-15 * np.max(np.abs(together))


def test_exact_means_skip_blocks_that_miss_the_support(monkeypatch):
    # on t in (0.3, 1) the sections of the centres far from a bump at
    # (0.5, 0, 0) all miss it; with one centre per block of cells, each such
    # block is skipped and keeps its zero row, and the others match one block
    bd = boundary_grid(E3, 64)
    ph = bump_at(E3, [0.5, 0.0, 0.0], 0.2)
    tg = TGrid(np.linspace(0.3, 1.0, 64))
    together = forward_means(ph, bd, tg).values
    monkeypatch.setattr(forward, "_EXACT_BLOCK_CELLS", tg.n)
    apart = forward_means(ph, bd, tg).values
    missed = ~np.any(together, axis=1)
    assert 0 < np.count_nonzero(missed) < bd.m
    assert np.all(apart[missed] == 0.0)
    assert np.max(np.abs(apart - together)) <= 1e-15 * np.max(np.abs(together))


def test_forward_means_rejects_bad_arguments():
    ph = bump_at(E3, [0.2, 0.1, 0.0], 0.3)
    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 64)
    with pytest.raises(TypeError, match="^forward_means needs a Phantom or RadialField$"):
        forward_means(lambda points: ph(points), bd, tg)
    with pytest.raises(ValueError, match="^phantom and boundary grid live in different spaces$"):
        forward_means(ph, boundary_grid(SpaceSpec(EUCLIDEAN, 3, 1.2), 60), tg)
    with pytest.raises(ValueError, match="^profile must be 'exact' or 'sections'$"):
        forward_means(ph, bd, tg, profile="midpoint")


@pytest.mark.parametrize("profile", ["exact", "sections"])
@pytest.mark.parametrize("space", [E3, S2, SpaceSpec(HYPERBOLIC, 3, 0.8)])
def test_phantom_means_equal_those_of_its_radial_field(space, profile):
    # a phantom is the radial field of its bumps: both give the same rows
    # bit for bit, off centre and on the centred shortcut
    from geomeans.phantoms import RadialField

    bd = boundary_grid(space, 12)
    toward = spaces.chart(space, bd.centers[3]) / np.linalg.norm(spaces.chart(space, bd.centers[3]))
    tg = default_tgrid(space, 128)
    for ph in (Phantom(space, (Bump(spaces.lift(space, 0.3 * toward), 0.2, 1.0),
                               Bump(spaces.lift(space, -0.2 * toward), 0.15, -0.5))),
               bump_at(space, np.zeros(space.n), 0.3, 0.7)):
        got = forward_means(ph, bd, tg, order=12, profile=profile).values
        ref = forward_means(RadialField(space, ph.parts), bd, tg, order=12, profile=profile).values
        assert np.count_nonzero(got) > 0
        assert np.array_equal(got, ref)


def test_exact_means_reject_a_part_around_a_boundary_centre():
    from geomeans.phantoms import RadialField, bump_profile

    bd = boundary_grid(E3, 60)
    tg = default_tgrid(E3, 64)
    inside = RadialField(E3, ((np.zeros(3), 0.2, bump_profile),
                              (0.9 * bd.centers[5], 0.3, bump_profile)))
    with pytest.raises(ValueError, match="with scale 0.3 contains a boundary centre"):
        forward_means(inside, bd, tg)


@pytest.mark.parametrize("space", SPACES)
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


@pytest.mark.parametrize("space", [E3, S3, H2])
def test_sections_in_blocks_match_per_centre_calls(space):
    # the sections route over all centres, in blocks of sections and, at
    # order 72 on S^2, in chunks of the rule's nodes, gives the rows of one
    # call per centre
    from geomeans.forward import _SECTION_BLOCK_NODES, forward_field_profile

    bd = boundary_grid(space, 12)
    toward = spaces.chart(space, bd.centers[3]) / np.linalg.norm(spaces.chart(space, bd.centers[3]))
    ph = Phantom(space, (Bump(spaces.lift(space, 0.3 * toward), 0.2, 1.0),
                         Bump(spaces.lift(space, -0.2 * toward), 0.15, -0.5)))
    tg = default_tgrid(space, 128)
    for order in ((12, 72) if space.n == 3 else (96, 256)):
        nodes = spaces.unit_sphere_rule(space.n - 1, order)[1].size
        together = forward_means(ph, bd, tg, order=order, profile="sections").values
        apart = np.stack([forward_field_profile(ph, space, c, tg, order) for c in bd.centers])
        assert np.count_nonzero(together) * nodes > 2 * _SECTION_BLOCK_NODES
        assert np.max(np.abs(together - apart)) <= 1e-15 * np.max(np.abs(together))
    assert space.n == 2 or nodes > _SECTION_BLOCK_NODES


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
    with pytest.raises(ValueError, match=r"alpha must be >= \(1-n\)/2"):
        epd_trace_euclidean(ph, bd, tg, -1.5)
    with pytest.raises(ValueError, match="alpha must be finite"):
        epd_trace_euclidean(ph, bd, tg, float("nan"))


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
    with pytest.raises(ValueError, match="cap traces are generated with alpha > 0"):
        epd_trace_sphere(ph, bd, tg, -0.5)
    with pytest.raises(ValueError, match="alpha must be finite"):
        epd_trace_sphere(ph, bd, tg, float("inf"))


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


@pytest.mark.parametrize("space,alpha", [
    (E3, -1.0), (E3, 0.0), (E3, 0.5), (E3, 1.0), (E3, 2.0),
    (S3, 0.5), (S3, 1.0), (S3, 2.0),
])
def test_centred_traces_weight_one_row(monkeypatch, space, alpha):
    # a centred phantom's trace weights its one distinct means row and stays
    # one zero-stride row; the every-row route weights all m identical rows.
    # R^3's integer orders work row by row, so the two agree to the byte; a
    # fractional order's matrix product takes a vector product on the one
    # row, and the two agree to rounding
    bd = boundary_grid(space, 64)
    tg = default_tgrid(space, 128)
    ph = bump_at(space, np.zeros(space.n), 0.3, 0.7)
    generate = epd_trace_euclidean if space.kind == EUCLIDEAN else epd_trace_sphere
    weighted = []
    with monkeypatch.context() as mp:
        for name in ("ek_matrix", "ek_ac_matrix", "rl_matrix"):
            op = getattr(forward, name)
            mp.setattr(forward, name, lambda samples, *a, op=op, **k:
                       weighted.append(np.shape(samples)) or op(samples, *a, **k))
        trace = generate(ph, bd, tg, alpha)
    assert weighted and all(shape == (1, tg.n) for shape in weighted)
    assert trace.rows.shape == (1, tg.n) and trace.values.strides[0] == 0
    means = np.array(forward_means(ph, bd, tg).values)
    every = trace_weighting(space, tg, means, space.n / 2.0 - 1.0, alpha)
    if space.kind == EUCLIDEAN and float(alpha).is_integer():
        assert np.array_equal(trace.values, every)
    else:
        assert np.max(np.abs(trace.values - every)) <= 1e-14 * np.max(np.abs(every))
    # the dense copy of the trace has one distinct row too, which invert reads
    x = inversion.chart_box_grid(space, np.zeros(space.n), 0.3, 3, ball_radius=0.3)
    dense = MeanData(space, bd, tg, np.array(trace.values), alpha)
    assert np.array_equal(inversion.invert(trace, x), inversion.invert(dense, x))


# Reference routes for `trace_weighting`: the formulas by which the two trace
# generators weighted the means and by which the inversion undid a trace of
# order alpha, each with its own Gamma ratio, (1 - t^2) powers and EK sign
# dispatch, at eta = n/2 - 1.

def _trace_reference(space, grid, means, alpha):
    n, t = space.n, grid.values
    if space.kind == EUCLIDEAN:
        if alpha == 0:
            return means
        eta = n / 2.0 - 1.0
        u = (ek_matrix if alpha > 0 else ek_ac_matrix)(means, grid, eta, alpha)
        u *= math.gamma(alpha + n / 2.0) / math.gamma(n / 2.0)
        return u
    G = rl_matrix(means * (1.0 - t ** 2) ** (n / 2.0 - 1.0), grid, alpha)
    return 2.0 ** alpha * math.gamma(alpha + n / 2.0) / math.gamma(n / 2.0) \
        * (1.0 - t ** 2) ** (1.0 - alpha - n / 2.0) * G


def _untrace_reference(space, grid, values, alpha):
    n, t = space.n, grid.values
    if space.kind == EUCLIDEAN:
        eta = n / 2.0 - 1.0
        if alpha >= 0:
            phi = ek_ac_matrix(values, grid, eta + alpha, -alpha)
        else:
            phi = ek_matrix(values, grid, eta + alpha, -alpha)
        phi *= math.gamma(n / 2.0) / math.gamma(alpha + n / 2.0)
        return phi
    G = values * (1.0 - t ** 2) ** (alpha - 1.0 + n / 2.0) \
        * math.gamma(n / 2.0) / (2.0 ** alpha * math.gamma(alpha + n / 2.0))
    return rl_matrix(G, grid, -alpha) * (1.0 - t ** 2) ** (1.0 - n / 2.0)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.5])
def test_trace_weighting_matches_the_euclidean_reference(alpha):
    ph = bump_at(E3, [0.2, 0.1, -0.15], 0.32)
    bd = boundary_grid(E3, 8)
    tg = default_tgrid(E3, 300)
    means = forward_means(ph, bd, tg).values
    trace = _trace_reference(E3, tg, means, alpha)
    assert np.array_equal(trace_weighting(E3, tg, means, 0.5, alpha), trace)
    assert np.array_equal(trace_weighting(E3, tg, trace, 0.5 + alpha, -alpha),
                          _untrace_reference(E3, tg, trace, alpha))
    assert np.array_equal(epd_trace_euclidean(ph, bd, tg, alpha).values, trace)


# On the cap the reference undid a trace with its constant applied before the
# order -alpha RL continuation, and `trace_weighting` applies it after. The
# continuation differentiates the rows, so the one-ulp move in the weighted
# rows grows with the order: measured 3.3e-12 (alpha = 0.5), 5.6e-13 (1) and
# 6.4e-9 (1.5) of max on this grid. Generating a trace applies the constant
# after the RL integral on both routes and matches bit for bit.
@pytest.mark.parametrize("alpha,tol", [(0.5, 1e-11), (1.0, 1e-11), (1.5, 2e-8)])
def test_trace_weighting_matches_the_cap_reference(alpha, tol):
    # configs/epd_sphere3.json's phantom and t-grid
    ph = bump_at(S3, [0.12, -0.08, 0.10], 0.22)
    bd = boundary_grid(S3, 8)
    tg = default_tgrid(S3, 600)
    means = forward_means(ph, bd, tg).values
    trace = _trace_reference(S3, tg, means, alpha)
    assert np.array_equal(trace_weighting(S3, tg, means, 0.5, alpha), trace)
    assert np.array_equal(epd_trace_sphere(ph, bd, tg, alpha).values, trace)
    ref = _untrace_reference(S3, tg, trace, alpha)
    back = trace_weighting(S3, tg, trace, 0.5 + alpha, -alpha)
    assert np.max(np.abs(back - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("space,centre,alpha", [
    (E3, 1.0, -1.0), (E3, 1.0, -0.5), (E3, 1.0, 0.5), (E3, 1.0, 1.5),
    (SpaceSpec(EUCLIDEAN, 2, 1.0), 1.0, 1.5),
    (S3, 0.0, 0.5), (S3, 0.0, 1.0), (S3, 0.0, 1.5),
])
def test_trace_weighting_index_law_round_trip(space, centre, alpha):
    # T_{eta+alpha,-alpha} T_{eta,alpha} = I on a bump profile of width 0.5,
    # up to the continuation's 4th-order differences on 1200 nodes: measured
    # at most 8.6e-4 (cap, alpha = 1.5)
    tg = default_tgrid(space, 1200)
    s = (tg.values - centre) / 0.5
    bump = np.where(np.abs(s) < 1, np.exp(1 - 1 / np.maximum(1 - s ** 2, 1e-300)), 0.0)[None]
    eta = space.n / 2.0 - 1.0
    back = trace_weighting(space, tg, trace_weighting(space, tg, bump, eta, alpha),
                           eta + alpha, -alpha)
    assert np.max(np.abs(back - bump)) <= 2e-3
