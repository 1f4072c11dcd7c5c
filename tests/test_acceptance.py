"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS line with the measured figure.

Criteria 1-9 and 14 are the entries of `geomeans.checks.CHECKS`, which
`geomeans verify` prints as well; the round-trip criteria 10-13 and 15
live here. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; grids here are the documented defaults for each
configuration.
"""

import json
import time
from pathlib import Path

import numpy as np

from geomeans import checks, spaces
from geomeans.cli import _forward_data, _recon_points, parse_config
from geomeans.forward import (
    default_tgrid,
    epd_trace_euclidean,
    epd_trace_sphere,
    forward_means,
)
from geomeans.inversion import chart_box_grid, invert, make_report
from geomeans.phantoms import Bump, Phantom
from geomeans.spaces import EUCLIDEAN, HYPERBOLIC, SPHERE, SpaceSpec, boundary_grid


def bump_at(space, chart_center, radius, amp=1.0):
    center = spaces.lift(space, np.asarray(chart_center, dtype=float))
    return Phantom(space, (Bump(center, radius, amp),))


def report_line(name, value, bound):
    print(checks.Figure(name, value, "<=", bound).line())


def roundtrip(space, chart_center, radius, m, n_t, ball, ppa, alpha=None,
              method="direct"):
    ph = bump_at(space, chart_center, radius)
    bd = boundary_grid(space, m)
    tg = default_tgrid(space, n_t)
    if alpha is None:
        data = forward_means(ph, bd, tg)
    elif space.kind == EUCLIDEAN:
        data = epd_trace_euclidean(ph, bd, tg, alpha)
    else:
        data = epd_trace_sphere(ph, bd, tg, alpha)
    pts = chart_box_grid(space, np.asarray(chart_center, dtype=float), ball, ppa,
                         ball_radius=ball)
    rec = invert(data, pts, method=method)
    return make_report(pts, ph(pts), rec, method), ph, data, pts


def registry_test(check):
    """Test of one registry criterion: every figure within its bound, and
    the whole criterion within its time limit."""

    def test():
        start = time.perf_counter()
        figures = check.figures()
        for figure in figures:
            print(figure.line())
        assert all(figure.passed for figure in figures)
        assert time.perf_counter() - start < check.time_limit

    test.__name__ = f"test_criterion_{check.number:02d}_{check.name}"
    return test


# one test function per registry entry, named as the criterion's test has
# always been named, so that test ids stay stable across versions
for _test in map(registry_test, checks.CHECKS):
    globals()[_test.__name__] = _test


def test_criterion_10_euclidean_roundtrips():
    start = time.perf_counter()
    rep2, *_ = roundtrip(SpaceSpec(EUCLIDEAN, 2, 1.0), [0.25, 0.1], 0.30,
                         m=128, n_t=800, ball=0.42, ppa=13)
    report_line("10. euclidean n=2 round trip (relL2)", rep2.rel_l2, 0.03)
    assert rep2.rel_l2 <= 0.03
    rep3, *_ = roundtrip(SpaceSpec(EUCLIDEAN, 3, 1.0), [0.2, 0.1, -0.15], 0.32,
                         m=800, n_t=800, ball=0.42, ppa=9)
    report_line("10. euclidean n=3 round trip (relL2)", rep3.rel_l2, 0.03)
    assert rep3.rel_l2 <= 0.03
    rep4, *_ = roundtrip(SpaceSpec(EUCLIDEAN, 4, 1.0), [0.0] * 4, 0.35,
                         m=4000, n_t=500, ball=0.45, ppa=7)
    report_line("10. euclidean n=4 round trip (relL2)", rep4.rel_l2, 0.05)
    assert rep4.rel_l2 <= 0.05
    rep5, *_ = roundtrip(SpaceSpec(EUCLIDEAN, 5, 1.0), [0.0] * 5, 0.45,
                         m=30000, n_t=800, ball=0.50, ppa=7)
    report_line("10. euclidean n=5 round trip (relL2)", rep5.rel_l2, 0.05)
    assert rep5.rel_l2 <= 0.05
    print(f"[acceptance] 10. total runtime {time.perf_counter() - start:.1f}s")


def test_criterion_10_offcentre_n4_roundtrip():
    # configs/euclid4.json with its bump moved off the centre, the config's
    # grids kept: every centre has its own row, so the general n = 4 path
    # runs (one log-table row per centre), which the centred configs skip.
    # Measured rel_l2 2.097e-2
    start = time.perf_counter()
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "euclid4.json").read_text())
    raw["phantom"][0]["center"] = [0.2, -0.1, 0.1, 0.05]
    cfg = parse_config(raw)
    pts = _recon_points(cfg)
    rec = invert(_forward_data(cfg), pts, method=cfg["method"])
    rep = make_report(pts, cfg["phantom"](pts), rec, cfg["method"])
    report_line("10. off-centre euclidean n=4 round trip (relL2)", rep.rel_l2, 0.03)
    assert rep.rel_l2 <= 0.03
    print(f"[acceptance] 10. off-centre n=4 runtime {time.perf_counter() - start:.1f}s")


def test_criterion_11_modified_formulas():
    start = time.perf_counter()
    for n, center, rb, m in ((2, [0.25, 0.1], 0.30, 128), (3, [0.2, 0.1, -0.15], 0.32, 800)):
        space = SpaceSpec(EUCLIDEAN, n, 1.0)
        ph = bump_at(space, center, rb)
        bd = boundary_grid(space, m)
        tg = default_tgrid(space)
        data = forward_means(ph, bd, tg)
        pts = chart_box_grid(space, np.asarray(center, dtype=float), 0.42, 9,
                             ball_radius=0.42)
        direct = invert(data, pts, method="direct")
        modified = invert(data, pts, method="modified")
        rel = float(np.linalg.norm(direct - modified) / np.linalg.norm(direct))
        report_line(f"11. direct vs modified n={n} (relL2)", rel, 0.02)
        assert rel <= 0.02
    assert time.perf_counter() - start < 300.0


def test_criterion_12_curved_roundtrips():
    start = time.perf_counter()
    cases = [
        ("sphere n=2", SpaceSpec(SPHERE, 2, 0.8), [0.15, -0.10], 0.22, 128, 600, 0.30, 13),
        ("sphere n=3", SpaceSpec(SPHERE, 3, 0.8), [0.12, -0.08, 0.10], 0.22, 800, 600, 0.28, 9),
        ("hyperbolic n=2", SpaceSpec(HYPERBOLIC, 2, 0.8), [0.18, -0.12], 0.22, 128, 600, 0.32, 13),
        ("hyperbolic n=3", SpaceSpec(HYPERBOLIC, 3, 0.8), [0.15, -0.10, 0.08], 0.22, 800, 600, 0.30, 9),
    ]
    for name, spec, center, rb, m, n_t, ball, ppa in cases:
        rep, *_ = roundtrip(spec, center, rb, m=m, n_t=n_t, ball=ball, ppa=ppa)
        report_line(f"12. {name} round trip (relL2)", rep.rel_l2, 0.05)
        cal_gap = abs(rep.calibration - 1.0)
        report_line(f"12. {name} calibration gap", cal_gap, 0.03)
        assert rep.rel_l2 <= 0.05
        assert cal_gap <= 0.03
    print(f"[acceptance] 12. total runtime {time.perf_counter() - start:.1f}s")


def test_criterion_13_trace_roundtrips():
    start = time.perf_counter()
    for alpha in (1.0, 2.0, -1.0):
        rep, *_ = roundtrip(SpaceSpec(EUCLIDEAN, 3, 1.0), [0.2, 0.1, -0.15], 0.32,
                            m=800, n_t=800, ball=0.42, ppa=9, alpha=alpha)
        report_line(f"13. trace round trip n=3 a={alpha:+.0f} (relL2)", rep.rel_l2, 0.05)
        assert rep.rel_l2 <= 0.05
    rep, *_ = roundtrip(SpaceSpec(SPHERE, 3, 0.8), [0.12, -0.08, 0.10], 0.22,
                        m=800, n_t=600, ball=0.28, ppa=9, alpha=1.0)
    report_line("13. cap trace round trip a=+1 (relL2)", rep.rel_l2, 0.05)
    assert rep.rel_l2 <= 0.05
    print(f"[acceptance] 13. total runtime {time.perf_counter() - start:.1f}s")


def test_criterion_15_convergence_monotonicity():
    start = time.perf_counter()
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    ph = bump_at(space, [0.25, 0.1], 0.30)
    bd = boundary_grid(space, 96)
    pts = chart_box_grid(space, np.array([0.25, 0.1]), 0.42, 9, ball_radius=0.42)
    errors = []
    for order, n_t in ((8, 400), (16, 800)):
        tg = default_tgrid(space, n_t)
        data = forward_means(ph, bd, tg, order=order, profile="sections")
        rec = invert(data, pts)
        errors.append(make_report(pts, ph(pts), rec, "direct").rel_l2)
    ratio = errors[0] / errors[1]
    status = "PASS" if ratio >= 1.5 else "FAIL"
    print(f"[acceptance] 15. refinement error ratio {ratio:.2f} >= 1.5  {status}")
    assert ratio >= 1.5
    print(f"[acceptance] 15. total runtime {time.perf_counter() - start:.1f}s")
