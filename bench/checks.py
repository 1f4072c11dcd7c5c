"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls geomeans: the phantom is evaluated from its definition,
amplitude * exp(1 - 1/(1 - s^2)) with s = geodesic distance / radius, and
Euclidean sphere means come from tensor-product rules on the unit sphere
in fixed coordinates, not from the program's azimuthal reduction.
"""

from __future__ import annotations

import json

import numpy as np

# acceptance bounds shared by every case
CALIBRATION_GAP = 0.03
# the report's f_true column and footer against the reference evaluation
REPORT_TOL = 1e-10
# program means against the reference quadrature; means are at most the
# amplitude 1, and the reference rules are good to about 1e-7 (n=4)
MEANS_TOL = 1e-6


def lift(kind: str, chart: np.ndarray) -> np.ndarray:
    """Chart coordinates to ambient points: R^n, the unit sphere, the hyperboloid."""
    chart = np.asarray(chart, dtype=float)
    if kind == "euclidean":
        return chart
    r2 = (chart ** 2).sum(axis=-1, keepdims=True)
    last = np.sqrt(1.0 - r2) if kind == "sphere" else np.sqrt(1.0 + r2)
    return np.concatenate([chart, last], axis=-1)


def phantom(kind: str, points: np.ndarray, bumps: list) -> np.ndarray:
    """Sum of bumps at ambient points (..., dim); bump centres in chart coordinates."""
    points = np.asarray(points, dtype=float)
    total = np.zeros(points.shape[:-1])
    for b in bumps:
        c = lift(kind, b["center"])
        if kind == "euclidean":
            d = np.linalg.norm(points - c, axis=-1)
        elif kind == "sphere":
            d = np.arccos(np.clip(points @ c, -1.0, 1.0))
        else:
            form = points[..., -1] * c[-1] - points[..., :-1] @ c[:-1]
            d = np.arccosh(np.maximum(form, 1.0))
        s = d / b["geodesic_radius"]
        inside = np.abs(s) < 1.0
        total[inside] += b["amplitude"] * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return total


def read_report(path: str):
    """(chart points, f_true, f_rec, footer) of a report CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[-1].startswith("# "):
        raise ValueError("report has no footer")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    n = len(lines[0].split(",")) - 2
    return rows[:, :n], rows[:, n], rows[:, n + 1], json.loads(lines[-1][2:])


def check_report(path: str, kind: str, bumps: list, bound: float) -> tuple[float, list]:
    """Relative L2 error of the reconstruction and the list of checks it misses."""
    chart, f_true, f_rec, footer = read_report(path)
    ref = phantom(kind, lift(kind, chart), bumps)
    rel = float(np.linalg.norm(f_rec - ref) / np.linalg.norm(ref))
    cal = float(f_rec @ ref / (ref @ ref))
    misses = []
    if not rel <= bound:
        misses.append(f"rel_l2 {rel:.4g} > {bound}")
    if not abs(cal - 1.0) <= CALIBRATION_GAP:
        misses.append(f"calibration {cal:.4g} off by more than {CALIBRATION_GAP}")
    if not np.max(np.abs(f_true - ref)) <= REPORT_TOL:
        misses.append("report f_true differs from the phantom")
    if not abs(float(footer["rel_l2"]) - rel) <= REPORT_TOL:
        misses.append(f"footer rel_l2 {footer['rel_l2']} differs from {rel!r}")
    return rel, misses


def _sphere_rule(n: int):
    """Directions and weights (summing to 1) of a rule on the unit sphere S^{n-1}.

    n=2: trapezoid in the angle. n=3: Gauss-Legendre in z times trapezoid in
    the azimuth (Archimedes). n=4: Hopf coordinates, where u = sin^2(eta) is
    uniformly distributed, Gauss-Legendre in u times two trapezoids.
    Yields blocks so that no block holds more than a few 10^5 directions.
    """
    if n == 2:
        phi = 2.0 * np.pi * np.arange(8192) / 8192
        yield np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(phi.size, 1.0 / phi.size)
    elif n == 3:
        z, wz = np.polynomial.legendre.leggauss(256)
        phi = 2.0 * np.pi * np.arange(512) / 512
        rho = np.sqrt(1.0 - z ** 2)
        dirs = np.stack([np.outer(rho, np.cos(phi)), np.outer(rho, np.sin(phi)),
                         np.repeat(z[:, None], phi.size, axis=1)], axis=-1)
        yield dirs.reshape(-1, 3), np.repeat(wz / 2.0 / phi.size, phi.size)
    elif n == 4:
        x, wx = np.polynomial.legendre.leggauss(64)
        u, wu = 0.5 * (1.0 + x), 0.5 * wx
        phi = 2.0 * np.pi * np.arange(128) / 128
        c1, s1 = np.cos(phi), np.sin(phi)
        a = np.stack([np.outer(c1, np.ones_like(c1)).ravel(),
                      np.outer(s1, np.ones_like(s1)).ravel()], axis=1)
        b = np.stack([np.outer(np.ones_like(c1), c1).ravel(),
                      np.outer(np.ones_like(s1), s1).ravel()], axis=1)
        for ui, wi in zip(u, wu):
            dirs = np.concatenate([np.sqrt(1.0 - ui) * a, np.sqrt(ui) * b], axis=1)
            yield dirs, np.full(dirs.shape[0], wi / phi.size ** 2)
    else:
        raise ValueError(f"no reference sphere rule for n={n}")


def sphere_mean(centre, t: float, bumps: list) -> float:
    """Mean of the phantom over the Euclidean sphere |y - centre| = t."""
    centre = np.asarray(centre, dtype=float)
    return float(sum(phantom("euclidean", centre + t * dirs, bumps) @ w
                     for dirs, w in _sphere_rule(centre.size)))


def check_probes(probes: list, bumps: list) -> list:
    """Misses of the program's means against the reference quadrature."""
    misses = []
    for p in probes:
        ref = sphere_mean(p["centre"], p["t"], bumps)
        if not abs(p["mean"] - ref) <= MEANS_TOL:
            misses.append(f"mean at t={p['t']:.4f} is {p['mean']!r}, reference {ref!r}")
    return misses
