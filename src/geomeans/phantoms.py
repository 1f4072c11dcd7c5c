"""Smooth compactly supported ground-truth phantoms.

A phantom is a sum of C-infinity bumps amplitude * w(dist/r) with
w(s) = exp(1 - 1/(1 - s^2)) inside the unit interval and 0 outside, so
evaluation is closed-form at any point and the support stays strictly
inside the ball/cap with a margin. A phantom is a RadialField whose parts
are its bumps, so it is evaluated and forward-transformed as one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import spaces
from .spaces import SpaceSpec

__all__ = ["Bump", "Phantom", "RadialField", "bump_profile", "bump_profile_d1", "bump_profile_d2"]

MARGIN_FRACTION = 0.05

_TINY = np.finfo(float).tiny


def bump_profile(s: np.ndarray) -> np.ndarray:
    """w(s) = exp(1 - 1/(1-s^2)) for |s| < 1, else 0; w(0) = 1."""
    s = np.asarray(s, dtype=float)
    # 1 - s^2 is at least 2^-52 for |s| < 1 and passes unchanged; for |s| >= 1
    # the smallest normal float makes the exponent -4.5e307, so exp gives
    # exactly 0 with no gather, scatter or mask
    return np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, _TINY))


def bump_profile_d1(s: np.ndarray) -> np.ndarray:
    """First derivative of the bump profile."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * si / q ** 2)
    return out


def bump_profile_d2(s: np.ndarray) -> np.ndarray:
    """Second derivative of the bump profile."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    w = np.exp(1.0 - 1.0 / q)
    # d/ds [-2s/q^2 * w] = w * (4s^2/q^4 - 2/q^2 - 8s^2/q^3)
    out[inside] = w * (4.0 * si ** 2 / q ** 4 - 2.0 / q ** 2 - 8.0 * si ** 2 / q ** 3)
    return out


@dataclass(frozen=True)
class Bump:
    center: np.ndarray
    geodesic_radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.geodesic_radius > 0:
            raise ValueError("bump radius must be positive")


@dataclass(frozen=True)
class RadialField:
    """Sum of radial parts g(dist(., center)/scale) with compact unit support.

    The radial structure admits closed-form azimuthal reduction of section
    means, so forward transforms of such fields avoid generic sphere
    quadrature entirely. Each part is (center, scale, profile) with the
    profile vanishing for arguments >= 1.
    """

    space: SpaceSpec
    parts: tuple[tuple[np.ndarray, float, object], ...]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ambient points (…, dim)."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for center, scale, fn in self.parts:
            d = spaces.geodesic_distance(self.space, points, center)
            out += fn(d / scale)
        return out


@dataclass(frozen=True)
class Phantom(RadialField):
    """A radial field whose parts are its bumps: each bump is the part
    (center, geodesic_radius, amplitude * bump_profile)."""

    parts: tuple = field(init=False, repr=False, compare=False)
    bumps: tuple[Bump, ...]

    def __post_init__(self):
        if not self.bumps:
            raise ValueError("phantom needs at least one bump")
        object.__setattr__(self, "bumps", tuple(self.bumps))
        for b in self.bumps:
            spaces.validate_point(self.space, b.center)
        if self.support_margin() <= 0:
            raise ValueError("phantom support touches or crosses the boundary")
        object.__setattr__(self, "parts", tuple(
            (b.center, b.geodesic_radius, partial(_scaled_bump, b.amplitude))
            for b in self.bumps))

    def support_margin(self) -> float:
        """min over bumps of radius - dist(center, origin) - bump radius."""
        o = spaces.origin(self.space)
        margins = [
            self.space.radius - float(spaces.geodesic_distance(self.space, b.center, o)) - b.geodesic_radius
            for b in self.bumps
        ]
        return min(margins)


def validate_margin(phantom: Phantom) -> None:
    """Enforce the default support margin of 5% of the ball radius."""
    if phantom.support_margin() < MARGIN_FRACTION * phantom.space.radius:
        raise ValueError(
            f"phantom margin {phantom.support_margin():.4g} below "
            f"{MARGIN_FRACTION:.0%} of the radius"
        )


def laplacian_field(phantom: Phantom) -> RadialField:
    """Closed-form Laplacian of a Euclidean phantom as a radial field."""
    if phantom.space.kind != spaces.EUCLIDEAN:
        raise ValueError("closed-form Laplacian only implemented for Euclidean phantoms")
    n = phantom.space.n

    def lap_profile(radius: float, amplitude: float):
        def fn(s: np.ndarray) -> np.ndarray:
            s = np.asarray(s, dtype=float)
            term = bump_profile_d2(s)
            nz = np.abs(s) > 1e-14
            rad = np.empty_like(s)
            rad[nz] = bump_profile_d1(s[nz]) / s[nz]
            rad[~nz] = bump_profile_d2(np.zeros(np.count_nonzero(~nz)))
            return amplitude * (term + (n - 1) * rad) / radius ** 2

        return fn

    parts = tuple(
        (b.center, b.geodesic_radius, lap_profile(b.geodesic_radius, b.amplitude))
        for b in phantom.bumps
    )
    return RadialField(phantom.space, parts)


def _scaled_bump(amplitude: float, s: np.ndarray) -> np.ndarray:
    """amplitude * bump_profile(s); bound to an amplitude by `partial`, it
    keeps a phantom's parts picklable."""
    return amplitude * bump_profile(s)
