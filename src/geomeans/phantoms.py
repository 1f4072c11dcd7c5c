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

__all__ = ["Bump", "Phantom", "RadialField", "bump_profile", "laplacian_field"]

MARGIN_FRACTION = 0.05

_TINY = np.finfo(float).tiny


def bump_profile(s: np.ndarray) -> np.ndarray:
    """w(s) = exp(1 - 1/(1-s^2)) for |s| < 1, else 0; w(0) = 1."""
    s = np.asarray(s, dtype=float)
    # 1 - s^2 is at least 2^-52 for |s| < 1 and passes unchanged; for |s| >= 1
    # the smallest normal float makes the exponent -4.5e307, so exp gives
    # exactly 0 with no gather, scatter or mask
    return np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, _TINY))


@dataclass(frozen=True, eq=False)
class Bump:
    center: np.ndarray
    geodesic_radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.geodesic_radius > 0:
            raise ValueError("bump radius must be positive")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Phantom(RadialField):
    """A radial field whose parts are its bumps: each bump is the part
    (center, geodesic_radius, amplitude * bump_profile)."""

    parts: tuple = field(init=False, repr=False)
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
    parts = tuple(
        (b.center, b.geodesic_radius,
         partial(_bump_laplacian, phantom.space.n, b.amplitude / b.geodesic_radius ** 2))
        for b in phantom.bumps
    )
    return RadialField(phantom.space, parts)


def _scaled_bump(amplitude: float, s: np.ndarray) -> np.ndarray:
    """amplitude * bump_profile(s); bound to an amplitude by `partial`, it
    keeps a phantom's parts picklable."""
    return amplitude * bump_profile(s)


def _bump_laplacian(n: int, scale: float, s: np.ndarray) -> np.ndarray:
    """scale * (w'' + (n - 1) w'/s) of the bump profile w at s = |x|, the
    Laplacian of w(|x|) in R^n, and 0 for |s| >= 1.

    With q = 1 - s^2, w' = -2 s w / q^2, so w'/s = -2 w / q^2 holds at
    s = 0 too. The mask is needed: the `_TINY` floor of `bump_profile`
    would give 0 * inf here.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    s2 = s[inside] ** 2
    q = 1.0 - s2
    w = np.exp(1.0 - 1.0 / q)
    out[inside] = scale * w * (4.0 * s2 / q ** 4 - 8.0 * s2 / q ** 3 - 2.0 * n / q ** 2)
    return out
