"""Symmetric, centred jump-offset distributions.

Every supported kind is parametrised by its standard deviation ``sigma``, so
that the variance is exactly ``sigma**2`` regardless of shape:

* ``gaussian``  -- normal with mean 0 and variance sigma^2,
* ``uniform``   -- uniform on [-sqrt(3)*sigma, +sqrt(3)*sigma],
* ``two_point`` -- +-sigma with probability 1/2 each.

Because all kinds are symmetric about 0, their characteristic functions are
real-valued everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
TWO_POINT = "two_point"
KINDS = (GAUSSIAN, UNIFORM, TWO_POINT)

_SQRT3 = math.sqrt(3.0)
# below this |arg| sin(u)/u is evaluated by a 4-term Taylor expansion to
# avoid cancellation
_SINC_CUTOFF = 1e-4


def _sinc(u):
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_CUTOFF
    safe = np.where(small, 1.0, u)
    u2 = u * u
    taylor = 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
    return np.where(small, taylor, np.sin(safe) / safe)[()]


@dataclass(frozen=True)
class OffsetDistribution:
    """Jump-offset law; immutable and safe to share across threads."""

    kind: str
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown offset kind {self.kind!r}; expected one of {KINDS}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma!r}")

    @property
    def half_width(self) -> float:
        """Half-width sqrt(3)*sigma of the uniform support."""
        return _SQRT3 * self.sigma

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` offsets as an ndarray."""
        if self.kind == GAUSSIAN:
            return rng.standard_normal(size) * self.sigma
        if self.kind == UNIFORM:
            return rng.uniform(-self.half_width, self.half_width, size)
        return self.sigma * (2.0 * rng.integers(0, 2, size=size) - 1.0)

    def cf(self, s):
        """Characteristic function at s (real by symmetry; 1 at s=0).

        Accepts a scalar or an array; a scalar gives a numpy float64.
        """
        s = np.asarray(s, dtype=float)
        if self.kind == GAUSSIAN:
            return np.exp(-0.5 * np.square(self.sigma * s))
        if self.kind == UNIFORM:
            return _sinc(self.half_width * s)
        return np.cos(self.sigma * s)

    def cf_scaled(self, s, n_particles: int):
        """Characteristic function of the offset divided by sqrt(n_particles)."""
        if n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {n_particles}")
        return self.cf(s / math.sqrt(n_particles))

    def pdf(self, x):
        """Lebesgue density at x; only the gaussian and uniform kinds have one."""
        if self.kind == TWO_POINT:
            raise ValueError("two_point offsets are discrete and have no density")
        x = np.asarray(x, dtype=float)
        if self.kind == GAUSSIAN:
            return np.exp(-0.5 * np.square(x / self.sigma)) / (self.sigma * math.sqrt(2 * math.pi))
        return np.where(np.abs(x) <= self.half_width, 1.0 / (2.0 * self.half_width), 0.0)[()]


def gaussian(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(GAUSSIAN, sigma)


def uniform(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(UNIFORM, sigma)


def two_point(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(TWO_POINT, sigma)


def from_name(kind: str, sigma: float) -> OffsetDistribution:
    """Build a distribution from a CLI-style kind name (dashes allowed)."""
    return OffsetDistribution(kind.replace("-", "_").lower(), sigma)
