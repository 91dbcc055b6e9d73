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
import numbers
from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
TWO_POINT = "two_point"
KINDS = (GAUSSIAN, UNIFORM, TWO_POINT)

_SQRT3 = math.sqrt(3.0)


def check_scale(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive finite real.

    The rule for every scale the package takes: the offset sigma, the KDE
    bandwidth and the initial spread. It raises, not asserts, so it also holds
    under ``python -O``.
    """
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def check_count(value, least: int, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``least``.

    The rule for every count the package takes: particles, steps, seeds,
    orders, bins and grid points. A ``bool`` is not a count.
    """
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be >= {least} and integral, got {value!r}")


def _sinc(u):
    """sin(u)/u, 1 at u = 0."""
    u = np.asarray(u, dtype=float)
    zero = u == 0
    safe = np.where(zero, 1.0, u)
    return np.where(zero, 1.0, np.sin(safe) / safe)[()]


@dataclass(frozen=True)
class OffsetDistribution:
    """Jump-offset law; immutable and safe to share across threads."""

    kind: str
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown offset kind {self.kind!r}; expected one of {KINDS}")
        check_scale(self.sigma, "sigma")

    @property
    def half_width(self) -> float:
        """Half-width sqrt(3)*sigma of the uniform support."""
        return _SQRT3 * self.sigma

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` offsets as an ndarray."""
        if self.kind == GAUSSIAN:
            out = rng.standard_normal(size)
            out *= self.sigma
            return out
        if self.kind == UNIFORM:
            return rng.uniform(-self.half_width, self.half_width, size)
        # sigma * (2k - 1) exactly, through a one-byte intermediate
        heads = rng.integers(0, 2, size=size).astype(bool)
        return np.where(heads, self.sigma, -self.sigma)

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
        check_count(n_particles, 2, "n_particles")
        return self.cf(s / math.sqrt(n_particles))


def gaussian(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(GAUSSIAN, sigma)


def uniform(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(UNIFORM, sigma)


def two_point(sigma: float) -> OffsetDistribution:
    return OffsetDistribution(TWO_POINT, sigma)


def from_name(kind: str, sigma: float) -> OffsetDistribution:
    """Build a distribution from a CLI-style kind name (dashes allowed)."""
    return OffsetDistribution(kind.replace("-", "_").lower(), sigma)
