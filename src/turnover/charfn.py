"""Characteristic functions and densities of the stationary laws.

The one-distance CF has the closed form

    psi(s) = xi(s/sqrt(n)) / (n - 1 - (n - 2) * xi(s/sqrt(n))),

with xi the offset CF; its denominator is always >= 1. Joint CFs of k
distances satisfy a recursion in k whose numerator mixes evaluations with one
argument removed or merged into another; the large-population limit of that
recursion has the rational denominator k(k+1) + (sigma^2/2)(sum s_j^2 +
(sum s_j)^2). Single-particle CFs are the diagonal evaluations
psi^{n-1}(s/n, ..., s/n) of either recursion.

All CFs here are real (offsets are symmetric) and bounded by 1; evaluators
raise AssertionError on a value outside [-1, 1] instead of silently
coercing it, also under ``python -O``.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .offsets import GAUSSIAN, OffsetDistribution

# Exact diagonal evaluation is exponential-ish in the recursion depth; this
# caps n for diagonal modes and k for general joint arguments. Overridable
# per call; the CLI exposes it as --cap.
DEFAULT_CAP = 12

_BOUND_SLACK = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when an exact recursion would exceed the configured cap."""


def _check_cf(value: float) -> float:
    if not -1.0 - _BOUND_SLACK <= value <= 1.0 + _BOUND_SLACK:
        raise AssertionError(f"characteristic function left [-1, 1]: {value!r}")
    return float(value)


def distance_cf(s, n_particles: int, offsets: OffsetDistribution):
    """CF of one inter-particle distance for an ensemble of n particles."""
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles}")
    x = offsets.cf_scaled(s, n_particles)
    return x / (n_particles - 1 - (n_particles - 2) * x)


def distance_cf_limit(s, sigma: float):
    """Large-population limit of the one-distance CF: 2 / (2 + s^2 sigma^2)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    s = np.asarray(s, dtype=float) if isinstance(s, np.ndarray) else float(s)
    return 2.0 / (2.0 + (s * sigma) ** 2)


def laplace_pdf(y, sigma: float):
    """Density of the centred Laplace law with variance sigma^2."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    c = math.sqrt(2.0) / sigma
    if isinstance(y, np.ndarray):
        return 0.5 * c * np.exp(-c * np.abs(y))
    return 0.5 * c * math.exp(-c * abs(float(y)))


def series_truncation(n_particles: int, eps: float) -> int:
    """Terms needed so the discarded mixture mass is below eps.

    Solves r^K / (n-2) <= eps * (1 - r) with r = (n-2)/(n-1) in closed form.
    """
    if n_particles <= 2:
        raise ValueError("series form needs n_particles > 2")
    if not eps > 0:
        raise ValueError("eps must be positive")
    r = (n_particles - 2) / (n_particles - 1)
    k = math.ceil(math.log(eps * (1.0 - r) * (n_particles - 2)) / math.log(r))
    return max(k, 1)


def distance_pdf(y, n_particles: int, sigma: float, eps: float = 1e-10):
    """Density of one inter-particle distance for gaussian offsets, n > 2.

    Geometric mixture of centred normals with variances k*sigma^2/n,
    truncated so the discarded mass is below eps.
    """
    if n_particles <= 2:
        raise ValueError("the mixture form needs n_particles > 2")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    kmax = series_truncation(n_particles, eps)
    r = (n_particles - 2) / (n_particles - 1)
    scalar = not isinstance(y, np.ndarray)
    y = np.asarray(y, dtype=float)
    shape = y.shape
    flat = np.atleast_1d(y).ravel()
    out = np.zeros_like(flat)
    ks = np.arange(1, kmax + 1)
    log_w = ks * math.log(r) - math.log(n_particles - 2)
    var = ks * sigma * sigma / n_particles
    chunk = max(1, 4_000_000 // max(flat.size, 1))
    for start in range(0, kmax, chunk):
        v = var[start : start + chunk]
        lw = log_w[start : start + chunk]
        z = flat[:, None] ** 2 / (2.0 * v[None, :])
        out += np.exp(lw[None, :] - z).dot(1.0 / np.sqrt(2.0 * math.pi * v))
    return float(out[0]) if scalar else out.reshape(shape)


def _scaled_offset_pdf(x, n_particles: int, offsets: OffsetDistribution):
    """Density of offset/sqrt(n)."""
    root = math.sqrt(n_particles)
    return root * offsets.pdf(x * root)


def distance_pair_pdf_three(
    y1, y2, sigma: float, eps: float = 1e-10
) -> float | np.ndarray:
    """Joint density of two distances sharing a particle, for n=3, gaussian
    offsets: the symmetric six-term product form."""
    offsets = OffsetDistribution(GAUSSIAN, sigma)

    def rho_d(v):
        return distance_pdf(v, 3, sigma, eps)

    def rho_off(v):
        return _scaled_offset_pdf(v, 3, offsets)

    diff = y1 - y2
    return (
        rho_d(diff) * rho_off(y1)
        + rho_d(diff) * rho_off(y2)
        + rho_d(y2) * rho_off(y1)
        + rho_d(y2) * rho_off(diff)
        + rho_d(y1) * rho_off(y2)
        + rho_d(y1) * rho_off(diff)
    ) / 6.0


# ---------------------------------------------------------------------------
# Joint CF recursions.
#
# One memoised core serves the finite-n and the limit recursion, at general
# and at lattice arguments. Each argument is a multiplier m of a common base,
# so the argument itself is m * base; a state is the sorted tuple of its
# multipliers. Joint CFs are symmetric, so equal multipliers are grouped: for
# each distinct value v with multiplicity c_v, the numerator removes one v
# with weight c_v (xi(v) + xi_tot), merges two v's into 2v with weight
# c_v (c_v - 1) xi(v), and merges v into a larger w with weight
# c_v c_w (xi(v) + xi(w)). A state therefore costs d^2 in its number d of
# distinct values instead of k^2. The limit recursion is the case xi == 1.
#
# Memo keys are compared bitwise, with no epsilon matching. General arguments
# use base 1.0 and their sorted floats as multipliers (m * 1.0 == m). Equal
# arguments use base s and integer multipliers starting at (1, ..., 1): merges
# only ever add multipliers, and integer sums are exact, whereas float sums of
# equal arguments depend on their order and would split one lattice point
# over several memo keys.
# ---------------------------------------------------------------------------


def _joint_cf(mults: tuple, xi_at, den_at, memo: dict) -> float:
    """Joint CF at the sorted multiplier tuple ``mults``.

    ``xi_at(m)`` is the offset CF at multiplier m; ``den_at(mults, xi_sum)``
    is the recursion's denominator, given xi_sum = xi(sum) + sum of xi(m).
    """
    if not mults:
        return 1.0
    cached = memo.get(mults)
    if cached is not None:
        return cached
    groups = []  # (value, multiplicity, index of its first copy)
    first = 0
    for v, run in itertools.groupby(mults):
        c = sum(1 for _ in run)
        groups.append((v, c, first))
        first += c
    xi_tot = xi_at(sum(mults))
    xi_sum = xi_tot
    num = 0.0
    for a, (v, cv, i) in enumerate(groups):
        xv = xi_at(v)
        xi_sum += cv * xv
        rest = mults[:i] + mults[i + 1 :]
        num += cv * (xv + xi_tot) * _joint_cf(rest, xi_at, den_at, memo)
        if cv > 1:
            merged = _insert(mults[:i] + mults[i + 2 :], v + v)
            num += cv * (cv - 1) * xv * _joint_cf(merged, xi_at, den_at, memo)
        for w, cw, j in groups[a + 1 :]:
            merged = _insert(mults[:i] + mults[i + 1 : j] + mults[j + 1 :], v + w)
            num += cv * cw * (xv + xi_at(w)) * _joint_cf(merged, xi_at, den_at, memo)
    val = num / den_at(mults, xi_sum)
    memo[mults] = val
    return val


def _insert(parts: tuple, value) -> tuple:
    """Insert ``value`` into the sorted tuple ``parts``, keeping it sorted."""
    pos = bisect.bisect_left(parts, value)
    return parts[:pos] + (value,) + parts[pos:]


def _finite_cf(
    mults: tuple, base: float, n_particles: int, offsets: OffsetDistribution
) -> float:
    xi: dict = {}

    def xi_at(m) -> float:
        try:
            return xi[m]
        except KeyError:
            val = xi[m] = offsets.cf_scaled(m * base, n_particles)
            return val

    def den_at(parts: tuple, xi_sum: float) -> float:
        k = len(parts)
        return (k + 1) * (n_particles - 1) + (k + 1 - n_particles) * xi_sum

    return _joint_cf(mults, xi_at, den_at, {})


def _limit_cf(mults: tuple, base: float, sigma: float) -> float:
    sb = sigma * base
    half_sb2 = 0.5 * sb * sb

    def den_at(parts: tuple, _xi_sum: float) -> float:
        k = len(parts)
        total = sum(parts)
        return k * (k + 1) + half_sb2 * (sum(m * m for m in parts) + total * total)

    return _joint_cf(mults, lambda m: 1.0, den_at, {})


def _multipliers(coords: tuple[float, ...]) -> tuple[tuple, float]:
    """(multipliers, base) for the arguments: the integer lattice (1, ..., 1)
    when all are equal and nonzero, else the sorted floats with base 1.0."""
    first = coords[0]
    if first != 0.0 and all(c == first for c in coords):
        return (1,) * len(coords), first
    return tuple(sorted(coords)), 1.0


def _require_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ResourceLimitError(
            f"{what}={value} exceeds the exact-recursion cap {cap}; "
            f"raise the cap explicitly to go further"
        )


def distances_joint_cf(
    coords,
    n_particles: int,
    offsets: OffsetDistribution,
    *,
    cap: int = DEFAULT_CAP,
) -> float:
    """Joint CF of k inter-particle distances at the given arguments.

    Requires k < n_particles. Equal arguments are routed through the integer
    lattice recursion, which is what makes diagonal evaluations cheap.
    """
    coords = tuple(float(c) for c in np.atleast_1d(np.asarray(coords, dtype=float)))
    k = len(coords)
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles}")
    if k >= n_particles:
        raise ValueError(
            f"joint CF of k={k} distances needs n_particles > k, got {n_particles}"
        )
    _require_cap(k, cap, "k")
    if k == 0:
        return 1.0
    return _check_cf(_finite_cf(*_multipliers(coords), n_particles, offsets))


def distances_joint_cf_limit(coords, sigma: float, *, cap: int = DEFAULT_CAP) -> float:
    """Large-population limit of the joint CF of k inter-particle distances."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    coords = tuple(float(c) for c in np.atleast_1d(np.asarray(coords, dtype=float)))
    k = len(coords)
    _require_cap(k, cap, "k")
    if k == 0:
        return 1.0
    return _check_cf(_limit_cf(*_multipliers(coords), sigma))


def particle_cf(
    s: float,
    n_particles: int,
    offsets: OffsetDistribution,
    *,
    cap: int = DEFAULT_CAP,
) -> float:
    """CF of the stationary renormalised single-particle position: the
    diagonal evaluation of the joint distance CF at (s/n, ..., s/n)."""
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles}")
    _require_cap(n_particles, cap, "n")
    base = float(s) / n_particles
    if base == 0.0:
        return 1.0
    return _check_cf(_finite_cf((1,) * (n_particles - 1), base, n_particles, offsets))


def particle_cf_limit(
    s: float, n_particles: int, sigma: float, *, cap: int = DEFAULT_CAP
) -> float:
    """Diagonal of the limit recursion at (s/n, ..., s/n); as n grows this
    family converges pointwise to the CF of the limiting single-particle law.
    """
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    _require_cap(n_particles, cap, "n")
    base = float(s) / n_particles
    if base == 0.0:
        return 1.0
    return _check_cf(_limit_cf((1,) * (n_particles - 1), base, sigma))


# -- closed forms for the three-particle ensemble ---------------------------


def distance_pair_cf_three(s1: float, s2: float, offsets: OffsetDistribution) -> float:
    """Closed form of the joint CF of the two distances when n=3."""
    def xi(v: float) -> float:
        return offsets.cf_scaled(v, 3)

    def psi(v: float) -> float:
        x = xi(v)
        return x / (2.0 - x)

    s1, s2 = float(s1), float(s2)
    val = (
        psi(s1) * (xi(s2) + xi(s1 + s2))
        + psi(s2) * (xi(s1) + xi(s1 + s2))
        + psi(s1 + s2) * (xi(s1) + xi(s2))
    ) / 6.0
    return _check_cf(val)


def particle_cf_three(s: float, offsets: OffsetDistribution) -> float:
    """Closed form of the single-particle CF when n=3: the diagonal
    (s/3, s/3) of the pair CF."""
    return distance_pair_cf_three(s / 3.0, s / 3.0, offsets)
