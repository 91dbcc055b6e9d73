"""Characteristic functions and densities of the stationary laws.

Every analytic law of the package lives here: the exact finite-n and limit
CFs, the gaussian distance density, and the Laplace law that is the
large-population limit of a distance (its CF, density and CDF).

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
import functools
import itertools
import math

import numpy as np

from .offsets import OffsetDistribution, check_count, check_scale

# Exact diagonal evaluation is exponential-ish in the recursion depth; this
# caps n for diagonal modes and k for general joint arguments. Overridable
# per call; the CLI exposes it as --cap.
DEFAULT_CAP = 12

_BOUND_SLACK = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when an exact recursion would exceed the configured cap."""


def _check_cf(value):
    """``value`` if every entry lies in [-1, 1]; a scalar comes back a float."""
    values = np.asarray(value, dtype=float)
    inside = (values >= -1.0 - _BOUND_SLACK) & (values <= 1.0 + _BOUND_SLACK)
    if not inside.all():
        bad = float(values[~inside].flat[0])
        raise AssertionError(f"characteristic function left [-1, 1]: {bad!r}")
    return float(value) if values.ndim == 0 else values


def distance_cf(s, n_particles: int, offsets: OffsetDistribution):
    """CF of one inter-particle distance for an ensemble of n particles."""
    x = offsets.cf_scaled(s, n_particles)
    return x / (n_particles - 1 - (n_particles - 2) * x)


def distance_cf_limit(s, sigma: float):
    """Large-population limit of the one-distance CF: 2 / (2 + s^2 sigma^2)."""
    check_scale(sigma, "sigma")
    return 2.0 / (2.0 + np.square(np.asarray(s, dtype=float) * sigma))


def laplace_pdf(y, sigma: float):
    """Density of the centred Laplace law with variance sigma^2."""
    check_scale(sigma, "sigma")
    c = math.sqrt(2.0) / sigma
    return 0.5 * c * np.exp(-c * np.abs(np.asarray(y, dtype=float)))


def laplace_cdf(x, sigma: float):
    """CDF of the centred Laplace law with variance sigma^2 (scale sigma/sqrt(2)).

    Accepts a scalar or an array; a scalar gives a numpy float64."""
    check_scale(sigma, "sigma")
    b = sigma / math.sqrt(2.0)
    x = np.asarray(x, dtype=float)
    # 0.5 * exp(-|x|/b) in one buffer: it is the lower tail, 0.5 * exp(x/b),
    # for x < 0, and no exponent is positive, so nothing overflows
    cdf = np.abs(x, out=np.empty_like(x))
    cdf /= -b
    np.exp(cdf, out=cdf)
    cdf *= 0.5
    # the upper tail; a NaN stays NaN either way
    np.subtract(1.0, cdf, out=cdf, where=x >= 0)
    return cdf[()]


def check_eps(eps, name: str) -> None:
    """Raise ``ValueError`` unless ``eps``, the mixture's discarded mass, lies
    in (0, 1). The CLI checks ``--eps`` with it also in modes that draw no
    mixture."""
    if not 0 < eps < 1:
        raise ValueError(f"{name} must be in (0, 1), got {eps!r}")


def series_truncation(n_particles: int, eps: float) -> int:
    """Terms needed so the discarded mixture mass is below eps.

    Solves r^K / (n-2) <= eps * (1 - r) with r = (n-2)/(n-1) in closed form.
    """
    check_count(n_particles, 3, "n_particles")
    check_eps(eps, "eps")
    r = (n_particles - 2) / (n_particles - 1)
    k = math.ceil(math.log(eps * (1.0 - r) * (n_particles - 2)) / math.log(r))
    return max(k, 1)


def distance_pdf(y, n_particles: int, sigma: float, eps: float = 1e-10):
    """Density of one inter-particle distance for gaussian offsets, n > 2.

    Geometric mixture of centred normals with variances k*sigma^2/n,
    truncated so the discarded mass is below eps.
    """
    check_scale(sigma, "sigma")
    kmax = series_truncation(n_particles, eps)
    r = (n_particles - 2) / (n_particles - 1)
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.empty_like(flat)
    ks = np.arange(1, kmax + 1)
    log_w = ks * math.log(r) - math.log(n_particles - 2)
    var = ks * sigma * sigma / n_particles
    norm = 1.0 / np.sqrt(2.0 * math.pi * var)
    # whole mixture rows per block, each summed on its own, so a point's
    # value does not depend on the grid it is evaluated on
    rows = max(1, 4_000_000 // kmax)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows]
        z = block[:, None] ** 2 / (2.0 * var[None, :])
        out[start : start + rows] = (np.exp(log_w[None, :] - z) * norm).sum(axis=1)
    return out.reshape(y.shape)[()]


# ---------------------------------------------------------------------------
# Joint CF recursions.
#
# One memoised core serves the finite-n and the limit recursion, at any
# arguments. Arguments with equal rows (equal values, at a point) form one
# class, and the d classes are ordered canonically: by value at a point,
# lexicographically by row on a grid. With radix B = k + 1, an argument of
# class c is the packed count vector B**c, and a state is the sorted tuple of
# its parts' packed count vectors. A merge adds two of them, which never
# carries because the counts sum to at most k; merges are exact integer sums,
# whatever order they come in. A part with counts n_c has the argument
# sum_c n_c * value_c, which for one class is the integer multiplier m times
# the value: the diagonal is the lattice (1, ..., 1).
#
# Joint CFs are symmetric, so equal parts are grouped: for each distinct part
# v with multiplicity c_v, the numerator removes one v with weight c_v (xi(v)
# + xi_tot), merges two v's into 2v with weight c_v (c_v - 1) xi(v), and
# merges v into a larger w with weight c_v c_w (xi(v) + xi(w)). A state
# therefore costs r^2 in its number r of distinct parts instead of k^2. The
# limit recursion is the case xi == 1. Its denominator k(k+1) + (sigma^2/2)
# (sum_j x_j^2 + X^2), for part arguments x_j with sum X, is formed as
# k(k+1) + sum_{a<=b} Q_ab H_ab from the integer matrix Q = sum_j n_j n_j^T +
# t t^T over the parts' count vectors n_j and their sum t, and
# H_ab = (sigma^2/2) value_a value_b, doubled off the diagonal.
#
# The states and their weights do not depend on the class values; only xi and
# the denominator do, and the arithmetic is elementwise. So a (k, P) grid is
# walked once, with numpy arrays over the grid points as the memo's values, in
# blocks so the memo's memory is bounded by the block, not by the grid. A
# point keeps Python floats.
# ---------------------------------------------------------------------------

# grid points per walk: the memo holds one array this long per state. Walks
# with more states than the lattice at k = DEFAULT_CAP (271) take fewer points.
GRID_BLOCK = 1024


def _joint_cf(mults: tuple, xi_at, den_at, memo: dict):
    """Joint CF at the sorted tuple ``mults`` of packed parts.

    ``xi_at(m)`` is the offset CF at part m; ``den_at(mults, xi_sum)`` is the
    recursion's denominator, given xi_sum = xi(sum) + sum of xi(m).
    Values are floats, or arrays over grid points that ``memo`` and ``xi_at``
    share, so none is ever updated in place.
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
        xi_sum = xi_sum + cv * xv
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


def _classes(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Group the equal rows of ``rows`` (shape (k, P)) into classes numbered
    in lexicographic order of their rows: (class of each row, first row of
    each class). Rows are compared pairwise, so nothing copies the grid."""

    def compare(i: int, j: int) -> int:
        differ = rows[i] != rows[j]
        if not differ.any():
            return 0
        at = differ.argmax()
        return -1 if rows[i, at] < rows[j, at] else 1

    order = sorted(range(len(rows)), key=functools.cmp_to_key(compare))
    of_row = [0] * len(rows)
    firsts = [order[0]]
    for prev, i in zip(order, order[1:]):
        if compare(prev, i):
            firsts.append(i)
        of_row[i] = len(firsts) - 1
    return of_row, firsts


def _state_count(counts: list[int]) -> int:
    """Memo states of a walk over classes of these sizes: the multiset
    partitions of each nonempty sub-multiset, summed from the coefficients of
    prod_{u != 0} 1 / (1 - x^u) over the box 0 <= v <= counts."""
    box = list(itertools.product(*(range(n + 1) for n in counts)))
    ways = dict.fromkeys(box, 0)
    ways[box[0]] = 1
    for u in box[1:]:
        # admit u as a part: w comes before w + u, so ways[w] already uses u
        for w in itertools.product(*(range(n - a + 1) for n, a in zip(counts, u))):
            ways[tuple(a + b for a, b in zip(w, u))] += ways[w]
    return sum(ways.values()) - 1


def _counts(m: int, radix: int, d: int) -> list[int]:
    """The counts n_0, ..., n_{d-1} of the packed count vector
    m = sum_c n_c radix**c."""
    counts = []
    for _ in range(d):
        m, n = divmod(m, radix)
        counts.append(n)
    return counts


def _argument(m: int, radix: int, values):
    """sum_c n_c * values[c] over the nonzero counts of the packed vector m,
    in class order; one class gives n_0 * values[0] itself."""
    terms = [n * v for n, v in zip(_counts(m, radix, len(values)), values) if n]
    return sum(terms[1:], terms[0])


def _walk(coords: np.ndarray, walk):
    """``walk(parts, radix, values)`` at ``coords``, bound-checked.

    ``parts`` is the sorted tuple of the arguments' packed classes and
    ``values`` holds one value per class. ``coords`` of shape (k,) is one
    point, the case P = 1 of a grid, which gives a float from Python-float
    values. Shape (k, P) gives an array of P values, walked once per block of
    grid points with the class rows cut to the block as values.
    """
    if coords.ndim not in (1, 2):
        raise ValueError(f"grid arguments need shape (k, P), got shape {coords.shape}")
    rows = coords.reshape(len(coords), -1)
    of_row, firsts = _classes(rows)
    radix = len(coords) + 1
    parts = tuple(sorted(radix**c for c in of_row))
    if coords.ndim == 1:
        return _check_cf(walk(parts, radix, coords[firsts].tolist()))
    # the memo holds one array per state: a walk takes at most as many
    # entries as GRID_BLOCK points of the lattice at the default cap
    states = _state_count([of_row.count(c) for c in range(len(firsts))])
    budget = GRID_BLOCK * _state_count([DEFAULT_CAP])
    points = max(1, min(GRID_BLOCK, budget // states))
    out = np.empty(rows.shape[1])
    for start in range(0, out.size, points):
        block = slice(start, start + points)
        out[block] = walk(parts, radix, [rows[j, block] for j in firsts])
    return _check_cf(out)


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
) -> float | np.ndarray:
    """Joint CF of k inter-particle distances at the given arguments.

    Requires k < n_particles. Equal arguments share one class of the
    recursion's states, which is what makes diagonal evaluations cheap.
    ``coords`` is one point of k arguments, or a (k, P) grid of P points,
    evaluated together (see ``_walk``).
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    k = len(coords)
    check_count(n_particles, 2, "n_particles")
    if k >= n_particles:
        raise ValueError(
            f"joint CF of k={k} distances needs n_particles > k, got {n_particles}"
        )
    _require_cap(k, cap, "k")
    if k == 0:
        return 1.0

    def den_at(parts: tuple, xi_sum):
        k = len(parts)
        return (k + 1) * (n_particles - 1) + (k + 1 - n_particles) * xi_sum

    def walk(parts: tuple, radix: int, values: list):
        grid = isinstance(values[0], np.ndarray)
        xi: dict = {}

        def xi_at(m):
            try:
                return xi[m]
            except KeyError:
                val = offsets.cf_scaled(_argument(m, radix, values), n_particles)
                # a point keeps the recursion's arithmetic on Python floats
                val = xi[m] = val if grid else float(val)
                return val

        return _joint_cf(parts, xi_at, den_at, {})

    return _walk(coords, walk)


def distances_joint_cf_limit(
    coords, sigma: float, *, cap: int = DEFAULT_CAP
) -> float | np.ndarray:
    """Large-population limit of the joint CF of k inter-particle distances;
    ``coords`` as in ``distances_joint_cf``."""
    check_scale(sigma, "sigma")
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    k = len(coords)
    _require_cap(k, cap, "k")
    if k == 0:
        return 1.0

    def walk(parts: tuple, radix: int, values: list):
        d = len(values)
        sb = [sigma * v for v in values]
        pairs = [(a, b) for a in range(d) for b in range(a, d)]
        # H_ab = sigma^2/2 value_a value_b, doubled off the diagonal
        h = [0.5 * sb[a] * sb[a] if a == b else sb[a] * sb[b] for a, b in pairs]

        @functools.cache
        def pair_products(m: int) -> tuple[int, ...]:
            n = _counts(m, radix, d)
            return tuple(n[a] * n[b] for a, b in pairs)

        def den_at(parts: tuple, _xi_sum):
            k = len(parts)
            # Q_ab: n_a n_b summed over the parts and their sum
            q = map(sum, zip(*map(pair_products, parts + (sum(parts),))))
            den = k * (k + 1)
            for q_ab, h_ab in zip(q, h):
                if q_ab:
                    den = den + q_ab * h_ab
            return den

        return _joint_cf(parts, lambda m: 1.0, den_at, {})

    return _walk(coords, walk)


def _diagonal(s, n_particles: int) -> np.ndarray:
    """The n - 1 equal arguments s/n: shape (n-1,) for a point s, (n-1, P)
    for a grid of P points."""
    s = np.asarray(s, dtype=float)
    return np.broadcast_to(s / n_particles, (n_particles - 1, *s.shape))


def particle_cf(
    s,
    n_particles: int,
    offsets: OffsetDistribution,
    *,
    cap: int = DEFAULT_CAP,
) -> float | np.ndarray:
    """CF of the stationary renormalised single-particle position: the
    diagonal evaluation of the joint distance CF at (s/n, ..., s/n).

    A point s gives a float, a 1-D grid of s an array.
    """
    check_count(n_particles, 2, "n_particles")
    _require_cap(n_particles, cap, "n")
    coords = _diagonal(s, n_particles)
    # the module-global name, so a rebinding (as a tracer does) sees this call
    return distances_joint_cf(coords, n_particles, offsets, cap=n_particles)


def particle_cf_limit(
    s, n_particles: int, sigma: float, *, cap: int = DEFAULT_CAP
) -> float | np.ndarray:
    """Diagonal of the limit recursion at (s/n, ..., s/n); as n grows this
    family converges pointwise to the CF of the limiting single-particle law.
    A point s gives a float, a 1-D grid of s an array.
    """
    check_count(n_particles, 2, "n_particles")
    _require_cap(n_particles, cap, "n")
    coords = _diagonal(s, n_particles)
    return distances_joint_cf_limit(coords, sigma, cap=n_particles)

