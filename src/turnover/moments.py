"""Exact moments of the limiting single-particle law.

The k-th moment equals (up to the sign i^-k) the order-k derivative of the
limit joint-distance CF at the origin along the all-ones multi-index. Those
derivatives are indexed by integer partitions and obey the linear recursion

    k(k+1) * phi[a] = sum_{i != j} phi[merge(a, i, j)]
                      - sigma^2 * sum_{i < j} a_i a_j phi[a - e_i - e_j]
                      - sigma^2 * sum_i a_i (a_i - 1) phi[a - 2 e_i]

(k = number of parts; merge(a, i, j) adds part i to part j and drops part i;
indices pruned to canonical partitions), seeded at each even order n by the
known order-n derivative of the one-distance limit CF.

Equal parts give equal terms, so the sums run over the distinct part values v
with multiplicities c_v: merging two copies of v counts c_v (c_v - 1) times
and merging v with another value w counts 2 c_v c_w times; the first sigma^2
sum becomes C(c_v, 2) v^2 and c_v c_w v w terms, the second c_v v (v - 1)
terms. A step then costs d^2 lookups in the number d of distinct values
instead of k^2.

Everything here is exact: coefficients are ``fractions.Fraction`` multiples
of sigma^{order}, never floats. Walking each order's partitions in canonical
(decreasing lexicographic) order is a valid dependency schedule: merging two
parts yields a partition that dominates, hence precedes, the current one,
and the sigma^2 terms live two orders down. A missing table entry therefore
signals an ordering bug, not a user error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Partition = tuple[int, ...]


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n in canonical order: (n) first, (1, ..., 1) last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def prune(multi_index: Iterable[int]) -> Partition:
    """Drop zero entries and sort the rest nonincreasingly."""
    return tuple(sorted((v for v in multi_index if v != 0), reverse=True))


def phi_base(order: int) -> Fraction:
    """Order-n derivative of the one-distance limit CF at 0, as the rational
    coefficient of sigma^n: 0 for odd n, (-1)^(n/2) n! / 2^(n/2) for even n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order % 2:
        return Fraction(0)
    half = order // 2
    return Fraction((-1) ** half * math.factorial(order), 2**half)


def recursion_step(parts: Partition, coefficients: Mapping[Partition, Fraction]) -> Fraction:
    """One application of the derivative recursion at a strictly positive
    partition, reading dependencies from ``coefficients``."""
    k = len(parts)
    if k == 0 or any(p <= 0 for p in parts):
        raise ValueError("recursion_step needs a nonempty strictly positive partition")

    def lookup(*edits: tuple[int, int]) -> Fraction:
        # replace one copy of each old value by its new value; which copy
        # does not matter, the result is pruned to a partition
        out = list(parts)
        for old, new in edits:
            out[out.index(old)] = new
        key = prune(out)
        try:
            return coefficients[key]
        except KeyError:
            raise RuntimeError(
                f"internal error: dependency {key} of {parts} missing; "
                f"the canonical-order schedule is broken"
            ) from None

    groups = [(v, sum(1 for _ in run)) for v, run in itertools.groupby(parts)]
    total = Fraction(0)
    for a, (v, cv) in enumerate(groups):
        if cv > 1:
            total += cv * (cv - 1) * lookup((v, 2 * v), (v, 0))
            total -= cv * (cv - 1) // 2 * v * v * lookup((v, v - 1), (v, v - 1))
        if v > 1:
            total -= cv * v * (v - 1) * lookup((v, v - 2))
        for w, cw in groups[a + 1 :]:
            total += 2 * cv * cw * lookup((v, v + w), (w, 0))
            total -= cv * cw * v * w * lookup((v, v - 1), (w, w - 1))
    return total / (k * (k + 1))


@dataclass(frozen=True)
class ExactCoeff:
    """An exact rational multiple of sigma**sigma_power."""

    fraction: Fraction
    sigma_power: int

    @property
    def numerator(self) -> int:
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        return self.fraction.denominator

    def evaluate(self, sigma: float) -> float:
        return float(self.fraction) * sigma**self.sigma_power


def derivative_bound(order: int) -> Fraction:
    """Growth bound on order-n derivatives: n! / 2^(n/2) (times sigma^n)."""
    return Fraction(math.factorial(order), 2 ** (order // 2))


class PhiTable:
    """Derivatives of the limit joint CF at 0, keyed by canonical partition.

    Values are the rational coefficients of sigma^{order}; odd orders are
    identically zero because the recursion only ever mixes orders of equal
    parity and the odd seeds vanish.
    """

    def __init__(self, coefficients: dict[Partition, Fraction], max_order: int):
        self._coefficients = coefficients
        self.max_order = max_order

    def coefficient(self, parts: Iterable[int]) -> Fraction:
        key = prune(parts)
        if sum(key) > self.max_order:
            raise ValueError(
                f"partition {key} of order {sum(key)} exceeds table max_order "
                f"{self.max_order}"
            )
        return self._coefficients[key]

    def moment(self, k: int) -> ExactCoeff:
        """Exact k-th moment of the limiting single-particle law, as the
        rational coefficient of sigma^k (zero for odd k)."""
        if k < 1:
            raise ValueError("moment order must be >= 1")
        if k > self.max_order:
            raise ValueError(f"order {k} exceeds table max_order {self.max_order}")
        if k % 2:
            return ExactCoeff(Fraction(0), k)
        sign = (-1) ** (k // 2)
        return ExactCoeff(sign * self._coefficients[(1,) * k], k)

    def items_in_order(self) -> Iterator[tuple[Partition, Fraction]]:
        for n in range(self.max_order + 1):
            for parts in partitions(n):
                yield parts, self._coefficients[parts]


def build_phi_table(max_order: int) -> PhiTable:
    """Build the derivative table for all partitions of order <= max_order.

    Each even order is seeded at the single-part partition and then walked in
    canonical order, which keeps every dependency already computed.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    coefficients: dict[Partition, Fraction] = {(): Fraction(1)}
    zero = Fraction(0)
    for n in range(1, max_order + 1):
        if n % 2:
            for parts in partitions(n):
                coefficients[parts] = zero
            continue
        for parts in partitions(n):
            if len(parts) == 1:
                coefficients[parts] = phi_base(n)
            else:
                coefficients[parts] = recursion_step(parts, coefficients)
    return PhiTable(coefficients, max_order)
