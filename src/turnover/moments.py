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
terms. An entry then costs d^2 lookups in the number d of distinct values
instead of k^2.

Everything here is exact: coefficients are rational multiples of
sigma^{order}, never floats. Odd orders vanish (the recursion only mixes
orders of equal parity and the odd seeds are 0), so only even orders are
built. At even order n a k-part entry reads (k-1)-part entries of order n
(merges) and entries of order n - 2 (lowerings), so the table is built one
level (n, k) at a time, k = 1, ..., n. A level holds integer numerators over
one shared denominator: the LCM of its dependency levels' denominators times
k(k+1), reduced once by the gcd over the level. A partition with
multiplicities c_v is keyed by the integer K = sum_v c_v B^v with
B = max_order + 1, so no carry happens and each lookup is integer
arithmetic: merging one v into one w gives K - B^v - B^w + B^(v+w), lowering
one v gives K - B^v + B^(v-1), and a part that reaches 0 drops out. A
missing dependency therefore signals a scheduling bug, not a user error.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .offsets import check_count

Partition = tuple[int, ...]


def partitions(n: int) -> Iterator[Partition]:
    """Partitions of n in canonical order: (n) first, (1, ..., 1) last.

    Iterative, by algorithm ZS1 (Zoghbi & Stojmenovic 1998): ``x`` holds the
    current partition's ``m`` parts padded with ones, and ``h`` indexes its
    last part above 1, which each step lowers."""
    check_count(n, 0, "n")
    if n == 0:
        yield ()
        return
    x = [n] + [1] * (n - 1)
    m = 1
    h = 0 if n > 1 else -1
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
            yield tuple(x[:m])
            continue
        r = x[h] - 1
        t = m - h
        x[h] = r
        while t >= r:
            h += 1
            x[h] = r
            t -= r
        m = h + 1 + (t > 0)
        if t > 1:
            h += 1
            x[h] = t
        yield tuple(x[:m])


def phi_base(order: int) -> Fraction:
    """Order-n derivative of the one-distance limit CF at 0, as the rational
    coefficient of sigma^n: 0 for odd n, (-1)^(n/2) n! / 2^(n/2) for even n."""
    check_count(order, 0, "order")
    if order % 2:
        return Fraction(0)
    half = order // 2
    return Fraction((-1) ** half * math.factorial(order), 2**half)


def _level_sums(level: Iterable[Partition], deps: Mapping[int, int], base: int) -> dict[int, int]:
    """k(k+1) times the recursion's value at each partition of ``level``, keyed
    by its packed key, with the dependencies read from ``deps`` (packed key ->
    numerator over one denominator shared by all of them)."""
    powers = [base**v for v in range(base)]
    # B^(v-1) and B^(v-2), or 0 where the lowered part drops out
    down1 = [0, 0, *powers[1:-1]]
    down2 = [0, 0, 0, *powers[1:-2]]
    sums = {}
    for parts in level:
        if not parts or min(parts) <= 0:
            raise ValueError(f"the recursion needs a nonempty positive partition, got {parts}")
        groups = [(v, len(list(run))) for v, run in itertools.groupby(parts)]
        key = sum(c * powers[v] for v, c in groups)
        total = 0
        try:
            for a, (v, cv) in enumerate(groups):
                pv = powers[v]
                if cv > 1:
                    total += cv * (cv - 1) * deps[key - 2 * pv + powers[2 * v]]
                    total -= cv * (cv - 1) // 2 * v * v * deps[key - 2 * (pv - down1[v])]
                if v > 1:
                    total -= cv * v * (v - 1) * deps[key - pv + down2[v]]
                lowered = key - pv + down1[v]
                for w, cw in groups[a + 1 :]:
                    pw = powers[w]
                    total += 2 * cv * cw * deps[key - pv - pw + powers[v + w]]
                    total -= cv * cw * v * w * deps[lowered - pw + down1[w]]
        except KeyError as exc:
            raise RuntimeError(
                f"internal error: dependency with key {exc.args[0]} of {parts} missing; "
                f"the level schedule is broken"
            ) from None
        sums[key] = total
    return sums


class PhiTable:
    """Derivatives of the limit joint CF at 0, keyed by canonical partition.

    Values are the rational coefficients of sigma^{order}. Each is built as a
    ``Fraction`` when it is read; odd orders read as 0.
    """

    def __init__(self, levels: dict[tuple[int, int], tuple[int, dict[int, int]]], max_order: int):
        # (order, part count) -> (denominator, packed key -> numerator)
        self._levels = levels
        self.max_order = max_order
        self._powers = [(max_order + 1) ** v for v in range(max_order + 1)]

    @property
    def stored(self) -> int:
        """Numerators the table stores: one per partition of an even order."""
        return sum(len(nums) for _, nums in self._levels.values())

    def _read(self, parts: Partition) -> Fraction:
        order = sum(parts)
        if order % 2:
            return Fraction(0)
        den, nums = self._levels[order, len(parts)]
        return Fraction(nums[sum(self._powers[v] for v in parts)], den)

    def moment(self, k: int) -> Fraction:
        """Exact k-th moment of the limiting single-particle law, as the
        rational coefficient of sigma^k (zero for odd k)."""
        check_count(k, 1, "moment order")
        if k > self.max_order:
            raise ValueError(f"order {k} exceeds table max_order {self.max_order}")
        return (-1) ** (k // 2) * self._read((1,) * k)

    def items_in_order(self) -> Iterator[tuple[Partition, Fraction]]:
        """Every partition of 0..max_order in canonical order, with its value."""
        for n in range(self.max_order + 1):
            for parts in partitions(n):
                yield parts, self._read(parts)


def build_phi_table(max_order: int) -> PhiTable:
    """Build the derivative table for all partitions of order <= max_order,
    one level (even order n, part count k) at a time."""
    check_count(max_order, 0, "max_order")
    base = max_order + 1
    levels = {(0, 0): (1, {0: 1})}
    for n in range(2, max_order + 1, 2):
        by_count: list[list[Partition]] = [[] for _ in range(n + 1)]
        for parts in partitions(n):
            by_count[len(parts)].append(parts)
        levels[n, 1] = (1, {base**n: phi_base(n).numerator})
        for k in range(2, n + 1):
            dep_levels = [
                levels[lv] for lv in ((n, k - 1), (n - 2, k), (n - 2, k - 1), (n - 2, k - 2))
                if lv in levels
            ]
            common = math.lcm(*(den for den, _ in dep_levels))
            deps = {}
            for den, nums in dep_levels:
                scale = common // den
                deps.update((key, num * scale) for key, num in nums.items())
            sums = _level_sums(by_count[k], deps, base)
            den = common * k * (k + 1)
            g = math.gcd(den, *sums.values())
            levels[n, k] = (den // g, {key: s // g for key, s in sums.items()})
    return PhiTable(levels, max_order)
