import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from turnover import moments


def count_partitions_oracle(n: int) -> int:
    # independent coin-change count of partitions of n
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def test_partitions_of_four_listing():
    assert list(moments.partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_of_zero():
    assert list(moments.partitions(0)) == [()]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_partition_count_matches_oracle(n):
    parts = list(moments.partitions(n))
    assert len(parts) == count_partitions_oracle(n)
    assert len(set(parts)) == len(parts)
    assert all(sum(p) == n for p in parts)
    assert all(list(p) == sorted(p, reverse=True) for p in parts)


def test_partitions_canonical_order_is_decreasing_lex():
    parts = list(moments.partitions(9))
    assert parts == sorted(parts, reverse=True)
    assert parts[0] == (9,)
    assert parts[-1] == (1,) * 9


@given(st.data())
def test_merge_then_prune_preserves_order(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    parts = data.draw(st.sampled_from(list(moments.partitions(n))))
    if len(parts) < 2:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
    j = data.draw(
        st.integers(min_value=0, max_value=len(parts) - 1).filter(lambda v: v != i)
    )
    merged = list(parts)
    merged[j] += merged[i]
    del merged[i]
    merged = tuple(sorted(merged, reverse=True))
    assert sum(merged) == n
    assert len(merged) == len(parts) - 1
    # a merge dominates its source, so it precedes it in canonical order
    order = list(moments.partitions(n))
    assert order.index(merged) < order.index(parts)


def test_base_derivative_values():
    assert moments.phi_base(2) == Fraction(-1)
    assert moments.phi_base(4) == Fraction(6)
    assert moments.phi_base(3) == Fraction(0)
    assert moments.phi_base(0) == Fraction(1)


def test_base_matches_recursion_on_single_part():
    # the recursion applied to (n) reduces to the two-orders-down relation
    # satisfied by the closed-form seeds; (m,) is packed as base**m, () as 0
    base = 13
    deps = {base**m if m else 0: int(moments.phi_base(m)) for m in range(13)}
    for n in range(2, 13):
        sums = moments._level_sums([(n,)], deps, base)
        assert list(sums) == [base**n]
        # the sums are k(k+1) = 2 times the value
        assert Fraction(sums[base**n], 2) == moments.phi_base(n)


def test_recursion_worked_examples():
    table = dict(moments.build_phi_table(4).items_in_order())
    assert table[1, 1] == Fraction(-1, 2)
    assert table[2, 1, 1] == Fraction(11, 6)
    assert table[1, 1, 1, 1] == Fraction(5, 4)


def test_table_order_four_contents():
    table = moments.build_phi_table(4)
    expected_keys = {
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    }
    entries = dict(table.items_in_order())
    assert set(entries) == expected_keys
    assert entries[3, 1] == Fraction(3)
    assert entries[2, 2] == Fraction(3)
    assert entries[2, 1] == Fraction(0)
    assert entries[1, 1, 1] == Fraction(0)


def test_derivative_bound_up_to_order_twelve():
    table = moments.build_phi_table(12)
    for parts, value in table.items_in_order():
        order = sum(parts)
        # the bound n! / 2^(n/2) is |phi_base(n)| at even n
        assert abs(value) <= abs(moments.phi_base(order))
        if order % 2:
            assert value == 0


def test_moment_values():
    table = moments.build_phi_table(8)
    assert table.moment(2) == Fraction(1, 2)
    assert table.moment(4) == Fraction(5, 4)
    assert table.moment(6) == Fraction(215, 24)
    assert table.moment(8) == Fraction(102877, 720)
    assert table.moment(3) == Fraction(0)


def test_kurtosis_is_exactly_five():
    table = moments.build_phi_table(4)
    m2, m4 = table.moment(2), table.moment(4)
    assert m4 / m2**2 == Fraction(5)


def test_moment_ratios_follow_the_exponential_tail_with_a_power_prefactor():
    # a density C |x|**beta exp(-sqrt(2) |x| / sigma) has, at sigma = 1,
    # M_{m+2} / M_m -> (m + beta + 2)(m + beta + 1) / 2; README "The limit
    # law" derives beta = -2. So r_m = M_{m+2} / ((m+1)(m+2) M_m) over
    # m(m-1) / (2(m+1)(m+2)) tends to 1 from above, about as 1 + 6/m**2,
    # where a power law would send it to 0 and another beta would leave a
    # 2(beta + 2)/m term
    table = moments.build_phi_table(32)
    excess = []
    for m in range(4, 31, 2):
        r = table.moment(m + 2) / ((m + 1) * (m + 2) * table.moment(m))
        excess.append(r / Fraction(m * (m - 1), 2 * (m + 1) * (m + 2)) - 1)
        assert 0 < excess[-1] < Fraction(7, m * m)
    assert all(a > b for a, b in zip(excess, excess[1:]))  # falling in m
    assert [round(float(1 + excess[k]), 4) for k in (0, 1, 5, 13)] == [
        1.1944, 1.0633, 1.022, 1.0063
    ]


def test_sigma_enters_only_through_the_power():
    table = moments.build_phi_table(6)
    m6 = table.moment(6)
    assert type(m6) is Fraction
    for sigma in (0.1, 3.0):
        assert float(m6) * sigma**6 == pytest.approx(215 / 24 * sigma**6, rel=1e-15)
    assert m6.numerator == 215 and m6.denominator == 24


def test_moment_errors():
    table = moments.build_phi_table(4)
    with pytest.raises(ValueError):
        table.moment(6)
    with pytest.raises(ValueError):
        table.moment(0)


def test_missing_dependency_is_internal_error():
    with pytest.raises(RuntimeError, match="internal error"):
        moments._level_sums([(1, 1)], {}, 3)


def test_recursion_step_rejects_invalid_partitions():
    with pytest.raises(ValueError):
        moments._level_sums([()], {}, 3)
    with pytest.raises(ValueError):
        moments._level_sums([(2, 0)], {}, 3)


def test_second_moment_matches_limit_cf_curvature():
    # cross-module: the finite-difference curvature of the diagonal limit
    # family at 0 approaches -moment(2) as the ensemble grows
    from turnover import charfn

    sigma = 0.1
    table = moments.build_phi_table(2)
    target = -float(table.moment(2)) * sigma**2
    h = 0.25
    gaps = []
    for n in (4, 12):
        curv = (
            charfn.particle_cf_limit(h, n, sigma)
            - 2.0
            + charfn.particle_cf_limit(-h, n, sigma)
        ) / h**2
        gaps.append(abs(curv - target))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.1 * abs(target)


def test_order_24_table_digest():
    # every Fraction of the table as built by the ungrouped k^2 recursion
    table = moments.build_phi_table(24)
    text = "\n".join(f"{parts}:{value}" for parts, value in table.items_in_order())
    assert text.count("\n") + 1 == 7338
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e32f013a5181a5bfbbddc200a592a2ec71ec31869eadf01caf3c83a6328e7cc5"
    )


def test_order_30_table_digest():
    # every Fraction of the table as built by the per-partition Fraction
    # recursion, before the level-by-level integer build
    table = moments.build_phi_table(30)
    text = "\n".join(f"{parts}:{value}" for parts, value in table.items_in_order())
    assert text.count("\n") + 1 == 28629
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "89fd55422188f07b718c899fbeaa69bd3b396727b11ac6fb160991da8aa9c494"
    )


def test_order_26_table_lists_every_partition():
    # the table reads every partition of 0..26, odd orders included, as 0
    table = moments.build_phi_table(26)
    items = list(table.items_in_order())
    expected = [parts for n in range(27) for parts in moments.partitions(n)]
    assert len(items) == 11732
    assert [parts for parts, _ in items] == expected
    odd = [value for parts, value in items if sum(parts) % 2]
    assert odd and all(type(v) is Fraction and v == 0 for v in odd)
    assert dict(items)[3, 2] == 0


def test_items_in_order_streams_canonically():
    table = moments.build_phi_table(5)
    keys = [k for k, _ in table.items_in_order()]
    expected = []
    for n in range(6):
        expected.extend(moments.partitions(n))
    assert keys == expected
