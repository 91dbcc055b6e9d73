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


def test_prune_examples():
    assert moments.prune((1, 0, 3, 1)) == (3, 1, 1)
    assert moments.prune((0, 0, 0)) == ()
    assert moments.prune((5, 2)) == (5, 2)


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_prune_idempotent_and_sorted(entries):
    once = moments.prune(entries)
    assert moments.prune(once) == once
    assert all(v > 0 for v in once)
    assert sum(once) == sum(entries)


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
    merged = moments.prune(merged)
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
    # satisfied by the closed-form seeds
    table = {(): Fraction(1)}
    for n in range(1, 13):
        table[(n,)] = moments.phi_base(n)
    for n in range(2, 13):
        assert moments.recursion_step((n,), table) == moments.phi_base(n)


def test_recursion_worked_examples():
    table = moments.build_phi_table(4)
    assert table.coefficient((1, 1)) == Fraction(-1, 2)
    assert table.coefficient((2, 1, 1)) == Fraction(11, 6)
    assert table.coefficient((1, 1, 1, 1)) == Fraction(5, 4)


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
    assert {k for k, _ in table.items_in_order()} == expected_keys
    assert table.coefficient((3, 1)) == Fraction(3)
    assert table.coefficient((2, 2)) == Fraction(3)
    assert table.coefficient((2, 1)) == Fraction(0)
    assert table.coefficient((1, 1, 1)) == Fraction(0)


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
    with pytest.raises(ValueError):
        table.coefficient((5, 1))


def test_missing_dependency_is_internal_error():
    with pytest.raises(RuntimeError, match="internal error"):
        moments.recursion_step((1, 1), {})


def test_recursion_step_rejects_invalid_partitions():
    with pytest.raises(ValueError):
        moments.recursion_step((), {})
    with pytest.raises(ValueError):
        moments.recursion_step((2, 0), {})


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


def test_items_in_order_streams_canonically():
    table = moments.build_phi_table(5)
    keys = [k for k, _ in table.items_in_order()]
    expected = []
    for n in range(6):
        expected.extend(moments.partitions(n))
    assert keys == expected
