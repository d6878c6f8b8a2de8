from decimal import Decimal
from math import gcd

import pytest

import score_lab.formulas as formulas_mod
from score_lab import (
    CountResult,
    InvalidInputError,
    binom,
    check_shift_equivalence,
    count_corners_p2,
    count_corners_p3,
    count_sc_d1,
    count_sc_p2,
    count_sc_p3,
    count_sc_pair,
    count_sym_motzkin,
    count_via_paths,
    multinom,
)
from score_lab.formulas import closed_forms


def test_kernel_guards():
    assert binom(4, 2) == 6
    assert binom(3, -1) == 0
    assert binom(-1, 0) == 0
    assert binom(2, 5) == 0
    assert multinom(2, (0, 1, 1)) == 2
    assert multinom(2, (1, 1, 1)) == 0  # parts do not sum to n
    assert multinom(3, (-1, 2, 2)) == 0


def test_multinom_reads_its_parts_once():
    # An iterator, a generator and a set give the tuple's answer.
    for n, parts in ((3, (1, 1, 1)), (4, (1, 3)), (3, (-1, 2, 2)), (2, (1, 1, 1))):
        expected = multinom(n, parts)
        assert multinom(n, iter(parts)) == expected
        assert multinom(n, (k for k in parts)) == expected
        if len(set(parts)) == len(parts):
            assert multinom(n, set(parts)) == expected
    assert multinom(3, iter((1, 1, 1))) == 6


def test_three_term_progression_counts():
    assert count_sc_p2(3, 2).value == 2
    assert count_sc_p2(5, 1).value == 5
    for d in (1, 2, 3, 4, 5):
        assert count_sc_p2(1, d).value == 1
    with pytest.raises(InvalidInputError):
        count_sc_p2(4, 2)


def test_four_term_progression_counts():
    assert count_sc_p3(3, 2).value == 2
    for d in (1, 2, 3):
        assert count_sc_p3(1, d).value == 1


def test_unit_step_counts():
    assert count_sc_d1(5, 2).value == 5
    for p in (2, 3, 4, 7):
        assert count_sc_d1(1, p).value == 1
    with pytest.raises(InvalidInputError):
        count_sc_d1(5, 1)


def test_pair_counts():
    assert count_sc_pair(2, 3).value == 2
    for s in range(1, 12):
        assert count_sc_pair(s, s + 1).value == binom(s, s // 2)
    for t in (2, 3, 8):
        assert count_sc_pair(1, t).value == 1
    with pytest.raises(InvalidInputError):
        count_sc_pair(4, 6)


def test_symmetric_motzkin_counts():
    assert count_sym_motzkin(1).value == 1
    assert count_sym_motzkin(2).value == 2
    assert count_sym_motzkin(5).value == 5


def test_three_p2_routes_agree_up_to_40_and_at_999_to_1001():
    # formula-p2, the symmetric Motzkin sum and formula-d1 (summed k
    # outside at p = 2) share no code, so they meet only on exact counts.
    for s in (*range(1, 41), 999, 1000, 1001):
        a = count_sc_p2(s, 1).value
        assert a == count_sym_motzkin(s).value
        assert a == count_sc_d1(s, 2).value


def test_corner_counts():
    assert count_corners_p2(5, 1).value == 2
    for s in (1, 4, 9, 16):
        assert count_corners_p2(s, 0).value == 1
    assert sum(count_corners_p2(5, m).value for m in range(6)) == 5
    for s in range(1, 41):
        total_p2 = sum(count_corners_p2(s, m).value for m in range(s + 2))
        assert total_p2 == count_sc_p2(s, 1).value
        total_p3 = sum(count_corners_p3(s, m).value for m in range(s + 2))
        assert total_p3 == count_sc_p3(s, 1).value
    with pytest.raises(InvalidInputError):
        count_corners_p2(5, -1)


@pytest.mark.parametrize(
    "count",
    [
        lambda s: count_sc_d1(s, 2),
        count_sym_motzkin,
        lambda s: count_corners_p2(s, -1),  # s is checked before m
        lambda s: count_corners_p3(s, -1),
    ],
    ids=["d1", "sym-motzkin", "corners-p2", "corners-p3"],
)
@pytest.mark.parametrize("s", [0, -3, 2.0, "5", None])
def test_counts_refuse_a_bad_s(count, s):
    with pytest.raises(InvalidInputError) as caught:
        count(s)
    assert str(caught.value) == f"s must be a positive integer, got {s!r}"


def test_count_methods_tagged():
    assert count_sc_p2(3, 2).method == "formula-p2"
    assert count_sc_p3(3, 2).method == "formula-p3"
    assert count_sc_d1(3, 2).method == "formula-d1"
    assert count_sc_pair(2, 3).method == "formula-pair"
    assert count_sym_motzkin(3).method == "sym-motzkin"
    assert count_via_paths(3, 2, 2).method == "dp"
    assert count_sc_pair(2, 3).as_json() == {"value": "2", "method": "formula-pair"}


def test_dp_route_agrees_with_formulas():
    instances = checked = 0
    for s in range(1, 61):
        for d in range(1, 7):
            if gcd(s, d) != 1:
                continue
            for p in range(2, 7):
                instances += 1
                dp = count_via_paths(s, d, p).value
                for result in closed_forms(s, d, p):
                    assert result.value == dp, (s, d, p, result.method)
                    checked += 1
    assert (instances, checked) == (1140, 756)


def test_dp_route_agrees_with_formulas_far_past_enumeration():
    instances = checked = 0
    for s in (127, 256, 257, 499, 500):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            for p in (2, 3, 4):
                instances += 1
                dp = count_via_paths(s, d, p).value
                for result in closed_forms(s, d, p):
                    assert result.value == dp, (s, d, p, result.method)
                    checked += 1
    assert (instances, checked) == (48, 47)


def literal_d1_sum(s, p):
    """The paper's d = 1 double sum, term by term: k outside, l inside."""
    total = 1
    for k in range(1, s // 2 + 1):
        r = k - 1 if p == 2 else min(k - 1, (s - 2 * k) // (p - 2))
        for ell in range(r + 1):
            total += (
                binom((k - 1) // 2, ell // 2)
                * binom(k // 2, (ell + 1) // 2)
                * binom((s - ell * (p - 2)) // 2, k)
            )
    return total


def test_unit_step_sum_matches_the_literal_double_sum():
    for s in range(1, 201):
        for p in range(2, 9):
            assert count_sc_d1(s, p).value == literal_d1_sum(s, p), (s, p)


def test_shift_equivalence():
    assert check_shift_equivalence(2, 1, 2)
    assert check_shift_equivalence(4, 3, 2)
    assert check_shift_equivalence(10, 1, 4)
    with pytest.raises(InvalidInputError):
        check_shift_equivalence(2, 2, 2)  # d must be odd
    with pytest.raises(InvalidInputError):
        check_shift_equivalence(3, 1, 2)  # s must be even
    with pytest.raises(InvalidInputError):
        check_shift_equivalence(2, 1, 3)  # p must be even
    with pytest.raises(InvalidInputError):
        check_shift_equivalence(2, 3, 2)  # s+1 shares a factor with d


def test_shift_equivalence_fails_on_a_formula_mismatch(monkeypatch):
    # The DP sides still agree, so only the p = 2 formula check can fail.
    true_p2 = formulas_mod.count_sc_p2

    def off_by_one(s, d):
        return CountResult(true_p2(s, d).value + 1, "formula-p2")

    assert check_shift_equivalence(4, 3, 2)
    monkeypatch.setattr(formulas_mod, "count_sc_p2", off_by_one)
    assert check_shift_equivalence(4, 3, 2) is False


def test_counts_grow_without_overflow():
    # the closed forms must stay exact far beyond 64-bit range
    assert count_sc_pair(101, 102).value == binom(101, 50)
    assert count_sc_p2(121, 2).value > 2**64


def test_count_json_keeps_every_digit():
    result = count_sc_pair(14401, 14403)
    record = result.as_json()
    assert record["method"] == "formula-pair"
    assert len(record["value"]) > 4300 and record["value"].isdigit()
    assert int(Decimal(record["value"])) == result.value
