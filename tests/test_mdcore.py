import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from score_lab import (
    InvalidInputError,
    conjugate,
    corners,
    hook_lengths,
    is_core,
    md_is_core,
    md_is_simultaneous_core,
    md_to_partition,
    partition_to_md,
    phi_context,
    phi_inverse,
    validate_md,
)
from score_lab.mdcore import (
    _corners,
    _hook_mask,
    _mask_corners,
    _mask_hooks,
    _md_to_partition,
    _partition_record,
    validate_partition,
)

from conftest import sc_partitions_up_to

md_sets = st.frozensets(st.integers(0, 50).map(lambda k: 2 * k + 1), max_size=9).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
partitions = st.lists(st.integers(1, 14), max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@pytest.mark.parametrize(
    "md,parts",
    [((), ()), ((5,), (3, 1, 1)), ((3, 1), (2, 2))],
)
def test_md_to_partition_small(md, parts):
    assert md_to_partition(md) == parts
    assert partition_to_md(parts) == md


def test_md_to_partition_rejects_bad_hooks():
    with pytest.raises(InvalidInputError):
        md_to_partition((4,))
    with pytest.raises(InvalidInputError):
        md_to_partition((3, 3))
    with pytest.raises(InvalidInputError):
        validate_md((-1,))


@pytest.mark.parametrize(
    "parts,message",
    [
        ((2, 0), "parts must be positive integers, got 0"),
        ((3, -1), "parts must be positive integers, got -1"),
        ((2.0,), "parts must be positive integers, got 2.0"),
        (("1",), "parts must be positive integers, got '1'"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        ((3, 1, 2), "parts must be weakly decreasing, got (3, 1, 2)"),
    ],
)
def test_validate_partition_messages(parts, message):
    with pytest.raises(InvalidInputError) as caught:
        validate_partition(parts)
    assert str(caught.value) == message


def test_partition_to_md_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        partition_to_md((3, 1))


def test_hook_table_reference():
    assert hook_lengths((5, 4, 2, 1)) == (
        (8, 6, 4, 3, 1),
        (6, 4, 2, 1),
        (3, 1),
        (1,),
    )
    assert hook_lengths(()) == ()
    assert hook_lengths((1,)) == ((1,),)


def test_is_core_reference_partition():
    parts = (5, 4, 2, 1)
    core_moduli = {5, 7} | set(range(9, 20))
    for t in range(1, 20):
        assert is_core(parts, t) == (t in core_moduli)
    assert is_core((), 3)
    with pytest.raises(InvalidInputError):
        is_core(parts, 0)


def test_md_is_core_worked_example():
    md = (77, 41, 35, 27, 19, 11, 5, 3)
    for t in (21, 25, 29, 33, 37):
        assert md_is_core(md, t)
    assert not md_is_core((5,), 5)  # 5 + 5 is 0 mod 10
    assert md_is_core((), 4)


def test_simultaneous_core_worked_examples():
    assert md_is_simultaneous_core(
        (67, 65, 21, 19, 15, 13, 11, 9, 7, 3, 1), (23, 26, 29, 32)
    )
    assert md_is_simultaneous_core(
        (65, 61, 21, 17, 15, 13, 11, 9, 5, 3), (22, 25, 28, 31)
    )
    assert not md_is_simultaneous_core((3,), (3, 4))
    with pytest.raises(InvalidInputError):
        md_is_simultaneous_core((3,), ())


def test_simultaneous_core_reads_its_moduli_once():
    # An iterator, a generator and a set give the tuple's answer.
    assert md_is_simultaneous_core((3,), iter((3,))) is False
    for moduli in ((3,), (3, 4), (2, 5, 8), (4, 7)):
        for md in sc_partitions_up_to(14):
            expected = md_is_simultaneous_core(md, moduli)
            assert md_is_simultaneous_core(md, iter(moduli)) == expected, (md, moduli)
            assert md_is_simultaneous_core(md, (t for t in moduli)) == expected
            assert md_is_simultaneous_core(md, set(moduli)) == expected
    with pytest.raises(InvalidInputError):
        md_is_simultaneous_core((3,), iter(()))


def test_corners_small():
    assert corners(()) == 0
    assert corners((1,)) == 1
    assert corners((2, 2)) == 1
    assert corners((5, 4, 2, 1)) == 4


def test_corners_read_off_the_hook_mask():
    # verify counts a d = 1 core's corners off its hook mask; the partition
    # route stays the reference, on every self-conjugate partition up to 60.
    mds = sc_partitions_up_to(60)
    assert len(mds) == 2743
    for md in mds:
        assert _mask_corners(_hook_mask(md)) == _corners(_md_to_partition(md)), md


def test_hook_mask_sets_one_bit_per_hook_in_linear_time():
    # Summing shifted bits largest first copies a long int per hook; on the
    # 62,500 hooks of this s = 1001 core that was most of public phi's time.
    def summed(hooks):
        return sum(map((1).__lshift__, hooks))

    for md in ((), (1,), (7, 3, 1), (65, 9, 7, 1), (1001, 999)):
        assert _hook_mask(md) == summed(md), md
    big = phi_inverse("U" * 250 + "D" * 251, phi_context(1001, 1, 2))
    assert len(big) == 62_500
    start = time.perf_counter()
    mask = _hook_mask(big)
    linear = time.perf_counter() - start
    start = time.perf_counter()
    expected = summed(big)
    quadratic = time.perf_counter() - start
    assert mask == expected
    assert linear <= quadratic / 4


def _cleared_top_first(mask):
    """Set bits of ``mask``, largest first, clearing the top bit once per hook."""
    hooks = []
    while mask:
        h = mask.bit_length() - 1
        hooks.append(h)
        mask ^= 1 << h
    return tuple(hooks)


def test_mask_hooks_lists_each_set_bit_largest_first():
    rng = random.Random(34)
    masks = [0, 1, 2, 3, 5, (1 << 40) | 1]
    for width in (7, 8, 9, 64, 162, 9_999, 10_000, 10_001):
        top = 1 << (width - 1)
        masks += [top, top | 1, top | rng.getrandbits(width - 1)]
        masks.append(top | sum(1 << rng.randrange(width) for _ in range(50)))
    for mask in masks:
        assert _mask_hooks(mask) == _cleared_top_first(mask), mask.bit_length()


def test_mask_hooks_lists_one_hook_per_set_bit_in_linear_time():
    # Clearing the top bit of a long int copies it once per hook; on the
    # 62,500 hooks of this s = 1001 core the digit walk reads it once.
    mask = _hook_mask(phi_inverse("U" * 250 + "D" * 251, phi_context(1001, 1, 2)))
    assert mask.bit_count() == 62_500
    start = time.perf_counter()
    hooks = _mask_hooks(mask)
    linear = time.perf_counter() - start
    start = time.perf_counter()
    expected = _cleared_top_first(mask)
    quadratic = time.perf_counter() - start
    assert hooks == expected
    assert linear <= quadratic / 4


@given(md_sets)
def test_md_roundtrip(md):
    parts = md_to_partition(md)
    assert conjugate(parts) == parts
    assert partition_to_md(parts) == md
    assert sum(parts) == sum(md)


@given(partitions)
def test_conjugate_is_an_involution(parts):
    assert conjugate(conjugate(parts)) == parts


def test_both_core_tests_agree_on_small_self_conjugates():
    # Hook-table route vs diagonal-hook-set route, all sizes <= 40.
    for md in sc_partitions_up_to(40):
        parts = md_to_partition(md)
        for t in range(1, 13):
            assert md_is_core(md, t) == is_core(parts, t), (md, t)


def test_coprime_pair_sum_never_a_diagonal_hook():
    # For a simultaneous (s, t)-core with coprime s, t, the hook s + t
    # cannot occur on the diagonal.
    for md in sc_partitions_up_to(30):
        for s, t in ((2, 3), (3, 4), (4, 5), (3, 5)):
            if md_is_simultaneous_core(md, (s, t)):
                assert s + t not in md


def test_partition_record_shape():
    assert _partition_record((3, 1)) == {
        "parts": [2, 2],
        "md": [3, 1],
        "corners": 1,
        "size": 4,
    }
    assert _partition_record(()) == {"parts": [], "md": [], "corners": 0, "size": 0}
