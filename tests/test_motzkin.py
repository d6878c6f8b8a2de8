import itertools
import re
import tracemalloc
from math import comb, gcd

import pytest

from score_lab import (
    InvalidInputError,
    InvalidPathError,
    constraints_for,
    count_paths_dp,
    count_via_paths,
    enumerate_paths,
    satisfies,
)
from score_lab import motzkin
from score_lab.motzkin import EMPTY_CONSTRAINTS, PathConstraintSet


def free_path_count(x, y):
    # trinomial expansion: choose the up steps, then the downs
    k = abs(y)
    return sum(
        comb(x, i) * comb(x - i, i + k)
        for i in range((x - k) // 2 + 1)
    )


def literal_forbidden_words(s, d, p):
    """The banned factors, prefixes and suffixes of (s, d, p), spelled out.

    The rule as the paper states it, one word per banned pattern, kept
    as the reference for the integer tops of `constraints_for`.
    """
    if s % 2 == 1 and d % 2 == 0:
        prefixes, suffixes = range((p - 2) // 2), range((p - 1) // 2)
    elif s % 2 == 1:
        prefixes, suffixes = range((p - 2) // 2), range(p - 1)
    else:
        prefixes, suffixes = range((p - 1) // 2), range(p - 1)
    return (
        tuple("U" + "F" * i + "U" for i in range(p - 2)),
        tuple("F" * j + "U" for j in prefixes),
        tuple("U" + "F" * k for k in suffixes),
    )


def literal_satisfies(word, words):
    factors, prefixes, suffixes = words
    return not (
        any(w in word for w in factors)
        or word.startswith(prefixes)
        or word.endswith(suffixes)
    )


def tops(c):
    return c.factor_top, c.prefix_top, c.suffix_top


def test_constraint_sets_reference():
    c = constraints_for(21, 4, 4)
    assert c.parity_case == "odd_even"
    assert tops(c) == (1, 0, 0)  # UU, UFU; prefix U; suffix U
    assert literal_forbidden_words(21, 4, 4) == (("UU", "UFU"), ("U",), ("U",))

    assert tops(constraints_for(3, 2, 2)) == (-1, -1, -1)
    assert literal_forbidden_words(3, 2, 2) == ((), (), ())

    c = constraints_for(22, 3, 3)
    assert c.parity_case == "even_odd"
    assert tops(c) == (0, 0, 1)  # UU; prefix U; suffixes U, UF
    assert literal_forbidden_words(22, 3, 3) == (("UU",), ("U",), ("U", "UF"))

    # both odd-d cases forbid a bare trailing U already at p = 2
    assert constraints_for(3, 1, 2).suffix_top == 0
    assert constraints_for(2, 1, 2).suffix_top == 0
    assert constraints_for(3, 2, 2).suffix_top == -1


def test_satisfies_matches_the_literal_forbidden_words():
    # Every word of length <= 8 against every distinct constraint set of
    # coprime s < 30, d < 8, p = 2..9: the tops and the one pattern that
    # tests them ban exactly the spelled-out words.
    sets = {}
    for s in range(1, 30):
        for d in range(1, 8):
            if gcd(s, d) == 1:
                for p in range(2, 10):
                    words = literal_forbidden_words(s, d, p)
                    assert sets.setdefault(constraints_for(s, d, p), words) == words
    assert len(sets) == 24
    all_words = ["".join(w) for n in range(9) for w in itertools.product("UDF", repeat=n)]
    for cset, words in sets.items():
        for word in all_words:
            x, y = len(word), word.count("U") - word.count("D")
            assert satisfies(word, cset, x, y) == literal_satisfies(word, words), (cset, word)


def test_constraint_sets_stay_small_for_long_progressions():
    # Three integers whatever p is, where one string per banned factor
    # grew quadratically in p (about 12.5 MB at p = 4000).
    tracemalloc.start()
    try:
        constraints_for(3, 2, 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert tops(constraints_for(3, 2, 4000)) == (3997, 1998, 1998)
    assert count_via_paths(3, 2, 4000).value == 2


def test_constraints_for_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        constraints_for(4, 2, 2)
    with pytest.raises(InvalidInputError):
        constraints_for(3, 2, 1)


@pytest.mark.parametrize(
    "tops,bad",
    [
        ((0, -1, -2), "suffix_top"),  # the DP counted 63 words of type (6, 0), not 95
        ((2, -1, -4), "suffix_top"),  # and 52, not 80
        ((-2, -1, -1), "factor_top"),  # the DP's lagged read raised IndexError
        ((-3, 0, 0), "factor_top"),  # no climb span: factor_top + 2 would be -1
        ((1, 0.0, 1), "prefix_top"),
    ],
)
def test_constraint_sets_refuse_tops_below_minus_one(tops, bad):
    # -1 already bans nothing, and the DP reads a top as a run length, so a
    # lower one would mean "ban nothing" to `satisfies` and not to the DP.
    with pytest.raises(InvalidInputError, match=f"{bad} must be an integer >= -1"):
        PathConstraintSet("odd_even", *tops)
    # `_replace` builds through the same check.
    with pytest.raises(InvalidInputError, match=f"{bad} must be an integer >= -1"):
        EMPTY_CONSTRAINTS._replace(**dict(zip(PathConstraintSet._fields[1:], tops)))


def test_satisfies_worked_examples():
    assert satisfies("FDUFFUDDDDUF", constraints_for(21, 4, 4), 12, -2)
    assert satisfies("FDUFFUDDDDUFF", constraints_for(23, 3, 3), 13, -2)
    assert not satisfies("FDUFFUDDDDUF", constraints_for(21, 4, 4), 12, 2)
    assert not satisfies("FDUFFUDDDDUF", constraints_for(21, 4, 4), 13, -2)  # too short
    assert not satisfies("FFU", constraints_for(2, 1, 2), 3, 1)  # ends with U
    with pytest.raises(InvalidPathError):
        satisfies("FXU", EMPTY_CONSTRAINTS, 3, 1)


def test_enumerate_paths_small():
    assert enumerate_paths(1, -1, EMPTY_CONSTRAINTS) == ["D"]
    assert enumerate_paths(2, 0, EMPTY_CONSTRAINTS) == ["UD", "DU", "FF"]
    assert enumerate_paths(2, -1, constraints_for(3, 2, 2)) == ["DF", "FD"]
    assert enumerate_paths(1, -2, EMPTY_CONSTRAINTS) == []
    with pytest.raises(InvalidInputError):
        enumerate_paths(-1, 0, EMPTY_CONSTRAINTS)


@pytest.mark.parametrize(
    "route,y",
    [(count_paths_dp, 0.0), (count_paths_dp, "a"), (enumerate_paths, 0.5)],
)
def test_path_routes_refuse_a_final_height_that_is_no_integer(route, y):
    # No path type has such a height: each route says so, rather than
    # failing inside its arithmetic or listing no path.
    with pytest.raises(InvalidInputError, match=f"final height must be an integer, got {y!r}"):
        route(3, y, constraints_for(3, 2, 2))


@pytest.mark.parametrize(
    "x,y,message",
    [
        (2, -1.0, "final height must be an integer, got -1.0"),
        (2.0, -1, "path length must be a nonnegative integer, got 2.0"),
        (2, "a", "final height must be an integer, got 'a'"),
        (-2, -1, "path length must be a nonnegative integer, got -2"),
    ],
)
def test_satisfies_refuses_what_is_no_path_type(x, y, message):
    # "FD" has type (2, -1) and avoids every ban of (3, 2, 2), so a type that
    # merely compares equal to it must not pass, nor one that is no type at all.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        satisfies("FD", constraints_for(3, 2, 2), x, y)


def test_enumeration_is_ordered_and_clean():
    order = {"U": 0, "D": 1, "F": 2}
    for y in (-2, 0, 1):
        paths = enumerate_paths(6, y, constraints_for(22, 3, 3))
        assert len(set(paths)) == len(paths)
        keys = [[order[c] for c in path] for path in paths]
        assert keys == sorted(keys)
        for path in paths:
            assert satisfies(path, constraints_for(22, 3, 3), 6, y)


# Twelve structurally distinct constraint shapes: three parity cases
# crossed with p = 2..5.
CASE_PARAMS = [
    (s, d, p)
    for (s, d) in ((3, 2), (3, 5), (2, 5))
    for p in (2, 3, 4, 5)
]


@pytest.mark.parametrize("s,d,p", CASE_PARAMS)
def test_dp_matches_enumeration(s, d, p):
    cset = constraints_for(s, d, p)
    for x in range(0, 8):
        for y in range(-x, x + 1):
            assert count_paths_dp(x, y, cset) == len(enumerate_paths(x, y, cset))


def test_dp_matches_enumeration_longer_spot_check():
    for (s, d, p) in ((21, 4, 4), (22, 3, 3), (23, 3, 5)):
        cset = constraints_for(s, d, p)
        for y in (-3, -2, 0):
            assert count_paths_dp(10, y, cset) == len(enumerate_paths(10, y, cset))


# Long prefix and suffix bans (prefix_top 1, suffix_top 1, 3 and 5) and no
# bans at all: the all-flat prefix runs to the end of short paths, and the
# DP's lagged reads reach back past the first step.
EDGE_SETS = {
    "7,2,6": constraints_for(7, 2, 6),
    "8,3,5": constraints_for(8, 3, 5),
    "9,1,7": constraints_for(9, 1, 7),
    "empty": EMPTY_CONSTRAINTS,
}


@pytest.mark.parametrize("name", EDGE_SETS)
def test_dp_matches_enumeration_at_the_edges_of_its_state_space(name):
    cset = EDGE_SETS[name]
    for x in range(0, 10):
        for y in range(-x - 1, x + 2):
            assert count_paths_dp(x, y, cset) == len(enumerate_paths(x, y, cset)), (x, y)


@pytest.mark.parametrize("s,d", [(3, 2), (3, 5), (2, 5)])  # one per parity case
def test_dp_matches_enumeration_when_the_bans_outgrow_the_path(s, d):
    # No U in a path of length x is followed by x flats, so the DP keeps at
    # most x cumulative rise vectors however long the bans grow with p.
    for x in range(10):
        for p in sorted({*range(2, x + 3), 2 * x, 3 * x, 4 * x} - {0, 1}):
            cset = constraints_for(s, d, p)
            for y in (-2, -1, 0):
                assert count_paths_dp(x, y, cset) == len(enumerate_paths(x, y, cset)), (x, p, y)


def test_dp_matches_enumeration_on_every_top_triple():
    # Every (factor, prefix, suffix) top in -1..4, at heights up to x + 1:
    # past ceil(x / (factor_top + 2)) the factor ban leaves no word, and the
    # climb-rate window is cut at both ends.
    for tops in itertools.product(range(-1, 5), repeat=3):
        cset = PathConstraintSet("odd_even", *tops)
        for x in range(8):
            for y in range(-x - 1, x + 2):
                assert count_paths_dp(x, y, cset) == len(enumerate_paths(x, y, cset)), (
                    tops, x, y
                )


def test_dp_adds_only_over_the_heights_a_path_can_climb_to(monkeypatch):
    # Under the factor ban a word climbs one unit per factor_top + 2 steps at
    # best, so the DP keeps about a third of the heights an unbanned path
    # could reach at (201, 1, 6): four element adds per kept height and step.
    s, d, p = 201, 1, 6
    cset = constraints_for(s, d, p)
    x, y = s // 2 + (d + 1) // 2, -((d + 1) // 2)

    def window_widths(span):
        def ceil(n):
            return -(-n // span)

        return sum(
            min(ceil(n), y + x - n) - max(-n, y - ceil(x - n)) + 1 for n in range(1, x + 1)
        )

    expected = count_paths_dp(x, y, cset)
    adds = 0

    def counting_add(a, b):
        nonlocal adds
        adds += 1
        return a + b

    monkeypatch.setattr(motzkin, "add", counting_add)
    assert count_paths_dp(x, y, cset) == expected
    assert adds <= 4 * window_widths(cset.factor_top + 2)
    assert adds <= 0.4 * 4 * window_widths(1)


def test_dp_run_states_stop_growing_past_the_path_length():
    # x = 101 for (201, 2): from p = 200 on every ban is longer than the path,
    # so the count stops changing, and the DP must size nothing by p (10**30
    # is past the longest deque a machine word can size).
    assert count_via_paths(201, 2, 6400) == count_via_paths(201, 2, 200)
    assert count_via_paths(201, 2, 10**6) == count_via_paths(201, 2, 200)
    assert count_via_paths(201, 2, 10**30) == count_via_paths(201, 2, 200)


def test_unconstrained_count_is_trinomial():
    for x in range(0, 13):
        for y in range(-x, x + 1):
            assert count_paths_dp(x, y, EMPTY_CONSTRAINTS) == free_path_count(x, y)
    for x in range(0, 8):
        for y in range(-x, x + 1):
            assert len(enumerate_paths(x, y, EMPTY_CONSTRAINTS)) == free_path_count(x, y)


def test_out_of_reach_type_counts_zero():
    assert count_paths_dp(3, 5, EMPTY_CONSTRAINTS) == 0
    assert count_paths_dp(0, 0, EMPTY_CONSTRAINTS) == 1


def test_big_counts_are_exact_integers():
    # lengths far beyond machine-word binomials
    value = count_paths_dp(120, 0, EMPTY_CONSTRAINTS)
    assert value == free_path_count(120, 0)
    assert value > 2**63
