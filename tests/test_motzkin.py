import itertools
from math import comb

import pytest

from score_lab import (
    InvalidInputError,
    InvalidPathError,
    constraints_for,
    count_paths_dp,
    enumerate_paths,
    flat_count,
    last_step,
    path_type,
    satisfies,
)
from score_lab.motzkin import EMPTY_CONSTRAINTS


def free_path_count(x, y):
    # trinomial expansion: choose the up steps, then the downs
    k = abs(y)
    return sum(
        comb(x, i) * comb(x - i, i + k)
        for i in range((x - k) // 2 + 1)
    )


def test_constraint_sets_reference():
    c = constraints_for(21, 4, 4)
    assert c.parity_case == "odd_even"
    assert c.forbidden_factors == ("UU", "UFU")
    assert c.forbidden_prefixes == ("U",)
    assert c.forbidden_suffixes == ("U",)

    c = constraints_for(3, 2, 2)
    assert (c.forbidden_factors, c.forbidden_prefixes, c.forbidden_suffixes) == (
        (),
        (),
        (),
    )

    c = constraints_for(22, 3, 3)
    assert c.parity_case == "even_odd"
    assert c.forbidden_factors == ("UU",)
    assert c.forbidden_prefixes == ("U",)
    assert c.forbidden_suffixes == ("U", "UF")

    # both odd-d cases forbid a bare trailing U already at p = 2
    assert constraints_for(3, 1, 2).forbidden_suffixes == ("U",)
    assert constraints_for(2, 1, 2).forbidden_suffixes == ("U",)
    assert constraints_for(3, 2, 2).forbidden_suffixes == ()


def test_constraints_for_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        constraints_for(4, 2, 2)
    with pytest.raises(InvalidInputError):
        constraints_for(3, 2, 1)


def test_satisfies_worked_examples():
    assert satisfies("FDUFFUDDDDUF", constraints_for(21, 4, 4), 12, -2)
    assert satisfies("FDUFFUDDDDUFF", constraints_for(23, 3, 3), 13, -2)
    assert not satisfies("FDUFFUDDDDUF", constraints_for(21, 4, 4), 12, 2)
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
# bans at all: the all-flat prefix runs to the end of short paths, and
# U-runs saturate at their cap before the path ends.
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


def test_unconstrained_count_is_trinomial():
    for x in range(0, 13):
        for y in range(-x, x + 1):
            assert count_paths_dp(x, y, EMPTY_CONSTRAINTS) == free_path_count(x, y)
    for x in range(0, 8):
        for y in range(-x, x + 1):
            assert len(enumerate_paths(x, y, EMPTY_CONSTRAINTS)) == free_path_count(x, y)


def test_step_statistics():
    assert flat_count("FDUFFUDDDDUF") == 4
    assert last_step("FDUFFUDDDDUF") == "F"
    assert flat_count("") == 0
    assert last_step("") is None
    assert flat_count("UD") == 0
    assert last_step("UD") == "D"
    assert path_type("FDUFFUDDDDUF") == (12, -2)


def test_out_of_reach_type_counts_zero():
    assert count_paths_dp(3, 5, EMPTY_CONSTRAINTS) == 0
    assert count_paths_dp(0, 0, EMPTY_CONSTRAINTS) == 1


def test_big_counts_are_exact_integers():
    # lengths far beyond machine-word binomials
    value = count_paths_dp(120, 0, EMPTY_CONSTRAINTS)
    assert value == free_path_count(120, 0)
    assert value > 2**63
