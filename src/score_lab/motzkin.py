"""Free rational Motzkin paths with factor, prefix, and suffix constraints.

A free rational Motzkin path of type (x, y) is a word over the steps
U = (1, 1), D = (1, -1), F = (1, 0) of length x whose height changes
add up to y; "free" means the path may wander below its baseline.
Paths are plain strings over the alphabet ``UDF``.

The constraint sets produced by `constraints_for` describe the image of
the self-conjugate core encoding (see `score_lab.bijection`): the
forbidden patterns are always of the shapes ``UF^iU`` (factor),
``F^jU`` (prefix), and ``UF^k`` (suffix), with ranges depending on the
parities of s and d and on the progression length p.

Counting is available through two independent routes: exhaustive
generation (`enumerate_paths`) and a dynamic program over a small
automaton tracking the suffix shape (`count_paths_dp`).  They must
agree exactly, and the test suite enforces that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import add

from .errors import (
    InvalidInputError,
    InvalidPathError,
    check_progression,
    check_progression_length,
)

__all__ = [
    "PathConstraintSet",
    "constraints_for",
    "path_type",
    "flat_count",
    "last_step",
    "satisfies",
    "enumerate_paths",
    "count_paths_dp",
]

_RISES = (("U", 1), ("D", -1), ("F", 0))  # the steps in U < D < F order, with their rise
_ALPHABET = frozenset("UDF")


@dataclass(frozen=True)
class PathConstraintSet:
    """The banned patterns of one parameter triple, as the longest F-run each bans.

    A path may not contain ``UF^iU`` for i <= ``factor_top``, start with
    ``F^jU`` for j <= ``prefix_top`` or end with ``UF^k`` for
    k <= ``suffix_top``; a top of -1 bans nothing of that shape.
    """

    parity_case: str  # "odd_even", "odd_odd", "even_odd" or "unconstrained"
    factor_top: int
    prefix_top: int
    suffix_top: int

    @cached_property
    def pattern(self) -> re.Pattern | None:
        """One expression matching every banned pattern, or None when none is banned."""
        shapes = (
            (self.prefix_top, r"\AF{{0,{}}}U"),
            (self.factor_top, "UF{{0,{}}}U"),
            (self.suffix_top, r"UF{{0,{}}}\Z"),
        )
        alternatives = [shape.format(top) for top, shape in shapes if top >= 0]
        return re.compile("|".join(alternatives)) if alternatives else None


EMPTY_CONSTRAINTS = PathConstraintSet("unconstrained", -1, -1, -1)


def constraints_for(s: int, d: int, p: int) -> PathConstraintSet:
    """Constraint set for self-conjugate (s, s+d, ..., s+pd)-cores.

    Factor bans ``UF^iU`` for i <= p-3 apply in every parity case.  The
    prefix range ``F^jU`` and suffix range ``UF^k`` depend on the
    parities of s and d; notably both odd-d cases forbid a bare trailing
    U already at p = 2.  Floor division takes each top to -1 (no ban)
    for the small p where its range is empty.
    """
    check_progression(s, d)
    check_progression_length(p)
    if s % 2 == 1 and d % 2 == 0:
        return PathConstraintSet("odd_even", p - 3, (p - 4) // 2, (p - 3) // 2)
    if s % 2 == 1:
        return PathConstraintSet("odd_odd", p - 3, (p - 4) // 2, p - 2)
    return PathConstraintSet("even_odd", p - 3, (p - 3) // 2, p - 2)


def _validate_steps(steps: str) -> str:
    if not isinstance(steps, str) or not _ALPHABET.issuperset(steps):
        raise InvalidPathError(f"steps must be a string over U/D/F, got {steps!r}")
    return steps


def path_type(steps: str) -> tuple[int, int]:
    """Endpoint (x, y) of the path: length and final height."""
    return _path_type(_validate_steps(steps))


def _path_type(steps: str) -> tuple[int, int]:
    return len(steps), steps.count("U") - steps.count("D")


def flat_count(steps: str) -> int:
    """Number of F steps."""
    _validate_steps(steps)
    return steps.count("F")


def last_step(steps: str) -> str | None:
    """Final step letter, or None for the empty path."""
    _validate_steps(steps)
    return steps[-1] if steps else None


def satisfies(steps: str, constraints: PathConstraintSet, x: int, y: int) -> bool:
    """True when the path has type (x, y) and avoids every forbidden pattern."""
    return _satisfies(_validate_steps(steps), constraints, x, y)


def _satisfies(steps: str, constraints: PathConstraintSet, x: int, y: int) -> bool:
    """`satisfies` for a string already known to be over U/D/F."""
    if _path_type(steps) != (x, y):
        return False
    pattern = constraints.pattern
    return pattern is None or pattern.search(steps) is None


def enumerate_paths(x: int, y: int, constraints: PathConstraintSet) -> list[str]:
    """All admissible paths of type (x, y), in U < D < F lexicographic order.

    Generates every type-(x, y) word and filters it through `satisfies`,
    so the result is a constraint-logic-free oracle for `count_paths_dp`.
    A word is a left half of x // 2 steps followed by a right half whose
    net height brings it to y.  Each half is grown one step at a time in
    U, D, F order, keeping only the prefixes whose height can still end
    where a word of type (x, y) needs that half to end (see
    `_half_words`); the right halves are grouped by net height, and each
    left half, in order, is joined to its group, so the words come out
    in lexicographic order.
    """
    if not (isinstance(x, int) and x >= 0):
        raise InvalidInputError(f"path length must be a nonnegative integer, got {x!r}")
    if abs(y) > x:
        return []
    half = x // 2
    rest = x - half
    rights: dict[int, list[str]] = {}
    for right, height in _half_words(rest, y - half, y + half):
        rights.setdefault(height, []).append(right)
    return [
        word
        for left, height in _half_words(half, y - rest, y + rest)
        for word in map(left.__add__, rights.get(y - height, ()))
        if satisfies(word, constraints, x, y)
    ]


def _half_words(n: int, lo: int, hi: int) -> list[tuple[str, int]]:
    """The words of length n ending at a height in [lo, hi], with their heights.

    In U < D < F lexicographic order: each step extends every kept
    prefix by U, D and F in turn, and keeps the extension only when the
    steps still left can bring it into [lo, hi].
    """
    level = [("", 0)]
    for remaining in range(n - 1, -1, -1):
        level = [
            (word + letter, height + step)
            for word, height in level
            for letter, step in _RISES
            if lo - remaining <= height + step <= hi + remaining
        ]
    return level


def count_paths_dp(x: int, y: int, constraints: PathConstraintSet) -> int:
    """Number of admissible paths of type (x, y), by automaton DP.

    The automaton state records just enough of the recent past to spot
    the forbidden shapes: an all-flat prefix of t steps (``pre``, t,
    saturating), or a most recent non-flat step U followed by m flats
    (``u``, m, saturating), or anything ending in D (``idle``).  Counts
    are exact big integers.

    Each layer keeps one list of counts per state, indexed by height
    over the window of heights that are reachable and can still reach
    y.  The all-flat prefix is a single word at height 0, so ``pre`` is
    the count 1 with run t = the step index.  A step is a few whole-list
    moves: U shifts the states that may rise up one into ``u`` run 0, D
    shifts every state down one into ``idle``, and F moves each run to
    run + 1 (capped) at the same height.
    """
    if not (isinstance(x, int) and x >= 0):
        raise InvalidInputError(f"path length must be a nonnegative integer, got {x!r}")
    if abs(y) > x:
        return 0
    factor_top, suffix_top = constraints.factor_top, constraints.suffix_top
    # No U in a path of length x is followed by x flats, so x run states suffice.
    ucap = min(max(factor_top, suffix_top) + 1, x)

    lo = 0  # the lowest height of the window
    ups = [[0]] * (ucap + 1)  # ups[m]: a U then m flats (m = ucap: at least ucap)
    idle = [0]
    for pos in range(x):
        remaining = x - pos - 1
        new_lo = max(-pos - 1, y - remaining)
        width = min(pos + 1, y + remaining) - new_lo + 1
        shift = new_lo - lo
        may_rise = list(map(sum, zip(idle, *ups[factor_top + 1 :])))
        every = list(map(sum, zip(may_rise, *ups[: factor_top + 1])))
        new_idle = list(
            map(add, _window(every, shift + 1, width), _window(idle, shift, width))
        )
        rose = _window(may_rise, shift - 1, width)
        # The all-flat prefix F^pos steps down, and up once past the prefix bans.
        if new_lo <= -1 < new_lo + width:
            new_idle[-1 - new_lo] += 1
        if pos > constraints.prefix_top and new_lo <= 1 < new_lo + width:
            rose[1 - new_lo] += 1
        if ucap:
            saturated = list(map(add, ups[ucap - 1], ups[ucap]))
            ups = [rose] + [_window(v, shift, width) for v in ups[: ucap - 1]]
            ups.append(_window(saturated, shift, width))
        else:
            ups = [list(map(add, rose, _window(ups[0], shift, width)))]
        idle = new_idle
        lo = new_lo

    # The last window is the single height y; a final U-run must clear the suffix bans.
    total = idle[0] + sum(v[0] for v in ups[suffix_top + 1 :])
    return total + (y == 0)  # F^x itself


def _window(counts: list[int], start: int, width: int) -> list[int]:
    """``counts[start : start + width]``, reading 0 outside the list."""
    if start < 0:
        counts, start = [0] * -start + counts, 0
    out = counts[start : start + width]
    out += [0] * (width - len(out))
    return out
