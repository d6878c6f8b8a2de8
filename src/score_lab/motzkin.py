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
agree exactly, and the test suite enforces that.  The automaton's
U-run states (a U, then m flats) form a delay line: after t steps run m
holds the rise vector of step t - m.  So the DP keeps the last few
cumulative rise vectors C_t, and each sum over runs it needs is C read
at a lag: idle + C_{t-factor_top-1} may rise, and idle + C_{x-suffix_top-1}
at height y, plus F^x, is the count.  The DP keeps only the heights a
word can reach and still end at y from: the factor ban spaces two U
steps with no D between them by factor_top + 2 steps at least, so no
word climbs faster than one unit per factor_top + 2 steps.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterator
from functools import cached_property
from itertools import filterfalse
from operator import add
from typing import NamedTuple

from .errors import (
    InvalidInputError,
    InvalidPathError,
    check_progression,
    check_progression_length,
)

__all__ = [
    "PathConstraintSet",
    "constraints_for",
    "satisfies",
    "enumerate_paths",
    "count_paths_dp",
]

_RISES = (("U", 1), ("D", -1), ("F", 0))  # the steps in U < D < F order, with their rise
_ALPHABET = frozenset(letter for letter, _ in _RISES)


class PathConstraintSet(
    NamedTuple(
        "PathConstraintSet",
        [("parity_case", str), ("factor_top", int), ("prefix_top", int), ("suffix_top", int)],
    )
):
    """The banned patterns of one parameter triple, as the longest F-run each bans.

    A path may not contain ``UF^iU`` for i <= ``factor_top``, start with
    ``F^jU`` for j <= ``prefix_top`` or end with ``UF^k`` for
    k <= ``suffix_top``; a top of -1 bans nothing of that shape.
    ``parity_case`` is "odd_even", "odd_odd", "even_odd" or "unconstrained".
    """

    def __new__(
        cls, parity_case: str, factor_top: int, prefix_top: int, suffix_top: int
    ) -> PathConstraintSet:
        for name, top in zip(cls._fields[1:], (factor_top, prefix_top, suffix_top)):
            if not (isinstance(top, int) and top >= -1):
                raise InvalidInputError(f"{name} must be an integer >= -1, got {top!r}")
        return super().__new__(cls, parity_case, factor_top, prefix_top, suffix_top)

    # `_replace` builds through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _shapes(self) -> tuple[str, str, str]:
        """The prefix, factor and suffix alternatives, each "" when that shape bans nothing."""
        shapes = (
            (self.prefix_top, r"\AF{{0,{}}}U"),
            (self.factor_top, "UF{{0,{}}}U"),
            (self.suffix_top, r"UF{{0,{}}}\Z"),
        )
        return tuple(shape.format(top) if top >= 0 else "" for top, shape in shapes)

    @cached_property
    def pattern(self) -> re.Pattern:
        """One expression matching every banned pattern, and nothing when none is banned."""
        return _alternation(self._shapes())

    @cached_property
    def left_pattern(self) -> re.Pattern:
        """The banned prefixes and factors: a match in a word's first part is one in the word."""
        return _alternation(self._shapes()[:2])

    @cached_property
    def right_pattern(self) -> re.Pattern:
        """The banned factors and suffixes: a match in a word's last part is one in the word."""
        return _alternation(self._shapes()[1:])


def _alternation(alternatives: tuple[str, ...]) -> re.Pattern:
    """The expression matching any of the non-empty alternatives; ``(?!)`` matches nothing."""
    return re.compile("|".join(filter(None, alternatives)) or "(?!)")


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


def satisfies(steps: str, constraints: PathConstraintSet, x: int, y: int) -> bool:
    """True when the path has type (x, y) and avoids every forbidden pattern."""
    if not isinstance(steps, str) or not _ALPHABET.issuperset(steps):
        raise InvalidPathError(f"steps must be a string over U/D/F, got {steps!r}")
    _check_type(x, y)
    return _satisfies(steps, constraints, x, y)


def _satisfies(steps: str, constraints: PathConstraintSet, x: int, y: int) -> bool:
    """`satisfies` for a string already known to be over U/D/F: length x, U - D = y."""
    return (
        len(steps) == x
        and steps.count("U") - steps.count("D") == y
        and constraints.pattern.search(steps) is None
    )


def enumerate_paths(x: int, y: int, constraints: PathConstraintSet) -> list[str]:
    """All admissible paths of type (x, y), in U < D < F lexicographic order.

    Joins a left half of x // 2 steps to a right half whose net height
    brings it to y, and filters each joined word by the one expression
    of the banned patterns, `PathConstraintSet.pattern`, alone: the join
    already fixes the type (x, y) and the halves are words over U/D/F,
    so the rest of `satisfies` would hold on every word.  The result is
    a regex-filtered oracle for `count_paths_dp` that shares no
    automaton logic with it.  Each half is grown one step at
    a time in U, D, F order, keeping only the prefixes whose height can
    still end where a word of type (x, y) needs that half to end (see
    `_half_words`).  A left half that already holds a banned prefix or
    factor (`PathConstraintSet.left_pattern`) and a right half that
    already holds a banned factor or suffix (``right_pattern``) are
    dropped before any join, since every word they join into holds it
    too.  The right halves are grouped by net height, and each left
    half, in order, is joined to its group, so the words come out in
    lexicographic order.
    """
    _check_type(x, y)
    return list(_iter_paths(x, y, constraints))


def _check_type(x: int, y: int) -> None:
    """Raise `InvalidInputError` unless (x, y) is a path type: integers with x >= 0."""
    if not (isinstance(x, int) and x >= 0):
        raise InvalidInputError(f"path length must be a nonnegative integer, got {x!r}")
    if not isinstance(y, int):
        raise InvalidInputError(f"final height must be an integer, got {y!r}")


def _iter_paths(x: int, y: int, constraints: PathConstraintSet) -> Iterator[str]:
    """`enumerate_paths` one word at a time, for a path type (x, y).

    Every joined word has x // 2 + (x - x // 2) = x steps and halves'
    heights summing to y, so only ``pattern`` is searched; callers that
    need the whole rule on a word (``verify_instance``) check its letters
    and run `_satisfies`.
    """
    if abs(y) > x:
        return
    half = x // 2
    rest = x - half
    rights: dict[int, list[str]] = {}
    search = constraints.pattern.search
    banned = constraints.right_pattern.search
    for right, height in _half_words(rest, y - half, y + half):
        if not banned(right):
            rights.setdefault(height, []).append(right)
    banned = constraints.left_pattern.search
    for left, height in _half_words(half, y - rest, y + rest):
        if banned(left):
            continue
        yield from filterfalse(search, map(left.__add__, rights.get(y - height, ())))


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
    the forbidden shapes: an all-flat prefix (``pre``), a most recent
    non-flat step U followed by m flats (``u``, m), or anything ending
    in D (``idle``).  Counts are exact big integers in lists indexed
    by height, over the window of heights that are reachable and can
    still reach y.  The all-flat prefix is a single word at height 0,
    so ``pre`` is the count 1.

    The factor ban bounds how fast a path climbs.  Two U steps with no
    D between them have at least factor_top + 1 flats between them, so
    with span g = factor_top + 2 a word climbs to height h in no fewer
    than 1 + (h - 1)*g steps, and r more steps, from any state, climb
    at most ceil(r/g).  So after n steps the window runs from
    max(-n, y - ceil(r/g)) to min(ceil(n/g), y + r), r = x - n, and
    no path of type (x, y) exists unless -x <= y <= ceil(x/g).  At
    g = 1 (no factor ban) these are the plain bounds -n and n.  Both
    bounds are monotone in n, and a word that C_{t-lag} counts at
    height h was at h after step t - lag already, with more steps left
    to reach y; so the window stored with C_{t-lag} holds every height
    a later read needs, and a height outside it reads as 0.

    The ``u`` states form a delay line: F moves run m to run m + 1 at
    the same height, so after t steps run m holds just the rise vector
    of step t - m, the words whose last U was that step.  With C_t the
    sum of the rise vectors of steps 1..t, every sum a step needs is C
    read at a lag: the states that may rise (``idle`` and the runs past
    ``factor_top``) sum to idle + C_{t-factor_top-1}, and all states to
    idle + C_t.  A step is then four list adds: U shifts the may-rise
    sum up one into the rise vector, D shifts every state down one into
    ``idle``, F keeps ``idle`` in place, and C gains the rise.  With
    factor_top = -1 every state may rise, so the may-rise sum is the
    all-states sum and a step takes three.  The count is
    idle + C_{x-suffix_top-1} at height y, the words whose final U-run
    clears the suffix bans, plus 1 for F^x.
    Only the C vectors a later read reaches are kept: the last
    max(factor_top, suffix_top) + 2, and never more than x + 1.
    """
    _check_type(x, y)
    span = constraints.factor_top + 2
    if not -x <= y <= -(-x // span):
        return 0
    rise_lag, end_lag = constraints.factor_top + 1, constraints.suffix_top + 1
    # (lo, C_t) per step t.  No read reaches back x steps, and clamping to x
    # keeps maxlen a C ssize_t however long the bans.
    history = deque(maxlen=min(max(rise_lag, end_lag), x) + 1)

    lo = 0  # the lowest height of the window
    idle = cumul = [0]
    for pos in range(x):
        remaining = x - pos - 1
        # -remaining // span is -ceil(remaining / span); -(-n // span) is ceil(n / span).
        new_lo = max(-pos - 1, y + -remaining // span)
        width = min(-((-pos - 1) // span), y + remaining) - new_lo + 1
        shift = new_lo - lo
        every = list(map(add, idle, cumul))
        may_rise = every
        if rise_lag:
            may_rise = list(map(add, idle, _lagged(history, rise_lag, lo, len(idle))))
        new_idle = list(
            map(add, _window(every, shift + 1, width), _window(idle, shift, width))
        )
        rose = _window(may_rise, shift - 1, width)
        # The all-flat prefix F^pos steps down, and up once past the prefix bans.
        if new_lo <= -1 < new_lo + width:
            new_idle[-1 - new_lo] += 1
        if pos > constraints.prefix_top and new_lo <= 1 < new_lo + width:
            rose[1 - new_lo] += 1
        cumul = list(map(add, _window(cumul, shift, width), rose))
        history.append((new_lo, cumul))
        idle = new_idle
        lo = new_lo

    # The last window is the single height y.
    return idle[0] + _lagged(history, end_lag, lo, 1)[0] + (y == 0)


def _lagged(history: deque, lag: int, lo: int, width: int) -> list[int]:
    """C_{t-lag} over the window of width heights from lo, where history[-1] holds C_t.

    C of step 0 or before is the zero vector, and so is any C the
    history no longer holds (no read reaches that far back).
    """
    if lag >= len(history):
        return [0] * width
    old_lo, cumul = history[-1 - lag]
    return _window(cumul, lo - old_lo, width)


def _window(counts: list[int], start: int, width: int) -> list[int]:
    """``counts[start : start + width]``, reading 0 outside the list."""
    if start < 0:
        counts, start = [0] * -start + counts, 0
    out = counts[start : start + width]
    out += [0] * (width - len(out))
    return out
