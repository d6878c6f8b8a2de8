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

from dataclasses import dataclass
from functools import lru_cache
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

_STEPS = ("U", "D", "F")
_HEIGHT = {"U": 1, "D": -1, "F": 0}
_ALPHABET = frozenset(_HEIGHT)


@dataclass(frozen=True)
class PathConstraintSet:
    """Forbidden factors/prefixes/suffixes for one parameter triple."""

    p: int
    parity_case: str  # one of "odd_even", "odd_odd", "even_odd"
    forbidden_factors: tuple[str, ...]
    forbidden_prefixes: tuple[str, ...]
    forbidden_suffixes: tuple[str, ...]


EMPTY_CONSTRAINTS = PathConstraintSet(2, "unconstrained", (), (), ())


@lru_cache(maxsize=None)
def constraints_for(s: int, d: int, p: int) -> PathConstraintSet:
    """Constraint set for self-conjugate (s, s+d, ..., s+pd)-cores.

    Factor bans ``UF^iU`` for i <= p-3 apply in every parity case.  The
    prefix range ``F^jU`` and suffix range ``UF^k`` depend on the
    parities of s and d; notably both odd-d cases forbid a bare trailing
    U already at p = 2.
    """
    check_progression(s, d)
    check_progression_length(p)
    if s % 2 == 1 and d % 2 == 0:
        case = "odd_even"
        prefix_top = (p - 4) // 2 if p >= 4 else -1
        suffix_top = (p - 3) // 2 if p >= 3 else -1
    elif s % 2 == 1:
        case = "odd_odd"
        prefix_top = (p - 4) // 2 if p >= 4 else -1
        suffix_top = p - 2
    else:
        case = "even_odd"
        prefix_top = (p - 3) // 2 if p >= 3 else -1
        suffix_top = p - 2
    factors = tuple("U" + "F" * i + "U" for i in range(p - 2))
    prefixes = tuple("F" * j + "U" for j in range(prefix_top + 1))
    suffixes = tuple("U" + "F" * k for k in range(suffix_top + 1))
    return PathConstraintSet(p, case, factors, prefixes, suffixes)


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
    if any(w in steps for w in constraints.forbidden_factors):
        return False
    # startswith/endswith with an empty tuple is False.
    return not (
        steps.startswith(constraints.forbidden_prefixes)
        or steps.endswith(constraints.forbidden_suffixes)
    )


def enumerate_paths(x: int, y: int, constraints: PathConstraintSet) -> list[str]:
    """All admissible paths of type (x, y), in U < D < F lexicographic order.

    Generates every type-(x, y) word (pruning only on height
    feasibility) and filters through `satisfies`, so the result is a
    constraint-logic-free oracle for `count_paths_dp`.
    """
    if not (isinstance(x, int) and x >= 0):
        raise InvalidInputError(f"path length must be a nonnegative integer, got {x!r}")
    if abs(y) > x:
        return []
    out: list[str] = []
    prefix: list[str] = []

    def grow(height: int) -> None:
        remaining = x - len(prefix)
        if remaining == 0:
            word = "".join(prefix)
            if satisfies(word, constraints, x, y):
                out.append(word)
            return
        for step in _STEPS:
            nxt = height + _HEIGHT[step]
            if abs(y - nxt) <= remaining - 1:
                prefix.append(step)
                grow(nxt)
                prefix.pop()

    grow(0)
    # The nested function refers to itself, a reference cycle that would keep
    # everything it closes over alive until the next full garbage collection.
    del grow
    return out


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
    factor_top = max((len(w) - 2 for w in constraints.forbidden_factors), default=-1)
    prefix_top = max((len(w) - 1 for w in constraints.forbidden_prefixes), default=-1)
    suffix_top = max((len(w) - 1 for w in constraints.forbidden_suffixes), default=-1)
    ucap = max(factor_top, suffix_top) + 1

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
        if pos > prefix_top and new_lo <= 1 < new_lo + width:
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
