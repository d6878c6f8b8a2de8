"""The parameter triple (s, d, p) that every layer of the package reads.

A `Progression` names the moduli s, s+d, ..., s+pd for coprime positive
s and d and a length p >= 1.  It is a named tuple of the three,
validated once, in `__new__`, and derives everything the layers read
from it, each value computed on first use and then kept:

* the moduli and their doubles (core tests);
* the abacus grid: the corner label a, the columns, the period 2(s+d),
  the first positive row of each column and the row below it, the
  key f(j) + j of each empty column (`empty_keys`), the column and
  sign of each odd residue (`residue_slots`), and the gap-free blocks
  of each column's two residue classes, keyed by the column's summary
  value f(j) plus its index j (`class_blocks`, each block built when
  some call first reads it and kept);
* the completeness bound `md_bound` on the diagonal hooks of a core;
* the path type (x, y) and the constraint set of the path encoding.

p = 1 describes a plain (s, s+d) pair, which the enumeration and the
abacus accept; the path encoding needs p >= 2, which
`score_lab.bijection.phi_context` checks.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InternalConsistencyError, InvalidInputError, check_progression
from .motzkin import PathConstraintSet, constraints_for

__all__ = ["Progression", "default_md_bound"]


class Progression(NamedTuple("Progression", [("s", int), ("d", int), ("p", int)])):
    """Coprime positive s, d and the number p >= 1 of steps past s."""

    def __new__(cls, s: int, d: int, p: int) -> Progression:
        check_progression(s, d)
        if not (isinstance(p, int) and p >= 1):
            raise InvalidInputError(f"p must be an integer >= 1, got {p!r}")
        return super().__new__(cls, s, d, p)

    # `_replace` builds through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.s + k * self.d for k in range(self.p + 1))

    @cached_property
    def doubled(self) -> tuple[int, ...]:
        return tuple(2 * t for t in self.moduli)

    @cached_property
    def x(self) -> int:
        """Path length floor(s/2) + ceil(d/2)."""
        return self.s // 2 + (self.d + 1) // 2

    @cached_property
    def y(self) -> int:
        """Final path height -ceil(d/2)."""
        return -((self.d + 1) // 2)

    @cached_property
    def a(self) -> int:
        """Label of position (0, 0): minus the smaller odd number among s and s+d."""
        return -self.s if self.s % 2 == 1 else -(self.s + self.d)

    @cached_property
    def columns(self) -> int:
        return (self.s + self.d + 1) // 2

    @cached_property
    def max_column(self) -> int:
        return self.columns - 1

    @cached_property
    def period(self) -> int:
        return 2 * (self.s + self.d)

    @cached_property
    def boundary_rows(self) -> tuple[int, ...]:
        """r(j) for every column j: the first row whose label is positive.

        Closed form; the sign condition label(r, j) > 0 > label(r-1, j)
        holds because labels are odd, hence never zero.
        """
        return tuple(
            (-self.a - 2 * self.d * j) // self.period + 1 for j in range(self.columns)
        )

    @cached_property
    def empty_tops(self) -> tuple[int, ...]:
        """r(j) - 1 for every column j: the summary f(j) of a column with no beads."""
        return tuple(r - 1 for r in self.boundary_rows)

    @cached_property
    def empty_keys(self) -> tuple[int, ...]:
        """r(j) - 1 + j for every column j: the key f(j) + j of a column with no beads.

        Keys are the coordinates `phi` and the read-back both work in: the
        key of a column with b beads is its empty key plus b, and the
        differences of consecutive keys are a path's steps counted
        U = 2, F = 1, D = 0.
        """
        return tuple(empty + j for j, empty in enumerate(self.empty_tops))

    @cached_property
    def md_bound(self) -> int:
        """`default_md_bound`: no (s, s+d)-core has a larger diagonal hook."""
        return default_md_bound(self.s, self.d)

    @cached_property
    def class_firsts(self) -> tuple[tuple[int, int], ...]:
        """The smallest hook of each column's positive and negative class.

        Column j holds two residue classes mod the period: positive-label
        beads, whose hooks are P, P + period, ... from row r(j) upward, and
        negative-label beads, whose hooks are N, N + period, ... from row
        r(j) - 1 downward, where P = label(r(j), j) and N = period - P.  So
        the gap-free block of a signed bead count b is the |b| smallest
        hooks of the positive (b > 0) or the negative (b < 0) class.
        """
        firsts = (
            self.a + 2 * self.d * j + self.period * r for j, r in enumerate(self.boundary_rows)
        )
        return tuple((first, self.period - first) for first in firsts)

    @cached_property
    def residue_slots(self) -> dict[int, tuple[int, int]]:
        """Residue of a hook mod the period -> (its column j, its sign).

        Each class's first hook is below the period, so it is the
        class's residue, and a hook h sits at index h // period of its
        class, counting from 0.  Built once and checked to hold every odd
        residue but that of s+d, which no position carries.
        """
        slots = {
            first: (j, sign)
            for j, pair in enumerate(self.class_firsts)
            for first, sign in zip(pair, (1, -1))
        }
        slots.pop(self.s + self.d, None)
        if slots.keys() != set(range(1, self.period, 2)) - {self.s + self.d}:
            raise InternalConsistencyError(
                f"abacus classes of s={self.s}, d={self.d} miss an odd residue"
            )
        return slots

    @cached_property
    def class_blocks(self) -> tuple[dict[int, int], ...]:
        """Per column j, the block of each summary value f by f + j, built when first read.

        ``class_blocks[j][f + j]`` is the hook mask of column j's block of
        b = f - r(j) + 1 beads.  A path's f(j) + j is the running sum of
        its steps counted U = 2, F = 1, D = 0, so a path's steps index it
        with no per-letter lookup.  Each dict keeps only the blocks some
        call has read.
        """
        return tuple(
            _ClassBlocks(self.period, firsts, empty)
            for firsts, empty in zip(self.class_firsts, self.empty_keys)
        )

    @cached_property
    def constraints(self) -> PathConstraintSet:
        """The patterns the paths avoid; needs p >= 2."""
        return constraints_for(self.s, self.d, self.p)


def default_md_bound(s: int, d: int) -> int:
    """Largest possible diagonal hook of any (s, s+d)-core.

    Every hook of an (s, t)-core with coprime s, t is at most
    st - s - t, and diagonal hooks are hooks; the bound is clamped to 1
    so that s = 1 (where the raw bound is negative and only the empty
    partition survives) still yields a valid candidate range.  Raises
    `InvalidInputError` unless s and d are coprime positive integers.
    """
    check_progression(s, d)
    t = s + d
    return max(1, s * t - s - t)


class _ClassBlocks(dict):
    """One column's blocks by key f + j, each built on its first read.

    ``firsts`` are the smallest hooks of the column's positive and
    negative class (`Progression.class_firsts`) and ``empty`` is the key
    of the column with no beads, r(j) - 1 + j (`Progression.empty_keys`).
    The block of key k holds the column's b = k - empty beads:
    first + period * i for i < |b|, with first the one of b's sign.
    """

    def __init__(self, period: int, firsts: tuple[int, int], empty: int) -> None:
        self.period, self.firsts, self.empty = period, firsts, empty

    def __missing__(self, key: int) -> int:
        b = key - self.empty
        block = self[key] = _class_runs(self.period, abs(b)) << self.firsts[b < 0]
        return block


def _class_runs(period: int, depth: int) -> int:
    """Bits 0, period, ..., (depth - 1) * period: a geometric series in 2^period.

    Shifted to a class's first hook it masks the class's first ``depth``
    hooks, one row per period.
    """
    return ((1 << period * depth) - 1) // ((1 << period) - 1)
