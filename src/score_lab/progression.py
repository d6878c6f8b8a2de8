"""The parameter triple (s, d, p) that every layer of the package reads.

A `Progression` names the moduli s, s+d, ..., s+pd for coprime positive
s and d and a length p >= 1.  It is validated once, at construction,
and derives everything the layers read from it, each value computed on
first use and then kept:

* the moduli, their doubles and the coprime pair sums, also as a hook
  mask (core tests);
* the abacus grid: the corner label a, the columns, the period 2(s+d),
  the first positive row of each column, the column and sign of each
  odd residue (`residue_slots`), and the gap-free blocks of each
  column's two residue classes (`class_blocks`);
* the completeness bound `md_bound` on the diagonal hooks of a core;
* the path type (x, y) and the constraint set of the path encoding.

p = 1 describes a plain (s, s+d) pair, which the enumeration and the
abacus accept; the path encoding needs p >= 2, which
`score_lab.bijection.phi_context` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InternalConsistencyError, InvalidInputError, check_progression
from .mdcore import _coprime_pair_sums, _hook_mask
from .motzkin import PathConstraintSet, constraints_for

__all__ = ["Progression", "default_md_bound"]


@dataclass(frozen=True)
class Progression:
    """Coprime positive s, d and the number p >= 1 of steps past s."""

    s: int
    d: int
    p: int

    def __post_init__(self) -> None:
        check_progression(self.s, self.d)
        if not (isinstance(self.p, int) and self.p >= 1):
            raise InvalidInputError(f"p must be an integer >= 1, got {self.p!r}")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.s + k * self.d for k in range(self.p + 1))

    @cached_property
    def doubled(self) -> tuple[int, ...]:
        return tuple(2 * t for t in self.moduli)

    @cached_property
    def pair_sums(self) -> frozenset[int]:
        """Sums of coprime pairs of moduli: hooks no simultaneous core has."""
        return _coprime_pair_sums(self.moduli)

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
    def pair_mask(self) -> int:
        """`pair_sums` as a hook mask (bit h set for each sum h)."""
        return _hook_mask(self.pair_sums)

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
    def class_depth(self) -> int:
        """Hooks per class that every (s, s+d)-core fits in.

        Such a core's hooks are below s(s+d), which is s/2 periods, so no
        residue class carries more than s//2 + 1 of them.
        """
        return self.s // 2 + 1

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
    def class_blocks(self) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
        """Per column, the block of every signed bead count b with |b| <= `class_depth`.

        ``class_blocks[j][b]`` is (the block's hooks, ascending, and their
        hook mask); a negative b indexes from the end, as Python does.
        """
        period, depth = self.period, self.class_depth
        runs = [_class_runs(period, n) for n in range(depth + 1)]
        return tuple(
            tuple(
                (tuple(range(first, first + period * n, period)), runs[n] << first)
                for first, n in (
                    *((pos_first, n) for n in range(depth + 1)),
                    *((neg_first, n) for n in range(depth, 0, -1)),
                )
            )
            for pos_first, neg_first in self.class_firsts
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
    partition survives) still yields a valid candidate range.
    """
    t = s + d
    return max(1, s * t - s - t)


def _class_runs(period: int, depth: int) -> int:
    """Bits 0, period, ..., (depth - 1) * period: a geometric series in 2^period.

    Shifted to a class's first hook it masks the class's first ``depth``
    hooks, one row per period.
    """
    return ((1 << period * depth) - 1) // ((1 << period) - 1)
