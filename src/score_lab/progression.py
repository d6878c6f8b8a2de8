"""The parameter triple (s, d, p) that every layer of the package reads.

A `Progression` names the moduli s, s+d, ..., s+pd for coprime positive
s and d and a length p >= 1.  It is validated once, at construction,
and derives everything the layers read from it, each value computed on
first use and then kept:

* the moduli, their doubles and the coprime pair sums (core tests);
* the abacus grid: the corner label a, the columns, the period 2(s+d),
  the first positive row of each column and the residue -> column slots;
* the path type (x, y) and the constraint set of the path encoding.

p = 1 describes a plain (s, s+d) pair, which the enumeration and the
abacus accept; the path encoding needs p >= 2, which
`score_lab.bijection.phi_context` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInputError, check_progression
from .mdcore import _coprime_pair_sums
from .motzkin import PathConstraintSet, constraints_for

__all__ = ["Progression"]


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
    def slots(self) -> dict[int, tuple[int, int, int]]:
        """Residue of a hook h mod the period -> (column j, sign, label of row 0 in j).

        h sits at the position labeled h (sign 1) or -h (sign -1); the
        positive reading wins where both residues match a column.
        """
        slots = {}
        for sign in (-1, 1):
            for j in range(self.columns):
                base = self.a + 2 * self.d * j
                slots[(sign * base) % self.period] = (j, sign, base)
        return slots

    @cached_property
    def constraints(self) -> PathConstraintSet:
        """The patterns the paths avoid; needs p >= 2."""
        return constraints_for(self.s, self.d, self.p)
