"""Two-parameter abacus grid for self-conjugate simultaneous cores.

For coprime s and d the grid has columns j = 0, ..., floor((s+d-1)/2)
and doubly infinite rows; position (i, j) carries the odd label

    a + 2*(s+d)*i + 2*d*j,

where -a is the smaller odd number among s and s+d (so a = -s for odd
s, and a = -(s+d) for even s).  Every odd h with h != s+d modulo
2(s+d) labels exactly one position up to sign, so a self-conjugate
partition is encoded by placing one bead per diagonal hook h on the
position labeled h or -h.

For a simultaneous (s, s+d, ..., s+pd)-core the beads in each column j
hug the sign boundary: writing r(j) for the first row with a positive
label, positive-label beads fill rows r(j), r(j)+1, ... upward with no
gaps, negative-label beads fill rows r(j)-1, r(j)-2, ... downward with
no gaps, and no column carries beads of both signs.  A signed count
b(j) per column is therefore a lossless encoding, and the per-column
summary

    f(j) = r(j) - 1 + b(j)

(the topmost bead row when the column has positive-label beads,
otherwise the topmost negative-label spacer row) is the quantity the
lattice-path encoding in `score_lab.bijection` is built from.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BeadStructureError,
    InternalConsistencyError,
    InvalidInputError,
    UnplaceableHookError,
    check_progression,
    check_progression_length,
)
from .mdcore import validate_md

__all__ = [
    "AbacusSpec",
    "AbacusState",
    "abacus_spec",
    "label",
    "boundary_row",
    "place_beads",
    "abacus_function",
    "beads_from_function",
    "state_md",
    "validate_core_function",
    "render_abacus",
    "abacus_record",
]


@dataclass(frozen=True)
class AbacusSpec:
    """Grid parameters: coprime (s, d) and the derived corner label a."""

    s: int
    d: int
    a: int

    @property
    def columns(self) -> int:
        return (self.s + self.d + 1) // 2

    @property
    def max_column(self) -> int:
        return (self.s + self.d - 1) // 2

    @property
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
    def _slots(self) -> dict[int, tuple[int, int, int]]:
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


def abacus_spec(s: int, d: int) -> AbacusSpec:
    """Build the grid spec for coprime positive s, d."""
    check_progression(s, d)
    a = -s if s % 2 == 1 else -(s + d)
    return AbacusSpec(s, d, a)


@dataclass(frozen=True)
class AbacusState:
    """A spec plus the signed bead count b(j) for each column."""

    spec: AbacusSpec
    beads: tuple[int, ...]


def label(spec: AbacusSpec, i: int, j: int) -> int:
    """Odd label of position (i, j)."""
    if not 0 <= j <= spec.max_column:
        raise InvalidInputError(
            f"column {j} out of range 0..{spec.max_column} for s={spec.s}, d={spec.d}"
        )
    return spec.a + spec.period * i + 2 * spec.d * j


def boundary_row(spec: AbacusSpec, j: int) -> int:
    """First row of column j whose label is positive (see `AbacusSpec.boundary_rows`)."""
    if not 0 <= j <= spec.max_column:
        raise InvalidInputError(
            f"column {j} out of range 0..{spec.max_column} for s={spec.s}, d={spec.d}"
        )
    return spec.boundary_rows[j]


def place_beads(spec: AbacusSpec, md: Iterable[int]) -> AbacusState:
    """Place one bead per diagonal hook and compress to signed counts.

    Raises `UnplaceableHookError` when a hook is congruent to s+d
    modulo 2(s+d) (no position carries it), and `BeadStructureError`
    when the beads do not form the boundary-hugging blocks of a
    simultaneous core.
    """
    return AbacusState(spec, _place_beads(spec, validate_md(md)))


def _place_beads(spec: AbacusSpec, md: tuple[int, ...]) -> tuple[int, ...]:
    """Signed bead counts of a canonical hook set; see `place_beads`."""
    period = spec.period
    unplaceable = (spec.s + spec.d) % period
    slots = spec._slots
    rows: dict[int, list[int]] = {}
    for h in md:
        residue = h % period
        if residue == unplaceable:
            raise UnplaceableHookError(
                f"hook {h} is {spec.s + spec.d} mod {period}; "
                f"no abacus position carries it"
            )
        if residue not in slots:
            raise InternalConsistencyError(f"hook {h} matched no column residue")
        j, sign, base = slots[residue]
        i, rem = divmod(sign * h - base, period)
        if rem:
            raise InternalConsistencyError(f"hook {h} landed between rows")
        rows.setdefault(j, []).append(i)

    # Distinct hooks sit on distinct positions, so a column's rows form a
    # gap-free block exactly when they span max - min + 1 = count rows.
    beads = []
    for j, r in enumerate(spec.boundary_rows):
        placed = rows.get(j)
        if placed is None:
            beads.append(0)
            continue
        lo, hi, n = min(placed), max(placed), len(placed)
        if lo < r <= hi:
            raise BeadStructureError(
                f"column {j} mixes beads on both sides of the sign boundary"
            )
        if lo >= r:
            if lo != r or hi != r + n - 1:
                raise BeadStructureError(
                    f"column {j} has a gap in its positive bead block: {sorted(placed)}"
                )
            beads.append(n)
        else:
            if hi != r - 1 or lo != r - n:
                raise BeadStructureError(
                    f"column {j} has a gap in its negative bead block: {sorted(placed)}"
                )
            beads.append(-n)
    return tuple(beads)


def abacus_function(state: AbacusState) -> tuple[int, ...]:
    """Per-column summary f(j) = r(j) - 1 + b(j)."""
    return _abacus_function(state.spec, state.beads)


def _abacus_function(spec: AbacusSpec, beads: Sequence[int]) -> tuple[int, ...]:
    """`abacus_function` for one signed bead count per column."""
    return tuple(r - 1 + b for r, b in zip(spec.boundary_rows, beads))


def beads_from_function(spec: AbacusSpec, values: Sequence[int]) -> AbacusState:
    """Invert `abacus_function`: b(j) = f(j) - r(j) + 1."""
    if len(values) != spec.columns:
        raise InvalidInputError(
            f"expected {spec.columns} values for s={spec.s}, d={spec.d}, "
            f"got {len(values)}"
        )
    return AbacusState(spec, _beads_from_function(spec, values))


def _beads_from_function(spec: AbacusSpec, values: Sequence[int]) -> tuple[int, ...]:
    """`beads_from_function` for one value per column."""
    return tuple(v - r + 1 for v, r in zip(values, spec.boundary_rows))


def state_md(state: AbacusState) -> tuple[int, ...]:
    """Diagonal hooks read back off the beads, largest first."""
    return _state_md(state.spec, state.beads)


def _state_md(spec: AbacusSpec, beads: Sequence[int]) -> tuple[int, ...]:
    """`state_md` for one signed bead count per column."""
    period = spec.period
    hooks: list[int] = []
    for j, (b, r) in enumerate(zip(beads, spec.boundary_rows)):
        base = spec.a + 2 * spec.d * j  # label(spec, i, j) = base + period * i
        if b > 0:
            hooks.extend(range(base + period * r, base + period * (r + b), period))
        elif b < 0:
            hooks.extend(range(-base - period * (r + b), -base - period * r, -period))
    hooks.sort(reverse=True)
    return tuple(hooks)


def validate_core_function(values: Sequence[int], spec: AbacusSpec, p: int) -> bool:
    """Check every structural condition the summary f of a core satisfies.

    Shared conditions: f(0) = 0 and consecutive values differ by at
    most 1; when p >= 3, a unit rise into column j forces every value
    in the preceding p-2 columns to sit at or above the pre-rise level
    (this is what rules out ``UF^iU`` patterns downstream).  On top of
    those, each parity case pins the final value and bounds values in
    a window near each end of the grid:

    * odd s, even d: f ends at -d/2; if p >= 3 the last (p-1)//2
      columns before the end stay >= -d/2; if p >= 4 the early columns
      1..(p-2)//2 stay <= 0.
    * odd s, odd d: f ends at -(d-1)/2 or -(d+1)/2; if p >= 3 the last
      p-2 columns before the end stay >= -(d+1)/2; early columns as in
      the previous case.
    * even s, odd d: same as odd/odd except the early-column window is
      1..(p-1)//2, active already for p >= 3.

    In the odd/odd and even/odd cases the width of the near-end window
    is p-2 columns (k = 0..p-3), not p-1: the wider bound would need
    the progression to reach one step past s+pd, and genuine cores do
    violate it (diagonal hooks {23, 7, 5, 3, 1} with s=8, d=1, p=3 dip
    to -2 one column further in); see the regression test.
    """
    check_progression_length(p)
    if len(values) != spec.columns:
        raise InvalidInputError(
            f"expected {spec.columns} values for s={spec.s}, d={spec.d}, "
            f"got {len(values)}"
        )
    f = list(values)
    top = spec.max_column
    s, d = spec.s, spec.d

    if f[0] != 0:
        return False
    if any(abs(f[j] - f[j - 1]) > 1 for j in range(1, top + 1)):
        return False
    if p >= 3:
        for j in range(1, top + 1):
            if f[j] == f[j - 1] + 1:
                lo = max(0, j - p + 1)
                if any(f[k] < f[j - 1] for k in range(lo, j - 1)):
                    return False

    if s % 2 == 1 and d % 2 == 0:
        if f[top] != -(d // 2):
            return False
        if p >= 3:
            for k in range((p - 3) // 2 + 1):
                if top - k - 1 >= 0 and f[top - k - 1] < -(d // 2):
                    return False
        if p >= 4:
            for ell in range((p - 4) // 2 + 1):
                if ell + 1 <= top and f[ell + 1] > 0:
                    return False
    else:
        if f[top] not in (-((d - 1) // 2), -((d + 1) // 2)):
            return False
        if p >= 3:
            for k in range(p - 2):
                if top - k - 1 >= 0 and f[top - k - 1] < -((d + 1) // 2):
                    return False
        early_top = (p - 4) // 2 if s % 2 == 1 else (p - 3) // 2
        for ell in range(early_top + 1):
            if ell + 1 <= top and f[ell + 1] > 0:
                return False
    return True


def render_abacus(
    state: AbacusState, row_range: tuple[int, int] | None = None
) -> str:
    """ASCII picture of the abacus: labels in a grid, beads in parentheses.

    Columns run left to right, rows bottom to top.  The default row
    window covers every bead with one row of margin and always includes
    the sign boundary of each column.
    """
    spec = state.spec
    bead_rows = []
    for j, b in enumerate(state.beads):
        r = boundary_row(spec, j)
        if b > 0:
            bead_rows.extend((r, r + b - 1))
        elif b < 0:
            bead_rows.extend((r + b, r - 1))
    boundaries = [boundary_row(spec, j) for j in range(spec.columns)]
    if row_range is None:
        lo = min(boundaries) - 1
        hi = max(boundaries)
        if bead_rows:
            lo = min(lo, min(bead_rows) - 1)
            hi = max(hi, max(bead_rows) + 1)
    else:
        lo, hi = row_range
        if lo > hi:
            raise InvalidInputError(f"empty row window {row_range}")

    marked = set()
    for j, b in enumerate(state.beads):
        r = boundary_row(spec, j)
        if b > 0:
            marked.update((i, j) for i in range(r, r + b))
        elif b < 0:
            marked.update((i, j) for i in range(r + b, r))

    def cell(i: int, j: int) -> str:
        text = str(label(spec, i, j))
        return f"({text})" if (i, j) in marked else text

    grid = {
        (i, j): cell(i, j)
        for i in range(lo, hi + 1)
        for j in range(spec.columns)
    }
    widths = [
        max(len(str(j)), max(len(grid[(i, j)]) for i in range(lo, hi + 1)))
        for j in range(spec.columns)
    ]
    left = max(len(str(lo)), len(str(hi)), len("i\\j"))
    lines = [
        "i\\j".rjust(left)
        + " | "
        + "  ".join(str(j).rjust(widths[j]) for j in range(spec.columns))
    ]
    for i in range(hi, lo - 1, -1):
        lines.append(
            str(i).rjust(left)
            + " | "
            + "  ".join(grid[(i, j)].rjust(widths[j]) for j in range(spec.columns))
        )
    return "\n".join(lines)


def abacus_record(state: AbacusState) -> dict:
    """JSON-ready record: spec plus per-column (j, r, b, f)."""
    spec = state.spec
    f = abacus_function(state)
    return {
        "s": spec.s,
        "d": spec.d,
        "a": spec.a,
        "columns": [
            {"j": j, "r": boundary_row(spec, j), "b": b, "f": f[j]}
            for j, b in enumerate(state.beads)
        ],
    }
