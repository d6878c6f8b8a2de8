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

from .errors import (
    BeadStructureError,
    InvalidInputError,
    UnplaceableHookError,
    check_progression_length,
)
from .mdcore import validate_md
from .progression import Progression, _class_block

__all__ = [
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


def abacus_spec(s: int, d: int) -> Progression:
    """The grid for coprime positive s, d: the plain pair ``Progression(s, d, 1)``."""
    return Progression(s, d, 1)


@dataclass(frozen=True)
class AbacusState:
    """A progression plus the signed bead count b(j) on each column of its grid."""

    prog: Progression
    beads: tuple[int, ...]


def label(prog: Progression, i: int, j: int) -> int:
    """Odd label of position (i, j)."""
    if not 0 <= j <= prog.max_column:
        raise InvalidInputError(
            f"column {j} out of range 0..{prog.max_column} for s={prog.s}, d={prog.d}"
        )
    return prog.a + prog.period * i + 2 * prog.d * j


def boundary_row(prog: Progression, j: int) -> int:
    """First row of column j whose label is positive (see `Progression.boundary_rows`)."""
    if not 0 <= j <= prog.max_column:
        raise InvalidInputError(
            f"column {j} out of range 0..{prog.max_column} for s={prog.s}, d={prog.d}"
        )
    return prog.boundary_rows[j]


def place_beads(prog: Progression, md: Iterable[int]) -> AbacusState:
    """Place one bead per diagonal hook and compress to signed counts.

    Raises `UnplaceableHookError` when a hook is congruent to s+d
    modulo 2(s+d) (no position carries it), and `BeadStructureError`
    when the beads do not form the boundary-hugging blocks of a
    simultaneous core.
    """
    return AbacusState(prog, _place_beads(prog, validate_md(md)))


def _place_beads(prog: Progression, md: tuple[int, ...]) -> tuple[int, ...]:
    """Signed bead counts of the canonical hook set ``md``; see `place_beads`.

    One `Progression.residue_slots` lookup per hook gives its column,
    sign and index in its class.  Hooks come largest first, so the first
    hook a column meets is its top.  n hooks of one class form a block
    exactly when the top one has index n - 1, since n distinct indices
    up to n - 1 are 0..n-1.  So every column is a block exactly when its
    signed count equals its top's signed index + 1: a hook of the other
    sign moves the count away from the top's side.  The errors are read
    only after a failure.
    """
    period, slots = prog.period, prog.residue_slots
    beads = [0] * prog.columns
    tops = [0] * prog.columns
    for h in md:
        try:
            j, sign = slots[h % period]
        except KeyError:  # hooks are odd, so h is s+d mod the period
            raise UnplaceableHookError(
                f"hook {h} is {prog.s + prog.d} mod {period}; "
                f"no abacus position carries it"
            ) from None
        if not tops[j]:
            tops[j] = sign * (h // period + 1)
        beads[j] += sign
    if beads != tops:
        raise _structure_error(prog, md, beads, tops)
    return tuple(beads)


def _structure_error(
    prog: Progression, md: tuple[int, ...], beads: list[int], tops: list[int]
) -> BeadStructureError:
    """The error for the first column whose beads are not a block.

    The k-th hook of a column's class sits in row r(j) + k (positive
    class) or r(j) - 1 - k (negative class).
    """
    j = next(j for j, (b, top) in enumerate(zip(beads, tops)) if b != top)
    placed = [(*prog.residue_slots[h % prog.period], h // prog.period) for h in md]
    signs = {sign for column, sign, _ in placed if column == j}
    if len(signs) == 2:
        return BeadStructureError(
            f"column {j} mixes beads on both sides of the sign boundary"
        )
    (sign,) = signs
    first_row = prog.boundary_rows[j] if sign > 0 else prog.boundary_rows[j] - 1
    rows = sorted(first_row + sign * k for column, _, k in placed if column == j)
    side = "positive" if sign > 0 else "negative"
    return BeadStructureError(f"column {j} has a gap in its {side} bead block: {rows}")


def abacus_function(state: AbacusState) -> tuple[int, ...]:
    """Per-column summary f(j) = r(j) - 1 + b(j)."""
    return _abacus_function(state.prog, state.beads)


def _abacus_function(prog: Progression, beads: Sequence[int]) -> tuple[int, ...]:
    """`abacus_function` for one signed bead count per column."""
    return tuple(r - 1 + b for r, b in zip(prog.boundary_rows, beads))


def beads_from_function(prog: Progression, values: Sequence[int]) -> AbacusState:
    """Invert `abacus_function`: b(j) = f(j) - r(j) + 1."""
    if len(values) != prog.columns:
        raise InvalidInputError(
            f"expected {prog.columns} values for s={prog.s}, d={prog.d}, "
            f"got {len(values)}"
        )
    return AbacusState(prog, tuple(v - r + 1 for v, r in zip(values, prog.boundary_rows)))


def state_md(state: AbacusState) -> tuple[int, ...]:
    """Diagonal hooks read back off the beads, largest first."""
    return _state_hooks(state.prog, state.beads)[0]


def _state_hooks(prog: Progression, counts: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The hooks of one signed bead count per column, largest first, and their mask.

    A column with b beads holds the |b| smallest hooks of one class, its
    block, read from `Progression.class_blocks`; a count past every
    core's builds its block for the call.
    """
    depth = prog.class_depth
    hooks: list[int] = []
    mask = 0
    for j, (b, blocks) in enumerate(zip(counts, prog.class_blocks)):
        block_hooks, block = (
            blocks[b]
            if -depth <= b <= depth
            else _class_block(prog.period, prog.class_firsts[j][b < 0], abs(b))
        )
        hooks += block_hooks
        mask |= block
    hooks.sort(reverse=True)
    return tuple(hooks), mask


def validate_core_function(values: Sequence[int], prog: Progression) -> bool:
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
    to -2 one column further in); see the regression test.  Needs p >= 2.
    """
    s, d, p = prog.s, prog.d, prog.p
    check_progression_length(p)
    if len(values) != prog.columns:
        raise InvalidInputError(
            f"expected {prog.columns} values for s={prog.s}, d={prog.d}, "
            f"got {len(values)}"
        )
    f = list(values)
    top = prog.max_column

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
    prog = state.prog
    boundaries = prog.boundary_rows
    marked = set()
    for j, (b, r) in enumerate(zip(state.beads, boundaries)):
        marked.update((i, j) for i in (range(r, r + b) if b > 0 else range(r + b, r)))
    if row_range is None:
        bead_rows = [i for i, _ in marked]
        lo = min([*boundaries, *bead_rows]) - 1
        hi = max([*boundaries, *(i + 1 for i in bead_rows)])
    else:
        lo, hi = row_range
        if lo > hi:
            raise InvalidInputError(f"empty row window {row_range}")

    def cell(i: int, j: int) -> str:
        text = str(label(prog, i, j))
        return f"({text})" if (i, j) in marked else text

    grid = {
        (i, j): cell(i, j)
        for i in range(lo, hi + 1)
        for j in range(prog.columns)
    }
    widths = [
        max(len(str(j)), max(len(grid[(i, j)]) for i in range(lo, hi + 1)))
        for j in range(prog.columns)
    ]
    left = max(len(str(lo)), len(str(hi)), len("i\\j"))
    lines = [
        "i\\j".rjust(left)
        + " | "
        + "  ".join(str(j).rjust(widths[j]) for j in range(prog.columns))
    ]
    for i in range(hi, lo - 1, -1):
        lines.append(
            str(i).rjust(left)
            + " | "
            + "  ".join(grid[(i, j)].rjust(widths[j]) for j in range(prog.columns))
        )
    return "\n".join(lines)


def abacus_record(state: AbacusState) -> dict:
    """JSON-ready record: (s, d, a) plus per-column (j, r, b, f)."""
    prog = state.prog
    f = abacus_function(state)
    return {
        "s": prog.s,
        "d": prog.d,
        "a": prog.a,
        "columns": [
            {"j": j, "r": r, "b": b, "f": f[j]}
            for j, (r, b) in enumerate(zip(prog.boundary_rows, state.beads))
        ],
    }
