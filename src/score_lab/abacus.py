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
    InternalConsistencyError,
    InvalidInputError,
    UnplaceableHookError,
    check_progression_length,
)
from .mdcore import _hook_mask, validate_md
from .progression import Progression, _class_runs

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
    md = validate_md(md)
    cap = prog.period * len(md)
    mask = _hook_mask({h if h < cap else cap + h % prog.period for h in md})
    return AbacusState(prog, _place_beads(prog, md, mask))


def _place_beads(prog: Progression, md: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Signed bead counts of the canonical hook set ``md``; see `place_beads`.

    ``mask`` is the `_hook_mask` of ``md``, except that a hook h at or
    above cap = period * len(md) sets bit cap + h % period instead.  No
    gap-free block holds such a hook: it sits at index len(md) or more
    in its class, and a block of n hooks fills indices 0..n-1.  Moving
    it to index len(md) keeps its class and keeps its column invalid,
    so the mask stays within len(md) + 1 rows however large the hooks.
    A core's hooks all sit in gap-free blocks, so its plain mask
    qualifies.

    A column's beads form a valid block exactly when one of its two
    classes is empty and the other holds n hooks whose top one has
    index n - 1: n distinct indices up to n - 1 are 0..n-1.  The errors
    read the hooks themselves from ``md``.
    """
    period = prog.period
    unplaceable, columns = prog.class_masks_for((mask.bit_length() - 1) // period + 1)
    if mask & unplaceable:
        unplaced = next(h for h in md if h % period == prog.s + prog.d)
        raise UnplaceableHookError(
            f"hook {unplaced} is {prog.s + prog.d} mod {period}; "
            f"no abacus position carries it"
        )
    beads = []
    placed = 0
    for j, (pos_first, pos_class, neg_first, neg_class) in enumerate(columns):
        pos = mask & pos_class
        if pos:
            if mask & neg_class:
                raise BeadStructureError(
                    f"column {j} mixes beads on both sides of the sign boundary"
                )
            n = pos.bit_count()
            if pos.bit_length() != pos_first + period * (n - 1) + 1:
                raise _gap_error(prog, md, j, pos_first, 1)
            placed += n
        else:
            neg = mask & neg_class
            n = neg.bit_count()
            if n and neg.bit_length() != neg_first + period * (n - 1) + 1:
                raise _gap_error(prog, md, j, neg_first, -1)
            placed += n
            n = -n
        beads.append(n)
    if placed != mask.bit_count():
        raise InternalConsistencyError(f"a hook of {md} matched no column")
    return tuple(beads)


def _gap_error(
    prog: Progression, md: tuple[int, ...], j: int, first: int, step: int
) -> BeadStructureError:
    """The error for the gapped block of column j's class starting at hook ``first``.

    The class's k-th hook sits in row r(j) + k (positive class, step 1)
    or r(j) - 1 - k (negative class, step -1).
    """
    first_row = prog.boundary_rows[j] if step > 0 else prog.boundary_rows[j] - 1
    rows = sorted(
        first_row + step * ((h - first) // prog.period)
        for h in md
        if h % prog.period == first
    )
    side = "positive" if step > 0 else "negative"
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
    return AbacusState(prog, _beads_from_function(prog, values))


def _beads_from_function(prog: Progression, values: Sequence[int]) -> tuple[int, ...]:
    """`beads_from_function` for one value per column."""
    return tuple(v - r + 1 for v, r in zip(values, prog.boundary_rows))


def state_md(state: AbacusState) -> tuple[int, ...]:
    """Diagonal hooks read back off the beads, largest first."""
    return _state_hooks(state.prog, state.beads)[0]


def _state_hooks(prog: Progression, beads: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """`state_md` for one signed bead count per column, with its `_hook_mask`.

    A column with b beads holds the |b| smallest hooks of one class, its
    block, read from `Progression.class_blocks`; a count past every
    core's builds its block for the call.
    """
    period, depth = prog.period, prog.class_depth
    hooks: list[int] = []
    mask = 0
    for b, blocks, (pos_first, neg_first) in zip(beads, prog.class_blocks, prog.class_firsts):
        if -depth <= b <= depth:
            block_hooks, block = blocks[b]
        else:
            first = pos_first if b > 0 else neg_first
            block_hooks = range(first, first + period * abs(b), period)
            block = _class_runs(period, abs(b)) << first
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
