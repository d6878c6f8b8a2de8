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
lattice-path encoding in `score_lab.bijection` is built from: the word
of f's differences, with one convention step for odd d, is the path.

Per core, `phi`'s body and the read-back work in the column keys
f(j) + j from one end to the other.  The key of an empty column is
r(j) - 1 + j (`Progression.empty_keys`) and a column's beads add to it,
and consecutive keys differ by f's difference plus one, which is the
step counted D = 0, F = 1, U = 2.  This module places the beads of a
core given as its hook-set mask (`_place_beads`, which walks the mask
one period-wide row at a time and returns the keys), turns the keys
into the word for `phi` by one bytes step (`_path_word`), reads a
hook-set mask back off the keys (`_beads_mask`, for `state_md`,
`phi_inverse` and `verify_instance`), and `validate_core_function`
checks a summary by the path rules of `Progression.constraints`, so it
keeps no structural rules of its own.  The public API speaks in bead
counts b(j) and summaries f(j), one subtraction or addition away.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import add, getitem, sub

from .errors import (
    BeadStructureError,
    InvalidInputError,
    UnplaceableHookError,
    check_progression_length,
)
from .mdcore import _hook_mask, _mask_hooks, validate_md
from .motzkin import _RISES, _satisfies
from .progression import Progression

__all__ = [
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

# a column-to-column difference of keys, f's difference plus one -> its step
_STEP_BYTES = bytes(rise + 1 for _, rise in _RISES)
_STEP_LETTERS = bytes.maketrans(_STEP_BYTES, "".join(letter for letter, _ in _RISES).encode())


def abacus_spec(s: int, d: int) -> Progression:
    """The grid for coprime positive s, d: the plain pair ``Progression(s, d, 1)``."""
    return Progression(s, d, 1)


def label(prog: Progression, i: int, j: int) -> int:
    """Odd label of position (i, j)."""
    _check_column(prog, j)
    if not isinstance(i, int):
        raise InvalidInputError(f"row must be an integer, got {i!r}")
    return prog.a + prog.period * i + 2 * prog.d * j


def boundary_row(prog: Progression, j: int) -> int:
    """First row of column j whose label is positive (see `Progression.boundary_rows`)."""
    _check_column(prog, j)
    return prog.boundary_rows[j]


def _check_column(prog: Progression, j: int) -> None:
    """Raise `InvalidInputError` unless j is a column of the grid."""
    if not (isinstance(j, int) and 0 <= j <= prog.max_column):
        raise InvalidInputError(
            f"column {j} out of range 0..{prog.max_column} for s={prog.s}, d={prog.d}"
        )


def _check_column_count(prog: Progression, values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, read once; `InvalidInputError` unless one int per column."""
    values = tuple(values)
    if len(values) != prog.columns:
        raise InvalidInputError(
            f"expected {prog.columns} values for s={prog.s}, d={prog.d}, "
            f"got {len(values)}"
        )
    for v in values:
        if not isinstance(v, int):
            raise InvalidInputError(f"column values must be integers, got {v!r}")
    return values


def place_beads(prog: Progression, md: Iterable[int]) -> tuple[int, ...]:
    """Place one bead per diagonal hook and compress to signed counts b(j).

    Raises `UnplaceableHookError` when a hook is congruent to s+d
    modulo 2(s+d) (no position carries it), and `BeadStructureError`
    when the beads do not form the boundary-hugging blocks of a
    simultaneous core.
    """
    md = validate_md(md)
    # A block of n beads tops out below n periods, so such a hook fails
    # before its mask, a bit per odd number below it, is built.
    if md and md[0] >= prog.period * len(md):
        raise _placement_error(prog, md)
    return tuple(map(sub, _place_beads(prog, _hook_mask(md)), prog.empty_keys))


def _place_beads(prog: Progression, mask: int) -> list[int]:
    """Column keys f(j) + j of the canonical hook set whose `_hook_mask` is ``mask``.

    Cut into rows of one period, the mask's row i has bit r set when the
    hook of index i in residue class r is present.  So a class is a
    gap-free block exactly when its bits stop at some row and never come
    back, and the walk goes up from row 0 while the row is not empty:
    a bit with none below it is a gap, and a class whose bit ends at
    depth i holds i hooks, so its column, found by one
    `Progression.residue_slots` lookup, holds b(j) = sign * i beads and
    gets the key `Progression.empty_keys`[j] + b(j).  A class with no
    slot, a column that two classes reach (they have opposite signs),
    and any bit above the first empty row are refused too.  The walk
    shifts the mask once per row, not once per hook.  The hook tuple is
    built only for the error, after a failure.
    """
    period, slots, empty = prog.period, prog.residue_slots, prog.empty_keys
    full = (1 << period) - 1
    keys = list(empty)
    rest = mask
    below = rest & full
    depth = 0
    while below:
        rest >>= period
        depth += 1
        row = rest & full
        if row & ~below:  # a class present here skipped the row below
            raise _placement_error(prog, _mask_hooks(mask))
        ends = below & ~row
        while ends:
            r = ends.bit_length() - 1
            ends ^= 1 << r
            slot = slots.get(r)
            if slot is None:  # an unplaceable hook
                raise _placement_error(prog, _mask_hooks(mask))
            j, sign = slot
            if keys[j] != empty[j]:  # a mixed column
                raise _placement_error(prog, _mask_hooks(mask))
            keys[j] += sign * depth
        below = row
    if rest:  # hooks above an empty row
        raise _placement_error(prog, _mask_hooks(mask))
    return keys


def _placement_error(
    prog: Progression, md: tuple[int, ...]
) -> UnplaceableHookError | BeadStructureError:
    """The error of a canonical hook set that `place_beads` refuses.

    The largest hook no position carries is reported first; otherwise
    the first column whose beads are not a block.  Each hook is filed
    under its column as its signed offset k from r(j), the quantity
    `_place_beads` adds to an empty key for a block's top hook: it sits
    in row r(j) + k - (k > 0).
    """
    period, slots = prog.period, prog.residue_slots
    offsets: dict[int, list[int]] = {}  # column -> signed offsets of its hooks
    for h in md:
        slot = slots.get(h % period)
        if slot is None:  # hooks are odd, so h is s+d mod the period
            return UnplaceableHookError(
                f"hook {h} is {prog.s + prog.d} mod {period}; "
                f"no abacus position carries it"
            )
        offsets.setdefault(slot[0], []).append(slot[1] * (h // period + 1))
    for j, ks in sorted(offsets.items()):  # a block: one sign, largest |k| its count
        if min(ks) < 0 < max(ks):
            return BeadStructureError(
                f"column {j} mixes beads on both sides of the sign boundary"
            )
        if max(map(abs, ks)) != len(ks):
            rows = sorted(prog.boundary_rows[j] + k - (k > 0) for k in ks)
            side = "positive" if ks[0] > 0 else "negative"
            return BeadStructureError(f"column {j} has a gap in its {side} bead block: {rows}")


def abacus_function(prog: Progression, beads: Sequence[int]) -> tuple[int, ...]:
    """Per-column summary f(j) = r(j) - 1 + b(j) of one signed bead count per column."""
    return tuple(map(add, prog.empty_tops, _check_column_count(prog, beads)))


def beads_from_function(prog: Progression, values: Iterable[int]) -> tuple[int, ...]:
    """Invert `abacus_function`: b(j) = f(j) - r(j) + 1."""
    values = _check_column_count(prog, values)
    return tuple(v - r + 1 for v, r in zip(values, prog.boundary_rows))


def state_md(prog: Progression, beads: Iterable[int]) -> tuple[int, ...]:
    """Diagonal hooks read back off one signed bead count per column, largest first."""
    beads = _check_column_count(prog, beads)
    return _mask_hooks(_beads_mask(prog, map(add, prog.empty_keys, beads)))


def _beads_mask(prog: Progression, keys: Iterable[int]) -> int:
    """The hook-set mask of the beads whose summary is f, read off f(j) + j: the read-back.

    A column with b = f(j) - r(j) + 1 beads holds the |b| smallest hooks
    of one class, its block, whose mask `Progression.class_blocks` keys
    by f(j) + j, builds on its first read and keeps; a dict keeps only
    the blocks some call has read.  Keys past the last column are not
    read.  The columns' classes are disjoint, so the blocks' masks add
    up to the set's.
    """
    return sum(map(getitem, prog.class_blocks, keys))


def validate_core_function(values: Iterable[int], prog: Progression) -> bool:
    """Check that f is the summary of a core: f(0) = 0 and f spells an admissible path.

    The word of f's differences, with the convention step to -(d+1)/2
    added for odd d (see `_path_word`), must pass `Progression.constraints`
    at type (x, y), the rules `phi` and `phi_inverse` read; a jump of 2 or
    more fails.  Needs p >= 2.
    """
    check_progression_length(prog.p)
    values = _check_column_count(prog, values)
    if values[0] != 0:
        return False
    try:
        steps = _path_word(prog, list(map(add, values, range(prog.columns))))
    except ValueError:  # a jump of 2 or more
        return False
    return _satisfies(steps, prog.constraints, prog.x, prog.y)


def _path_word(prog: Progression, keys: Sequence[int]) -> str:
    """The U/D/F word of the column keys f(j) + j, with odd d's convention step.

    Consecutive keys differ by f's difference plus one, so the
    differences are the step bytes D = 0, F = 1, U = 2, and one
    translate spells them.  For odd d a last step to the key of
    f = -(d+1)/2 one column past the last is added.  A fall of 2 or more
    is a negative difference, which `bytes` refuses; a rise of 2 or more
    leaves a byte past 2.  Either raises `ValueError` with the first
    difference of f outside -1, 0, 1, worked out only then.
    """
    if prog.d % 2 == 1:
        keys = [*keys, prog.y + prog.columns]
    try:
        steps = bytes(map(sub, keys[1:], keys))
        if not steps.translate(None, _STEP_BYTES):
            return steps.translate(_STEP_LETTERS).decode()
    except ValueError:  # a fall of 2 or more
        pass
    raise ValueError(next(b - a - 1 for a, b in zip(keys, keys[1:]) if not 0 <= b - a <= 2))


def render_abacus(prog: Progression, beads: Iterable[int]) -> str:
    """ASCII picture of the abacus: labels in a grid, beads in parentheses.

    Columns run left to right, rows bottom to top.  The rows shown cover
    every bead with one row of margin and always include the sign
    boundary of each column.  Column j's beads are one span of rows from
    r(j), and its labels fall by one period per row.
    """
    beads = _check_column_count(prog, beads)
    spans = [range(min(r, r + b), max(r, r + b)) for b, r in zip(beads, prog.boundary_rows)]
    lo = min(span.start for span in spans) - 1
    hi = max(span.stop for span in spans)
    rows = range(hi, lo - 1, -1)
    columns = []
    for j, span in enumerate(spans):
        labels = range(label(prog, hi, j), label(prog, lo - 1, j), -prog.period)
        cells = [str(j), *(f"({v})" if i in span else str(v) for i, v in zip(rows, labels))]
        width = max(map(len, cells))
        columns.append([cell.rjust(width) for cell in cells])
    heads = ["i\\j", *map(str, rows)]
    left = max(map(len, heads))
    return "\n".join(
        head.rjust(left) + " | " + "  ".join(line) for head, line in zip(heads, zip(*columns))
    )


def abacus_record(prog: Progression, beads: Iterable[int]) -> dict:
    """JSON-ready record: (s, d, a) plus per-column (j, r, b, f)."""
    beads = _check_column_count(prog, beads)
    return {
        "s": prog.s,
        "d": prog.d,
        "a": prog.a,
        "columns": [
            {"j": j, "r": r, "b": b, "f": r - 1 + b}
            for j, (r, b) in enumerate(zip(prog.boundary_rows, beads))
        ],
    }
