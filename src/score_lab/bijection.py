"""Encoding self-conjugate simultaneous cores as constrained lattice paths.

The abacus summary f of a self-conjugate (s, s+d, ..., s+pd)-core
starts at f(0) = 0 and moves by at most one per column, so its
consecutive differences spell a word over U/D/F.  With one convention
step appended for odd d (a final value of -(d+1)/2), the word is a
free rational Motzkin path of type

    (floor(s/2) + ceil(d/2), -ceil(d/2))

avoiding the patterns listed by `score_lab.motzkin.constraints_for`,
and the assignment is a bijection onto all such paths.  `phi` computes
the path, `phi_inverse` reconstructs the diagonal hook set from a path,
and both ends are validated so the correspondence is enforced rather
than assumed: `phi` runs the core test on its input and checks the path
it builds against the constraint set, and `phi_inverse` checks its
input path the same way and runs the core test on the hook set it
reads back.  Both directions work in the column keys f(j) + j, the
summary f plus the column index, which are a path's running sums with
U = 2, F = 1, D = 0.  The read-back, keys to the hook-set mask, is one
unchecked body (`_path_mask` over the abacus's `_beads_mask`), which
`score_lab.oracle.verify_instance` calls on `phi`'s word, so a core's
round trip runs each check once.  `phi`'s body takes the core as a
hook-set mask alone, the form the oracle's search yields: the core
test, the bead placement and verify's compare with the read-back all
work on that one int, and the hook tuple is built only to name a
failure.  Its bead placement gives the keys, and the keys -> word step
is `score_lab.abacus`'s one bytes step, the one
`validate_core_function` checks a summary through, so the path rules
have one home; no f or bead count is built on the way.

For d = 1 the encoding refines by the corner count m of the partition:
paths of cores with even m end in D and carry floor(s/2) - m flats;
paths of cores with odd m end in F and carry floor(s/2) - m + 1 flats.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from .abacus import _beads_mask, _path_word, _place_beads
from .errors import (
    InternalConsistencyError,
    InvalidPathError,
    NotACoreError,
    UnsupportedParametersError,
    check_progression,
    check_progression_length,
)
from .mdcore import _hook_mask, _is_simultaneous_core, _mask_corners, _mask_hooks, validate_md
from .motzkin import _RISES, _satisfies, satisfies
from .progression import Progression

__all__ = [
    "phi_context",
    "phi",
    "phi_inverse",
    "corner_statistics",
    "mapping_record",
]

# a step's letter -> its rise + 1
_STEP_KEYS = bytes.maketrans(
    "".join(letter for letter, _ in _RISES).encode(), bytes(rise + 1 for _, rise in _RISES)
)


def phi_context(s: int, d: int, p: int) -> Progression:
    """The progression for coprime s, d and a length p >= 2 the encoding needs.

    (s, d) is checked first and the length rule second, in the wording
    every route that needs p >= 2 shares.
    """
    check_progression(s, d)
    check_progression_length(p)
    return Progression(s, d, p)


def phi(md: Iterable[int], prog: Progression) -> str:
    """Path of the core with diagonal hooks ``md``.

    Raises `NotACoreError` unless ``md`` is a self-conjugate
    (s, s+d, ..., s+pd)-core hook set.
    """
    return _phi(_core_mask(validate_md(md), prog), prog)


def _core_mask(md: tuple[int, ...], prog: Progression) -> int:
    """The `_hook_mask` of a canonical hook set that may be a core of ``prog``.

    A hook past `Progression.md_bound` is refused before any mask is
    built: no core has one, and the mask would take a bit per odd number
    below it.
    """
    if md and md[0] > prog.md_bound:
        raise _not_a_core(md, prog)
    return _hook_mask(md)


def _not_a_core(md: tuple[int, ...], prog: Progression) -> NotACoreError:
    """The error for a canonical hook set that is no core of ``prog``."""
    return NotACoreError(f"{md} is not a self-conjugate {prog.moduli}-core hook set")


def _phi(mask: int, prog: Progression) -> str:
    """`phi` on the `_hook_mask` of a canonical hook set; the hook tuple only names a failure."""
    if not _is_simultaneous_core(mask, prog.doubled):
        raise _not_a_core(_mask_hooks(mask), prog)
    keys = _place_beads(prog, mask)
    try:
        steps = _path_word(prog, keys)
    except ValueError as exc:  # a jump of 2+ would mean the encoding is broken
        raise InternalConsistencyError(
            f"column summary jumps by {exc} for {_mask_hooks(mask)}"
        )
    if not _satisfies(steps, prog.constraints, prog.x, prog.y):
        raise InternalConsistencyError(
            f"path {steps} for {_mask_hooks(mask)} violates its own constraint set"
        )
    return steps


def phi_inverse(steps: str, prog: Progression) -> tuple[int, ...]:
    """Diagonal hook set of the core whose path is ``steps``.

    Raises `InvalidPathError` when the path has the wrong type or
    breaks a constraint.  The reconstructed hook set is re-checked
    through the full core test; a failure there raises
    `InternalConsistencyError` because it cannot happen for an
    admissible path.
    """
    if not satisfies(steps, prog.constraints, prog.x, prog.y):
        raise InvalidPathError(
            f"path {steps!r} is not an admissible type ({prog.x}, {prog.y}) path "
            f"for s={prog.s}, d={prog.d}, p={prog.p}"
        )
    mask = _path_mask(steps, prog)
    if not _is_simultaneous_core(mask, prog.doubled):
        raise InternalConsistencyError(
            f"path {steps} reconstructed a non-core hook set {_mask_hooks(mask)}"
        )
    return _mask_hooks(mask)


def _path_mask(steps: str, prog: Progression) -> int:
    """The hook-set mask the abacus reads back off a word over U/D/F, unchecked.

    After j steps the height is f(j) and the running sum of the steps
    counted U = 2, F = 1, D = 0 is f(j) + j, the key by which the abacus
    reads its blocks, so one bytes translate gives every key.  The
    read-back stops at the last column, so the convention step of an odd
    d is never read.  Distinct words of one type (x, y) give distinct
    masks: the keys give f, and f the blocks, one for one.
    """
    return _beads_mask(prog, accumulate(steps.encode().translate(_STEP_KEYS), initial=0))


def corner_statistics(md: Iterable[int], prog: Progression) -> tuple[int, str, int]:
    """Corner count, final step, and flat count for a d = 1 core.

    Returns (m, last, flats) where m is the number of corners of the
    partition, last the final step of its path, and flats the number of
    F steps.  Only defined for d = 1.
    """
    if prog.d != 1:
        raise UnsupportedParametersError(
            f"corner statistics are defined for d=1 only, got d={prog.d}"
        )
    mask = _core_mask(validate_md(md), prog)
    steps = _phi(mask, prog)
    return _mask_corners(mask), steps[-1:] or "-", steps.count("F")


def mapping_record(md: Iterable[int], prog: Progression) -> dict:
    """JSON-ready record of one core-to-path assignment."""
    md = validate_md(md)
    mask = _core_mask(md, prog)
    return _mapping_record(md, _phi(mask, prog), prog, _mask_corners(mask))


def _mapping_record(md: tuple[int, ...], steps: str, prog: Progression, corners: int) -> dict:
    """`mapping_record` of a core's canonical hooks and its path, both already checked.

    ``corners`` is the core's corner count, kept only for d = 1.
    """
    record = {
        "md": list(md),
        "s": prog.s,
        "d": prog.d,
        "p": prog.p,
        "path": steps,
        "x": prog.x,
        "y": prog.y,
    }
    if prog.d == 1:
        record["corners"] = corners
    return record
