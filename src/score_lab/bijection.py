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
than assumed.

For d = 1 the encoding refines by the corner count m of the partition:
paths of cores with even m end in D and carry floor(s/2) - m flats;
paths of cores with odd m end in F and carry floor(s/2) - m + 1 flats.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import sub

from .abacus import _abacus_function, _beads_from_function, _place_beads, _state_hooks
from .errors import (
    InternalConsistencyError,
    InvalidPathError,
    NotACoreError,
    UnsupportedParametersError,
    check_progression,
    check_progression_length,
)
from .mdcore import (
    _corners,
    _hook_mask,
    _is_simultaneous_core,
    _md_to_partition,
    validate_md,
)
from .motzkin import _satisfies, satisfies
from .progression import Progression

__all__ = [
    "phi_context",
    "phi",
    "phi_inverse",
    "corner_statistics",
    "mapping_record",
]

_LETTER = {1: "U", -1: "D", 0: "F"}
_HEIGHT = {letter: step for step, letter in _LETTER.items()}


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
    return _phi(validate_md(md), prog)


def _phi(md: tuple[int, ...], prog: Progression) -> str:
    """`phi` on a canonical hook set.

    A hook past `Progression.md_bound` is refused before any mask is
    built: no core has one, and the mask would take a bit per odd number
    below it.
    """
    if (md and md[0] > prog.md_bound) or not _is_simultaneous_core(
        _hook_mask(md), prog.doubled, prog.pair_mask
    ):
        raise NotACoreError(
            f"{md} is not a self-conjugate {prog.moduli}-core hook set"
        )
    f = list(_abacus_function(prog, _place_beads(prog, md)))
    if prog.d % 2 == 1:
        f.append(prog.y)  # the convention step to -(d+1)/2
    try:
        steps = "".join(map(_LETTER.__getitem__, map(sub, f[1:], f)))
    except KeyError as exc:  # a jump of 2+ would mean the encoding is broken
        raise InternalConsistencyError(f"column summary jumps by {exc} for {md}")
    if not _satisfies(steps, prog.constraints, prog.x, prog.y):
        raise InternalConsistencyError(
            f"path {steps} for {md} violates its own constraint set"
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
    heights = list(accumulate(map(_HEIGHT.__getitem__, steps), initial=0))
    if prog.d % 2 == 1:
        heights.pop()  # the appended convention step
    md, mask = _state_hooks(prog, _beads_from_function(prog, heights))
    if not _is_simultaneous_core(mask, prog.doubled, prog.pair_mask):
        raise InternalConsistencyError(
            f"path {steps} reconstructed a non-core hook set {md}"
        )
    return md


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
    md = validate_md(md)
    steps = _phi(md, prog)
    return _corners(_md_to_partition(md)), steps[-1:] or "-", steps.count("F")


def mapping_record(md: Iterable[int], prog: Progression) -> dict:
    """JSON-ready record of one core-to-path assignment."""
    md = validate_md(md)
    steps = _phi(md, prog)
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
        record["corners"] = _corners(_md_to_partition(md))
    return record
