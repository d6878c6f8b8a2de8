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
from dataclasses import dataclass

from .abacus import (
    abacus_function,
    abacus_spec,
    beads_from_function,
    place_beads,
    state_md,
)
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    InvalidPathError,
    NotACoreError,
    UnsupportedParametersError,
    check_progression,
)
from .mdcore import corners, md_is_simultaneous_core, md_to_partition, validate_md
from .motzkin import constraints_for, flat_count, last_step, satisfies

__all__ = [
    "PhiContext",
    "phi_context",
    "phi",
    "phi_inverse",
    "corner_statistics",
    "mapping_record",
]

_LETTER = {1: "U", -1: "D", 0: "F"}


@dataclass(frozen=True)
class PhiContext:
    """Progression parameters plus the path type they map onto."""

    s: int
    d: int
    p: int
    x: int
    y: int

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.s + k * self.d for k in range(self.p + 1))


def phi_context(s: int, d: int, p: int) -> PhiContext:
    """Context for coprime s, d and progression length p >= 2."""
    check_progression(s, d)
    if not (isinstance(p, int) and p >= 2):
        raise InvalidInputError(f"progression length p must be >= 2, got {p!r}")
    half_up = (d + 1) // 2
    return PhiContext(s, d, p, s // 2 + half_up, -half_up)


def phi(md: Iterable[int], ctx: PhiContext) -> str:
    """Path of the core with diagonal hooks ``md``.

    Raises `NotACoreError` unless ``md`` is a self-conjugate
    (s, s+d, ..., s+pd)-core hook set.
    """
    md = validate_md(md)
    if not md_is_simultaneous_core(md, ctx.moduli):
        raise NotACoreError(
            f"{md} is not a self-conjugate {ctx.moduli}-core hook set"
        )
    spec = abacus_spec(ctx.s, ctx.d)
    f = list(abacus_function(place_beads(spec, md)))
    if ctx.d % 2 == 1:
        f.append(-(ctx.d + 1) // 2)
    try:
        steps = "".join(_LETTER[f[j] - f[j - 1]] for j in range(1, len(f)))
    except KeyError as exc:  # a jump of 2+ would mean the encoding is broken
        raise InternalConsistencyError(f"column summary jumps by {exc} for {md}")
    if not satisfies(steps, constraints_for(ctx.s, ctx.d, ctx.p), ctx.x, ctx.y):
        raise InternalConsistencyError(
            f"path {steps} for {md} violates its own constraint set"
        )
    return steps


def phi_inverse(steps: str, ctx: PhiContext) -> tuple[int, ...]:
    """Diagonal hook set of the core whose path is ``steps``.

    Raises `InvalidPathError` when the path has the wrong type or
    breaks a constraint.  The reconstructed hook set is re-checked
    through the full core test; a failure there raises
    `InternalConsistencyError` because it cannot happen for an
    admissible path.
    """
    cset = constraints_for(ctx.s, ctx.d, ctx.p)
    if not satisfies(steps, cset, ctx.x, ctx.y):
        raise InvalidPathError(
            f"path {steps!r} is not an admissible type ({ctx.x}, {ctx.y}) path "
            f"for s={ctx.s}, d={ctx.d}, p={ctx.p}"
        )
    heights = [0]
    for c in steps:
        heights.append(heights[-1] + {"U": 1, "D": -1, "F": 0}[c])
    if ctx.d % 2 == 1:
        heights.pop()  # the appended convention step
    spec = abacus_spec(ctx.s, ctx.d)
    md = state_md(beads_from_function(spec, heights))
    if not md_is_simultaneous_core(md, ctx.moduli):
        raise InternalConsistencyError(
            f"path {steps} reconstructed a non-core hook set {md}"
        )
    return md


def corner_statistics(md: Iterable[int], ctx: PhiContext) -> tuple[int, str, int]:
    """Corner count, final step, and flat count for a d = 1 core.

    Returns (m, last, flats) where m is the number of corners of the
    partition, last the final step of its path, and flats the number of
    F steps.  Only defined for d = 1.
    """
    if ctx.d != 1:
        raise UnsupportedParametersError(
            f"corner statistics are defined for d=1 only, got d={ctx.d}"
        )
    md = validate_md(md)
    steps = phi(md, ctx)
    return corners(md_to_partition(md)), last_step(steps) or "-", flat_count(steps)


def mapping_record(md: Iterable[int], ctx: PhiContext) -> dict:
    """JSON-ready record of one core-to-path assignment."""
    md = validate_md(md)
    steps = phi(md, ctx)
    record = {
        "md": list(md),
        "s": ctx.s,
        "d": ctx.d,
        "p": ctx.p,
        "path": steps,
        "x": ctx.x,
        "y": ctx.y,
    }
    if ctx.d == 1:
        record["corners"] = corners(md_to_partition(md))
    return record
