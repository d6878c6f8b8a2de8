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
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub

from .abacus import (
    AbacusSpec,
    _abacus_function,
    _beads_from_function,
    _place_beads,
    _state_md,
    abacus_spec,
)
from .errors import (
    InternalConsistencyError,
    InvalidPathError,
    NotACoreError,
    UnsupportedParametersError,
    check_progression,
    check_progression_length,
)
from .mdcore import (
    _coprime_pair_sums,
    _is_simultaneous_core,
    corners,
    md_to_partition,
    validate_md,
)
from .motzkin import (
    PathConstraintSet,
    _satisfies,
    constraints_for,
    flat_count,
    last_step,
    satisfies,
)

__all__ = [
    "PhiContext",
    "phi_context",
    "phi",
    "phi_inverse",
    "corner_statistics",
    "mapping_record",
]

_LETTER = {1: "U", -1: "D", 0: "F"}
_HEIGHT = {letter: step for step, letter in _LETTER.items()}


@dataclass(frozen=True)
class PhiContext:
    """A validated progression, the path type it maps onto, and its tables.

    Build it with `phi_context`.  The fields after ``moduli`` are derived
    from (s, d, p) once, so that `phi` and `phi_inverse` only read them:
    the abacus grid (whose residue map and boundary rows are computed
    once on it), the constraint set, the doubled moduli and the coprime
    pair sums the core test rejects first.
    """

    s: int
    d: int
    p: int
    x: int
    y: int
    moduli: tuple[int, ...]
    spec: AbacusSpec = field(repr=False, compare=False)
    constraints: PathConstraintSet = field(repr=False, compare=False)
    doubled: tuple[int, ...] = field(repr=False, compare=False)
    pair_sums: frozenset[int] = field(repr=False, compare=False)


def phi_context(s: int, d: int, p: int) -> PhiContext:
    """Context for coprime s, d and progression length p >= 2."""
    check_progression(s, d)
    check_progression_length(p)
    half_up = (d + 1) // 2
    moduli = tuple(s + k * d for k in range(p + 1))
    return PhiContext(
        s,
        d,
        p,
        s // 2 + half_up,
        -half_up,
        moduli,
        spec=abacus_spec(s, d),
        constraints=constraints_for(s, d, p),
        doubled=tuple(2 * t for t in moduli),
        pair_sums=_coprime_pair_sums(moduli),
    )


def phi(md: Iterable[int], ctx: PhiContext) -> str:
    """Path of the core with diagonal hooks ``md``.

    Raises `NotACoreError` unless ``md`` is a self-conjugate
    (s, s+d, ..., s+pd)-core hook set.
    """
    return _phi(validate_md(md), ctx)


def _phi(md: tuple[int, ...], ctx: PhiContext) -> str:
    """`phi` on a canonical hook set."""
    if not _is_simultaneous_core(md, ctx.doubled, ctx.pair_sums):
        raise NotACoreError(
            f"{md} is not a self-conjugate {ctx.moduli}-core hook set"
        )
    f = list(_abacus_function(ctx.spec, _place_beads(ctx.spec, md)))
    if ctx.d % 2 == 1:
        f.append(-(ctx.d + 1) // 2)
    try:
        steps = "".join(map(_LETTER.__getitem__, map(sub, f[1:], f)))
    except KeyError as exc:  # a jump of 2+ would mean the encoding is broken
        raise InternalConsistencyError(f"column summary jumps by {exc} for {md}")
    if not _satisfies(steps, ctx.constraints, ctx.x, ctx.y):
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
    if not satisfies(steps, ctx.constraints, ctx.x, ctx.y):
        raise InvalidPathError(
            f"path {steps!r} is not an admissible type ({ctx.x}, {ctx.y}) path "
            f"for s={ctx.s}, d={ctx.d}, p={ctx.p}"
        )
    heights = list(accumulate(map(_HEIGHT.__getitem__, steps), initial=0))
    if ctx.d % 2 == 1:
        heights.pop()  # the appended convention step
    md = _state_md(ctx.spec, _beads_from_function(ctx.spec, heights))
    if not _is_simultaneous_core(md, ctx.doubled, ctx.pair_sums):
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
    steps = _phi(md, ctx)
    return corners(md_to_partition(md)), last_step(steps) or "-", flat_count(steps)


def mapping_record(md: Iterable[int], ctx: PhiContext) -> dict:
    """JSON-ready record of one core-to-path assignment."""
    md = validate_md(md)
    steps = _phi(md, ctx)
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
