"""Self-conjugate partitions and their diagonal hook sets.

A partition is *self-conjugate* when its Young diagram equals its own
reflection across the main diagonal.  Peeling such a diagram into
symmetric L-shaped strips shows that the hook lengths of the diagonal
boxes form a strictly decreasing sequence of odd positive integers
whose sum is the partition size, and that every such sequence comes
from exactly one self-conjugate partition.

Two encodings are used throughout the package:

* ``parts`` -- a tuple of weakly decreasing positive integers (any
  partition, not necessarily self-conjugate);
* ``md`` -- the diagonal hook set of a self-conjugate partition, as a
  strictly decreasing tuple of odd positive integers.

Core membership can be tested on either encoding.  `is_core` walks the
full hook-length table of the Young diagram; `md_is_core` works
directly on the diagonal hook set through modular conditions.  The two
routes are deliberately separate code paths and are cross-checked
against each other in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd

from .errors import InvalidInputError

__all__ = [
    "validate_md",
    "validate_partition",
    "conjugate",
    "md_to_partition",
    "partition_to_md",
    "hook_lengths",
    "is_core",
    "md_is_core",
    "md_is_simultaneous_core",
    "corners",
    "partition_record",
]


def validate_md(elements: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a diagonal hook set to a strictly decreasing tuple.

    Raises `InvalidInputError` if any element is even, non-positive, or
    repeated.
    """
    md = tuple(sorted(elements, reverse=True))
    for h in md:
        if not isinstance(h, int) or h <= 0 or h % 2 == 0:
            raise InvalidInputError(
                f"diagonal hooks must be odd positive integers, got {h!r}"
            )
    if any(md[i] == md[i + 1] for i in range(len(md) - 1)):
        raise InvalidInputError(f"diagonal hooks must be distinct, got {md}")
    return md


def validate_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a partition to a tuple, checking monotonicity."""
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or p <= 0:
            raise InvalidInputError(f"parts must be positive integers, got {p!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidInputError(f"parts must be weakly decreasing, got {parts}")
    return parts


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram: column lengths of ``parts``."""
    parts = validate_partition(parts)
    if not parts:
        return ()
    width = parts[0]
    counts = [0] * (width + 1)
    for p in parts:
        counts[p] += 1
    out = []
    running = 0
    for j in range(width, 0, -1):
        running += counts[j]
        out.append(running)
    out.reverse()
    return tuple(out)


def md_to_partition(md: Iterable[int]) -> tuple[int, ...]:
    """Rebuild the self-conjugate partition with the given diagonal hooks.

    Row i (1-based, up to the Durfee size D = len(md)) holds
    (md[i-1] - 1) // 2 + i boxes; rows below the Durfee square are
    forced by the column symmetry.
    """
    return _md_to_partition(validate_md(md))


def _md_to_partition(md: tuple[int, ...]) -> tuple[int, ...]:
    """`md_to_partition` of a canonical hook set."""
    depth = len(md)
    if depth == 0:
        return ()
    parts = [(h - 1) // 2 + i for i, h in enumerate(md, start=1)]
    for row in range(depth + 1, parts[0] + 1):
        parts.append(sum(1 for p in parts[:depth] if p >= row))
    return tuple(parts)


def partition_to_md(parts: Iterable[int]) -> tuple[int, ...]:
    """Diagonal hook set of a self-conjugate partition.

    Raises `InvalidInputError` when the partition is not self-conjugate.
    """
    parts = validate_partition(parts)
    if conjugate(parts) != parts:
        raise InvalidInputError(f"partition {parts} is not self-conjugate")
    md = []
    for i, p in enumerate(parts, start=1):
        if p < i:
            break
        md.append(2 * (p - i) + 1)
    return tuple(md)


def hook_lengths(parts: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Hook-length table of the Young diagram, one tuple per row.

    The hook of a box counts the box itself, the boxes strictly to its
    right, and the boxes strictly below it.
    """
    parts = validate_partition(parts)
    conj = conjugate(parts)
    return tuple(
        tuple(row + conj[j] - i - j - 1 for j in range(row))
        for i, row in enumerate(parts)
    )


def is_core(parts: Iterable[int], t: int) -> bool:
    """True when no box of the Young diagram has hook length ``t``.

    This is the direct test on the full hook table; see `md_is_core`
    for the diagonal-hook-set shortcut.
    """
    _check_modulus(t)
    return all(t not in row for row in hook_lengths(parts))


def md_is_core(md: Iterable[int], t: int) -> bool:
    """Core test straight on the diagonal hook set.

    A self-conjugate partition is a t-core exactly when its diagonal
    hook set is closed under subtracting 2t (whenever the difference is
    still positive) and no two entries, repeats allowed, sum to a
    multiple of 2t.  Equals ``is_core(md_to_partition(md), t)``.
    """
    _check_modulus(t)
    return _residues_pass(validate_md(md), (t,))


def md_is_simultaneous_core(md: Iterable[int], moduli: Sequence[int]) -> bool:
    """True when the hook set passes `md_is_core` for every modulus.

    For every coprime pair of moduli (s, t), a simultaneous core can
    never contain the diagonal hook s + t; that cheap rejection runs
    first.
    """
    if not moduli:
        raise InvalidInputError("at least one core modulus is required")
    for t in moduli:
        _check_modulus(t)
    md = validate_md(md)
    return _coprime_pair_sums(moduli).isdisjoint(md) and _residues_pass(md, moduli)


def _check_modulus(t: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise InvalidInputError(f"core modulus must be a positive integer, got {t!r}")


def _residues_pass(md: tuple[int, ...], moduli: Sequence[int]) -> bool:
    """The closure and pair-sum conditions of `md_is_core` for each modulus.

    Read off the hooks and their residues mod 2t, so the memory taken
    grows with the number of hooks, not their size.  A residue r of an
    odd hook lies strictly between 0 and 2t, so two hooks sum to a
    multiple of 2t exactly when their residues sum to 2t.
    """
    hooks = set(md)
    for t in moduli:
        m2 = 2 * t
        residues = {h % m2 for h in md}
        if any(h > m2 and h - m2 not in hooks for h in md):
            return False
        if any(m2 - r in residues for r in residues):
            return False
    return True


def _coprime_pair_sums(moduli: Sequence[int]) -> frozenset[int]:
    """The sums s + t over coprime pairs of moduli: hooks no simultaneous core has."""
    return frozenset(
        s + t for i, s in enumerate(moduli) for t in moduli[i + 1 :] if gcd(s, t) == 1
    )


def _hook_mask(hooks: Iterable[int]) -> int:
    """The hook set as one int: bit h is set for each hook h."""
    return sum(map((1).__lshift__, hooks))


def _is_simultaneous_core(mask: int, doubled: Sequence[int], pair_mask: int) -> bool:
    """`md_is_simultaneous_core` on the `_hook_mask` of a canonical hook set.

    ``doubled`` holds 2t for each modulus t and ``pair_mask`` is the
    mask of the coprime pair sums, so callers that test many hook sets
    against one progression derive them once.  For each 2t the closure
    test is one shift and one AND: a hook h > 2t whose h - 2t is missing
    leaves a bit in ``(mask >> 2t) & ~mask``.  Under closure every
    residue mod 2t is itself a hook below 2t, so two hooks summing to a
    multiple of 2t exist exactly when two hooks sum to 2t.  The bit
    reversal ``mirror`` of the mask (bit top - h for each hook h, top
    the largest hook) finds such a pair: ``mirror << 2t`` has bit
    top + 2t - h, which meets bit top + h' of ``mask << top`` exactly
    when h + h' = 2t.  A 2t past twice the top hook is skipped: nothing
    is closed under it and no pair reaches it, and the shifted mirror
    would take a bit per unit of 2t.
    """
    if mask & pair_mask:
        return False
    if not mask:
        return True
    top = mask.bit_length() - 1
    mirror = int(f"{mask:b}"[::-1], 2)
    missing = ~mask
    raised = mask << top
    for m2 in doubled:
        if m2 <= 2 * top and ((mask >> m2) & missing or raised & (mirror << m2)):
            return False
    return True


def corners(parts: Iterable[int]) -> int:
    """Number of removable boxes, i.e. the number of distinct part sizes."""
    return _corners(validate_partition(parts))


def _corners(parts: Sequence[int]) -> int:
    """`corners` of a canonical partition."""
    return len(set(parts))


def partition_record(md: Iterable[int]) -> dict:
    """JSON-ready record for the self-conjugate partition with hooks ``md``."""
    md = validate_md(md)
    parts = md_to_partition(md)
    return {
        "parts": list(parts),
        "md": list(md),
        "corners": corners(parts),
        "size": sum(parts),
    }
