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

A simultaneous core is tested one modulus at a time and nothing more.
For two moduli s and t, an s-core that is also a t-core is an
(s+t)-core (its beta-set is closed under -s and -t, hence under
-(s+t)), so the hook s + t needs no check of its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

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
    # Past the Durfee square, row r has one box per Durfee row at least r
    # long.  So, walking k down the Durfee rows, the rows after the last one
    # filled, up to row parts[k - 1], have k boxes each.
    parts = [(h - 1) // 2 + i for i, h in enumerate(md, start=1)]
    below = len(md)
    for k in range(len(md), 0, -1):
        reach = parts[k - 1]
        parts += [k] * (reach - below)
        below = reach
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
    """Core test straight on the diagonal hook set: `md_is_simultaneous_core` for t alone.

    Equals ``is_core(md_to_partition(md), t)``.
    """
    return md_is_simultaneous_core(md, (t,))


def md_is_simultaneous_core(md: Iterable[int], moduli: Iterable[int]) -> bool:
    """True when the hook set is a t-core hook set for every modulus t.

    A self-conjugate partition is a t-core exactly when its diagonal
    hook set is closed under subtracting 2t (whenever the difference is
    still positive) and no two entries, repeats allowed, sum to a
    multiple of 2t.  Read off the hooks and their residues mod 2t, so
    the memory taken grows with the number of hooks, not their size.  A
    residue r of an odd hook lies strictly between 0 and 2t, so two
    hooks sum to a multiple of 2t exactly when their residues sum to 2t.
    """
    moduli = tuple(moduli)
    if not moduli:
        raise InvalidInputError("at least one core modulus is required")
    for t in moduli:
        _check_modulus(t)
    md = validate_md(md)
    hooks = set(md)
    for t in moduli:
        m2 = 2 * t
        residues = {h % m2 for h in md}
        if any(h > m2 and h - m2 not in hooks for h in md):
            return False
        if any(m2 - r in residues for r in residues):
            return False
    return True


def _check_modulus(t: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise InvalidInputError(f"core modulus must be a positive integer, got {t!r}")


def _hook_mask(hooks: Sequence[int]) -> int:
    """The hook set as one int: bit h is set for each hook h, in time linear in the largest h."""
    bits = bytearray(max(hooks, default=-1) // 8 + 1)
    for h in hooks:
        bits[h >> 3] |= 1 << (h & 7)
    return int.from_bytes(bits, "little")


def _mask_hooks(mask: int) -> tuple[int, ...]:
    """The canonical hook set of a `_hook_mask`: its set bits, largest first.

    The bits are read off the mask's binary digits, most significant
    first, in time linear in its width; clearing the top bit once per
    hook would copy the whole mask once per hook.
    """
    hooks = []
    digits = bin(mask)
    last = len(digits) - 1
    i = digits.find("1")
    while i > 0:  # past the "0b" prefix; -1 once no 1 is left
        hooks.append(last - i)
        i = digits.find("1", i + 1)
    return tuple(hooks)


# byte -> the byte with its 8 bits in reverse order
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _is_simultaneous_core(mask: int, doubled: Sequence[int]) -> bool:
    """`md_is_simultaneous_core` on the `_hook_mask` of a canonical hook set.

    ``doubled`` holds 2t for each modulus t, so callers that test many
    hook sets against one progression derive it once.  For each 2t the
    closure test is one shift and one AND: a hook h > 2t whose h - 2t is
    missing leaves a bit in ``(mask >> 2t) & ~mask``.  Under closure
    every residue mod 2t is itself a hook below 2t, so two hooks summing
    to a multiple of 2t exist exactly when two hooks sum to 2t.  The bit
    reversal ``mirror`` of the mask (bit top - h for each hook h, top
    the largest hook) finds such a pair: ``mirror << 2t`` has bit
    top + 2t - h, which meets bit top + h' of ``mask << top`` exactly
    when h + h' = 2t.  A 2t past twice the top hook is skipped: nothing
    is closed under it and no pair reaches it, and the shifted mirror
    would take a bit per unit of 2t.  The mirror is the mask's bytes,
    least significant first, each bit-reversed through `_REVERSED_BITS`
    and read back most significant first: the mask reversed over whole
    bytes, shifted down past the padding above its top bit.
    """
    if not mask:
        return True
    top = mask.bit_length() - 1
    width = top // 8 + 1
    mirror = int.from_bytes(
        mask.to_bytes(width, "little").translate(_REVERSED_BITS), "big"
    ) >> (8 * width - 1 - top)
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


def _mask_corners(mask: int) -> int:
    """`corners` of the self-conjugate partition whose `_hook_mask` is ``mask``.

    With diagonal hooks h_1 > ... > h_D, row i < D ends in a corner
    exactly when h_i - h_(i+1) > 2, and each such corner has a conjugate
    twin below the Durfee square; the last diagonal hook adds one corner
    when it is 1 and two otherwise.  So the count is 2 |md|, less two per
    pair of hooks 2 apart, less 1 when 1 is a hook.  `_corners` of the
    partition stays the reference the tests compare with.
    """
    return 2 * (mask.bit_count() - (mask & mask >> 2).bit_count()) - (mask >> 1 & 1)


def _partition_record(md: tuple[int, ...]) -> dict:
    """JSON-ready record for the self-conjugate partition with canonical hooks ``md``."""
    parts = _md_to_partition(md)
    return {
        "parts": list(parts),
        "md": list(md),
        "corners": _corners(parts),
        "size": sum(parts),
    }
