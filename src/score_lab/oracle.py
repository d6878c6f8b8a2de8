"""Brute-force enumeration of self-conjugate simultaneous cores.

Two independent enumerators back every identity in the package:

* `enumerate_md_sets` searches diagonal hook sets directly, pruning
  with the modular core conditions (pair sums and downward closure).
  It never touches the abacus or the path encoding.
* `enumerate_by_partition_scan` searches partitions by growing the
  diagonal hook chain from the smallest hook upward and filters purely
  through Young-diagram hook arithmetic.  It never uses the modular
  conditions, so the two enumerators share no core-testing logic.

`verify_instance` cross-checks, for one parameter triple, the two
enumerations, both path-counting routes, the closed formulas, the
round trip of the path encoding, and the d = 1 corner refinement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bijection import phi, phi_inverse
from .errors import InvalidInputError, check_progression_length
from .formulas import CORNER_FORMULAS, closed_forms
from .mdcore import _corners, _md_to_partition
from .motzkin import count_paths_dp, enumerate_paths
from .progression import Progression, default_md_bound

__all__ = [
    "default_md_bound",
    "pair_core_size_bound",
    "enumerate_md_sets",
    "enumerate_by_partition_scan",
    "VerifyReport",
    "verify_instance",
]


def pair_core_size_bound(s: int, t: int) -> int:
    """Largest possible size of an (s, t)-core: (s^2-1)(t^2-1)/24."""
    return (s * s - 1) * (t * t - 1) // 24


def enumerate_md_sets(prog: Progression, bound: int | None = None) -> list[tuple[int, ...]]:
    """All core diagonal hook sets of the progression, lexicographically sorted.

    ``bound`` caps the candidate diagonal hooks and defaults to
    `default_md_bound`; p = 1 enumerates the cores of a plain pair.

    Backtracks over odd candidates in decreasing order.  Including a
    candidate h immediately pulls in everything it forces (h - 2t for
    each modulus t with h > 2t, recursively); each addition is vetted
    against the pair-sum condition through per-modulus residue
    multisets, so dead branches die at the first contradiction.
    Completeness: any hook above the bound would be a hook above the
    maximal (s, s+d)-core hook, which no core has.
    """
    if bound is None:
        bound = default_md_bound(prog.s, prog.d)
    elif bound < 1:
        raise InvalidInputError(f"bound must be >= 1, got {bound!r}")
    moduli, doubled = prog.moduli, prog.doubled
    candidates = list(range(bound if bound % 2 else bound - 1, 0, -2))

    chosen: set[int] = set()
    residues: list[Counter] = [Counter() for _ in doubled]
    results: list[tuple[int, ...]] = []

    def include(h: int) -> list[int] | None:
        """Add h plus its forced chain; None (and no change) on conflict."""
        added: list[int] = []
        stack = [h]
        while stack:
            v = stack.pop()
            if v in chosen:
                continue
            for m2, res in zip(doubled, residues):
                if (2 * v) % m2 == 0 or res[(-v) % m2]:
                    for u in added:
                        _remove(u)
                    return None
            chosen.add(v)
            for m2, res in zip(doubled, residues):
                res[v % m2] += 1
            added.append(v)
            for t in moduli:
                if v > 2 * t:
                    stack.append(v - 2 * t)
        return added

    def _remove(v: int) -> None:
        chosen.discard(v)
        for m2, res in zip(doubled, residues):
            res[v % m2] -= 1

    def search(idx: int) -> None:
        while idx < len(candidates) and candidates[idx] in chosen:
            idx += 1
        if idx == len(candidates):
            results.append(tuple(sorted(chosen, reverse=True)))
            return
        search(idx + 1)
        added = include(candidates[idx])
        if added is not None:
            search(idx + 1)
            for v in added:
                _remove(v)

    search(0)
    # The nested function refers to itself, a reference cycle that would keep
    # everything it closes over alive until the next full garbage collection.
    del search
    results.sort()
    return results


def enumerate_by_partition_scan(prog: Progression, n_max: int) -> list[tuple[int, ...]]:
    """All core partitions of size at most ``n_max``, as part tuples.

    Grows self-conjugate partitions by prepending ever larger diagonal
    hooks.  Prepending a hook c to a partition shifts the old diagram
    one step down-right (which preserves every old hook length) and
    adds a new first row and column, so the only new hook lengths are
    those of the first row; a partition is therefore a simultaneous
    core exactly when each growth step keeps the first row clean.  The
    first-row hooks are read off the diagram as row length minus column
    plus column length, with no modular shortcuts, keeping this scan
    independent of `enumerate_md_sets`.

    Complete for cores of size <= n_max because dropping the largest
    diagonal hook of a core yields a smaller core (its diagram embeds
    in the old one with hook lengths intact).
    """
    if not (isinstance(n_max, int) and n_max >= 0):
        raise InvalidInputError(f"n_max must be a nonnegative integer, got {n_max!r}")
    moduli = set(prog.moduli)
    min_modulus = min(moduli)
    results: list[tuple[int, ...]] = [()]

    def first_row_is_clean(c: int, parts: list[int], offsets: list[int]) -> bool:
        # Prepending hook c: the new first row has (c+1)//2 boxes, old
        # row i becomes row i+1 with one extra box, and the new first
        # column pads the bottom with single-box rows.  First-row hooks:
        # h(1,1) = c; above the old rows h(1,j) = (c+1)//2 + offsets[j-2]
        # with offsets[i] = parts[i] - (i+1); over the single-box pad the
        # hooks run straight down from (c+1)//2 - len(parts) - 1 to 1.
        if c in moduli:
            return False
        base = (c + 1) // 2
        if any(base + g in moduli for g in offsets):
            return False
        return min_modulus > base - len(parts) - 1

    def grow(md_asc: list[int], parts: list[int], offsets: list[int], size: int) -> None:
        lowest = md_asc[-1] + 2 if md_asc else 1
        for c in range(lowest, n_max - size + 1, 2):
            if not first_row_is_clean(c, parts, offsets):
                continue
            width = (c + 1) // 2
            new_parts = (
                [width]
                + [q + 1 for q in parts]
                + [1] * (width - len(parts) - 1)
            )
            results.append(tuple(new_parts))
            md_asc.append(c)
            grow(
                md_asc,
                new_parts,
                [q - i - 1 for i, q in enumerate(new_parts)],
                size + c,
            )
            md_asc.pop()

    grow([], [], [], 0)
    # The nested function refers to itself, a reference cycle that would keep
    # everything it closes over alive until the next full garbage collection.
    del grow
    results.sort()
    return results


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of all cross-checks for one (s, d, p) instance."""

    s: int
    d: int
    p: int
    n_md: int
    n_path: int
    n_dp: int
    n_formula: int | None
    roundtrip: str  # "pass" | "fail"
    corners: str  # "pass" | "fail" | "n/a"
    passed: bool
    n_scan: int | None = None

    def as_json(self) -> dict:
        record = {
            "s": self.s,
            "d": self.d,
            "p": self.p,
            "n_md": self.n_md,
            "n_path": self.n_path,
            "n_dp": self.n_dp,
            "n_formula": self.n_formula,
            "roundtrip": self.roundtrip,
            "corners": self.corners,
            "pass": self.passed,
        }
        if self.n_scan is not None:
            record["n_scan"] = self.n_scan
        return record


def verify_instance(
    s: int, d: int, p: int, bound: int | None = None, n_max: int | None = None
) -> VerifyReport:
    """Run every cross-check for one instance and report the tallies.

    When ``n_max`` is given, the partition-scan enumerator runs as well
    and its result must match the hook-set enumerator partition for
    partition.
    """
    check_progression_length(p)
    prog = Progression(s, d, p)
    mds = enumerate_md_sets(prog, bound)
    paths = enumerate_paths(prog.x, prog.y, prog.constraints)
    n_dp = count_paths_dp(prog.x, prog.y, prog.constraints)

    formulas = [result.value for result in closed_forms(s, d, p)]
    formulas_agree = len(set(formulas)) <= 1
    n_formula = formulas[0] if formulas else None

    images = []
    roundtrip_ok = True
    for md in mds:
        steps = phi(md, prog)
        images.append(steps)
        if phi_inverse(steps, prog) != md:
            roundtrip_ok = False
    if len(set(images)) != len(images) or set(images) != set(paths):
        roundtrip_ok = False

    # The hook sets come canonical from the enumeration and the paths from phi,
    # so their partitions and step letters are read without re-validating.
    corner_status = "n/a"
    corner_formula = CORNER_FORMULAS.get(p) if d == 1 else None
    partitions = (
        [_md_to_partition(md) for md in mds]
        if corner_formula is not None or n_max is not None
        else []
    )
    if corner_formula is not None:
        histogram = Counter()
        refinement_ok = True
        for parts, steps in zip(partitions, images):
            m = _corners(parts)
            histogram[m] += 1
            expected_last = "D" if m % 2 == 0 else "F"
            expected_flats = s // 2 - m + (m % 2)
            if steps[-1:] != expected_last or steps.count("F") != expected_flats:
                refinement_ok = False
        top = max(max(histogram, default=0), s // 2)
        for m in range(top + 2):
            if corner_formula(s, m).value != histogram.get(m, 0):
                refinement_ok = False
        corner_status = "pass" if refinement_ok else "fail"

    n_scan = None
    scan_ok = True
    if n_max is not None:
        scanned = enumerate_by_partition_scan(prog, n_max)
        n_scan = len(scanned)
        scan_ok = sorted(scanned) == sorted(partitions)

    counts = {len(mds), len(paths), n_dp}
    if n_formula is not None:
        counts.add(n_formula)
    passed = (
        len(counts) == 1
        and formulas_agree
        and roundtrip_ok
        and corner_status != "fail"
        and scan_ok
    )
    return VerifyReport(
        s,
        d,
        p,
        len(mds),
        len(paths),
        n_dp,
        n_formula,
        "pass" if roundtrip_ok else "fail",
        corner_status,
        passed,
        n_scan,
    )
