"""The table, hook-mask and half-word kernels agree with the plain loops they replaced.

`place_beads` looks each hook up in one residue table
(`Progression.residue_slots`); `state_md`, `phi_inverse` and the
private modular core test behind `phi` work on one int per hook set
(bit h set for each hook h); `enumerate_md_sets` searches on its own
chain and partner masks; `md_to_partition` walks down the Durfee rows
once; `enumerate_paths` joins height-pruned half words, less those
that already hold a banned word;
`validate_core_function` checks a summary by the path rules instead of
the parity-case windows it once wrote out; `count_paths_dp` reads
one cumulative rise vector at a lag instead of keeping a state per
U-run; and `enumerate_by_partition_scan` walks the open bits of one
mask of banned first-row widths per node instead of testing every
candidate hook against every row.  Each reference below is the
straightforward loop over hooks, columns, rows, candidates, steps or
letters, kept verbatim: the kernels must give
the same results, raise the same error types with the same messages,
and list hook sets and paths in the same order.
"""

import functools
import itertools
import re
import tracemalloc
from collections import Counter
from itertools import accumulate
from math import gcd
from operator import sub
from types import SimpleNamespace

import pytest

from score_lab import (
    BeadStructureError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidPathError,
    NotACoreError,
    Progression,
    ScoreLabError,
    UnplaceableHookError,
    UnsupportedParametersError,
    constraints_for,
    corner_statistics,
    count_paths_dp,
    default_md_bound,
    enumerate_by_partition_scan,
    enumerate_md_sets,
    enumerate_paths,
    is_core,
    md_is_core,
    md_is_simultaneous_core,
    md_to_partition,
    pair_core_size_bound,
    phi,
    phi_context,
    phi_inverse,
    place_beads,
    satisfies,
    state_md,
    validate_core_function,
)
from score_lab.abacus import _place_beads
from score_lab.bijection import _path_mask, mapping_record
from score_lab.errors import check_progression_length
from score_lab.mdcore import _hook_mask, _is_simultaneous_core
from score_lab.motzkin import EMPTY_CONSTRAINTS, PathConstraintSet, _satisfies

from conftest import sc_partitions_up_to

# ---------------------------------------------------------------- references


def reference_slots(prog):
    """Residue of a hook mod the period -> (column j, sign, label of row 0 in j)."""
    slots = {}
    for sign in (-1, 1):
        for j in range(prog.columns):
            base = prog.a + 2 * prog.d * j
            slots[(sign * base) % prog.period] = (j, sign, base)
    return slots


def reference_place_beads(prog, md):
    period = prog.period
    unplaceable = (prog.s + prog.d) % period
    slots = reference_slots(prog)
    rows = {}
    for h in md:
        residue = h % period
        if residue == unplaceable:
            raise UnplaceableHookError(
                f"hook {h} is {prog.s + prog.d} mod {period}; "
                f"no abacus position carries it"
            )
        if residue not in slots:
            raise InternalConsistencyError(f"hook {h} matched no column residue")
        j, sign, base = slots[residue]
        i, rem = divmod(sign * h - base, period)
        if rem:
            raise InternalConsistencyError(f"hook {h} landed between rows")
        rows.setdefault(j, []).append(i)

    beads = []
    for j, r in enumerate(prog.boundary_rows):
        placed = rows.get(j)
        if placed is None:
            beads.append(0)
            continue
        lo, hi, n = min(placed), max(placed), len(placed)
        if lo < r <= hi:
            raise BeadStructureError(
                f"column {j} mixes beads on both sides of the sign boundary"
            )
        if lo >= r:
            if lo != r or hi != r + n - 1:
                raise BeadStructureError(
                    f"column {j} has a gap in its positive bead block: {sorted(placed)}"
                )
            beads.append(n)
        else:
            if hi != r - 1 or lo != r - n:
                raise BeadStructureError(
                    f"column {j} has a gap in its negative bead block: {sorted(placed)}"
                )
            beads.append(-n)
    return tuple(beads)


def reference_state_md(prog, beads):
    period = prog.period
    hooks = []
    for j, (b, r) in enumerate(zip(beads, prog.boundary_rows)):
        base = prog.a + 2 * prog.d * j  # label(prog, i, j) = base + period * i
        if b > 0:
            hooks.extend(range(base + period * r, base + period * (r + b), period))
        elif b < 0:
            hooks.extend(range(-base - period * (r + b), -base - period * r, -period))
    hooks.sort(reverse=True)
    return tuple(hooks)


def reference_pair_sums(moduli):
    """The sums s + t over coprime pairs of moduli, which no simultaneous core holds."""
    return frozenset(
        s + t for i, s in enumerate(moduli) for t in moduli[i + 1 :] if gcd(s, t) == 1
    )


def reference_is_simultaneous_core(md, doubled, pair_sums):
    present = set(md)
    if not pair_sums.isdisjoint(present):
        return False
    return all(reference_is_core(md, present, m2) for m2 in doubled)


def reference_is_core(md, present, m2):
    for h in md:  # decreasing, so the first h <= m2 ends the closure test
        if h <= m2:
            break
        if h - m2 not in present:
            return False
    # Hooks are odd and m2 is even, so h % m2 is never 0 and (-h) % m2 == m2 - h % m2.
    residues = {h % m2 for h in md}
    return residues.isdisjoint([m2 - r for r in residues])


_LETTER = {1: "U", -1: "D", 0: "F"}
_HEIGHT = {letter: step for step, letter in _LETTER.items()}


def reference_phi(md, prog):
    md = tuple(sorted(md, reverse=True))
    doubled = tuple(2 * t for t in prog.moduli)
    if not reference_is_simultaneous_core(md, doubled, reference_pair_sums(prog.moduli)):
        raise NotACoreError(
            f"{md} is not a self-conjugate {prog.moduli}-core hook set"
        )
    beads = reference_place_beads(prog, md)
    f = [r - 1 + b for r, b in zip(prog.boundary_rows, beads)]
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


def reference_phi_inverse(steps, prog):
    if not satisfies(steps, prog.constraints, prog.x, prog.y):
        raise InvalidPathError(
            f"path {steps!r} is not an admissible type ({prog.x}, {prog.y}) path "
            f"for s={prog.s}, d={prog.d}, p={prog.p}"
        )
    heights = list(accumulate(map(_HEIGHT.__getitem__, steps), initial=0))
    if prog.d % 2 == 1:
        heights.pop()  # the appended convention step
    beads = [v - r + 1 for v, r in zip(heights, prog.boundary_rows)]
    md = reference_state_md(prog, beads)
    doubled = tuple(2 * t for t in prog.moduli)
    if not reference_is_simultaneous_core(md, doubled, reference_pair_sums(prog.moduli)):
        raise InternalConsistencyError(
            f"path {steps} reconstructed a non-core hook set {md}"
        )
    return md


def reference_enumerate_md_sets(prog, bound=None):
    if bound is None:
        bound = default_md_bound(prog.s, prog.d)
    moduli, doubled = prog.moduli, prog.doubled
    candidates = list(range(bound if bound % 2 else bound - 1, 0, -2))

    chosen = set()
    residues = [Counter() for _ in doubled]
    results = []

    def include(h):
        """Add h plus its forced chain; None (and no change) on conflict."""
        added = []
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

    def _remove(v):
        chosen.discard(v)
        for m2, res in zip(doubled, residues):
            res[v % m2] -= 1

    def search(idx):
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
    results.sort()
    return results


def reference_md_to_partition(md):
    md = tuple(sorted(md, reverse=True))
    depth = len(md)
    if depth == 0:
        return ()
    parts = [(h - 1) // 2 + i for i, h in enumerate(md, start=1)]
    for row in range(depth + 1, parts[0] + 1):
        parts.append(sum(1 for p in parts[:depth] if p >= row))
    return tuple(parts)


_STEPS = ("U", "D", "F")


def reference_enumerate_paths(x, y, constraints):
    if abs(y) > x:
        return []
    out = []
    prefix = []

    def grow(height):
        remaining = x - len(prefix)
        if remaining == 0:
            word = "".join(prefix)
            if satisfies(word, constraints, x, y):
                out.append(word)
            return
        for step in _STEPS:
            nxt = height + _HEIGHT[step]
            if abs(y - nxt) <= remaining - 1:
                prefix.append(step)
                grow(nxt)
                prefix.pop()

    grow(0)
    return out


def reference_count_paths_dp(x_max, constraints):
    """Admissible word counts by end height, for each length 0..x_max.

    A plain dict DP over (height, automaton state), one letter at a
    time.  The state is ("pre", j) after j flats and nothing else,
    ("u", m) after a U and m flats, and ("idle", 0) once the last
    non-flat step was a D; no run is capped.  A U may follow a state
    whose run is past its ban (``prefix_top`` or ``factor_top``), and a
    word may end in a U-run only past ``suffix_top``.
    """
    rise_after = {"pre": constraints.prefix_top, "u": constraints.factor_top, "idle": -1}
    layer = {(0, "pre", 0): 1}
    ends = []
    for _ in range(x_max + 1):
        end = Counter()
        for (height, kind, run), count in layer.items():
            if kind != "u" or run > constraints.suffix_top:
                end[height] += count
        ends.append(end)
        grown = {}
        for (height, kind, run), count in layer.items():
            moves = [(height - 1, "idle", 0), (height, kind, run + (kind != "idle"))]
            if run > rise_after[kind]:
                moves.append((height + 1, "u", 0))
            for state in moves:
                grown[state] = grown.get(state, 0) + count
        layer = grown
    return ends


def reference_partition_scan(prog, n_max):
    moduli = set(prog.moduli)
    min_modulus = min(moduli)
    results = [()]
    stack = [((), 1, 0)]  # a core's parts, the least hook it may take next, its size
    while stack:
        parts, lowest, size = stack.pop()
        # Prepending hook c: the new first row has (c+1)//2 boxes, old row i
        # becomes row i+1 with one extra box, and the new first column pads the
        # bottom with single-box rows.  First-row hooks: h(1,1) = c; above the
        # old rows h(1,j) = (c+1)//2 + offsets[j-2] with offsets[i] =
        # parts[i] - (i+1); over the pad the hooks run straight down from
        # (c+1)//2 - len(parts) - 1 to 1, so the pad is clean exactly when
        # c <= 2 * (min_modulus + len(parts)) - 1, where the candidates end.
        offsets = [q - i for i, q in enumerate(parts, start=1)]
        highest = min(n_max - size, 2 * (min_modulus + len(parts)) - 1)
        for c in range(lowest, highest + 1, 2):
            width = (c + 1) // 2
            if c in moduli or any(width + g in moduli for g in offsets):
                continue
            grown = (width, *[q + 1 for q in parts], *[1] * (width - len(parts) - 1))
            results.append(grown)
            stack.append((grown, c + 2, size + c))
    results.sort()
    return results


def reference_validate_core_function(values, prog):
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


# --------------------------------------------------------------------- tests


def outcome(function, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", function(*args)
    except ScoreLabError as exc:
        return type(exc), str(exc)


# One instance per parity case of (s, d), plus two with d = 1; each has
# at most 14 odd hooks below its completeness bound.
INSTANCES = [(5, 2, 2), (4, 3, 3), (5, 3, 4), (5, 1, 2), (4, 1, 3)]


def _hook_sets(prog):
    """Every subset of the odd hooks up to the completeness bound, then sets
    with one hook above it: each core and each subset of the four largest
    hooks below the bound, joined by each odd hook of the two periods past it."""
    bound = default_md_bound(prog.s, prog.d)
    hooks = range(bound if bound % 2 else bound - 1, 0, -2)
    for size in range(len(hooks) + 1):
        yield from itertools.combinations(hooks, size)
    bases = set(enumerate_md_sets(prog))
    for size in range(5):
        bases.update(itertools.combinations(hooks[:4], size))
    for high in range(bound + 1 + bound % 2, bound + 2 * prog.period + 1, 2):
        for base in sorted(bases):
            yield (high, *base)


@pytest.mark.parametrize("s,d,p", INSTANCES)
def test_placement_and_phi_match_the_per_hook_loops(s, d, p):
    prog = phi_context(s, d, p)
    placed = cores = 0
    for md in _hook_sets(prog):
        beads = outcome(place_beads, prog, md)
        assert beads == outcome(reference_place_beads, prog, md), md
        # the body phi runs gives each column's key f(j) + j, or the same error
        keys = outcome(_place_beads, prog, _hook_mask(md))
        if beads[0] == "ok":
            assert keys == ("ok", [k + b for k, b in zip(prog.empty_keys, beads[1])]), md
            placed += 1
            back = state_md(prog, beads[1])
            assert back == reference_state_md(prog, beads[1]) == md
        else:
            assert keys == beads, md
        steps = outcome(phi, md, prog)
        assert steps == outcome(reference_phi, md, prog), md
        if steps[0] == "ok":
            cores += 1
            assert phi_inverse(steps[1], prog) == reference_phi_inverse(steps[1], prog) == md
    assert cores == len(enumerate_md_sets(prog))
    assert placed > cores  # placement also accepts non-cores


@pytest.mark.parametrize("s,d,p", INSTANCES)
def test_state_md_and_phi_inverse_match_the_per_column_loops(s, d, p):
    prog = phi_context(s, d, p)
    # Counts one past every core's s//2 + 1 hooks per class: the blocks are
    # built as they are first read, however deep.
    reach = prog.s // 2 + 2
    for beads in itertools.product(range(-reach, reach + 1), repeat=prog.columns):
        assert state_md(prog, beads) == reference_state_md(prog, beads)
    for steps in enumerate_paths(prog.x, prog.y, EMPTY_CONSTRAINTS):
        assert outcome(phi_inverse, steps, prog) == outcome(reference_phi_inverse, steps, prog)


def test_the_modular_core_tests_match_the_hook_table_on_every_small_progression():
    small = sc_partitions_up_to(36)
    table = {}  # (md, t) -> the plain hook-table verdict

    def hook_table_is_core(md, t):
        if (md, t) not in table:
            table[md, t] = is_core(md_to_partition(md), t)
        return table[md, t]

    progressions = 0
    for s in range(1, 8):
        for d in range(1, 7):
            if gcd(s, d) != 1:
                continue
            for p in range(1, 5):
                prog = Progression(s, d, p)
                progressions += 1
                doubled = prog.doubled
                for md in {*small, *enumerate_md_sets(prog)}:
                    expected = all(hook_table_is_core(md, t) for t in prog.moduli)
                    mask = _hook_mask(md)
                    assert md_is_simultaneous_core(md, prog.moduli) == expected, (md, prog)
                    assert _is_simultaneous_core(mask, doubled) == expected
                    pair_sums = reference_pair_sums(prog.moduli)
                    assert reference_is_simultaneous_core(md, doubled, pair_sums) == expected
                    for t in prog.moduli:
                        assert md_is_core(md, t) == hook_table_is_core(md, t), (md, t)
                        assert _is_simultaneous_core(mask, (2 * t,)) == table[md, t]
    assert progressions == 4 * 29


def test_a_sum_of_two_moduli_added_to_a_core_fails_every_core_test():
    # A core is an (s+t)-core for any two of its moduli s, t, so adding the
    # hook s + t makes a non-core.  No pair-sum rule backs the core tests, so
    # their per-modulus terms must see that alone.  Only an odd s + t is a
    # diagonal hook, so even d (all moduli of one parity) adds nothing here.
    progressions = rejected = 0
    for s in range(1, 12):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            for p in range(1, 5):
                prog = Progression(s, d, p)
                progressions += 1
                pairs = itertools.combinations(prog.moduli, 2)
                sums = {a + b for a, b in pairs if (a + b) % 2}
                for core in enumerate_md_sets(prog):
                    for h in sums:
                        md = tuple(sorted((*core, h), reverse=True))
                        assert not _is_simultaneous_core(_hook_mask(md), prog.doubled), md
                        assert not md_is_simultaneous_core(md, prog.moduli), md
                        parts = md_to_partition(md)
                        assert not all(is_core(parts, t) for t in prog.moduli), md
                        rejected += 1
    assert progressions == 4 * 31
    assert rejected == 8099


def test_enumerate_md_sets_matches_the_counter_search():
    progressions = 0
    for s in range(1, 14):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            for p in range(1, 6):
                prog = Progression(s, d, p)
                progressions += 1
                assert enumerate_md_sets(prog) == reference_enumerate_md_sets(prog), prog
    assert progressions == 5 * 36


@pytest.mark.parametrize(
    "s,d,p", [(5, 1, 2), (4, 3, 2), (7, 2, 3), (3, 4, 4), (1, 3, 2), (2, 3, 3), (8, 3, 2)]
)
def test_hook_bound_is_not_binding(s, d, p):
    # The search stops at its own completeness bound; the counter search,
    # run with a far larger candidate bound, finds nothing more.
    prog = Progression(s, d, p)
    inflated = default_md_bound(s, d) + 4 * (s + p * d)
    assert enumerate_md_sets(prog) == reference_enumerate_md_sets(prog, inflated)


def test_md_to_partition_matches_the_durfee_row_loop():
    hook_sets = set(sc_partitions_up_to(40))
    for s, d, p in INSTANCES + [(21, 4, 4)]:
        hook_sets.update(enumerate_md_sets(Progression(s, d, p)))
    hook_sets.update([(10**4 + 1,), (10**4 + 1, 3), (201, 199, 197, 1)])
    for md in hook_sets:
        assert md_to_partition(md) == reference_md_to_partition(md), md


def test_partition_scan_matches_the_per_candidate_loop():
    # Every coprime (s, d) with s <= 13 and d <= 4 at p = 1..6, below,
    # at and far past the largest core size, and two larger complete scans.
    scans = 0
    for s in range(1, 14):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            for p in range(1, 7):
                prog = Progression(s, d, p)
                for n_max in (0, 1, 7, 30, pair_core_size_bound(s, s + d), 10**12):
                    expected = reference_partition_scan(prog, n_max)
                    assert enumerate_by_partition_scan(prog, n_max) == expected, (prog, n_max)
                    scans += 1
    assert scans == 1_296
    for s, d, p in [(19, 1, 2), (17, 3, 3)]:
        prog = Progression(s, d, p)
        n_max = pair_core_size_bound(s, s + d)
        assert enumerate_by_partition_scan(prog, n_max) == reference_partition_scan(prog, n_max)


def test_distinct_words_of_one_type_read_back_to_distinct_masks():
    # verify compares a core's mask with its path's read-back and runs no
    # admissibility or core test on the read-back: a banned word of the type
    # cannot read back to a core's mask, since the core's own word does.
    # The column whose two classes coincide (residue s + d) is column 0,
    # where f(0) = 0, or the last column of an even d, where f ends at y.
    words = 0
    for s in range(1, 14):
        for d in range(1, 7):
            if gcd(s, d) != 1:
                continue
            prog = phi_context(s, d, 2)
            coincide = [j for j, (pos, neg) in enumerate(prog.class_firsts) if pos == neg]
            assert coincide == ([0] if s % 2 == 0 else [prog.max_column] if d % 2 == 0 else [])
            paths = enumerate_paths(prog.x, prog.y, EMPTY_CONSTRAINTS)
            assert len({_path_mask(steps, prog) for steps in paths}) == len(paths), prog
            words += len(paths)
    assert words > 10_000


# Each has a path whose bead counts reach past depth 1, and all but
# (9, 2, 2) have paths that break a constraint.
@pytest.mark.parametrize("s,d,p", [(4, 3, 3), (5, 3, 4), (5, 1, 2), (4, 1, 3), (9, 2, 2), (8, 3, 3)])
def test_phi_inverse_matches_the_per_column_loop_on_every_path_of_its_type(s, d, p, monkeypatch):
    # With no constraints every path of the type is read back: the
    # admissible ones to their cores, the others to non-core hook sets,
    # which must raise the same InternalConsistencyError.  The fresh
    # progression builds every block on a miss, the deep ones included.
    prog = phi_context(s, d, p)
    admissible = set(enumerate_paths(prog.x, prog.y, prog.constraints))
    monkeypatch.setattr(Progression, "constraints", EMPTY_CONSTRAINTS)
    prog = Progression(s, d, p)
    deep = 0
    for steps in enumerate_paths(prog.x, prog.y, EMPTY_CONSTRAINTS):
        result = outcome(phi_inverse, steps, prog)
        assert result == outcome(reference_phi_inverse, steps, prog), steps
        assert result[0] == ("ok" if steps in admissible else InternalConsistencyError), steps
        heights = accumulate(map(_HEIGHT.__getitem__, steps), initial=0)
        deep += any(abs(f - r + 1) > 1 for f, r in zip(heights, prog.boundary_rows))
    assert deep > 0


# Every distinct constraint set of coprime s < 30, d < 8 and p = 2..9.
CONSTRAINT_SETS = sorted(
    {
        constraints_for(s, d, p)
        for s in range(1, 30)
        for d in range(1, 8)
        for p in range(2, 10)
        if gcd(s, d) == 1
    },
    key=repr,
)


@functools.cache
def _reference_words(x, y):
    """Every type-(x, y) word in the recursive generator's order.

    The generator grows the same words whatever the constraint set and
    filters each through `satisfies`, so filtering these gives its
    result for any set.
    """
    return reference_enumerate_paths(x, y, EMPTY_CONSTRAINTS)


def _spy_on_half_patterns(monkeypatch):
    """Keep each half word the generator drops, with the side whose pattern dropped it."""
    dropped = set()
    for side in ("left", "right"):
        build = vars(PathConstraintSet)[f"{side}_pattern"].func

        def spying(constraints, side=side, build=build):
            search = build(constraints).search

            def spy(half):
                found = search(half)
                if found:
                    dropped.add((side, half))
                return found

            return SimpleNamespace(search=spy)

        monkeypatch.setattr(PathConstraintSet, f"{side}_pattern", property(spying))
    return dropped


@pytest.mark.parametrize("constraints", CONSTRAINT_SETS, ids=repr)
def test_enumerate_paths_matches_the_recursive_generator(constraints, monkeypatch):
    # Up to x = 8 every end height; x = 9..11, with halves of up to 6 steps,
    # at y = -3, the end height of the encoding's types for d = 5 and 6.
    dropped = _spy_on_half_patterns(monkeypatch)
    for x in range(12):
        for y in range(-x - 1, x + 2) if x < 9 else (-3,):
            expected = [w for w in _reference_words(x, y) if satisfies(w, constraints, x, y)]
            assert enumerate_paths(x, y, constraints) == expected, (x, y)
    # Each banned word of each shape drops half words on each side where it
    # fits whole, in halves of up to 5 (left) and 6 (right) steps: a prefix
    # F^jU in a left half, a factor UF^iU in either, a suffix UF^k in a right.
    shapes = {  # each shape's top, its banned words, their U steps, and the sides
        "prefix": (constraints.prefix_top, r"\AF{{{}}}U", 1, ("left",)),
        "factor": (constraints.factor_top, "UF{{{}}}U", 2, ("left", "right")),
        "suffix": (constraints.suffix_top, r"UF{{{}}}\Z", 1, ("right",)),
    }
    room = {"left": 5, "right": 6}
    expected = {
        (side, shape, flats)
        for shape, (top, _, ups, sides) in shapes.items()
        for side in sides
        for flats in range(top + 1)
        if flats + ups <= room[side]
    }
    fired = {
        (side, shape, flats)
        for side, half in dropped
        for shape, (top, banned, _, sides) in shapes.items()
        if side in sides
        for flats in range(top + 1)
        if re.search(banned.format(flats), half)
    }
    assert fired == expected


def test_enumerate_paths_generates_every_word_in_order():
    # With no constraints no half word is dropped and no word filtered out,
    # so every word of the type is listed.
    assert len(CONSTRAINT_SETS) == 24
    for x in range(11):
        for y in range(-x - 1, x + 2):
            expected = reference_enumerate_paths(x, y, EMPTY_CONSTRAINTS)
            assert enumerate_paths(x, y, EMPTY_CONSTRAINTS) == expected, (x, y)


def test_enumerate_paths_joins_few_banned_words(monkeypatch):
    # A work count, not a timing: the halves that already hold a banned
    # word are dropped before the join, so at (21, 4, 4) 15,607 joined
    # words go through the one regex filter `_iter_paths` runs, about 1.1
    # per admissible one; joining every pair of halves would take 58,278.
    calls = Counter()
    build = vars(PathConstraintSet)["pattern"].func

    def spying(constraints):
        search = build(constraints).search

        def counting(word):
            calls["search"] += 1
            return search(word)

        return SimpleNamespace(search=counting)

    monkeypatch.setattr(PathConstraintSet, "pattern", property(spying))
    prog = phi_context(21, 4, 4)
    assert len(enumerate_paths(prog.x, prog.y, prog.constraints)) == 13_694
    assert 13_694 <= calls["search"] <= 16_000


def test_enumerate_paths_prunes_on_height():
    # Near |y| = x few words reach the end height; the halves must not be
    # generated in full (3^20 words each for x = 40).
    assert enumerate_paths(40, -40, EMPTY_CONSTRAINTS) == ["D" * 40]
    assert enumerate_paths(40, 40, EMPTY_CONSTRAINTS) == ["U" * 40]
    for y in (-20, -19, 19, 20):
        expected = reference_enumerate_paths(20, y, EMPTY_CONSTRAINTS)
        assert enumerate_paths(20, y, EMPTY_CONSTRAINTS) == expected, y


def _dp_sets():
    """The empty set, each parity case at p = 2..8, and bans longer than any path below.

    The DP reads only the three tops, so a set with the tops of one
    before it is left out (6 of the 25).
    """
    by_tops = {}
    for name, constraints in [("empty", EMPTY_CONSTRAINTS)] + [
        (f"{s},{d},{p}", constraints_for(s, d, p))
        for s, d in [(3, 2), (3, 5), (2, 5)]
        for p in [*range(2, 9), 90]
    ]:
        tops = (constraints.factor_top, constraints.prefix_top, constraints.suffix_top)
        by_tops.setdefault(tops, (name, constraints))
    return dict(by_tops.values())


DP_SETS = _dp_sets()


@pytest.mark.parametrize("name", DP_SETS)
def test_count_paths_dp_matches_the_letter_by_letter_dp(name):
    # Every length to 40, far past enumeration's reach.  At each length the
    # four heights at either end, where the window clips the all-flat
    # prefix's steps to -1 and 1, and the heights -1 and 0 (the all-flat
    # word's) between them: every height at every length would take about
    # 10 s.
    constraints = DP_SETS[name]
    ends = reference_count_paths_dp(40, constraints)
    for x, counts in enumerate(ends):
        for y in {-x - 1, -x, -x + 1, -x + 2, -1, 0, x - 2, x - 1, x, x + 1}:
            if abs(y) <= x + 1:
                assert count_paths_dp(x, y, constraints) == counts[y], (x, y)


@pytest.mark.parametrize("s,d,p", INSTANCES)
def test_placement_of_deep_and_huge_hooks_matches_the_per_hook_loop(s, d, p):
    # Blocks deeper than any core's, each with a gap or a stray hook, and
    # hooks of seven and of fourteen digits: the huge ones must not cost
    # a bit per odd number below them.
    prog = phi_context(s, d, p)
    deep = prog.s // 2 + 4
    sets = []
    for pos_first, neg_first in prog.class_firsts:
        for first in (pos_first, neg_first):
            block = [first + prog.period * k for k in range(deep)]
            sets += [block, block[:-2] + block[-1:], [*block, 10**6 + first]]
            sets.append(block[:2] + [10**13 * prog.period + first])
    sets += [[1, 3, 10**13 + 2 * k + 1] for k in range(prog.period // 2)]
    deep_blocks = 0
    for md in sets:
        md = tuple(sorted(set(md), reverse=True))
        beads = outcome(place_beads, prog, md)
        assert beads == outcome(reference_place_beads, prog, md), md
        if beads[0] == "ok":
            deep_blocks += max(map(abs, beads[1])) == deep
            assert state_md(prog, beads[1]) == reference_state_md(prog, beads[1]) == md
        assert outcome(phi, md, prog) == outcome(reference_phi, md, prog), md
    assert deep_blocks >= prog.columns  # the deep blocks themselves are placed
    huge = [md for md in sets if max(md) > 10**12]
    tracemalloc.start()
    try:
        for md in huge:
            outcome(place_beads, prog, md)
            # these reach a hook-set mask, so the huge hook must be refused first
            for function in (phi, corner_statistics, mapping_record):
                refused = outcome(function, md, prog)[0]
                assert refused in (NotACoreError, UnsupportedParametersError)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_core_tests_with_huge_hooks_or_moduli_need_no_huge_mask():
    # The public tests read residues, never a mask with a bit per hook.
    assert md_is_core((1,), 10**12) is True
    assert md_is_core((3, 1), 10**12) is True
    assert md_is_core((10**13 + 1,), 3) is False
    assert md_is_simultaneous_core((10**13 + 1, 1), (3, 4)) is False
    assert md_is_simultaneous_core((5, 3, 1), (10**12, 10**12 + 1)) is True
    tracemalloc.start()
    try:
        assert md_is_core((10**12 + 1,), 10**12) is True
        assert md_is_simultaneous_core((10**12 + 1,), (10**12, 10**12 + 3)) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _walks(prog, steps, starts=(0,)):
    """Every integer walk over the grid's columns from each start, each step in ``steps``."""
    for start in starts:
        for deltas in itertools.product(steps, repeat=prog.max_column):
            yield list(accumulate(deltas, initial=start))


def test_validate_core_function_matches_the_parity_case_rules():
    walks = accepted = 0
    for s in range(1, 12):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            for p in range(1, 7):
                prog = Progression(s, d, p)
                for columns in (prog.columns - 1, prog.columns + 1, prog.columns):
                    f = [0] * columns
                    expected = outcome(reference_validate_core_function, f, prog)
                    assert outcome(validate_core_function, f, prog) == expected, (prog, f)
                if p == 1:
                    continue
                for f in _walks(prog, (-1, 0, 1)):
                    expected = reference_validate_core_function(f, prog)
                    assert validate_core_function(f, prog) == expected, (prog, f)
                    walks += 1
                    accepted += expected
    assert walks == 34_715
    assert 0 < accepted < walks


def test_validate_core_function_matches_the_parity_case_rules_on_jumps_and_bad_starts():
    walks = accepted = 0
    for s, d, p in ((5, 2, 3), (7, 3, 4), (8, 1, 3), (6, 5, 5)):
        prog = Progression(s, d, p)
        for f in _walks(prog, (-2, -1, 0, 1, 2), starts=(0, 1)):
            expected = reference_validate_core_function(f, prog)
            assert validate_core_function(f, prog) == expected, (prog, f)
            walks += 1
            accepted += expected
    assert walks == 9_000
    assert 0 < accepted < walks
