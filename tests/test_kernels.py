"""The table, hook-mask and half-word kernels agree with the plain loops they replaced.

`place_beads` looks each hook up in one residue table
(`Progression.residue_slots`); `state_md`, `phi_inverse` and the
private modular core test behind `phi` work on one int per hook set
(bit h set for each hook h); and `enumerate_paths` joins height-pruned
half words.  Each reference below is the straightforward loop over
hooks, columns or steps, kept verbatim: the kernels must give the same
results, raise the same error types with the same messages, and list
paths in the same order.
"""

import itertools
import tracemalloc
from itertools import accumulate
from math import gcd
from operator import sub

import pytest

from score_lab import (
    AbacusState,
    BeadStructureError,
    InternalConsistencyError,
    InvalidPathError,
    NotACoreError,
    Progression,
    ScoreLabError,
    UnplaceableHookError,
    constraints_for,
    default_md_bound,
    enumerate_md_sets,
    enumerate_paths,
    is_core,
    md_is_core,
    md_is_simultaneous_core,
    md_to_partition,
    phi,
    phi_context,
    phi_inverse,
    place_beads,
    satisfies,
    state_md,
)
from score_lab.mdcore import _coprime_pair_sums, _hook_mask, _is_simultaneous_core
from score_lab.motzkin import EMPTY_CONSTRAINTS, _satisfies

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
    if not reference_is_simultaneous_core(md, doubled, _coprime_pair_sums(prog.moduli)):
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
    if not reference_is_simultaneous_core(md, doubled, _coprime_pair_sums(prog.moduli)):
        raise InternalConsistencyError(
            f"path {steps} reconstructed a non-core hook set {md}"
        )
    return md


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
        beads = outcome(lambda: place_beads(prog, md).beads)
        assert beads == outcome(reference_place_beads, prog, md), md
        if beads[0] == "ok":
            placed += 1
            back = state_md(AbacusState(prog, beads[1]))
            assert back == reference_state_md(prog, beads[1]) == md
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
    # Counts past the cached blocks' depth build their blocks for the call.
    reach = prog.class_depth + 1
    for beads in itertools.product(range(-reach, reach + 1), repeat=prog.columns):
        assert state_md(AbacusState(prog, beads)) == reference_state_md(prog, beads)
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
                    assert _is_simultaneous_core(mask, doubled, prog.pair_mask) == expected
                    assert reference_is_simultaneous_core(md, doubled, prog.pair_sums) == expected
                    for t in prog.moduli:
                        assert md_is_core(md, t) == hook_table_is_core(md, t), (md, t)
                        assert _is_simultaneous_core(mask, (2 * t,), 0) == table[md, t]
    assert progressions == 4 * 29


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


@pytest.mark.parametrize("constraints", CONSTRAINT_SETS, ids=repr)
def test_enumerate_paths_matches_the_recursive_generator(constraints):
    for x in range(9):
        for y in range(-x - 1, x + 2):
            expected = reference_enumerate_paths(x, y, constraints)
            assert enumerate_paths(x, y, constraints) == expected, (x, y)


def test_enumerate_paths_generates_every_word_in_order():
    # The words generated do not depend on the constraint set, which only
    # filters them; with no constraints every generated word is listed.
    assert len(CONSTRAINT_SETS) == 24
    for x in range(11):
        for y in range(-x - 1, x + 2):
            expected = reference_enumerate_paths(x, y, EMPTY_CONSTRAINTS)
            assert enumerate_paths(x, y, EMPTY_CONSTRAINTS) == expected, (x, y)


def test_enumerate_paths_prunes_on_height():
    # Near |y| = x few words reach the end height; the halves must not be
    # generated in full (3^20 words each for x = 40).
    assert enumerate_paths(40, -40, EMPTY_CONSTRAINTS) == ["D" * 40]
    assert enumerate_paths(40, 40, EMPTY_CONSTRAINTS) == ["U" * 40]
    for y in (-20, -19, 19, 20):
        expected = reference_enumerate_paths(20, y, EMPTY_CONSTRAINTS)
        assert enumerate_paths(20, y, EMPTY_CONSTRAINTS) == expected, y


@pytest.mark.parametrize("s,d,p", INSTANCES)
def test_placement_of_deep_and_huge_hooks_matches_the_per_hook_loop(s, d, p):
    # Blocks deeper than any core's, each with a gap or a stray hook, and
    # hooks of seven and of fourteen digits: the huge ones must not cost
    # a bit per odd number below them.
    prog = phi_context(s, d, p)
    deep = prog.class_depth + 3
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
        beads = outcome(lambda: place_beads(prog, md).beads)
        assert beads == outcome(reference_place_beads, prog, md), md
        if beads[0] == "ok":
            deep_blocks += max(map(abs, beads[1])) == deep
            assert state_md(AbacusState(prog, beads[1])) == reference_state_md(prog, beads[1]) == md
        assert outcome(phi, md, prog) == outcome(reference_phi, md, prog), md
    assert deep_blocks >= prog.columns  # the deep blocks themselves are placed
    huge = [md for md in sets if max(md) > 10**12]
    tracemalloc.start()
    try:
        for md in huge:
            outcome(place_beads, prog, md)
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
