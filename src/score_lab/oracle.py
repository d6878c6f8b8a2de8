"""Brute-force enumeration of self-conjugate simultaneous cores.

Two independent enumerators back every identity in the package:

* `enumerate_md_sets` searches diagonal hook sets directly, pruning
  with the modular core conditions (pair sums and downward closure).
  It holds each hook set as one int, which `verify_instance` takes as
  it is, and builds its own masks: for each candidate hook, the chain
  of hooks it forces and the partners 2t - (v mod 2t) that no hook v
  of that chain may meet.  It never
  touches the abacus, the path encoding or the hook-set core test
  behind `phi` and `phi_inverse`, so that test cross-checks it.
* `enumerate_by_partition_scan` searches partitions by growing the
  diagonal hook chain from the smallest hook upward and filters purely
  through Young-diagram hook arithmetic.  Each node carries one mask of
  the first-row widths a next hook may not take: width w is banned when
  w plus some row's offset (its length less its index) is a modulus, or
  2w - 1 is.  A child keeps its parent's rows' offsets and adds those of
  its new first row and its pad rows, so its mask is the parent's with
  shifted copies of the moduli's mask ORed in.  It never uses the
  modular conditions, so the two enumerators share no core-testing logic.
  Its private stream `_iter_partition_scan` walks the first-row widths
  upward and yields the cores' hook-set masks in sorted order, keeping
  only those that can grow; like `_iter_md_sets` and `motzkin._iter_paths`
  it sorts nothing, and the public function lists their partitions.

The caps of a complete search follow from the (s, t = s+d)-core theory:
no core has a diagonal hook above st - s - t (`Progression.md_bound`,
where `enumerate_md_sets` stops) and none is larger than
(s^2 - 1)(t^2 - 1)/24 (`pair_core_size_bound`, the size to which
`verify_instance` scans), so neither takes a cap.

`verify_instance` cross-checks, for one parameter triple, the two
enumerations, both path-counting routes, the closed formulas, the
round trip of the path encoding, and the d = 1 corner refinement, whose
rows `corner_rows` builds for the ``corners`` command and `_corner_rows`
for verify.  Both read each core's corner count off its hook mask; the
count on the core's partition stays the reference the tests compare
with.  Verify makes one
pass over the streams of cores, of admissible paths and of the scan,
this one in step with the cores, mask for mask, and keeps no list of
any of them, nor of phi's images.  Each core's round trip,
both streams strictly ascending and each streamed path admissible,
with as many cores and paths as the DP counts, already show that phi
maps the cores one to one onto the admissible paths and that the path
enumerator yields exactly those paths.  A failed check names its first
counterexample.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .bijection import _path_mask, _phi, phi_context
from .errors import InvalidInputError, ScoreLabError, UnsupportedParametersError, check_pair
from .formulas import CORNER_FORMULAS, closed_forms
from .mdcore import _mask_corners, _mask_hooks, _md_to_partition
from .motzkin import _ALPHABET, _RISES, _iter_paths, _satisfies, count_paths_dp
from .progression import Progression

__all__ = [
    "pair_core_size_bound",
    "enumerate_md_sets",
    "enumerate_by_partition_scan",
    "corner_rows",
    "VerifyReport",
    "verify_instance",
]

# path words compare in U < D < F order
_UDF_ORDER = str.maketrans({letter: str(rank) for rank, (letter, _) in enumerate(_RISES)})


def pair_core_size_bound(s: int, t: int) -> int:
    """Largest possible size of an (s, t)-core: (s^2-1)(t^2-1)/24.

    Raises `InvalidInputError` unless s and t are distinct coprime
    positive integers: otherwise the cores have no largest size.
    """
    check_pair(s, t)
    return (s * s - 1) * (t * t - 1) // 24


def enumerate_md_sets(prog: Progression) -> list[tuple[int, ...]]:
    """All core diagonal hook sets of the progression, lexicographically sorted.

    The candidate hooks run up to `Progression.md_bound`, past which no
    core has a hook; p = 1 enumerates the cores of a plain pair.

    Hook sets are ints, bit h set for each hook h.  Including a hook h
    pulls in its forced chain: h, then h - 2t for each modulus t with
    h > 2t, and so on down.  A set closed under those steps breaks the
    pair-sum condition exactly when it holds a hook v and its partner
    2t - (v mod 2t) for some t, since closure puts v mod 2t in the set.

    One pass upward over the odd candidates builds each one's chain mask
    and the mask of its chain's partners, and drops every candidate whose
    chain holds a partner of its own (a hook of t mod 2t is its own
    partner).  A kept candidate's chain is itself a core, so no kept
    candidate lies above `Progression.md_bound`; once s candidates in a row
    are dropped, every larger chain holds one of them and the pass stops.
    Two more passes give, for each kept h, the kept candidates that
    choosing h rules out: those whose chain holds a partner of a hook of
    h's chain.

    The search then decides the kept candidates from the largest down,
    carrying the chosen mask and the mask of candidates still open.
    Excluding the top open candidate clears its bit; including it ORs
    its chain into the chosen mask and ANDs the open mask with what it
    leaves open.  So every branch ends in a core, the search recurses
    nowhere and nothing is rolled back.  Completeness: any hook above
    `Progression.md_bound` would be a hook above the maximal
    (s, s+d)-core hook, which no core has.

    The hook sets come out sorted with no sort.  The largest hook in
    which two sets differ decides both their tuple order and their mask
    order, so it is enough that masks come out ascending.  A node pushes
    one branch per open candidate h, largest first, then emits its
    chosen mask, the least of its subtree, before any branch runs.
    Branch h holds h and no open candidate above it.  The stack pops the
    branch of the smallest h first and finishes its subtree before the
    next, so each subtree's sets come out below every larger branch's.
    """
    return list(map(_mask_hooks, _iter_md_sets(prog)))


def _iter_md_sets(prog: Progression) -> Iterator[int]:
    """`enumerate_md_sets` one hook set at a time, as the search's own mask."""
    doubled = prog.doubled
    chain: dict[int, int] = {}  # kept candidate -> mask of its forced chain
    partners: dict[int, int] = {}  # kept candidate -> partners of its chain's hooks
    dropped = 0  # candidates dropped since the last kept one
    for h in range(1, prog.md_bound + 1, 2):
        links, partner_mask = 1 << h, 0
        for m2 in doubled:
            if h < m2:
                partner_mask |= 1 << (m2 - h)
            elif h - m2 in chain:
                links |= chain[h - m2]
                partner_mask |= partners[h - m2]
            else:  # h - 2t was dropped, and its chain is part of h's
                break
        else:
            if not partner_mask & links:
                chain[h], partners[h] = links, partner_mask
                dropped = 0
                continue
        dropped += 1
        if dropped == prog.s:
            break

    holders: dict[int, int] = {}  # kept u -> the kept candidates whose chain holds u
    for u in reversed(chain):
        held = 1 << u
        for m2 in doubled:
            if u + m2 in holders:
                held |= holders[u + m2]
        holders[u] = held
    ruled_out: dict[int, int] = {}  # kept h -> the kept candidates choosing h rules out
    for h in chain:
        clash = 0
        for m2 in doubled:
            clash |= holders.get(m2 - h, 0) if h < m2 else ruled_out[h - m2]
        ruled_out[h] = clash
    leaves_open = {h: ~(chain[h] | ruled_out[h]) for h in chain}

    stack = [(0, sum(map((1).__lshift__, chain)))]
    while stack:
        chosen, open_mask = stack.pop()
        while open_mask:
            h = open_mask.bit_length() - 1
            open_mask ^= 1 << h
            stack.append((chosen | chain[h], open_mask & leaves_open[h]))
        yield chosen


def enumerate_by_partition_scan(prog: Progression, n_max: int) -> list[tuple[int, ...]]:
    """All core partitions of size at most ``n_max``, as part tuples, sorted.

    Grows self-conjugate partitions by prepending ever larger diagonal
    hooks.  Prepending a hook c to a partition shifts the old diagram
    one step down-right (which preserves every old hook length) and
    adds a new first row and column, so the only new hook lengths are
    those of the first row; a partition is therefore a simultaneous
    core exactly when each growth step keeps the first row clean.  The
    first-row hooks are read off the diagram as row length minus column
    plus column length, with no modular shortcuts, keeping this scan
    independent of `enumerate_md_sets`.

    With the first row w = (c + 1)/2 boxes long, its hook over row j is
    w + g_j, where g_j = (length of row j) - j is the row's offset, and
    its corner hook is c = 2w - 1.  So each core carries one int, the
    mask of its banned first-row widths: bit w is set when w + g = t
    for a row offset g and a modulus t (w = t - g), or 2w - 1 = t.  The
    core's open widths are its range of widths less that mask.  A child
    grown by width w keeps its old rows' offsets (each row moves one
    step down and gains one box); its new first row has offset w - 1,
    and its pad rows r = n + 2 .. w of length 1 (n the old row count)
    have offsets 1 - r.  So the child's mask is the parent's, OR the
    moduli's mask shifted down by w - 1, OR that mask shifted up by each
    of n + 1 .. w - 1.  The mask is over widths, not hooks.

    Complete for cores of size <= n_max because dropping the largest
    diagonal hook of a core yields a smaller core (its diagram embeds
    in the old one with hook lengths intact).  `_iter_partition_scan`
    yields their hook-set masks in this order one at a time.
    """
    _check_size_cap(n_max)
    return [_md_to_partition(_mask_hooks(mask)) for mask in _iter_partition_scan(prog, n_max)]


def _check_size_cap(n_max: int) -> None:
    """Raise `InvalidInputError` unless the scan's size cap is a nonnegative integer."""
    if not (isinstance(n_max, int) and n_max >= 0):
        raise InvalidInputError(f"n_max must be a nonnegative integer, got {n_max!r}")


def _iter_partition_scan(prog: Progression, n_max: int) -> Iterator[int]:
    """`enumerate_by_partition_scan` one core at a time, as its hook-set mask, with no sort.

    The walk goes through first-row widths w = 1, 2, ... and keeps, for
    each width, the cores that a first row of w boxes may still grow,
    in the order they were yielded.  A core grown by width w has first
    part w, so it sorts after every core of a smaller first part, and
    its mask is its parent's with bit 2w - 1, its new hook, set.  The
    rest of its parts are its parent's rows each plus one, then pad rows
    of 1, up to w parts in all; so of two parents, the one that sorts
    first gives the child that sorts first (where one parent's rows are
    a prefix of the other's, its pad row 1 meets a row of at least 2).
    The empty core comes first and every core is filed under its open
    widths as it is yielded, so each width's list is in sorted order,
    and so is the stream.  No list of all cores is kept: what is held
    are the cores that can still grow, as row count, mask, bans and size.
    """
    moduli = prog.moduli
    min_modulus = min(moduli)
    modulus_mask = sum(map((1).__lshift__, moduli))
    # pads[k]: the widths k pad rows ban, before the shift to the first of them
    shifted = (modulus_mask << k for k in range(min_modulus - 1))
    pads = list(accumulate(shifted, or_, initial=0))
    corner_bans = sum(1 << (t + 1) // 2 for t in moduli if t % 2)
    # width w -> (rows, hook mask, banned widths, size) of the cores w may grow
    growable: dict[int, list] = defaultdict(list)

    def file(n: int, hooks: int, banned: int, size: int) -> None:
        # A core of n rows has a first row of n boxes, so the next is at
        # least n + 1 wide; its hook 2w - 1 must fit in n_max - size, and its
        # hooks over the pad, w - n - 1 down to 1, are clean exactly when
        # w <= min_modulus + n.
        last = min((n_max - size + 1) // 2, min_modulus + n)
        open_widths = ((2 << last) - (2 << n)) & ~banned if last > n else 0
        if open_widths:
            entry = (n, hooks, banned, size)
            while open_widths:
                low = open_widths & -open_widths
                open_widths ^= low
                growable[low.bit_length() - 1].append(entry)

    yield 0
    file(0, 0, corner_bans, 0)
    w = 0
    while growable:
        w += 1
        for n, hooks, banned, size in growable.pop(w, ()):
            grown = hooks | 1 << (2 * w - 1)
            yield grown
            grown_bans = banned | modulus_mask >> (w - 1) | pads[w - 1 - n] << (n + 1)
            file(w, grown, grown_bans, size + 2 * w - 1)


def corner_rows(prog: Progression) -> list[dict]:
    """The corner refinement of a d = 1 progression's cores, one row per corner count.

    The cores stream from `_iter_md_sets` as hook-set masks and each
    one's corner count is read off its mask (`_mask_corners`), so no
    partition is built and memory stays flat in the core count.  Row m
    holds m, the number of cores with m corners and the count of
    `CORNER_FORMULAS` for p (None when none is known), for
    m = 0..top + 1, where top is the larger of s // 2 and the most
    corners of any core: the last row checks that no core has more.
    """
    if prog.d != 1:
        raise UnsupportedParametersError(f"corner rows are defined for d=1 only, got d={prog.d}")
    return _corner_rows(prog.s, prog.p, Counter(map(_mask_corners, _iter_md_sets(prog))))


def _corner_rows(s: int, p: int, histogram: Counter) -> list[dict]:
    """`corner_rows` from the histogram of the cores' corner counts."""
    formula = CORNER_FORMULAS.get(p)
    top = max(max(histogram, default=0), s // 2)
    return [
        {"m": m, "enumerated": histogram[m], "formula": formula(s, m).value if formula else None}
        for m in range(top + 2)
    ]


# The JSON keys of a report's first ten fields, in field order; the CSV header too.
_REPORT_KEYS = (
    "s", "d", "p", "n_md", "n_path", "n_dp", "n_formula", "roundtrip", "corners", "pass",
)


class VerifyReport(NamedTuple):
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
    error: str | None = None  # the first failed check's first counterexample; not in as_json

    def as_json(self) -> dict:
        record = dict(zip(_REPORT_KEYS, self))
        if self.n_scan is not None:
            record["n_scan"] = self.n_scan
        return record


def verify_instance(s: int, d: int, p: int, scan: bool = False) -> VerifyReport:
    """Run every cross-check for one instance and report the tallies.

    One pass walks the cores as `_iter_md_sets` yields them, as hook-set
    masks, and keeps none, so memory does not grow with the core count.
    Each core's path comes from `_phi`, which runs the core test on the
    mask and checks the path against the constraint set.  The path is
    read back once, through the body public `phi_inverse` shares
    (`_path_mask`), and must give the core's mask back.  Neither the
    admissibility check nor the core test is run again on the way back:
    the path has passed the first, a mask equal to the core's has passed
    the second, and distinct words of one type read back to distinct
    masks, so a banned word could not come back as a core.  Each core
    stays the search's mask: `_phi` places its beads from the mask's set
    bits, and its hook tuple is built only to name a failure.  The d = 1
    corner count is read off the mask (`_mask_corners`) and the scan
    yields masks too, so a core's partition is built only to name a
    failure as well.  The paths are counted as `_iter_paths` yields them;
    that stream searches each word for banned patterns only, so each
    must pass `_satisfies` here, which checks its type as well, after
    its letters are checked against U/D/F; (x, y) come canonical from
    `phi_context`, so they are not checked again per word.

    The round trip passes when every core comes back, both streams are
    strictly ascending (masks, which order as their hook tuples do, and
    words in U < D < F order), each streamed path is admissible and
    there are as many cores as paths.  No image needs to be kept for
    that: the cores are distinct and each comes back, so phi is
    injective on them and its n_md images are n_md distinct admissible
    paths, while the path stream is n_path distinct admissible paths.
    When n_md = n_path = n_dp, as ``passed`` also asks, both are every
    admissible path, so the images are the enumerated paths.

    With ``scan``, each core's mask must be the one that the partition
    scan's stream, up to `pair_core_size_bound`, yields next (the scan
    builds it from the hooks it prepends), and the stream must end with
    the cores; no entry outlives its core.
    The hook sets come in the order of their partitions: row i of a
    self-conjugate partition with diagonal hooks h_1 > ... > h_D is
    (h_i - 1)/2 + i for i <= D and at most D below, so the first hook in
    which two sets differ, or the one set's lack of a hook, decides
    their partitions' order too.

    A failing check ("roundtrip", "corners", "scan" or "counts") keeps
    its first counterexample, and the report's ``error`` is the first
    one found.  A `ScoreLabError` on one core fails the round trip, not
    the run.
    """
    prog = phi_context(s, d, p)
    x, y, constraints = prog.x, prog.y, prog.constraints
    n_dp = count_paths_dp(x, y, constraints)
    failed: dict[str, str] = {}  # each failed check -> its first counterexample
    n_path = 0
    for word in _iter_paths(x, y, constraints):
        key = word.translate(_UDF_ORDER)
        if n_path and not previous < key:
            failed.setdefault("roundtrip", f"path {word} is out of U < D < F order")
        if not (_ALPHABET.issuperset(word) and _satisfies(word, constraints, x, y)):
            failed.setdefault("roundtrip", f"path {word} is not admissible")
        n_path, previous = n_path + 1, key

    formulas = closed_forms(s, d, p)
    n_formula = formulas[0].value if formulas else None

    # The hook sets come canonical from the search and the paths from _phi,
    # so their partitions and step letters are read without re-validating.
    corner_check = d == 1 and p in CORNER_FORMULAS
    scanned = _iter_partition_scan(prog, pair_core_size_bound(s, s + d)) if scan else None
    histogram: Counter = Counter()
    n_md = n_scan = 0
    for mask in _iter_md_sets(prog):
        if n_md and not previous < mask:
            failed.setdefault("roundtrip", f"core {_mask_hooks(mask)} is out of order")
        n_md, previous = n_md + 1, mask
        try:
            steps = _phi(mask, prog)
        except ScoreLabError as exc:
            steps = None
            failed.setdefault("roundtrip", f"core {_mask_hooks(mask)}: {exc}")
        else:
            back = _path_mask(steps, prog)
            if back != mask:
                wrong = f"came back as {_mask_hooks(back)}"
                failed.setdefault("roundtrip", f"core {_mask_hooks(mask)}: {wrong}")
        if scanned is not None:
            entry = next(scanned, None)  # not by truth: the first entry is 0
            if entry is None:
                wrong = f"is past the scan's {n_scan} entries"
                failed.setdefault("scan", f"core {_mask_hooks(mask)} {wrong}")
            elif entry != mask:
                md = _mask_hooks(mask)
                parts = _md_to_partition(md)
                wrong = f"scan entry {n_scan} is {_md_to_partition(_mask_hooks(entry))}"
                failed.setdefault("scan", f"core {md} has partition {parts}, but {wrong}")
            n_scan += entry is not None
        if corner_check:
            m = _mask_corners(mask)
            histogram[m] += 1
            # an even m ends in D with s//2 - m flats, an odd m in F with one more
            last, flats = "DF"[m % 2], s // 2 - m + m % 2
            if steps is not None and not (steps[-1:] == last and steps.count("F") == flats):
                wrong = f"its path {steps} does not end in {last} with {flats} flats"
                core = _mask_hooks(mask)
                failed.setdefault("corners", f"core {core} has {m} corners, but {wrong}")
    if n_md != n_path:
        failed.setdefault("roundtrip", f"{n_md} cores but {n_path} paths")
    rows = _corner_rows(s, p, histogram) if corner_check else []
    for row in rows:
        if row["formula"] != row["enumerated"]:
            wrong = "corner row m={m}: {enumerated} cores, formula {formula}".format(**row)
            failed.setdefault("corners", wrong)
            break
    n_scan = None if scanned is None else n_scan + sum(1 for _ in scanned)
    if n_scan not in (None, n_md):
        failed.setdefault("scan", f"{n_md} cores but {n_scan} scan entries")
    if len({n_md, n_path, n_dp, *(result.value for result in formulas)}) > 1:
        counts = f"md={n_md} paths={n_path} dp={n_dp}"
        counts += "".join(f" {result.method}={result.value}" for result in formulas)
        failed.setdefault("counts", f"counts differ: {counts}")

    roundtrip = "fail" if "roundtrip" in failed else "pass"
    corners = "n/a" if not corner_check else "fail" if "corners" in failed else "pass"
    error = next(iter(failed.values()), None)
    return VerifyReport(
        s, d, p, n_md, n_path, n_dp, n_formula, roundtrip, corners, not failed, n_scan, error
    )
