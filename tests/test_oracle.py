import ast
import gc
import json
import re
import signal
import sys
import tracemalloc
from bisect import bisect
from collections import Counter
from itertools import islice, product
from math import gcd
from pathlib import Path

import pytest

import score_lab.oracle as oracle_mod
from score_lab import (
    CountResult,
    InvalidInputError,
    PathConstraintSet,
    Progression,
    UnsupportedParametersError,
    constraints_for,
    corner_rows,
    corner_statistics,
    corners,
    count_sc_d1,
    count_via_paths,
    default_md_bound,
    enumerate_by_partition_scan,
    enumerate_md_sets,
    hook_lengths,
    is_core,
    md_is_simultaneous_core,
    md_to_partition,
    pair_core_size_bound,
    phi_context,
    satisfies,
    validate_core_function,
    verify_instance,
)
from score_lab.bijection import mapping_record
from score_lab.cli import main
from score_lab.formulas import CORNER_FORMULAS, closed_forms
from score_lab.mdcore import _mask_hooks

from conftest import sc_partitions_up_to


def brute_force_scan(prog, n_max):
    """Generate-and-filter reference for the partition scan: every
    self-conjugate partition of size <= n_max, kept when its full hook
    table avoids all moduli."""
    parts = map(md_to_partition, sc_partitions_up_to(n_max))
    return sorted(p for p in parts if all(is_core(p, t) for t in prog.moduli))


def test_enumeration_validation():
    with pytest.raises(InvalidInputError):
        Progression(4, 2, 2)
    with pytest.raises(InvalidInputError):
        Progression(3, 2, 0)
    assert Progression(3, 2, 1).moduli == (3, 5)
    assert Progression(3, 2, 3).moduli == (3, 5, 7, 9)


@pytest.mark.parametrize(
    "route",
    [
        lambda p: constraints_for(3, 2, p),
        lambda p: phi_context(3, 2, p),
        lambda p: count_sc_d1(3, p),
        lambda p: count_via_paths(3, 2, p),
        lambda p: verify_instance(3, 2, p),
        lambda p: closed_forms(3, 2, p),
    ],
    ids=[
        "constraints_for", "phi_context", "count_sc_d1", "count_via_paths", "verify",
        "closed_forms",
    ],
)
def test_every_route_words_the_progression_length_rule_alike(route):
    for p in (1, "2"):
        with pytest.raises(InvalidInputError) as excinfo:
            route(p)
        assert str(excinfo.value) == f"progression length p must be >= 2, got {p!r}"


def test_validate_core_function_words_the_progression_length_rule_alike():
    # It reads p from a Progression, which refuses a p that is not an
    # integer >= 1 itself; p = 1 is a legal Progression but no core summary.
    with pytest.raises(InvalidInputError) as excinfo:
        validate_core_function((0, 0, 0), Progression(3, 2, 1))
    assert str(excinfo.value) == "progression length p must be >= 2, got 1"


def test_bounds():
    assert default_md_bound(3, 2) == 3 * 5 - 3 - 5
    assert default_md_bound(1, 4) == 1  # raw bound is negative, clamped
    assert pair_core_size_bound(2, 3) == 1
    assert pair_core_size_bound(9, 10) == 330


def test_enumerate_md_sets_small():
    assert enumerate_md_sets(Progression(3, 2, 2)) == [(), (1,)]
    assert enumerate_md_sets(Progression(2, 1, 1)) == [(), (1,)]
    for d in (1, 2, 5):
        assert enumerate_md_sets(Progression(1, d, 2)) == [()]


@pytest.mark.parametrize("s,d,p", [(5, 1, 2), (4, 3, 2), (7, 2, 3), (8, 1, 3), (5, 4, 5)])
def test_enumeration_output_is_sound(s, d, p):
    prog = Progression(s, d, p)
    mds = enumerate_md_sets(prog)
    assert mds == sorted(set(mds))
    bound = default_md_bound(s, d)
    for md in mds:
        assert all(h <= bound for h in md)
        # modular route and full hook table must both accept
        assert md_is_simultaneous_core(md, prog.moduli)
        parts = md_to_partition(md)
        for t in prog.moduli:
            assert is_core(parts, t)


def test_partition_scan_small():
    assert enumerate_by_partition_scan(Progression(3, 2, 2), 10) == [(), (1,)]
    assert enumerate_by_partition_scan(Progression(2, 1, 1), 5) == [(), (1,)]
    assert enumerate_by_partition_scan(Progression(5, 1, 2), 0) == [()]


@pytest.mark.parametrize(
    "s,d,p,n_max",
    [(4, 1, 2, 15), (3, 2, 2, 10), (5, 1, 3, 20), (2, 3, 2, 12), (5, 2, 4, 18)],
)
def test_partition_scan_matches_generate_and_filter(s, d, p, n_max):
    prog = Progression(s, d, p)
    assert enumerate_by_partition_scan(prog, n_max) == brute_force_scan(prog, n_max)


@pytest.mark.parametrize("p", range(1, 5))
def test_partition_scan_streams_the_search_masks(p):
    # The scan yields each core's hook-set mask, built by the walk itself:
    # complete, it is the hook-set search's stream item for item; with a
    # short cap, the search's cores of size at most the cap, in order.
    for s in range(1, 12):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            prog = Progression(s, d, p)
            masks = list(oracle_mod._iter_md_sets(prog))
            complete = list(oracle_mod._iter_partition_scan(prog, pair_core_size_bound(s, s + d)))
            assert complete == masks, (s, d, p)
            assert all(type(mask) is int for mask in complete)
            n_max = pair_core_size_bound(s, s + d) // 3
            small = [mask for mask in masks if sum(_mask_hooks(mask)) <= n_max]
            assert list(oracle_mod._iter_partition_scan(prog, n_max)) == small, (s, d, p)


def test_partition_scan_cost_does_not_grow_with_n_max():
    # Past 2 * (min modulus + len(parts)) - 1 a hook's first-row pad holds
    # the smallest modulus, so a huge cap must end the scan as fast as the
    # largest core size does.
    def too_slow(signum, frame):
        raise TimeoutError("the scan walked candidates past every clean one")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        for s, d, p in [(3, 2, 2), (5, 1, 2), (4, 3, 3), (1, 1, 2)]:
            prog = Progression(s, d, p)
            complete = enumerate_by_partition_scan(prog, pair_core_size_bound(s, s + d))
            assert enumerate_by_partition_scan(prog, 10**12) == complete
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dropping_the_top_hook_preserves_remaining_hook_values():
    # The geometric fact behind the scan's pruning: the partition of a
    # hook-set tail embeds in the full partition with its hook lengths
    # intact, so hook values can only be gained, never lost.
    for md in [(9, 3, 1), (23, 7, 5, 3, 1), (15, 13, 5), (7,), (11, 9, 7, 5, 3, 1)]:
        full = {h for row in hook_lengths(md_to_partition(md)) for h in row}
        tail = {h for row in hook_lengths(md_to_partition(md[1:])) for h in row}
        assert tail <= full


@pytest.mark.parametrize("s,d,p", [(3, 2, 2), (21, 4, 4), (1, 1, 2)])
def test_verify_instance_passes(s, d, p):
    report = verify_instance(s, d, p)
    assert report.passed
    assert report.n_md == report.n_path == report.n_dp


def test_verify_instance_worked_example_membership():
    mds = enumerate_md_sets(Progression(21, 4, 4))
    assert (77, 41, 35, 27, 19, 11, 5, 3) in mds


def test_verify_instance_counts():
    report = verify_instance(3, 2, 2)
    assert (report.n_md, report.n_path, report.n_dp, report.n_formula) == (2, 2, 2, 2)
    report = verify_instance(1, 1, 2)
    assert report.n_md == 1 and report.passed


def _collide_two_cores(monkeypatch, prog):
    """phi maps the second core to the path of the first."""
    first, second = islice(oracle_mod._iter_md_sets(prog), 2)
    real = oracle_mod._phi

    def collide(mask, prog):
        return real(first if mask == second else mask, prog)

    monkeypatch.setattr(oracle_mod, "_phi", collide)


def _first_banned_word(prog):
    """The first word of type (x, y), in U < D < F order, that breaks a constraint."""
    x, y, constraints = prog.x, prog.y, prog.constraints
    return next(
        word
        for word in map("".join, product("UDF", repeat=x))
        if word.count("U") - word.count("D") == y and not satisfies(word, constraints, x, y)
    )


def _break_a_constraint(monkeypatch, prog):
    """phi emits a banned word of the right type for the last core, past its own guard."""
    import score_lab.bijection as bijection_mod

    banned = _first_banned_word(prog)
    last = max(oracle_mod._iter_md_sets(prog))
    target = oracle_mod._phi(last, prog)  # the last core's path
    real = bijection_mod._path_word

    def mutant(prog, f):
        word = real(prog, f)
        return banned if word == target else word

    monkeypatch.setattr(bijection_mod, "_path_word", mutant)
    monkeypatch.setattr(bijection_mod, "_satisfies", lambda *args: True)


def _edit_stream(monkeypatch, name, edit):
    """The stream oracle binds as ``name``, with ``edit`` applied to its items."""
    real = getattr(oracle_mod, name)

    def edited(*args):
        items = list(real(*args))
        edit(items)
        return iter(items)

    monkeypatch.setattr(oracle_mod, name, edited)


def _substitute_a_banned_word(monkeypatch, prog):
    """The path stream puts a banned word in place of the next word above it, still in order."""
    banned = _first_banned_word(prog)
    order = str.maketrans("UDF", "012")

    def substitute(words):
        keys = [word.translate(order) for word in words]
        words[bisect(keys, banned.translate(order))] = banned

    _edit_stream(monkeypatch, "_iter_paths", substitute)


def _drop_a_block(monkeypatch, prog):
    """The shared read-back leaves out the block of the first column with beads."""
    import score_lab.abacus as abacus_mod
    import score_lab.bijection as bijection_mod

    real = abacus_mod._beads_mask

    def mutant(prog, keys):
        # a column holds no beads when its key f(j) + j is its empty top r(j) - 1, plus j
        keys = list(keys)[: prog.columns]
        empty = [r + j for j, r in enumerate(prog.empty_tops)]
        first = next((j for j, key in enumerate(keys) if key != empty[j]), None)
        if first is not None:
            keys[first] = empty[first]
        return real(prog, keys)

    for module in (abacus_mod, bijection_mod):
        monkeypatch.setattr(module, "_beads_mask", mutant)


def _flip_a_column_sign(monkeypatch, prog):
    """The placement counts column 1's beads with the wrong sign."""
    build = vars(Progression)["residue_slots"].func

    def flipped(self):
        return {r: (j, -sign if j == 1 else sign) for r, (j, sign) in build(self).items()}

    monkeypatch.setattr(Progression, "residue_slots", property(flipped))


def _key_a_column_by_f(monkeypatch, prog):
    """The shared read-back keys column 1 by f(1) instead of f(1) + 1."""
    import score_lab.abacus as abacus_mod
    import score_lab.bijection as bijection_mod

    real = abacus_mod._beads_mask

    def mutant(prog, keys):
        keys = list(keys)
        keys[1] -= 1
        return real(prog, keys)

    for module in (abacus_mod, bijection_mod):
        monkeypatch.setattr(module, "_beads_mask", mutant)


def _unanchor_the_right_half_suffix(monkeypatch, prog):
    """The right-half pattern bans UF^k anywhere in the half, not only at its end."""
    build = vars(PathConstraintSet)["right_pattern"].func
    monkeypatch.setattr(
        PathConstraintSet,
        "right_pattern",
        property(lambda self: re.compile(build(self).pattern.replace(r"\Z", ""))),
    )


def _lengthen_one(items):
    """The word after the third gains an F: one step too long, still in order."""
    items[3] += "F"


def _flatten_the_last(items):
    """F^x, at height 0, stands in for the last word: the largest word of length x."""
    items[-1] = "F" * len(items[-1])


def _foreign_letter(items):
    """The last word's last letter becomes X: the right length, still in order."""
    items[-1] = items[-1][:-1] + "X"


def _wrong_type_words(items):
    _lengthen_one(items)
    _flatten_the_last(items)


def _drop_one(items):
    del items[3]


def _repeat_one(items):
    items[4] = items[3]


def _swap_two(items):
    items[3], items[4] = items[4], items[3]


MUTANTS = {
    "phi-maps-two-cores-to-one-path": _collide_two_cores,
    "phi-emits-a-banned-path": _break_a_constraint,
    "path-stream-drops-a-word": lambda mp, prog: _edit_stream(mp, "_iter_paths", _drop_one),
    "path-stream-repeats-a-word": lambda mp, prog: _edit_stream(mp, "_iter_paths", _repeat_one),
    "path-stream-substitutes-a-banned-word": _substitute_a_banned_word,
    "path-stream-yields-a-wrong-type-word": (
        lambda mp, prog: _edit_stream(mp, "_iter_paths", _wrong_type_words)
    ),
    "core-stream-repeats-a-core": lambda mp, prog: _edit_stream(mp, "_iter_md_sets", _repeat_one),
    "core-stream-drops-a-core": lambda mp, prog: _edit_stream(mp, "_iter_md_sets", _drop_one),
    "core-stream-swaps-two-cores": lambda mp, prog: _edit_stream(mp, "_iter_md_sets", _swap_two),
    "read-back-drops-a-block": _drop_a_block,
    "placement-counts-a-column-with-the-wrong-sign": _flip_a_column_sign,
    "read-back-keys-a-column-by-f": _key_a_column_by_f,
    "right-half-suffix-loses-its-anchor": _unanchor_the_right_half_suffix,
}


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_fails_the_round_trip_of_each_mutant(name, monkeypatch):
    # verify keeps no image, so each way phi could stop being a bijection onto
    # the admissible paths must still fail the round trip, without a traceback.
    # 32 cores at (9, 2, 3), where UU and a trailing U are banned.
    assert verify_instance(9, 2, 3).passed
    MUTANTS[name](monkeypatch, phi_context(9, 2, 3))
    report = verify_instance(9, 2, 3)
    assert report.passed is False and report.roundtrip == "fail"
    assert isinstance(report.error, str) and report.error
    assert report.n_dp == 32
    assert report.n_md == (31 if name == "core-stream-drops-a-core" else 32)


def test_verify_names_the_first_core_out_of_order(monkeypatch):
    # Every core of a swapped stream still round-trips and the counts agree,
    # so only the order check on the cores' masks can fail the instance.
    mds = enumerate_md_sets(phi_context(9, 2, 3))
    MUTANTS["core-stream-swaps-two-cores"](monkeypatch, phi_context(9, 2, 3))
    assert verify_instance(9, 2, 3).error == f"core {mds[3]} is out of order"


@pytest.mark.parametrize("edit", [_lengthen_one, _flatten_the_last, _foreign_letter])
def test_verify_checks_the_type_of_each_streamed_word(edit, monkeypatch):
    # The stream searches its words for banned patterns only, so the alphabet
    # and type check verify runs on each word is what refuses a foreign
    # letter, a wrong length or a wrong end height, as an inadmissible path
    # rather than a traceback; the edited stream keeps its order and its count.
    prog = phi_context(9, 2, 3)
    words = list(oracle_mod._iter_paths(prog.x, prog.y, prog.constraints))
    edited = list(words)
    edit(edited)
    (wrong,) = set(edited) - set(words)
    _edit_stream(monkeypatch, "_iter_paths", edit)
    assert verify_instance(9, 2, 3).error == f"path {wrong} is not admissible"


@pytest.mark.parametrize("p", range(2, 6))
def test_core_masks_ascend_in_hook_tuple_order(p):
    # verify checks the core stream's order by comparing masks, so mask
    # order must be the lexicographic order of the hook tuples.
    for s in range(1, 16):
        for d in range(1, 5):
            if gcd(s, d) != 1:
                continue
            masks = list(oracle_mod._iter_md_sets(Progression(s, d, p)))
            assert all(a < b for a, b in zip(masks, masks[1:])), (s, d, p)
            mds = list(map(_mask_hooks, masks))
            assert mds == sorted(mds), (s, d, p)


def _drop_the_last(items):
    del items[-1]


def _repeat_the_last(items):
    items.append(items[-1])


def _toggle_a_hook(items):
    items[3] ^= 1 << 1  # hook 1: at (9, 2, 3), partition (2, 2) becomes (2, 1)


SCAN_MUTANTS = {
    "scan-drops-a-partition": _drop_the_last,
    "scan-repeats-a-partition": _repeat_the_last,
    "scan-swaps-two-neighbours": _swap_two,
    "scan-toggles-a-hook": _toggle_a_hook,
}


def _mutate_the_scan(monkeypatch, name):
    """The scan stream verify reads, with a scan mutant applied; returns the lists it gave."""
    real = oracle_mod._iter_partition_scan
    mutated = []

    def mutant(prog, n_max):
        items = list(real(prog, n_max))
        SCAN_MUTANTS[name](items)
        mutated.append(items)
        return iter(items)

    monkeypatch.setattr(oracle_mod, "_iter_partition_scan", mutant)
    return mutated


@pytest.mark.parametrize("name", SCAN_MUTANTS)
def test_verify_fails_the_scan_check_of_each_mutant(name, monkeypatch):
    # verify walks the scan's stream in step with the cores, holding no
    # list of either, so a scan stream that is short, long, out of order
    # or wrong in one entry must fail the instance, not raise.
    assert verify_instance(9, 2, 3, scan=True).passed
    mutated = _mutate_the_scan(monkeypatch, name)
    report = verify_instance(9, 2, 3, scan=True)
    assert report.passed is False and report.roundtrip == "pass"
    assert isinstance(report.error, str) and report.error
    assert report.n_md == 32 and report.n_scan == len(mutated[0])


def test_verify_pulls_the_scan_one_entry_per_core(monkeypatch):
    # The scan's stream is never more than one entry ahead of the cores,
    # and the public scan list is never built.
    events = []

    def spy(name):
        real = getattr(oracle_mod, name)

        def logged(*args):
            for item in real(*args):
                events.append(name)
                yield item

        monkeypatch.setattr(oracle_mod, name, logged)

    def refuse(*args):
        raise AssertionError("verify built the scan's list")

    spy("_iter_md_sets")
    spy("_iter_partition_scan")
    monkeypatch.setattr(oracle_mod, "enumerate_by_partition_scan", refuse)
    report = verify_instance(11, 2, 3, scan=True)
    assert report.passed and report.n_scan == report.n_md > 50
    assert len(events) == 2 * report.n_md
    ahead = 0
    for name in events:
        ahead += 1 if name == "_iter_partition_scan" else -1
        assert ahead <= 1


def test_verify_prints_one_error_line_for_a_failed_scan(monkeypatch, capsys):
    # The first scan entry that differs goes to stderr as one line; stdout
    # holds the same bytes as for the same report with no error to name.
    args = ["verify", "--s", "9", "--d", "2", "--p", "3", "--n-max", "500", "--format", "json"]
    _mutate_the_scan(monkeypatch, "scan-swaps-two-neighbours")
    assert main(args) == 1
    printed = capsys.readouterr()
    assert printed.err == (
        "error: s=9 d=2 p=3 core (3, 1) has partition (2, 2), but scan entry 3 is (3, 1, 1)\n"
    )
    real = oracle_mod.verify_instance
    monkeypatch.setattr(
        oracle_mod, "verify_instance", lambda *args: real(*args)._replace(error=None)
    )
    assert main(args) == 1
    assert capsys.readouterr() == (printed.out, "")
    assert json.loads(printed.out.splitlines()[0])["pass"] is False


def test_verify_names_the_counts_that_differ(monkeypatch):
    # Every core round-trips, so only the count check can fail the instance.
    real = oracle_mod.count_paths_dp
    monkeypatch.setattr(oracle_mod, "count_paths_dp", lambda *args: real(*args) + 1)
    report = verify_instance(9, 1, 2)
    assert report.passed is False and report.roundtrip == "pass" and report.corners == "pass"
    assert report.error == "counts differ: md=35 paths=35 dp=36 formula-p2=35 formula-d1=35"


def test_verify_names_the_core_that_comes_back_as_another(monkeypatch, capsys):
    # No exception is raised, yet the report and stderr name the first
    # core whose path reads back to a different hook set.
    prog = phi_context(9, 2, 3)
    first, second = enumerate_md_sets(prog)[:2]
    _collide_two_cores(monkeypatch, prog)
    assert verify_instance(9, 2, 3).error == f"core {second}: came back as {first}"
    assert main(["verify", "--s", "9", "--d", "2", "--p", "3"]) == 1
    printed = capsys.readouterr()
    assert printed.out == (
        "s=9 d=2 p=3 md=32 paths=32 dp=32 formula=32 roundtrip=fail corners=n/a FAIL\n"
        "verified 1 instances: 0 pass, 1 fail, 0 skipped\n"
    )
    assert printed.err == f"error: s=9 d=2 p=3 core {second}: came back as {first}\n"


def test_verify_instance_memory_is_flat_in_the_core_count():
    # One streamed pass holds no list of cores, paths or images: the 1,273
    # cores of (17, 2, 3) peak about as high as the 148 of (11, 4, 4), where
    # holding them all put it near 8 times as high.
    def peak(s, d, p):
        tracemalloc.start()
        try:
            assert verify_instance(s, d, p).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(17, 2, 3) < 3 * peak(11, 4, 4)


def test_verify_instance_leaves_no_reference_cycles():
    # The enumerators' result lists must be freed as soon as they are
    # dropped; held in a cycle they wait for a full collection, which
    # grows peak memory over many verify calls.
    gc.collect()
    gc.disable()
    try:
        verify_instance(7, 2, 3, scan=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_report_json_layout():
    record = verify_instance(3, 2, 2).as_json()
    assert list(record) == [
        "s", "d", "p", "n_md", "n_path", "n_dp", "n_formula",
        "roundtrip", "corners", "pass",
    ]
    record = verify_instance(3, 2, 2, scan=True).as_json()
    assert record["n_scan"] == 2 and record["pass"] is True


def test_records_are_immutable_tuples_of_their_fields():
    report, count = verify_instance(3, 2, 2), count_via_paths(3, 2, 2)
    assert count == (2, "dp") and report[:3] == (3, 2, 2)
    for record, name in ((report, "passed"), (report, "other"), (count, "value"), (count, "x")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_scan_independence_from_modular_logic(monkeypatch):
    # The partition scan must not touch the modular core test.
    import score_lab.mdcore as mdcore_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("partition scan called the modular core test")

    for name in (
        "md_is_core", "md_is_simultaneous_core", "_is_simultaneous_core", "_hook_mask",
    ):
        monkeypatch.setattr(mdcore_mod, name, forbidden)
    monkeypatch.setattr(Progression, "residue_slots", property(forbidden))
    prog = Progression(4, 1, 2)
    assert len(enumerate_by_partition_scan(prog, 15)) == 5
    # Its mask is over first-row widths, built from the moduli alone: the
    # body reads none of the hook-set search's or the core test's tables.
    scan = _function(oracle_mod, "_iter_partition_scan")
    assert not _reads(scan) & {
        "doubled", "md_bound", "class_firsts", "class_blocks",
        "residue_slots", "_hook_mask", "_mask_hooks",
    }
    assert "moduli" in _reads(scan)


def test_md_enumeration_independence_from_encoding(monkeypatch):
    # The hook-set search must not touch the abacus, the path map or the
    # hook-set mask kernel of the bijection round trip, so that the round
    # trip's core test stays an independent cross-check of the search.
    import score_lab.abacus as abacus_mod
    import score_lab.bijection as bijection_mod
    import score_lab.mdcore as mdcore_mod
    import score_lab.oracle as oracle_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("hook-set enumeration called the encoding")

    forbidden_names = {
        abacus_mod: ("place_beads", "_place_beads", "state_md", "_beads_mask"),
        bijection_mod: ("phi", "_phi", "phi_inverse", "_path_mask"),
        mdcore_mod: ("_is_simultaneous_core", "_hook_mask"),
    }
    for module, names in forbidden_names.items():
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
            # a name the oracle imports is looked up in the oracle's namespace
            if hasattr(oracle_mod, name):
                monkeypatch.setattr(oracle_mod, name, forbidden)
    for name in ("class_firsts", "residue_slots", "class_blocks"):
        monkeypatch.setattr(Progression, name, property(forbidden))
    assert enumerate_md_sets(Progression(5, 1, 2)) == [
        (),
        (1,),
        (3,),
        (3, 1),
        (9,),
    ]
    assert len(enumerate_md_sets(Progression(21, 4, 4))) == 13694


def _reads(source):
    """Every name and attribute a module's source, or a syntax tree, reads or imports."""
    tree = (
        source
        if isinstance(source, ast.AST)
        else ast.parse(Path(source.__file__).read_text(encoding="utf-8"))
    )
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_each_check_has_one_home():
    # The column read-back lives in abacus._beads_mask, the d = 1 corner
    # rows in oracle._corner_rows and the corner count in mdcore._mask_corners;
    # a second copy must not creep back in.
    import score_lab.bijection as bijection_mod
    import score_lab.cli as cli_mod

    assert not _reads(bijection_mod) & {"class_blocks", "class_depth", "_deep_block"}
    assert not _reads(cli_mod) & {"CORNER_FORMULAS", "_corners", "_md_to_partition"}

    # The path rules live in constraints_for: the summary validator checks f
    # through them with no parity cases of its own, and phi takes its word
    # from the same f -> word step in abacus.
    import score_lab.abacus as abacus_mod

    validator = _function(abacus_mod, "validate_core_function")
    assert {"constraints", "_satisfies", "_path_word"} <= _reads(validator)
    assert not any(isinstance(node, ast.Mod) for node in ast.walk(validator))
    phi_body = _function(bijection_mod, "_phi")
    assert "_path_word" in _reads(phi_body)
    assert not _reads(phi_body) & {"_LETTER", "join", "sub"}


def _function(module, name):
    """The syntax tree of the top-level function ``name`` in a module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (node,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return node


def _verify_corner_rows(monkeypatch):
    """Rebind the rows verify_instance compares so that each call's rows are kept."""
    compared = []

    def keeping(*args, build=oracle_mod._corner_rows):
        compared.append(build(*args))
        return compared[-1]

    monkeypatch.setattr(oracle_mod, "_corner_rows", keeping)
    return compared


@pytest.mark.parametrize("s", range(3, 10))
def test_verify_checks_the_corner_row_past_the_top(s, monkeypatch):
    prog = Progression(s, 1, 2)
    past_top = corner_rows(prog)[-1]["m"]
    real = CORNER_FORMULAS[2]

    def one_more_core(s, m):
        return CountResult(1, "patched") if m == past_top else real(s, m)

    assert verify_instance(s, 1, 2).corners == "pass"
    monkeypatch.setitem(CORNER_FORMULAS, 2, one_more_core)
    report = verify_instance(s, 1, 2)
    assert report.corners == "fail"
    assert report.error == f"corner row m={past_top}: 0 cores, formula 1"


def test_verify_checks_each_cores_last_step_and_flat_count(monkeypatch):
    # Swapping the corner counts of the empty core (m = 0) and (1,) (m = 1)
    # leaves every row agreeing, so only the per-core path check can fail.
    # verify reads each core's count off its hook mask: 0 for (), 0b10 for (1,).
    real = oracle_mod._mask_corners

    def swapped(mask):
        return {0: 1, 0b10: 0}.get(mask, real(mask))

    compared = _verify_corner_rows(monkeypatch)
    monkeypatch.setattr(oracle_mod, "_mask_corners", swapped)
    report = verify_instance(9, 1, 2)
    assert report.corners == "fail" and not report.passed
    assert report.error is not None and report.error.startswith("core () has 1 corners")
    assert all(row["enumerated"] == row["formula"] for row in compared[0])


@pytest.mark.parametrize("p", [2, 3])
def test_corners_prints_the_rows_verify_compares_but_the_last(p, monkeypatch, capsys):
    compared = _verify_corner_rows(monkeypatch)
    for s in range(1, 16):
        assert verify_instance(s, 1, p).corners == "pass"
        assert main(["corners", "--s", str(s), "--p", str(p), "--format", "json"]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == compared[-1][:-1]
        assert len(printed) == max(s // 2, printed[-1]["m"]) + 1


def test_corner_rows_refuses_a_progression_other_than_d_1():
    with pytest.raises(UnsupportedParametersError, match="d=1 only, got d=2"):
        corner_rows(Progression(5, 2, 2))


def _rebind(monkeypatch, original, replacement):
    """Rebind every score_lab module's binding of ``original`` to ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "score_lab" or module_name.startswith("score_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_corner_counts_build_no_partition_and_no_hook_tuple(monkeypatch, capsys):
    # Every route that counts corners reads them off the core's hook mask.
    import score_lab.mdcore as mdcore_mod

    prog = Progression(13, 1, 3)
    mds = enumerate_md_sets(prog)

    def forbidden(*args):
        raise AssertionError("a partition or a hook tuple was built to count corners")

    for name in ("_md_to_partition", "_corners", "_mask_hooks"):
        _rebind(monkeypatch, getattr(mdcore_mod, name), forbidden)
    assert main(["corners", "--s", "13", "--p", "3"]) == 0
    assert capsys.readouterr().out.endswith("AGREE\n")
    for md in mds:
        m = corner_statistics(md, prog)[0]
        assert mapping_record(md, prog)["corners"] == m
    assert sum(row["enumerated"] for row in corner_rows(prog)) == len(mds)


def test_corner_rows_agree_with_corners_counted_on_the_partitions():
    # The partition route is the reference for the hook-mask count.
    for s in range(1, 20):
        for p in range(2, 7):
            prog = Progression(s, 1, p)
            histogram = Counter(corners(md_to_partition(md)) for md in enumerate_md_sets(prog))
            rows = corner_rows(prog)
            assert [row["m"] for row in rows] == list(range(max(*histogram, s // 2) + 2))
            assert [row["enumerated"] for row in rows] == [histogram[row["m"]] for row in rows]


def test_a_wrong_corner_count_is_caught(monkeypatch, capsys):
    # Forgetting that a hook of 1 ends in one corner, not two, miscounts every
    # core holding it, so the printed rows and verify's rows both disagree.
    import score_lab.mdcore as mdcore_mod

    def miscounted(mask):
        return 2 * (mask.bit_count() - (mask & mask >> 2).bit_count())

    _rebind(monkeypatch, mdcore_mod._mask_corners, miscounted)
    assert main(["corners", "--s", "9", "--p", "2"]) == 1
    assert capsys.readouterr().out.endswith("DISAGREE\n")
    assert verify_instance(9, 1, 2).corners == "fail"
