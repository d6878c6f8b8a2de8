import itertools
import sys
from math import gcd

import pytest

import score_lab
import score_lab.progression as progression_mod
from score_lab import (
    InternalConsistencyError,
    InvalidPathError,
    NotACoreError,
    Progression,
    UnsupportedParametersError,
    constraints_for,
    corner_statistics,
    default_md_bound,
    enumerate_md_sets,
    enumerate_paths,
    is_core,
    md_to_partition,
    pair_core_size_bound,
    phi,
    phi_context,
    phi_inverse,
    place_beads,
    satisfies,
    state_md,
    validate_core_function,
    verify_instance,
)
from score_lab.bijection import _path_mask, mapping_record
from score_lab.mdcore import _hook_mask, _is_simultaneous_core, _mask_hooks

LAMBDA = (77, 41, 35, 27, 19, 11, 5, 3)
MU = (67, 65, 21, 19, 15, 13, 11, 9, 7, 3, 1)
NU = (65, 61, 21, 17, 15, 13, 11, 9, 5, 3)


def test_context_type():
    prog = phi_context(21, 4, 4)
    assert (prog.x, prog.y) == (12, -2)
    assert phi_context(23, 3, 3).x == 13
    assert phi_context(22, 3, 3).moduli == (22, 25, 28, 31)


def test_phi_worked_examples():
    assert phi(LAMBDA, phi_context(21, 4, 4)) == "FDUFFUDDDDUF"
    assert phi(MU, phi_context(23, 3, 3)) == "FDUFFUDDDDUFF"
    assert phi(NU, phi_context(22, 3, 3)) == "FDUFFUDDDDUFF"
    assert phi((), phi_context(21, 4, 2)) == "FFDFFFFFDFFF"


def test_distinct_parameters_can_share_one_path():
    # The images of MU under (23, 3) and NU under (22, 3) coincide.
    assert phi(MU, phi_context(23, 3, 3)) == phi(NU, phi_context(22, 3, 3))


def test_phi_inverse_worked_examples():
    assert phi_inverse("FDUFFUDDDDUF", phi_context(21, 4, 4)) == LAMBDA
    assert phi_inverse("FDUFFUDDDDUFF", phi_context(22, 3, 3)) == NU
    assert phi_inverse("FDUFFUDDDDUFF", phi_context(23, 3, 3)) == MU
    assert phi_inverse("FFDFFFFFDFFF", phi_context(21, 4, 2)) == ()


def test_phi_rejects_non_cores():
    with pytest.raises(NotACoreError):
        phi((3,), phi_context(3, 2, 2))


def test_phi_inverse_rejects_bad_paths():
    prog = phi_context(21, 4, 4)
    with pytest.raises(InvalidPathError):
        phi_inverse("UUU", prog)  # wrong type
    with pytest.raises(InvalidPathError):
        phi_inverse("UDDDFFFFFFFF", prog)  # right type, forbidden prefix U
    with pytest.raises(InvalidPathError):
        phi_inverse("FDUFFUDDDDFU", prog)  # right type, forbidden suffix U


@pytest.mark.parametrize("s,d,p", [(5, 2, 2), (4, 3, 3), (7, 1, 2), (5, 3, 4), (8, 1, 3)])
def test_bijection_on_full_small_instances(s, d, p):
    prog = phi_context(s, d, p)
    mds = enumerate_md_sets(prog)
    images = [phi(md, prog) for md in mds]
    assert len(set(images)) == len(images)
    assert set(images) == set(enumerate_paths(prog.x, prog.y, constraints_for(s, d, p)))
    for md, steps in zip(mds, images):
        assert phi_inverse(steps, prog) == md


def test_corner_statistics_small():
    assert corner_statistics((), phi_context(5, 1, 2)) == (0, "D", 2)
    assert corner_statistics((1,), phi_context(5, 1, 2)) == (1, "F", 2)
    assert corner_statistics((3, 1), phi_context(5, 1, 2)) == (1, "F", 2)
    with pytest.raises(UnsupportedParametersError):
        corner_statistics((1,), phi_context(5, 2, 2))


@pytest.mark.parametrize("s,p", [(5, 2), (8, 2), (9, 3), (11, 3), (13, 2)])
def test_dropping_the_largest_hook_shifts_flats_by_zero_or_two(s, p):
    # For d = 1: removing the top diagonal hook keeps the flat count
    # when the top two hooks are adjacent (gap exactly 2) and adds two
    # flats otherwise.
    prog = phi_context(s, 1, p)
    for md in enumerate_md_sets(prog):
        if len(md) < 2:
            continue
        full = phi(md, prog).count("F")
        reduced = phi(md[1:], prog).count("F")
        if md[0] == md[1] + 2:
            assert full == reduced
        else:
            assert full == reduced - 2


def test_mapping_record_layout():
    record = mapping_record((1,), phi_context(5, 1, 2))
    assert record == {
        "md": [1],
        "s": 5,
        "d": 1,
        "p": 2,
        "path": "FDF",
        "x": 3,
        "y": -1,
        "corners": 1,
    }
    assert "corners" not in mapping_record((), phi_context(3, 2, 2))


# One instance per parity case of (s, d), plus two with d = 1; each has
# at most 14 odd hooks below its completeness bound.
@pytest.mark.parametrize("s,d,p", [(5, 2, 2), (4, 3, 3), (5, 3, 4), (5, 1, 2), (4, 1, 3)])
def test_phi_rejects_exactly_the_non_cores_of_the_hook_table(s, d, p):
    # Every subset of the odd hooks up to the completeness bound, judged
    # by the plain hook-table test, which shares no logic with phi.
    prog = phi_context(s, d, p)
    hooks = range(1, default_md_bound(s, d) + 1, 2)[::-1]  # decreasing, like md
    cores = 0
    for size in range(len(hooks) + 1):
        for md in itertools.combinations(hooks, size):
            parts = md_to_partition(md)
            if all(is_core(parts, t) for t in prog.moduli):
                cores += 1
                assert phi_inverse(phi(md, prog), prog) == md
            else:
                with pytest.raises(NotACoreError):
                    phi(md, prog)
    assert cores == len(enumerate_md_sets(prog))


def test_phi_inverse_rechecks_the_rebuilt_hook_set(monkeypatch):
    import score_lab.bijection as bijection_mod

    prog = phi_context(21, 4, 4)
    assert phi_inverse("FDUFFUDDDDUF", prog) == LAMBDA
    monkeypatch.setattr(bijection_mod, "_is_simultaneous_core", lambda *args: False)
    with pytest.raises(InternalConsistencyError):
        phi_inverse("FDUFFUDDDDUF", prog)


def test_phi_inverse_refuses_a_non_core_read_back(monkeypatch):
    # Only the public phi_inverse re-runs the core test on what it reads back.
    import score_lab.bijection as bijection_mod

    prog = phi_context(21, 4, 4)
    monkeypatch.setattr(bijection_mod, "_beads_mask", lambda prog, keys: 1 << 21)
    with pytest.raises(InternalConsistencyError, match=r"non-core hook set \(21,\)"):
        phi_inverse("FDUFFUDDDDUF", prog)


def _first_jump(f, prog):
    """The first difference of f, with odd d's convention step, outside -1, 0, 1."""
    f = [*f, prog.y] if prog.d % 2 else list(f)
    return next(b - a for a, b in zip(f, f[1:]) if abs(b - a) > 1)


@pytest.mark.parametrize("s,d,p", [(21, 4, 4), (16, 3, 3)])
@pytest.mark.parametrize("jump", [2, 3, -2, -3, 300, -300])
def test_a_summary_that_jumps_is_named_by_its_first_jump(s, d, p, jump, monkeypatch):
    # The keys' differences are the step bytes, so a rise of 2 or more leaves
    # a byte past U's and a fall of 2 or more a negative one, which bytes
    # refuses; either must be named by f's first difference, the way the
    # per-letter lookup named it, and refused by the summary validator.
    import score_lab.bijection as bijection_mod

    prog = phi_context(s, d, p)
    md = max(enumerate_md_sets(prog), key=len)
    f = [v - i for i, v in enumerate(bijection_mod._place_beads(prog, _hook_mask(md)))]
    j = prog.columns // 2
    shift = jump - (f[j] - f[j - 1])
    jumping = f[:j] + [v + shift for v in f[j:]]
    assert _first_jump(jumping, prog) == jump
    keys = [v + i for i, v in enumerate(jumping)]
    monkeypatch.setattr(bijection_mod, "_place_beads", lambda prog, mask: keys)
    with pytest.raises(InternalConsistencyError) as raised:
        bijection_mod._phi(_hook_mask(md), prog)
    assert str(raised.value) == f"column summary jumps by {jump} for {md}"
    assert validate_core_function(jumping, prog) is False


def test_a_convention_step_that_jumps_is_named(monkeypatch):
    # At d = 3 the all-flat summary ends at 0 and its convention step falls to
    # -2: the only jump is past the last column.
    import score_lab.bijection as bijection_mod

    prog = phi_context(16, 3, 3)
    flat = [0] * prog.columns
    assert _first_jump(flat, prog) == -2
    monkeypatch.setattr(bijection_mod, "_place_beads", lambda prog, mask: list(range(len(flat))))
    with pytest.raises(InternalConsistencyError) as raised:
        bijection_mod._phi(_hook_mask(()), prog)
    assert str(raised.value) == "column summary jumps by -2 for ()"
    assert validate_core_function(flat, prog) is False


def test_state_md_phi_inverse_and_verify_share_one_read_back(monkeypatch):
    import score_lab.abacus as abacus_mod
    import score_lab.bijection as bijection_mod

    calls = []
    real = abacus_mod._beads_mask

    def counting(prog, keys):
        calls.append(prog)
        return real(prog, keys)

    for module in (abacus_mod, bijection_mod):  # the body and the one module importing it
        monkeypatch.setattr(module, "_beads_mask", counting)
    prog = phi_context(21, 4, 4)
    assert state_md(prog, place_beads(prog, LAMBDA)) == LAMBDA
    assert phi_inverse("FDUFFUDDDDUF", prog) == LAMBDA
    assert len(calls) == 2
    assert verify_instance(3, 2, 2).passed  # two cores, one read-back each
    assert len(calls) == 4


def test_one_summary_body_serves_phi_and_verify(monkeypatch):
    # One placement and one key -> word step per core, in phi and in verify:
    # the keys f(j) + j go from the row walk straight to the word.
    import score_lab.abacus as abacus_mod

    names = ("_place_beads", "_path_word", "abacus_function")
    counts = _count_calls(monkeypatch, names, abacus_mod)
    prog = phi_context(21, 4, 4)
    assert phi(LAMBDA, prog) == "FDUFFUDDDDUF"
    assert counts == {"_place_beads": 1, "_path_word": 1, "abacus_function": 0}
    assert verify_instance(3, 2, 2).passed  # two cores, one summary each
    assert counts == {"_place_beads": 3, "_path_word": 3, "abacus_function": 0}


def _count_calls(monkeypatch, names, home=score_lab):
    """Rebind every score_lab module's binding of each function ``home`` names to a counter."""
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    wrappers = {id(getattr(home, name)): (name, getattr(home, name)) for name in names}
    for module_name, module in list(sys.modules.items()):
        if module_name == "score_lab" or module_name.startswith("score_lab."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, counting(*wrappers[id(value)]))
    return counts


def _count_builds(monkeypatch, names):
    """Count how often each named cached table of a Progression is computed."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        table = vars(Progression)[name]

        def counting(prog, name=name, build=table.func):
            counts[name] += 1
            return build(prog)

        monkeypatch.setattr(table, "func", counting)
    return counts


def test_bijection_does_per_instance_work_once(monkeypatch):
    # A work count, not a timing: per-instance set-up must not creep back
    # into the per-core path.
    mds = enumerate_md_sets(Progression(13, 2, 3))
    counts = _count_calls(monkeypatch, ("validate_md", "boundary_row", "constraints_for"))
    tables = (
        "boundary_rows", "md_bound",
        "class_firsts", "residue_slots", "class_blocks",
    )
    builds = _count_builds(monkeypatch, tables)
    runs_built = []

    def counted_runs(period, depth, build=progression_mod._class_runs):
        runs_built.append(depth)
        return build(period, depth)

    monkeypatch.setattr(progression_mod, "_class_runs", counted_runs)
    prog = phi_context(13, 2, 3)
    for md in mds:
        assert phi_inverse(phi(md, prog), prog) == md
    assert len(mds) == 201
    assert counts["constraints_for"] == 1
    assert builds == dict.fromkeys(tables, 1)  # the grid and its tables, once
    # each block is built on its first read and kept, so none is rebuilt
    assert len(runs_built) == sum(map(len, prog.class_blocks))
    assert counts["validate_md"] <= len(mds)  # at most one per phi call
    assert counts["boundary_row"] <= prog.columns  # none per core


def test_verify_instance_validates_each_core_once(monkeypatch):
    # The round trip, the d = 1 corner check and the scan comparison read the
    # canonical hook sets and paths the search and the trusted phi give them.
    counts = _count_calls(monkeypatch, ("validate_md", "md_to_partition", "corners"))
    report = verify_instance(9, 1, 2, scan=True)
    assert report.passed and report.corners == "pass" and report.n_scan == report.n_md == 35
    assert counts == {"validate_md": 0, "md_to_partition": 0, "corners": 0}


def test_verify_instance_builds_hook_tuples_only_to_name_a_failure(monkeypatch):
    # A work count, not a timing: the round trip works on each core's mask
    # alone and the scan yields masks, so a passing run, scan or not, builds
    # no hook tuple and no partition; a wrong scan entry builds them to be named.
    import score_lab.mdcore as mdcore_mod
    import score_lab.oracle as oracle_mod

    counts = _count_calls(monkeypatch, ("_mask_hooks", "_md_to_partition"), mdcore_mod)
    report = verify_instance(13, 2, 3)
    assert report.passed and report.n_md == 201
    report = verify_instance(13, 2, 3, scan=True)
    assert report.passed and report.n_scan == 201
    assert counts == {"_mask_hooks": 0, "_md_to_partition": 0}
    real = oracle_mod._iter_partition_scan

    def one_wrong(prog, n_max):
        for i, mask in enumerate(real(prog, n_max)):
            yield mask ^ 2 if i == 7 else mask

    monkeypatch.setattr(oracle_mod, "_iter_partition_scan", one_wrong)
    report = verify_instance(13, 2, 3, scan=True)
    assert not report.passed and report.error.startswith("core ")
    assert counts == {"_mask_hooks": 2, "_md_to_partition": 2}


def test_enumerate_and_map_validate_each_core_once(monkeypatch, capsys):
    # The record builders check a hook set once, then call the trusted bodies.
    import score_lab.mdcore as mdcore_mod
    from score_lab.cli import main

    def forbidden(*args, **kwargs):
        raise AssertionError("a record builder re-validated a partition")

    monkeypatch.setattr(mdcore_mod, "validate_partition", forbidden)
    counts = _count_calls(monkeypatch, ("validate_md", "md_to_partition", "corners"))
    cores = len(enumerate_md_sets(Progression(9, 1, 2)))
    # the hook-set search, then the partition scan, which reads hooks off its partitions
    for route in ([], ["--n-max", str(pair_core_size_bound(9, 10))]):
        counts["validate_md"] = 0
        for fmt in ("text", "json", "csv"):
            argv = ["enumerate", "--s", "9", "--d", "1", "--p", "2", *route, "--format", fmt]
            assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3 * cores + 1  # one CSV header
        assert counts["validate_md"] <= 3 * cores
        assert counts["md_to_partition"] == counts["corners"] == 0
    for fmt in ("text", "json", "csv"):
        assert main(["map", "--md", "3,1", "--s", "5", "--d", "1", "--p", "2", "--format", fmt]) == 0
    assert counts["md_to_partition"] == counts["corners"] == 0


def test_enumerate_validates_no_core(monkeypatch, capsys):
    # Both streams yield canonical masks, so the records trust their hook tuples.
    from score_lab.cli import main

    counts = _count_calls(monkeypatch, ("validate_md",))
    for route in ([], ["--n-max", str(pair_core_size_bound(9, 11))]):
        assert main(["enumerate", "--s", "9", "--d", "2", "--p", "3", *route]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(
            enumerate_md_sets(Progression(9, 2, 3))
        )
    assert counts["validate_md"] == 0


def test_corner_statistics_and_mapping_record_validate_once(monkeypatch):
    # After phi they read the canonical hook set and the path directly.
    counts = _count_calls(monkeypatch, ("validate_md", "md_to_partition", "corners"))
    prog = phi_context(9, 1, 2)
    mds = enumerate_md_sets(prog)
    for md in mds:
        m, last, flats = corner_statistics(md, prog)
        assert mapping_record(md, prog)["corners"] == m
        assert (last, flats) == (("D", 9 // 2 - m) if m % 2 == 0 else ("F", 9 // 2 - m + 1))
    assert counts == {
        "validate_md": 2 * len(mds),
        "md_to_partition": 0,
        "corners": 0,
    }


def _beta_set_is_core(parts, t):
    """James and Kerber's beta-set test, on its own: with l rows, the partition
    is a t-core when every first-column hook b >= t has b - t among them."""
    beta = {part + len(parts) - i for i, part in enumerate(parts, start=1)}
    return all(b - t in beta for b in beta if b >= t)


def _constraint_probes(prog):
    """(word, banned) for each length of each banned shape up to its top + 1.

    Each shape is spliced into the admissible word D^c F^(x-c), c = -y:
    D^c U F^i U DD (factor), F^j U D^(c+1) (prefix) and D^(c+1) .. U F^k
    (suffix), padded with flats to length x; a word that does not fit
    is left out.
    """
    x, c, cons = prog.x, -prog.y, prog.constraints
    shapes = (
        (cons.factor_top, lambda i: ("D" * c + "U" + "F" * i + "UDD", "")),
        (cons.prefix_top, lambda j: ("F" * j + "U" + "D" * (c + 1), "")),
        (cons.suffix_top, lambda k: ("D" * (c + 1), "U" + "F" * k)),
    )
    for top, splice in shapes:
        for length in range(top + 2):
            head, tail = splice(length)
            flats = x - len(head) - len(tail)
            if flats >= 0:
                yield head + "F" * flats + tail, length <= top


def _probe_grid():
    pairs = [(s, d) for s in [*range(1, 40), 101, 201, 1001] for d in range(1, 7)]
    return [(s, d, p) for s, d in pairs if gcd(s, d) == 1 for p in range(2, 9)]


def test_constraint_tops_are_exact_by_the_beta_set_test():
    # A banned length reads back to a non-core, and one past the top to a
    # core; the verdicts come from the beta-sets of the rebuilt partitions
    # and must agree with the modular core test.
    probes = banned = 0
    for s, d, p in _probe_grid():
        prog = phi_context(s, d, p)
        for word, is_banned in _constraint_probes(prog):
            assert satisfies(word, prog.constraints, prog.x, prog.y) != is_banned, word
            mask = _path_mask(word, prog)
            parts = md_to_partition(_mask_hooks(mask))
            core = all(_beta_set_is_core(parts, t) for t in prog.moduli)
            assert core != is_banned, (s, d, p, word)
            assert _is_simultaneous_core(mask, prog.doubled) == core
            probes += 1
            banned += is_banned
    assert (probes, banned) == (9_857, 7_166)
