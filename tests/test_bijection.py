import itertools
import sys

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
    flat_count,
    is_core,
    md_to_partition,
    pair_core_size_bound,
    phi,
    phi_context,
    phi_inverse,
    verify_instance,
)
from score_lab.bijection import mapping_record

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
        full = flat_count(phi(md, prog))
        reduced = flat_count(phi(md[1:], prog))
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


def _count_calls(monkeypatch, names):
    """Rebind every score_lab module's binding of each named function to a counter."""
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    wrappers = {id(getattr(score_lab, name)): (name, getattr(score_lab, name)) for name in names}
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
        "boundary_rows", "pair_sums", "pair_mask", "md_bound",
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
    assert max(runs_built) == prog.class_depth  # no deeper blocks for any core
    assert counts["validate_md"] <= len(mds)  # at most one per phi call
    assert counts["boundary_row"] <= prog.columns  # none per core


def test_verify_instance_validates_each_core_once(monkeypatch):
    # The d = 1 corner check and the scan comparison read the canonical
    # hook sets and paths they are given; only phi validates its input.
    counts = _count_calls(
        monkeypatch, ("validate_md", "md_to_partition", "corners", "last_step", "flat_count")
    )
    report = verify_instance(9, 1, 2, n_max=pair_core_size_bound(9, 10))
    assert report.passed and report.corners == "pass" and report.n_scan == report.n_md == 35
    assert counts["validate_md"] <= report.n_md  # at most one per phi call
    assert counts["md_to_partition"] == counts["corners"] == 0
    assert counts["last_step"] == counts["flat_count"] == 0


def test_corner_statistics_and_mapping_record_validate_once(monkeypatch):
    # After phi they read the canonical hook set and the path directly.
    counts = _count_calls(
        monkeypatch, ("validate_md", "md_to_partition", "corners", "last_step", "flat_count")
    )
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
        "last_step": 0,
        "flat_count": 0,
    }
