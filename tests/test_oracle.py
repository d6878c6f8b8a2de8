import gc
from math import gcd

import pytest

from score_lab import (
    InvalidInputError,
    Progression,
    constraints_for,
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
    validate_core_function,
    verify_instance,
)


def brute_force_scan(prog, n_max):
    """Generate-and-filter reference for the partition scan: every
    self-conjugate partition of size <= n_max, kept when its full hook
    table avoids all moduli."""
    found = []

    def grow(md, total):
        parts = md_to_partition(tuple(md))
        if all(is_core(parts, t) for t in prog.moduli):
            found.append(parts)
        start = md[-1] - 2 if md else (n_max if n_max % 2 else n_max - 1)
        for c in range(start, 0, -2):
            if total + c <= n_max:
                md.append(c)
                grow(md, total + c)
                md.pop()

    grow([], 0)
    return sorted(found)


def test_enumeration_validation():
    with pytest.raises(InvalidInputError):
        Progression(4, 2, 2)
    with pytest.raises(InvalidInputError):
        Progression(3, 2, 0)
    with pytest.raises(InvalidInputError, match=r"^bound must be >= 1, got 0$"):
        enumerate_md_sets(Progression(3, 2, 2), bound=0)
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
    ],
    ids=["constraints_for", "phi_context", "count_sc_d1", "count_via_paths", "verify"],
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


@pytest.mark.parametrize("s,d,p", [(5, 1, 2), (4, 3, 2), (7, 2, 3), (3, 4, 4)])
def test_hook_bound_is_not_binding(s, d, p):
    # Enumerating with a far larger candidate bound finds nothing new.
    prog = Progression(s, d, p)
    inflated = default_md_bound(s, d) + 4 * (s + p * d)
    assert enumerate_md_sets(prog) == enumerate_md_sets(prog, inflated)


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


def test_verify_catches_an_undersized_bound():
    # Capping the hook candidates below the true maximum loses cores,
    # so the tallies disagree and the instance must fail.
    report = verify_instance(5, 1, 2, bound=1)
    assert not report.passed
    assert report.n_md < report.n_path


def test_verify_instance_leaves_no_reference_cycles():
    # The enumerators' result lists must be freed as soon as they are
    # dropped; held in a cycle they wait for a full collection, which
    # grows peak memory over many verify calls.
    gc.collect()
    gc.disable()
    try:
        verify_instance(7, 2, 3, n_max=pair_core_size_bound(7, 9))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_report_json_layout():
    record = verify_instance(3, 2, 2).as_json()
    assert list(record) == [
        "s", "d", "p", "n_md", "n_path", "n_dp", "n_formula",
        "roundtrip", "corners", "pass",
    ]
    record = verify_instance(3, 2, 2, n_max=10).as_json()
    assert record["n_scan"] == 2 and record["pass"] is True


def test_scan_independence_from_modular_logic(monkeypatch):
    # The partition scan must not touch the modular core test.
    import score_lab.mdcore as mdcore_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("partition scan called the modular core test")

    for name in (
        "md_is_core", "md_is_simultaneous_core", "_residues_pass", "_is_simultaneous_core",
        "_hook_mask",
    ):
        monkeypatch.setattr(mdcore_mod, name, forbidden)
    for name in ("pair_mask", "residue_slots"):
        monkeypatch.setattr(Progression, name, property(forbidden))
    prog = Progression(4, 1, 2)
    assert len(enumerate_by_partition_scan(prog, 15)) == 5


def test_md_enumeration_independence_from_encoding(monkeypatch):
    # The hook-set search must not touch the abacus or the path map.
    import score_lab.abacus as abacus_mod
    import score_lab.bijection as bijection_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("hook-set enumeration called the encoding")

    monkeypatch.setattr(abacus_mod, "place_beads", forbidden)
    monkeypatch.setattr(abacus_mod, "_place_beads", forbidden)
    monkeypatch.setattr(abacus_mod, "_state_hooks", forbidden)
    for name in ("class_firsts", "residue_slots", "class_blocks"):
        monkeypatch.setattr(Progression, name, property(forbidden))
    monkeypatch.setattr(bijection_mod, "phi", forbidden)
    monkeypatch.setattr(bijection_mod, "_phi", forbidden)
    assert enumerate_md_sets(Progression(5, 1, 2)) == [
        (),
        (1,),
        (3,),
        (3, 1),
        (9,),
    ]
