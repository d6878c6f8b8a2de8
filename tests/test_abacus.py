import itertools

import pytest

from score_lab import (
    BeadStructureError,
    InvalidInputError,
    Progression,
    UnplaceableHookError,
    abacus_function,
    abacus_spec,
    beads_from_function,
    boundary_row,
    enumerate_md_sets,
    label,
    place_beads,
    render_abacus,
    state_md,
    validate_core_function,
)
from score_lab.abacus import abacus_record

EXAMPLE_MD_OE = (77, 41, 35, 27, 19, 11, 5, 3)  # (21, 25, 29, 33, 37)-core
EXAMPLE_MD_OO = (67, 65, 21, 19, 15, 13, 11, 9, 7, 3, 1)  # (23, 26, 29, 32)-core
EXAMPLE_MD_EO = (65, 61, 21, 17, 15, 13, 11, 9, 5, 3)  # (22, 25, 28, 31)-core
EXAMPLE_F = (0, 0, -1, 0, 0, 0, 1, 0, -1, -2, -3, -2, -2)


def test_spec_corner_label_choice():
    assert abacus_spec(21, 4).a == -21
    assert abacus_spec(23, 3).a == -23
    assert abacus_spec(22, 3).a == -25
    assert abacus_spec(21, 4).columns == 13
    assert abacus_spec(22, 3).max_column == 12
    with pytest.raises(InvalidInputError):
        abacus_spec(4, 2)


def test_labels_reference():
    prog = abacus_spec(21, 4)
    assert label(prog, 0, 0) == -21
    assert label(prog, 1, 6) == 77
    assert label(abacus_spec(22, 3), 0, 0) == -25
    with pytest.raises(InvalidInputError):
        label(prog, 0, 13)


def test_boundary_rows():
    prog = abacus_spec(21, 4)
    assert boundary_row(prog, 0) == 1
    assert boundary_row(prog, 12) == -1
    assert boundary_row(abacus_spec(22, 3), 0) == 1


@pytest.mark.parametrize("s,d", [(21, 4), (23, 3), (22, 3), (1, 1), (2, 5), (8, 1)])
def test_boundary_row_sign_condition(s, d):
    prog = abacus_spec(s, d)
    for j in range(prog.columns):
        r = boundary_row(prog, j)
        assert label(prog, r, j) > 0 > label(prog, r - 1, j)


@pytest.mark.parametrize("s,d", [(21, 4), (23, 3), (22, 3), (5, 2), (8, 1)])
def test_every_eligible_odd_value_has_one_slot(s, d):
    # Each odd h below 4(s+d) occupies exactly one position up to sign,
    # except odd multiples of s+d, which occupy two (one per sign) and
    # are exactly the values place_beads refuses.
    prog = abacus_spec(s, d)
    period = prog.period
    counted = {}
    for i in range(-2 * period, 2 * period):
        for j in range(prog.columns):
            value = abs(label(prog, i, j))
            counted[value] = counted.get(value, 0) + 1
    for h in range(1, 2 * period, 2):
        expected = 2 if h % period == (s + d) % period else 1
        assert counted.get(h) == expected, (h, counted.get(h))


def test_place_beads_matches_the_three_reference_diagrams():
    assert place_beads(abacus_spec(21, 4), EXAMPLE_MD_OE).beads == (
        0, 0, -1, 1, 1, 1, 2, 1, 0, 0, -1, 0, 0,
    )
    assert place_beads(abacus_spec(23, 3), EXAMPLE_MD_OO).beads == (
        0, 0, -1, 0, 1, 1, 2, 1, 0, -1, -2, -1, -1,
    )
    assert place_beads(abacus_spec(22, 3), EXAMPLE_MD_EO).beads == (
        0, 0, -1, 0, 0, 1, 2, 1, 0, -1, -2, -1, -1,
    )
    assert place_beads(abacus_spec(21, 4), ()).beads == (0,) * 13


def test_place_beads_error_modes():
    with pytest.raises(UnplaceableHookError):
        place_beads(abacus_spec(3, 2), (5,))
    with pytest.raises(UnplaceableHookError):
        place_beads(abacus_spec(3, 2), (15,))
    # gap inside a column block
    with pytest.raises(BeadStructureError):
        place_beads(abacus_spec(3, 2), (27, 7))
    # beads on both sides of the boundary in one column
    with pytest.raises(BeadStructureError):
        place_beads(abacus_spec(3, 2), (7, 3))


def test_summary_matches_worked_examples():
    assert abacus_function(place_beads(abacus_spec(21, 4), EXAMPLE_MD_OE)) == EXAMPLE_F
    assert abacus_function(place_beads(abacus_spec(23, 3), EXAMPLE_MD_OO)) == EXAMPLE_F
    assert abacus_function(place_beads(abacus_spec(22, 3), EXAMPLE_MD_EO)) == EXAMPLE_F
    assert abacus_function(place_beads(abacus_spec(21, 4), ())) == (
        0, 0, 0, -1, -1, -1, -1, -1, -1, -2, -2, -2, -2,
    )


def test_summary_roundtrip_through_beads():
    for s, d, md in (
        (21, 4, EXAMPLE_MD_OE),
        (23, 3, EXAMPLE_MD_OO),
        (22, 3, EXAMPLE_MD_EO),
        (5, 1, (9,)),
        (3, 2, ()),
    ):
        prog = abacus_spec(s, d)
        state = place_beads(prog, md)
        assert beads_from_function(prog, abacus_function(state)) == state
        assert state_md(state) == md
    with pytest.raises(InvalidInputError):
        beads_from_function(abacus_spec(3, 2), (0, 0))


def test_validator_worked_examples():
    prog = Progression(21, 4, 4)
    assert validate_core_function(EXAMPLE_F, prog)
    broken = EXAMPLE_F[:-1] + (-1,)
    assert not validate_core_function(broken, prog)
    assert validate_core_function((0, 0, -1), Progression(3, 2, 2))


def test_validator_accepts_the_wide_window_core():
    # (8, 9, 10, 11)-core whose summary dips to -2 in the column just
    # inside the end window; only the narrow near-end bound is sound.
    prog = Progression(8, 1, 3)
    md = (23, 7, 5, 3, 1)
    f = abacus_function(place_beads(prog, md))
    assert f == (0, -1, -2, -1, -1)
    assert validate_core_function(f, prog)


@pytest.mark.parametrize(
    "s,d,p",
    [(3, 2, 2), (3, 2, 4), (5, 3, 2), (5, 3, 3), (4, 3, 2), (4, 3, 3), (4, 5, 4), (3, 4, 5)],
)
def test_summary_conditions_characterize_cores(s, d, p):
    # Walks satisfying every validator condition are in bijection with
    # the cores themselves, so the counts must match exactly.
    prog = Progression(s, d, p)
    n_cores = len(enumerate_md_sets(prog))
    n_valid = 0
    for deltas in itertools.product((-1, 0, 1), repeat=prog.max_column):
        f = [0]
        for step in deltas:
            f.append(f[-1] + step)
        if validate_core_function(f, prog):
            n_valid += 1
    assert n_valid == n_cores


def test_every_swept_core_passes_the_validator():
    for (s, d, p) in ((5, 1, 2), (8, 3, 4), (9, 2, 5), (12, 1, 3), (7, 4, 2)):
        prog = Progression(s, d, p)
        for md in enumerate_md_sets(prog):
            f = abacus_function(place_beads(prog, md))
            assert validate_core_function(f, prog), (s, d, p, md)


def test_render_marks_beads_only():
    prog = abacus_spec(21, 4)
    empty = render_abacus(place_beads(prog, ()), row_range=(0, 1))
    assert "-21" in empty and "29" in empty
    assert "(" not in empty

    marked = render_abacus(place_beads(prog, EXAMPLE_MD_OE))
    assert "(27)" in marked and "(77)" in marked and "(-41)" in marked
    assert "(-21)" not in marked

    eo = render_abacus(place_beads(abacus_spec(22, 3), EXAMPLE_MD_EO))
    assert "(-3)" in eo


def test_record_layout():
    record = abacus_record(place_beads(abacus_spec(3, 2), (1,)))
    assert record["s"] == 3 and record["d"] == 2 and record["a"] == -3
    assert record["columns"][1] == {"j": 1, "r": 0, "b": 1, "f": 0}
