import itertools
import time
import tracemalloc

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
from score_lab.abacus import _place_beads, abacus_record
from score_lab.bijection import phi_context, phi_inverse
from score_lab.mdcore import _hook_mask

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
    assert place_beads(abacus_spec(21, 4), EXAMPLE_MD_OE) == (
        0, 0, -1, 1, 1, 1, 2, 1, 0, 0, -1, 0, 0,
    )
    assert place_beads(abacus_spec(23, 3), EXAMPLE_MD_OO) == (
        0, 0, -1, 0, 1, 1, 2, 1, 0, -1, -2, -1, -1,
    )
    assert place_beads(abacus_spec(22, 3), EXAMPLE_MD_EO) == (
        0, 0, -1, 0, 0, 1, 2, 1, 0, -1, -2, -1, -1,
    )
    assert place_beads(abacus_spec(21, 4), ()) == (0,) * 13


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


def test_place_beads_refuses_a_hook_no_block_reaches_without_its_mask():
    # A hook at or above period * len(md) tops no block, so the error comes
    # without the hook-set mask, which would take a bit per odd number below it.
    tracemalloc.start()
    try:
        with pytest.raises(BeadStructureError) as raised:
            place_beads(Progression(5, 2, 1), (10**9 + 3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "column 0 has a gap in its positive bead block: [71428572]"
    assert peak < 64 * 1024


def test_place_beads_walks_the_mask_by_rows_in_linear_time():
    # Clearing the top bit of a long int once per hook copies the mask per
    # hook; the row walk shifts it once per row of one period.  Both give
    # the column keys f(j) + j, each column's empty key plus its count.
    def per_hook(prog, mask):
        keys = list(prog.empty_keys)
        while mask:
            h = mask.bit_length() - 1
            mask ^= 1 << h
            j, sign = prog.residue_slots[h % prog.period]
            keys[j] += sign
        return keys

    prog = phi_context(1001, 1, 2)
    mask = _hook_mask(phi_inverse("U" * 250 + "D" * 251, prog))
    assert mask.bit_count() == 62_500
    start = time.perf_counter()
    keys = _place_beads(prog, mask)
    rows = time.perf_counter() - start
    start = time.perf_counter()
    expected = per_hook(prog, mask)
    quadratic = time.perf_counter() - start
    assert keys == expected
    assert rows <= quadratic / 4


def test_summary_matches_worked_examples():
    for s, d, md in ((21, 4, EXAMPLE_MD_OE), (23, 3, EXAMPLE_MD_OO), (22, 3, EXAMPLE_MD_EO)):
        prog = abacus_spec(s, d)
        assert abacus_function(prog, place_beads(prog, md)) == EXAMPLE_F
    prog = abacus_spec(21, 4)
    assert abacus_function(prog, place_beads(prog, ())) == (
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
        beads = place_beads(prog, md)
        assert beads_from_function(prog, abacus_function(prog, beads)) == beads
        assert state_md(prog, beads) == md
    with pytest.raises(InvalidInputError):
        beads_from_function(abacus_spec(3, 2), (0, 0))
    with pytest.raises(InvalidInputError):
        state_md(abacus_spec(3, 2), (1,))


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
    f = abacus_function(prog, place_beads(prog, md))
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
            f = abacus_function(prog, place_beads(prog, md))
            assert validate_core_function(f, prog), (s, d, p, md)


def test_render_marks_beads_only():
    prog = abacus_spec(21, 4)
    empty = render_abacus(prog, place_beads(prog, ()))
    assert "-21" in empty and "29" in empty
    assert "(" not in empty

    marked = render_abacus(prog, place_beads(prog, EXAMPLE_MD_OE))
    assert "(27)" in marked and "(77)" in marked and "(-41)" in marked
    assert "(-21)" not in marked

    prog = abacus_spec(22, 3)
    eo = render_abacus(prog, place_beads(prog, EXAMPLE_MD_EO))
    assert "(-3)" in eo


def test_render_pins_one_picture():
    # Column 0's negative block sets the lowest row, column 2's positive
    # block the highest; the cells run from one character to five.
    prog = abacus_spec(5, 2)
    assert prog.boundary_rows == (1, 1, 0, 0)
    assert render_abacus(prog, (-2, 0, 3, 0)) == "\n".join(
        [
            r"i\j |     0    1     2    3",
            "  3 |    37   41    45   49",
            "  2 |    23   27  (31)   35",
            "  1 |     9   13  (17)   21",
            "  0 |  (-5)   -1   (3)    7",
            " -1 | (-19)  -15   -11   -7",
            " -2 |   -33  -29   -25  -21",
        ]
    )


def test_record_layout():
    prog = abacus_spec(3, 2)
    beads = place_beads(prog, (1,))
    record = abacus_record(prog, beads)
    assert record["s"] == 3 and record["d"] == 2 and record["a"] == -3
    assert record["columns"][1] == {"j": 1, "r": 0, "b": 1, "f": 0}
    assert tuple(column["f"] for column in record["columns"]) == abacus_function(prog, beads)


@pytest.mark.parametrize("values", [(0.5, 0, 0), (1.5, 0, 0), ("x", 0, 0), (0, 0, 1.0)])
def test_abacus_api_refuses_non_integer_column_values(values):
    prog = Progression(3, 2, 1)
    for use in (abacus_function, beads_from_function, state_md, render_abacus, abacus_record):
        with pytest.raises(InvalidInputError, match="must be integers"):
            use(prog, values)
    with pytest.raises(InvalidInputError, match="must be integers"):
        validate_core_function(values, Progression(3, 2, 2))


def test_abacus_api_reads_an_iterator_once():
    # An iterator or a generator of column values gives the tuple's answer:
    # the check reads it once and hands its tuple on.
    prog = Progression(3, 2, 2)
    beads = place_beads(prog, (1,))
    f = abacus_function(prog, beads)
    cases = [
        (abacus_function, beads),
        (beads_from_function, f),
        (state_md, beads),
        (render_abacus, beads),
        (abacus_record, beads),
        (lambda prog, f: validate_core_function(f, prog), f),
    ]
    for use, values in cases:
        expected = use(prog, values)
        assert use(prog, iter(values)) == expected
        assert use(prog, (v for v in values)) == expected
    assert state_md(prog, iter((0, 0, 0))) == ()


@pytest.mark.parametrize("i,j", [(0.5, 0), ("1", 0), (0, 0.5), (0, None)])
def test_label_refuses_a_non_integer_position(i, j):
    with pytest.raises(InvalidInputError):
        label(Progression(3, 2, 1), i, j)


@pytest.mark.parametrize("beads", [(1,), (0, 1), (0, 1, 0, 0)])
def test_record_and_render_refuse_a_bead_tuple_of_the_wrong_length(beads):
    # (3, 2) has 3 columns; a shorter or longer tuple must not be zipped short.
    prog = Progression(3, 2, 1)
    for show in (abacus_function, abacus_record, render_abacus):
        with pytest.raises(InvalidInputError, match=f"expected 3 values .* got {len(beads)}"):
            show(prog, beads)
