"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated tolerance (all exact)
and prints a one-line verdict, so ``pytest -v -s tests/test_acceptance.py``
reads as a checklist.  The shared sweep grid is every coprime (s, d)
with s + d <= 16 and d <= 5, crossed with p = 2..5.
"""

import time
from collections import Counter
from math import gcd

from score_lab import (
    Progression,
    abacus_function,
    abacus_spec,
    corner_statistics,
    count_corners_p2,
    count_corners_p3,
    count_sc_d1,
    count_sc_p2,
    count_sc_p3,
    count_sc_pair,
    count_sym_motzkin,
    enumerate_by_partition_scan,
    enumerate_md_sets,
    md_to_partition,
    pair_core_size_bound,
    phi,
    phi_context,
    place_beads,
    verify_instance,
)

from conftest import SWEEP_GRID


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    prog = abacus_spec(21, 4)
    md = (77, 41, 35, 27, 19, 11, 5, 3)
    assert abacus_function(place_beads(prog, md)) == (
        0, 0, -1, 0, 0, 0, 1, 0, -1, -2, -3, -2, -2,
    )
    assert phi(md, phi_context(21, 4, 4)) == "FDUFFUDDDDUF"
    mu = (67, 65, 21, 19, 15, 13, 11, 9, 7, 3, 1)
    nu = (65, 61, 21, 17, 15, 13, 11, 9, 5, 3)
    assert phi(mu, phi_context(23, 3, 3)) == "FDUFFUDDDDUFF"
    assert phi(nu, phi_context(22, 3, 3)) == "FDUFFUDDDDUFF"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (worked examples): PASS ({elapsed:.3f}s)")


def test_criterion_2_bijection_sweep(sweep_reports):
    started = time.perf_counter()
    for (s, d, p), report in sweep_reports.items():
        assert report.n_md == report.n_path == report.n_dp, (s, d, p, report)
        assert report.roundtrip == "pass", (s, d, p)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 2 (bijection sweep): PASS "
        f"({len(sweep_reports)} instances, {elapsed:.2f}s)"
    )


def test_criterion_3_formula_agreement(sweep_reports):
    for (s, d, p), report in sweep_reports.items():
        if p == 2:
            assert count_sc_p2(s, d).value == report.n_md, (s, d, p)
        if p == 3:
            assert count_sc_p3(s, d).value == report.n_md, (s, d, p)
        if d == 1:
            assert count_sc_d1(s, p).value == report.n_md, (s, d, p)
    started = time.perf_counter()
    for s in range(1, 41):
        assert count_sc_p2(s, 1).value == count_sym_motzkin(s).value
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print("ACCEPTANCE 3 (formula agreement): PASS")


def test_criterion_4_pair_baseline():
    started = time.perf_counter()
    checked = 0
    for t in range(2, 13):
        for s in range(1, t):
            if gcd(s, t) != 1:
                continue
            enumerated = len(enumerate_md_sets(Progression(s, t - s, 1)))
            assert enumerated == count_sc_pair(s, t).value, (s, t)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 (pair baseline): PASS ({checked} pairs, {elapsed:.2f}s)")


def test_criterion_5_corner_refinement():
    checked = 0
    for p in (2, 3):
        formula = count_corners_p2 if p == 2 else count_corners_p3
        for s in range(1, 14):
            prog = phi_context(s, 1, p)
            histogram = Counter()
            for md in enumerate_md_sets(prog):
                m, last, flats = corner_statistics(md, prog)
                histogram[m] += 1
                assert last == ("D" if m % 2 == 0 else "F"), (s, p, md)
                assert flats == s // 2 - m + (m % 2), (s, p, md)
                checked += 1
            for m in range(s + 2):
                assert formula(s, m).value == histogram.get(m, 0), (s, p, m)
    print(f"ACCEPTANCE 5 (corner refinement): PASS ({checked} cores)")


def test_criterion_6_unit_shift(sweep_reports):
    checked = 0
    skipped = 0
    for (s, d, p), report in sweep_reports.items():
        if s % 2 or d % 2 == 0 or p % 2:
            continue
        if gcd(s + 1, d) != 1:
            # the shifted progression degenerates (common factor)
            skipped += 1
            continue
        shifted = sweep_reports.get((s + 1, d, p))
        if shifted is None:
            shifted = verify_instance(s + 1, d, p)
        assert report.n_md == shifted.n_md, (s, d, p)
        checked += 1
    print(
        f"ACCEPTANCE 6 (unit shift): PASS ({checked} checked, "
        f"{skipped} degenerate skipped)"
    )


def test_criterion_7_dual_oracle():
    started = time.perf_counter()
    checked = 0
    for (s, d, p) in SWEEP_GRID:
        if s + d > 10:
            continue
        n_max = pair_core_size_bound(s, s + d)
        prog = Progression(s, d, p)
        scanned = enumerate_by_partition_scan(prog, n_max)
        direct = sorted(md_to_partition(md) for md in enumerate_md_sets(prog))
        assert scanned == direct, (s, d, p)
        checked += 1
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 7 (dual oracle): PASS ({checked} instances, {elapsed:.2f}s)")
