import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from score_lab import (
    InternalConsistencyError,
    InvalidInputError,
    bijection,
    cli,
    default_md_bound,
    oracle,
)
from score_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_all_agrees(capsys):
    code, out, _ = run(capsys, "count", "--s", "3", "--d", "2", "--p", "2")
    assert code == 0
    assert "formula-p2: 2" in out
    assert out.strip().endswith("AGREE")


def test_count_formula_only(capsys):
    code, out, _ = run(
        capsys, "count", "--s", "5", "--d", "1", "--p", "2", "--method", "formula"
    )
    assert code == 0
    assert "formula-p2: 5" in out and "formula-d1: 5" in out


def test_count_pair_mode(capsys):
    code, out, _ = run(capsys, "count", "--s", "2", "--t", "3")
    assert code == 0
    assert "formula-pair: 2" in out and "enumeration: 2" in out


def test_count_all_enumerates_only_up_to_its_limit(capsys, monkeypatch):
    # Past the limit, all keeps its stdout shape without the enumeration line
    # and names the count it skipped on stderr; enumerate runs past it.
    monkeypatch.setattr(cli, "_ALL_ENUMERATION_LIMIT", 5)
    assert run(capsys, "count", "--s", "5", "--d", "1") == (
        0, "formula-p2: 5\nformula-d1: 5\ndp: 5\nenumeration: 5\nAGREE\n", ""
    )
    note = (
        "note: not enumerating {} cores, past the limit 5 of --method all; "
        "use --method enumerate\n"
    )
    assert run(capsys, "count", "--s", "9", "--d", "2", "--p", "3") == (
        0, "formula-p3: 32\ndp: 32\nAGREE\n", note.format(32)
    )
    assert run(capsys, "count", "--s", "5", "--t", "7", "--format", "json") == (
        0, '{"value":"10","method":"formula-pair"}\n{"agree":true}\n', note.format(10)
    )
    assert run(capsys, "count", "--s", "5", "--t", "7", "--method", "enumerate")[:2] == (
        0, "enumeration: 10\n"
    )


def test_explicit_enumerations_past_the_limit_run_with_one_note(capsys, monkeypatch):
    # enumerate, corners and count --method enumerate still run as asked; past
    # the limit of all they name the DP count (the pair formula's for p = 1)
    # on stderr, and stdout keeps its bytes.  enumerate --n-max lists every
    # core only from the largest core size up (400 for (9, 11)), and names
    # the count only then.
    argvs = [
        ("count", "--s", "9", "--d", "2", "--p", "3", "--method", "enumerate"),
        ("count", "--s", "5", "--t", "7", "--method", "enumerate", "--format", "json"),
        ("count", "--s", "5", "--d", "2", "--p", "1", "--method", "enumerate"),
        ("enumerate", "--s", "9", "--d", "2", "--p", "3"),
        ("enumerate", "--s", "5", "--d", "2", "--p", "1", "--format", "csv"),
        ("enumerate", "--s", "5", "--d", "1", "--n-max", "3"),
        ("enumerate", "--s", "9", "--d", "2", "--p", "3", "--n-max", "10"),
        ("enumerate", "--s", "9", "--d", "2", "--p", "3", "--n-max", "400"),
        ("corners", "--s", "7", "--p", "2"),
    ]
    under = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and err == "" for code, out, err in under)
    bad_cap = ("enumerate", "--s", "9", "--d", "2", "--p", "3", "--n-max", "-1")
    refused = (3, "", "error: n_max must be a nonnegative integer, got -1\n")
    assert run(capsys, *bad_cap) == refused
    monkeypatch.setattr(cli, "_ALL_ENUMERATION_LIMIT", 5)
    note = (
        "note: enumerating {} cores, past the limit 5 of --method all; "
        "this may take a long time\n"
    )
    # None: a short --n-max, which lists only the cores up to that size.
    counts = [32, 10, 10, 32, 10, None, None, 32, 13]
    assert [run(capsys, *argv) for argv in argvs] == [
        (code, out, note.format(count) if count else "")
        for (code, out, _), count in zip(under, counts)
    ]
    assert run(capsys, *bad_cap) == refused  # refused before any note


def test_enumerate_n_max_writes_each_core_as_the_scan_yields_it(monkeypatch):
    # The scan streams its cores in order, so the first line is written
    # before the scan has yielded its last core: the spy logs each core it
    # yields and the fake stdout each line written, so the order shows it.
    events = []

    class Stream:
        def write(self, text):
            events.append("line")

        def flush(self):
            pass

    real = oracle._iter_partition_scan

    def spy(prog, n_max):
        for core in real(prog, n_max):
            events.append("core")
            yield core

    monkeypatch.setattr(oracle, "_iter_partition_scan", spy)
    monkeypatch.setattr(sys, "stdout", Stream())
    assert main(["enumerate", "--s", "9", "--d", "2", "--p", "3", "--n-max", "500"]) == 0
    assert events.count("core") == events.count("line") == 32
    last_core = max(i for i, event in enumerate(events) if event == "core")
    assert events.index("line") < last_core


def test_bound_helpers_refuse_what_they_cannot_bound(capsys):
    # (2, 4)-cores have no largest size, and (-3, 1) is no pair of moduli.
    for s, t in ((2, 4), (3, 3), (-3, 1), (0, 5)):
        with pytest.raises(InvalidInputError):
            oracle.pair_core_size_bound(s, t)
    for s, d in ((2, 2), (-3, 1), (4, 0)):
        with pytest.raises(InvalidInputError):
            default_md_bound(s, d)
    assert default_md_bound(1, 4) == 1  # s = 1 still clamps to 1
    assert oracle.pair_core_size_bound(1, 5) == 0
    # --bound words a non-coprime (s, d) as every other route does.
    for extra in ((), ("--bound", "1")):
        assert run(capsys, "count", "--s", "4", "--d", "2", *extra) == (
            3, "", "error: s=4 and d=2 must be coprime\n"
        )


def test_count_pair_mode_refuses_progression_flags(capsys):
    # --d and --p describe a progression; with --t they used to be ignored.
    for extra in (("--d", "3"), ("--p", "9"), ("--d", "3", "--p", "9")):
        code, out, err = run(capsys, "count", "--s", "5", "--t", "7", *extra)
        assert (code, out) == (64, "")
        assert err == "error: --d and --p do not apply to a pair; drop them or --t\n"
    code, out, _ = run(capsys, "count", "--s", "5", "--d", "2", "--method", "dp")
    assert (code, out) == (0, "dp: 6\n")  # p defaults to 2 in progression mode


def test_count_rejects_non_coprime(capsys):
    # p = 5, d = 2 has no closed form; (s, d) must still be checked.
    for extra in (("--p", "2"), ("--p", "5", "--method", "formula")):
        code, _, err = run(capsys, "count", "--s", "4", "--d", "2", *extra)
        assert code == 3
        assert err == "error: s=4 and d=2 must be coprime\n"


@pytest.mark.parametrize("method", ["formula", "dp", "enumerate", "all"])
def test_count_words_a_bad_pair_alike_for_every_method(capsys, method):
    # The pair is checked once, before any method runs: enumeration used to
    # name a d the user never gave, and dp to exit 2 for "no path model".
    for s, t, reason in (
        ("3", "3", "s=3 and t=3 must be distinct and coprime"),
        ("6", "4", "s=4 and t=6 must be distinct and coprime"),
        ("0", "3", "s and t must be positive integers, got 0, 3"),
    ):
        code, out, err = run(capsys, "count", "--s", s, "--t", t, "--method", method)
        assert (code, out, err) == (3, "", f"error: {reason}\n")


def test_count_formula_words_a_bad_p_as_every_path_route_does(capsys):
    # p is checked before any closed form is looked up, for d = 1 as for d = 2
    for d, p in (("2", "0"), ("2", "1"), ("1", "1")):
        code, out, err = run(capsys, "count", "--s", "3", "--d", d, "--p", p, "--method", "formula")
        assert (code, out, err) == (3, "", f"error: progression length p must be >= 2, got {p}\n")


def test_count_no_formula_available(capsys):
    code, _, err = run(
        capsys, "count", "--s", "7", "--d", "3", "--p", "5", "--method", "formula"
    )
    assert code == 2
    assert "no closed formula" in err


def test_count_rejects_a_bound_that_truncates_the_enumeration(capsys):
    code, out, err = run(
        capsys, "count", "--s", "7", "--d", "2", "--p", "2",
        "--method", "enumerate", "--bound", "3",
    )
    assert (code, out) == (64, "")
    assert "completeness bound 47 of (7, 9)-cores" in err
    # pair mode: (2, 5)-cores have no hook above 2*5 - 2 - 5 = 3
    code, _, err = run(
        capsys, "count", "--s", "5", "--t", "2", "--method", "enumerate", "--bound", "2"
    )
    assert code == 64 and "completeness bound 3 of (2, 5)-cores" in err
    code, out, _ = run(
        capsys, "count", "--s", "7", "--d", "2", "--p", "2",
        "--method", "enumerate", "--bound", "47",
    )
    assert (code, out) == (0, "enumeration: 16\n")


def test_enumerate_rejects_a_bound_that_truncates_the_enumeration(capsys):
    code, out, err = run(capsys, "enumerate", "--s", "7", "--d", "2", "--bound", "3")
    assert (code, out) == (64, "")
    assert "completeness bound 47 of (7, 9)-cores" in err
    code, out, _ = run(capsys, "enumerate", "--s", "7", "--d", "2", "--bound", "47")
    assert code == 0 and len(out.splitlines()) == 16


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_a_bound_far_past_the_completeness_bound_gives_the_default_output(capsys, command):
    # The search once recursed per candidate and died past about 2,000.
    argv = (command, "--s", "3", "--d", "2", "--p", "2")
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--bound", "5000") == default
    assert run(capsys, *argv, "--bound", str(10**12)) == default


def _decimal_digits(n):
    """str(n) with the interpreter's digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_prints_counts_past_the_int_to_str_digit_limit(capsys):
    digits = _decimal_digits(comb(14401, 7200))
    assert len(digits) > 4300
    expected = {
        "text": f"formula-pair: {digits}\n",
        "json": f'{{"value":"{digits}","method":"formula-pair"}}\n',
        "csv": f"method,value\nformula-pair,{digits}\n",
    }
    for fmt, out in expected.items():
        assert run(
            capsys, "count", "--s", "14401", "--t", "14403",
            "--method", "formula", "--format", fmt,
        ) == (0, out, "")


def test_map_and_unmap_worked_examples(capsys):
    code, out, _ = run(
        capsys, "map", "--md", "77,41,35,27,19,11,5,3", "--s", "21", "--d", "4", "--p", "4"
    )
    assert code == 0 and out.strip() == "FDUFFUDDDDUF"

    code, out, _ = run(
        capsys, "unmap", "--path", "FDUFFUDDDDUFF", "--s", "22", "--d", "3", "--p", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "65,61,21,17,15,13,11,9,5,3"


def test_unmap_runs_no_second_phi(capsys, monkeypatch):
    # phi_inverse has checked the path and its core, so the mapping record
    # (with the corner count at d = 1) is built without re-running phi.
    import score_lab.bijection as bijection_mod

    cases = [("FDUFFUDDDDUFF", "22", "3", "3"), ("UDUFDD", "11", "1", "3")]
    expected = [
        run(capsys, "unmap", "--path", path, "--s", s, "--d", d, "--p", p, "--format", "json")
        for path, s, d, p in cases
    ]
    assert all(code == 0 for code, _, _ in expected)
    assert '"corners"' in expected[1][1]

    def refused(mask, prog):
        raise AssertionError("unmap re-ran _phi")

    monkeypatch.setattr(bijection_mod, "_phi", refused)
    for (path, s, d, p), out in zip(cases, expected):
        argv = ("unmap", "--path", path, "--s", s, "--d", d, "--p", p, "--format", "json")
        assert run(capsys, *argv) == out


def test_map_rejects_non_core(capsys):
    code, _, err = run(capsys, "map", "--md", "3", "--s", "3", "--d", "2", "--p", "2")
    assert code == 3 and "not a self-conjugate" in err


def test_map_csv_row(capsys):
    code, out, _ = run(
        capsys, "map", "--md", "-", "--s", "5", "--d", "1", "--p", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["steps,x,y,flats,last", "FFD,3,-1,2,D"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_map_runs_phi_once_in_every_format(capsys, monkeypatch, fmt):
    calls = []
    real_phi = bijection._phi

    def counting_phi(mask, prog):
        calls.append(mask)
        return real_phi(mask, prog)

    monkeypatch.setattr(bijection, "_phi", counting_phi)
    code, out, _ = run(
        capsys, "map", "--md", "3,1", "--s", "5", "--d", "1", "--p", "2", "--format", fmt
    )
    assert code == 0 and "DFF" in out
    assert calls == [1 << 3 | 1 << 1]  # the hook-set mask of (3, 1)


def test_corners_runs_no_phi(capsys, monkeypatch):
    # The histogram needs only each core's corner count, read off its partition.
    calls = []
    real_phi = bijection._phi

    def counting_phi(mask, prog):
        calls.append(mask)
        return real_phi(mask, prog)

    monkeypatch.setattr(bijection, "_phi", counting_phi)
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, "corners", "--s", "7", "--p", "2", "--format", fmt)
        assert code == 0 and out
    assert calls == []


def test_md_input_is_resorted_with_warning(capsys):
    code, out, err = run(
        capsys, "map", "--md", "1,3,3", "--s", "5", "--d", "1", "--p", "2"
    )
    assert code == 0 and "re-sorted" in err
    assert out.strip() == "DFF"


def test_abacus_render_and_csv(capsys):
    code, out, _ = run(
        capsys, "abacus", "--md", "77,41,35,27,19,11,5,3", "--s", "21", "--d", "4"
    )
    assert code == 0 and "(27)" in out
    code, out, _ = run(
        capsys, "abacus", "--md", "1", "--s", "3", "--d", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "j,r,b,f"
    assert "1,0,1,0" in out.splitlines()


def test_corners_histogram(capsys):
    code, out, _ = run(capsys, "corners", "--s", "5", "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert "m=0 enumerated=1 formula=1" in lines
    assert "m=1 enumerated=2 formula=2" in lines
    assert lines[-1] == "AGREE"


def test_corners_refuses_an_m_outside_its_rows(capsys, monkeypatch):
    # s = 5, p = 2 prints the rows m = 0..2; the top row is accepted.
    code, out, _ = run(capsys, "corners", "--s", "5", "--p", "2", "--m", "2")
    assert (code, out) == (0, "m=2 enumerated=2 formula=2\nAGREE\n")
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "corners", "--s", "5", "--p", "2", "--m", "3", "--format", fmt)
        assert (code, out, err) == (64, "", "error: --m must be in 0..2 for s=5, p=2, got 3\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("a negative --m is refused before enumerating")

    monkeypatch.setattr(cli.oracle, "enumerate_md_sets", forbidden)
    monkeypatch.setattr(cli.oracle, "_iter_md_sets", forbidden)
    code, out, err = run(capsys, "corners", "--s", "5", "--p", "2", "--m", "-1")
    assert (code, out, err) == (64, "", "error: --m must be >= 0, got -1\n")
    # corners needs p >= 2 and words every p below it as the path encoding does
    for p in ("0", "1"):
        code, out, err = run(capsys, "corners", "--s", "5", "--p", p)
        assert (code, out, err) == (3, "", f"error: progression length p must be >= 2, got {p}\n")


def test_enumerate_json_lines(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--s", "3", "--d", "2", "--p", "2", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"parts": [], "md": [], "corners": 0, "size": 0},
        {"parts": [1], "md": [1], "corners": 1, "size": 1},
    ]


def test_enumerate_partition_scan_route(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--s", "3", "--d", "2", "--p", "2", "--n-max", "10"
    )
    assert code == 0
    assert out.splitlines() == ["md=- parts=-", "md=1 parts=1"]


def test_verify_single_instance(capsys):
    code, out, _ = run(capsys, "verify", "--s", "3", "--d", "2", "--p", "2")
    assert code == 0
    assert "s=3 d=2 p=2" in out and "PASS" in out
    assert "verified 1 instances: 1 pass, 0 fail, 0 skipped" in out


def test_verify_skips_non_coprime_with_note(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2..4", "--d", "2", "--p", "2")
    assert code == 0
    assert "s=2 d=2 p=2 skipped (gcd != 1)" in out
    assert "s=4 d=2 p=2 skipped (gcd != 1)" in out
    assert "s=3 d=2 p=2" in out


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--s", "0..0", "--d", "1", "--p", "2")[0] == 64
    assert run(capsys, "verify", "--s", "3", "--d", "1", "--p", "1..2")[0] == 64
    assert run(capsys, "verify", "--s", "x", "--d", "1", "--p", "2")[0] == 64


def test_verify_rejects_a_bound_that_truncates_the_enumeration(capsys):
    # A search cut short would blame the bijection and the corners for it.
    code, out, err = run(capsys, "verify", "--s", "5", "--d", "1", "--p", "2", "--bound", "1")
    assert (code, out) == (64, "")
    assert err == (
        "error: --bound 1 is below the completeness bound 19 of (5, 6)-cores; "
        "the enumeration would miss cores\n"
    )
    # Every instance of a grid is checked before any runs.
    code, out, err = run(capsys, "verify", "--s", "4..5", "--d", "1", "--p", "2", "--bound", "14")
    assert (code, out) == (64, "") and "completeness bound 19 of (5, 6)-cores" in err
    code, out, _ = run(capsys, "verify", "--s", "5", "--d", "1", "--p", "2", "--bound", "19")
    assert code == 0 and "PASS" in out


def test_verify_rejects_an_n_max_below_the_largest_core_size(capsys, monkeypatch):
    # A scan cut short used to fail the instance (exit 1) for missing cores.
    code, out, err = run(capsys, "verify", "--s", "5", "--d", "1", "--p", "2", "--n-max", "1")
    assert (code, out) == (64, "")
    assert err == (
        "error: --n-max 1 is below the largest core size 35 of (5, 6)-cores; "
        "the partition scan would miss cores\n"
    )
    # Every instance of a grid is checked before any runs: (4, 5) needs 15.
    ran = []
    monkeypatch.setattr(cli.oracle, "verify_instance", lambda *args, **kwargs: ran.append(args))
    code, out, err = run(capsys, "verify", "--s", "4..5", "--d", "1", "--p", "2", "--n-max", "34")
    assert (code, out, ran) == (64, "", [])
    assert "largest core size 35 of (5, 6)-cores" in err
    monkeypatch.undo()
    code, out, _ = run(
        capsys, "verify", "--s", "5", "--d", "1", "--p", "2", "--n-max", "35", "--format", "json"
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["n_scan"] == 5
    # enumerate only lists the cores up to the size it is given.
    code, out, _ = run(capsys, "enumerate", "--s", "5", "--d", "1", "--p", "2", "--n-max", "1")
    assert (code, out) == (0, "md=- parts=-\nmd=1 parts=1\n")


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    passed = cli.oracle.verify_instance(5, 1, 2)
    failed = passed._replace(roundtrip="fail", passed=False)
    monkeypatch.setattr(cli.oracle, "verify_instance", lambda *args, **kwargs: failed)
    code, out, _ = run(capsys, "verify", "--s", "5", "--d", "1", "--p", "2")
    assert code == 1 and "roundtrip=fail" in out and "FAIL" in out


def test_verify_reports_an_error_on_one_core_as_that_instances_failure(capsys, monkeypatch):
    # An InternalConsistencyError from the path map on one core fails that
    # instance's round trip (exit 1) and does not abort the grid (exit 3);
    # the core and the message go to stderr, stdout keeps the reports' bytes.
    real = cli.oracle._phi

    def broken(mask, prog):
        if mask == 1 << 1:  # the core (1,)
            raise InternalConsistencyError("column summary jumps by 2 for (1,)")
        return real(mask, prog)

    monkeypatch.setattr(cli.oracle, "_phi", broken)
    code, out, err = run(capsys, "verify", "--s", "5", "--d", "1..2", "--p", "2")
    assert code == 1
    assert err.splitlines() == [
        f"error: s=5 d={d} p=2 core (1,): column summary jumps by 2 for (1,)" for d in (1, 2)
    ]
    assert out.splitlines() == [
        "s=5 d=1 p=2 md=5 paths=5 dp=5 formula=5 roundtrip=fail corners=pass FAIL",
        "s=5 d=2 p=2 md=6 paths=6 dp=6 formula=6 roundtrip=fail corners=n/a FAIL",
        "verified 2 instances: 0 pass, 2 fail, 0 skipped",
    ]


def test_verify_json_lines(capsys):
    code, out, _ = run(
        capsys, "verify", "--s", "3", "--d", "2", "--p", "2", "--format", "json"
    )
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["n_md"] == 2 and first["pass"] is True


def test_verify_with_partition_scan(capsys):
    code, out, _ = run(
        capsys, "verify", "--s", "4", "--d", "1", "--p", "2",
        "--n-max", "15", "--format", "json",
    )
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["n_scan"] == first["n_md"] == 5


def test_verify_parallel_matches_serial(capsys):
    grid = ("verify", "--s", "1..5", "--d", "1..2", "--p", "2..3")
    for fmt in ("text", "json", "csv"):
        serial = run(capsys, *grid, "--format", fmt)
        assert run(capsys, *grid, "--format", fmt, "--jobs", "2") == serial


def test_verify_jobs_are_capped_by_the_grid_size(capsys, monkeypatch):
    # A pool starts every worker on its first task, so --jobs 100000 over a
    # small grid must not ask for 100000 processes.  The stand-in pool
    # records its size and maps in this process; verify imports the pool
    # class when it starts one, so the stand-in replaces it at its source.
    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialExecutor)
    serial = run(capsys, "verify", "--s", "1..3", "--d", "1", "--p", "2")
    assert run(capsys, "verify", "--s", "1..3", "--d", "1", "--p", "2", "--jobs", "100000") == serial
    assert sizes == [3]
    # One instance, or none at all, runs inline with no pool.
    code, out, _ = run(capsys, "verify", "--s", "3", "--d", "2", "--p", "2", "--jobs", "100000")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--s", "2", "--d", "2", "--p", "2", "--jobs", "4")
    assert code == 0 and "verified 0 instances: 0 pass, 0 fail, 1 skipped" in out
    assert sizes == [3]


def test_verify_writes_and_flushes_each_line_before_the_next_instance(monkeypatch):
    # Each report line, and its error line, reaches the reader when its
    # instance is done, not when the grid is: the spy logs each instance
    # it starts and the fake streams each write and flush, so the order
    # shows it without timing.
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            events.append((self.name, text))

        def flush(self):
            events.append(("flush", self.name))

    real = oracle.verify_instance

    def spy(s, d, p, scan=False):
        events.append(("start", s))
        report = real(s, d, p, scan)
        return report._replace(error="the first counterexample") if s == 5 else report

    monkeypatch.setattr(oracle, "verify_instance", spy)
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    assert main(["verify", "--s", "2..5", "--d", "2", "--p", "2"]) == 0
    lines = [
        "s=2 d=2 p=2 skipped (gcd != 1)",
        "s=4 d=2 p=2 skipped (gcd != 1)",
        "s=3 d=2 p=2 md=2 paths=2 dp=2 formula=2 roundtrip=pass corners=n/a PASS",
        "s=5 d=2 p=2 md=6 paths=6 dp=6 formula=6 roundtrip=pass corners=n/a PASS",
        "verified 2 instances: 2 pass, 0 fail, 2 skipped",
    ]
    written = [[("stdout", line + "\n"), ("flush", "stdout")] for line in lines]
    assert events == [
        *written[0], *written[1],
        ("start", 3), *written[2],
        ("start", 5),
        ("stderr", "error: s=5 d=2 p=2 the first counterexample"), ("stderr", "\n"),
        *written[3],
        *written[4],
    ]


def test_importing_the_cli_loads_no_pool_and_no_decimal():
    # The pool's modules are most of a cold start and only verify --jobs
    # uses them; decimal only prints a count.  Both load when first used.
    # The records are named tuples, so dataclasses and inspect never load.
    probe = (
        "import sys; bare = set(sys.modules); import score_lab.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = done.stdout.split()
    assert "score_lab.cli" in added
    assert not [
        name for name in added
        if name.split(".")[0]
        in ("concurrent", "multiprocessing", "decimal", "_decimal", "dataclasses", "inspect")
    ]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "verify", "--s", "3", "--d", "2", "--p", "2", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert "PASS" in target.read_text()


def test_output_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(
        capsys, "map", "--md", "1", "--s", "5", "--d", "1", "--p", "2", "--output", str(target)
    )
    assert (code, out) == (64, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_an_unwritable_output_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    def forbidden(args):
        raise AssertionError("the work ran before --output was checked")

    monkeypatch.setitem(cli._HANDLERS, "verify", forbidden)
    a_file = tmp_path / "file"
    a_file.write_text("kept\n")
    for target in (tmp_path / "missing" / "x", a_file / "x", tmp_path):
        with pytest.raises(OSError) as opened:
            open(target, "w")
        code, out, err = run(
            capsys, "verify", "--s", "3", "--d", "2", "--p", "2", "--output", str(target)
        )
        assert (code, out) == (64, "")
        assert err == f"error: cannot write {target}: {opened.value.strerror}\n"
    assert sorted(tmp_path.iterdir()) == [a_file]
    assert a_file.read_text() == "kept\n"


def test_a_full_device_is_found_when_the_output_is_written(capsys, monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    full = (64, "", "error: cannot write /dev/full: No space left on device\n")
    assert run(
        capsys, "map", "--md", "1", "--s", "5", "--d", "1", "--p", "2", "--output", "/dev/full"
    ) == full
    # Each verify line is flushed to the file as it is written, so the
    # full device stops the run after the first instance, not the tenth.
    started = []
    real = oracle.verify_instance

    def spy(s, d, p, scan=False):
        started.append(s)
        return real(s, d, p, scan)

    monkeypatch.setattr(oracle, "verify_instance", spy)
    assert run(
        capsys, "verify", "--s", "3..12", "--d", "1", "--p", "2", "--output", "/dev/full"
    ) == full
    assert started == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ("map", "--md", "1", "--s", "5", "--d", "1", "--p", "2"),
        ("verify", "--s", "3..5", "--d", "1", "--p", "2"),
    ],
)
def test_a_write_error_on_stdout_is_a_usage_error_without_a_traceback(argv):
    # The same rule as for --output: one error line naming stdout, exit 64,
    # and nothing more from the flush at interpreter exit.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "score_lab.cli", *argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert (done.returncode, done.stderr) == (
        64, "error: cannot write stdout: No space left on device\n"
    )


def test_the_output_file_holds_each_verify_line_before_the_next_instance(tmp_path, monkeypatch):
    # The file is as live as stdout: when an instance starts, the spy finds
    # every report line before it already in the file.
    target = tmp_path / "report.txt"
    seen = []
    real = oracle.verify_instance

    def spy(s, d, p, scan=False):
        seen.append(target.read_text())
        return real(s, d, p, scan)

    monkeypatch.setattr(oracle, "verify_instance", spy)
    assert main(["verify", "--s", "3..5", "--d", "1", "--p", "2", "--output", str(target)]) == 0
    lines = target.read_text().splitlines(keepends=True)
    assert [line.split()[0] for line in lines[:3]] == ["s=3", "s=4", "s=5"]
    assert seen == ["", lines[0], lines[0] + lines[1]]


def test_outputs_are_stable_across_runs(capsys):
    args = ("verify", "--s", "1..6", "--d", "1..3", "--p", "2..3", "--format", "csv")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_usage_error_exit_code_for_unknown_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


def test_main_builds_its_parser_once_and_leaves_no_garbage(capsys, monkeypatch):
    built = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "count", "--s", "5", "--d", "2", "--p", "2")[0] == 0
        assert run(capsys, "verify", "--s", "5", "--d", "2", "--p", "2")[0] == 0
        assert len(built) == 1
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, "verify", "--s", "7", "--d", "2", "--p", "3")[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("abacus", "--s", "5", "--d", "1", "--md", "1000001"),
         "error: column 0 has a gap in its negative bead block: [-83333]\n"),
        (("abacus", "--s", "5", "--d", "1", "--md", "1000003,1"),
         "error: column 0 has a gap in its positive bead block: [83334]\n"),
        (("map", "--s", "5", "--d", "1", "--p", "2", "--md", "1000001"),
         "error: (1000001,) is not a self-conjugate (5, 6, 7)-core hook set\n"),
        (("map", "--s", "5", "--d", "1", "--p", "2", "--md", "1000000001"),
         "error: (1000000001,) is not a self-conjugate (5, 6, 7)-core hook set\n"),
    ],
)
def test_a_huge_hook_is_refused_in_memory_proportional_to_the_hook_count(capsys, argv, message):
    # A hook set is held as one int with a bit per hook; a hook far past
    # every core must not cost a bit per odd number below it, let alone a
    # table of them per column.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", message)
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "command,flags", [("enumerate", ("--format", "json")), ("count", ("--method", "enumerate"))]
)
def test_enumerate_and_count_memory_is_flat_in_the_core_count(tmp_path, command, flags):
    # The cores stream from the search to the writer, or into the count, and
    # none is kept: the 5,200 cores of (24, 1, 8) peak about as high as the
    # 156 of (7, 12, 2), where lists of them put enumerate's peak over 30
    # times as high and count's 4 times.  The two searches keep about as
    # many candidates (24 and 22), whose masks are the search's own set-up.
    target = tmp_path / "out"

    def peak(s, d, p):
        argv = [command, "--s", str(s), "--d", str(d), "--p", str(p), *flags]
        tracemalloc.start()
        try:
            assert main([*argv, "--output", str(target)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3, 2, 2)  # the parser is built once per process, before either peak
    assert peak(24, 1, 8) < 3 * peak(7, 12, 2)


def _run_capped(*argv):
    """The CLI in a child process whose address space is capped at 1 GB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "score_lab.cli", *argv],
        preexec_fn=cap, env=env, capture_output=True, text=True, timeout=60,
    )


def test_a_reader_closing_stdout_early_ends_the_run_quietly_with_141():
    # `enumerate ... | head -1`: the reader takes one line of 1.8 MB and
    # closes the pipe, so the next write finds no reader.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["enumerate", "--s", "21", "--d", "1", "--p", "2"]
    with subprocess.Popen(
        [sys.executable, "-m", "score_lab.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        assert child.stdout.readline() == "md=- parts=-\n"
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
    assert (child.returncode, stderr) == (141, "")


def test_unmap_and_count_at_s_1001_fit_under_a_memory_cap():
    # The read-back builds only the blocks a path reads, and count --method
    # all does not start an enumeration of 10^300 cores.
    done = _run_capped("unmap", "--s", "1001", "--d", "1", "--p", "2", "--path", "D" + "F" * 500)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == ",".join(map(str, range(999, 0, -2)))
    done = _run_capped("count", "--s", "1001", "--d", "1", "--p", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["formula-p2", "formula-d1", "dp", "AGREE"]
    assert "use --method enumerate" in done.stderr
