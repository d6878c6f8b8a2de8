import dataclasses
import gc
import json
import sys
import tracemalloc
from math import comb

import pytest

from score_lab import bijection, cli
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

    def counting_phi(*args):
        calls.append(args)
        return real_phi(*args)

    monkeypatch.setattr(bijection, "_phi", counting_phi)
    code, out, _ = run(
        capsys, "map", "--md", "3,1", "--s", "5", "--d", "1", "--p", "2", "--format", fmt
    )
    assert code == 0 and "DFF" in out
    assert len(calls) == 1


def test_corners_runs_no_phi(capsys, monkeypatch):
    # The histogram needs only each core's corner count, read off its partition.
    calls = []
    real_phi = bijection._phi

    def counting_phi(*args):
        calls.append(args)
        return real_phi(*args)

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
    failed = dataclasses.replace(passed, roundtrip="fail", passed=False)
    monkeypatch.setattr(cli.oracle, "verify_instance", lambda *args, **kwargs: failed)
    code, out, _ = run(capsys, "verify", "--s", "5", "--d", "1", "--p", "2")
    assert code == 1 and "roundtrip=fail" in out and "FAIL" in out


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
    code1, out1, _ = run(capsys, "verify", "--s", "1..5", "--d", "1..2", "--p", "2..3")
    code2, out2, _ = run(
        capsys, "verify", "--s", "1..5", "--d", "1..2", "--p", "2..3", "--jobs", "2"
    )
    assert (code1, out1) == (code2, out2)


def test_verify_jobs_are_capped_by_the_grid_size(capsys, monkeypatch):
    # A pool starts every worker on its first task, so --jobs 100000 over a
    # small grid must not ask for 100000 processes.  The stand-in pool
    # records its size and maps in this process.
    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialExecutor)
    serial = run(capsys, "verify", "--s", "1..3", "--d", "1", "--p", "2")
    assert run(capsys, "verify", "--s", "1..3", "--d", "1", "--p", "2", "--jobs", "100000") == serial
    assert sizes == [3]
    # One instance, or none at all, runs inline with no pool.
    code, out, _ = run(capsys, "verify", "--s", "3", "--d", "2", "--p", "2", "--jobs", "100000")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--s", "2", "--d", "2", "--p", "2", "--jobs", "4")
    assert code == 0 and "verified 0 instances: 0 pass, 0 fail, 1 skipped" in out
    assert sizes == [3]


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
