"""Byte-for-byte CLI outputs: exit code, stdout and stderr per case.

`golden_cli.json` holds the recorded result of every argv in `CASES`:
each subcommand in each output format on small instances, plus the
error exits (2, 3 and 64).  After a deliberate output change,
rewrite it with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
review the diff.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from score_lab.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("text", "json", "csv")


def _all_formats(*argv):
    return [[*argv, "--format", fmt] for fmt in FORMATS]


CASES = [
    # count: formulas, DP and enumeration, (s, d, p) and pair mode
    *_all_formats("count", "--s", "3", "--d", "2", "--p", "2"),
    *_all_formats("count", "--s", "5", "--d", "1", "--p", "2", "--method", "formula"),
    *_all_formats("count", "--s", "7", "--d", "2", "--p", "3", "--method", "dp"),
    *_all_formats("count", "--s", "2", "--t", "3"),
    ["count", "--s", "4", "--d", "1", "--p", "5"],
    ["count", "--s", "7", "--d", "3", "--p", "5"],
    ["count", "--s", "7", "--d", "3", "--p", "5", "--format", "json"],
    ["count", "--s", "5", "--d", "2", "--p", "3", "--method", "enumerate",
     "--bound", "40", "--format", "csv"],
    ["count", "--s", "5", "--t", "3", "--method", "formula"],
    ["count", "--s", "3", "--t", "4", "--method", "enumerate", "--format", "json"],
    ["count", "--s", "2", "--t", "3", "--method", "dp"],
    ["count", "--s", "7", "--d", "3", "--p", "5", "--method", "formula"],
    ["count", "--s", "4", "--d", "2"],
    ["count", "--s", "0", "--d", "1"],
    ["count", "--s", "3", "--d", "2", "--p", "1"],
    ["count", "--s", "3", "--d", "1", "--p", "1", "--method", "formula"],
    ["count", "--s", "3"],
    ["count", "--s", "3", "--d", "2", "--method", "bogus"],
    ["count", "--s", "x", "--d", "2"],
    # enumerate: hook-set search and partition scan
    *_all_formats("enumerate", "--s", "3", "--d", "2", "--p", "2"),
    *_all_formats("enumerate", "--s", "4", "--d", "1", "--p", "2", "--n-max", "15"),
    ["enumerate", "--s", "5", "--d", "1", "--p", "3"],
    ["enumerate", "--s", "5", "--d", "1", "--p", "3", "--format", "csv"],
    ["enumerate", "--s", "3", "--d", "2", "--p", "1"],
    ["enumerate", "--s", "4", "--d", "3", "--p", "2", "--bound", "100", "--format", "json"],
    ["enumerate", "--s", "4", "--d", "2"],
    ["enumerate", "--s", "3", "--d", "2", "--p", "0"],
    ["enumerate", "--s", "3", "--d", "2", "--n-max", "-1"],
    ["enumerate", "--s", "3"],
    # map and unmap
    *_all_formats("map", "--md", "77,41,35,27,19,11,5,3", "--s", "21", "--d", "4", "--p", "4"),
    *_all_formats("map", "--md", "-", "--s", "5", "--d", "1", "--p", "2"),
    ["map", "--md", "1,3,3", "--s", "5", "--d", "1", "--p", "2"],
    ["map", "--md", "3", "--s", "3", "--d", "2"],
    ["map", "--md", "2", "--s", "3", "--d", "2"],
    ["map", "--md", "x", "--s", "3", "--d", "2"],
    ["map", "--md", "1", "--s", "3", "--d", "3"],
    ["map", "--md", "1", "--s", "3", "--d", "2", "--p", "1"],
    ["map", "--md", "1", "--s", "3", "--d", "2", "--format", "xml"],
    *_all_formats("unmap", "--path", "FDUFFUDDDDUFF", "--s", "22", "--d", "3", "--p", "3"),
    *_all_formats("unmap", "--path", "FFD", "--s", "5", "--d", "1", "--p", "2"),
    ["unmap", "--path", "UUU", "--s", "5", "--d", "1"],
    ["unmap", "--path", "XYZ", "--s", "5", "--d", "1"],
    # abacus
    *_all_formats("abacus", "--md", "77,41,35,27,19,11,5,3", "--s", "21", "--d", "4"),
    *_all_formats("abacus", "--md", "-", "--s", "3", "--d", "2"),
    ["abacus", "--md", "5", "--s", "3", "--d", "2"],
    ["abacus", "--md", "17", "--s", "3", "--d", "2"],
    ["abacus", "--md", "1", "--s", "2", "--d", "4"],
    # corners: p = 2 and p = 3 have a formula, p = 4 has none
    *_all_formats("corners", "--s", "5", "--p", "2"),
    *_all_formats("corners", "--s", "6", "--p", "3"),
    *_all_formats("corners", "--s", "5", "--p", "4"),
    ["corners", "--s", "7", "--p", "2", "--m", "2"],
    ["corners", "--s", "0"],
    ["corners", "--s", "5", "--p", "1"],
    # verify: passing, skipped, scanned and failing grids
    *_all_formats("verify", "--s", "3", "--d", "2", "--p", "2"),
    *_all_formats("verify", "--s", "2..4", "--d", "1..2", "--p", "2..3"),
    *_all_formats("verify", "--s", "4", "--d", "1", "--p", "2", "--n-max", "15"),
    *_all_formats("verify", "--s", "5", "--d", "1", "--p", "2", "--bound", "1"),
    ["verify", "--s", "7", "--d", "3", "--p", "5", "--format", "json"],
    ["verify", "--s", "6", "--d", "2", "--p", "2"],
    ["verify", "--s", "0..0", "--d", "1", "--p", "2"],
    ["verify", "--s", "3", "--d", "1", "--p", "1..2"],
    ["verify", "--s", "x", "--d", "1", "--p", "2"],
    ["verify", "--s", "3", "--d", "1", "--p", "2", "--jobs", "0"],
    ["verify", "--s", "3", "--d", "2"],
    # no or unknown subcommand
    [],
    ["frobnicate"],
]


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) or "<none>" for argv in CASES])
def test_cli_output_matches_golden(golden, index):
    assert run_cli(CASES[index]) == golden[index]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) or "<none>" for argv in CASES])
def test_cli_output_file_matches_golden(golden, index, tmp_path):
    # With --output the same bytes go to the file and none to stdout; a
    # refused run writes no file at all.  With no subcommand the file name
    # is read as the command, so stderr names it.
    target = tmp_path / "out"
    result = run_cli([*CASES[index], "--output", str(target)])
    expected = golden[index]
    assert (result["exit"], result["stdout"]) == (expected["exit"], "")
    if CASES[index]:
        assert result["stderr"] == expected["stderr"]
    if expected["exit"] == 0:
        assert target.read_text(encoding="utf-8") == expected["stdout"]
    else:
        assert not target.exists()


def test_golden_covers_every_subcommand_format_and_exit(golden):
    assert [case["argv"] for case in golden] == CASES
    seen = set()
    for case in golden:
        argv = case["argv"]
        if case["exit"] == 0 and argv:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
            seen.add((argv[0], fmt))
    commands = ("count", "enumerate", "map", "unmap", "abacus", "corners", "verify")
    assert seen == {(command, fmt) for command in commands for fmt in FORMATS}
    # No golden case exits 1 (a failed check): verify refuses a --bound or
    # --n-max that would cut its search short, so a correct program fails
    # no check.  test_cli.py forces a failing report to cover exit 1.
    assert {case["exit"] for case in golden} == {0, 2, 3, 64}


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps([run_cli(argv) for argv in CASES], indent=1) + "\n", encoding="utf-8"
    )
