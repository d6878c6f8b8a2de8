"""Workloads of the score-lab benchmark: instance lists, ops and output checks.

Three single-process workloads, each loading a different layer most:

* ``verify-large``: six heavy ``score-lab verify`` calls (31,470 cores);
  per-core work in the bijection layer dominates.
* ``verify-grid``: 155 tiny ``score-lab verify --n-max`` calls; the
  partition scan and per-instance fixed cost dominate.
* ``count-large``: exact big-integer counts far past enumeration; the
  counting DP and the closed forms dominate.

Seed 0 runs the named instance lists.  Any other seed replaces each
slot by an alternate drawn from that slot's checked-in pool in
``pool.json`` (same p, same parity case of (s, d), s in the same range,
similar cost), so a change can be checked on inputs it was not tuned on.
The program only ever receives the generated (s, d, p) triples.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED``) it imports
the package, builds the op list and prints the chosen triples; the
benchmark times that from a fresh interpreter as its set-up time.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
POOL_FILE = BENCH_DIR / "pool.json"

WORKLOADS = ("verify-large", "verify-grid", "count-large")

NAMED = {
    "verify-large": [(21, 4, 4), (19, 4, 5), (18, 1, 2), (16, 3, 3), (14, 5, 2), (17, 1, 3)],
    "verify-grid": [
        (s, d, p)
        for s in range(1, 12)
        for d in range(1, 5)
        if gcd(s, d) == 1
        for p in range(2, 7)
    ],
    "count-large": [
        (1001, 1, 2), (1000, 1, 4), (801, 1, 6), (1001, 2, 3), (1000, 3, 2), (1000, 3, 3)
    ],
}


class ProgramMissing(Exception):
    """The checkout holds no ``src/score_lab`` to benchmark."""


def load_program():
    """Import ``score_lab`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "score_lab" / "__init__.py").is_file():
        raise ProgramMissing(f"no score_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import score_lab
    from score_lab import cli, formulas, oracle

    if Path(score_lab.__file__).resolve().parent != SRC / "score_lab":
        raise ProgramMissing(f"imported score_lab from {score_lab.__file__}, not {SRC}")
    return cli, formulas, oracle


def select(workload: str, seed: int) -> list[tuple[int, int, int, int]]:
    """The (s, d, p, expected count) list that ``seed`` picks for ``workload``."""
    slots = json.loads(POOL_FILE.read_text())[workload]
    if [tuple(slot["choices"][0][:3]) for slot in slots] != NAMED[workload]:
        raise ValueError(f"pool.json does not start from the named {workload} list")
    rng = random.Random(f"{workload}/{seed}")
    chosen = []
    for slot in slots:
        s, d, p, count = slot["choices"][0] if seed == 0 else rng.choice(slot["choices"])
        chosen.append((s, d, p, int(count)))
    return chosen


@dataclass(frozen=True)
class Op:
    """One timed call: ``run`` does the work, ``check`` vets its result.

    ``check`` returns None when the output is right and otherwise a
    one-line description of what is wrong.
    """

    instance: tuple[int, int, int]
    run: Callable[[], object]
    check: Callable[[object], str | None]


def verify_op(cli, oracle, s, d, p, expected, scan, out_path) -> Op:
    argv = ["verify", "--s", str(s), "--d", str(d), "--p", str(p),
            "--format", "json", "--output", str(out_path)]
    if scan:
        # The smallest n_max that makes the scan complete for this pair.
        argv += ["--n-max", str(oracle.pair_core_size_bound(s, s + d))]

    def run():
        return cli.main(argv)

    def check(code) -> str | None:
        if not out_path.is_file():
            return f"exit {code} and no output file"
        lines = out_path.read_text(encoding="utf-8").splitlines()
        out_path.unlink()
        if code != 0:
            return f"exit code {code}"
        if len(lines) != 2:
            return f"expected a report and a summary line, got {len(lines)} lines"
        report, summary = json.loads(lines[0]), json.loads(lines[1])
        if (report["s"], report["d"], report["p"]) != (s, d, p):
            return f"report is for {(report['s'], report['d'], report['p'])}"
        if report["pass"] is not True:
            return f"report says pass={report['pass']}: {lines[0]}"
        if report["n_md"] != expected:
            return f"n_md={report['n_md']}, expected {expected}"
        if scan and report.get("n_scan") != expected:
            return f"n_scan={report.get('n_scan')}, expected {expected}"
        if summary != {"instances": 1, "pass": 1, "fail": 0, "skipped": 0}:
            return f"summary {lines[1]}"
        return None

    return Op((s, d, p), run, check)


def count_op(formulas, s, d, p, expected) -> Op:
    def run():
        values = [("dp", formulas.count_via_paths(s, d, p).value)]
        if p == 2:
            values.append(("formula-p2", formulas.count_sc_p2(s, d).value))
        if p == 3:
            values.append(("formula-p3", formulas.count_sc_p3(s, d).value))
        if d == 1:
            values.append(("formula-d1", formulas.count_sc_d1(s, p).value))
        return values

    def check(values) -> str | None:
        # Ints are compared, never formatted: str() of a count past
        # 4,300 digits raises (see README, known defect).
        wrong = [method for method, value in values if value != expected]
        return f"{', '.join(wrong)} disagree with the checked-in count" if wrong else None

    return Op((s, d, p), run, check)


def build_ops(workload: str, seed: int, program) -> list[Op]:
    """The ops of one pass over ``workload`` at ``seed``, in a fixed order."""
    cli, formulas, oracle = program
    instances = select(workload, seed)
    if workload == "count-large":
        return [count_op(formulas, s, d, p, n) for s, d, p, n in instances]
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"verify-{workload}.jsonl"
    scan = workload == "verify-grid"
    return [verify_op(cli, oracle, s, d, p, n, scan, out_path) for s, d, p, n in instances]


if __name__ == "__main__":
    name, seed_text = sys.argv[1], sys.argv[2]
    ops = build_ops(name, int(seed_text), load_program())
    print(json.dumps([op.instance for op in ops]))
