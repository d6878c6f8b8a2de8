"""score-lab benchmark: run a workload, check every output, print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With no ``--workload`` and no ``--trace`` it runs every workload, each
in its own process, with tracing off and then on, so one command prints
every end-to-end and every per-layer metric.

One client in a closed loop runs the workload's ops serially in this
process (see workloads.py for the ops and why each workload exists).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit.  The exit code is 1 when any output check failed,
2 when the checkout holds no program to run.

``--trace 0`` runs whole passes over the ops for ``--seconds`` (a pass
starts only if one more as long as the last still fits, and at least
MIN_PASSES run), with SETUP_PER_PASS fresh-interpreter set-ups before
each pass.  Ops and set-ups are timed in reference seconds (see
gauge.py), which take out the host's changing CPU speed.  An op's time
is its mean over the run's passes, and ``op_p50_s`` and ``op_tail_s``
are taken over those means, one per op of a pass.  Their sample count
is the pass's op count whatever the program's speed, so the tail rank
stays on the same op.

``--trace 1`` runs one untraced pass
and then two traced passes, reports the per-layer metrics of the first,
checks that every call and item count repeats exactly in the second,
and reports the tracing overhead: traced wall minus untraced wall.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracer
import workloads
from gauge import REF_LOOP_S, Gauge

MIN_PASSES = 3
DEFAULT_SECONDS = 40
SETUP_PER_PASS = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Layer metric -> unit.  Each is ``<module>.<function>.<stat>``; README.md
# maps them to the end-to-end metric and workload they should move.
PER_LAYER = {
    "bijection.phi.self_s": "s",
    "bijection.phi_inverse.self_s": "s",
    "bijection.phi.calls": "count",
    "abacus.place_beads.self_s": "s",
    "abacus.abacus_function.self_s": "s",
    "abacus.beads_from_function.self_s": "s",
    "abacus.state_md.self_s": "s",
    "abacus.boundary_row.calls": "count",
    "mdcore.validate_md.calls": "count",
    "mdcore.md_is_core.calls": "count",
    "mdcore.md_is_simultaneous_core.self_s": "s",
    "mdcore.md_to_partition.self_s": "s",
    "mdcore.corners.calls": "count",
    "oracle.enumerate_md_sets.self_s": "s",
    "oracle.enumerate_md_sets.items": "count",
    "motzkin.enumerate_paths.self_s": "s",
    "motzkin.enumerate_paths.items": "count",
    "motzkin.enumerate_paths.accept_ratio": "ratio",
    "motzkin.satisfies.calls": "count",
    "oracle.enumerate_by_partition_scan.self_s": "s",
    "oracle.enumerate_by_partition_scan.items": "count",
    "oracle.verify_instance.self_s": "s",
    "cli.main.self_s": "s",
    "bijection.phi_context.calls": "count",
    "motzkin.constraints_for.calls": "count",
    "abacus.abacus_spec.calls": "count",
    "motzkin.count_paths_dp.self_s": "s",
    "motzkin.count_paths_dp.calls": "count",
    "formulas.count_sc_d1.self_s": "s",
    "formulas.count_sc_p2.self_s": "s",
    "formulas.count_sc_p3.self_s": "s",
    "formulas.count_via_paths.self_s": "s",
    "formulas.binom.calls": "count",
    "trace.overhead_s": "s",
}

# The layer each workload is meant to load most, as inclusive time.
DOMINANT = {
    "verify-large": ("bijection.phi", "bijection.phi_inverse"),
    "verify-grid": ("oracle.enumerate_by_partition_scan",),
    "count-large": ("motzkin.count_paths_dp",),
}


def run_pass(ops, failures: list[str], trace: tracer.Tracer | None = None,
             gauge: Gauge | None = None) -> list[float]:
    """Run every op once, checking each output; return the op times.

    The times are wall seconds, or with a ``gauge`` reference seconds.
    """
    spans = []
    with gauge or contextlib.nullcontext():
        for i, op in enumerate(ops):
            if trace is not None:
                trace.op_id = i
            problem = None
            spent, t0 = gauge.spent if gauge else 0.0, perf_counter()
            try:
                result = op.run()
            except SystemExit as exc:  # argparse exits on a usage error
                result = exc.code
            except Exception:  # an op that raises is a failed op; the run goes on
                problem = f"raised\n{traceback.format_exc()}"
            spans.append((t0, perf_counter(), (gauge.spent if gauge else 0.0) - spent))
            problem = problem or op.check(result)
            if problem:
                failures.append(f"{op.instance}: {problem}")
    if gauge:
        return [gauge.reference_s(*span) for span in spans]
    return [end - start for start, end, _ in spans]


def setup_pass(workload: str, seed: int, gauge: Gauge) -> list[float]:
    """Reference times of fresh interpreters importing score_lab and building the ops."""
    command = [sys.executable, str(workloads.BENCH_DIR / "workloads.py"), workload, str(seed)]
    spans = []
    with gauge:
        for _ in range(SETUP_PER_PASS):
            spent, t0 = gauge.spent, perf_counter()
            subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
            spans.append((t0, perf_counter(), gauge.spent - spent))
    return [gauge.reference_s(*span) for span in spans]


def tail(times: list[float]) -> tuple[float, int]:
    """Time at the highest rank with TAIL_BEYOND samples above it, and how many are.

    With TAIL_BEYOND samples or fewer, no rank has that many above it,
    and the slowest sample stands for the tail.
    """
    ordered = sorted(times)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return ordered[-1 - beyond], beyond


def end_to_end(args, ops, failures) -> tuple[dict, list[str], int]:
    gauge = Gauge()
    setup_pass(args.workload, args.seed, gauge)  # untimed: fills the bytecode cache
    setups, passes, slowdowns = [], [], []
    start, pass_s = perf_counter(), 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + pass_s <= args.seconds:
        t0 = perf_counter()
        setups += setup_pass(args.workload, args.seed, gauge)
        passes.append(run_pass(ops, failures, gauge=gauge))
        pass_s = perf_counter() - t0
        slowdowns.append(statistics.fmean(gauge.loop_s) / REF_LOOP_S)
    per_op = [statistics.fmean(times) for times in zip(*passes)]
    tail_s, beyond = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters spread over the run, "
                   f"in reference s",
        "ops_per_s": f"{len(ops) * len(passes)} ops in {len(passes)} passes, "
                     f"{sum(map(sum, passes)):.2f} reference s inside ops; the gauge loop "
                     f"took {statistics.median(slowdowns):.3f}x its reference time",
        "op_p50_s": f"median of the {len(per_op)} ops' mean times",
        "op_tail_s": f"p{100 * (len(per_op) - beyond) / len(per_op):.1f} of the {len(per_op)} "
                     f"ops' mean times, {beyond} beyond it",
        "peak_rss_mb": "peak resident set of this process",
    }
    lines = [f"{name} {value:.6g} {END_TO_END[name]} ({notes[name]})"
             for name, value in metrics.items()]
    return metrics, lines, len(ops) * len(passes)


def per_layer(args, ops, failures) -> tuple[dict, list[str], int]:
    untraced = sum(run_pass(ops, failures))
    trace = tracer.Tracer(tracer.public_functions())
    out_dir = workloads.OUT_DIR / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    walls, stats = [], []
    for k in (1, 2):
        with trace.installed():
            walls.append(sum(run_pass(ops, failures, trace)))
        stats.append(trace.stats())
        # Words enumerate_paths generated: each goes through one satisfies call.
        stats[-1]["motzkin.enumerate_paths.generated"] = trace.calls(
            "motzkin.satisfies", under="motzkin.enumerate_paths")
        trace.write(out_dir / f"{args.workload}-pass{k}.spans",
                    {"workload": args.workload, "seed": args.seed, "pass": k})
        trace.reset()
    first, second = stats
    moved = [f"{key} {first[key]} then {second[key]}" for key in first
             if not key.endswith("_s") and first[key] != second[key]]
    if moved:
        failures.append("counters did not repeat: " + ", ".join(moved))
    generated = first["motzkin.enumerate_paths.generated"]
    first["motzkin.enumerate_paths.accept_ratio"] = (
        first["motzkin.enumerate_paths.items"] / generated if generated else 0.0)
    first["trace.overhead_s"] = walls[0] - untraced
    metrics = {name: first[name] for name in PER_LAYER}
    lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"traced pass {walls[0]:.3f} s vs untraced {untraced:.3f} s "
                 f"(overhead {walls[0] / untraced - 1:+.1%})")
    dominant = sum(first[f"{name}.incl_s"] for name in DOMINANT[args.workload])
    lines.append(f"dominant layer {'+'.join(DOMINANT[args.workload])}: "
                 f"{dominant / walls[0]:.1%} of traced op time (inclusive)")
    ranked = sorted((k for k in first if k.endswith(".self_s")), key=first.get, reverse=True)
    lines.append("largest self times: " + ", ".join(
        f"{k[:-7]} {first[k] / walls[0]:.1%}" for k in ranked[:5]))
    return metrics, lines, 3 * len(ops)


def run_one(args) -> int:
    try:
        program = workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed, program)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass: "
          + " ".join("/".join(map(str, op.instance)) for op in ops))
    failures: list[str] = []
    measure = per_layer if args.trace == 1 else end_to_end
    metrics, lines, attempted = measure(args, ops, failures)
    units = PER_LAYER if args.trace == 1 else END_TO_END
    failed = len(failures)
    for line in lines:
        print(line)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in workloads.WORKLOADS:
        for trace in traces:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            *lines, last = done.stdout.splitlines() or [""]
            for line in lines:
                print(f"[{name} trace {trace}] {line}")
            worst = max(worst, done.returncode)
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"[{name} trace {trace}] no result line (exit {done.returncode})",
                      file=sys.stderr)
                worst = max(worst, 2)
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    if worst > 1:
        return worst
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the end-to-end passes run (the traced run's work is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
