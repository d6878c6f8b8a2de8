"""Regenerate ``pool.json``: the alternate instances held-out seeds draw from.

    python3 bench/make_pool.py

For every slot of every named list (see ``workloads.NAMED``) the pool
holds the slot itself first, then each alternate that has

* the same p and the same parity case of (s, d) (s odd and d even,
  both odd, or s even and d odd), so the same constraint shapes apply;
* d = 1 exactly when the slot has d = 1, so the corner check keeps
  running where it ran;
* s in the named list's range (14..21 for verify-large, 1..11 for
  verify-grid, within 6 of the slot's s for count-large);
* a cost close to the slot's: for the verify workloads a measured op
  time (fastest of several runs) within TIME_TOLERANCE of the slot's
  (verify-large also needs a core count within 10%, which spares timing
  hopeless candidates); for count-large
  the cost grows smoothly with s, so s within 6 keeps it within about
  1.5%.

The expected counts are the counting DP's, and every alternate's op is
run once through the benchmark's own check before it is admitted, so
the CLI's cross-checks confirm each checked-in count.  Timing makes the
pool depend on the machine it was made on; the checked-in file is the
reference, and this script documents how it was made.
"""

from __future__ import annotations

import json
import time
from math import gcd

import workloads

TIME_TOLERANCE = {"verify-large": 0.05, "verify-grid": 0.10}


def op_time(op, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = op.run()
        times.append(time.perf_counter() - t0)
        problem = op.check(result)
        if problem:
            raise RuntimeError(f"{op.instance}: {problem}")
    return min(times)


def verify_pool(workload, program, s_range, d_range, reps):
    cli, formulas, oracle = program
    from score_lab.motzkin import constraints_for  # importable once load_program ran

    out_path = workloads.OUT_DIR / "make-pool.jsonl"
    scan = workload == "verify-grid"
    tolerance = TIME_TOLERANCE[workload]
    timed = {}

    def cost(s, d, p):
        if (s, d, p) not in timed:
            count = formulas.count_via_paths(s, d, p).value
            op = workloads.verify_op(cli, oracle, s, d, p, count, scan, out_path)
            timed[s, d, p] = (count, op_time(op, reps))
        return timed[s, d, p]

    slots = []
    for s0, d0, p in workloads.NAMED[workload]:
        count0, time0 = cost(s0, d0, p)
        case0 = constraints_for(s0, d0, p).parity_case
        choices = [[s0, d0, p, str(count0)]]
        for s in s_range:
            for d in d_range:
                if (s, d) == (s0, d0) or gcd(s, d) != 1 or (d == 1) != (d0 == 1):
                    continue
                if constraints_for(s, d, p).parity_case != case0:
                    continue
                count = formulas.count_via_paths(s, d, p).value
                if not scan and abs(count - count0) > 0.10 * count0:
                    continue
                _, t = cost(s, d, p)
                if abs(t - time0) <= tolerance * time0:
                    choices.append([s, d, p, str(count)])
        slots.append({"slot": [s0, d0, p], "choices": choices})
        print(workload, (s0, d0, p), f"{time0:.4f}s", len(choices) - 1, "alternates", flush=True)
    return slots


def count_pool(program):
    _, formulas, _ = program
    slots = []
    for s0, d, p in workloads.NAMED["count-large"]:
        choices = []
        for s in [s0] + [s0 + k for k in range(-6, 7, 2) if k]:
            if gcd(s, d) != 1:
                continue
            count = formulas.count_via_paths(s, d, p).value
            op = workloads.count_op(formulas, s, d, p, count)
            problem = op.check(op.run())
            if problem:
                raise RuntimeError(f"{(s, d, p)}: {problem}")
            choices.append([s, d, p, str(count)])
        slots.append({"slot": [s0, d, p], "choices": choices})
        print("count-large", (s0, d, p), len(choices) - 1, "alternates", flush=True)
    return slots


def main() -> None:
    program = workloads.load_program()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    pool = {
        "verify-large": verify_pool("verify-large", program, range(14, 22), range(1, 12), 3),
        "verify-grid": verify_pool("verify-grid", program, range(1, 12), range(1, 7), 5),
        "count-large": count_pool(program),
    }
    # One slot per line keeps diffs of the file readable.
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(slot) for slot in slots) + "\n]"
        for name, slots in pool.items()
    ]
    workloads.POOL_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
