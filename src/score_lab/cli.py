"""Command-line interface.

Subcommands: count, enumerate, map, unmap, abacus, corners, verify.
Every output is deterministic for fixed flags (fixed orderings, no
timestamps); the environment variable SCORE_LAB_SEED is recognized
nowhere because nothing here is randomized.

Exit codes: 0 success, 1 verification failure or count disagreement,
2 requested method unavailable, 3 domain error (bad hook set, bad
path, non-coprime parameters), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from math import gcd

from . import abacus as abacus_mod
from . import bijection, formulas, mdcore, motzkin, oracle
from .errors import ScoreLabError, check_progression_length
from .progression import Progression

USAGE_ERROR = 64
_PARTITION_COLUMNS = ("size", "corners", "md", "parts")


class _UsageError(Exception):
    """Flags that parse but do not make sense together; exits 64."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the conventional usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_md(text: str) -> tuple[int, ...]:
    """Comma-separated hook list; '-' or '' is the empty set.

    Out-of-order or repeated entries are re-sorted and de-duplicated
    with a warning rather than rejected.
    """
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        raw = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ScoreLabError(f"could not parse hook list {text!r}")
    cleaned = sorted(set(raw), reverse=True)
    if cleaned != raw:
        print("warning: hook list re-sorted and de-duplicated", file=sys.stderr)
    return mdcore.validate_md(cleaned)


def _parse_span(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        return int(lo_text), int(hi_text)
    value = int(text)
    return value, value


class _Emitter:
    """Collects output lines and writes them to stdout or a file."""

    def __init__(self, output: str | None):
        self.output = output
        self.lines: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def json(self, obj) -> None:
        self.lines.append(json.dumps(obj, separators=(",", ":")))

    def csv(self, header, rows) -> None:
        """A header line, then one line per row; a dict row is read by the header."""
        self.line(",".join(header))
        for row in rows:
            if isinstance(row, dict):
                row = [row[key] for key in header]
            self.line(",".join(map(_csv_cell, row)))

    def flush(self) -> None:
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.output:
            with open(self.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def _check_bound(bound: int | None, s: int, d: int) -> None:
    """Refuse a hook bound that would cut the enumeration short."""
    complete = oracle.default_md_bound(s, d)
    if bound is not None and bound < complete:
        raise _UsageError(
            f"--bound {bound} is below the completeness bound {complete} "
            f"of ({s}, {s + d})-cores; the enumeration would miss cores"
        )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="score-lab",
        description="Self-conjugate simultaneous core partitions: "
        "count, enumerate, map to lattice paths, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p_count = sub.add_parser("count", help="count self-conjugate simultaneous cores")
    p_count.add_argument("--s", type=int, required=True)
    p_count.add_argument("--d", type=int)
    p_count.add_argument("--p", type=int)  # 2 unless given; not with --t
    p_count.add_argument("--t", type=int, help="pair mode: count (s, t)-cores")
    p_count.add_argument(
        "--method", choices=("formula", "dp", "enumerate", "all"), default="all"
    )
    p_count.add_argument("--bound", type=int, default=None)
    common(p_count)

    p_enum = sub.add_parser("enumerate", help="list every core for (s, d, p)")
    p_enum.add_argument("--s", type=int, required=True)
    p_enum.add_argument("--d", type=int, required=True)
    p_enum.add_argument("--p", type=int, default=2)
    p_enum.add_argument("--bound", type=int, default=None)
    p_enum.add_argument(
        "--n-max", type=int, default=None,
        help="use the partition-scan enumerator with this size cap",
    )
    common(p_enum)

    p_map = sub.add_parser("map", help="map a hook set to its lattice path")
    p_map.add_argument("--md", required=True)
    p_map.add_argument("--s", type=int, required=True)
    p_map.add_argument("--d", type=int, required=True)
    p_map.add_argument("--p", type=int, default=2)
    common(p_map)

    p_unmap = sub.add_parser("unmap", help="map a lattice path back to its hook set")
    p_unmap.add_argument("--path", required=True)
    p_unmap.add_argument("--s", type=int, required=True)
    p_unmap.add_argument("--d", type=int, required=True)
    p_unmap.add_argument("--p", type=int, default=2)
    common(p_unmap)

    p_abacus = sub.add_parser("abacus", help="render the abacus of a hook set")
    p_abacus.add_argument("--md", required=True)
    p_abacus.add_argument("--s", type=int, required=True)
    p_abacus.add_argument("--d", type=int, required=True)
    common(p_abacus)

    p_corners = sub.add_parser(
        "corners", help="corner histogram for d=1 progressions"
    )
    p_corners.add_argument("--s", type=int, required=True)
    p_corners.add_argument("--p", type=int, default=2)
    p_corners.add_argument("--m", type=int, default=None, help="restrict to one corner count")
    common(p_corners)

    p_verify = sub.add_parser("verify", help="cross-check a parameter grid")
    p_verify.add_argument("--s", required=True, help="value or range lo..hi")
    p_verify.add_argument("--d", required=True, help="value or range lo..hi")
    p_verify.add_argument("--p", required=True, help="value or range lo..hi")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--bound", type=int, default=None)
    p_verify.add_argument(
        "--n-max", type=int, default=None,
        help="also run the partition-scan enumerator with this size cap",
    )
    common(p_verify)

    return parser


def _cmd_count(args, emit: _Emitter) -> int:
    results: list[formulas.CountResult] = []
    method = args.method
    if args.t is not None:
        if args.d is not None or args.p is not None:
            raise _UsageError("--d and --p do not apply to a pair; drop them or --t")
        s, t = sorted((args.s, args.t))
        _check_bound(args.bound, s, t - s)
        if method in ("formula", "all"):
            results.append(formulas.count_sc_pair(s, t))
        if method in ("dp",):
            print("error: no path model for a bare pair; use --p", file=sys.stderr)
            return 2
        if method in ("enumerate", "all"):
            mds = oracle.enumerate_md_sets(Progression(s, t - s, 1), args.bound)
            results.append(formulas.CountResult(len(mds), "enumeration"))
    else:
        if args.d is None:
            raise _UsageError("--d is required unless --t is given")
        s, d, p = args.s, args.d, 2 if args.p is None else args.p
        _check_bound(args.bound, s, d)
        if method in ("formula", "all"):
            results.extend(formulas.closed_forms(s, d, p))
            if method == "formula" and not results:
                print(
                    f"error: no closed formula for p={p}, d={d}; "
                    "use --method dp or enumerate",
                    file=sys.stderr,
                )
                return 2
        if method in ("dp", "all"):
            results.append(formulas.count_via_paths(s, d, p))
        if method in ("enumerate", "all"):
            mds = oracle.enumerate_md_sets(Progression(s, d, p), args.bound)
            results.append(formulas.CountResult(len(mds), "enumeration"))
    agree = len({r.value for r in results}) <= 1
    records = [r.as_json() for r in results]
    if args.format == "json":
        for record in records:
            emit.json(record)
        if method == "all":
            emit.json({"agree": agree})
    elif args.format == "csv":
        emit.csv(("method", "value"), records)
    else:
        for record in records:
            emit.line(f"{record['method']}: {record['value']}")
        if method == "all":
            emit.line("AGREE" if agree else "DISAGREE")
    emit.flush()
    return 0 if agree else 1


def _cmd_enumerate(args, emit: _Emitter) -> int:
    _check_bound(args.bound, args.s, args.d)
    prog = Progression(args.s, args.d, args.p)
    if args.n_max is not None:
        partitions = oracle.enumerate_by_partition_scan(prog, args.n_max)
        mds = [mdcore.partition_to_md(parts) for parts in partitions]
    else:
        mds = oracle.enumerate_md_sets(prog, args.bound)
    records = [mdcore.partition_record(md) for md in mds]
    if args.format == "json":
        for record in records:
            emit.json(record)
    elif args.format == "csv":
        emit.csv(_PARTITION_COLUMNS, records)
    else:
        for record in records:
            md_text = ",".join(map(str, record["md"])) or "-"
            parts_text = ",".join(map(str, record["parts"])) or "-"
            emit.line(f"md={md_text} parts={parts_text}")
    emit.flush()
    return 0


def _cmd_map(args, emit: _Emitter) -> int:
    prog = bijection.phi_context(args.s, args.d, args.p)
    md = _parse_md(args.md)
    steps = bijection.phi(md, prog)
    if args.format == "json":
        emit.json(bijection.mapping_record(md, prog))
    elif args.format == "csv":
        row = (steps, prog.x, prog.y, motzkin.flat_count(steps), motzkin.last_step(steps) or "-")
        emit.csv(("steps", "x", "y", "flats", "last"), [row])
    else:
        emit.line(steps)
    emit.flush()
    return 0


def _cmd_unmap(args, emit: _Emitter) -> int:
    prog = bijection.phi_context(args.s, args.d, args.p)
    md = bijection.phi_inverse(args.path, prog)
    record = mdcore.partition_record(md)
    if args.format == "json":
        emit.json(bijection.mapping_record(md, prog))
        emit.json(record)
    elif args.format == "csv":
        emit.csv(_PARTITION_COLUMNS, [record])
    else:
        emit.line(",".join(map(str, record["md"])) or "-")
        emit.line("parts: " + (",".join(map(str, record["parts"])) or "-"))
    emit.flush()
    return 0


def _cmd_abacus(args, emit: _Emitter) -> int:
    prog = Progression(args.s, args.d, 1)
    state = abacus_mod.place_beads(prog, _parse_md(args.md))
    if args.format == "json":
        emit.json(abacus_mod.abacus_record(state))
    elif args.format == "csv":
        emit.csv(("j", "r", "b", "f"), abacus_mod.abacus_record(state)["columns"])
    else:
        emit.line(abacus_mod.render_abacus(state))
    emit.flush()
    return 0


def _cmd_corners(args, emit: _Emitter) -> int:
    s, p = args.s, args.p
    prog = Progression(s, 1, p)  # p < 1 is refused here, p = 1 by the next line
    check_progression_length(p)
    histogram: dict[int, int] = {}
    for md in oracle.enumerate_md_sets(prog):
        m, _, _ = bijection.corner_statistics(md, prog)
        histogram[m] = histogram.get(m, 0) + 1
    formula = formulas.CORNER_FORMULAS.get(p)
    top = max(max(histogram, default=0), s // 2)
    rows = []
    for m in range(top + 1):
        if args.m is not None and m != args.m:
            continue
        expected = formula(s, m).value if formula else None
        rows.append({"m": m, "enumerated": histogram.get(m, 0), "formula": expected})
    agree = all(row["formula"] in (None, row["enumerated"]) for row in rows)
    if args.format == "json":
        for row in rows:
            emit.json(row)
    elif args.format == "csv":
        emit.csv(("m", "enumerated", "formula"), rows)
    else:
        for row in rows:
            tail = "" if row["formula"] is None else f" formula={row['formula']}"
            emit.line(f"m={row['m']} enumerated={row['enumerated']}{tail}")
        emit.line("AGREE" if agree else "DISAGREE")
    emit.flush()
    return 0 if agree else 1


def _verify_one(item: tuple[int, int, int, int | None, int | None]) -> oracle.VerifyReport:
    s, d, p, bound, n_max = item
    return oracle.verify_instance(s, d, p, bound=bound, n_max=n_max)


def _cmd_verify(args, emit: _Emitter) -> int:
    try:
        s_lo, s_hi = _parse_span(args.s)
        d_lo, d_hi = _parse_span(args.d)
        p_lo, p_hi = _parse_span(args.p)
    except ValueError:
        raise _UsageError("ranges must be INT or INT..INT")
    if s_lo < 1 or d_lo < 1 or p_lo < 2 or s_hi < s_lo or d_hi < d_lo or p_hi < p_lo:
        raise _UsageError("need s >= 1, d >= 1, p >= 2 and nonempty ranges")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")

    grid = []
    skipped = []
    for s in range(s_lo, s_hi + 1):
        for d in range(d_lo, d_hi + 1):
            for p in range(p_lo, p_hi + 1):
                if gcd(s, d) != 1:
                    skipped.append((s, d, p))
                else:
                    _check_bound(args.bound, s, d)
                    grid.append((s, d, p, args.bound, args.n_max))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_verify_one, grid))
    else:
        reports = [_verify_one(item) for item in grid]

    if args.format == "json":
        for s, d, p in skipped:
            emit.json({"s": s, "d": d, "p": p, "skipped": "gcd(s, d) != 1"})
        for report in reports:
            emit.json(report.as_json())
    elif args.format == "csv":
        header = (
            "s", "d", "p", "n_md", "n_path", "n_dp", "n_formula", "roundtrip", "corners", "pass",
        )
        rows = [(s, d, p, *[None] * 6, "skipped") for s, d, p in skipped]
        emit.csv(header, rows + [report.as_json() for report in reports])
    else:
        for s, d, p in skipped:
            emit.line(f"s={s} d={d} p={p} skipped (gcd != 1)")
        for report in reports:
            formula_text = "-" if report.n_formula is None else str(report.n_formula)
            verdict = "PASS" if report.passed else "FAIL"
            emit.line(
                f"s={report.s} d={report.d} p={report.p} md={report.n_md} "
                f"paths={report.n_path} dp={report.n_dp} formula={formula_text} "
                f"roundtrip={report.roundtrip} corners={report.corners} {verdict}"
            )
    failures = sum(1 for r in reports if not r.passed)
    summary = (
        f"verified {len(reports)} instances: {len(reports) - failures} pass, "
        f"{failures} fail, {len(skipped)} skipped"
    )
    if args.format == "json":
        emit.json(
            {
                "instances": len(reports),
                "pass": len(reports) - failures,
                "fail": failures,
                "skipped": len(skipped),
            }
        )
    else:
        emit.line(summary)
    emit.flush()
    return 1 if failures else 0


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "unmap": _cmd_unmap,
    "abacus": _cmd_abacus,
    "corners": _cmd_corners,
    "verify": _cmd_verify,
}


@cache
def _parser() -> _Parser:
    """The one parser of this process, built on first use rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    emit = _Emitter(args.output)
    try:
        return _HANDLERS[args.command](args, emit)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ScoreLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
