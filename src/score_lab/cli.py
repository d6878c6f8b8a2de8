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
from typing import NamedTuple

from . import abacus as abacus_mod
from . import bijection, formulas, mdcore, motzkin, oracle
from .errors import ScoreLabError, check_pair, check_progression_length
from .progression import Progression

USAGE_ERROR = 64
_PARTITION_COLUMNS = ("size", "corners", "md", "parts")


class _UsageError(Exception):
    """Flags that parse but do not make sense together; exits 64."""

    exit_code = USAGE_ERROR


class _Unavailable(Exception):
    """The requested method does not apply to these parameters; exits 2."""

    exit_code = 2


class _Output(NamedTuple):
    """What a subcommand prints, in each format, and its exit code.

    ``records`` are the JSON lines, ``header`` and ``rows`` the CSV
    table (a dict row is read by the header) and ``text`` the text
    lines.  Only `main` picks a format and writes.
    """

    records: list
    header: tuple[str, ...]
    rows: list
    text: list[str]
    code: int = 0


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


def _join(values) -> str:
    """A hook set or partition as comma-separated values, '-' when empty."""
    return ",".join(map(str, values)) or "-"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def _lines(out: _Output, fmt: str) -> list[str]:
    """The output lines of ``out`` in format ``fmt``."""
    if fmt == "json":
        return [json.dumps(record, separators=(",", ":")) for record in out.records]
    if fmt == "csv":
        header = out.header
        rows = ([row[key] for key in header] if isinstance(row, dict) else row for row in out.rows)
        return [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return out.text


def _check_bound(bound: int | None, s: int, d: int) -> None:
    """Refuse a hook bound that would cut the enumeration short."""
    complete = oracle.default_md_bound(s, d)
    if bound is not None and bound < complete:
        raise _UsageError(
            f"--bound {bound} is below the completeness bound {complete} "
            f"of ({s}, {s + d})-cores; the enumeration would miss cores"
        )


def _check_n_max(n_max: int | None, s: int, d: int) -> None:
    """Refuse a scan size cap below the largest core, which the scan would miss."""
    largest = oracle.pair_core_size_bound(s, s + d)
    if n_max is not None and n_max < largest:
        raise _UsageError(
            f"--n-max {n_max} is below the largest core size {largest} "
            f"of ({s}, {s + d})-cores; the partition scan would miss cores"
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


def _cmd_count(args) -> _Output:
    method = args.method
    pair = args.t is not None
    if pair:
        if args.d is not None or args.p is not None:
            raise _UsageError("--d and --p do not apply to a pair; drop them or --t")
        s, t = sorted((args.s, args.t))
        check_pair(s, t)  # before any method, so every method words it alike
        d, p = t - s, 1
    else:
        if args.d is None:
            raise _UsageError("--d is required unless --t is given")
        s, d, p = args.s, args.d, 2 if args.p is None else args.p
    _check_bound(args.bound, s, d)
    results: list[formulas.CountResult] = []
    if method in ("formula", "all"):
        results.extend([formulas.count_sc_pair(s, t)] if pair else formulas.closed_forms(s, d, p))
        if method == "formula" and not results:
            raise _Unavailable(
                f"no closed formula for p={p}, d={d}; use --method dp or enumerate"
            )
    if method in ("dp", "all") and not pair:
        results.append(formulas.count_via_paths(s, d, p))
    elif method == "dp":
        raise _Unavailable("no path model for a bare pair; use --p")
    if method in ("enumerate", "all"):
        mds = oracle.enumerate_md_sets(Progression(s, d, p), args.bound)
        results.append(formulas.CountResult(len(mds), "enumeration"))
    agree = len({r.value for r in results}) <= 1
    rows = records = [r.as_json() for r in results]
    text = [f"{row['method']}: {row['value']}" for row in rows]
    if method == "all":
        records = [*rows, {"agree": agree}]
        text.append("AGREE" if agree else "DISAGREE")
    return _Output(records, ("method", "value"), rows, text, 0 if agree else 1)


def _cmd_enumerate(args) -> _Output:
    _check_bound(args.bound, args.s, args.d)
    prog = Progression(args.s, args.d, args.p)
    if args.n_max is not None:
        partitions = oracle.enumerate_by_partition_scan(prog, args.n_max)
        mds = [mdcore.partition_to_md(parts) for parts in partitions]
    else:
        mds = oracle.enumerate_md_sets(prog, args.bound)
    records = [mdcore.partition_record(md) for md in mds]
    text = [f"md={_join(record['md'])} parts={_join(record['parts'])}" for record in records]
    return _Output(records, _PARTITION_COLUMNS, records, text)


def _cmd_map(args) -> _Output:
    prog = bijection.phi_context(args.s, args.d, args.p)
    record = bijection.mapping_record(_parse_md(args.md), prog)
    steps = record["path"]
    row = (steps, prog.x, prog.y, motzkin.flat_count(steps), motzkin.last_step(steps) or "-")
    return _Output([record], ("steps", "x", "y", "flats", "last"), [row], [steps])


def _cmd_unmap(args) -> _Output:
    prog = bijection.phi_context(args.s, args.d, args.p)
    md = bijection.phi_inverse(args.path, prog)
    record = mdcore.partition_record(md)
    text = [_join(record["md"]), "parts: " + _join(record["parts"])]
    return _Output(
        [bijection.mapping_record(md, prog), record], _PARTITION_COLUMNS, [record], text
    )


def _cmd_abacus(args) -> _Output:
    prog = Progression(args.s, args.d, 1)
    state = abacus_mod.place_beads(prog, _parse_md(args.md))
    record = abacus_mod.abacus_record(state)
    return _Output(
        [record], ("j", "r", "b", "f"), record["columns"], [abacus_mod.render_abacus(state)]
    )


def _cmd_corners(args) -> _Output:
    s, p = args.s, args.p
    prog = Progression(s, 1, p)  # p < 1 is refused here, p = 1 by the next line
    check_progression_length(p)
    histogram: dict[int, int] = {}
    for md in oracle.enumerate_md_sets(prog):
        m = mdcore._corners(mdcore._md_to_partition(md))
        histogram[m] = histogram.get(m, 0) + 1
    formula = formulas.CORNER_FORMULAS.get(p)
    top = max(max(histogram, default=0), s // 2)
    rows = []
    text = []
    for m in range(top + 1):
        if args.m is not None and m != args.m:
            continue
        expected = formula(s, m).value if formula else None
        rows.append({"m": m, "enumerated": histogram.get(m, 0), "formula": expected})
        tail = "" if expected is None else f" formula={expected}"
        text.append(f"m={m} enumerated={histogram.get(m, 0)}{tail}")
    agree = all(row["formula"] in (None, row["enumerated"]) for row in rows)
    text.append("AGREE" if agree else "DISAGREE")
    return _Output(rows, ("m", "enumerated", "formula"), rows, text, 0 if agree else 1)


def _verify_one(item: tuple[int, int, int, int | None, int | None]) -> oracle.VerifyReport:
    s, d, p, bound, n_max = item
    return oracle.verify_instance(s, d, p, bound=bound, n_max=n_max)


def _cmd_verify(args) -> _Output:
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
                    _check_n_max(args.n_max, s, d)
                    grid.append((s, d, p, args.bound, args.n_max))

    # A pool starts all its workers at once, so it gets no more than the grid needs.
    workers = min(args.jobs, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_verify_one, grid))
    else:
        reports = [_verify_one(item) for item in grid]

    results = [report.as_json() for report in reports]
    failures = sum(1 for r in reports if not r.passed)
    tally = {
        "instances": len(reports), "pass": len(reports) - failures,
        "fail": failures, "skipped": len(skipped),
    }
    summary = (
        f"verified {len(reports)} instances: {len(reports) - failures} pass, "
        f"{failures} fail, {len(skipped)} skipped"
    )
    header = (
        "s", "d", "p", "n_md", "n_path", "n_dp", "n_formula", "roundtrip", "corners", "pass",
    )
    text = [f"s={s} d={d} p={p} skipped (gcd != 1)" for s, d, p in skipped]
    for r in reports:
        text.append(
            f"s={r.s} d={r.d} p={r.p} md={r.n_md} paths={r.n_path} dp={r.n_dp} "
            f"formula={'-' if r.n_formula is None else r.n_formula} roundtrip={r.roundtrip} "
            f"corners={r.corners} {'PASS' if r.passed else 'FAIL'}"
        )
    return _Output(
        [*({"s": s, "d": d, "p": p, "skipped": "gcd(s, d) != 1"} for s, d, p in skipped),
         *results, tally],
        header,
        # the CSV ends in the text summary, a one-cell row
        [*((s, d, p, *[None] * 6, "skipped") for s, d, p in skipped), *results, (summary,)],
        [*text, summary],
        1 if failures else 0,
    )


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
    try:
        out = _HANDLERS[args.command](args)
    except (_UsageError, _Unavailable, ScoreLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)  # a ScoreLabError is a domain error
    text = "".join(line + "\n" for line in _lines(out, args.format))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
