"""Command-line interface.

Subcommands: count, enumerate, map, unmap, abacus, corners, verify.
Every output is deterministic for fixed flags (fixed orderings, no
timestamps); the environment variable SCORE_LAB_SEED is recognized
nowhere because nothing here is randomized.

Exit codes: 0 success, 1 verification failure or count disagreement,
2 requested method unavailable, 3 domain error (bad hook set, bad
path, non-coprime parameters), 64 usage error or an output that cannot
be written (`error: cannot write DEST: REASON`; DEST is the `--output`
path or stdout), 141 stdout closed by its reader before the output
ended (128 + SIGPIPE, as a shell reports a writer the signal ended).

`main` writes every line through one loop, to stdout or `--output`
alike.  `verify` streams: each instance's line goes out, flushed, as
soon as that instance and those before it are done, its `error:` line
on stderr with it, so a reader sees progress, a stopped run keeps the
lines it finished, and `| head -1` stops the run at the next write.
`verify --jobs N` imports its process pool only when it starts one
(N > 1 and more than one instance), and `decimal` loads only to print a
count, so neither is part of the other subcommands' cold start.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from functools import cache
from math import gcd
from typing import NamedTuple

from . import abacus as abacus_mod
from . import bijection, formulas, mdcore, oracle
from .errors import ScoreLabError, check_pair
from .progression import Progression, default_md_bound

USAGE_ERROR = 64
BROKEN_PIPE = 141  # 128 + SIGPIPE
_PARTITION_COLUMNS = ("size", "corners", "md", "parts")
# `count --method all` enumerates only when the count it holds (the DP's, or
# the pair formula's) is at most this: a few seconds of search.
_ALL_ENUMERATION_LIMIT = 10**7


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
    lines.  Only `main` picks a format and writes, reading the one it
    picks once, so the three may share one lazy stream.  ``code`` may
    be a function that `main` calls once that stream is written, and
    ``live`` asks `main` to flush the destination, stdout or the
    ``--output`` file, after each line, as each one may end a long
    piece of work.
    """

    records: Iterable
    header: tuple[str, ...]
    rows: Iterable
    text: Iterable[str]
    code: int | Callable[[], int] = 0
    live: bool = False


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the conventional usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_md(text: str) -> list[int]:
    """Comma-separated hook list; '-' or '' is the empty set.

    Out-of-order or repeated entries are re-sorted and de-duplicated
    with a warning rather than rejected.  The library call that takes
    the list validates it.
    """
    text = text.strip()
    if text in ("", "-"):
        return []
    try:
        raw = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ScoreLabError(f"could not parse hook list {text!r}")
    cleaned = sorted(set(raw), reverse=True)
    if cleaned != raw:
        print("warning: hook list re-sorted and de-duplicated", file=sys.stderr)
    return cleaned


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


def _lines(out: _Output, fmt: str) -> Iterator[str]:
    """The output lines of ``out`` in format ``fmt``, one at a time."""
    if fmt == "json":
        yield from (json.dumps(record, separators=(",", ":")) for record in out.records)
    elif fmt == "csv":
        header = out.header
        rows = ([row[key] for key in header] if isinstance(row, dict) else row for row in out.rows)
        yield ",".join(header)
        yield from (",".join(map(_csv_cell, row)) for row in rows)
    else:
        yield from out.text


def _check_bound(bound: int | None, s: int, d: int) -> None:
    """Refuse a hook bound that would cut the enumeration short; others change nothing."""
    complete = default_md_bound(s, d)
    if bound is not None and bound < complete:
        raise _UsageError(
            f"--bound {bound} is below the completeness bound {complete} "
            f"of ({s}, {s + d})-cores; the enumeration would miss cores"
        )


def _check_n_max(n_max: int | None, s: int, d: int) -> None:
    """Refuse a scan size cap below the largest core size; others change nothing."""
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


def _note_long_enumeration(prog: Progression) -> None:
    """Name the core count on stderr when it is past the limit of ``count --method all``.

    The count is the DP's, or the pair formula's for p = 1.  An explicit
    enumeration still runs; the note only says it may take long.
    """
    if prog.p == 1:
        count = formulas.count_sc_pair(prog.s, prog.s + prog.d)
    else:
        count = formulas.count_via_paths(prog.s, prog.d, prog.p)
    if count.value > _ALL_ENUMERATION_LIMIT:
        print(
            f"note: enumerating {count.as_json()['value']} cores, past the limit "
            f"{_ALL_ENUMERATION_LIMIT} of --method all; this may take a long time",
            file=sys.stderr,
        )


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
    if method == "all" and results[-1].value > _ALL_ENUMERATION_LIMIT:
        print(
            f"note: not enumerating {results[-1].as_json()['value']} cores, past "
            f"the limit {_ALL_ENUMERATION_LIMIT} of --method all; use --method enumerate",
            file=sys.stderr,
        )
    elif method in ("enumerate", "all"):
        prog = Progression(s, d, p)
        if method == "enumerate":
            _note_long_enumeration(prog)
        cores = sum(1 for _ in oracle._iter_md_sets(prog))
        results.append(formulas.CountResult(cores, "enumeration"))
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
    if args.n_max is None:
        _note_long_enumeration(prog)
        mds = map(mdcore._mask_hooks, oracle._iter_md_sets(prog))
    else:
        # Checked here: the stream would check it only once main is writing.
        oracle._check_size_cap(args.n_max)
        if args.n_max >= oracle.pair_core_size_bound(prog.s, prog.s + prog.d):
            _note_long_enumeration(prog)  # only a cap this large lists every core
        mds = map(mdcore._mask_hooks, oracle._iter_partition_scan(prog, args.n_max))
    # One stream: main reads it in the one format it prints, so no core is kept.
    records = map(mdcore._partition_record, mds)
    text = (f"md={_join(record['md'])} parts={_join(record['parts'])}" for record in records)
    return _Output(records, _PARTITION_COLUMNS, records, text)


def _cmd_map(args) -> _Output:
    prog = bijection.phi_context(args.s, args.d, args.p)
    record = bijection.mapping_record(_parse_md(args.md), prog)
    steps = record["path"]
    row = (steps, prog.x, prog.y, steps.count("F"), steps[-1:] or "-")  # phi's own path
    return _Output([record], ("steps", "x", "y", "flats", "last"), [row], [steps])


def _cmd_unmap(args) -> _Output:
    prog = bijection.phi_context(args.s, args.d, args.p)
    md = bijection.phi_inverse(args.path, prog)
    record = mdcore._partition_record(md)
    text = [_join(record["md"]), "parts: " + _join(record["parts"])]
    # phi_inverse has checked the path and the core, so neither is checked again.
    mapping = bijection._mapping_record(md, args.path, prog, record["corners"])
    return _Output([mapping, record], _PARTITION_COLUMNS, [record], text)


def _cmd_abacus(args) -> _Output:
    prog = Progression(args.s, args.d, 1)
    beads = abacus_mod.place_beads(prog, _parse_md(args.md))
    record = abacus_mod.abacus_record(prog, beads)
    return _Output(
        [record], ("j", "r", "b", "f"), record["columns"], [abacus_mod.render_abacus(prog, beads)]
    )


def _cmd_corners(args) -> _Output:
    s, p = args.s, args.p
    prog = bijection.phi_context(s, 1, p)
    if args.m is not None and args.m < 0:
        raise _UsageError(f"--m must be >= 0, got {args.m}")
    _note_long_enumeration(prog)
    rows = oracle.corner_rows(prog)[:-1]  # m = 0..top
    if args.m is not None:
        if args.m >= len(rows):
            raise _UsageError(f"--m must be in 0..{len(rows) - 1} for s={s}, p={p}, got {args.m}")
        rows = rows[args.m : args.m + 1]
    text = [
        f"m={row['m']} enumerated={row['enumerated']}"
        + ("" if row["formula"] is None else f" formula={row['formula']}")
        for row in rows
    ]
    agree = all(row["formula"] in (None, row["enumerated"]) for row in rows)
    text.append("AGREE" if agree else "DISAGREE")
    return _Output(rows, ("m", "enumerated", "formula"), rows, text, 0 if agree else 1)


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
                    grid.append((s, d, p, args.n_max is not None))

    tally = {"instances": 0, "pass": 0, "fail": 0, "skipped": len(skipped)}

    def finished() -> Iterator[oracle.VerifyReport]:
        """Each report as its instance is done, in grid order, tallied."""
        for r in _verify_grid(grid, args.jobs):
            tally["instances"] += 1
            tally["pass" if r.passed else "fail"] += 1
            if r.error:  # stdout keeps the report's bytes; the first counterexample goes to stderr
                print(f"error: s={r.s} d={r.d} p={r.p} {r.error}", file=sys.stderr)
            yield r

    def summary() -> str:
        return (
            f"verified {tally['instances']} instances: {tally['pass']} pass, "
            f"{tally['fail']} fail, {tally['skipped']} skipped"
        )

    # One stream of reports: main reads it, and runs the grid, in the one
    # format it prints, so each line goes out as its instance is done.
    reports = finished()
    results = map(oracle.VerifyReport.as_json, reports)
    text = (
        f"s={r.s} d={r.d} p={r.p} md={r.n_md} paths={r.n_path} dp={r.n_dp} "
        f"formula={'-' if r.n_formula is None else r.n_formula} roundtrip={r.roundtrip} "
        f"corners={r.corners} {'PASS' if r.passed else 'FAIL'}"
        for r in reports
    )
    return _Output(
        _then(
            ({"s": s, "d": d, "p": p, "skipped": "gcd(s, d) != 1"} for s, d, p in skipped),
            results,
            lambda: tally,
        ),
        oracle._REPORT_KEYS,
        # the CSV ends in the text summary, a one-cell row
        _then(
            ((s, d, p, *[None] * 6, "skipped") for s, d, p in skipped),
            results,
            lambda: (summary(),),
        ),
        _then((f"s={s} d={d} p={p} skipped (gcd != 1)" for s, d, p in skipped), text, summary),
        lambda: 1 if tally["fail"] else 0,
        live=True,
    )


def _verify_grid(grid: list, jobs: int) -> Iterator[oracle.VerifyReport]:
    """The grid's reports in grid order, each as soon as it and those before it are done."""
    # A pool starts all its workers at once, so it gets no more than the grid needs.
    workers = min(jobs, len(grid))
    if workers > 1:
        # Imported only here: its modules are about a fifth of a cold start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Closing this stream early cancels the instances no worker has started.
            yield from pool.map(oracle.verify_instance, *zip(*grid))
    else:
        yield from (oracle.verify_instance(*item) for item in grid)


def _then(head: Iterable, body: Iterable, last: Callable[[], object]) -> Iterator:
    """``head``, then ``body``, then ``last()``, called once ``body`` is spent."""
    yield from head
    yield from body
    yield last()


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


def _check_writable(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would raise, creating nothing.

    Lets a run refuse an unwritable ``--output`` before doing its work.
    A full device is still found only when the output is written.
    """
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        parent = os.path.dirname(os.path.abspath(path))
        os.stat(parent)  # a missing or non-directory component, as open words it
        if not os.path.isdir(parent):
            code = errno.ENOTDIR
        elif os.access(path if os.path.lexists(path) else parent, os.W_OK):
            return
        else:
            code = errno.EACCES
    raise OSError(code, os.strerror(code), path)


def _cannot_write(dest: str, exc: OSError) -> int:
    print(f"error: cannot write {dest}: {exc.strerror or exc}", file=sys.stderr)
    return USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.output:
        try:
            _check_writable(args.output)
        except OSError as exc:
            return _cannot_write(args.output, exc)
    try:
        out = _HANDLERS[args.command](args)
    except (_UsageError, _Unavailable, ScoreLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)  # a ScoreLabError is a domain error
    try:
        sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
        with sink as handle:
            for line in _lines(out, args.format):
                handle.write(line + "\n")
                if out.live:
                    handle.flush()
            if not out.live:
                handle.flush()
    except OSError as exc:
        if args.output:
            return _cannot_write(args.output, exc)
        # Point stdout at devnull, so the flush at interpreter exit does not
        # fail again.  A reader that is gone asked for no more: no error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE if isinstance(exc, BrokenPipeError) else _cannot_write("stdout", exc)
    return out.code() if callable(out.code) else out.code


if __name__ == "__main__":
    sys.exit(main())
