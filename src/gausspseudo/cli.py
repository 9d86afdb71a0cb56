"""Command-line frontend: classify single integers, search ranges,
reproduce the joint pseudoprime table, and verify external lists.

Data goes to stdout and is byte-identical across runs (and across worker
counts); progress and warnings go to stderr.  This module is the only
writer of either: the library writes nothing to stdout or stderr, and
reports through the callbacks passed to it.  Exit codes: 0 for success,
1 when a verification finds passing numbers, 2 for usage or input errors,
130 when an interrupt (Ctrl-C) cancels the command.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import asdict

from .census import (
    CensusTable,
    RangeQuery,
    VerificationReport,
    CLASSIFIER_NAMES,
    available_cpus,
    canonical_json,
    joint_census,
    record_line,
    search_classifier,
    search_gfp,
    table_to_csv,
    table_to_records,
    values_to_csv,
    verify_external_list,
)
from .classify import ClassificationReport, classify
from .fermat import TABLE_GAUSSIAN_BASES, TABLE_INTEGER_BASES
from .residues import GaussianBase

_PROGRESS_INTERVAL = 0.5


# The option types only parse; the library checks the values.

def _parse_filter(text: str) -> tuple[int, int]:
    try:
        m, r = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("filter must be 'modulus,residue'") from None
    return m, r


def _parse_base(text: str) -> GaussianBase:
    try:
        return GaussianBase.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_bases(text: str) -> tuple[GaussianBase, ...]:
    return tuple(_parse_base(part) for part in text.split(",") if part.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Progress:
    """Rate-limited progress lines on stderr."""

    def __init__(self, label: str):
        self.label = label
        self.last = 0.0

    def __call__(self, done: int, total: int) -> None:
        now = time.monotonic()
        if done == total or now - self.last >= _PROGRESS_INTERVAL:
            self.last = now
            print(f"{self.label}: {done}/{total} blocks", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspseudo",
        description="Gaussian-integer Fermat tests, number classifications and censuses.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress progress output and per-entry warnings"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a single integer", parents=[common])
    p_classify.add_argument("n", type=int)
    p_classify.add_argument("--giuga", action="store_true", help="also evaluate the Giuga power sum")
    p_classify.add_argument("--format", choices=("plain", "records"), default="plain")

    p_search = sub.add_parser("search", parents=[common], help="search a range for a number class")
    p_search.add_argument("classifier", choices=CLASSIFIER_NAMES + ("gfp",))
    p_search.add_argument("--lo", type=int, default=2)
    p_search.add_argument("--hi", type=int, required=True)
    p_search.add_argument("--filter", type=_parse_filter, default=None, metavar="M,R")
    p_search.add_argument("--base", type=_parse_base, default=None, metavar="A+Bi")
    p_search.add_argument("--workers", type=int, default=available_cpus())
    p_search.add_argument("--format", choices=("plain", "csv", "records"), default="plain")

    p_table = sub.add_parser("table", parents=[common], help="joint Gaussian/classical pseudoprime counts")
    p_table.add_argument("--limit", type=int, default=40_000_000)
    p_table.add_argument("--filter", type=_parse_filter, default=None, metavar="M,R")
    p_table.add_argument("--gaussian-bases", type=_parse_bases, default=TABLE_GAUSSIAN_BASES,
                         help="comma-separated bases, e.g. '1+2i,1+4i' (empty for none)")
    p_table.add_argument("--integer-bases", type=_parse_ints, default=TABLE_INTEGER_BASES,
                         help="comma-separated integers, e.g. '2,3,4'")
    p_table.add_argument("--workers", type=int, default=available_cpus())
    p_table.add_argument("--format", choices=("plain", "csv", "records"), default="plain")

    p_verify = sub.add_parser("verify", parents=[common], help="run the Gaussian test over a candidate list file")
    p_verify.add_argument("--file", required=True)
    p_verify.add_argument("--base", type=_parse_base, required=True, metavar="A+Bi")
    p_verify.add_argument("--filter", type=_parse_filter, default=None, metavar="M,R")
    p_verify.add_argument("--format", choices=("plain", "records"), default="plain")
    return parser


def _render_report(report: ClassificationReport, fmt: str) -> str:
    if fmt == "records":
        return canonical_json({"kind": "classification", **asdict(report)}) + "\n"
    lines = [f"n: {report.n}", f"is_prime: {str(report.is_prime).lower()}"]
    for name in ClassificationReport.FLAG_ORDER:
        value = getattr(report, name)
        text = "not computed" if value is None else str(value).lower()
        lines.append(f"{name}: {text}")
    if report.witnesses:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(report.witnesses.items()))
        lines.append(f"witnesses: {parts}")
    return "".join(line + "\n" for line in lines)


def _render_values(values, kind, query, base, fmt: str) -> str:
    if fmt == "csv":
        return values_to_csv(values)
    if fmt == "records":
        return record_line(kind, query, base, values) + "\n"
    return "".join(f"{v}\n" for v in values)


def _render_table(table: CensusTable, query, fmt: str) -> str:
    if fmt == "records":
        return table_to_records(table, query)
    if fmt == "csv":
        return table_to_csv(table)
    rows = [["base"] + [str(a) for a in table.integer_bases]] + [
        [str(z)] + [str(c) for c in row] for z, row in zip(table.gaussian_bases, table.counts)
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def _render_verification(report: VerificationReport, fmt: str) -> str:
    if fmt == "records":
        return canonical_json({"kind": "verification", **asdict(report)}) + "\n"
    lines = [
        f"source: {report.source}",
        f"total_read: {report.total_read}",
        f"filtered: {report.filtered}",
        f"invalid_base: {report.invalid_base}",
        f"malformed_lines: {report.malformed_lines}",
        f"passing: {' '.join(str(n) for n in report.passing) if report.passing else '(none)'}",
    ]
    return "".join(line + "\n" for line in lines)


def _cmd_classify(args) -> int:
    report = classify(args.n, with_giuga=args.giuga)
    sys.stdout.write(_render_report(report, args.format))
    return 0


def _cmd_search(args) -> int:
    query = RangeQuery(args.lo, args.hi, args.filter, args.workers)
    progress = None if args.quiet else _Progress(f"search {args.classifier}")
    gfp = args.classifier == "gfp"
    if gfp != (args.base is not None):
        raise ValueError("search gfp requires --base" if gfp else "only search gfp takes --base")
    if gfp:
        values = search_gfp(query, args.base, progress=progress)
    else:
        values = search_classifier(query, args.classifier, progress=progress)
    sys.stdout.write(
        _render_values(values, f"search_{args.classifier}", query, args.base, args.format)
    )
    return 0


def _cmd_table(args) -> int:
    query = RangeQuery(2, args.limit, args.filter, args.workers)
    progress = None if args.quiet else _Progress("table")
    table = joint_census(query, args.gaussian_bases, args.integer_bases, progress=progress)
    sys.stdout.write(_render_table(table, query, args.format))
    return 0


def _cmd_verify(args) -> int:
    def warn(n: int) -> None:
        print(f"WARNING: {n} passes the Gaussian test to base {args.base}", file=sys.stderr)

    on_pass = None if args.quiet else warn
    report = verify_external_list(args.file, args.base, args.filter, on_pass=on_pass)
    sys.stdout.write(_render_verification(report, args.format))
    return 1 if report.passing else 0


def _attach_base_values(argv) -> list[str]:
    """'--base -2+5i' as '--base=-2+5i': argparse reads '-2+5i' as an option."""
    out = []
    for arg in argv:
        if out[-1:] in (["--base"], ["--gaussian-bases"]) and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_base_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "classify": _cmd_classify,
        "search": _cmd_search,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # a search's pool is already shut down
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
