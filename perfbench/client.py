"""One benchmark client: a closed loop of library calls in a fresh interpreter.

Started by run.py with gausspseudo importable.  Each request finishes
before the next starts.  Inputs come from workloads.py; preparing them
(writing a candidate file) is outside the timed region.  `table` and the
classify calls of `numbers` call the library; the searches and the file
verification go through the command-line frontend (`gausspseudo.cli.main`,
in process, stdout captured and parsed back).  Each request's latency,
output and extras go to stdout as one JSON line as soon as it ends, so
that outputs do not pile up in this process and count in its peak RSS;
a last line holds the peak RSS and the trace summary.  run.py checks
them.

    --requests 0   run requests until --seconds have elapsed
    --requests R   run exactly requests 0..R-1
    --trace 1      wrap the library's layers (workers must be 1)
    --spans PATH   with --trace 1, also write every span there
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import workloads as wl

import gausspseudo as gp
from gausspseudo import cli


def _cli(*argv: str) -> str:
    """Run one command of the command-line frontend; return its stdout.

    Exit code 1 is success too: `verify` returns it when entries pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--quiet"])
    if code not in (0, 1):
        raise RuntimeError(f"gausspseudo {' '.join(argv)} exited {code}")
    return out.getvalue()


def _table_request(seed, index, workers, work_dir):
    lo, hi = wl.table_window(seed, index)
    t0 = perf_counter()
    table = gp.joint_census(
        gp.RangeQuery(lo, hi, wl.TABLE_FILTER, workers),
        gp.TABLE_GAUSSIAN_BASES,
        gp.TABLE_INTEGER_BASES,
    )
    csv = gp.table_to_csv(table)
    return perf_counter() - t0, {"window": [lo, hi], "csv": csv}, {}


def _search_request(seed, index, workers, work_dir):
    lo, hi = wl.search_window(seed, index)
    window = ("--lo", str(lo), "--hi", str(hi), "--workers", str(workers), "--format", "csv")
    base = "{}{:+d}i".format(*wl.SEARCH_GFP_BASE)
    texts = {}
    t0 = perf_counter()
    for which in wl.SEARCH_CLASSIFIERS:
        texts[which] = _cli("search", which, *window)
    texts["gfp"] = _cli("search", "gfp", "--base", base, *window)
    latency = perf_counter() - t0
    out = {"window": [lo, hi]}
    for which, text in texts.items():
        out[which] = [int(line) for line in text.splitlines()[1:]]
    return latency, out, {}


def _numbers_request(seed, index, workers, work_dir):
    batch = wl.number_batch(seed, index)
    lines, values = wl.verify_file(seed, index)
    path = os.path.join(work_dir, f"candidates-{index}.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    base = "{}{:+d}i".format(*wl.VERIFY_BASE)
    reports, classify_s = [], []
    t0 = perf_counter()
    for _, n, _ in batch:
        c0 = perf_counter()
        rep = gp.classify(n)
        flags = {"is_prime": rep.is_prime}
        flags.update((name, getattr(rep, name)) for name in gp.ClassificationReport.FLAG_ORDER)
        gp.record_line("classification", None, None, [n, *flags.values()])
        classify_s.append(perf_counter() - c0)
        reports.append(flags)
    v0 = perf_counter()
    text = _cli("verify", "--file", path, "--base", base, "--format", "records")
    t1 = perf_counter()
    os.remove(path)
    vrep = json.loads(text)
    out = {
        "classify": reports,
        "verify": [vrep[k] for k in ("total_read", "filtered", "passing", "invalid_base", "malformed_lines")],
    }
    extra = {"classify_s": [(kind, s) for (kind, _, _), s in zip(batch, classify_s)],
             "verify_s": t1 - v0, "verify_lines": len(lines), "integers": len(batch) + len(values)}
    return t1 - t0, out, extra


REQUESTS = {"table": _table_request, "search": _search_request, "numbers": _numbers_request}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--requests", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None, help="write spans here (tab-separated)")
    args = ap.parse_args(argv)
    if args.trace and args.workers != 1:
        ap.error("tracing needs --workers 1")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    request = REQUESTS[args.workload]
    begin = perf_counter()
    index = 0
    while (index < args.requests) if args.requests else (perf_counter() - begin < args.seconds):
        t0 = perf_counter()
        try:
            latency, out, extra = request(args.seed, index, args.workers, args.work_dir)
        except Exception as exc:  # a raising call is a failed operation; run.py counts it
            latency, out, extra = perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}, {}
        print(json.dumps({"latency": latency, "output": out, "extra": extra}, separators=(",", ":")), flush=True)
        index += 1

    result = {}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
