"""Benchmark of gausspseudo: one command per (workload, seed, trace) run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0

Run from the repository root (it finds src/ next to this directory).
--trace 0 measures the end-to-end metrics; --trace 1 makes the traced
run that gives the per-layer metrics.  Outputs are checked against
routes that do not share the census path (oracle.py).  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; a
readable report and the machine facts go to stderr, and --record PATH
also saves them as JSON.  A traced run writes the spans of its first
traced pass to .perfbench_work/spans-<workload>.tsv.  Exit code 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REQUIRED = (os.path.join(SRC, "gausspseudo", "__init__.py"), os.path.join(ROOT, "tests", "oracle_utils.py"))

SETUP_PROBES = 7
RUN_BUDGET_S = 170.0  # every run must end within 180 s

sys.path.insert(0, SRC)
import workloads as wl  # noqa: E402  (this directory is sys.path[0])


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], deadline: float) -> str:
    """Run cmd in its own session; kill the whole group if it outlives deadline."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(cmd[1:4])}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd[1:])}\n{err[-2000:]}")
    return out


def setup_seconds(deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import gausspseudo` returns."""
    code = "import time, gausspseudo; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    _run([sys.executable, "-c", code], deadline)  # compiles the bytecode once, untimed
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        samples.append(float(_run([sys.executable, "-c", code], deadline)) - t0)
    return samples


def client(args, work_dir, deadline, *, workers, requests=0, trace=0, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--requests", str(requests),
           "--workers", str(workers), "--trace", str(trace), "--work-dir", work_dir]
    if spans:
        cmd += ["--spans", spans]
    *done, last = (json.loads(line) for line in _run(cmd, deadline).splitlines())
    return {"latencies": [r["latency"] for r in done], "outputs": [r["output"] for r in done],
            "extras": [r["extra"] for r in done], **last}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)


def check_outputs(workload: str, seed: int, outputs: list, checks: Checks) -> list:
    """Compare every request's output with the independent oracle.

    Returns the (n, mask) pairs the oracle expects the mask kernel to keep,
    over all requests, sorted (table only).
    """
    import oracle

    survivors = []
    for index, out in enumerate(outputs):
        if "error" in out:
            checks.expect(False, f"request {index} raised {out['error']}")
            continue
        try:
            if workload == "table":
                lo, hi = wl.table_window(seed, index)
                csv, expected_survivors = oracle.expected_table(lo, hi)
                survivors += expected_survivors
                checks.expect(any(c != "0" for line in csv.splitlines()[1:] for c in line.split(",")[1:]),
                              f"the oracle's table of [{lo}, {hi}) has no hit, so the check would be empty")
                checks.expect(out["window"] == [lo, hi] and out["csv"] == csv,
                              f"table [{lo}, {hi}) differs from the oracle")
            elif workload == "search":
                lo, hi = wl.search_window(seed, index)
                expected = oracle.expected_search(lo, hi)
                for name, values in expected.items():
                    checks.expect(out.get(name) == values, f"search {name} [{lo}, {hi}) differs from the oracle")
            else:
                for (kind, n, known), got in zip(wl.number_batch(seed, index), out["classify"]):
                    want = oracle.expected_classification(n, known)
                    checks.expect(got == want, f"classify({n}) [{kind}] gave {got}, expected {want}")
                lines, values = wl.verify_file(seed, index)
                checks.expect(out["verify"] == oracle.expected_verification(lines, values),
                              f"verify_external_list of file {index} differs from the oracle")
        except Exception as exc:  # an oracle failure fails the check, never the run
            checks.expect(False, f"request {index}: oracle raised {type(exc).__name__}: {exc}")
    return sorted(survivors)


def count_metrics(summary: dict) -> dict:
    """The deterministic part of a trace summary: calls and counters."""
    counts = {f"{s}.calls": st["calls"] for s, st in summary["stages"].items()}
    counts.update(summary["counts"])
    counts["spans"] = summary["spans"]
    return counts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[int, float]:
    """(q, value) for the highest whole percentile q with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return 0, 0.0
    ordered = sorted(samples)
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q / 100 * n)  # nearest-rank percentile, 1-based
    return q, ordered[rank - 1]


def integers_handled(workload: str, out: dict, extra: dict) -> int:
    if workload == "numbers":
        return extra.get("integers", 0)
    return out["window"][1] - out["window"][0] if "window" in out else 0


def end_to_end(workload: str, res: dict, setup: list[float]) -> dict:
    lat = res["latencies"]
    rates = [integers_handled(workload, o, e) / t for o, e, t in zip(res["outputs"], res["extras"], lat)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(lat), "s"),
        "n_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def numbers_detail(extras: list) -> dict:
    """Classify times per kind of integer and over all, and verify speed.

    The kinds take very different times and their mix is chosen, so the
    median is given per kind; the tail is over all classify calls."""
    samples = [(kind, s * 1000) for e in extras for kind, s in e.get("classify_s", ())]
    ms = [t for _, t in samples]
    q, value = tail(ms)
    verify_s = sum(e.get("verify_s", 0.0) for e in extras)
    lines = sum(e.get("verify_lines", 0) for e in extras)
    detail = {}
    for kind, _ in wl.NUMBER_MIX:
        of_kind = [t for k, t in samples if k == kind]
        detail[f"classify_{kind}_ms_p50"] = statistics.median(of_kind) if of_kind else 0.0
    detail.update({
        "classify_ms_tail": value,
        "classify_tail_pct": q,
        "classify_samples": len(ms),
        "verify_lines_per_s": lines / verify_s if verify_s else 0.0,
    })
    return detail


def per_layer(tr: dict, ref: dict) -> dict:
    s = tr["trace"]
    st = s["stages"]
    c = s["counts"]

    def stage(name, key):
        return st.get(name, {}).get(key, 0)

    wall = sum(tr["latencies"])
    untraced = sum(ref["latencies"])
    candidates = c.get("census.mask.candidates", 0)
    detail = numbers_detail(ref["extras"])
    m = {
        "census.mask.candidates": (candidates, "count"),
        "census.mask.survivors": (c.get("census.mask.survivors", 0), "count"),
        "census.mask.survivor_ratio": (c.get("census.mask.survivors", 0) / candidates if candidates else 0.0, "ratio"),
        "census.mask.self_s": (stage("census.mask", "self_s"), "s"),
        "census.prefilter.candidates": (stage("census.prefilter", "calls"), "count"),
        "census.prefilter.survivors": (c.get("census.prefilter.survivors", 0), "count"),
        "census.prefilter.self_s": (stage("census.prefilter", "self_s"), "s"),
        "census.kernel.calls": (stage("census.kernel", "calls"), "count"),
        "census.kernel.self_s": (stage("census.kernel", "self_s"), "s"),
        "census.factor_batch.numbers": (c.get("census.factor_batch.numbers", 0), "count"),
        "census.factor_batch.self_s": (stage("census.factor_batch", "self_s"), "s"),
        "census.predicate.calls": (stage("census.predicate", "calls"), "count"),
        "census.predicate.self_s": (stage("census.predicate", "self_s"), "s"),
        "census.sieve.calls": (stage("census.sieve", "calls"), "count"),
        "census.sieve.self_s": (stage("census.sieve", "self_s"), "s"),
        "census.blocks": (stage("census.mask", "calls") + stage("census.kernel", "calls"), "count"),
        "census.block_s_max": (max(stage("census.mask", "max_s"), stage("census.kernel", "max_s")), "s"),
        "census.merge_s": (s["merge_s"], "s"),
        "census.hits": (c.get("census.hits", 0), "count"),
        "census.serialize_s": (stage("census.serialize", "total_s"), "s"),
        "census.verify.values": (c.get("census.verify.values", 0), "count"),
        "census.verify.self_s": (stage("census.verify", "self_s"), "s"),
        "census.verify.lines_per_s": (detail["verify_lines_per_s"], "1/s"),
        "residues.ladder.calls": (stage("residues.ladder", "calls"), "count"),
        "residues.ladder.self_s": (stage("residues.ladder", "self_s"), "s"),
        "residues.unit_ratio.calls": (stage("residues.unit_ratio", "calls"), "count"),
        "arith.factorize.calls": (stage("arith.factorize", "calls"), "count"),
        "arith.factorize.cache_hits": (c.get("arith.factorize.cache_hits", 0), "count"),
        "arith.factorize.self_s": (stage("arith.factorize", "self_s"), "s"),
        "arith.rho.calls": (stage("arith.rho", "calls"), "count"),
        "arith.rho.self_s": (stage("arith.rho", "self_s"), "s"),
        "arith.is_prime.calls": (stage("arith.is_prime", "calls"), "count"),
        "arith.is_prime.self_s": (stage("arith.is_prime", "self_s"), "s"),
        "fermat.ratio_test.calls": (stage("fermat.ratio_test", "calls"), "count"),
        "fermat.ratio_test.pass": (c.get("fermat.ratio_test.pass", 0), "count"),
        "fermat.ratio_test.fail": (c.get("fermat.ratio_test.fail", 0), "count"),
        "fermat.ratio_test.invalid_base": (c.get("fermat.ratio_test.invalid_base", 0), "count"),
        "fermat.ratio_test.self_s": (stage("fermat.ratio_test", "self_s"), "s"),
        "classify.classify.calls": (stage("classify.classify", "calls"), "count"),
        "classify.classify.self_s": (stage("classify.classify", "self_s"), "s"),
        **{f"classify.{kind}.ms_p50": (detail[f"classify_{kind}_ms_p50"], "ms") for kind, _ in wl.NUMBER_MIX},
        "classify.classify.ms_tail": (detail["classify_ms_tail"], "ms"),
        "classify.classify.tail_pct": (detail["classify_tail_pct"], "percentile"),
    }
    for module, self_s in s["modules"].items():
        m[f"layer.{module}.self_s"] = (self_s, "s")
    m.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_frac": (wall / untraced - 1.0, "ratio"),
        "trace.unattributed_s": (wall - s["roots_s"], "s"),
        "trace.spans": (s["spans"], "count"),
    })
    return m


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters (user ... steal) of the machine."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def _steal_frac(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine between two readings."""
    if len(before) < 8 or len(after) < 8 or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_facts() -> dict:
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "commit": _commit(),
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def measure(args, work_dir, deadline, checks: Checks, record: dict) -> dict:
    workers = wl.TABLE_WORKERS if args.workload == "table" else 1
    setup = setup_seconds(deadline)
    res = client(args, work_dir, deadline, workers=workers)
    check_outputs(args.workload, args.seed, res["outputs"], checks)
    metrics = end_to_end(args.workload, res, setup)
    lat = res["latencies"]
    record["detail"] = {
        "workers": workers,
        "requests": len(lat),
        "request_s_quartiles": statistics.quantiles(lat, n=4) if len(lat) > 1 else lat,
        "request_s": lat,
        "setup_s_samples": setup,
    }
    if args.workload == "numbers":
        record["detail"].update(numbers_detail(res["extras"]))
    return metrics


def traced(args, work_dir, deadline, checks: Checks, record: dict) -> dict:
    requests = wl.trace_requests(args.workload, args.seconds)
    ref = client(args, work_dir, deadline, workers=1, requests=requests)
    survivors = check_outputs(args.workload, args.seed, ref["outputs"], checks)
    spans = os.path.join(WORK, f"spans-{args.workload}.tsv")
    runs = [
        client(args, work_dir, deadline, workers=1, requests=requests, trace=1, spans=spans if i == 0 else None)
        for i in range(2)
    ]
    for i, tr in enumerate(runs):
        for index, (a, b) in enumerate(zip(ref["outputs"], tr["outputs"])):
            checks.expect(a == b, f"traced run {i} request {index} output differs from the untraced run")
    first, second = (count_metrics(tr["trace"]) for tr in runs)
    diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    checks.expect(not diff, f"nondeterminism: counts differ between two traced runs: {diff}")
    if args.workload == "table":
        if "census:_psp_mask_kernel" not in runs[0]["trace"]["absent"]:
            got = [tuple(pair) for pair in runs[0]["trace"]["mask_survivors"]]
            missing = sorted(set(survivors) - set(got))
            extra = sorted(set(got) - set(survivors))
            checks.expect(got == survivors, f"mask kept {len(got)} (n, mask) pairs, the oracle expects "
                          f"{len(survivors)}; missing {missing[:5]}, unexpected {extra[:5]}")
        par = client(args, work_dir, deadline, workers=wl.TABLE_WORKERS, requests=requests)
        for index, (a, b) in enumerate(zip(par["outputs"], runs[0]["outputs"])):
            checks.expect(a.get("csv") == b.get("csv"),
                          f"nondeterminism: table request {index} differs between {wl.TABLE_WORKERS} workers and 1")
    record["detail"] = {"requests": requests, "absent_stages": runs[0]["trace"]["absent"]}
    record["stages"] = runs[0]["trace"]["stages"]
    return per_layer(runs[0], ref)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="also write the full record (JSON) here")
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"error: benchmark needs the repository sources; missing {missing}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_BUDGET_S
    ticks = _cpu_ticks()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts()}
    checks = Checks()
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = traced if args.trace else measure
        metrics = run(args, work_dir, deadline, checks, record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    record["machine"]["loadavg_after"] = os.getloadavg()
    record["machine"]["cpu_steal_frac"] = _steal_frac(ticks, _cpu_ticks())

    failed = len(checks.problems)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, problems=checks.problems,
                  failed_frac=failed / checks.attempted if checks.attempted else 1.0)
    for problem in checks.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}  "
          f"failed_frac={record['failed_frac']:.4g} ({failed}/{checks.attempted})", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:32s} {v:14.6g} {u}", file=sys.stderr)
    print(f"  detail: {json.dumps(record['detail'])}", file=sys.stderr)
    print(f"  machine: {json.dumps(record['machine'])}", file=sys.stderr)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
