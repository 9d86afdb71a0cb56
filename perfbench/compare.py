"""Summarise benchmark records written by `run.py --record`.

    python3 perfbench/compare.py perfbench/baseline/*.json

For each workload, untraced records give every end-to-end metric's median
and spread (distance between the first and third quartiles as a share of
the median, as statistics.quantiles(values, n=4) gives them), with the
bound from BENCHMARK.json.  Traced records of the same workload and seed
must agree exactly on every count; a difference is reported as
nondeterminism.  Exit code 1 when a spread exceeds its bound, a count
differs, or a record failed its checks.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def main(paths: list[str]) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    ok = True
    bad = [r for r in records if not r["correct"]]
    for r in bad:
        print(f"FAILED CHECKS: {r['workload']} seed {r['seed']} trace {r['trace']}: {r['problems'][:3]}")
    ok &= not bad

    timed = defaultdict(list)
    traced = defaultdict(list)
    for r in records:
        (traced if r["trace"] else timed)[r["workload"]].append(r)
    for workload, rs in sorted(timed.items()):
        print(f"{workload}: {len(rs)} untraced runs, seeds {sorted(r['seed'] for r in rs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            else:
                spread = 0.0
            flag = ""
            if spread > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            elif spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:14s} median {median:12.6g} {rs[0]['metrics'][name]['unit']:5s} "
                  f"spread {spread:7.2%} bound {bound:.0%}{flag}")

    for workload, rs in sorted(traced.items()):
        by_seed = defaultdict(list)
        for r in rs:
            by_seed[r["seed"]].append(r)
        for seed, group in sorted(by_seed.items()):
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in group]
            diff = sorted(k for c in counts[1:] for k in c if c[k] != counts[0].get(k))
            status = "identical" if not diff else f"NONDETERMINISM in {diff}"
            ok &= not diff
            overhead = [round(r["metrics"]["trace.overhead_frac"]["value"], 4) for r in group]
            print(f"{workload} traced seed {seed}: {len(group)} runs, counts {status}; overhead_frac {overhead}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
