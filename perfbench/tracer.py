"""Span tracing of gausspseudo from outside, by wrapping module attributes.

Each stage below names one function by "module:attribute".  Installing
the tracer replaces that function, in every module listed for it, with a
wrapper that records a span (stage, start, end, parent) and optional
counts.  Spans stay in memory in flat arrays until `write_spans` saves
them; `summary` turns them into per-stage calls, self time (span minus
child spans) and per-module totals.  A stage whose function no longer exists is reported as absent
and skipped, so refactors of the library do not break the benchmark.

Only valid at workers=1: pool workers would run unwrapped copies.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

MODULES = ("arith", "residues", "fermat", "classify", "census", "cli")
EVERYWHERE = ("", *MODULES)  # "" is the package itself


def _filtered_count(task) -> int:
    lo, hi, residue_filter = task[0], task[1], task[2]
    if residue_filter is None:
        return hi - lo
    m, r = residue_filter
    return len(range(lo + (r - lo) % m, hi, m))


def _count_mask(tracer, args, result):
    tracer.counts["census.mask.candidates"] += _filtered_count(args[0])
    tracer.counts["census.mask.survivors"] += len(result)
    tracer.mask_survivors.extend(result)


def _count_prefilter(tracer, args, result):
    tracer.counts["census.prefilter.survivors"] += bool(result)


def _count_factor_batch(tracer, args, result):
    tracer.counts["census.factor_batch.numbers"] += args[1] - args[0]


def _count_ratio_test(tracer, args, result):
    tracer.counts[f"fermat.ratio_test.{result.value}"] += 1


def _count_search(tracer, args, result):
    tracer.counts["census.hits"] += len(result)


def _count_table(tracer, args, result):
    tracer.counts["census.hits"] += sum(map(sum, result.counts))


def _count_verify(tracer, args, result):
    tracer.counts["census.verify.values"] += result.total_read


@dataclass(frozen=True)
class Stage:
    name: str
    target: str  # "module:attribute" where the function is defined
    modules: tuple[str, ...]  # modules whose reference is replaced
    count: object = None


STAGES = (
    Stage("cli.main", "cli:main", ("cli",)),
    Stage("cli.parser", "cli:_build_parser", ("cli",)),
    Stage("cli.command", "cli:_cmd_classify", ("cli",)),
    Stage("cli.command", "cli:_cmd_search", ("cli",)),
    Stage("cli.command", "cli:_cmd_table", ("cli",)),
    Stage("cli.command", "cli:_cmd_verify", ("cli",)),
    Stage("cli.render", "cli:_render_report", ("cli",)),
    Stage("cli.render", "cli:_render_values", ("cli",)),
    Stage("cli.render", "cli:_render_table", ("cli",)),
    Stage("cli.render", "cli:_render_verification", ("cli",)),
    Stage("census.joint_census", "census:joint_census", EVERYWHERE, _count_table),
    Stage("census.search", "census:search_classifier", EVERYWHERE, _count_search),
    Stage("census.search", "census:search_gfp", EVERYWHERE, _count_search),
    Stage("census.verify", "census:verify_external_list", EVERYWHERE, _count_verify),
    Stage("census.run_blocks", "census:_run_blocks", ("census",)),
    Stage("census.mask", "census:_psp_mask_kernel", ("census",), _count_mask),
    Stage("census.kernel", "census:_carmichael_type_kernel", ("census",)),
    Stage("census.kernel", "census:_factored_kernel", ("census",)),
    Stage("census.kernel", "census:_gfp_kernel", ("census",)),
    Stage("census.prefilter", "census:_gaussian_prefilter_passes", ("census",), _count_prefilter),
    Stage("census.factor_batch", "census:_factor_batch", ("census",), _count_factor_batch),
    Stage("census.sieve", "census:_composite_flags", ("census",)),
    Stage("census.sieve", "census:_base_primes", ("census",)),
    Stage("census.predicate", "classify:_carmichael_from_factors", ("census",)),
    Stage("census.predicate", "classify:_g_carmichael_from_factors", ("census",)),
    Stage("census.predicate", "classify:_g_lehmer_from_factors", ("census",)),
    Stage("census.predicate", "classify:_r_williams_from_factors", ("census",)),
    Stage("census.predicate", "classify:_giuga_from_factors", ("census",)),
    Stage("census.predicate", "census:_phi_of", ("census",)),
    Stage("census.predicate", "census:_lambda_of", ("census",)),
    Stage("census.serialize", "census:table_to_csv", EVERYWHERE),
    Stage("census.serialize", "census:values_to_csv", EVERYWHERE),
    Stage("census.serialize", "census:record_line", EVERYWHERE),
    Stage("classify.classify", "classify:classify", EVERYWHERE),
    Stage("fermat.ratio_test", "fermat:gaussian_fermat_ratio_test", EVERYWHERE, _count_ratio_test),
    Stage("residues.ladder", "residues:_pow_components", EVERYWHERE),
    Stage("residues.unit_ratio", "residues:unit_ratio", EVERYWHERE),
    Stage("arith.factorize", "arith:factorize", EVERYWHERE),
    Stage("arith.rho", "arith:_rho_factor", EVERYWHERE),
    Stage("arith.is_prime", "arith:is_prime", EVERYWHERE),
)

MERGE_STAGES = ("census.joint_census", "census.search")


class Tracer:
    def __init__(self):
        self.stage_names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.mask_survivors: list = []  # (n, mask) pairs the mask kernel kept
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._factorize = None
        self._factorize_hits = 0

    def wrap(self, stage: str, fn, count=None):
        if stage not in self.stage_names:
            self.stage_names.append(stage)
        sid = self.stage_names.index(stage)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"gausspseudo.{m}") for m in MODULES}
        mods[""] = importlib.import_module("gausspseudo")
        for stage in STAGES:
            home, attr = stage.target.split(":")
            fn = getattr(mods[home], attr, None)
            if not callable(fn):
                self.absent.append(stage.target)
                continue
            if stage.target == "arith:factorize" and hasattr(fn, "cache_info"):
                self._factorize = fn
                self._factorize_hits = fn.cache_info().hits
            wrapped = self.wrap(stage.name, fn, stage.count)
            for m in stage.modules:
                module = mods[m]
                for key in [k for k, v in vars(module).items() if v is fn]:
                    self._patched.append((module, key, fn))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        if self._factorize is not None:
            self.counts["arith.factorize.cache_hits"] += (
                self._factorize.cache_info().hits - self._factorize_hits
            )
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-stage calls / self_s / total_s / max_s, per-module self_s, counts."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        merge_sub = [0.0] * n  # time in census.run_blocks children of range queries
        run_blocks = self._sid("census.run_blocks")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.name[i] == run_blocks:
                    merge_sub[p] += dur[i]
        stages = {s: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0} for s in self.stage_names}
        ranged = {self._sid(s) for s in MERGE_STAGES}
        merge_s = roots_s = 0.0
        for i in range(n):
            st = stages[self.stage_names[self.name[i]]]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            st["total_s"] += dur[i]
            st["max_s"] = max(st["max_s"], dur[i])
            if self.name[i] in ranged:
                merge_s += dur[i] - merge_sub[i]
            if self.parent[i] < 0:
                roots_s += dur[i]
        modules = {m: 0.0 for m in MODULES}
        for s, st in stages.items():
            modules[s.split(".")[0]] += st["self_s"]
        return {
            "spans": n,
            "stages": stages,
            "modules": modules,
            "merge_s": merge_s,
            "roots_s": roots_s,
            "counts": dict(self.counts),
            "mask_survivors": sorted(self.mask_survivors),
            "absent": list(self.absent),
        }

    def _sid(self, stage: str) -> int:
        return self.stage_names.index(stage) if stage in self.stage_names else -2

    def write_spans(self, path) -> None:
        """Tab-separated spans: index, stage, parent index, start, end (seconds)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tstage\tparent\tstart\tend\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.stage_names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
