"""Span tracing from outside the program.

Spans are timed in CPU seconds of the process, like the jobs in run.py.
The tracer replaces the public functions each module calls across a
module boundary with wrappers that record a span (name, start, end,
parent, job) and the deterministic counts visible at that boundary, then
puts the originals back.  ``src/`` is not edited: the patched names are
the ones the callers look up at call time (``cli.analyze`` is the name
``cmd_verify`` calls, ``verify.run_batch`` the one the oracles call).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


def _program_bytes(program) -> int:
    return 4 * sum(len(block) for block in program.blocks)


def _ops(func) -> int:
    return sum(1 for _ in func.all_ops())


def _analyze_counts(args, kwargs, result) -> dict:
    return {
        "secanalysis.paths": sum(len(p.paths) for p in result.psets),
        "secanalysis.rpairs": len(result.pairs.rpairs),
        "secanalysis.ops_added": _ops(result.function) - _ops(args[0]),
    }


def _pool_reasons(args, kwargs, pool) -> dict:
    return {
        "solver.pools_exhausted": int(pool.reason.value == "exhausted"),
        "solver.pools_timeout": int(pool.reason.value == "timeout"),
    }


def _diversify_counts(args, kwargs, pool) -> dict:
    return {"solver.variants": len(pool.solutions), **_pool_reasons(args, kwargs, pool)}


# (module, attribute, layer, counts taken from (args, kwargs, result))
HOOKS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "parse_function", "mir.parse", None),
    ("cli", "analyze", "secanalysis.analyze", _analyze_counts),
    ("cli", "build_problem", "copmodel.build_problem",
     lambda a, k, prob: {"copmodel.vars": len(prob.var_order)}),
    ("cli", "to_schedule", "copmodel.to_schedule", None),
    ("cli", "encode", "machine.encode",
     lambda a, k, prog: {"machine.code_bytes": _program_bytes(prog)}),
    ("solver", "solve_optimal", "solver.solve_optimal",
     lambda a, k, res: {"solver.optimal_nodes": res.nodes}),
    ("solver", "diversify", "solver.diversify", _diversify_counts),
    ("solver", "naive_diversify", "solver.naive_diversify", _pool_reasons),
    ("verify", "check_equivalence", "verify.equivalence",
     lambda a, k, rep: {"verify.equivalence_inputs": rep.pairs_tested}),
    ("verify", "check_cr", "verify.cr", None),
    ("verify", "check_psc", "verify.psc", None),
    ("verify", "run_batch", "machine.run_batch",
     lambda a, k, res: {"machine.lanes": int(a[1].shape[1])}),
    ("gadgets", "pool_histogram", "gadgets.histogram",
     lambda a, k, hist: {"gadgets.pairs": hist.total}),
]

JOB = "cli.job"
# the span name before the first dot names the layer; the job span's self
# time is the CLI's own work (file I/O, JSON)
LAYERS = ("solver", "machine", "verify", "secanalysis", "copmodel", "mir", "gadgets", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, Callable]] = field(default_factory=list)
    job: Optional[str] = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.process_time(), parent=parent, job=self.job))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.process_time()
        self._stack.pop()

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, name, counter in HOOKS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original: Callable, name: str, counter: Optional[Callable]):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span.name] += span.seconds - child[i]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.seconds
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one pass, timings and counts together."""
    tot, own, c = tracer.totals(), tracer.self_times(), tracer.counts
    produced = c["solver.variants"]
    layer_self = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0] + ".self_s"] += seconds
    return {
        **layer_self,
        "solver.diversify_s": tot["solver.diversify"],
        "solver.diversify_s_per_variant": tot["solver.diversify"] / max(produced, 1),
        "solver.solve_optimal_s": tot["solver.solve_optimal"],
        "solver.optimal_nodes": c["solver.optimal_nodes"],
        "solver.naive_diversify_s": tot["solver.naive_diversify"],
        "solver.pools_exhausted": c["solver.pools_exhausted"],
        "solver.pools_timeout": c["solver.pools_timeout"],
        "machine.run_batch_s": tot["machine.run_batch"],
        "machine.run_batch_calls": c["machine.run_batch.calls"],
        "machine.lanes": c["machine.lanes"],
        "machine.encode_s": tot["machine.encode"],
        "machine.code_bytes": c["machine.code_bytes"],
        "verify.psc_s": tot["verify.psc"],
        "verify.cr_s": tot["verify.cr"],
        "verify.equivalence_s": tot["verify.equivalence"],
        "verify.equivalence_inputs": c["verify.equivalence_inputs"],
        "secanalysis.analyze_s": tot["secanalysis.analyze"],
        "secanalysis.analyze_calls": c["secanalysis.analyze.calls"],
        "secanalysis.paths": c["secanalysis.paths"],
        "secanalysis.rpairs": c["secanalysis.rpairs"],
        "secanalysis.ops_added": c["secanalysis.ops_added"],
        "copmodel.build_problem_s": tot["copmodel.build_problem"],
        "copmodel.to_schedule_s": tot["copmodel.to_schedule"],
        "copmodel.vars": c["copmodel.vars"],
        "mir.parse_s": tot["mir.parse"],
        "mir.parse_calls": c["mir.parse.calls"],
        "gadgets.histogram_s": tot["gadgets.histogram"],
        "gadgets.pairs": c["gadgets.pairs"],
        "trace.job_s": tot[JOB],
    }


# Counts that must repeat exactly: across passes, runs and traced/untraced.
COUNTERS = (
    "solver.optimal_nodes", "solver.pools_exhausted", "solver.pools_timeout",
    "machine.run_batch_calls", "machine.lanes", "machine.code_bytes",
    "verify.equivalence_inputs", "secanalysis.analyze_calls", "secanalysis.paths",
    "secanalysis.rpairs", "secanalysis.ops_added", "copmodel.vars",
    "mir.parse_calls", "gadgets.pairs",
)

