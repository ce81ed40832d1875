"""Span tracing installed around the program's layer entry points.

:class:`Tracer` replaces each layer's public function with a shim that
records a span — name, start, end, parent span and the id of the
benchmark operation (one advise call, one transaction, ...) that caused
it — and restores the originals when it is removed.  Spans stay in
memory until :meth:`Tracer.write`; each span's self time (its duration
minus the time its child spans cover) is summed per layer as spans
close, so the per-layer figures need no second pass.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import repro.advisor
import repro.windows.advisor
import repro.workload.workload
from repro import Advisor
from repro.backend import ExecutionEngine
from repro.cost import CostModel
from repro.enumerator import CandidateEnumerator
from repro.optimizer.bip import BIPOptimizer
from repro.planner.query_planner import QueryPlanner
from repro.planner.update_planner import UpdatePlanner


def _record_pool(tracer, args, result):
    tracer.sizes["enumerator.pool_size"].append(len(result))


def _record_query_plans(tracer, args, result):
    # support-query spaces are counted by the update planner, and an OR
    # query's branch spaces by the union space that holds them
    if tracer.parent_name() not in ("planner.update", "planner.query"):
        tracer.counts["planner.query_plans"] += len(result)
    if getattr(result, "truncated", False):
        tracer.counts["planner.truncated"] += 1


def _record_support_plans(tracer, args, result):
    tracer.counts["planner.support_plans"] += len(result.support_plans)


def _record_prune(tracer, args, result):
    tracer.counts["dominance.plans_in"] += len(args[0])
    tracer.counts["dominance.plans_out"] += len(result)


def _record_program(tracer, args, result):
    tracer.sizes["optimizer.columns"].append(result.columns)
    # the row count has no public accessor; _lower holds one bound per row
    tracer.sizes["optimizer.rows"].append(len(result._lower))


#: (owner, attribute, layer, result hook) for every wrapped entry point
TARGETS = (
    (repro.workload.workload, "parse_statement", "workload.parse", None),
    (CandidateEnumerator, "candidates", "enumerator.candidates",
     _record_pool),
    (QueryPlanner, "plans_for", "planner.query", _record_query_plans),
    (UpdatePlanner, "plan_one", "planner.update", _record_support_plans),
    (CostModel, "cost_plan", "cost.plan", None),
    (CostModel, "cost_update_plan", "cost.plan", None),
    (repro.advisor, "prune_plan_space", "dominance.prune", _record_prune),
    (Advisor, "prepare", "pipeline.prepare", None),
    (BIPOptimizer, "prepare", "optimizer.build", _record_program),
    (BIPOptimizer, "reweight", "optimizer.reweight", None),
    (BIPOptimizer, "optimize", "optimizer.solve", None),
    (repro.windows.advisor, "recommend_windows", "windows", None),
    (ExecutionEngine, "load", "backend.load", None),
    (ExecutionEngine, "execute_query", "backend.query", None),
    (ExecutionEngine, "execute_update", "backend.update", None),
)

#: stages of ``AdvisorTiming.stage_breakdown()`` -> traced layers whose
#: self time should account for them; the solve span also covers result
#: extraction, which the advisor reports as "recommendation"
STAGE_LAYERS = (
    (("enumeration",), ("enumerator.candidates",)),
    # bookkeeping inside prepare is timed as planning
    (("planning", "other"), ("planner.query", "planner.update",
                             "pipeline.prepare")),
    (("cost_calculation",), ("cost.plan",)),
    (("pruning",), ("dominance.prune",)),
    (("bip_construction",), ("optimizer.build", "optimizer.reweight")),
    (("bip_solving", "recommendation"), ("optimizer.solve",)),
)


class Tracer:
    """Installs span-recording shims; use as a context manager."""

    def __init__(self):
        #: closed spans: [id, parent id, operation id, name, start, end]
        self.spans = []
        #: layer -> summed self seconds
        self.self_seconds = defaultdict(float)
        #: layer -> self seconds inside the current operation
        self.operation_seconds = defaultdict(float)
        self.counts = Counter()
        #: per-call sizes: candidate pools and program shapes
        self.sizes = defaultdict(list)
        self._stack = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._operation = None
        self._saved = []

    # -- installation --------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, layer, hook in TARGETS:
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, own, original))
            setattr(owner, attribute, self._shim(original, layer, hook))
        return self

    def remove(self):
        for owner, attribute, own, original in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _shim(self, original, layer, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        own = duration - child
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        self.self_seconds[name] += own
        self.operation_seconds[name] += own
        self.spans.append([span_id, parent, self._operation, name,
                           start, end])

    def parent_name(self):
        """Name of the span enclosing the one that just closed."""
        return self._stack[-1][1] if self._stack else None

    @contextmanager
    def operation(self, kind):
        """Root span for one benchmark operation; its id tags every
        span opened inside it."""
        self.operation_seconds = defaultdict(float)
        self._open(f"op.{kind}")
        self._operation = self._next_id
        try:
            yield self
        finally:
            self._close()
            self._operation = None

    # -- results ----------------------------------------------------------

    def largest(self, name):
        return max(self.sizes.get(name) or [0])

    def write(self, path, header):
        """Write the header and every span as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"header": header,
                       "fields": ["id", "parent", "operation", "name",
                                  "start", "end"],
                       "spans": self.spans}, handle)


def stage_gap(stage_rows):
    """Disagreement of traced advisor-layer self times with
    ``stage_breakdown()``.

    ``stage_rows`` holds one ``(breakdown, layer seconds)`` pair per
    advise call.  Returns ``(gap fraction, per-stage totals)``: the sum
    over stages of |traced - reported| over the reported total.
    """
    totals = {"+".join(stages): [0.0, 0.0] for stages, _ in STAGE_LAYERS}
    for breakdown, layers in stage_rows:
        for stages, names in STAGE_LAYERS:
            pair = totals["+".join(stages)]
            pair[0] += sum(breakdown[stage] for stage in stages)
            pair[1] += sum(layers.get(name, 0.0) for name in names)
    reported = sum(pair[0] for pair in totals.values())
    gap = sum(abs(pair[0] - pair[1]) for pair in totals.values())
    return (gap / reported if reported else 0.0,
            {stage: {"reported_s": pair[0], "traced_s": pair[1]}
             for stage, pair in totals.items()})
