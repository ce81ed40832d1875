"""One benchmark run: measure a workload's phases, check the outputs.

A pass runs five phases on one :class:`~workloads.Scenario`, in order:

``advise``    cold ``Advisor(model).recommend`` of the advise workload
``setup``     parse, dataset generation, store load and the drift
              workload's ``Advisor.prepare`` — repeated, median reported
``readvise``  weight epochs through ``recommend_prepared`` (warm)
``windows``   ``recommend_windows`` over the scenario's schedule (warm)
``serve``     closed-loop transactions, one client, after a warm-up

The first cold advise and the set-ups run up front; then rounds of one
cold advise, a few re-advise epochs, windowed solves and serving chunks
repeat, so every metric's samples spread over the whole run.

The host's speed wanders by up to 1.7x over tens of seconds as other
tenants load the machine.  So each stretch of work runs between two
timings of fixed pure-Python reference work, and its times are scaled
to a nominal host on which that work takes :data:`REFERENCE_SECONDS`:
a reported second is a second of work at nominal speed.  The header
also reports the unscaled medians.

An untraced run repeats rounds for the run's seconds (and at least the
scenario's minimum) and reports the end-to-end metrics.  A traced run
makes two passes of a fixed round count over the same seeded inputs —
one untraced, one under :class:`~tracing.Tracer` — and reports
per-layer metrics plus the tracing overhead.  Every run then checks
its outputs.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

import numpy
import scipy

import repro.windows.advisor
from repro import Advisor
from repro.backend import ExecutionEngine

from checks import (
    capped_labels,
    check_execution,
    check_pricing,
    check_windows,
)
from tracing import Tracer, stage_gap
from workloads import SCENARIOS, epoch_weights

#: transactions per timed serving chunk, and unmeasured warm-up chunks
SERVE_CHUNK = 1000
WARMUP_CHUNKS = 3
#: epoch recommendations kept for re-pricing
PRICED_EPOCHS = 20
#: re-advise epochs timed between two reference timings
READVISE_BLOCK = 5
#: keys of the reference work, and its duration at nominal speed
#: (about the median on a 2.1 GHz Xeon vCPU shared with other tenants)
REFERENCE_KEYS = [(f"key{number}", number) for number in range(20000)]
REFERENCE_SECONDS = 0.005
#: metrics that are rates, so a slow host lowers them
RATES = ("serve_txn_per_s",)


def declared_units(root):
    """``{metric name: unit}`` of every metric ``BENCHMARK.json``
    declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for kind in ("end_to_end", "per_layer")
            for metric in declared[kind]}


def _reference_work():
    # dict churn over a few MB: tracks the advisor's and the store's
    # sensitivity to cache contention better than pure arithmetic
    table = {}
    for key, value in REFERENCE_KEYS:
        table[key] = (value, key)
    total = 0
    for key, _value in REFERENCE_KEYS[::3]:
        total += table[key][0]
    return total


def reference_seconds():
    """Fastest of three runs of fixed pure-Python work: the host's
    current speed, whatever the program under test does."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - started)
    return best


def _settle_heap(thaw=False):
    """Collect garbage, then freeze every survivor out of the collector.

    The run's long-lived objects (datasets, loaded stores, earlier
    recommendations) would otherwise be traversed by whichever full
    collection happens to fall inside a timed call, adding a quarter
    second to some cold advises and not to others.  Frozen, they are
    skipped, so a timed call pays only for collecting its own objects.
    A set-up replaces the run's dataset, engine and prepared advisor,
    so it first thaws the heap (``thaw``): the full collection then
    frees the set-up they replace instead of keeping it frozen.
    """
    if thaw:
        gc.unfreeze()
    gc.collect()
    gc.freeze()


class RunFailed(Exception):
    """A phase produced no sample, so its metrics cannot be reported."""


class Pass:
    """State of one measurement pass over a scenario."""

    def __init__(self, scenario, seed, seconds, rounds=None, tracer=None):
        self.scenario = scenario
        self.seed = seed
        self.seconds = seconds
        #: fixed round count; None repeats rounds for ``seconds``
        self.rounds = rounds
        self.tracer = tracer
        #: host-speed-scaled samples, and the same samples unscaled
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self._pending = []
        self._reference = None
        #: nominal over measured reference time, one per stretch
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: every advisor the pass created (cache statistics)
        self.advisors = []
        self.stage_rows = []
        #: the pass's wall time, scaled to nominal host speed
        self.wall = 0.0

    # -- bookkeeping -------------------------------------------------------

    def _more(self, started, done):
        if self.rounds is not None:
            return done < self.rounds
        return (done < self.scenario.min_rounds
                or time.perf_counter() - started < self.seconds)

    def _operation(self, kind):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.operation(kind)

    def attempt(self, kind, work):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            with self._operation(kind):
                return work()
        except Exception:  # every raise is a failed operation
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None

    def _record(self, name, value):
        self._pending.append((name, value))

    def _stretch(self, work, thaw=False):
        """Run ``work`` on a settled heap (:func:`_settle_heap`) between
        two reference timings and scale the samples it records to
        nominal host speed.  Stretches follow one another, so each
        one's closing timing opens the next."""
        if self._reference is None:
            self._reference = reference_seconds()
        before = self._reference
        _settle_heap(thaw)
        started = time.perf_counter()
        work()
        elapsed = time.perf_counter() - started
        self._reference = reference_seconds()
        scale = REFERENCE_SECONDS / ((before + self._reference) / 2)
        for name, value in self._pending:
            self.raw[name].append(value)
            self.samples[name].append(
                value / scale if name in RATES else value * scale)
        self._pending = []
        self.scales.append(scale)
        self.wall += elapsed * scale

    @staticmethod
    def _timed(function, *args, **kwargs):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        return result, time.perf_counter() - started

    # -- phases ------------------------------------------------------------

    def run(self):
        scenario = self.scenario
        #: the first cold (advisor, recommendation); later cold calls
        #: keep only what the determinism check compares
        self.cold = None
        self.cold_outcomes = []

        def build_and_advise():
            self.inputs = scenario.build()
            self._advise()

        self._stretch(build_and_advise)
        if self.cold is None:
            raise RunFailed("no cold recommendation")
        self.recommendation = self.cold[1]
        for _ in range(scenario.setups):
            self._stretch(self._setup, thaw=True)
        if "setup_s" not in self.samples:
            raise RunFailed("no set-up completed")
        self.epochs = epoch_weights(self.inputs.drift,
                                    self.inputs.schedule, self.seed)
        self.readvised = []
        self.windowed = []
        self.stream = scenario.stream(self.inputs, self.dataset,
                                      self.seed)
        self.sims = []
        self.store_before = self.engine.store.metrics.snapshot()
        for _ in range(WARMUP_CHUNKS):
            self._stretch(lambda: self._serve_chunk(record=False))
        rounds_started = time.perf_counter()
        done = 0
        while self._more(rounds_started, done):
            # the run's first cold advise, made before set-up, stands
            # for the first round's
            if done:
                self._stretch(self._advise)
            for start in range(0, scenario.readvise_per_round,
                               READVISE_BLOCK):
                block = min(READVISE_BLOCK,
                            scenario.readvise_per_round - start)
                self._stretch(lambda: self._readvise_block(block))
            for _ in range(scenario.windows_per_round):
                self._stretch(self._windows)
            for _ in range(scenario.serve_per_round):
                self._stretch(self._serve_chunk)
            done += 1
        # before verification adds a dataset and an engine of its own
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self

    def _readvise_block(self, count):
        for _ in range(count):
            self._readvise()

    def _advise(self):
        def work():
            advisor = Advisor(self.inputs.model)
            recommendation, seconds = self._timed(advisor.recommend,
                                                  self.inputs.advise)
            return advisor, recommendation, seconds

        result = self.attempt("advise", work)
        if result is None:
            return
        advisor, recommendation, seconds = result
        self._record("advise_s", seconds)
        self.cold_outcomes.append(_outcome(recommendation))
        if self.cold is None:
            self.cold = (advisor, recommendation)
        if self.tracer is not None:
            self.advisors.append(advisor)
            self.stage_rows.append((recommendation.timing.stage_breakdown(),
                                    dict(self.tracer.operation_seconds)))

    def _setup(self):
        def work():
            started = time.perf_counter()
            # a fresh model and parse; the run keeps its first build so
            # every phase plans against the same model objects
            self.scenario.build()
            dataset = self.scenario.dataset(self.inputs, self.seed)
            engine = ExecutionEngine(self.inputs.model,
                                     self.recommendation, dataset)
            engine.load()
            advisor = Advisor(self.inputs.model)
            prepared = advisor.prepare(self.inputs.drift)
            seconds = time.perf_counter() - started
            return dataset, engine, advisor, prepared, seconds

        result = self.attempt("setup", work)
        if result is None:
            return
        (self.dataset, self.engine, self.warm, self.prepared,
         seconds) = result
        self._record("setup_s", seconds)
        if self.tracer is not None:
            self.advisors.append(self.warm)

    def _readvise(self):
        weights = next(self.epochs)
        result = self.attempt("readvise", lambda: self._timed(
            self.warm.recommend_prepared, self.prepared, weights=weights))
        if result is None:
            return
        recommendation, seconds = result
        self._record("readvise_s", seconds)
        if len(self.readvised) < PRICED_EPOCHS:
            self.readvised.append((weights, recommendation))

    def _windows(self):
        inputs = self.inputs
        # looked up per call so a tracer's shim is the one called
        result = self.attempt("windows", lambda: self._timed(
            repro.windows.advisor.recommend_windows, self.warm,
            inputs.drift, inputs.schedule,
            migration_model=inputs.migration_model))
        if result is None:
            return
        recommendation, seconds = result
        self._record("windows_s", seconds)
        self.windowed.append(recommendation)

    def _serve_chunk(self, record=True):
        engine, stream = self.engine, self.stream
        sims = []
        started = time.perf_counter()
        for _ in range(SERVE_CHUNK):
            requests, _write = stream.next()
            sim = self.attempt("transaction", lambda: engine
                               .execute_transaction(requests))
            if sim is not None:
                sims.append(sim)
        seconds = time.perf_counter() - started
        if record:
            self.sims.extend(sims)
            self._record("serve_txn_per_s", len(sims) / seconds)

    # -- results -----------------------------------------------------------

    def end_to_end(self):
        if not (self.samples["readvise_s"] and self.samples["windows_s"]
                and self.sims):
            raise RunFailed("a phase produced no sample")
        return {
            "advise_s": statistics.median(self.samples["advise_s"]),
            "readvise_s": statistics.median(self.samples["readvise_s"]),
            "windows_s": statistics.median(self.samples["windows_s"]),
            "schema_cost": self.recommendation.total_cost,
            "schedule_cost": self.windowed[0].total_cost,
            "serve_sim_mean_ms": statistics.fmean(self.sims),
            "serve_txn_per_s": statistics.median(
                self.samples["serve_txn_per_s"]),
            "setup_s": statistics.median(self.samples["setup_s"]),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def sample_counts(self):
        return {
            "advise_s": len(self.samples["advise_s"]),
            "readvise_s": len(self.samples["readvise_s"]),
            "windows_s": len(self.samples["windows_s"]),
            "schema_cost": 1,
            "schedule_cost": 1,
            "serve_sim_mean_ms": len(self.sims),
            "serve_txn_per_s": len(self.samples["serve_txn_per_s"]),
            "setup_s": len(self.samples["setup_s"]),
            "peak_rss_mb": 1,
        }


def _outcome(recommendation):
    return (recommendation.total_cost,
            sorted(index.key for index in recommendation.indexes))


def _fraction(part, whole):
    return part / whole if whole else 0.0


def per_layer(traced, untraced, runner):
    """Per-layer metrics of a traced pass; ``untraced`` is the same pass
    without the tracer, for the overhead."""
    tracer = traced.tracer
    layers = tracer.self_seconds
    counts = tracer.counts
    hits = misses = artifact_hits = artifact_misses = 0
    for advisor in traced.advisors:
        memo_hits, memo_misses, _entries = advisor.cost_model.cache_info()
        hits += memo_hits
        misses += memo_misses
        stats = advisor.artifacts.stats()
        artifact_hits += stats["hits"]
        artifact_misses += stats["misses"]
    store = traced.engine.store.metrics.snapshot()
    served = {name: store[name] - traced.store_before[name]
              for name in store}
    gap, _stages = stage_gap(traced.stage_rows)
    return {
        "workload.parse_s": layers["workload.parse"],
        "enumerator.candidates_s": layers["enumerator.candidates"],
        "enumerator.pool_size": tracer.largest("enumerator.pool_size"),
        "planner.query_s": layers["planner.query"],
        "planner.update_s": layers["planner.update"],
        "planner.query_plans": counts["planner.query_plans"],
        "planner.support_plans": counts["planner.support_plans"],
        "planner.truncated": counts["planner.truncated"],
        "cost.plan_s": layers["cost.plan"],
        "cost.cache_hit_frac": _fraction(hits, hits + misses),
        "dominance.prune_s": layers["dominance.prune"],
        "dominance.plans_in": counts["dominance.plans_in"],
        "dominance.plans_out": counts["dominance.plans_out"],
        "dominance.kept_frac": _fraction(counts["dominance.plans_out"],
                                         counts["dominance.plans_in"]),
        "pipeline.prepare_s": layers["pipeline.prepare"],
        "pipeline.artifact_hit_frac": _fraction(
            artifact_hits, artifact_hits + artifact_misses),
        "optimizer.build_s": layers["optimizer.build"],
        "optimizer.reweight_s": layers["optimizer.reweight"],
        "optimizer.solve_s": layers["optimizer.solve"],
        "optimizer.columns": tracer.largest("optimizer.columns"),
        "optimizer.rows": tracer.largest("optimizer.rows"),
        "windows.self_s": layers["windows"],
        "backend.load_s": layers["backend.load"],
        "backend.query_s": layers["backend.query"],
        "backend.update_s": layers["backend.update"],
        "store.gets": served["gets"],
        "store.puts": served["puts"],
        "store.deletes": served["deletes"],
        "store.rows_scanned": served["rows_scanned"],
        "store.rows_read": served["rows_read"],
        "store.read_frac": _fraction(served["rows_read"],
                                     served["rows_scanned"]),
        "verify.checks": runner.checks if runner else 0,
        "verify.divergences": len(runner.divergences) if runner else 0,
        "trace.stage_gap_frac": gap,
        "trace_overhead_frac": traced.wall / untraced.wall - 1.0,
    }


class Checks:
    """Outcomes of the checks on one pass: a check that raises fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, check, *args):
        """Run ``check(*args)``, which returns failure messages and a
        value; returns the value, or None if the check raised."""
        self.attempted += 1
        try:
            found, value = check(*args)
        except Exception:  # every raise is a failed check
            found, value = [traceback.format_exc()], None
        if found:
            self.failed += 1
            self.messages += found
        return value


def verify(measured):
    """Check one pass's outputs; returns ``(checks, runner, notes)``
    with the :class:`DifferentialRunner` of the served sample (None if
    it could not run)."""
    scenario, inputs = measured.scenario, measured.inputs
    checks = Checks()
    advisor, cold = measured.cold
    gap = advisor.optimizer.mip_rel_gap
    priced = []

    def pricing(workload, recommendation, capped):
        found, notes = check_pricing(inputs.model, workload,
                                     recommendation, capped, gap)
        priced.append(notes)
        return found, None

    def cold_pricing():
        return pricing(inputs.advise, cold,
                       capped_labels(advisor.prepare(inputs.advise)))

    def epoch_pricing(weights, recommendation):
        epoch = inputs.drift.clone()
        for label, weight in weights.items():
            epoch.set_weight(label, weight, mix="epoch")
        return pricing(epoch.with_mix("epoch"), recommendation,
                       capped_labels(measured.prepared))

    def deterministic(outcome):
        # cold advise is deterministic: every repeat must match the first
        if outcome == first:
            return [], None
        return [f"cold advise is not deterministic: {outcome[0]!r} vs "
                f"{first[0]!r}"], None

    def execution():
        reads, writes = scenario.verify_sample
        dataset = scenario.dataset(inputs, measured.seed)
        runner = check_execution(
            inputs.model, measured.recommendation, dataset,
            scenario.stream(inputs, dataset, measured.seed),
            inputs.advise.statements, reads, writes)
        return ([divergence.message for divergence in runner.divergences],
                runner)

    checks.run(cold_pricing)
    first = _outcome(cold)
    for outcome in measured.cold_outcomes:
        checks.run(deterministic, outcome)
    for weights, recommendation in measured.readvised:
        checks.run(epoch_pricing, weights, recommendation)
    for recommendation in measured.windowed:
        checks.run(lambda: (check_windows(recommendation), None))
    runner = checks.run(execution)
    if runner is not None:
        # each replayed statement is a check, each divergence a failure
        checks.attempted += runner.checks - 1
        checks.failed += max(len(runner.divergences) - 1, 0)
    # above 0 when every windowed solve beats both holding one schema
    # (static) and migrating to each window's best (naive): a real
    # migrate-or-hold choice
    margins = [min(baseline["total"]
                   for baseline in recommendation.baselines.values())
               / recommendation.total_cost - 1.0
               for recommendation in measured.windowed]
    notes = {name: max((entry[name] for entry in priced), default=0.0)
             for name in ("capped_gap_frac", "plan_excess_frac")}
    notes["windows_margin_frac"] = min(margins, default=0.0)
    return checks, runner, notes


def _git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def header(root, workload, seed, seconds, trace):
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "workload": workload,
            "seed": seed, "seconds": seconds, "trace": trace}


def run(workload, seed, seconds, trace, root, scenario=None,
        trace_dir=None):
    """One benchmark run; returns ``(header, result, failure messages)``.

    ``scenario`` overrides the named workload's inputs (the harness
    tests shrink them); ``trace_dir`` receives a traced run's spans.
    """
    scenario = scenario or SCENARIOS[workload]()
    head = header(root, workload, seed, seconds, trace)
    passes = []
    try:
        if trace:
            untraced = Pass(scenario, seed, seconds,
                            rounds=scenario.traced_rounds)
            passes.append(untraced)
            untraced.run()
            with Tracer() as tracer:
                traced = Pass(scenario, seed, seconds,
                              rounds=scenario.traced_rounds, tracer=tracer)
                passes.append(traced)
                traced.run()
        else:
            passes.append(Pass(scenario, seed, seconds))
            passes[0].run()
        measured = passes[0]
        checks, runner, notes = verify(measured)
        if trace:
            metrics = per_layer(traced, untraced, runner)
            samples = {"rounds": scenario.traced_rounds,
                       "setups": scenario.setups,
                       "spans": len(tracer.spans)}
            _gap, stages = stage_gap(traced.stage_rows)
            head["stage_cross_check"] = stages
        else:
            metrics = measured.end_to_end()
            samples = measured.sample_counts()
            head["unscaled"] = {name: statistics.median(values)
                                for name, values in measured.raw.items()}
        head["host_scale"] = statistics.median(passes[0].scales)
        head["samples"] = samples
        head["verify"] = {"checks": checks.attempted, **notes}
    except Exception as error:  # no result, but still a printed failure
        checks = Checks()
        checks.attempted = checks.failed = 1
        checks.messages = [str(error) if isinstance(error, RunFailed)
                           else traceback.format_exc()]
        metrics = {}
    attempted = sum(p.attempted for p in passes) + checks.attempted
    failed = sum(p.failed for p in passes) + checks.failed
    errors = [e for p in passes for e in p.errors] + checks.messages
    if trace_dir is not None and passes and passes[-1].tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        passes[-1].tracer.write(
            trace_dir / f"{workload}-seed{seed}.json.gz", head)
    units = declared_units(root)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return head, result, errors
