"""Benchmark: monitor hook overhead on an unmonitored replay.

The monitoring policy (DESIGN.md, "Workload monitoring and drift")
promises that a replay with no monitor attached pays less than 5% for
the ingestion hooks.  The monitor is one of the engine's observers, so
an unmonitored replay pays one site per top-level statement: the
dispatch check ``self.observers or telemetry.current().enabled`` in
``execute_query`` and ``execute_update``, which is false over an empty
observer tuple with telemetry disabled.  When a recorder or telemetry
already forced the observed path, the monitor adds only its
:meth:`WorkloadMonitor.executed` call in ``_observed``'s observer loop.

A wall-clock A/B is too noisy to enforce 5% on a shared box, so —
exactly like ``test_profile_overhead.py`` — the guard bounds the cost
analytically: count the statement dispatches in one replay, measure
the disabled check in a tight loop, and assert sites x per-check cost
stays under 5% of the median unmonitored replay wall time.  The
estimate is conservative: every statement is charged the full
dispatch price.  Writes ``BENCH_monitor.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from repro import Advisor, telemetry
from repro.backend import ExecutionEngine
from repro.demo import hotel_dataset, hotel_model, hotel_workload
from repro.monitor import WorkloadMonitor
from repro.profile import request_schedule
from repro.randgen.data import BindingGenerator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OVERHEAD_BUDGET = 0.05
NULL_LOOP = 200_000
REQUESTS = 400


def _build():
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    recommendation = Advisor(model).recommend(workload)
    return model, workload, recommendation


def _replay(model, workload, recommendation, monitor=None):
    """One full replay; returns (monitor requests seen, wall seconds)."""
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    observers = () if monitor is None else (monitor,)
    engine = ExecutionEngine(model, recommendation, dataset,
                             observers=observers)
    engine.load()
    generator = BindingGenerator(dataset, seed=9, null_rate=0.0)
    replay = [(label, generator.bindings_for(
        workload.statements[label]))
        for label in request_schedule(workload, REQUESTS)]
    started = time.perf_counter()
    for label, params in replay:
        engine.execute(label, params)
    return engine, time.perf_counter() - started


def _null_dispatch_check_seconds():
    """Per-statement cost of the disabled monitor dispatch test.

    The exact expression the gates evaluate when nothing observes the
    replay: ``observers or telemetry.current().enabled`` over an empty
    observer tuple.
    """
    observers = ()
    started = time.perf_counter()
    for _ in range(NULL_LOOP):
        if observers or telemetry.current().enabled:
            raise AssertionError
    return (time.perf_counter() - started) / NULL_LOOP


def test_unmonitored_replay_overhead_under_budget():
    model, workload, recommendation = _build()

    # 1. count dispatch sites with a monitor attached
    monitor = WorkloadMonitor(workload)
    _engine, _seconds = _replay(model, workload, recommendation,
                                monitor=monitor)
    statements = monitor.requests
    # the schedule seeds every statement at least once, so it can run
    # slightly past REQUESTS; the monitor must have seen every dispatch
    assert statements >= REQUESTS

    # 2. median unmonitored replay wall time (the default replay
    # configuration: no monitor, no recorder, telemetry disabled)
    assert not telemetry.current().enabled
    samples = []
    for _ in range(3):
        _engine, seconds = _replay(model, workload, recommendation)
        samples.append(seconds)
    unmonitored_seconds = statistics.median(samples)

    # 3. bound the disabled-hook cost analytically
    overhead_seconds = statements * _null_dispatch_check_seconds()
    overhead_share = overhead_seconds / unmonitored_seconds

    payload = {
        "workload": "hotel (updates included)",
        "requests": statements,
        "estimated_overhead_seconds": overhead_seconds,
        "unmonitored_seconds_median": unmonitored_seconds,
        "unmonitored_samples": samples,
        "overhead_share": overhead_share,
        "budget": OVERHEAD_BUDGET,
    }
    (REPO_ROOT / "BENCH_monitor.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    print(f"\nreplay: {statements} statements, estimated monitor hook "
          f"overhead {overhead_share:.4%} of {unmonitored_seconds:.3f}s "
          f"(budget {OVERHEAD_BUDGET:.0%})")

    assert overhead_share < OVERHEAD_BUDGET, (
        f"unmonitored replay hook overhead {overhead_share:.2%} "
        f"exceeds the {OVERHEAD_BUDGET:.0%} budget")
