"""Benchmark: flight-recorder hook overhead on an unprofiled replay.

The profiling policy (DESIGN.md, "Execution profiling") promises that
a replay with no recorder attached and telemetry disabled pays less
than 5% for the observation hooks.  A direct wall-clock A/B is too
noisy to enforce 5% on a shared box, so the guard bounds the overhead
analytically, the same way ``test_telemetry_overhead.py`` does:

1. replay the hotel workload once *with* a recorder attached, as the
   engine's one observer and as ``engine.store.recorder``, and count
   the hook sites that fired — one per statement (the dispatch check
   ``self.observers or telemetry.current().enabled`` in
   ``execute_query``/``execute_update``, which skips ``_observed`` and
   its store-metric snapshots when idle) and one per charged store
   operation (the ``store.recorder`` attribute read);
2. measure the per-site cost of the *disabled* hooks — that dispatch
   check over an empty observer tuple and the null recorder-attribute
   read — in a tight loop;
3. assert that site-count x null-hook cost stays under 5% of the
   median unprofiled replay wall time.

The estimate is conservative: every site is charged the full null-hook
price.  Writes ``BENCH_profile.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from repro import Advisor, telemetry
from repro.backend import ExecutionEngine
from repro.demo import hotel_dataset, hotel_model, hotel_workload
from repro.profile import FlightRecorder, request_schedule
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


def _replay(model, workload, recommendation, recorder=None):
    """One full replay; returns (engine, wall seconds)."""
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    observers = () if recorder is None else (recorder,)
    engine = ExecutionEngine(model, recommendation, dataset,
                             observers=observers)
    engine.store.recorder = recorder
    engine.load()
    generator = BindingGenerator(dataset, seed=9, null_rate=0.0)
    replay = [(label, generator.bindings_for(
        workload.statements[label]))
        for label in request_schedule(workload, REQUESTS)]
    started = time.perf_counter()
    for label, params in replay:
        engine.execute(label, params)
    return engine, time.perf_counter() - started


def _null_statement_hook_seconds():
    """Per-statement cost of the disabled dispatch check."""
    observers = ()
    started = time.perf_counter()
    for _ in range(NULL_LOOP):
        if observers or telemetry.current().enabled:
            raise AssertionError
    return (time.perf_counter() - started) / NULL_LOOP


def _null_op_hook_seconds():
    """Per-operation cost of the null recorder-attribute read."""
    class Holder:
        recorder = None
    store = Holder()
    started = time.perf_counter()
    for _ in range(NULL_LOOP):
        if store.recorder is not None:
            raise AssertionError
    return (time.perf_counter() - started) / NULL_LOOP


def test_unprofiled_replay_overhead_under_budget():
    model, workload, recommendation = _build()

    # 1. count hook sites with a recorder attached
    recorder = FlightRecorder()
    engine, _seconds = _replay(model, workload, recommendation,
                               recorder=recorder)
    statements = recorder.total_requests()
    metrics = engine.store.metrics
    operations = metrics.gets + metrics.puts + metrics.deletes
    assert statements > 0 and operations > 0

    # 2. median unprofiled replay wall time (no recorder, telemetry
    # disabled — the default replay configuration)
    assert not telemetry.current().enabled
    samples = []
    for _ in range(3):
        _engine, seconds = _replay(model, workload, recommendation)
        samples.append(seconds)
    unprofiled_seconds = statistics.median(samples)

    # 3. bound the disabled-hook cost analytically
    overhead_seconds = (statements * _null_statement_hook_seconds()
                        + operations * _null_op_hook_seconds())
    overhead_share = overhead_seconds / unprofiled_seconds

    payload = {
        "workload": "hotel (updates included)",
        "requests": statements,
        "store_operations": operations,
        "estimated_overhead_seconds": overhead_seconds,
        "unprofiled_seconds_median": unprofiled_seconds,
        "unprofiled_samples": samples,
        "overhead_share": overhead_share,
        "budget": OVERHEAD_BUDGET,
    }
    (REPO_ROOT / "BENCH_profile.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    print(f"\nreplay: {statements} statements, {operations} store "
          f"ops, estimated hook overhead {overhead_share:.4%} of "
          f"{unprofiled_seconds:.3f}s (budget {OVERHEAD_BUDGET:.0%})")

    assert overhead_share < OVERHEAD_BUDGET, (
        f"unprofiled replay hook overhead {overhead_share:.2%} "
        f"exceeds the {OVERHEAD_BUDGET:.0%} budget")
