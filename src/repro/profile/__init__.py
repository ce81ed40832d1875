"""Execution profiling: replay a workload, measure it, grade the model.

``profile_recommendation`` is the one-call entry point behind
``nose-advisor profile``: load a recommendation into the in-memory
store, replay a weight-proportional request schedule through the
execution engine with a :class:`FlightRecorder` attached, and join the
measured per-statement latencies against the recommendation's explain
document into a "nose-profile/1" accuracy report (see
:mod:`repro.profile.report`).

The replay also captures per-operation
:class:`~repro.cost.calibrate.CalibrationSample` records, so
``fit_cost_model`` can be fed measured traffic instead of synthetic
probes — closing the calibrate-from-production loop the paper's
constant-fitting step assumes.
"""

from __future__ import annotations

from repro.backend.executor import ExecutionEngine
from repro.explain.document import explain_document
from repro.profile.recorder import FlightRecorder
from repro.profile.report import PROFILE_FORMAT, accuracy_report, spearman
from repro.randgen.data import BindingGenerator

__all__ = ["FlightRecorder", "PROFILE_FORMAT", "accuracy_report",
           "profile_recommendation", "request_schedule", "spearman"]


def request_schedule(workload, requests):
    """Statement labels for a replay, weight-proportional and interleaved.

    Every active statement appears at least once; beyond that, request
    counts are proportional to workload weights (largest-remainder
    rounding, so the total stays close to ``requests``).  Labels are
    interleaved round-robin rather than blocked per statement, so
    store state evolves the way a mixed workload would drive it.
    """
    weighted = sorted(workload.weighted_statements,
                      key=lambda pair: pair[0].label)
    if not weighted:
        return []
    total = sum(weight for _statement, weight in weighted)
    counts = {statement.label: max(1, round(requests * weight / total))
              for statement, weight in weighted}
    schedule = []
    remaining = dict(counts)
    while remaining:
        for statement, _weight in weighted:
            label = statement.label
            left = remaining.get(label)
            if left is None:
                continue
            schedule.append(label)
            if left <= 1:
                del remaining[label]
            else:
                remaining[label] = left - 1
    return schedule


def profile_recommendation(model, workload, recommendation, dataset,
                           seed=0, requests=200, protocol="nose",
                           share_reads=False, requests_factory=None,
                           capture_samples=True, meta=None):
    """Replay a recommendation and report measured-vs-predicted accuracy.

    Builds an :class:`ExecutionEngine` over a fresh store, attaches a
    :class:`FlightRecorder`, replays ``requests`` statements with
    parameters drawn from the live data (``BindingGenerator``, so reads
    usually hit rows), and joins the measurements against the
    recommendation's explain document.

    ``requests_factory``, when given, overrides the generic schedule:
    called as ``requests_factory(count, seed)``, it must return the
    ``(label, params)`` pairs to replay — the RUBiS benchmark plugs its
    transaction-coherent parameter generator in here.

    Returns ``(document, recorder)``: the "nose-profile/1" dict and the
    populated recorder (whose :meth:`~FlightRecorder
    .calibration_samples` feed ``fit_cost_model``).
    """
    recorder = FlightRecorder(capture_samples=capture_samples)
    engine = ExecutionEngine(model, recommendation, dataset,
                             share_reads=share_reads,
                             update_protocol=protocol,
                             observers=(recorder,))
    engine.store.recorder = recorder
    engine.load()
    if requests_factory is not None:
        replay = list(requests_factory(requests, seed))
    else:
        generator = BindingGenerator(dataset, seed=seed, null_rate=0.0)
        planned = ({query.label for query in recommendation.query_plans}
                   | {update.label
                      for update in recommendation.update_plans})
        replay = [(label,
                   generator.bindings_for(workload.statements[label]))
                  for label in request_schedule(workload, requests)
                  if label in planned]
    for label, params in replay:
        engine.execute(label, params)
    details = {"requests": len(replay), "seed": seed,
               "protocol": protocol, "share_reads": share_reads}
    details.update(meta or {})
    document = accuracy_report(recorder,
                               explain_document(recommendation),
                               meta=details)
    return document, recorder
