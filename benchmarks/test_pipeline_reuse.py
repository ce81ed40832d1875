"""Benchmark: staged pipeline reuse on the RuBiS bidding mix.

Measures the tentpole claim of the staged advisor pipeline: after one
cold ``recommend`` the structural cache holds the enumerated candidates,
plan spaces and BIP matrix, so a weight-only retune (``recommend`` with
scaled weights, or ``recommend_prepared`` with a new weight map) skips
enumeration, planning, costing and pruning and only re-solves the
program.  The warm path must return the *same* recommendation a cold
solve of the retuned workload would.

Writes ``BENCH_pipeline.json`` at the repo root with both timings.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from bench_common import write_result
from repro import Advisor
from repro.reporting import timing_table
from repro.rubis import rubis_model, rubis_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WARM_EPOCHS = 5
#: complete plan spaces for the workload queries — the benchmark should
#: not measure a truncated search (only the deliberate dense-support
#: caps remain, as in every configuration)
MAX_PLANS = 4000


def _fingerprint(recommendation):
    return {
        "indexes": sorted(index.key for index in recommendation.indexes),
        "query_plans": {query.label: plan.signature
                        for query, plan
                        in recommendation.query_plans.items()},
    }


def _timed(function):
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def _stage_row(timing):
    # stage_breakdown's buckets are disjoint and sum to the total —
    # the earlier as_figure13_row-based row double-counted enumeration,
    # planning and pruning inside its rolled-up "other" share
    row = timing.stage_breakdown()
    row["total"] = timing.total
    row["cache_hits"] = timing.cache_hits
    return row


def test_pipeline_reuse_speedup():
    model = rubis_model()
    workload = rubis_workload(model, mix="bidding")

    # median of three independent cold solves — single-shot timings on a
    # shared box are too noisy to headline
    cold_samples = []
    for _ in range(3):
        advisor = Advisor(model, max_plans=MAX_PLANS)
        cold_rec, seconds = _timed(lambda: advisor.recommend(workload))
        cold_samples.append(seconds)
    cold_seconds = statistics.median(cold_samples)

    rows = {"cold": cold_rec.timing}
    warm_seconds = []
    warm_identical = True
    for epoch in range(1, WARM_EPOCHS + 1):
        factor = 1.0 + epoch / 10.0
        tuned = workload.scale_weights(factor)
        warm_rec, seconds = _timed(lambda: advisor.recommend(tuned))
        warm_seconds.append(seconds)
        rows[f"warm x{factor:g}"] = warm_rec.timing
        assert warm_rec.timing.planning == 0.0, \
            "warm epoch unexpectedly re-planned"
        fresh = Advisor(model, max_plans=MAX_PLANS).recommend(tuned)
        identical = _fingerprint(warm_rec) == _fingerprint(fresh)
        warm_identical = warm_identical and identical
        assert identical, f"warm epoch x{factor:g} diverged from fresh"

    warm_median = statistics.median(warm_seconds)
    speedup = cold_seconds / warm_median

    payload = {
        "workload": "rubis/bidding",
        "cold_seconds": cold_seconds,
        "cold_samples": cold_samples,
        "warm_seconds": warm_seconds,
        "warm_seconds_median": warm_median,
        "speedup": speedup,
        "identical_recommendation": warm_identical,
        "warm_epochs": WARM_EPOCHS,
        "cold_stages": _stage_row(cold_rec.timing),
        "warm_stages": _stage_row(warm_rec.timing),
    }
    (REPO_ROOT / "BENCH_pipeline.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    table = timing_table(rows)
    summary = (f"{table}\n\n"
               f"cold recommend:        {cold_seconds:.4f}s\n"
               f"warm retune (median):  {warm_median:.4f}s\n"
               f"speedup:               {speedup:.1f}x\n"
               f"identical result:      {warm_identical}\n")
    print()
    print(summary)
    write_result("pipeline_reuse.txt", summary)

    # acceptance: warm weight-only retune >= 5x faster than cold solve
    assert speedup >= 5.0, \
        f"pipeline reuse speedup {speedup:.1f}x below the 5x target"
