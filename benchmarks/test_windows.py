"""Benchmark: windowed advising beats both single-strategy baselines.

The windowed deliverable (ISSUE 10): on the RUBiS browsing->bidding->
browsing drift schedule, the schedule chosen by the windowed BIP —
schemas per window plus costed migrations between them — must be
*strictly* cheaper than (a) the best static single schema held across
all windows and (b) naive per-window re-advising with migrations
priced after the fact.  All three strategies are scored by the same
evaluator (see :mod:`repro.windows.advisor`), so the comparison is
apples-to-apples by construction and the assertion guards the solver
actually exploiting the middle ground: migrating only the column
families whose per-window win covers their load cost.

Also checks that two runs, each on a fresh advisor, write
byte-identical "nose-windows/1" documents through :mod:`repro.io` —
the acceptance criterion CI's artifact diffing relies on — and times a
warm second call on the first run's advisor, which re-costs and
re-solves the programs the first call kept; its total must equal the
cold one within ``mip_rel_gap``.  Writes ``BENCH_windows.json`` at the
repo root, with each call's wall time and ``timing`` split.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro import Advisor
from repro.io import dump_document
from repro.optimizer import BIPOptimizer
from repro.windows import recommend_windows, rubis_drift_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

USERS = 2000
BROWSING_REQUESTS = 6000.0
BIDDING_REQUESTS = 6000.0
LOAD_RATE = 0.15


#: the ``timing`` entries recorded per call
TIMING_SPLIT = ("static", "naive", "windowed_solve")


def _run():
    """One ``recommend_windows`` call on a fresh advisor:
    ``(recommendation, seconds, repeat)``, where ``repeat()`` times the
    same call again on the same advisor."""
    model, workload, schedule, migration_model = rubis_drift_scenario(
        users=USERS, browsing_requests=BROWSING_REQUESTS,
        bidding_requests=BIDDING_REQUESTS, load_rate=LOAD_RATE)
    advisor = Advisor(model)

    def call():
        started = time.perf_counter()
        recommendation = recommend_windows(
            advisor, workload, schedule, migration_model=migration_model)
        return recommendation, time.perf_counter() - started

    return (*call(), call)


def _split(recommendation):
    return {name: recommendation.timing[name] for name in TIMING_SPLIT}


def test_windowed_schedule_beats_static_and_naive(tmp_path):
    recommendation, seconds, repeat = _run()
    warm, warm_seconds = repeat()
    windowed = recommendation.total_cost
    static = recommendation.baselines["static"]["total"]
    naive = recommendation.baselines["naive_per_window"]["total"]

    meta = {"source": "rubis-drift", "users": USERS}
    document = recommendation.document(meta=meta)
    again, again_seconds, _repeat = _run()
    first_path = dump_document(document, tmp_path / "first.json")
    second_path = dump_document(again.document(meta=meta),
                                tmp_path / "second.json")
    byte_stable = pathlib.Path(first_path).read_bytes() \
        == pathlib.Path(second_path).read_bytes()

    payload = {
        "scenario": {
            "users": USERS,
            "schedule": [
                {"label": window.label, "mix": window.mix,
                 "requests": window.requests}
                for window in recommendation.schedule],
            "migration_model":
                recommendation.migration_model.cost_terms(),
        },
        "windowed": {
            "serving": recommendation.serving_cost,
            "migration": recommendation.migration_cost,
            "total": windowed,
            "schemas": [sorted(result.keys)
                        for result in recommendation.windows],
        },
        "static": recommendation.baselines["static"],
        "naive_per_window":
            recommendation.baselines["naive_per_window"],
        "savings_vs_static_pct": 100.0 * (static - windowed) / static,
        "savings_vs_naive_pct": 100.0 * (naive - windowed) / naive,
        "byte_stable_across_runs": byte_stable,
        "cpu_count": os.cpu_count(),
        # first and second: fresh advisors; warm: the first advisor
        # called again
        "wall_seconds": {"first": seconds, "second": again_seconds,
                         "warm": warm_seconds},
        "timing": {"first": _split(recommendation),
                   "second": _split(again), "warm": _split(warm)},
        "warm_total": warm.total_cost,
    }
    # baseline window entries hold WindowResult objects; keep the keys
    for name in ("static", "naive_per_window"):
        payload[name] = {
            "serving": payload[name]["serving"],
            "migration": payload[name]["migration"],
            "total": payload[name]["total"],
            "schemas": [sorted(result.keys)
                        for result in payload[name]["windows"]],
        }
    (REPO_ROOT / "BENCH_windows.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(f"\nwindowed {windowed:.1f} vs static {static:.1f} "
          f"({payload['savings_vs_static_pct']:.2f}% saved) vs naive "
          f"{naive:.1f} ({payload['savings_vs_naive_pct']:.2f}% saved)")

    assert windowed < static, (
        f"windowed schedule ({windowed:.3f}) must be strictly cheaper "
        f"than the static schema ({static:.3f})")
    assert windowed < naive, (
        f"windowed schedule ({windowed:.3f}) must be strictly cheaper "
        f"than naive per-window re-advising ({naive:.3f})")
    assert byte_stable, (
        "two runs' windows documents must be byte-identical")
    # the default gap, shared by the advisor and the windowed solve
    gap = BIPOptimizer().mip_rel_gap
    assert abs(warm.total_cost - windowed) <= gap * windowed, (
        f"the warm call's total ({warm.total_cost:.3f}) must equal the "
        f"cold one ({windowed:.3f}) within mip_rel_gap={gap:g}")
