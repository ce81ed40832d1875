"""Each re-solve of one program starts from its last phase-1 solution.

A fresh program hands HiGHS no MIP start, so a cold answer is the same
as without one; a warm answer may differ from a fresh program's only
within ``mip_rel_gap``.  ``recommend_windows`` keeps its naive-baseline
and windowed programs on the prepared workload, so a second call seeds
them too.  Phase 2 is never seeded.
"""

import random

import numpy as np
import pytest

import repro.optimizer.bip as bip_module
from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.optimizer import BIPOptimizer
from repro.rubis import rubis_model, rubis_workload
from repro.telemetry import activate
from repro.windows import WindowSchedule, recommend_windows
from repro.windows.bip import WindowedProgram

real_run = bip_module.run_highs

#: HiGHS' default MIP feasibility tolerance: the phase-2 cost cap may
#: be overrun by this much (relative to ``1 + |objective|``)
MIP_FEASIBILITY = 1e-6

# the demo workloads hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


@pytest.fixture
def runs(monkeypatch):
    """Every HiGHS solve as ``[tag, start, x]``, in call order; a test
    sets ``tag[0]`` to label the solves that follow."""
    calls = []
    tag = ["advise"]

    def recording(model, options, start=None):
        result = real_run(model, options, start)
        calls.append((tag[0], start, result.x))
        return result

    monkeypatch.setattr(bip_module, "run_highs", recording)
    return calls, tag


def _hotel():
    model = hotel_model()
    return model, hotel_workload(model, include_updates=True)


def test_second_solve_starts_from_the_first_phase1_solution(runs):
    calls, _tag = runs
    model, workload = _hotel()
    Advisor(model).recommend(workload)
    # a cold advise: neither phase gets a start
    assert len(calls) == 2
    assert all(start is None for _tag, start, _x in calls)
    calls.clear()
    advisor = Advisor(model)
    prepared = advisor.prepare(workload)
    reweighted = {label: 1.0 + position % 3 for position, label
                  in enumerate(sorted(workload.statements))}
    with activate() as sink:
        advisor.recommend_prepared(prepared)
        advisor.recommend_prepared(prepared, weights=reweighted)
    (_, first_start, first_x), (_, phase2_start, _), \
        (_, second_start, _), (_, second_phase2_start, _) = calls
    assert first_start is None and phase2_start is None
    np.testing.assert_array_equal(second_start, first_x)
    assert second_phase2_start is None
    metrics = sink.report().metrics
    assert metrics["counters"]["bip.started"] == 1
    assert 0.0 <= metrics["gauges"]["bip.mip_gap"] <= 0.02
    assert "bip.dual_bound" in metrics["gauges"]


def test_windows_programs_are_kept_and_seeded_across_calls(runs,
                                                            monkeypatch):
    calls, tag = runs
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    workload.scale_weights(50, mix="writes")
    schedule = WindowSchedule([("default", 400.0), ("writes", 400.0),
                               ("default", 400.0)])
    advisor = Advisor(model)
    windowed_solve = WindowedProgram.solve

    def tagged(name, function):
        def call(*args, **kwargs):
            tag[0] = name
            try:
                return function(*args, **kwargs)
            finally:
                tag[0] = "naive"
        return call

    # every solve outside the static baseline and the windowed program
    # is a naive-baseline window's
    advisor.recommend_prepared = tagged("static",
                                        advisor.recommend_prepared)
    monkeypatch.setattr(WindowedProgram, "solve",
                        tagged("windowed", windowed_solve))
    for _ in range(2):
        tag[0] = "naive"
        recommend_windows(advisor, workload, schedule)
    solves = {}
    for name, start, x in calls:
        solves.setdefault(name, []).append((start, x))
    starts = {name: [start is not None for start, _x in solved]
              for name, solved in solves.items()}
    # two distinct windows per call, each solved in two phases: the
    # first call is unseeded, and the second call's phase 1 of each
    # window starts from that window's first phase-1 solution
    assert starts["naive"] == [False] * 4 + [True, False] * 2
    naive = solves["naive"]
    for first, second in ((0, 4), (2, 6)):
        np.testing.assert_array_equal(naive[second][0], naive[first][1])
    # the windowed program's second solve starts from its first
    assert starts["windowed"] == [False, True]
    windowed = solves["windowed"]
    np.testing.assert_array_equal(windowed[1][0], windowed[0][1])
    # the static baseline re-solves the prepared program: the second
    # call's phase 1 starts from the first call's
    assert starts["static"] == [False, False, True, False]


def test_seeded_resolves_stay_within_the_gap_of_fresh_ones():
    model = rubis_model(users=2_000)
    workload = rubis_workload(model, mix="bidding")
    advisor = Advisor(model)
    gap = advisor.optimizer.mip_rel_gap
    prepared = advisor.prepare(workload)
    advisor.recommend_prepared(prepared)
    rng = random.Random(2026)
    labels = sorted(workload.statements)
    with activate() as sink:
        for _ in range(10):
            weights = {label: rng.uniform(0.01, 1.0) for label in labels}
            seeded = advisor.recommend_prepared(prepared, weights=weights)
            # a fresh program over the same problem gets no start
            fresh = BIPOptimizer(mip_rel_gap=gap).solve(
                prepared._program.problem)
            scale = 1.0 + abs(fresh.total_cost)
            tolerance = (gap * max(abs(seeded.total_cost),
                                   abs(fresh.total_cost))
                         + (1e-7 + MIP_FEASIBILITY) * scale)
            assert abs(seeded.total_cost - fresh.total_cost) <= tolerance
    assert sink.report().metrics["counters"]["bip.started"] == 10
