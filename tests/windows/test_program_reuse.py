"""The windowed advisor keeps its programs across calls.

``recommend_windows`` keeps the windowed program and the naive
baseline's per-window programs on the union view's prepared workload.
A later call over the same statements re-costs them in place and
re-solves each from its last solution, so its answer may differ from a
fresh advisor's only within ``mip_rel_gap``.
"""

import random

import numpy as np
import pytest

from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.tools import MigrationCostModel
from repro.windows import (
    WindowSchedule,
    recommend_windows,
    rubis_drift_scenario,
)
from repro.windows.bip import WindowedProgram

#: HiGHS' default MIP feasibility tolerance, as in test_mip_start.py
MIP_FEASIBILITY = 1e-6

# the demo workloads hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _kept(advisor):
    """The programs the advisor's only prepared workload keeps."""
    (prepared,) = advisor._prepared.values()
    return prepared._window_programs


def test_reweighted_windowed_program_equals_a_fresh_build():
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    workload.scale_weights(50, mix="writes")
    schedule = WindowSchedule([("default", 400.0), ("writes", 400.0),
                               ("default", 400.0)])
    advisor = Advisor(model)
    recommend_windows(advisor, workload, schedule)
    (program,) = [program for program in _kept(advisor).values()
                  if isinstance(program, WindowedProgram)]
    before = list(program.costs)
    rows = [{label: weight * factor for label, weight in row.items()}
            for row, factor in zip(program.window_weights,
                                   (0.5, 1.7, 3.0))]
    pricing = MigrationCostModel(row_cost=0.4)
    program.reweight(rows, pricing)
    fresh = WindowedProgram(program.query_plans, program.update_plans,
                            rows, program.indexes, pricing,
                            initial=program.initial_keys,
                            space_limit=program.space_limit)
    assert program.costs != before
    assert program.costs == fresh.costs
    # re-costing leaves the rows as a fresh build lays them out
    for kept, built in zip(program._matrix(), fresh._matrix()):
        np.testing.assert_array_equal(kept, built)


def test_drifting_schedules_on_a_warm_advisor_match_fresh_ones():
    model, workload, schedule, pricing = rubis_drift_scenario()
    advisor = Advisor(model)
    recommend_windows(advisor, workload, schedule,
                      migration_model=pricing)
    gap = advisor.optimizer.mip_rel_gap
    rng = random.Random(2026)
    kept = []
    for _ in range(8):
        drifted = WindowSchedule([
            (window.mix, window.requests * rng.uniform(0.5, 1.5))
            for window in schedule])
        warm = recommend_windows(advisor, workload, drifted,
                                 migration_model=pricing)
        fresh = recommend_windows(Advisor(model), workload, drifted,
                                  migration_model=pricing)
        tolerance = (gap * max(warm.total_cost, fresh.total_cost)
                     + (1e-7 + MIP_FEASIBILITY) * (1.0 + fresh.total_cost))
        assert abs(warm.total_cost - fresh.total_cost) <= tolerance
        for baseline in warm.baselines.values():
            assert warm.total_cost <= baseline["total"]
        kept.append({key: id(program)
                     for key, program in _kept(advisor).items()})
    # drifted volumes make all three naive windows distinct, so the
    # first drifted call builds a program for the second browsing
    # window; every later call reuses the same four programs
    assert len(kept[0]) == 4
    assert all(programs == kept[0] for programs in kept)
