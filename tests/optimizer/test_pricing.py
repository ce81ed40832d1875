"""The fixed-schema pricer as an oracle for the selection programs.

``OptimizationProblem.price`` is the one evaluator of a fixed schema;
the BIP's recommendation, the windowed program's single-window
objective and the solver's status handling are all checked against it.
"""

import pytest
from scipy.optimize._highspy._core import HighsModelStatus

import repro.optimizer.bip as bip_module
from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import OptimizationError
from repro.optimizer import BIPOptimizer
from repro.randgen import random_model, random_workload
from repro.rubis import rubis_model, rubis_workload
from repro.telemetry import activate
from repro.tools import MigrationCostModel
from repro.windows import WindowedProgram

real_run = bip_module.run_highs

# the demo and random workloads hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _solved(model, workload):
    """An exact recommendation and the problem the BIP solved."""
    advisor = Advisor(model, optimizer=BIPOptimizer(mip_rel_gap=0.0))
    prepared = advisor.prepare(workload)
    recommendation = advisor.recommend_prepared(prepared)
    return recommendation, prepared._program.problem


def _hotel():
    model = hotel_model()
    return model, hotel_workload(model)


def _rubis_bidding():
    model = rubis_model(users=2_000)
    return model, rubis_workload(model, mix="bidding")


def _randgen():
    model = random_model(entities=6, seed=3)
    return model, random_workload(model, queries=6, updates=2, inserts=1,
                                  seed=3)


WORKLOADS = [_hotel, _rubis_bidding, _randgen]


@pytest.fixture(scope="module", params=WORKLOADS,
                ids=["hotel", "rubis-bidding", "randgen"])
def solved(request):
    return _solved(*request.param())


def test_price_of_recommended_schema_is_its_total_cost(solved):
    recommendation, problem = solved
    priced = problem.price(index.key for index in recommendation.indexes)
    assert priced is not None
    assert priced.cost == pytest.approx(recommendation.total_cost,
                                        rel=1e-6)
    assert priced.query_plans == recommendation.query_plans
    assert priced.used_keys == {index.key
                                for index in recommendation.indexes}


def test_randgen_workload_has_maintained_column_families():
    recommendation, problem = _solved(*_randgen())
    assert problem.update_plans
    assert any(plan.support_plans
               for plans in problem.update_plans.values()
               for plan in plans)


def test_price_rejects_infeasible_and_oversized_schemas():
    _recommendation, problem = _solved(*_hotel())
    assert problem.price(()) is None
    problem.space_limit = 0.0
    everything = [index.key for index in problem.indexes]
    assert problem.price(everything) is None


def test_one_window_program_matches_single_schema_objective(solved):
    """A one-window schedule with free migrations is the plain program:
    the shared block builder must lay out the same optimum."""
    _recommendation, problem = solved
    assert all(weight > 0 for weight in problem.weights.values())
    phase1 = BIPOptimizer(mip_rel_gap=0.0,
                          minimize_schema_size=False).solve(problem)
    program = WindowedProgram(problem.query_plans, problem.update_plans,
                              [problem.weights], problem.indexes,
                              MigrationCostModel(row_cost=0.0))
    program.solve(mip_rel_gap=0.0)
    assert program.objective_value == pytest.approx(phase1.total_cost,
                                                    rel=1e-6)


# -- solver outcomes ---------------------------------------------------------


def _hotel_problem():
    return _solved(*_hotel())[1]


def test_time_limited_incumbent_is_counted(monkeypatch):
    def limited(*args, **kwargs):
        result = real_run(*args, **kwargs)
        return result._replace(status=HighsModelStatus.kTimeLimit)

    problem = _hotel_problem()
    monkeypatch.setattr(bip_module, "run_highs", limited)
    with activate() as sink:
        recommendation = BIPOptimizer().solve(problem)
        WindowedProgram(problem.query_plans, problem.update_plans,
                        [problem.weights], problem.indexes,
                        MigrationCostModel()).solve()
    counters = sink.report().metrics["counters"]
    # two BIP phases and one windowed solve, each accepted
    assert counters["bip.time_limited"] == 3
    assert recommendation.indexes


def test_failed_phase2_keeps_phase1_solution(monkeypatch):
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(1)
        result = real_run(*args, **kwargs)
        if len(calls) == 2:
            result = result._replace(status=HighsModelStatus.kInfeasible,
                                     x=None)
        return result

    problem = _hotel_problem()
    expected = BIPOptimizer(minimize_schema_size=False).solve(problem)
    monkeypatch.setattr(bip_module, "run_highs", failing_second)
    with activate() as sink:
        recommendation = BIPOptimizer().solve(problem)
    counters = sink.report().metrics["counters"]
    assert counters["bip.phase2_failed"] == 1
    assert recommendation.total_cost == expected.total_cost
    assert ({index.key for index in recommendation.indexes}
            == {index.key for index in expected.indexes})


def test_failed_solve_raises(monkeypatch):
    def failing(*args, **kwargs):
        result = real_run(*args, **kwargs)
        return result._replace(status=HighsModelStatus.kInfeasible, x=None)

    problem = _hotel_problem()
    monkeypatch.setattr(bip_module, "run_highs", failing)
    with pytest.raises(OptimizationError, match="BIP solve failed"):
        BIPOptimizer().solve(problem)
