"""Integration tests for the end-to-end schema advisor."""

import json

import pytest

from repro import Advisor, Workload, telemetry
from repro.advisor import prune_dominated_plans
from repro.cost import SimpleCostModel
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import OptimizationError, PlanningError


@pytest.fixture(scope="module")
def read_recommendation(request):
    from repro.demo import hotel_model, hotel_workload
    model = hotel_model()
    workload = hotel_workload(model, include_updates=False)
    return model, workload, Advisor(model).recommend(workload)


def test_every_query_has_a_plan(read_recommendation):
    _model, workload, recommendation = read_recommendation
    assert set(recommendation.query_plans) == set(workload.queries)


def test_plans_only_use_recommended_indexes(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    keys = {index.key for index in recommendation.indexes}
    for plan in recommendation.query_plans.values():
        assert {index.key for index in plan.indexes} <= keys


def test_read_only_workload_gets_materialized_views(read_recommendation):
    """With no updates and no space limit, every query should be served
    by a single get (the paper's fully denormalized regime)."""
    _model, _workload, recommendation = read_recommendation
    for query, plan in recommendation.query_plans.items():
        assert len(plan.lookup_steps) == 1, query.label


def test_timing_breakdown_populated(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    timing = recommendation.timing
    assert timing.total > 0
    row = timing.as_figure13_row()
    assert set(row) == {"cost_calculation", "bip_construction",
                        "bip_solving", "other", "total"}
    assert row["total"] >= row["cost_calculation"]
    assert timing.other >= 0
    assert timing.candidates > 0


def test_updates_constrain_denormalization(hotel):
    """§II: under update pressure the POI attributes move out of the
    denormalized guest view into a shared, normalized column family."""
    from repro.demo import hotel_model, hotel_workload
    model = hotel_model()
    advisor = Advisor(model)
    reads = advisor.recommend(hotel_workload(model,
                                             include_updates=False))
    description = model.field("PointOfInterest", "POIDescription")
    copies_read_only = sum(1 for index in reads.indexes
                           if index.contains_field(description))
    heavy = hotel_workload(model, include_updates=True)
    heavy.set_weight("update_poi_description", 500.0)
    writes = advisor.recommend(heavy)
    copies_update_heavy = sum(1 for index in writes.indexes
                              if index.contains_field(description))
    assert copies_update_heavy <= copies_read_only


def test_space_limit_shrinks_schema(read_recommendation):
    model, workload, unconstrained = read_recommendation
    limit = unconstrained.size * 0.4
    constrained = Advisor(model).recommend(workload, space_limit=limit)
    assert constrained.size <= limit
    assert constrained.total_cost >= unconstrained.total_cost


def test_alternate_cost_model(read_recommendation):
    model, workload, _ = read_recommendation
    advisor = Advisor(model, cost_model=SimpleCostModel())
    recommendation = advisor.recommend(workload)
    # with request counting, the optimum is one get per query
    assert recommendation.total_cost == pytest.approx(
        sum(workload.weight(query) for query in workload.queries))


def test_plan_for_schema_round_trip(read_recommendation):
    """Planning the workload against the advisor's own schema must find
    plans at most as expensive as the recommendation's."""
    model, workload, recommendation = read_recommendation
    advisor = Advisor(model)
    fixed = advisor.plan_for_schema(workload, recommendation.indexes)
    assert fixed.total_cost <= recommendation.total_cost * 1.001


def test_plan_for_schema_rejects_insufficient_schema(read_recommendation):
    model, workload, _ = read_recommendation
    from repro.indexes import entity_fetch_index
    with pytest.raises(PlanningError):
        Advisor(model).plan_for_schema(
            workload, [entity_fetch_index(model.entity("Guest"))])


def test_prune_dominated_plans_keeps_cheapest():
    class Plan:
        def __init__(self, cost, keys):
            self.cost = cost
            self.indexes = [type("I", (), {"key": key})()
                            for key in keys]
    plans = [Plan(5.0, ["a"]), Plan(3.0, ["a"]), Plan(4.0, ["a", "b"])]
    pruned = prune_dominated_plans(plans)
    assert {plan.cost for plan in pruned} == {3.0, 4.0}
    assert prune_dominated_plans(plans, keep=1)[0].cost == 3.0


def test_recommendation_describe_round_trip(read_recommendation):
    _model, _workload, recommendation = read_recommendation
    text = recommendation.describe()
    assert "column families" in text
    assert "Plan for" in text


# -- degenerate optimizer inputs ----------------------------------------------

def test_empty_workload_is_an_optimization_error():
    model = hotel_model()
    with pytest.raises(OptimizationError, match="no statements"):
        Advisor(model).recommend(Workload(model))


def test_all_zero_weights_are_an_optimization_error():
    model = hotel_model()
    workload = hotel_workload(model)
    for label in workload.statements:
        workload.set_weight(label, 0.0)
    with pytest.raises(OptimizationError, match="positive weight"):
        Advisor(model).recommend(workload)


def test_space_limit_below_every_schema_names_the_limit(
        read_recommendation):
    model, workload, _recommendation = read_recommendation
    with pytest.raises(OptimizationError, match="space_limit=1:"):
        Advisor(model).recommend(workload, space_limit=1.0)


def _explained(advisor, workload, space_limit):
    """The advisor's explain document (JSON text), or the error text
    when no schema fits ``space_limit``."""
    try:
        recommendation = advisor.recommend(workload,
                                           space_limit=space_limit)
    except OptimizationError as error:
        return f"error: {error}"
    return json.dumps(recommendation.explain_document(), sort_keys=True)


def test_space_limit_sweep_reuses_one_program():
    """The space limit is a solve input: one advisor sweeping it builds
    one program, and each solve matches a fresh advisor's byte for
    byte — the infeasible budgets included."""
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    with telemetry.activate() as sink:
        full = advisor.recommend(workload)
        full_size = full.size
        limits = [None] + [full_size * fraction for fraction
                           in (0.9, 0.75, 0.6, 0.5, 0.4)] + [None]
        swept = [_explained(advisor, workload, limit) for limit in limits]
    counters = sink.report().metrics["counters"]
    assert counters["bip.programs_built"] == 1
    fresh = [_explained(Advisor(model), workload, limit)
             for limit in limits]
    assert swept == fresh
    assert any(text.startswith("error: no schema fits")
               for text in swept)
    assert sum(not text.startswith("error") for text in swept) >= 4
