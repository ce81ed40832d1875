"""Tests for the staged advisor pipeline (prepare / recommend_prepared).

The staged pipeline must be an equivalence-preserving refactor of the
one-shot ``recommend``: cold and warm solves and re-costed weight
changes must all produce the same recommendation a fresh advisor
would.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Advisor, TruncationWarning
from repro.advisor import prune_dominated_plans, prune_plan_space
from repro.cost import CassandraCostModel
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import OptimizationError
from repro.planner.plans import PlanSpace


def _fingerprint(recommendation):
    """Everything that identifies a recommendation's outcome."""
    return {
        "indexes": sorted(index.key for index in recommendation.indexes),
        "cost": round(recommendation.total_cost, 6),
        "query_plans": {query.label: plan.signature
                        for query, plan
                        in recommendation.query_plans.items()},
    }


@pytest.fixture(scope="module")
def hotel_setup():
    model = hotel_model()
    return model, hotel_workload(model)


# -- recommend() == prepare() + recommend_prepared() -----------------------


def test_recommend_equals_prepared_cold(hotel_setup):
    model, workload = hotel_setup
    baseline = Advisor(model).recommend(workload)
    advisor = Advisor(model)
    prepared = advisor.prepare(workload)
    staged = advisor.recommend_prepared(prepared)
    assert _fingerprint(staged) == _fingerprint(baseline)
    # the explicit cold path attributes enumeration/planning time
    assert staged.timing.enumeration > 0
    assert staged.timing.planning > 0


def test_recommend_equals_prepared_warm(hotel_setup):
    model, workload = hotel_setup
    advisor = Advisor(model)
    cold = advisor.recommend(workload)
    warm = advisor.recommend(workload)
    assert _fingerprint(warm) == _fingerprint(cold)
    # the warm call skipped enumeration, planning and pruning...
    assert warm.timing.enumeration == 0.0
    assert warm.timing.planning == 0.0
    assert warm.timing.pruning == 0.0
    assert warm.timing.cost_calculation == 0.0
    # ...and says so
    assert warm.timing.cache_hits >= 1
    assert cold.timing.cache_hits >= 1  # lookup-cost memo hits


def test_prepare_is_cached_by_structure(hotel_setup):
    model, _workload = hotel_setup
    advisor = Advisor(model)
    # two distinct workload objects with identical statements share one
    # prepared workload; a structural change (no updates) does not
    first = advisor.prepare(hotel_workload(model))
    second = advisor.prepare(hotel_workload(model))
    reads = advisor.prepare(hotel_workload(model,
                                           include_updates=False))
    assert second is first
    assert second.reuse_count == 1
    assert reads is not first


def test_weight_change_matches_fresh_solve(hotel_setup):
    model, _workload = hotel_setup
    shared = Advisor(model)
    workload = hotel_workload(model)
    shared.recommend(workload)  # cold solve fills every cache

    scaled = workload.scale_weights(25.0)
    warm = shared.recommend(scaled)
    assert warm.timing.planning == 0.0
    fresh = Advisor(model).recommend(scaled)
    assert _fingerprint(warm) == _fingerprint(fresh)


# -- property: re-costing equals a fresh solve -----------------------------


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(factors=st.lists(st.floats(0.1, 50.0), min_size=4, max_size=4))
def test_reweighted_solve_matches_fresh_solve(factors):
    model = hotel_model()
    workload = hotel_workload(model)
    advisor = _reweight_advisor(model)
    labels = [statement.label for statement, _
              in workload.weighted_statements]
    weights = {label: factors[i % len(factors)]
               for i, label in enumerate(labels)}

    prepared = advisor.prepare(workload)
    warm = advisor.recommend_prepared(prepared, weights=weights)

    fresh_workload = hotel_workload(model)
    for label, weight in weights.items():
        fresh_workload.set_weight(label, weight)
    fresh = Advisor(model).recommend(fresh_workload)
    assert warm.total_cost == pytest.approx(fresh.total_cost, rel=1e-6)
    assert _fingerprint(warm)["indexes"] == _fingerprint(fresh)["indexes"]


_REWEIGHT_ADVISORS = {}


def _reweight_advisor(model):
    """One advisor reused across hypothesis examples, so later examples
    exercise the warm reweight path against fresh solves."""
    return _REWEIGHT_ADVISORS.setdefault(id(model), Advisor(model))


# -- truncation accounting -------------------------------------------------


def test_plan_space_records_truncation(hotel_setup):
    from repro.enumerator import CandidateEnumerator
    from repro.planner import QueryPlanner
    from repro.workload import parse_statement
    model, _workload = hotel_setup
    query = parse_statement(
        model,
        "SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")
    pool = CandidateEnumerator(model).enumerate_query(query)
    capped = QueryPlanner(model, pool, max_plans=2).plans_for(query)
    full = QueryPlanner(model, pool).plans_for(query)
    assert isinstance(capped, PlanSpace)
    assert len(capped) == 2
    assert capped.truncated
    assert not full.truncated
    assert len(full) > 2


def test_advisor_warns_on_truncated_query(hotel_setup):
    model, _workload = hotel_setup
    workload = hotel_workload(model, include_updates=False)
    advisor = Advisor(model, max_plans=2)
    with pytest.warns(TruncationWarning):
        recommendation = advisor.recommend(workload)
    assert recommendation.timing.truncated_queries > 0


def test_no_truncation_warning_when_space_is_complete(hotel_setup):
    import warnings
    model, _workload = hotel_setup
    workload = hotel_workload(model, include_updates=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        recommendation = Advisor(model).recommend(workload)
    assert recommendation.timing.truncated_queries == 0


def test_truncation_warning_also_logged(hotel_setup, caplog):
    import logging
    model, _workload = hotel_setup
    workload = hotel_workload(model, include_updates=False)
    advisor = Advisor(model, max_plans=2)
    with caplog.at_level(logging.WARNING, logger="repro"):
        with pytest.warns(TruncationWarning):
            advisor.recommend(workload)
    messages = [record.message for record in caplog.records
                if record.name.startswith("repro")]
    assert any("plan cap" in message for message in messages)


# -- timing accounting -----------------------------------------------------


_TIMING_STAGES = ("enumeration", "planning", "cost_calculation",
                  "pruning", "bip_construction", "bip_solving",
                  "recommendation")


def test_timing_buckets_sum_to_total(hotel_setup):
    model, _workload = hotel_setup
    workload = hotel_workload(model)
    timing = Advisor(model).recommend(workload).timing
    bucketed = sum(getattr(timing, stage) for stage in _TIMING_STAGES)
    residual = timing.total - bucketed
    # every stage is attributed to a bucket; only cheap glue (weight
    # resolution, cache bookkeeping) may land between buckets
    assert residual >= 0.0
    assert residual <= max(0.05 * timing.total, 0.02)


def test_timing_other_covers_unnamed_stages(hotel_setup):
    model, _workload = hotel_setup
    timing = Advisor(model).recommend(hotel_workload(model)).timing
    row = timing.as_figure13_row()
    named = (row["cost_calculation"] + row["bip_construction"]
             + row["bip_solving"])
    assert row["other"] == pytest.approx(row["total"] - named)


def test_stage_breakdown_partitions_total(hotel_setup):
    """The fine-grained buckets are disjoint and sum to the total —
    the invariant that makes benchmark stage rows safe to stack.
    as_figure13_row's coarse "other" must equal the rolled-up unnamed
    buckets, not re-include any named one."""
    model, _workload = hotel_setup
    timing = Advisor(model).recommend(hotel_workload(model)).timing
    breakdown = timing.stage_breakdown()
    assert set(breakdown) == {
        "enumeration", "planning", "cost_calculation", "pruning",
        "bip_construction", "bip_solving", "recommendation", "other"}
    assert all(seconds >= 0.0 for seconds in breakdown.values())
    assert sum(breakdown.values()) == pytest.approx(timing.total)
    fig13 = timing.as_figure13_row()
    assert sum(value for key, value in fig13.items()
               if key != "total") == pytest.approx(timing.total)
    assert fig13["other"] == pytest.approx(
        breakdown["enumeration"] + breakdown["planning"]
        + breakdown["pruning"] + breakdown["recommendation"]
        + breakdown["other"])


def test_timing_counters_survive_prepared_round_trip(hotel_setup):
    model, _workload = hotel_setup
    workload = hotel_workload(model, include_updates=False)
    advisor = Advisor(model, max_plans=2)
    with pytest.warns(TruncationWarning):
        prepared = advisor.prepare(workload)
    cold = advisor.recommend_prepared(prepared)
    warm = advisor.recommend_prepared(advisor.prepare(workload))
    # truncation accounting is a property of the prepared structure and
    # must survive the cache round trip
    assert cold.timing.truncated_queries > 0
    assert warm.timing.truncated_queries \
        == cold.timing.truncated_queries
    # the cold run counts lookup-memo hits; the warm run skips costing
    # and reports the structural cache hit instead
    assert cold.timing.cache_hits >= 1
    assert warm.timing.cache_hits >= 1


# -- deterministic pruning -------------------------------------------------


class _FakeIndex:
    def __init__(self, key):
        self.key = key


class _FakePlan:
    def __init__(self, cost, keys, signature):
        self.cost = cost
        self.indexes = tuple(_FakeIndex(key) for key in keys)
        self.signature = signature


def test_prune_ties_broken_by_signature():
    plans = [_FakePlan(1.0, ["a"], "L:z"), _FakePlan(1.0, ["a"], "L:b"),
             _FakePlan(1.0, ["a"], "L:m")]
    for ordering in (plans, plans[::-1], plans[1:] + plans[:1]):
        (kept,) = prune_dominated_plans(ordering)
        assert kept.signature == "L:b"


def test_prune_plan_space_drops_superset_plans():
    cheap_subset = _FakePlan(1.0, ["a"], "L:a")
    dominated_superset = _FakePlan(2.0, ["a", "b"], "L:a|L:b")
    other = _FakePlan(0.5, ["c"], "L:c")
    kept = prune_plan_space([dominated_superset, cheap_subset, other])
    assert [plan.signature for plan in kept] == ["L:c", "L:a"]
    # a cheaper superset plan survives (it may still be optimal)
    cheap_superset = _FakePlan(0.1, ["a", "b"], "L:b|L:a")
    kept = prune_plan_space([cheap_subset, cheap_superset])
    assert {plan.signature for plan in kept} \
        == {"L:a", "L:b|L:a"}


# -- cost memoization ------------------------------------------------------


def test_lookup_costs_are_memoized(hotel_setup):
    from repro.enumerator import CandidateEnumerator
    from repro.planner import QueryPlanner
    model, workload = hotel_setup
    query = workload.queries[0]
    pool = CandidateEnumerator(model).enumerate_query(query)
    plans = QueryPlanner(model, pool).plans_for(query)
    cost_model = CassandraCostModel()
    first = [cost_model.cost_plan(plan) for plan in plans]
    hits_after_first, misses, entries = cost_model.cache_info()
    assert misses == entries > 0
    second = [cost_model.cost_plan(plan) for plan in plans]
    hits, misses_after_second, _entries = cost_model.cache_info()
    # the second pass is served entirely from the memo, same costs
    assert misses_after_second == misses
    assert hits > hits_after_first
    assert second == first
    cost_model.clear_cost_cache()
    assert cost_model.cache_info() == (0, 0, 0)


# -- weight validation -----------------------------------------------------


def test_recommend_prepared_rejects_incomplete_weights(hotel_setup):
    model, _workload = hotel_setup
    workload = hotel_workload(model)
    advisor = Advisor(model)
    prepared = advisor.prepare(workload)
    advisor.recommend_prepared(prepared)  # warm the program cache
    with pytest.raises(OptimizationError):
        advisor.recommend_prepared(prepared, weights={"nope": 1.0})
