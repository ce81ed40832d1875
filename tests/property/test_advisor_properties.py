"""Property-based tests over the advisor pipeline.

Random queries over the hotel model exercise enumeration, planning, and
optimization invariants; small random problems cross-check the BIP
encoding against brute force.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advisor import Advisor
from repro.cost import CassandraCostModel
from repro.demo import hotel_model
from repro.enumerator import CandidateEnumerator
from repro.indexes import materialized_view_for
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.planner import QueryPlanner, UpdatePlanner
from repro.workload import Workload, parse_statement
from repro.workload.conditions import Condition
from repro.workload.statements import Query

MODEL = hotel_model()

PATH_NAMES = [
    ["Guest"],
    ["Guest", "Reservations", "Room"],
    ["Guest", "Reservations", "Room", "Hotel"],
    ["Room", "Hotel"],
    ["Hotel", "Rooms"],
    ["PointOfInterest", "Hotels"],
]


@st.composite
def queries(draw):
    """A random, valid query over the hotel model."""
    path = MODEL.path(draw(st.sampled_from(PATH_NAMES)))
    target = path.first
    attributes = target.attributes
    select = draw(st.lists(st.sampled_from(attributes), min_size=1,
                           max_size=len(attributes), unique_by=id))
    condition_fields = [field
                       for entity in path.entities
                       for field in entity.attributes]
    eq_field = draw(st.sampled_from(condition_fields))
    conditions = [Condition(eq_field, "=", "p0")]
    remaining = [field for field in condition_fields
                 if field is not eq_field]
    if remaining and draw(st.booleans()):
        range_field = draw(st.sampled_from(remaining))
        operator = draw(st.sampled_from([">", ">=", "<", "<="]))
        conditions.append(Condition(range_field, operator, "p1"))
    return Query(path, select, conditions, label="prop_query")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries())
def test_enumeration_contains_materialized_view(query):
    pool = CandidateEnumerator(MODEL).enumerate_query(query)
    assert materialized_view_for(query) in pool


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries())
def test_every_random_query_is_plannable(query):
    pool = CandidateEnumerator(MODEL).enumerate_query(query)
    planner = QueryPlanner(MODEL, pool, max_plans=100)
    plans = planner.plans_for(query)
    assert plans
    for plan in plans:
        # the chain covers all select fields and at most one range bind
        range_binds = [step for step in plan.lookup_steps
                       if step.range_field is not None]
        assert len(range_binds) <= 1
        available = set()
        for step in plan.lookup_steps:
            available.update(f.id for f in step.index.all_fields)
        assert {f.id for f in query.select} <= available


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries())
def test_plan_costs_positive_and_mv_is_single_get(query):
    pool = CandidateEnumerator(MODEL).enumerate_query(query)
    planner = QueryPlanner(MODEL, pool, max_plans=100)
    cost_model = CassandraCostModel()
    plans = planner.plans_for(query)
    for plan in plans:
        assert cost_model.cost_plan(plan) > 0
    single_gets = [plan for plan in plans
                   if len(plan.lookup_steps) == 1]
    assert single_gets, "the materialized view plan must exist"


#: updates whose maintenance needs support queries on wider column
#: families of the pool
UPDATES = [
    "UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?",
    "UPDATE Hotel SET HotelName = ? WHERE Hotel.HotelID = ?",
    "UPDATE Room SET RoomRate = ? WHERE Room.RoomID = ?",
]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), weight=st.floats(0.1, 100.0),
       update=st.sampled_from(UPDATES),
       update_weight=st.floats(0.1, 100.0))
def test_bip_matches_brute_force_on_random_queries(query, weight, update,
                                                   update_weight):
    """The HiGHS encoding must agree with exhaustive search, including
    the maintenance and support-plan terms of one update."""
    pool = sorted(CandidateEnumerator(MODEL).enumerate_query(query),
                  key=lambda index: index.key)[:10]
    planner = QueryPlanner(MODEL, pool, max_plans=60)
    plans = planner.plans_for(query, require=False)
    if not plans:
        return
    cost_model = CassandraCostModel()
    for plan in plans:
        cost_model.cost_plan(plan)
    update = parse_statement(MODEL, update, label="prop_update")
    update_plans = UpdatePlanner(MODEL, planner).plans_for(update,
                                                           require=False)
    for update_plan in update_plans:
        cost_model.cost_update_plan(update_plan)
    problem = OptimizationProblem(
        {query: plans}, {update: update_plans},
        {"prop_query": weight, "prop_update": update_weight})
    bip = BIPOptimizer(mip_rel_gap=0.0).solve(problem)
    brute = BruteForceOptimizer().solve(problem)
    assert bip.total_cost == pytest.approx(brute.total_cost, rel=1e-6)
    chosen = problem.price(index.key for index in bip.indexes)
    assert chosen.cost == pytest.approx(bip.total_cost, rel=1e-6)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), weight=st.floats(0.1, 10.0))
def test_advisor_end_to_end_on_random_query(query, weight):
    workload = Workload(MODEL)
    # add_statement registers a relabelled copy when the statement
    # already carries a different label; the return value is the
    # registered object, which keys the recommendation's plans
    query = workload.add_statement(query, weight=weight, label="only")
    recommendation = Advisor(MODEL).recommend(workload)
    assert recommendation.indexes
    plan = recommendation.query_plans[query]
    assert plan.cost <= materialized_view_cost(query) * 1.0001


def materialized_view_cost(query):
    view = materialized_view_for(query)
    planner = QueryPlanner(MODEL, [view])
    plans = planner.plans_for(query)
    cost_model = CassandraCostModel()
    return min(cost_model.cost_plan(plan) for plan in plans)
