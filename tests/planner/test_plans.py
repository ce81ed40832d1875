"""Unit tests for plan containers and step descriptions."""

import pytest

from repro import Advisor
from repro.cost import SimpleCostModel
from repro.indexes import entity_fetch_index, materialized_view_for
from repro.planner import QueryPlanner
from repro.planner.plans import QueryPlan, UnionPlan, UpdatePlan
from repro.planner.steps import (
    DeleteStep,
    FilterStep,
    IndexLookupStep,
    InsertStep,
    LimitStep,
    SortStep,
)
from repro.rubis import rubis_model, rubis_workload
from repro.workload import parse_statement
from repro.workload.conditions import Condition

FIG3 = ("SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")


@pytest.fixture()
def plan(hotel):
    query = parse_statement(hotel, FIG3)
    view = materialized_view_for(query)
    planner = QueryPlanner(hotel, [view])
    (plan,) = planner.plans_for(query)
    return plan


def test_plan_indexes_in_first_use_order(hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?")
    fetch = entity_fetch_index(hotel.entity("Guest"))
    planner = QueryPlanner(hotel, [fetch])
    (plan,) = planner.plans_for(query)
    assert plan.indexes == (fetch,)
    assert plan.lookup_steps == plan.steps[:1]


def test_plan_signature_distinguishes_structure(hotel, plan):
    assert plan.signature.startswith("L:")
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?")
    fetch = entity_fetch_index(hotel.entity("Guest"))
    other = QueryPlanner(hotel, [fetch]).plans_for(query)[0]
    assert other.signature != plan.signature


def _fresh_signature(plan):
    """The signature a newly built plan of the same structure has."""
    if isinstance(plan, UnionPlan):
        return UnionPlan(plan.query, plan.branch_plans,
                         plan.tail_steps).signature
    return QueryPlan(plan.query, plan.steps).signature


@pytest.mark.filterwarnings("ignore::repro.TruncationWarning")
@pytest.mark.parametrize("application", ["hotel", "rubis-bidding"])
def test_planner_stamps_signature_at_creation(application, hotel,
                                              hotel_full):
    if application == "hotel":
        model, workload = hotel, hotel_full
    else:
        model = rubis_model(users=2_000)
        workload = rubis_workload(model, mix="bidding")
    prepared = Advisor(model).prepare(workload)
    spaces = list(prepared.query_plans.values())
    for update_plans in prepared.update_plans.values():
        for update_plan in update_plans:
            spaces.extend(update_plan.support_plans_by_query.values())
    plans = [plan for space in spaces for plan in space]
    assert plans
    for plan in plans:
        # read the slot, not the property, which would fill it
        assert plan._signature is not None
        assert plan._signature == _fresh_signature(plan)


def test_plan_cardinality_is_last_step(plan):
    assert plan.cardinality == plan.steps[-1].cardinality
    assert QueryPlan(plan.query, []).cardinality == 0.0


def test_plan_describe_lists_steps(plan):
    text = plan.describe()
    assert "1." in text
    assert plan.query.label or "Plan for" in text


def test_step_descriptions(hotel, plan):
    lookup = plan.steps[0]
    assert "lookup" in lookup.describe()
    assert lookup.index.key in lookup.describe()
    rate = hotel.field("Room", "RoomRate")
    filter_step = FilterStep((Condition(rate, ">"),), 10, 1)
    assert "filter" in filter_step.describe()
    sort_step = SortStep((rate,), 10)
    assert "sort" in sort_step.describe()
    limit_step = LimitStep(5, 100)
    assert "limit 5" in limit_step.describe()
    assert limit_step.cardinality == 5.0
    index = entity_fetch_index(hotel.entity("Guest"))
    assert "insert" in InsertStep(index, 2).describe()
    assert "delete" in DeleteStep(index, 2).describe()
    assert "IndexLookupStep" in repr(lookup)


def test_fetch_step_description(hotel):
    index = entity_fetch_index(hotel.entity("Guest"))
    step = IndexLookupStep(index, 3, 3, 3,
                           eq_fields=index.hash_fields, is_fetch=True)
    assert step.describe().startswith("fetch")


def test_update_plan_grouping_and_costs(hotel, hotel_full):
    from repro.enumerator import CandidateEnumerator
    from repro.planner import UpdatePlanner
    pool = CandidateEnumerator(hotel).candidates(hotel_full)
    planner = QueryPlanner(hotel, pool)
    update_planner = UpdatePlanner(hotel, planner)
    delete = hotel_full.statements["delete_guest"]
    plans = update_planner.plans_for(delete)
    target = max(plans, key=lambda p: len(p.support_plans))
    SimpleCostModel().cost_update_plan(target)
    grouped = target.support_plans_by_query
    assert sum(len(v) for v in grouped.values()) \
        == len(target.support_plans)
    assert target.cost >= target.update_cost
    assert "UpdatePlan" in repr(target)


def test_update_plan_cost_requires_costing(hotel):
    index = entity_fetch_index(hotel.entity("Guest"))
    update = parse_statement(
        hotel, "UPDATE Guest SET GuestName = ? WHERE Guest.GuestID = ?")
    plan = UpdatePlan(update, index, [], [InsertStep(index, 1)])
    with pytest.raises(ValueError):
        plan.update_cost
