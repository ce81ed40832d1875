"""Unit tests for the BIP optimizer, brute-force cross-check included."""

import pytest

from repro import Advisor
from repro.cost import CassandraCostModel
from repro.exceptions import OptimizationError
from repro.indexes import Index, entity_fetch_index
from repro.optimizer import (
    BIPOptimizer,
    BruteForceOptimizer,
    OptimizationProblem,
)
from repro.planner import QueryPlanner, UpdatePlanner
from repro.rubis import rubis_model, rubis_workload
from repro.workload import parse_statement


@pytest.fixture()
def pool(hotel):
    """A small, brute-forceable candidate pool (Fig 6 plus fetches)."""
    city = hotel.field("Hotel", "HotelCity")
    hotel_id = hotel.field("Hotel", "HotelID")
    room_id = hotel.field("Room", "RoomID")
    rate = hotel.field("Room", "RoomRate")
    number = hotel.field("Room", "RoomNumber")
    hotel_room = hotel.path(["Hotel", "Rooms"])
    return [
        Index((city,), (rate, room_id), (), hotel_room),
        Index((city,), (room_id,), (), hotel_room),
        Index((city,), (hotel_id,), (), hotel.path(["Hotel"])),
        Index((hotel_id,), (room_id,), (), hotel_room),
        Index((room_id,), (), (rate,), hotel.path(["Room"])),
        Index((room_id,), (), (number,), hotel.path(["Room"])),
        entity_fetch_index(hotel.entity("Room")),
        # hotel of a room: needed by maintenance support queries
        Index((room_id,), (hotel_id,), (city,),
              hotel.path(["Room", "Hotel"])),
    ]


@pytest.fixture()
def statements(hotel):
    query1 = parse_statement(
        hotel,
        "SELECT Room.RoomID FROM Room WHERE "
        "Room.Hotel.HotelCity = ?city AND Room.RoomRate > ?rate",
        label="rooms_in_city")
    query2 = parse_statement(
        hotel,
        "SELECT Room.RoomNumber FROM Room WHERE Room.RoomID = ?room",
        label="room_number")
    update = parse_statement(
        hotel,
        "UPDATE Room SET RoomRate = ?rate WHERE Room.RoomID = ?room",
        label="set_rate")
    return query1, query2, update


def _problem(hotel, pool, statements, weights=(1.0, 1.0, 1.0),
             space_limit=None):
    query1, query2, update = statements
    planner = QueryPlanner(hotel, pool)
    update_planner = UpdatePlanner(hotel, planner)
    cost_model = CassandraCostModel()
    query_plans = planner.plan_all([query1, query2])
    for plans in query_plans.values():
        for plan in plans:
            cost_model.cost_plan(plan)
    update_plans = update_planner.plan_all([update])
    for plans in update_plans.values():
        for plan in plans:
            cost_model.cost_update_plan(plan)
    labels = {"rooms_in_city": weights[0], "room_number": weights[1],
              "set_rate": weights[2]}
    return OptimizationProblem(query_plans, update_plans, labels,
                               space_limit=space_limit)


def test_bip_matches_brute_force(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    bip = BIPOptimizer(mip_rel_gap=0.0).solve(problem)
    brute = BruteForceOptimizer().solve(problem)
    assert bip.total_cost == pytest.approx(brute.total_cost, rel=1e-6)
    assert {i.key for i in bip.indexes} == {i.key for i in brute.indexes}


def test_bip_matches_brute_force_write_heavy(hotel, pool, statements):
    problem = _problem(hotel, pool, statements, weights=(1.0, 1.0, 500.0))
    bip = BIPOptimizer(mip_rel_gap=0.0).solve(problem)
    brute = BruteForceOptimizer().solve(problem)
    assert bip.total_cost == pytest.approx(brute.total_cost, rel=1e-6)


def test_reweight_matches_fresh_build(hotel, pool, statements):
    """A reweight must equal a from-scratch cost vector bit for bit."""
    optimizer = BIPOptimizer()
    program = optimizer.prepare(_problem(hotel, pool, statements))
    new_weights = {"rooms_in_city": 3.0, "room_number": 0.25,
                   "set_rate": 7.5}
    optimizer.reweight(program, new_weights)
    fresh = optimizer.prepare(_problem(hotel, pool, statements,
                                       weights=(3.0, 0.25, 7.5)))
    assert program.costs == fresh.costs


@pytest.mark.filterwarnings("ignore::repro.exceptions.TruncationWarning")
def test_reweight_matches_fresh_build_with_shared_forms():
    """RuBiS bidding has statements sharing one form and updates with
    support queries; a reweight still equals a fresh build exactly."""
    model = rubis_model()
    workload = rubis_workload(model, mix="bidding")
    advisor = Advisor(model)
    prepared = advisor.prepare(workload)
    advisor.recommend_prepared(prepared)
    program = prepared._program
    assert len(program.problem.classes) < len(program.problem.representative)
    assert program.support_columns
    weights = {statement.label: 0.5 + position % 7 * 0.37
               for position, (statement, _weight)
               in enumerate(workload.weighted_statements)}
    optimizer = BIPOptimizer()
    optimizer.reweight(program, weights)
    fresh = optimizer.prepare(OptimizationProblem(
        prepared._pruned_query_plans, prepared._pruned_update_plans,
        weights))
    assert program.costs == fresh.costs


def test_write_pressure_reduces_denormalization(hotel, pool, statements):
    """Heavier updates must never enlarge the schema's update exposure."""
    read_heavy = BIPOptimizer().solve(
        _problem(hotel, pool, statements, weights=(100.0, 100.0, 0.01)))
    write_heavy = BIPOptimizer().solve(
        _problem(hotel, pool, statements, weights=(0.01, 0.01, 100.0)))
    rate = hotel.field("Room", "RoomRate")
    exposed_read = sum(1 for index in read_heavy.indexes
                       if index.contains_field(rate))
    exposed_write = sum(1 for index in write_heavy.indexes
                        if index.contains_field(rate))
    assert exposed_write <= exposed_read


def test_every_query_gets_exactly_one_plan(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    result = BIPOptimizer().solve(problem)
    assert set(result.query_plans) == set(problem.query_plans)
    chosen_keys = {index.key for index in result.indexes}
    for plan in result.query_plans.values():
        assert {index.key for index in plan.indexes} <= chosen_keys


def test_update_plans_only_for_selected_indexes(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    result = BIPOptimizer().solve(problem)
    chosen_keys = {index.key for index in result.indexes}
    for plans in result.update_plans.values():
        for plan in plans:
            assert plan.index.key in chosen_keys
            for support_plan in plan.support_plans:
                support_keys = {i.key for i in support_plan.indexes}
                assert support_keys <= chosen_keys


def test_space_constraint_respected(hotel, pool, statements):
    unconstrained = BIPOptimizer().solve(_problem(hotel, pool,
                                                  statements))
    limit = unconstrained.size * 0.5
    constrained = BIPOptimizer().solve(
        _problem(hotel, pool, statements, space_limit=limit))
    assert constrained.size <= limit
    assert constrained.total_cost >= unconstrained.total_cost


def test_impossible_space_constraint_is_infeasible(hotel, pool,
                                                   statements):
    with pytest.raises(OptimizationError):
        BIPOptimizer().solve(_problem(hotel, pool, statements,
                                      space_limit=1.0))
    with pytest.raises(OptimizationError):
        BruteForceOptimizer().solve(_problem(hotel, pool, statements,
                                             space_limit=1.0))


def test_two_phase_minimizes_schema_size(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    greedy = BIPOptimizer(minimize_schema_size=False).solve(problem)
    minimal = BIPOptimizer(minimize_schema_size=True).solve(problem)
    assert minimal.total_cost == pytest.approx(greedy.total_cost,
                                               rel=1e-3)
    assert len(minimal.indexes) <= len(greedy.indexes)


def test_phase2_budget_proportional_to_phase1(hotel, pool, statements):
    """The schema-minimization solve gets a budget proportional to the
    phase-1 solve (never the fixed 30s wall the scaling bench exposed),
    and reports how long it actually ran."""
    from repro import telemetry

    problem = _problem(hotel, pool, statements)
    with telemetry.activate() as sink:
        BIPOptimizer(minimize_schema_size=True).solve(problem)
    gauges = sink.report().metrics["gauges"]
    assert 1.0 <= gauges["bip.phase2_time_limit"] <= 30.0
    # a sub-second phase 1 must clamp phase 2 to the 1s floor
    assert gauges["bip.phase2_time_limit"] == pytest.approx(1.0)
    assert gauges["bip.phase2_seconds"] < 1.5


def test_brute_force_size_guard(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    with pytest.raises(OptimizationError):
        BruteForceOptimizer(max_indexes=2).solve(problem)


def test_problem_properties(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    candidates, query_plans, support_plans = problem.size
    assert candidates <= len(pool)
    assert query_plans >= 2
    assert "OptimizationProblem" in repr(problem)
    with pytest.raises(OptimizationError):
        problem.weight(parse_statement(
            hotel, "SELECT Guest.GuestName FROM Guest "
                   "WHERE Guest.GuestID = ?", label="unknown"))


def test_empty_plan_space_rejected(hotel, statements):
    query1, _query2, _update = statements
    with pytest.raises(OptimizationError):
        OptimizationProblem({query1: []}, {}, {"rooms_in_city": 1.0})


def test_recommendation_reporting(hotel, pool, statements):
    problem = _problem(hotel, pool, statements)
    result = BIPOptimizer().solve(problem)
    costs = result.statement_costs
    assert set(costs) == {"rooms_in_city", "room_number", "set_rate"}
    for weight, cost in costs.values():
        assert weight > 0 and cost >= 0
    text = result.describe()
    assert "Recommended schema" in text
    for index in result.indexes:
        assert index.key in text
