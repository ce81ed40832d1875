"""Unit tests for general query-planner behaviour."""

import pytest

from repro.enumerator import CandidateEnumerator
from repro.indexes import Index, entity_fetch_index, materialized_view_for
from repro.planner import QueryPlanner
from repro.planner.steps import (
    FilterStep,
    LimitStep,
    SortStep,
)
from repro.workload import parse_statement

FIG3 = ("SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")


def _planner_for(hotel, query):
    pool = CandidateEnumerator(hotel).enumerate_query(query)
    return QueryPlanner(hotel, pool)


def test_materialized_view_gives_single_lookup_plan(hotel):
    query = parse_statement(hotel, FIG3)
    view = materialized_view_for(query)
    planner = QueryPlanner(hotel, [view])
    plans = planner.plans_for(query)
    assert len(plans) == 1
    assert len(plans[0].steps) == 1
    assert plans[0].indexes == (view,)


def test_enumerated_pool_always_plannable(hotel, hotel_queries):
    for query in hotel_queries.queries:
        planner = _planner_for(hotel, query)
        plans = planner.plans_for(query)
        assert plans
        # every plan ends with the query's select fields available
        for plan in plans:
            available = set()
            for step in plan.lookup_steps:
                available.update(f.id for f in step.index.all_fields)
            assert {f.id for f in query.select} <= available


def test_plans_are_deduplicated(hotel):
    query = parse_statement(hotel, FIG3)
    planner = _planner_for(hotel, query)
    plans = planner.plans_for(query)
    signatures = [plan.signature for plan in plans]
    assert len(signatures) == len(set(signatures))


def test_max_plans_cap(hotel):
    query = parse_statement(hotel, FIG3)
    pool = CandidateEnumerator(hotel).enumerate_query(query)
    planner = QueryPlanner(hotel, pool, max_plans=3)
    assert len(planner.plans_for(query)) <= 3


def test_order_by_served_by_clustering(hotel):
    query = parse_statement(
        hotel,
        "SELECT Hotel.HotelName FROM Hotel WHERE Hotel.HotelCity = ? "
        "ORDER BY Hotel.HotelName")
    name = hotel.field("Hotel", "HotelName")
    city = hotel.field("Hotel", "HotelCity")
    hotel_id = hotel.field("Hotel", "HotelID")
    serving = Index((city,), (name, hotel_id), (), hotel.path(["Hotel"]))
    planner = QueryPlanner(hotel, [serving])
    (plan,) = planner.plans_for(query)
    assert not any(isinstance(step, SortStep) for step in plan.steps)
    assert plan.lookup_steps[0].order_served


def test_order_by_falls_back_to_client_sort(hotel):
    query = parse_statement(
        hotel,
        "SELECT Hotel.HotelName FROM Hotel WHERE Hotel.HotelCity = ? "
        "ORDER BY Hotel.HotelName")
    city = hotel.field("Hotel", "HotelCity")
    hotel_id = hotel.field("Hotel", "HotelID")
    name = hotel.field("Hotel", "HotelName")
    unordered = Index((city,), (hotel_id,), (name,),
                      hotel.path(["Hotel"]))
    planner = QueryPlanner(hotel, [unordered])
    (plan,) = planner.plans_for(query)
    assert any(isinstance(step, SortStep) for step in plan.steps)


def test_limit_step_appended(hotel):
    query = parse_statement(
        hotel,
        "SELECT Hotel.HotelName FROM Hotel WHERE Hotel.HotelCity = ? "
        "LIMIT 7")
    planner = _planner_for(hotel, query)
    for plan in planner.plans_for(query):
        assert isinstance(plan.steps[-1], LimitStep)
        assert plan.steps[-1].limit == 7


def test_select_fields_fetched_when_missing(hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?")
    # key-only index cannot serve the select; needs the fetch index
    guest_id = hotel.field("Guest", "GuestID")
    key_only = Index((guest_id,), (), (), hotel.path(["Guest"]))
    fetch = entity_fetch_index(hotel.entity("Guest"))
    planner = QueryPlanner(hotel, [key_only, fetch])
    plans = planner.plans_for(query)
    assert any(plan.indexes == (fetch,) for plan in plans)


def test_larger_path_index_serves_shorter_segment(hotel):
    """An index over Item-like longer paths can answer a sub-path query
    when the trimmed edges are to-one (the paper's 'possibly larger'
    column families)."""
    query = parse_statement(
        hotel,
        "SELECT Reservation.ResStartDate FROM Reservation.Room "
        "WHERE Room.RoomID = ?")
    room_id = hotel.field("Room", "RoomID")
    res_id = hotel.field("Reservation", "ResID")
    start = hotel.field("Reservation", "ResStartDate")
    guest_id = hotel.field("Guest", "GuestID")
    # Room -> Reservation -> Guest: the trailing edge is to-one
    longer = Index((room_id,), (res_id, guest_id), (start,),
                   hotel.path(["Room", "Reservations", "Guest"]))
    planner = QueryPlanner(hotel, [longer])
    plans = planner.plans_for(query)
    assert plans
    assert plans[0].indexes == (longer,)


def test_larger_path_with_many_extension_not_used(hotel):
    """Trimming a to-many edge would duplicate rows, so such an index
    must not serve the shorter segment."""
    query = parse_statement(
        hotel,
        "SELECT Room.RoomNumber FROM Room.Hotel "
        "WHERE Hotel.HotelID = ?")
    hotel_id = hotel.field("Hotel", "HotelID")
    room_id = hotel.field("Room", "RoomID")
    number = hotel.field("Room", "RoomNumber")
    res_id = hotel.field("Reservation", "ResID")
    # Hotel -> Room -> Reservations: trailing edge is to-many
    longer = Index((hotel_id,), (room_id, res_id), (number,),
                   hotel.path(["Hotel", "Rooms", "Reservations"]))
    planner = QueryPlanner(hotel, [longer])
    assert planner.plans_for(query, require=False) == []


def test_client_sort_requires_order_fields_available(hotel):
    """A client-side sort is only planned when the ordering attributes
    are fetched; otherwise the plan is invalid and must be pruned."""
    query = parse_statement(
        hotel,
        "SELECT Room.RoomID FROM Room.Hotel WHERE Hotel.HotelCity = ? "
        "ORDER BY Room.RoomRate")
    city = hotel.field("Hotel", "HotelCity")
    room_id = hotel.field("Room", "RoomID")
    bare = Index((city,), (room_id,), (), hotel.path(["Hotel", "Rooms"]))
    assert QueryPlanner(hotel, [bare]).plans_for(query,
                                                 require=False) == []
    fetch = entity_fetch_index(hotel.entity("Room"))
    plans = QueryPlanner(hotel, [bare, fetch]).plans_for(query)
    for plan in plans:
        available = set()
        for step in plan.lookup_steps:
            available.update(f.id for f in step.index.all_fields)
        assert "Room.RoomRate" in available


def test_filter_applied_when_attribute_stored(hotel):
    query = parse_statement(
        hotel,
        "SELECT Room.RoomID FROM Room.Hotel "
        "WHERE Hotel.HotelCity = ? AND Room.RoomRate > ?")
    city = hotel.field("Hotel", "HotelCity")
    room_id = hotel.field("Room", "RoomID")
    rate = hotel.field("Room", "RoomRate")
    relaxed = Index((city,), (room_id,), (rate,),
                    hotel.path(["Hotel", "Rooms"]))
    planner = QueryPlanner(hotel, [relaxed])
    (plan,) = planner.plans_for(query)
    filters = [step for step in plan.steps
               if isinstance(step, FilterStep)]
    assert len(filters) == 1
    assert filters[0].conditions[0].field is rate
    # filtering reduces cardinality by the range selectivity
    lookup = plan.lookup_steps[0]
    assert filters[0].cardinality == pytest.approx(
        lookup.cardinality * 0.1)


def _chain_model(total):
    """A -> B to-one chain; ``total`` controls A's mandatory
    participation in the relationship."""
    from repro.model import Entity, IDField, Model, StringField
    model = Model("chain")
    first = Entity("A", count=10)
    first.add_field(IDField("AID"))
    first.add_field(StringField("AName", cardinality=10))
    second = Entity("B", count=10)
    second.add_field(IDField("BID"))
    second.add_field(StringField("BName", cardinality=10))
    model.add_entity(first)
    model.add_entity(second)
    model.add_relationship("A", "TheB", "B", "As", kind="many_to_one",
                           forward_total=total)
    return model.validate()


@pytest.mark.parametrize("total", [True, False])
def test_longer_path_index_requires_total_participation(total):
    """The §IV "possibly larger column families" rewrite — answering a
    query from an index over a longer path — is only sound when the
    trimmed to-one edge is total: under partial participation an A row
    with no B would silently vanish from the extended join."""
    from repro.model.paths import KeyPath
    from repro.workload import parse_statement
    model = _chain_model(total)
    query = parse_statement(
        model, "SELECT A.AName FROM A WHERE A.AName = ?name")
    first = model.entity("A")
    second = model.entity("B")
    index = Index([first["AName"]], [first.id_field, second.id_field],
                  [], KeyPath(first, [first["TheB"]]))
    planner = QueryPlanner(model, [index])
    plans = planner.plans_for(query, require=False)
    if total:
        assert plans, "a total to-one edge admits the longer-path index"
    else:
        assert not plans, \
            "a partial edge must not serve the shorter query"
