"""Executor tests for CONNECT/DISCONNECT and maintenance corner cases."""

import pytest

from repro import Advisor, Workload
from repro.backend import ExecutionEngine
from repro.demo import hotel_dataset, hotel_model


@pytest.fixture()
def setup():
    model = hotel_model(scale=0.02)
    workload = Workload(model)
    workload.add_statement(
        "SELECT PointOfInterest.POIName FROM PointOfInterest.Hotels "
        "WHERE Hotel.HotelID = ?hotel",
        weight=5.0, label="pois_for_hotel")
    workload.add_statement(
        "SELECT Hotel.HotelName FROM Hotel.PointsOfInterest "
        "WHERE PointOfInterest.POIID = ?poi",
        weight=2.0, label="hotels_for_poi")
    workload.add_statement(
        "CONNECT Hotel(?hotel) TO PointsOfInterest(?poi)",
        weight=1.0, label="add_poi")
    workload.add_statement(
        "DISCONNECT Hotel(?hotel) FROM PointsOfInterest(?poi)",
        weight=1.0, label="remove_poi")
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    recommendation = Advisor(model).recommend(workload)
    engine = ExecutionEngine(model, recommendation, dataset)
    engine.load()
    return model, workload, dataset, engine


def _poi_names(engine, workload, dataset, hotel_id):
    query = workload.statements["pois_for_hotel"]
    rows = engine.execute_query(query, {"hotel": hotel_id})
    got = {row["PointOfInterest.POIName"] for row in rows}
    expected = {name for (name,) in
                dataset.evaluate_query(query, {"hotel": hotel_id})}
    assert got == expected
    return got


def test_connect_adds_rows(setup):
    model, workload, dataset, engine = setup
    before = _poi_names(engine, workload, dataset, 0)
    connect = workload.statements["add_poi"]
    # pick a POI not currently linked to hotel 0
    linked = dataset.related(model.entity("Hotel")["PointsOfInterest"], 0)
    new_poi = next(p for p in dataset.rows["PointOfInterest"]
                   if p not in linked)
    engine.execute_update(connect, {"hotel": 0, "poi": new_poi})
    after = _poi_names(engine, workload, dataset, 0)
    assert len(after) == len(before) + 1


def test_disconnect_removes_rows(setup):
    model, workload, dataset, engine = setup
    linked = dataset.related(model.entity("Hotel")["PointsOfInterest"], 0)
    if not linked:
        pytest.skip("hotel 0 has no POIs in this dataset")
    poi = min(linked)
    disconnect = workload.statements["remove_poi"]
    engine.execute_update(disconnect, {"hotel": 0, "poi": poi})
    names = _poi_names(engine, workload, dataset, 0)
    assert f"poi-{poi}" not in names


def test_connect_maintains_reverse_direction_queries(setup):
    model, workload, dataset, engine = setup
    connect = workload.statements["add_poi"]
    linked = dataset.related(model.entity("Hotel")["PointsOfInterest"], 1)
    new_poi = next(p for p in dataset.rows["PointOfInterest"]
                   if p not in linked)
    engine.execute_update(connect, {"hotel": 1, "poi": new_poi})
    reverse = workload.statements["hotels_for_poi"]
    rows = engine.execute_query(reverse, {"poi": new_poi})
    got = {row["Hotel.HotelName"] for row in rows}
    expected = {name for (name,) in
                dataset.evaluate_query(reverse, {"poi": new_poi})}
    assert got == expected
    assert "hotel-1" in got


def test_connect_is_idempotent_in_store(setup):
    model, workload, dataset, engine = setup
    connect = workload.statements["add_poi"]
    linked = dataset.related(model.entity("Hotel")["PointsOfInterest"], 2)
    new_poi = next(p for p in dataset.rows["PointOfInterest"]
                   if p not in linked)
    engine.execute_update(connect, {"hotel": 2, "poi": new_poi})
    first = _poi_names(engine, workload, dataset, 2)
    engine.execute_update(connect, {"hotel": 2, "poi": new_poi})
    second = _poi_names(engine, workload, dataset, 2)
    assert first == second


@pytest.fixture()
def guest_writes():
    model = hotel_model(scale=0.02)
    workload = Workload(model)
    workload.add_statement(
        "SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city",
        weight=5.0, label="guests_in_city")
    workload.add_statement(
        "SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID = ?guest",
        weight=5.0, label="guest_name")
    workload.add_statement(
        "UPDATE Guest SET GuestName = ?name "
        "WHERE Guest.GuestEmail = ?email",
        weight=1.0, label="rename_by_email")
    workload.add_statement(
        "DELETE FROM Guest WHERE Guest.GuestEmail = ?email",
        weight=1.0, label="forget_by_email")
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    recommendation = Advisor(model).recommend(workload)
    engine = ExecutionEngine(model, recommendation, dataset)
    engine.load()
    return workload, recommendation, dataset, engine


def _contents(engine):
    return {key: list(column_family.rows())
            for key, column_family in engine.store.column_families.items()}


@pytest.mark.parametrize("label", ["rename_by_email", "forget_by_email"])
def test_a_write_matching_nothing_costs_only_its_support_gets(
        guest_writes, label):
    workload, recommendation, dataset, engine = guest_writes
    update = workload.statements[label]
    params = {"email": "nobody@nowhere", "name": "renamed"}
    assert dataset.matching_ids(update, params) == []
    support = [plans[0] for update_plan in recommendation.update_plans[update]
               for plans in update_plan.support_plans_by_query.values()]
    metrics = engine.store.metrics
    start = metrics.snapshot()
    for plan in support:
        engine.execute_query(plan.query, params, plan=plan)
    reads = metrics.snapshot()
    rows, links = dataset.copy().rows, dataset.copy().links
    contents = _contents(engine)
    assert engine.execute_update(update, params) == 0
    end = metrics.snapshot()
    assert dataset.rows == rows and dataset.links == links
    assert _contents(engine) == contents
    charged = {name: end[name] - reads[name] for name in end}
    # the same operations; simulated_ms differs only by rounding
    assert charged == pytest.approx(
        {name: reads[name] - start[name] for name in end})
    assert charged["gets"] > 0
    assert charged["puts"] == charged["deletes"] == 0
