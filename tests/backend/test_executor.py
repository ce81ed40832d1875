"""Integration tests: plan execution against the simulated store.

Every query result is validated against the oracle
(:meth:`Dataset.evaluate_query`), including after updates mutate the
store — the executor must keep all column families consistent.
"""

import pytest

from repro import Advisor
from repro.backend import ExecutionEngine
from repro.exceptions import ExecutionError


@pytest.fixture(scope="module")
def engine_setup():
    from repro.demo import hotel_dataset, hotel_model, hotel_workload
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    recommendation = Advisor(model).recommend(workload)
    engine = ExecutionEngine(model, recommendation, dataset)
    engine.load()
    return model, workload, dataset, engine


def _check(engine, dataset, query, params):
    rows = engine.execute_query(query, params)
    got = {tuple(row[field.id] for field in query.select)
           for row in rows}
    assert got == dataset.evaluate_query(query, params)
    return rows


def test_load_materializes_all_indexes(engine_setup):
    _model, _workload, _dataset, engine = engine_setup
    for index in engine.recommendation.indexes:
        assert index.key in engine.store


def test_point_query_matches_oracle(engine_setup):
    _model, workload, dataset, engine = engine_setup
    query = workload.statements["guest_by_id"]
    _check(engine, dataset, query, {"guest": 5})


def test_path_query_with_range_matches_oracle(engine_setup):
    _model, workload, dataset, engine = engine_setup
    query = workload.statements["guests_in_city_above_rate"]
    rows = _check(engine, dataset, query,
                  {"city": "city-0", "rate": 200.0})
    assert rows, "expected a non-empty result for the test data"


def test_many_to_many_query_matches_oracle(engine_setup):
    _model, workload, dataset, engine = engine_setup
    query = workload.statements["pois_for_guest"]
    for guest in (1, 7, 13):
        _check(engine, dataset, query, {"guest": guest})


def test_ordered_query_is_sorted(engine_setup):
    _model, workload, dataset, engine = engine_setup
    query = workload.statements["hotels_by_location"]
    rows = engine.execute_query(query, {"city": "city-0", "state": "S0"})
    names = [row["Hotel.HotelName"] for row in rows]
    assert names == sorted(names)


def test_execute_by_label(engine_setup):
    _model, _workload, _dataset, engine = engine_setup
    rows = engine.execute("guest_by_id", {"guest": 3})
    assert rows and "Guest.GuestName" in rows[0]
    with pytest.raises(ExecutionError):
        engine.execute("nonexistent", {})


def test_update_keeps_views_consistent(engine_setup):
    _model, workload, dataset, engine = engine_setup
    update = workload.statements["update_poi_description"]
    engine.execute_update(update, {"description": "UPDATED", "poi": 2})
    assert dataset.rows["PointOfInterest"][2][
        "PointOfInterest.POIDescription"] == "UPDATED"
    query = workload.statements["pois_for_hotel"]
    for hotel_id in range(2):
        _check(engine, dataset, query, {"hotel": hotel_id})


def test_insert_appears_in_queries(engine_setup):
    _model, workload, dataset, engine = engine_setup
    import datetime
    insert = workload.statements["make_reservation"]
    engine.execute_update(insert, {
        "ResID": 555_000, "start": datetime.datetime(2016, 6, 1),
        "end": datetime.datetime(2016, 6, 3), "guest": 11, "room": 4})
    query = workload.statements["pois_for_guest"]
    _check(engine, dataset, query, {"guest": 11})


def test_delete_removes_rows_everywhere(engine_setup):
    _model, workload, dataset, engine = engine_setup
    delete = workload.statements["delete_guest"]
    engine.execute_update(delete, {"guest": 9})
    assert 9 not in dataset.rows["Guest"]
    query = workload.statements["pois_for_guest"]
    rows = engine.execute_query(query, {"guest": 9})
    assert rows == []


def test_transaction_accumulates_simulated_time(engine_setup):
    _model, _workload, _dataset, engine = engine_setup
    elapsed = engine.execute_transaction([
        ("guest_by_id", {"guest": 1}),
        ("pois_for_guest", {"guest": 1}),
    ])
    assert elapsed > 0


def test_shared_reads_cache_identical_gets(engine_setup):
    model, workload, dataset, engine = engine_setup
    sharing = ExecutionEngine(model, engine.recommendation, dataset,
                              share_reads=True, update_protocol="expert")
    sharing.load()
    baseline = sharing.execute_transaction([
        ("guest_by_id", {"guest": 2}),
    ])
    doubled = sharing.execute_transaction([
        ("guest_by_id", {"guest": 2}),
        ("guest_by_id", {"guest": 2}),
    ])
    # the second identical request is answered from the cache
    assert doubled == pytest.approx(baseline)


def test_unshared_reads_pay_twice(engine_setup):
    _model, _workload, _dataset, engine = engine_setup
    baseline = engine.execute_transaction([
        ("guest_by_id", {"guest": 2}),
    ])
    doubled = engine.execute_transaction([
        ("guest_by_id", {"guest": 2}),
        ("guest_by_id", {"guest": 2}),
    ])
    assert doubled == pytest.approx(2 * baseline)


def test_invalid_update_protocol_rejected(engine_setup):
    model, _workload, dataset, engine = engine_setup
    with pytest.raises(ExecutionError):
        ExecutionEngine(model, engine.recommendation, dataset,
                        update_protocol="magic")


def test_sort_is_stable_with_nulls_last(engine_setup):
    """A None/missing sort value must order after every concrete value
    without raising TypeError, and ties must keep arrival order."""
    _model, _workload, _dataset, engine = engine_setup
    bindings = [{"f": 2, "tag": 0}, {"f": None, "tag": 1},
                {"tag": 2}, {"f": 1, "tag": 3}]
    # a compiled sort step is the tuple of its field ids
    ordered = engine._sort(("f",), {}, bindings)
    assert [binding.get("f") for binding in ordered] \
        == [1, 2, None, None]
    # the explicit None and the missing value keep their relative order
    assert [binding["tag"] for binding in ordered
            if binding.get("f") is None] == [1, 2]


def test_filter_applies_the_canonical_null_rule(engine_setup):
    from repro.workload.conditions import Condition
    model, _workload, _dataset, engine = engine_setup
    field = model.entity("Guest")["GuestName"]
    bindings = [{field.id: None}, {field.id: "x"}, {}]
    # a compiled filter step pairs each condition with its field id
    equality = ((field.id, Condition(field, "=", "p")),)
    # NULL = NULL holds for both an explicit None and a missing value
    assert engine._filter(equality, {"p": None}, bindings) \
        == [{field.id: None}, {}]
    assert engine._filter(equality, {"p": "x"}, bindings) \
        == [{field.id: "x"}]
    ranged = ((field.id, Condition(field, ">", "p")),)
    # ranges never match when either side is NULL
    assert engine._filter(ranged, {"p": "a"}, bindings) \
        == [{field.id: "x"}]
    assert engine._filter(ranged, {"p": None}, bindings) == []


def test_duplicate_statement_labels_rejected(engine_setup):
    """A query and an update sharing a label must be an error, not a
    silent last-writer-wins shadowing."""
    from types import SimpleNamespace
    model, workload, dataset, engine = engine_setup
    query = workload.statements["guest_by_id"]
    plan = engine._query_plans["guest_by_id"]

    class Impostor:
        label = "guest_by_id"

    impostor = Impostor()
    recommendation = SimpleNamespace(
        query_plans={query: plan},
        update_plans={impostor: []}, indexes=[])
    with pytest.raises(ExecutionError, match="duplicate"):
        ExecutionEngine(model, recommendation, dataset)


def test_expert_protocol_writes_fewer_rows(engine_setup):
    """The diff-upsert protocol must touch no more rows than the paper's
    delete-then-insert protocol for the same update."""
    model, workload, _dataset, engine = engine_setup
    from repro.demo import hotel_dataset
    results = {}
    for protocol in ("nose", "expert"):
        dataset = hotel_dataset(model, seed=42)
        fresh = ExecutionEngine(model, engine.recommendation, dataset,
                                update_protocol=protocol)
        fresh.load()
        fresh.store.reset_metrics()
        update = workload.statements["update_poi_description"]
        fresh.execute_update(update, {"description": "x", "poi": 1})
        metrics = fresh.store.metrics
        results[protocol] = (metrics.rows_written
                             + metrics.rows_deleted)
    assert results["expert"] <= results["nose"]
