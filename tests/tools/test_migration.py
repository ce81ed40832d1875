"""Tests for schema migration planning and execution."""

import pytest

from repro import Advisor
from repro.backend import ExecutionEngine
from repro.demo import hotel_dataset, hotel_model, hotel_workload
from repro.tools import execute_migration, plan_migration


@pytest.fixture(scope="module")
def drifted():
    """Two recommendations for the same model under drifting weights."""
    model = hotel_model(scale=0.02)
    read_heavy = hotel_workload(model, include_updates=True)
    write_heavy = read_heavy.scale_weights(100, mix="writes")
    advisor = Advisor(model)
    before = advisor.recommend(read_heavy)
    after = advisor.recommend(write_heavy)
    return model, read_heavy, write_heavy, before, after


def test_migration_diff_is_consistent(drifted):
    _model, _rw, _ww, before, after = drifted
    migration = plan_migration(before, after)
    created = {index.key for index in migration.create}
    dropped = {index.key for index in migration.drop}
    kept = {index.key for index in migration.keep}
    assert created | kept == {index.key for index in after.indexes}
    assert dropped | kept == {index.key for index in before.indexes}
    assert not created & dropped
    assert not created & kept


def test_self_migration_is_noop(drifted):
    _model, _rw, _ww, before, _after = drifted
    migration = plan_migration(before, before)
    assert migration.is_noop
    assert migration.rows_to_load == 0


def test_migration_estimates(drifted):
    _model, _rw, _ww, before, after = drifted
    migration = plan_migration(before, after)
    assert migration.rows_to_load == pytest.approx(
        sum(index.entries for index in migration.create))
    assert migration.bytes_to_load >= 0
    text = migration.describe()
    for index in migration.create:
        assert index.key in text


def test_migration_accepts_raw_index_lists(drifted):
    _model, _rw, _ww, before, after = drifted
    migration = plan_migration(list(before.indexes),
                               list(after.indexes))
    assert {index.key for index in migration.keep} \
        == {index.key for index in plan_migration(before, after).keep}


def test_execute_migration_moves_store_to_target(drifted):
    model, read_heavy, write_heavy, before, after = drifted
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    engine = ExecutionEngine(model, before, dataset)
    engine.load()
    migration = plan_migration(before, after)
    loaded = execute_migration(engine.store, dataset, migration)
    if migration.create:
        assert loaded > 0
    # the store now serves the new recommendation's plans correctly
    new_engine = ExecutionEngine(model, after, dataset,
                                 store=engine.store)
    for query in write_heavy.queries:
        params = {"guest": 3, "hotel": 0, "city": "city-1",
                  "rate": 100.0, "state": "S0"}
        rows = new_engine.execute_query(query, params)
        got = {tuple(row[f.id] for f in query.select) for row in rows}
        assert got == dataset.evaluate_query(query, params)
    # dropped column families are gone
    for index in migration.drop:
        assert index.key not in engine.store


def test_window_schedule_migrations_round_trip():
    """Walking a windowed schedule through ``execute_migration`` must
    leave the store byte-identical to re-materializing each window's
    schema from the dataset — checked by the differential oracle's
    store sweep after every transition."""
    from repro.backend.dataset import materialize_rows
    from repro.backend.store import Store
    from repro.demo.hotel import hotel_dataset as build_dataset
    from repro.verify.runner import DifferentialRunner
    from repro.windows import WindowSchedule, recommend_windows

    class PreloadedEngine(ExecutionEngine):
        # the store under test was populated by the migrations; the
        # oracle must not reload it from scratch
        def load(self):
            return 0

    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    workload.scale_weights(50, mix="writes")
    dataset = build_dataset(model, seed=7)
    dataset.sync_counts()
    advisor = Advisor(model)
    schedule = WindowSchedule([("default", 400.0), ("writes", 400.0),
                               ("default", 400.0)])
    windowed = recommend_windows(advisor, workload, schedule)

    store = Store()
    previous = ()
    for result, window in zip(windowed.windows, schedule):
        migration = plan_migration(previous, result.indexes)
        execute_migration(store, dataset, migration)
        previous = result.indexes
        # the store holds exactly this window's schema, nothing stale
        assert sorted(store.column_families) == sorted(result.keys)
        recommendation = advisor.plan_for_schema(
            workload.with_mix(window.mix), result.indexes)
        runner = DifferentialRunner(
            model, recommendation, dataset,
            engine_factory=lambda m, r, d, **kw: PreloadedEngine(
                m, r, d, store=store, **kw))
        assert runner.sweep() == []
        assert runner.ok

    # and the final store holds exactly the rows of a cold
    # materialization
    fresh = Store()
    for index in windowed.windows[-1].indexes:
        fresh.create(index).put_many(materialize_rows(dataset, index),
                                     charge=False)

    def contents(target):
        return {key: {cf.row_key(row): row for row in cf.rows()}
                for key, cf in target.column_families.items()}

    assert contents(store) == contents(fresh)
