"""Property-based tests: the record store against a naive reference.

The column family must behave exactly like "sort all rows, filter by
partition, clustering prefix and range" for any sequence of puts and
deletes, and a bulk write exactly like one put per row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import Store
from repro.exceptions import ExecutionError
from repro.indexes import Index
from repro.model import Entity, IDField, IntegerField, Model


def _index():
    model = Model("prop")
    entity = Entity("E", count=100)
    entity.add_fields(IDField("ID"), IntegerField("A"), IntegerField("B"),
                      IntegerField("V"))
    model.add_entity(entity)
    return Index((entity["A"],), (entity["B"], entity["ID"]),
                 (entity["V"],), model.path(["E"]))


INDEX = _index()

row_strategy = st.fixed_dictionaries({
    "E.A": st.integers(0, 3),
    "E.B": st.integers(0, 5),
    "E.ID": st.integers(0, 5),
    "E.V": st.integers(-10, 10),
})

operators = st.sampled_from([">", ">=", "<", "<="])


def _reference(rows, partition, prefix, range_filter):
    """Naive model: last write wins per key, then filter and sort."""
    state = {}
    for row in rows:
        state[(row["E.A"], row["E.B"], row["E.ID"])] = row
    kept = [row for key, row in sorted(state.items())
            if row["E.A"] == partition[0]]
    if prefix:
        kept = [row for row in kept if row["E.B"] == prefix[0]]
    if range_filter is not None:
        operator, bound = range_filter
        component = "E.ID" if prefix else "E.B"
        def matches(value):
            if operator == ">":
                return value > bound
            if operator == ">=":
                return value >= bound
            if operator == "<":
                return value < bound
            return value <= bound
        kept = [row for row in kept if matches(row[component])]
    return kept


@settings(max_examples=120, deadline=None)
@given(rows=st.lists(row_strategy, max_size=30),
       partition=st.integers(0, 3),
       prefix=st.booleans(),
       prefix_value=st.integers(0, 5),
       use_range=st.booleans(),
       operator=operators,
       bound=st.integers(-1, 6))
def test_get_matches_reference(rows, partition, prefix, prefix_value,
                               use_range, operator, bound):
    store = Store()
    cf = store.create(INDEX)
    for row in rows:
        cf.put(row, charge=False)
    prefix_tuple = (prefix_value,) if prefix else ()
    range_filter = (operator, bound) if use_range else None
    got = cf.get((partition,), prefix=prefix_tuple,
                 range_filter=range_filter, charge=False)
    expected = _reference(rows, (partition,), prefix_tuple, range_filter)
    assert [(r["E.A"], r["E.B"], r["E.ID"], r["E.V"]) for r in got] \
        == [(r["E.A"], r["E.B"], r["E.ID"], r["E.V"]) for r in expected]


@settings(max_examples=80, deadline=None)
@given(puts=st.lists(row_strategy, max_size=20),
       deletes=st.lists(row_strategy, max_size=10))
def test_put_delete_sequences(puts, deletes):
    store = Store()
    cf = store.create(INDEX)
    state = {}
    for row in puts:
        cf.put(row, charge=False)
        state[(row["E.A"], row["E.B"], row["E.ID"])] = row["E.V"]
    for row in deletes:
        cf.delete_row(row, charge=False)
        state.pop((row["E.A"], row["E.B"], row["E.ID"]), None)
    assert len(cf) == len(state)
    for row in cf.rows():
        key = (row["E.A"], row["E.B"], row["E.ID"])
        assert state[key] == row["E.V"]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(row_strategy, min_size=1, max_size=25))
def test_rows_sorted_within_partition(rows):
    store = Store()
    cf = store.create(INDEX)
    cf.put_many(rows, charge=False)
    for partition in {row["E.A"] for row in rows}:
        got = cf.get((partition,), charge=False)
        keys = [(row["E.B"], row["E.ID"]) for row in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


nullable_row_strategy = st.fixed_dictionaries({
    "E.A": st.integers(0, 3),
    "E.B": st.none() | st.integers(0, 2),
    "E.ID": st.none() | st.integers(0, 2),
    "E.V": st.integers(-10, 10),
})

COLUMNS = [field.id for field in INDEX.all_fields]


def _records(cf):
    """Every record with its row's items, partitions in stored order."""
    return [(partition, [(key, list(row.items())) for key, row in records])
            for partition, records in cf.partitions()]


@settings(max_examples=150, deadline=None)
@given(existing=st.lists(nullable_row_strategy, max_size=10),
       batch=st.lists(nullable_row_strategy, max_size=30),
       bulk=st.sampled_from(["load", "put_many"]))
def test_bulk_write_matches_one_put_per_row(existing, batch, bulk):
    sequential = Store().create(INDEX)
    bulked = Store().create(INDEX)
    for row in existing:
        sequential.put(row, charge=False)
        bulked.put(row, charge=False)
    for row in batch:
        sequential.put(row, charge=False)
    if bulk == "load":
        # load keeps fresh rows as they are: hand it column-ordered ones
        count = bulked.load([{column: row[column] for column in COLUMNS}
                             for row in batch])
    else:
        count = bulked.put_many(batch, charge=False)
    assert count == len(batch)
    assert _records(bulked) == _records(sequential)


@settings(max_examples=60, deadline=None)
@given(existing=st.lists(nullable_row_strategy, max_size=10),
       batch=st.lists(nullable_row_strategy, min_size=1, max_size=10),
       bad=st.integers(0, 9),
       missing=st.sampled_from(["E.A", "E.B", "E.ID"]),
       bulk=st.sampled_from(["load", "put_many"]))
def test_bulk_write_with_a_malformed_row_writes_nothing(existing, batch,
                                                        bad, missing, bulk):
    cf = Store().create(INDEX)
    for row in existing:
        cf.put(row, charge=False)
    before = _records(cf)
    rows = [dict(row) for row in batch]
    del rows[bad % len(rows)][missing]
    with pytest.raises(ExecutionError, match="missing key column"):
        if bulk == "load":
            cf.load(rows)
        else:
            cf.put_many(rows, charge=False)
    assert _records(cf) == before
