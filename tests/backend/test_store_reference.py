"""The record store against an independent reference, and the snapshot
contract of the rows it hands out.

The reference keeps a plain dict of records and orders clustering keys
with the ``(False, value)`` / ``(True,)`` NULLS LAST encoding written
out below, independently of :mod:`repro.workload.semantics`.
Clustering components may be NULL at any position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Advisor
from repro.backend import ExecutionEngine, Store
from repro.indexes import Index
from repro.model import Entity, IDField, IntegerField, Model
from repro.rubis import (
    TRANSACTIONS,
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
    rubis_workload,
)
from repro.workload.statements import Query


def _index():
    model = Model("reference")
    entity = Entity("E", count=100)
    entity.add_fields(IDField("ID"), IntegerField("A"), IntegerField("B"),
                      IntegerField("C"), IntegerField("V"))
    model.add_entity(entity)
    return Index((entity["A"],), (entity["B"], entity["C"], entity["ID"]),
                 (entity["V"],), model.path(["E"]))


INDEX = _index()
CLUSTERING = ("E.B", "E.C", "E.ID")
COLUMNS = ("E.A",) + CLUSTERING + ("E.V",)

component = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def rows(draw):
    row = {"E.A": draw(st.sampled_from([0, 1, None]))}
    for field in CLUSTERING:
        row[field] = draw(component)
    # a missing value column is stored as NULL
    if draw(st.booleans()):
        row["E.V"] = draw(st.integers(-5, 5))
    return row


@st.composite
def gets(draw):
    width = draw(st.integers(0, len(CLUSTERING)))
    prefix = tuple(draw(component) for _ in range(width))
    range_filter = None
    if width < len(CLUSTERING) and draw(st.booleans()):
        range_filter = (draw(st.sampled_from([">", ">=", "<", "<="])),
                        draw(st.one_of(st.none(), st.integers(-1, 4))))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    return ("get", draw(st.sampled_from([0, 1, None])), prefix,
            range_filter, limit)


@st.composite
def batches(draw):
    batch = draw(st.lists(rows(), min_size=1, max_size=6))
    # repeat some keys inside the batch with fresh values: last one wins
    for row in draw(st.lists(st.sampled_from(batch), max_size=3)):
        batch.append({**row, "E.V": draw(st.integers(-5, 5))})
    return batch


operations = st.one_of(
    st.tuples(st.just("put"), rows()),
    st.tuples(st.just("put_many"), batches()),
    st.tuples(st.just("delete_row"), rows()),
    st.tuples(st.just("delete_many"), st.lists(rows(), max_size=6)),
    gets(),
)


def _key(row):
    return tuple(row[field] for field in ("E.A",) + CLUSTERING)


def _nulls_last(values):
    return tuple((True,) if value is None else (False, value)
                 for value in values)


def _in_range(value, operator, bound):
    if value is None or bound is None:
        return False
    return {">": value > bound, ">=": value >= bound,
            "<": value < bound, "<=": value <= bound}[operator]


def _reference_get(state, partition, prefix, range_filter, limit):
    records = sorted(
        (row for key, row in state.items() if key[0] == partition),
        key=lambda row: _nulls_last(row[field] for field in CLUSTERING))
    width = len(prefix)
    records = [row for row in records
               if tuple(row[field] for field in CLUSTERING[:width])
               == prefix]
    if range_filter is not None:
        operator, bound = range_filter
        records = [row for row in records
                   if _in_range(row[CLUSTERING[width]], operator, bound)]
    return records if limit is None else records[:limit]


@settings(max_examples=150, deadline=None)
@given(script=st.lists(operations, max_size=25))
def test_store_matches_reference(script):
    cf = Store().create(INDEX)
    state = {}
    for operation, *args in script:
        if operation == "put":
            cf.put(args[0])
            state[_key(args[0])] = args[0]
        elif operation == "put_many":
            cf.put_many(args[0])
            for row in args[0]:
                state[_key(row)] = row
        elif operation == "delete_row":
            assert cf.delete_row(args[0]) \
                == (state.pop(_key(args[0]), None) is not None)
        elif operation == "delete_many":
            removed = 0
            for row in args[0]:
                removed += state.pop(_key(row), None) is not None
            assert cf.delete_many(args[0]) == removed
        else:
            partition, prefix, range_filter, limit = args
            got = cf.get((partition,), prefix, range_filter=range_filter,
                         limit=limit)
            expected = _reference_get(state, partition, prefix,
                                      range_filter, limit)
            assert got == [{field: row.get(field) for field in COLUMNS}
                           for row in expected]
    assert len(cf) == len(state)
    assert sorted(map(_key, cf.rows()), key=_nulls_last) \
        == sorted(state, key=_nulls_last)
    # then every prefix of a stored key under every range filter
    ranges = [None] + [(operator, bound)
                       for operator in (">", ">=", "<", "<=")
                       for bound in (None, -1, 0, 1, 2, 3, 4)]
    for key in state:
        for width in range(len(CLUSTERING)):
            for range_filter in ranges:
                got = cf.get(key[:1], key[1:1 + width],
                             range_filter=range_filter, charge=False)
                expected = _reference_get(state, key[0],
                                          key[1:1 + width], range_filter,
                                          None)
                assert got == [{field: row.get(field) for field in COLUMNS}
                               for row in expected]


# -- the snapshot contract ---------------------------------------------------


def _row(v, b=1):
    return {"E.A": 0, "E.B": b, "E.C": None, "E.ID": 7, "E.V": v}


@pytest.mark.parametrize("write", ["put", "put_many", "delete_row",
                                   "delete_many"])
def test_rows_from_get_survive_later_writes_of_the_record(write):
    cf = Store().create(INDEX)
    cf.put(_row(1))
    cf.put(_row(2, b=None))
    before = cf.get((0,))
    copies = [dict(row) for row in before]
    if write == "put":
        cf.put(_row(5))
    elif write == "put_many":
        cf.put_many([_row(5), _row(6, b=None)])
    elif write == "delete_row":
        cf.delete_row(_row(1))
    else:
        cf.delete_many([_row(1), _row(2, b=None)])
    assert before == copies
    if write.startswith("put"):
        assert cf.get((0,), (1,))[0]["E.V"] == 5


@pytest.mark.filterwarnings("ignore::repro.TruncationWarning")
def test_read_only_rubis_replay_leaves_stored_rows_unchanged():
    model = rubis_model(users=400)
    workload = rubis_workload(model, mix="bidding")
    dataset = generate_dataset(model, seed=7)
    engine = ExecutionEngine(model, Advisor(model).recommend(workload),
                             dataset, share_reads=True)
    engine.load()
    stored = {key: [(row, dict(row)) for row in cf.rows()]
              for key, cf in engine.store.column_families.items()}
    generator = RubisParameterGenerator(dataset, seed=11)
    for _ in range(4):
        for name in sorted(TRANSACTIONS):
            reads = [(label, params)
                     for label, params in generator.requests_for(name)
                     if isinstance(workload.statements[label], Query)]
            engine.execute_transaction(reads)
    assert engine.store.metrics.rows_read > 0
    for key, cf in engine.store.column_families.items():
        rows = list(cf.rows())
        assert len(rows) == len(stored[key])
        for row, (original, copy) in zip(rows, stored[key]):
            assert row is original and row == copy

