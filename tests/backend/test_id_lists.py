"""The cached ID lists of :meth:`Dataset.ids` and the draws made from them.

Both request generators draw entity IDs from ``Dataset.ids``, a list
that is extended as rows are inserted and rebuilt after a delete.  It
must always read like a fresh ``list(rows)``, so the generators draw
exactly what they would draw from one.
"""

import random

import pytest

from repro.backend import Dataset
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.randgen.data import random_value
from repro.rubis import (
    TRANSACTIONS,
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
    rubis_workload,
)
from repro.workload.statements import Delete, Query, Update


def _guest(dataset, guest, name="g"):
    dataset.add_row("Guest", {"GuestID": guest, "GuestName": name,
                              "GuestEmail": f"{guest}@x"})


def test_ids_follow_every_kind_of_row_change():
    from repro.demo import hotel_model
    dataset = Dataset(hotel_model())
    rows = dataset.rows["Guest"]
    assert dataset.ids("Guest") == []
    for guest in range(5):
        _guest(dataset, guest)
    assert dataset.ids("Guest") == list(rows) == [0, 1, 2, 3, 4]
    _guest(dataset, 7)
    _guest(dataset, 5)
    assert dataset.ids("Guest") == list(rows)
    dataset.delete_entity("Guest", 2)
    assert dataset.ids("Guest") == list(rows)
    # a deleted ID inserted again goes to the end of insertion order
    _guest(dataset, 2)
    assert dataset.ids("Guest") == list(rows) == [0, 1, 3, 4, 7, 5, 2]
    # an upsert of an existing ID keeps its place
    _guest(dataset, 3, name="renamed")
    assert dataset.ids("Guest") == list(rows)
    # a delete plus an insert leaves the count unchanged
    dataset.delete_entity("Guest", 0)
    _guest(dataset, 9)
    assert dataset.ids("Guest") == list(rows) == [1, 3, 4, 7, 5, 2, 9]
    # deleting an absent ID still counts as a delete
    dataset.delete_entity("Guest", 42)
    assert dataset.ids("Guest") == list(rows)
    assert dataset.ids("Hotel") == []


class _ListingBindings(BindingGenerator):
    """Draws over a fresh ``list(rows)`` each time."""

    def _sample_id(self, entity):
        rows = self.dataset.rows[entity.name]
        if not rows:
            return self._fresh_id(entity.name)
        keys = list(rows)
        return keys[self.rng.randrange(len(keys))]

    def _sample_value(self, field):
        rows = self.dataset.rows[field.parent.name]
        if rows and self.rng.random() >= self.null_rate:
            keys = list(rows)
            return rows[keys[self.rng.randrange(len(keys))]].get(field.id)
        if self.rng.random() < 0.5:
            return None
        return random_value(field, self.rng)


class _ListingRubis(RubisParameterGenerator):
    """Draws over a fresh ``list(rows)`` each time."""

    def _any_id(self, entity_name):
        keys = list(self.dataset.rows[entity_name])
        return keys[self.rng.randrange(len(keys))]


def test_binding_draws_match_fresh_lists_across_writes():
    model = random_model(entities=6, seed=4)
    dataset = random_dataset(model, seed=4, rows_per_entity=20)
    workload = random_workload(model, queries=6, updates=4, inserts=3,
                               seed=4)
    statements = list(workload.statements.values())
    # DELETEs over the UPDATEs' predicates make rows leave as well
    statements += [Delete(statement.key_path, statement.conditions,
                          label=f"{statement.label}~delete")
                   for statement in workload.statements.values()
                   if isinstance(statement, Update)]
    cached = BindingGenerator(dataset, seed=8)
    listing = _ListingBindings(dataset, seed=8)
    order = random.Random(8)
    draws = writes = 0
    while draws < 2000:
        statement = order.choice(statements)
        params = cached.bindings_for(statement)
        assert params == listing.bindings_for(statement)
        draws += len(params)
        if not isinstance(statement, Query):
            writes += bool(dataset.apply(statement, params))
    assert writes > 0 and sum(dataset.deletions.values()) > 0


@pytest.mark.filterwarnings("ignore::repro.TruncationWarning")
def test_rubis_draws_match_fresh_lists_across_writes():
    model = rubis_model(users=400)
    workload = rubis_workload(model, mix="bidding")
    dataset = generate_dataset(model, seed=5)
    cached = RubisParameterGenerator(dataset, seed=6)
    listing = _ListingRubis(dataset, seed=6)
    order = random.Random(6)
    names = sorted(TRANSACTIONS)
    draws = 0
    while draws < 2000:
        name = order.choice(names)
        requests = cached.requests_for(name)
        assert requests == listing.requests_for(name)
        draws += 5  # every transaction draws five entity IDs
        for label, params in requests:
            statement = workload.statements[label]
            if not isinstance(statement, Query):
                dataset.apply(statement, params)
        if order.random() < 0.05:
            # RUBiS writes never delete; drop a random user or item
            entity = order.choice(["User", "Item"])
            dataset.delete_entity(
                entity, order.choice(list(dataset.rows[entity])))
    assert dataset.deletions["User"] + dataset.deletions["Item"] > 0
