"""Random datasets and parameter bindings for arbitrary models.

The differential oracle (:mod:`repro.verify`) needs ground-truth data
and concrete statement parameters for *any* conceptual model — including
the Watts–Strogatz random models of §VII-B, which have no hand-written
data generator.  This module populates a :class:`Dataset` for any model
and draws parameter bindings for any statement, deterministically under
a seed.

Generated data deliberately includes NULLs (a fraction of non-key
attribute values) and dangling relationship ends, because denormalized
maintenance bugs hide exactly there.
"""

from __future__ import annotations

import datetime

from repro.backend.dataset import Dataset
from repro.model.fields import (
    BooleanField,
    DateField,
    FloatField,
    IDField,
    IntegerField,
    StringField,
)
from repro.workload.statements import Connect, Insert, Update

#: reference timestamp for generated DateField values (fixed for
#: reproducibility, like repro.rubis.datagen.NOW)
EPOCH = datetime.datetime(2016, 1, 1)


def random_value(field, rng, pool=None):
    """A random concrete value for one field, honouring its type.

    ``pool`` caps the number of distinct values (defaults to the field's
    cardinality), so equality predicates have realistic selectivity.
    """
    distinct = max(int(pool or field.cardinality or 10), 1)
    choice = rng.randrange(distinct)
    if isinstance(field, BooleanField):
        return choice % 2 == 0
    if isinstance(field, DateField):
        return EPOCH + datetime.timedelta(days=choice)
    if isinstance(field, FloatField):
        return float(choice) * 1.5
    if isinstance(field, (IDField, IntegerField)):
        return choice
    if isinstance(field, StringField):
        return f"{field.name}-{choice}"
    raise TypeError(f"cannot generate a value for {field!r}")


def random_dataset(model, seed=0, rows_per_entity=24, null_rate=0.1,
                   orphan_rate=0.1):
    """Populate a small :class:`Dataset` for any validated model.

    Every entity receives up to ``rows_per_entity`` rows (fewer when the
    model declares a smaller count); ``null_rate`` of non-key attribute
    values are NULL, and ``orphan_rate`` of relationship targets are
    left unconnected.  Relationship directions the model declares
    ``total`` are repaired afterwards — every source row gets at least
    one link — so the data honors the participation contract the
    planner's larger-column-family rule depends on.  Callers should
    follow with :meth:`Dataset.sync_counts` so advisor statistics match
    the data.
    """
    import random

    rng = random.Random(seed)
    dataset = Dataset(model)
    counts = {}
    for name, entity in model.entities.items():
        counts[name] = max(min(entity.count, rows_per_entity), 1)
        value_pool = max(counts[name] // 2, 2)
        for identifier in range(counts[name]):
            row = {entity.id_field.name: identifier}
            for field in entity.data_fields:
                if rng.random() < null_rate:
                    row[field.name] = None
                else:
                    row[field.name] = random_value(
                        field, rng, pool=min(field.cardinality,
                                             value_pool))
            dataset.add_row(name, row)
    seen_edges = set()
    for name, entity in model.entities.items():
        for key in entity.foreign_keys:
            if key.id in seen_edges:
                continue
            seen_edges.add(key.id)
            if key.reverse is not None:
                seen_edges.add(key.reverse.id)
            for target in range(counts[key.entity.name]):
                if rng.random() < orphan_rate:
                    continue
                source = rng.randrange(counts[name])
                dataset.connect(name, source, key, target)
    # repair mandatory participation: a total direction may not leave
    # any source row unlinked
    for name, entity in model.entities.items():
        for key in entity.foreign_keys:
            if not key.total:
                continue
            for source in range(counts[name]):
                if not dataset.related(key, source):
                    target = rng.randrange(counts[key.entity.name])
                    dataset.connect(name, source, key, target)
    return dataset


class BindingGenerator:
    """Draws concrete parameter bindings for statements over a dataset.

    Values for predicates are sampled from the live data (so statements
    usually match rows), inserts receive fresh primary keys that never
    collide with existing rows, and CONNECT/DISCONNECT endpoints are
    sampled from existing entity rows.  Deterministic under ``seed``.
    """

    def __init__(self, dataset, seed=0, null_rate=0.05):
        import random

        self.dataset = dataset
        self.rng = random.Random(seed)
        self.null_rate = null_rate
        self._next_id = {name: max((i for i in rows
                                    if isinstance(i, int)), default=0)
                         + 1_000_000
                         for name, rows in dataset.rows.items()}

    def _fresh_id(self, entity_name):
        value = self._next_id[entity_name]
        self._next_id[entity_name] = value + 1
        return value

    def _sample_id(self, entity):
        keys = self.dataset.ids(entity.name)
        if not keys:
            return self._fresh_id(entity.name)
        return keys[self.rng.randrange(len(keys))]

    def _sample_value(self, field):
        """A value drawn from the live distribution of ``field``."""
        rows = self.dataset.rows[field.parent.name]
        keys = self.dataset.ids(field.parent.name)
        if keys and self.rng.random() >= self.null_rate:
            row = rows[keys[self.rng.randrange(len(keys))]]
            return row.get(field.id)
        if self.rng.random() < 0.5:
            return None
        return random_value(field, self.rng)

    def bindings_for(self, statement):
        """``{parameter name: value}`` covering every placeholder."""
        params = {}
        if isinstance(statement, Connect):  # includes Disconnect
            params[statement.source_parameter] = self._sample_id(
                statement.entity)
            params[statement.target_parameter] = self._sample_id(
                statement.key_path.last)
            return params
        for condition in statement.conditions:
            if condition.is_membership:
                # one independently drawn value per IN-list member
                for name in condition.parameter:
                    params[name] = self._sample_value(condition.field)
            else:
                params[condition.parameter] = self._sample_value(
                    condition.field)
        if isinstance(statement, Insert):
            for field, parameter in statement.settings.items():
                if field is statement.entity.id_field:
                    params[parameter] = self._fresh_id(
                        statement.entity.name)
                else:
                    params[parameter] = random_value(field, self.rng)
            for key, parameter in statement.connections:
                params[parameter] = self._sample_id(key.entity)
        elif isinstance(statement, Update):
            for field, parameter in statement.settings.items():
                params[parameter] = random_value(field, self.rng)
        return params
