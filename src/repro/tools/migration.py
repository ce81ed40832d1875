"""Schema migration: moving a live store between recommendations.

Workloads drift; re-running the advisor yields a new recommendation.
``plan_migration`` diffs two schemas (column families are identified by
their structural key, so unchanged ones are never rebuilt) and
estimates the data-movement cost; ``execute_migration`` applies the
plan to a store backed by a ground-truth dataset.
"""

from __future__ import annotations

from repro.backend.dataset import materialize_rows
from repro.optimizer.results import SchemaRecommendation


def _indexes_of(schema):
    if isinstance(schema, SchemaRecommendation):
        return list(schema.indexes)
    return list(schema)


class MigrationCostModel:
    """Prices schema migrations in the advisor's abstract cost units.

    Loading a new column family costs ``row_cost`` per materialized
    row (the write-path work of one put) plus ``byte_cost`` per byte
    (transfer and compaction volume); dropping is free — a drop is a
    metadata operation.  The defaults align the per-row charge with
    :class:`~repro.cost.CassandraCostModel`'s ``put_cost`` so one
    loaded row costs about as much as one workload write, which makes
    migration totals directly comparable to serving totals in the
    windowed BIP objective.
    """

    def __init__(self, row_cost=0.15, byte_cost=0.0):
        if row_cost < 0 or byte_cost < 0:
            raise ValueError("migration costs must be non-negative")
        self.row_cost = float(row_cost)
        self.byte_cost = float(byte_cost)

    def index_cost(self, index):
        """Cost of materializing one column family from scratch."""
        return self.row_cost * index.entries + self.byte_cost * index.size

    def migration_cost(self, migration):
        """Total cost of a planned migration (creates only)."""
        return sum(self.index_cost(index)
                   for index in migration.create)

    def cost_terms(self):
        """Parameters as a plain dict (for documents and reports)."""
        return {"row_cost": self.row_cost, "byte_cost": self.byte_cost}

    def __repr__(self):
        return (f"MigrationCostModel(row_cost={self.row_cost}, "
                f"byte_cost={self.byte_cost})")


class SchemaMigration:
    """A diff between two schemas, with movement estimates."""

    def __init__(self, create, drop, keep):
        self.create = tuple(create)
        self.drop = tuple(drop)
        self.keep = tuple(keep)

    @property
    def rows_to_load(self):
        """Estimated rows materialized into the new column families."""
        return sum(index.entries for index in self.create)

    @property
    def bytes_to_load(self):
        return sum(index.size for index in self.create)

    @property
    def bytes_reclaimed(self):
        return sum(index.size for index in self.drop)

    @property
    def is_noop(self):
        return not self.create and not self.drop

    def describe(self):
        lines = [f"Schema migration: create {len(self.create)}, "
                 f"drop {len(self.drop)}, keep {len(self.keep)} "
                 f"column families"]
        for index in self.create:
            lines.append(f"  + {index.key}  {index.triple()}  "
                         f"(~{index.entries:.0f} rows, "
                         f"{index.size / 1e6:.2f} MB)")
        for index in self.drop:
            lines.append(f"  - {index.key}  {index.triple()}")
        lines.append(f"  ~{self.rows_to_load:.0f} rows "
                     f"({self.bytes_to_load / 1e6:.2f} MB) to load, "
                     f"{self.bytes_reclaimed / 1e6:.2f} MB reclaimed")
        return "\n".join(lines)

    def __repr__(self):
        return (f"SchemaMigration(create={len(self.create)}, "
                f"drop={len(self.drop)}, keep={len(self.keep)})")


def plan_migration(current, target):
    """Diff two schemas (recommendations or index collections).

    Column families are matched by structural identity, so a column
    family that exists in both schemas is kept as-is.
    """
    current_indexes = {index.key: index
                       for index in _indexes_of(current)}
    target_indexes = {index.key: index for index in _indexes_of(target)}
    create = [index for key, index in target_indexes.items()
              if key not in current_indexes]
    drop = [index for key, index in current_indexes.items()
            if key not in target_indexes]
    keep = [index for key, index in target_indexes.items()
            if key in current_indexes]
    return SchemaMigration(create, drop, keep)


def execute_migration(store, dataset, migration):
    """Apply a migration to a store backed by a dataset.

    New column families are created and bulk-loaded from the ground
    truth, unmetered (loading is out-of-band); dropped ones are
    removed.  Returns the number of rows loaded.
    """
    loaded = 0
    for index in migration.create:
        column_family = store.create(index)
        loaded += column_family.load(materialize_rows(dataset, index))
    for index in migration.drop:
        store.drop(index)
    return loaded
