"""The column-family abstraction (paper §III-C and §IV-A1)."""

from __future__ import annotations

import hashlib

from repro.exceptions import ModelError
from repro.model.paths import KeyPath


class Index:
    """One column family: ``[hash][order][extra]`` over an entity-graph path.

    ``hash_fields`` form the partition key, ``order_fields`` the clustering
    key (order matters — records within a partition are sorted by it), and
    ``extra_fields`` are plain column values.  ``path`` is the walk through
    the entity graph whose join populates the column family; every field
    must belong to an entity on the path.

    An index's *content* is orientation-independent (the join over a path
    equals the join over its reverse), so two indexes with the same fields
    over reversed paths are considered equal.

    Indexes are immutable; ``key`` is a deterministic digest used as the
    backing table name.
    """

    __slots__ = ("hash_fields", "order_fields", "extra_fields", "path",
                 "key", "_all_fields", "_field_ids", "_entry_size",
                 "_projection")

    def __init__(self, hash_fields, order_fields, extra_fields, path):
        hash_fields = tuple(hash_fields)
        order_fields = tuple(order_fields)
        extra_fields = tuple(extra_fields)
        if not isinstance(path, KeyPath):
            raise ModelError("an index requires a KeyPath")
        if not hash_fields:
            raise ModelError("an index requires at least one hash field")
        entities = set(path.entities)
        seen = set()
        for group_name, fields in (("hash", hash_fields),
                                   ("order", order_fields),
                                   ("extra", extra_fields)):
            for field in fields:
                if field.parent not in entities:
                    raise ModelError(
                        f"{group_name} field {field.id} is not on the "
                        f"index path {path}")
                if field.id in seen:
                    raise ModelError(
                        f"field {field.id} appears twice in the index")
                seen.add(field.id)
        self.hash_fields = hash_fields
        self.order_fields = order_fields
        self.extra_fields = extra_fields
        self.path = path
        self.key = self._digest()
        # field membership is immutable, so the planner's subset checks
        # (covers, bitset rows) read precomputed structures instead of
        # rebuilding id sets per call; entity *counts* may change after
        # construction (Dataset.sync_counts), so count-dependent
        # statistics below stay dynamic properties
        self._all_fields = hash_fields + order_fields + extra_fields
        self._field_ids = frozenset(f.id for f in self._all_fields)
        self._entry_size = sum(f.size for f in self._all_fields)
        self._projection = None

    def _digest(self):
        # the path signature is orientation-independent and includes the
        # relationship edges, so an index equals its reverse-path twin
        # but differs from one over a parallel relationship
        names, edges = self.path.signature
        parts = [
            ",".join(sorted(f.id for f in self.hash_fields)),
            ",".join(f.id for f in self.order_fields),
            ",".join(sorted(f.id for f in self.extra_fields)),
            ",".join(names),
            ";".join(edges),
        ]
        digest = hashlib.md5("|".join(parts).encode()).hexdigest()[:10]
        return f"i{digest}"

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Index):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    # -- fields --------------------------------------------------------------

    @property
    def key_fields(self):
        """Partition plus clustering fields — the row's primary key."""
        return self.hash_fields + self.order_fields

    @property
    def all_fields(self):
        return self._all_fields

    def contains_field(self, field):
        return field.id in self._field_ids

    def covers(self, fields):
        """True if every requested field is stored in this column family."""
        stored = self._field_ids
        return all(f.id in stored for f in fields)

    @property
    def all_field_ids(self):
        return self._field_ids

    @property
    def projection(self):
        """How a join row along ``path`` becomes a record:
        ``(sources, columns)``.  ``sources`` holds one ``(position,
        entity name)`` per path position holding fields of this index,
        in field order; ``columns`` holds one ``(field id, source
        slot)`` per field of :attr:`all_fields`, in that order, the slot
        indexing ``sources``.  Built on first use."""
        if self._projection is None:
            positions = [self.path.index_of(field.parent)
                         for field in self._all_fields]
            used = list(dict.fromkeys(positions))
            self._projection = (
                tuple((position, self.path.entities[position].name)
                      for position in used),
                tuple((field.id, used.index(position))
                      for field, position in zip(self._all_fields,
                                                 positions)))
        return self._projection

    # -- path compatibility ---------------------------------------------------

    def matches_segment(self, segment):
        """True if this index is defined over exactly ``segment``'s walk
        (same entities over the same relationship edges), in either
        orientation — index content is orientation-independent.
        """
        return self.path.signature == segment.signature

    # -- statistics ------------------------------------------------------------

    @property
    def entries(self):
        """Expected number of rows (partition, clustering pairs)."""
        return self.path.cardinality

    @property
    def hash_count(self):
        """Expected number of distinct partition keys."""
        combinations = 1.0
        for field in self.hash_fields:
            combinations *= max(field.cardinality, 1)
        return max(min(combinations, self.entries), 1.0)

    @property
    def per_partition_entries(self):
        """Average rows per partition."""
        return self.entries / self.hash_count

    @property
    def entry_size(self):
        """Average encoded size of one row, in bytes."""
        return self._entry_size

    @property
    def size(self):
        """Estimated total size of the column family, in bytes."""
        return self.entries * self.entry_size

    # -- presentation ------------------------------------------------------------

    def triple(self):
        """The paper's ``[hash][order][extra]`` notation."""
        def names(fields):
            return ", ".join(f.id for f in fields)
        return (f"[{names(self.hash_fields)}]"
                f"[{names(self.order_fields)}]"
                f"[{names(self.extra_fields)}]")

    def cql(self):
        """A ``CREATE TABLE`` statement for this column family.

        Emits CQL3 with the partition key and clustering columns
        matching the index structure, for deployment on a real
        Cassandra cluster.  Column names flatten ``Entity.Field`` to
        ``entity_field``.
        """
        from repro.indexes.cql import create_table
        return create_table(self)

    def __repr__(self):
        return f"Index({self.key}: {self.triple()} over {self.path})"

    def __str__(self):
        return self.triple()
