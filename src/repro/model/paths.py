"""Paths through the entity graph.

Every NoSE query names a target entity and a path through the entity
graph originating at it (§III-B); every column family is likewise defined
over a path (§IV-A1).  A :class:`KeyPath` is a non-empty sequence of
entities connected by foreign-key edges, and supports the operations the
enumerator and planner need: slicing into contiguous sub-paths, reversal,
and join-cardinality estimation.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.model.fields import ForeignKeyField


class KeyPath:
    """A walk ``e0 -k0-> e1 -k1-> ... -> en`` through the entity graph.

    ``entities[i]`` is the i-th entity and ``keys[i]`` the foreign key on
    ``entities[i]`` leading to ``entities[i+1]``.  A single-entity path
    has no keys.  Paths are immutable and hashable.
    """

    __slots__ = ("entities", "keys", "_hash", "_signature")

    def __init__(self, first_entity, keys=()):
        keys = tuple(keys)
        entities = [first_entity]
        for key in keys:
            if not isinstance(key, ForeignKeyField):
                raise ModelError(f"path key {key!r} is not a foreign key")
            if key.parent is not entities[-1]:
                raise ModelError(
                    f"path key {key.id} does not leave entity "
                    f"{entities[-1].name!r}")
            entities.append(key.entity)
        self.entities = tuple(entities)
        self.keys = keys
        self._hash = hash((tuple(e.name for e in self.entities),
                           tuple(k.id for k in keys)))
        self._signature = None

    # -- basic protocol ----------------------------------------------------

    def __len__(self):
        return len(self.entities)

    def __iter__(self):
        return iter(self.entities)

    def __getitem__(self, index):
        """Entity at a position, or a contiguous sub-path for a slice."""
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self.entities))
            if step != 1 or stop <= start:
                raise ModelError("paths slice only into contiguous sub-paths")
            return KeyPath(self.entities[start],
                           self.keys[start:stop - 1])
        return self.entities[index]

    def __eq__(self, other):
        if not isinstance(other, KeyPath):
            return NotImplemented
        return self.entities == other.entities and self.keys == other.keys

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"KeyPath({str(self)!r})"

    def __str__(self):
        parts = [self.entities[0].name]
        parts.extend(key.name for key in self.keys)
        return ".".join(parts)

    # -- structure ---------------------------------------------------------

    @property
    def signature(self):
        """Orientation-independent identity of the walk.

        Two paths have the same signature iff they visit the same
        entities over the same relationship edges, in either direction.
        Distinguishes parallel relationships between the same entities
        (e.g. comments *written* vs comments *received* by a user).

        Cached — paths are immutable, and the enumerator and planner
        consult signatures once per (candidate, segment) combination.
        """
        if self._signature is not None:
            return self._signature
        names = tuple(entity.name for entity in self.entities)
        edges = tuple(
            "|".join(sorted((key.id,
                             key.reverse.id if key.reverse else "")))
            for key in self.keys)
        forward = (names, edges)
        backward = (names[::-1], edges[::-1])
        self._signature = min(forward, backward)
        return self._signature

    @property
    def first(self):
        return self.entities[0]

    @property
    def last(self):
        return self.entities[-1]

    def index_of(self, entity):
        """First position of ``entity`` on the path, or -1 if absent."""
        for i, path_entity in enumerate(self.entities):
            if path_entity is entity:
                return i
        return -1

    def positions_of(self, entity):
        """Every position of ``entity`` on the path, in order."""
        return tuple(i for i, path_entity in enumerate(self.entities)
                     if path_entity is entity)

    def includes(self, entity):
        return self.index_of(entity) >= 0

    def reverse(self):
        """The same walk traversed backwards.

        Requires every edge to have a reverse foreign key, which
        :meth:`repro.model.graph.Model.add_relationship` guarantees.
        """
        reverse_keys = []
        for key in reversed(self.keys):
            if key.reverse is None:
                raise ModelError(
                    f"cannot reverse path {self}: {key.id} has no reverse")
            reverse_keys.append(key.reverse)
        return KeyPath(self.entities[-1], reverse_keys)

    def concat(self, other):
        """Join two paths sharing an endpoint: ``self.last is other.first``."""
        if self.last is not other.first:
            raise ModelError(
                f"cannot concatenate {self} with {other}: endpoints differ")
        return KeyPath(self.first, self.keys + other.keys)

    def is_prefix_of(self, other):
        """True if this path is a leading sub-path of ``other``."""
        if len(self) > len(other):
            return False
        return (self.entities == other.entities[:len(self)]
                and self.keys == other.keys[:len(self.keys)])

    def splits(self):
        """All (prefix, remainder) decompositions sharing a pivot entity.

        Yields ``(self[:i+1], self[i:])`` for every position ``i``; this is
        the recursive decomposition of §IV-A2 (Fig 5) applied to paths.
        """
        for i in range(len(self)):
            yield self[:i + 1], self[i:]

    # -- statistics ----------------------------------------------------------

    @property
    def cardinality(self):
        """Estimated number of rows in the full join along the path.

        Starts from the first entity's row count; every ``many`` edge
        multiplies by its average fanout, every ``one`` edge preserves
        cardinality.  The estimate is floored at one row.
        """
        rows = float(self.entities[0].count)
        for key in self.keys:
            rows *= key.fanout
        return max(rows, 1.0)

    def fanout_from(self, position):
        """Expected rows reached per row of ``entities[position]``.

        Used by the planner to propagate result cardinality across a join
        step that advances the frontier from ``position`` to the end of
        this path.
        """
        rows = 1.0
        for key in self.keys[position:]:
            rows *= key.fanout
        return rows
