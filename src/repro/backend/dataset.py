"""Ground-truth data: entity rows plus relationship instances.

The benchmark harnesses need a consistent source of truth from which
every column family can be (re)materialized: initial loading, and the
row-level maintenance performed when updates execute.  A
:class:`Dataset` stores entity rows keyed by ID and adjacency dicts for
both directions of every relationship, and can enumerate the join rows
of any path — optionally anchored at specific entity IDs, which makes
update maintenance proportional to the change rather than the data.
"""

from __future__ import annotations

from itertools import islice

from repro.exceptions import ExecutionError, ModelError
from repro.model.fields import ForeignKeyField


class Dataset:
    """In-memory instance of a conceptual model."""

    def __init__(self, model):
        self.model = model
        #: entity name -> {id value: {field_id: value}}; each entity's
        #: dict is changed in place, never replaced, so an execution
        #: engine may hold on to it
        self.rows = {name: {} for name in model.entities}
        #: entity name -> rows deleted so far, so a cached key list can
        #: tell a delete plus an insert from no change at all
        self.deletions = {name: 0 for name in model.entities}
        #: foreign key field id -> {source id: {target id: None}}: unlike
        #: sets, dicts of atomic ids are never tracked by the collector
        self.links = {}
        for entity in model.entities.values():
            for key in entity.foreign_keys:
                self.links[key.id] = {}
        #: names resolved by add_row and connect, keyed by the names
        #: as passed: entity name -> (entity, primary-key field id,
        #: {attribute name: field id}), and (entity name, relationship)
        #: -> (forward links, reverse links or None)
        self._attributes = {}
        self._link_dicts = {}
        #: entity name -> (deletions when built, cached :meth:`ids` list)
        self._ids = {}

    # -- population ------------------------------------------------------------

    def add_row(self, entity_name, values):
        """Insert one entity row; ``values`` maps field names (or ids) to
        values and must include the primary key."""
        resolved = self._attributes.get(entity_name)
        if resolved is None:
            entity = self.model.entity(entity_name)
            id_field = entity.id_field
            if id_field is None:
                raise ModelError(
                    f"row for {entity.name!r} is missing its primary key")
            resolved = self._attributes[entity_name] = (entity, id_field.id,
                                                        {})
        entity, id_field_id, field_ids = resolved
        row = {}
        for name, value in values.items():
            field_id = field_ids.get(name)
            if field_id is None:
                field = entity.fields.get(name.split(".")[-1])
                if field is None or isinstance(field, ForeignKeyField):
                    raise ModelError(
                        f"entity {entity.name!r} has no attribute {name!r}")
                field_id = field_ids[name] = field.id
            row[field_id] = value
        if id_field_id not in row:
            raise ModelError(
                f"row for {entity.name!r} is missing its primary key")
        self.rows[entity.name][row[id_field_id]] = row
        return row

    def connect(self, entity_name, source_id, relationship, target_id):
        """Create a relationship instance (both directions)."""
        forward, backward = self._links_of(entity_name, relationship)
        forward.setdefault(source_id, {})[target_id] = None
        if backward is not None:
            backward.setdefault(target_id, {})[source_id] = None

    def _links_of(self, entity_name, relationship):
        """The link dicts of both directions of ``relationship``."""
        resolved = self._link_dicts.get((entity_name, relationship))
        if resolved is None:
            key = self._relationship(entity_name, relationship)
            resolved = (self.links[key.id],
                        None if key.reverse is None
                        else self.links[key.reverse.id])
            self._link_dicts[entity_name, relationship] = resolved
        return resolved

    def disconnect(self, entity_name, source_id, relationship, target_id):
        forward, backward = self._links_of(entity_name, relationship)
        forward.get(source_id, {}).pop(target_id, None)
        if backward is not None:
            backward.get(target_id, {}).pop(source_id, None)

    def delete_entity(self, entity_name, entity_id):
        """Remove a row and every relationship instance touching it."""
        entity = self.model.entity(entity_name)
        self.rows[entity.name].pop(entity_id, None)
        self.deletions[entity.name] += 1
        for key in entity.foreign_keys:
            reverse = {} if key.reverse is None else self.links[key.reverse.id]
            for target in self.links[key.id].pop(entity_id, {}):
                reverse.get(target, {}).pop(entity_id, None)

    def copy(self):
        """An independent deep copy (rows and links), sharing the model.

        Differential verification replays the same statement sequence
        against fresh state per update protocol, and the fuzz shrinker
        mutates candidate datasets; both start from a copy.
        """
        twin = Dataset(self.model)
        twin.rows = {name: {identifier: dict(row)
                            for identifier, row in rows.items()}
                     for name, rows in self.rows.items()}
        twin.links = {key: {source: dict(targets)
                            for source, targets in links.items()}
                      for key, links in self.links.items()}
        return twin

    def _relationship(self, entity_name, relationship):
        entity = self.model.entity(entity_name)
        key = entity.fields.get(relationship) \
            if isinstance(relationship, str) else relationship
        if not isinstance(key, ForeignKeyField):
            raise ModelError(
                f"{entity.name}.{relationship} is not a relationship")
        return key

    # -- navigation --------------------------------------------------------------

    def related(self, key, source_id):
        """Target IDs reached from one source row over one edge (a view)."""
        return self.links[key.id].get(source_id, {}).keys()

    def ids(self, entity_name):
        """The IDs of ``entity_name``'s rows in insertion order: a cached
        list that callers must not mutate.  Inserts append, so new keys
        are read off the end; a delete makes the next call rebuild it."""
        rows = self.rows[entity_name]
        seen, keys = self._ids.get(entity_name, (None, None))
        if seen != self.deletions[entity_name]:
            keys = list(rows)
            self._ids[entity_name] = (self.deletions[entity_name], keys)
        elif len(keys) < len(rows):
            keys += list(islice(reversed(rows), len(rows) - len(keys)))[::-1]
        return keys

    def row(self, entity, entity_id):
        stored = self.rows[entity.name].get(entity_id)
        if stored is None:
            raise ExecutionError(
                f"no {entity.name} row with id {entity_id!r}")
        return stored

    def join_tuples(self, path, anchor_position=None, anchor_ids=None):
        """All ID tuples of the join along ``path``.

        When an anchor is given, only join rows containing one of
        ``anchor_ids`` at ``anchor_position`` are produced — the
        expansion walks outward from the anchor in both directions, so
        the work is proportional to the number of produced rows.
        """
        if anchor_position is None:
            anchor_position = 0
            tuples = [(identifier,)
                      for identifier in self.rows[path.first.name]]
        else:
            anchored = self.rows[path.entities[anchor_position].name]
            tuples = [(identifier,) for identifier in anchor_ids
                      if identifier in anchored]
        # expand toward the end of the path
        for key in path.keys[anchor_position:]:
            links = self.links[key.id]
            tuples = [row + (target,)
                      for row in tuples
                      for target in links.get(row[-1], ())]
        # expand toward the start of the path (via reverse edges)
        for key in reversed(path.keys[:anchor_position]):
            reverse = key.reverse
            if reverse is None:
                raise ModelError(
                    f"cannot expand over {key.id}: no reverse edge")
            links = self.links[reverse.id]
            tuples = [(source,) + row
                      for row in tuples
                      for source in links.get(row[0], ())]
        return tuples

    def anchored_tuples(self, path, positions, anchor_ids):
        """The join tuples along ``path`` holding one of ``anchor_ids`` at
        any of ``positions``, each once, in the order first produced.

        A path may visit the anchor entity more than once (e.g.
        ``E2.R8To4.R6From1.R4To2`` both starts and ends at E2);
        anchoring only at the first occurrence would miss join rows
        that pass through a later one — found by the differential
        oracle as lost maintenance rows on inserts — so the expansion
        anchors at every occurrence and deduplicates.
        """
        seen = set()
        tuples = []
        for position in positions:
            for ids in self.join_tuples(path, position, anchor_ids):
                if ids not in seen:
                    seen.add(ids)
                    tuples.append(ids)
        return tuples

    # -- statement evaluation --------------------------------------------------------

    def matching_ids(self, statement, params):
        """Target-entity IDs satisfying a statement's predicates.

        Reference (non-simulated) evaluation over the ground truth; used
        to drive maintenance and to validate plan execution results.
        """
        path = statement.key_path
        tuples = self._filtered_tuples(statement, params, path)
        return sorted({row[0] for row in tuples})

    def _filtered_tuples(self, statement, params, path):
        anchor_position, anchor_ids = self._best_anchor(
            statement, params, path)
        tuples = self.join_tuples(path, anchor_position, anchor_ids)
        if not tuples:
            return tuples
        # each predicate resolved once: where its value sits in a join
        # row, and its matcher bound to ``params``
        branches = [[(path.index_of(condition.field.parent),
                      condition.field.id, condition.matcher(params))
                     for condition in branch]
                    for branch in statement.disjuncts]
        entity_rows = [self.rows[entity.name] for entity in path.entities]

        def satisfies(row, branch):
            for position, field_id, matches in branch:
                if not matches(
                        entity_rows[position][row[position]].get(field_id)):
                    return False
            return True

        return [row for row in tuples
                if any(satisfies(row, branch) for branch in branches)]

    def _best_anchor(self, statement, params, path):
        """Anchor the join at the most selective bindable predicate: an
        ID predicate pinning at most one row at once, else the fewest
        survivors of one scan per entity narrowed by its predicates.
        :meth:`_filtered_tuples` re-checks every predicate anyway."""
        if getattr(statement, "is_disjunctive", False):
            # no single predicate constrains every OR branch
            return None, None
        anchors = []
        scans = {}
        for condition in statement.bindable_conditions:
            position = path.index_of(condition.field.parent)
            entity = path.entities[position]
            if condition.field is not entity.id_field:
                scans.setdefault(position, []).append(condition)
                continue
            bound = condition.bind(params)
            members = dict.fromkeys(bound) if condition.is_membership \
                else (bound,)
            rows = self.rows[entity.name]
            ids = [member for member in members if member in rows]
            if len(ids) <= 1:
                return position, ids
            anchors.append((position, ids))
        for position, conditions in scans.items():
            survivors = self.rows[path.entities[position].name].items()
            for condition in conditions:
                field_id = condition.field.id
                matches = condition.matcher(params)
                survivors = [(key, row) for key, row in survivors
                             if matches(row.get(field_id))]
            anchors.append((position, [key for key, _ in survivors]))
        return min(anchors, key=lambda anchor: len(anchor[1]),
                   default=(None, None))

    def evaluate_query(self, query, params):
        """Reference answer for a query: distinct selected-field tuples.

        Evaluates the query directly over the ground truth (no plans, no
        store) — the oracle the execution-engine tests compare against.
        """
        path = query.key_path
        tuples = self._filtered_tuples(query, params, path)
        positions = {field.id: path.index_of(field.parent)
                     for field in query.select}
        results = set()
        for row in tuples:
            values = []
            for field in query.select:
                position = positions[field.id]
                source = self.rows[path.entities[position].name].get(
                    row[position], {})
                values.append(source.get(field.id))
            results.add(tuple(values))
        return results

    # -- mutation by statements ----------------------------------------------------

    def apply(self, statement, params, matching=None):
        """Apply a write statement; returns the affected target IDs.

        ``matching`` may pass an UPDATE's or DELETE's
        :meth:`matching_ids` when the caller already holds them; other
        statements ignore it.
        """
        from repro.workload.statements import (
            Connect,
            Delete,
            Insert,
            Update,
        )
        if isinstance(statement, Insert):
            return self._apply_insert(statement, params)
        if isinstance(statement, Update):
            return self._apply_update(statement, params, matching)
        if isinstance(statement, Delete):
            return self._apply_delete(statement, params, matching)
        if isinstance(statement, Connect):
            return self._apply_connect(statement, params)
        raise ExecutionError(f"not a write statement: {statement!r}")

    def _apply_insert(self, insert, params):
        entity = insert.entity
        values = {field.id: params[parameter]
                  for field, parameter in insert.settings.items()}
        new_id = values[entity.id_field.id]
        self.rows[entity.name][new_id] = values
        for key, parameter in insert.connections:
            self.connect(entity.name, new_id, key, params[parameter])
        return [new_id]

    def _apply_update(self, update, params, matching):
        affected = matching
        if affected is None:
            affected = self.matching_ids(update, params)
        for entity_id in affected:
            row = self.rows[update.entity.name][entity_id]
            for field, parameter in update.settings.items():
                row[field.id] = params[parameter]
        return affected

    def _apply_delete(self, delete, params, matching):
        affected = matching
        if affected is None:
            affected = self.matching_ids(delete, params)
        for entity_id in affected:
            self.delete_entity(delete.entity.name, entity_id)
        return affected

    def _apply_connect(self, connect, params):
        source_id = params[connect.source_parameter]
        target_id = params[connect.target_parameter]
        if connect.removes_link:
            self.disconnect(connect.entity.name, source_id,
                            connect.relationship, target_id)
        else:
            self.connect(connect.entity.name, source_id,
                         connect.relationship, target_id)
        return [source_id]

    # -- statistics refresh -----------------------------------------------------------

    def sync_counts(self):
        """Copy observed row counts back onto the model's entities so
        cardinality estimates match the loaded data."""
        for name, rows in self.rows.items():
            if rows:
                self.model.entity(name).count = len(rows)
        return self

    def __repr__(self):
        total = sum(len(rows) for rows in self.rows.values())
        return f"Dataset({self.model.name!r}, rows={total})"


def materialize_rows(dataset, index, anchor_entity=None, anchor_ids=None):
    """Rows of a column family: the path join projected onto its fields.

    With an anchor, only the join rows containing the given entity IDs
    are produced (the rows an update touches), at every position where
    the path visits the anchor entity (see :meth:`Dataset.anchored_tuples`).
    """
    path = index.path
    if anchor_entity is None:
        tuples = dataset.join_tuples(path)
    else:
        tuples = dataset.anchored_tuples(
            path, path.positions_of(anchor_entity), anchor_ids)
    sources, columns = index.projection
    lookups = [(position, dataset.rows[name]) for position, name in sources]
    return project_rows(lookups, columns, tuples)


def project_rows(lookups, columns, tuples):
    """One record per join-row ID tuple, as a dict in the column
    family's column order; a tuple whose row is gone produces none.

    ``columns`` is the second half of ``Index.projection``, and
    ``lookups`` its first half with each entity name resolved to the
    dataset's row dict.
    """
    rows = []
    for ids in tuples:
        found = []
        for position, entity_rows in lookups:
            source = entity_rows.get(ids[position])
            if source is None:
                break
            found.append(source)
        else:
            row = {}
            for field_id, slot in columns:
                row[field_id] = found[slot].get(field_id)
            rows.append(row)
    return rows
