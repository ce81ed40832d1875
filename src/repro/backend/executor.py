"""Execution engine: runs recommended plans against the record store.

This is the paper's "simple execution engine which can execute the plans
recommended by NoSE" (§VII-A): it runs query plans (get / filter / sort /
limit / join-by-chained-gets) and update plans (support queries followed
by puts and deletes) against the simulated store, keeping every column
family consistent with the ground-truth :class:`Dataset`.  Each plan is
compiled once per engine; a request only binds parameters and moves
rows, and no step mutates a row the store or the transaction cache
handed out.

``share_reads`` enables a per-transaction read cache that de-duplicates
identical get requests across the statements of one transaction — the
correlation knowledge the paper credits the expert schema with (§VII-A's
discussion of the 100x write mix), which NoSE plans do not assume.

Each of ``observers`` gets one ``executed(statement, label, kind,
delta)`` call, with the store-metric delta, per statement run.
"""

from __future__ import annotations

import contextlib
import itertools
from operator import itemgetter

from repro import telemetry
from repro.backend.dataset import materialize_rows, project_rows
from repro.backend.store import Store
from repro.exceptions import ExecutionError
from repro.model.fields import IDField
from repro.planner.plans import UnionPlan
from repro.planner.steps import (
    AggregateStep,
    FilterStep,
    IndexLookupStep,
    LimitStep,
    SortStep,
    UnionStep,
)
from repro.workload.semantics import aggregate_value, ordering_key
from repro.workload.statements import Connect, Insert, Query


class ExecutionEngine:
    """Executes one schema recommendation's plans over a store."""

    def __init__(self, model, recommendation, dataset, store=None,
                 share_reads=False, update_protocol="nose", observers=()):
        if update_protocol not in ("nose", "expert"):
            raise ExecutionError(
                f"unknown update protocol {update_protocol!r}")
        self.model = model
        self.recommendation = recommendation
        self.dataset = dataset
        self.store = store or Store()
        self.share_reads = share_reads
        self.observers = tuple(observers)
        #: "nose" follows the paper's §VI-B protocol — delete the records
        #: for the old data, then insert records for the new data;
        #: "expert" upserts only the rows that actually changed (the
        #: hand-optimized plans a human designer writes)
        self.update_protocol = update_protocol
        self._transaction_cache = None
        self._query_plans = {}
        #: chosen support plans per update label, in execution order
        self._support_plans = {}
        #: update label -> one :class:`_Maintenance` per column family
        #: the update modifies, shared per (column family, anchor entity)
        self._maintenance = {}
        #: plan -> :class:`_Program`; every recommended plan is compiled
        #: here, once, so requests only bind parameters and move rows
        self._programs = {}
        self._statements = {}
        # Workload guarantees unique labels, but hand-built
        # recommendations do not: a query and an update sharing a label
        # would silently shadow each other here, so collisions are an
        # error rather than last-writer-wins.
        for query, plan in recommendation.query_plans.items():
            self._register(query)
            self._query_plans[query.label] = plan
            self._compile(plan)
        shared = {}
        for update, plans in recommendation.update_plans.items():
            self._register(update)
            support = [support_plans[0] for update_plan in plans
                       for support_plans
                       in update_plan.support_plans_by_query.values()]
            for plan in support:
                self._compile(plan)
            self._support_plans[update.label] = support
            maintained = []
            for plan in plans:
                key = (plan.index.key, update.entity.name)
                if key not in shared:
                    shared[key] = _Maintenance(plan.index, update.entity,
                                               dataset)
                maintained.append(shared[key])
            self._maintenance[update.label] = maintained

    def _register(self, statement):
        label = statement.label
        existing = self._statements.get(label)
        if existing is not None and existing is not statement:
            raise ExecutionError(
                f"duplicate statement label {label!r} in recommendation: "
                f"{existing!r} and {statement!r} would shadow each other")
        self._statements[label] = statement

    # -- loading -----------------------------------------------------------

    def load(self):
        """Create all recommended column families and populate them from
        the dataset (unmetered — loading is not part of any experiment).
        Returns the total number of rows materialized."""
        total = 0
        for index in self.recommendation.indexes:
            column_family = self.store.create(index)
            total += column_family.load(materialize_rows(self.dataset, index))
        return total

    # -- dispatch -------------------------------------------------------------

    def execute(self, label, params):
        """Execute one workload statement by label."""
        statement = self._statements.get(label)
        if statement is None:
            raise ExecutionError(f"unknown statement {label!r}")
        if isinstance(statement, Query):
            return self.execute_query(statement, params)
        return self.execute_update(statement, params)

    def execute_transaction(self, requests):
        """Execute a list of ``(label, params)`` as one user transaction.

        Returns the simulated service time in milliseconds.  When
        ``share_reads`` is enabled, identical get requests within the
        transaction are answered once.
        """
        started = self.store.metrics.simulated_ms
        with self.transaction():
            for label, params in requests:
                self.execute(label, params)
        return self.store.metrics.simulated_ms - started

    @contextlib.contextmanager
    def transaction(self):
        """Scope one user transaction: with ``share_reads``, identical
        get requests inside it are answered once, from a cache that
        ends with the scope."""
        if self.share_reads:
            self._transaction_cache = {}
        try:
            yield
        finally:
            self._transaction_cache = None

    # -- observation ---------------------------------------------------------

    def _observed(self, kind, statement, run, *args):
        """Run one statement under the observers and telemetry.

        Measures the store-metric deltas (rows scanned, partitions
        touched, bytes transferred, maintenance puts/deletes) and the
        simulated-clock delta the statement causes, and publishes them
        per statement — to every observer and, when telemetry is
        active, to the process-wide sink as an ``exec.*`` span plus
        counters and latency histograms.  An update runs its support
        queries unobserved, so their work is charged to the update and
        never counted under their own label.
        """
        label = statement.label or str(statement)
        active = telemetry.current()
        metrics = self.store.metrics
        before = metrics.snapshot()
        if active.enabled:
            with active.span(f"exec.{kind}", label=label):
                result = run(*args)
        else:
            result = run(*args)
        after = metrics.snapshot()
        delta = {name: after[name] - before[name] for name in after}
        for observer in self.observers:
            observer.executed(statement, label, kind, delta)
        if active.enabled:
            elapsed = delta["simulated_ms"]
            buckets = telemetry.LATENCY_BUCKETS_MS
            active.count("exec.requests")
            active.observe("exec.latency_ms", elapsed, buckets=buckets)
            active.observe(f"exec.latency_ms.{label}", elapsed,
                           buckets=buckets)
            for name in ("rows_read", "rows_scanned", "bytes_read",
                         "partitions_touched"):
                if delta[name]:
                    active.count(f"store.{name}", delta[name])
            if kind == "update":
                for name in ("puts", "deletes", "rows_written",
                             "rows_deleted"):
                    if delta[name]:
                        active.count(f"exec.maintenance_{name}",
                                     delta[name])
        return result

    # -- queries ------------------------------------------------------------------

    def execute_query(self, query, params, plan=None):
        """Run a query plan; returns distinct selected rows as dicts.

        With observers or active telemetry the execution is observed
        (store-metric deltas, simulated latency); otherwise this is a
        plain dispatch.
        """
        if self.observers or telemetry.current().enabled:
            return self._observed("query", query, self._execute_query,
                                  query, params, plan)
        return self._execute_query(query, params, plan)

    def _execute_query(self, query, params, plan=None):
        if plan is None:
            plan = self._query_plans.get(query.label)
        if plan is None:
            raise ExecutionError(
                f"no recommended plan for query {query.label!r}")
        program = self._programs.get(plan) or self._compile(plan)
        # each OR branch starts from the empty binding; the tail steps
        # see the concatenated streams
        bindings = []
        for steps in program.branches:
            bindings.extend(self._run_steps(steps, params, [{}]))
        bindings = self._run_steps(program.tail, params, bindings)
        return self._project(program, bindings)

    def _compile(self, plan):
        """Resolve ``plan`` into a :class:`_Program`, once per plan.

        A plain plan is one branch with an empty tail.  A union plan
        compiles each branch against its own branch query, so lookups
        and filters resolve conditions against that branch's predicate
        set.
        """
        if isinstance(plan, UnionPlan):
            branches = [(branch.steps, branch.query)
                        for branch in plan.branch_plans]
            tail = plan.tail_steps
        else:
            branches = [(plan.steps, plan.query)]
            tail = ()
        compiled = []
        available = None
        for steps, query in branches:
            branch_steps, fetched = self._compile_steps(steps, query,
                                                        frozenset())
            compiled.append(branch_steps)
            available = fetched if available is None \
                else available & fetched
        tail, available = self._compile_steps(tail, plan.query, available)
        program = _Program(compiled, tail, plan.query, available)
        self._programs[plan] = program
        return program

    def _compile_steps(self, steps, query, available):
        """``(run, step)`` pairs for ``steps``, plus the field ids every
        binding carries afterwards (``available`` before them).

        ``run`` is the engine class's unbound method: a bound one would
        tie the engine into a reference cycle through its own programs,
        so a discarded engine and its dataset would wait for the cyclic
        collector instead of being freed at once.
        """
        engine = type(self)
        compiled = []
        for step in steps:
            if isinstance(step, IndexLookupStep):
                compiled.append((engine._lookup,
                                 _Lookup(step, query, available)))
                available = available | step.index.all_field_ids
            elif isinstance(step, FilterStep):
                compiled.append((engine._filter, tuple(
                    (condition.field.id, condition)
                    for condition in step.conditions)))
            elif isinstance(step, SortStep):
                compiled.append((engine._sort, tuple(
                    field.id for field in step.fields)))
            elif isinstance(step, UnionStep):
                pass  # branch streams are already concatenated
            elif isinstance(step, AggregateStep):
                compiled.append((engine._aggregate, _Fold(query, step)))
                available = frozenset()
            elif isinstance(step, LimitStep):
                compiled.append((engine._limit, step.limit))
            else:  # pragma: no cover - queries have no other step types
                raise ExecutionError(f"unexpected step {step!r}")
        return compiled, available

    def _run_steps(self, steps, params, bindings):
        for run, step in steps:
            bindings = run(self, step, params, bindings)
        return bindings

    @staticmethod
    def _project(program, bindings):
        ids = program.output_ids
        if program.is_aggregate:
            # aggregation already produced one row per group; the
            # grouping keys make rows distinct by construction
            return [{field_id: binding.get(field_id) for field_id in ids}
                    for binding in bindings]
        # dict.fromkeys keeps the first occurrence of each distinct row
        distinct = dict.fromkeys(map(program.row_values, bindings))
        if len(ids) == 1:
            (field_id,) = ids
            return [{field_id: value} for value in distinct]
        return [dict(zip(ids, values)) for values in distinct]

    def _aggregate(self, fold, params, bindings):
        # fold over *distinct* target rows: the underlying select keeps
        # the target entity's ID precisely so duplicate join rows (and
        # duplicate OR-branch rows) collapse before folding
        distinct = {}
        for binding in bindings:
            distinct.setdefault(
                tuple(map(binding.get, fold.select_ids)), binding)
        group_ids = fold.group_ids
        groups = {}
        for binding in distinct.values():
            key = tuple(map(binding.get, group_ids))
            groups.setdefault(key, []).append(binding)
        if not groups and not group_ids:
            # a global aggregate over zero rows still yields one row
            # (COUNT -> 0, other folds -> NULL)
            groups[()] = []
        results = []
        for rows in groups.values():
            out = ({field_id: rows[0].get(field_id)
                    for field_id in group_ids} if rows else {})
            for output_id, func, field_id in fold.aggregates:
                if field_id is None:  # COUNT(*)
                    out[output_id] = len(rows)
                else:
                    out[output_id] = aggregate_value(
                        func, [row.get(field_id) for row in rows])
            results.append(out)
        return results

    def _lookup(self, step, params, bindings):
        """Issue ``step``'s get requests, one set per binding.

        A binding contributes one value per key field it carries; an
        ``IN`` predicate contributes one value per distinct list member,
        turning the lookup into a multi-get over the cross product.
        A lookup keyed by ``parameters`` alone and fed the lone empty
        binding, as a branch's first lookup is, issues its one request
        and passes on the list the store or the cache returned: no step
        mutates a binding or a bindings list, so neither can be
        corrupted through them.
        """
        column_family = self.store[step.key]
        range_request = None
        if step.range_condition is not None:
            condition = step.range_condition
            range_request = (condition.operator,
                             params[condition.parameter])
        if not bindings:
            return []
        # without a transaction cache, each distinct request goes once
        issued = self._transaction_cache
        if issued is None:
            issued = {}
        if step.parameters is not None and bindings == [{}]:
            values = tuple(map(params.__getitem__, step.parameters))
            request = (step.key, values[:step.width], values[step.width:],
                       range_request)
            rows = issued.get(request)
            if rows is None:
                rows = issued[request] = column_family.get(
                    request[1], request[2], range_filter=range_request)
            return rows
        # parameter values are the same for every binding; a key field
        # the bindings carry is left None and read per binding
        choices = [None if condition is None
                   else tuple(dict.fromkeys(condition.bind(params)))
                   if condition.is_membership
                   else (condition.bind(params),)
                   for condition in step.conditions]
        width = step.width
        key = step.key
        joined = step.joined
        results = []
        for binding in bindings:
            for values in itertools.product(*[
                    (binding[field_id],) if choice is None else choice
                    for field_id, choice in zip(step.field_ids, choices)]):
                partition = values[:width]
                prefix = values[width:]
                request = (key, partition, prefix, range_request)
                rows = issued.get(request)
                if rows is None:
                    rows = issued[request] = column_family.get(
                        partition, prefix, range_filter=range_request)
                if joined:
                    wanted = tuple(map(binding.__getitem__, joined))
                    rows = [row for row in rows
                            if tuple(map(row.get, joined)) == wanted]
                if binding:
                    results.extend({**binding, **row} for row in rows)
                else:
                    results.extend(rows)
        return results

    def _filter(self, conditions, params, bindings):
        # a matcher applies the canonical NULL rule (see
        # repro.workload.semantics), so a missing/None stored value can
        # still satisfy an equality against a None parameter and never
        # satisfies a range — the same rule the reference interpreter
        # and the store's range scans use.
        for field_id, condition in conditions:
            if not bindings:
                break
            matches = condition.matcher(params)
            bindings = [binding for binding in bindings
                        if matches(binding.get(field_id))]
        return bindings

    def _sort(self, field_ids, params, bindings):
        # stable, with the canonical NULLS LAST order; a None/missing
        # sort field must not TypeError against concrete values
        return sorted(bindings,
                      key=lambda binding: tuple(
                          ordering_key(binding.get(field_id))
                          for field_id in field_ids))

    def _limit(self, limit, params, bindings):
        return bindings[:limit]

    # -- updates -------------------------------------------------------------------

    def execute_update(self, update, params):
        """Run an update: support queries, dataset mutation, and row-level
        maintenance of every recommended column family it modifies.

        Returns the number of store rows written plus deleted.  Observed
        as one statement, support queries included, with observers or
        active telemetry."""
        if self.observers or telemetry.current().enabled:
            return self._observed("update", update, self._execute_update,
                                  update, params)
        return self._execute_update(update, params)

    def _execute_update(self, update, params):
        for chosen in self._support_plans.get(update.label, ()):
            self._execute_query(chosen.query, params, plan=chosen)
        # the anchor IDs are the IDs the statement affects: an UPDATE's
        # or DELETE's matches, computed once
        anchor_ids = self._anchor_ids(update, params)
        if not anchor_ids:
            # nothing matched: the dataset and every record stay as they
            # are, so the support queries were all the work there was
            return 0
        maintained = self._maintenance.get(update.label, ())
        before = [maintenance.rows(anchor_ids) for maintenance in maintained]
        self.dataset.apply(update, params, matching=anchor_ids)
        changed = 0
        for maintenance, old in zip(maintained, before):
            column_family = self.store[maintenance.key]
            row_key = column_family.row_key
            old_rows = {row_key(row): row for row in old}
            new_rows = {row_key(row): row
                        for row in maintenance.rows(anchor_ids)}
            vanished = {key: row for key, row in old_rows.items()
                        if key not in new_rows}
            still_alive = maintenance.still_derivable(row_key, vanished)
            if self.update_protocol == "nose":
                # the paper's protocol: remove records for the old data,
                # then insert records corresponding to the new data
                to_delete = [row for key, row in old_rows.items()
                             if key not in still_alive]
                to_put = list(new_rows.values()) \
                    + list(still_alive.values())
            else:
                to_delete = [row for key, row in vanished.items()
                             if key not in still_alive]
                to_put = [row for key, row in new_rows.items()
                          if old_rows.get(key) != row]
                to_put += [row for key, row in still_alive.items()
                           if old_rows.get(key) != row]
            if to_delete:
                changed += column_family.delete_many(to_delete)
            if to_put:
                changed += column_family.put_many(to_put)
        return changed

    def _anchor_ids(self, update, params):
        """IDs of the anchor entity, ``update.entity``, whose join
        neighbourhood the update touches."""
        if isinstance(update, Insert):
            id_parameter = update.settings[update.entity.id_field]
            return [params[id_parameter]]
        if isinstance(update, Connect):
            return [params[update.source_parameter]]
        return self.dataset.matching_ids(update, params)


class _Program:
    """A query plan compiled for one engine.

    ``branches`` holds one ``(run, step)`` list per OR branch (a plain
    plan is a single branch) and ``tail`` the steps over their
    concatenated streams.  Every binding reaching the projection of a
    plain query carries its output columns, so ``row_values`` reads them
    with one ``itemgetter``: a value for a single column, else a tuple.
    """

    __slots__ = ("branches", "tail", "output_ids", "is_aggregate",
                 "row_values")

    def __init__(self, branches, tail, query, available):
        self.branches = branches
        self.tail = tail
        self.is_aggregate = query.is_aggregate
        if self.is_aggregate:
            self.output_ids = tuple(query.output_ids)
            self.row_values = None
            return
        self.output_ids = tuple(field.id for field in query.select)
        unfetched = sorted(set(self.output_ids) - available)
        if unfetched:
            raise ExecutionError(
                f"plan for {query.label or query} never fetches "
                f"{', '.join(unfetched)}")
        self.row_values = itemgetter(*self.output_ids)


class _Lookup:
    """An :class:`IndexLookupStep` resolved against its query.

    One entry per hash field, then per clustering-prefix field:
    ``field_ids`` names the key column, and ``conditions`` the predicate
    whose parameter supplies its value — or None when every incoming
    binding carries the column (an earlier lookup fetched it).
    ``parameters`` names the parameter of every key value when no
    binding and no ``IN`` list supplies one, and is None otherwise.
    ``joined`` names the entity IDs the bindings carry and the column
    family stores outside the key: a fetched row joins a binding only
    where they agree, or a fetch keyed by one entity's ID would pair
    the binding with every other entity in that partition.
    """

    __slots__ = ("key", "width", "field_ids", "conditions", "parameters",
                 "range_condition", "joined")

    def __init__(self, step, query, available):
        index = step.index
        fields = index.hash_fields + tuple(
            field for field in step.eq_fields
            if field not in index.hash_fields)
        self.key = index.key
        self.width = len(index.hash_fields)
        self.field_ids = tuple(field.id for field in fields)
        self.conditions = tuple(
            None if field.id in available else query.condition_on(field)
            for field in fields)
        for field_id, condition in zip(self.field_ids, self.conditions):
            if condition is None and field_id not in available:
                raise ExecutionError(
                    f"no value available for {field_id} in lookup on "
                    f"{index.key}")
        self.joined = tuple(
            field.id for field in index.all_fields
            if isinstance(field, IDField) and field.id in available
            and field.id not in self.field_ids)
        self.parameters = None
        if all(condition is not None and not condition.is_membership
               for condition in self.conditions):
            self.parameters = tuple(condition.parameter
                                    for condition in self.conditions)
        self.range_condition = None
        if step.range_field is not None:
            self.range_condition = query.condition_on(step.range_field)
            if self.range_condition is None:
                raise ExecutionError(
                    f"no predicate ranges over {step.range_field.id} "
                    f"in lookup on {index.key}")


class _Fold:
    """An :class:`AggregateStep` with its field ids resolved."""

    __slots__ = ("select_ids", "group_ids", "aggregates")

    def __init__(self, query, step):
        self.select_ids = tuple(field.id for field in query.select)
        self.group_ids = tuple(field.id for field in step.group_by)
        #: ``(output id, function, field id or None for COUNT(*))``
        self.aggregates = tuple(
            (aggregate.output_id, aggregate.func,
             None if aggregate.field is None else aggregate.field.id)
            for aggregate in step.aggregates)


class _Maintenance:
    """Row-level maintenance of one column family by the updates
    anchored at one entity, resolved once per engine.

    ``positions`` are where the path visits the anchor entity, and
    ``lookups`` the index projection's sources resolved to the
    dataset's row dicts.  A record that stops being derivable through
    the anchor may still be derivable through other join rows when the
    record key does not pin an anchor row (e.g. grouped views keyed
    only by the result entity); such records must be kept, with
    freshly materialized values.  ``check`` is None when that cannot
    happen — a single-entity path, or a record key holding the
    anchor's ID, which makes the anchored recomputation authoritative
    — and otherwise ``(field id, positions)`` of another path entity's
    ID in the record key, whose rows are re-materialized; ``(None,
    None)`` for a key without any entity ID re-materializes the whole
    column family.
    """

    __slots__ = ("dataset", "index", "key", "positions", "lookups",
                 "columns", "check")

    def __init__(self, index, anchor_entity, dataset):
        path = index.path
        self.dataset = dataset
        self.index = index
        self.key = index.key
        self.positions = path.positions_of(anchor_entity)
        sources, self.columns = index.projection
        self.lookups = [(position, dataset.rows[name])
                        for position, name in sources]
        key_ids = {field.id for field in index.key_fields}
        self.check = None
        if len(path) > 1 and anchor_entity.id_field.id not in key_ids:
            check_field = next(
                (entity.id_field for entity in path.entities
                 if entity is not anchor_entity
                 and entity.id_field.id in key_ids), None)
            self.check = (None, None) if check_field is None else (
                check_field.id, path.positions_of(check_field.parent))

    def rows(self, anchor_ids, positions=None):
        """The records whose join rows hold one of ``anchor_ids`` at the
        anchor's positions (or at ``positions``)."""
        tuples = self.dataset.anchored_tuples(
            self.index.path,
            self.positions if positions is None else positions, anchor_ids)
        return project_rows(self.lookups, self.columns, tuples)

    def still_derivable(self, row_key, vanished):
        """``{key: fresh row}`` for the records among ``vanished`` (keyed
        by ``row_key``) that other join rows still produce."""
        if not vanished or self.check is None:
            return {}
        field_id, positions = self.check
        if field_id is None:  # pragma: no cover - keys without any ID
            fresh = materialize_rows(self.dataset, self.index)
        else:
            fresh = self.rows(sorted({row[field_id]
                                      for row in vanished.values()
                                      if row.get(field_id) is not None}),
                              positions)
        return {key: row for row in fresh
                for key in [row_key(row)]
                if key in vanished}
