"""Differential runner: plan execution vs. the reference interpreter.

Loads a recommendation into the in-memory store, executes statements
through :class:`ExecutionEngine`, and checks every result against the
reference interpreter: multiset equality of distinct result rows,
prefix-ordered equality under ORDER BY, subset semantics under LIMIT
(binding-level truncation makes limited results plan-dependent), and —
right after the load and after every write — a store-vs-dataset
consistency sweep that rematerializes each recommended column family
from the ground truth, compares it to the live store state and checks
that every partition holds its records in strictly ascending key order.
"""

from __future__ import annotations

import traceback

from repro import telemetry
from repro.backend.dataset import materialize_rows
from repro.backend.executor import ExecutionEngine
from repro.exceptions import NoseError
from repro.verify.interpreter import ReferenceInterpreter
from repro.workload.semantics import row_ordering_key
from repro.workload.statements import Query

#: cap on example rows carried inside a divergence record
MAX_EXAMPLES = 5


class Divergence:
    """One disagreement between plan execution and the reference.

    ``kind`` is one of ``result_mismatch`` (query rows differ),
    ``order_violation`` (rows right, ORDER BY order wrong),
    ``store_inconsistent`` (a column family no longer matches the
    ground truth after a write), or ``error`` (the executor raised).
    """

    def __init__(self, kind, label, params, message, index=None,
                 expected=None, actual=None):
        self.kind = kind
        self.label = label
        self.params = dict(params or {})
        self.message = message
        self.index = index
        self.expected = expected
        self.actual = actual

    def matches(self, other):
        """Same failure signature (the shrinker's invariant)."""
        return (self.kind == other.kind and self.label == other.label
                and self.index == other.index)

    def as_dict(self):
        def clean(value):
            if isinstance(value, (list, tuple)):
                return [clean(item) for item in value]
            if isinstance(value, dict):
                return {str(key): clean(item)
                        for key, item in value.items()}
            if value is None or isinstance(value, (bool, int, float,
                                                   str)):
                return value
            return str(value)

        record = {"kind": self.kind, "label": self.label,
                  "params": clean(self.params), "message": self.message}
        if self.index is not None:
            record["index"] = self.index
        if self.expected is not None:
            record["expected"] = clean(self.expected)
        if self.actual is not None:
            record["actual"] = clean(self.actual)
        return record

    def __repr__(self):
        return (f"Divergence({self.kind!r}, {self.label!r}, "
                f"{self.message!r})")


class DifferentialRunner:
    """Cross-checks one recommendation's execution against the oracle.

    ``engine_factory`` builds the engine under test (defaults to
    :class:`ExecutionEngine`); the mutation tests inject deliberately
    broken engines through it to prove the oracle catches them.
    """

    def __init__(self, model, recommendation, dataset,
                 update_protocol="nose", share_reads=False,
                 engine_factory=None):
        self.model = model
        self.recommendation = recommendation
        self.dataset = dataset
        self.update_protocol = update_protocol
        factory = engine_factory or ExecutionEngine
        self.engine = factory(model, recommendation, dataset,
                              share_reads=share_reads,
                              update_protocol=update_protocol)
        self.engine.load()
        self.interpreter = ReferenceInterpreter(model, dataset)
        self.divergences = []
        self.checks = 0
        self.sweep(label="(load)")

    @property
    def ok(self):
        return not self.divergences

    # -- driving -----------------------------------------------------------

    def run(self, requests):
        """Check a sequence of ``(statement, params)`` pairs in order;
        returns all divergences found."""
        for statement, params in requests:
            self.check(statement, params)
        return self.divergences

    def check(self, statement, params):
        """Check one statement; returns the divergences it produced."""
        before = len(self.divergences)
        self.checks += 1
        active = telemetry.current()
        if active.enabled:
            active.count("verify.checks")
        try:
            if isinstance(statement, Query):
                self._check_query(statement, params)
            else:
                self._check_update(statement, params)
        except NoseError as error:
            self._diverge("error", statement.label, params,
                          f"{type(error).__name__}: {error}")
        except (TypeError, ValueError, KeyError) as error:
            self._diverge(
                "error", statement.label, params,
                f"executor crashed: {type(error).__name__}: {error}\n"
                + traceback.format_exc(limit=5))
        return self.divergences[before:]

    # -- queries -----------------------------------------------------------

    def _check_query(self, query, params):
        executed = self.engine.execute_query(query, params)
        reference = self.interpreter.evaluate_query(query, params)
        executed_keys = [reference.key_of(row) for row in executed]
        expected_keys = reference.full_keys
        got_keys = set(executed_keys)
        if len(executed_keys) != len(got_keys):
            self._diverge("result_mismatch", query.label, params,
                          "executed result contains duplicate rows",
                          actual=executed[:MAX_EXAMPLES])
            return
        if query.limit is None:
            if got_keys != expected_keys:
                missing = sorted(expected_keys - got_keys, key=repr)
                extra = sorted(got_keys - expected_keys, key=repr)
                self._diverge(
                    "result_mismatch", query.label, params,
                    f"result rows differ: {len(missing)} missing, "
                    f"{len(extra)} unexpected "
                    f"(expected {len(expected_keys)} rows, "
                    f"got {len(got_keys)})",
                    expected=missing[:MAX_EXAMPLES],
                    actual=extra[:MAX_EXAMPLES])
                return
        else:
            if len(executed_keys) > query.limit:
                self._diverge(
                    "result_mismatch", query.label, params,
                    f"LIMIT {query.limit} exceeded: "
                    f"{len(executed_keys)} rows returned",
                    actual=executed[:MAX_EXAMPLES])
                return
            extra = got_keys - expected_keys
            if extra:
                self._diverge(
                    "result_mismatch", query.label, params,
                    f"{len(extra)} returned row(s) match no join row "
                    "of the reference result",
                    expected=sorted(expected_keys,
                                    key=repr)[:MAX_EXAMPLES],
                    actual=sorted(extra, key=repr)[:MAX_EXAMPLES])
                return
        if query.order_by:
            self._check_order(query, params, executed_keys, reference)

    def _check_order(self, query, params, executed_keys, reference):
        previous = None
        for key in executed_keys:
            order_key = reference.order_keys.get(key)
            if order_key is None:  # pragma: no cover - caught above
                continue
            if previous is not None and order_key < previous:
                self._diverge(
                    "order_violation", query.label, params,
                    "rows are not in ORDER BY order "
                    f"(fields {', '.join(f.id for f in query.order_by)})",
                    expected=[reference.key_of(row)
                              for row in reference.rows[:MAX_EXAMPLES]],
                    actual=executed_keys[:MAX_EXAMPLES])
                return
            previous = order_key

    # -- updates -----------------------------------------------------------

    def _check_update(self, update, params):
        self.engine.execute_update(update, params)
        self.sweep(label=update.label, params=params)

    def sweep(self, label="(sweep)", params=None):
        """Store-vs-dataset consistency: every recommended column family
        must equal a fresh materialization from the ground truth, and
        each partition must hold its records in strictly ascending key
        order, each under the partition and key of its own row."""
        for index in self.recommendation.indexes:
            column_family = self.engine.store[index.key]
            misplaced = _misplaced_rows(column_family)
            if misplaced:
                self._diverge(
                    "store_inconsistent", label, params,
                    f"column family {index.key} holds {len(misplaced)} "
                    f"record(s) out of key order or under another key "
                    f"after {label} [{self.update_protocol} protocol]",
                    index=index.key, actual=misplaced[:MAX_EXAMPLES])
            expected = {}
            for row in materialize_rows(self.dataset, index):
                expected[column_family.row_key(row)] = row
            actual = {column_family.row_key(row): row
                      for row in column_family.rows()}
            if expected == actual:
                continue
            missing = [expected[key] for key in
                       sorted(set(expected) - set(actual),
                              key=repr)[:MAX_EXAMPLES]]
            stale = [actual[key] for key in
                     sorted(set(actual) - set(expected),
                            key=repr)[:MAX_EXAMPLES]]
            differing = [
                {"stored": actual[key], "expected": expected[key]}
                for key in sorted(set(actual) & set(expected), key=repr)
                if actual[key] != expected[key]][:MAX_EXAMPLES]
            self._diverge(
                "store_inconsistent", label, params,
                f"column family {index.key} diverged from the dataset "
                f"after {label}: {len(set(expected) - set(actual))} "
                f"missing, {len(set(actual) - set(expected))} stale, "
                f"{len(differing)}+ differing row(s) "
                f"[{self.update_protocol} protocol]",
                index=index.key,
                expected=missing, actual=stale or differing)
        return self.divergences

    def _diverge(self, kind, label, params, message, index=None,
                 expected=None, actual=None):
        active = telemetry.current()
        if active.enabled:
            active.count("verify.divergences")
            active.count(f"verify.divergences.{kind}")
        self.divergences.append(Divergence(
            kind, label, params, message, index=index,
            expected=expected, actual=actual))


def _misplaced_rows(column_family):
    """Rows ``column_family`` stores out of place: not after the record
    before them in key order, under a key other than
    :func:`~repro.workload.semantics.row_ordering_key` of their
    clustering columns, or in another partition than their own."""
    misplaced = []
    for partition, records in column_family.partitions():
        previous = None
        for key, row in records:
            own_partition, clustering = column_family.row_key(row)
            if (own_partition != partition
                    or key != row_ordering_key(clustering)
                    or (previous is not None and not previous < key)):
                misplaced.append(row)
            previous = key
    return misplaced
