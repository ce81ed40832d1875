"""The explain document: one JSON-serializable record of a decision.

``explain_document`` turns a :class:`~repro.optimizer.results
.SchemaRecommendation` (plus the provenance and ledgers the advisor
attached to it) into a plain dict with deterministic key order:

* ``indexes`` — the recommended column families, each with its
  selection status and derivation chain back to workload statements;
* ``statements`` — per statement: weight, cost, the chosen plan as an
  annotated step list with per-step cost-model terms, and how many
  alternatives were enumerated / survived to the solver / what the
  best rejected alternative would have cost;
* ``solver`` / ``pruning`` — the raw decision ledgers.

``diff_recommendations`` compares two such documents (or two
recommendations) and reports index-set changes, per-statement plan and
cost changes, and the total-cost regression — the artifact a CI job
checks with ``nose-advisor diff --fail-on-regression``.

Documents round-trip through :func:`repro.io.dump_document` /
:func:`repro.io.load_document`; renderers live in
:mod:`repro.reporting`.
"""

from __future__ import annotations

from repro.planner.steps import (
    DeleteStep,
    FilterStep,
    IndexLookupStep,
    InsertStep,
    SortStep,
)

EXPLAIN_FORMAT = "nose-explain/1"

#: removals listed verbatim per statement in the document (the full
#: ledger stays in memory); the cap is flagged via ``removed_truncated``
MAX_REMOVALS_LISTED = 50


class ExplainData:
    """Decision-provenance bundle the advisor attaches to a result.

    ``provenance`` is the enumeration's
    :class:`~repro.explain.provenance.ProvenanceRecorder` (or None),
    ``pruning`` the per-statement dominance-pruning ledger, and
    ``cost_model`` the model used for costing — consulted for per-step
    cost terms when rendering plans.
    """

    def __init__(self, provenance=None, pruning=None, cost_model=None):
        self.provenance = provenance
        self.pruning = dict(pruning or {})
        self.cost_model = cost_model

    def chain(self, key):
        if self.provenance is None:
            return []
        return self.provenance.chain(key)


def step_terms(step, cost_model=None):
    """Cost-model terms for one plan step, as a name → number dict.

    Prefers the cost model's own :meth:`~repro.cost.CostModel
    .cost_terms` decomposition; falls back to the cardinality facts
    every step carries (partitions contacted, rows read/written).
    """
    if cost_model is not None:
        terms = getattr(cost_model, "cost_terms", None)
        if terms is not None:
            decomposed = terms(step)
            if decomposed is not None:
                return decomposed
    if isinstance(step, IndexLookupStep):
        return {"partitions_contacted": max(step.bindings, 1.0),
                "rows_read": max(step.raw_rows, 0.0)}
    if isinstance(step, InsertStep):
        return {"rows_written": max(step.cardinality, 0.0)}
    if isinstance(step, DeleteStep):
        return {"rows_deleted": max(step.cardinality, 0.0)}
    if isinstance(step, FilterStep):
        return {"rows_scanned": max(step.input_cardinality, 0.0)}
    if isinstance(step, SortStep):
        return {"rows_sorted": max(step.cardinality, 0.0)}
    return {}


def _step_record(step, cost_model):
    record = {"op": step.describe(), "cost": step.cost}
    terms = step_terms(step, cost_model)
    if terms:
        record["terms"] = {name: terms[name] for name in sorted(terms)}
    return record


def _plan_record(plan, cost_model):
    return {
        "signature": plan.signature,
        "cost": plan.cost,
        "steps": [_step_record(step, cost_model)
                  for step in plan.steps],
    }


def _query_statement(recommendation, query, plan, data, solver):
    label = query.label or str(query)
    weight = recommendation.weight(query)
    record = {
        "kind": "query",
        "weight": weight,
        "cost": plan.cost,
        "weighted_cost": weight * plan.cost,
        "plan": _plan_record(plan, data.cost_model if data else None),
    }
    pruning = (data.pruning if data else {}).get(label)
    if pruning:
        record["alternatives_enumerated"] = pruning["considered"]
        record["alternatives_after_pruning"] = pruning["kept"]
    ledger_row = (solver or {}).get("statements", {}).get(label)
    if ledger_row:
        record["alternatives_in_solver"] = \
            ledger_row["alternatives_in_solver"]
        record["best_rejected_cost"] = ledger_row["best_rejected_cost"]
    return label, record


def _update_statement(recommendation, update, plans, data):
    label = update.label or str(update)
    weight = recommendation.weight(update)
    cost = recommendation.update_cost(update)
    cost_model = data.cost_model if data else None
    maintenance = []
    for plan in plans:
        written = sum(max(step.cardinality, 0.0)
                      for step in plan.update_steps)
        maintenance.append({
            "index": plan.index.key,
            "update_cost": plan.update_cost,
            # rows rewritten in this column family per statement
            # execution — the denormalization write amplification
            "write_amplification": written,
            "steps": [_step_record(step, cost_model)
                      for step in plan.update_steps],
            "support_plans": [
                _plan_record(min(space, key=lambda p: (p.cost,
                                                       p.signature)),
                             cost_model)
                for space in plan.support_plans_by_query.values()],
        })
    record = {
        "kind": "update",
        "weight": weight,
        "cost": cost,
        "weighted_cost": weight * cost,
        "maintenance": maintenance,
    }
    return label, record


def _pruning_section(data):
    section = {}
    for label in sorted(data.pruning if data else ()):
        record = dict(data.pruning[label])
        removed = record.get("removed", [])
        if len(removed) > MAX_REMOVALS_LISTED:
            record["removed"] = removed[:MAX_REMOVALS_LISTED]
            record["removed_truncated"] = True
        section[label] = record
    return section


def explain_document(recommendation):
    """The full explain document for one recommendation.

    A superset of :meth:`SchemaRecommendation.as_dict`: consumers of
    the plain recommendation JSON (``indexes``, ``query_plans``,
    ``update_plans``) keep working, and the explain sections ride
    along.  Provenance and ledger sections are present but empty when
    the recommendation was produced without them (e.g. by
    :meth:`Advisor.plan_for_schema`).
    """
    data = getattr(recommendation, "explain_data", None)
    solver = getattr(recommendation, "ledger", None)
    document = recommendation.as_dict()
    document["format"] = EXPLAIN_FORMAT
    for entry in document["indexes"]:
        key = entry["key"]
        if solver is not None:
            status = solver["indexes"].get(key, {}).get("status")
            entry["status"] = status or "chosen"
        else:
            entry["status"] = "chosen"
        entry["provenance"] = data.chain(key) if data else []
    statements = {}
    for query, plan in recommendation.query_plans.items():
        label, record = _query_statement(recommendation, query, plan,
                                         data, solver)
        statements[label] = record
    for update, plans in recommendation.update_plans.items():
        label, record = _update_statement(recommendation, update, plans,
                                          data)
        statements[label] = record
    document["statements"] = {label: statements[label]
                              for label in sorted(statements)}
    document["solver"] = solver or {}
    document["pruning"] = _pruning_section(data)
    return document


# -- diffing -------------------------------------------------------------------


def _as_document(source):
    if isinstance(source, dict):
        return source
    return explain_document(source)


def _statement_costs(document):
    """``{label: cost}`` from an explain document, with a fallback to
    the plain recommendation shape (query plans only)."""
    statements = document.get("statements")
    if statements:
        return {label: record.get("cost")
                for label, record in statements.items()}
    return {label: record.get("cost")
            for label, record in document.get("query_plans", {}).items()}


def _plan_shapes(document):
    shapes = {}
    for label, record in document.get("statements", {}).items():
        plan = record.get("plan")
        if plan is not None:
            shapes[label] = plan.get("signature") \
                or tuple(step["op"] for step in plan.get("steps", ()))
    for label, record in document.get("query_plans", {}).items():
        shapes.setdefault(label, tuple(record.get("steps", ())))
    return shapes


def diff_recommendations(base, other):
    """Structured diff of two recommendations (or explain documents).

    Reports the index-set changes, every statement whose cost or chosen
    plan changed, and the total-cost delta with its regression
    percentage (positive = ``other`` is more expensive than ``base``).
    """
    a, b = _as_document(base), _as_document(other)
    a_indexes = {entry["key"]: entry for entry in a.get("indexes", [])}
    b_indexes = {entry["key"]: entry for entry in b.get("indexes", [])}
    added = [{"key": key, "triple": b_indexes[key].get("triple", "")}
             for key in sorted(set(b_indexes) - set(a_indexes))]
    dropped = [{"key": key, "triple": a_indexes[key].get("triple", "")}
               for key in sorted(set(a_indexes) - set(b_indexes))]

    a_costs, b_costs = _statement_costs(a), _statement_costs(b)
    a_shapes, b_shapes = _plan_shapes(a), _plan_shapes(b)
    statements = {}
    for label in sorted(set(a_costs) | set(b_costs)):
        base_cost = a_costs.get(label)
        other_cost = b_costs.get(label)
        plan_changed = (label in a_shapes and label in b_shapes
                        and a_shapes[label] != b_shapes[label])
        if base_cost == other_cost and not plan_changed:
            continue
        record = {"base_cost": base_cost, "other_cost": other_cost,
                  "plan_changed": plan_changed}
        if base_cost is not None and other_cost is not None:
            record["delta"] = other_cost - base_cost
        statements[label] = record

    base_total = a.get("total_cost", 0.0)
    other_total = b.get("total_cost", 0.0)
    delta = other_total - base_total
    regression_pct = (delta / base_total * 100.0) if base_total else None
    return {
        "total_cost": {
            "base": base_total,
            "other": other_total,
            "delta": delta,
            "regression_pct": regression_pct,
        },
        "size_bytes": {
            "base": a.get("size_bytes"),
            "other": b.get("size_bytes"),
        },
        "indexes_added": added,
        "indexes_dropped": dropped,
        "statements": statements,
    }
