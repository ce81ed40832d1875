"""Pruning and solver ledgers: why plans and candidates were rejected.

Two decision points discard work between enumeration and the final
recommendation, and both record their reasoning here:

* **dominance pruning** (``repro.advisor.prune_plan_space``) removes
  plans per statement; each removal is logged with the rule that killed
  the plan and the signature of the plan that dominated it;
* **the BIP** selects column families and one plan per statement; the
  solver ledger records each candidate's selection status and, per
  statement, the chosen plan's cost next to the best rejected
  alternative — the numbers a designer needs to judge how close the
  call was.

Both ledgers are plain dicts with deterministic key order so they
serialize into the explain document unchanged.
"""

from __future__ import annotations

#: rules of :func:`repro.advisor.prune_plan_space`, in application order
PRUNE_RULES = ("duplicate-cfset", "superset-cfset", "cap")

#: candidate selection statuses in the solver ledger
INDEX_STATUSES = ("chosen", "selected-unused", "rejected")


def prune_entry(plan, rule, dominated_by=None):
    """One pruning-ledger removal record."""
    if rule not in PRUNE_RULES:
        from repro.exceptions import NoseError
        raise NoseError(f"unknown prune rule {rule!r}; known rules: "
                        f"{', '.join(PRUNE_RULES)}")
    entry = {"plan": getattr(plan, "signature", "") or repr(plan),
             "rule": rule}
    if dominated_by is not None:
        entry["dominated_by"] = (getattr(dominated_by, "signature", "")
                                 or repr(dominated_by))
    return entry


def prune_record(statement, considered, kept, removed):
    """The pruning ledger's per-statement record."""
    by_rule = {}
    for entry in removed:
        by_rule[entry["rule"]] = by_rule.get(entry["rule"], 0) + 1
    return {
        "statement": getattr(statement, "label", None) or str(statement),
        "considered": considered,
        "kept": kept,
        "removed_by_rule": {rule: by_rule[rule]
                            for rule in sorted(by_rule)},
        "removed": list(removed),
    }


def solver_ledger(problem, chosen_keys, selected_keys, query_plans,
                  plan_columns, costs=None):
    """Build the BIP's decision ledger from an extracted solution.

    ``chosen_keys`` are the column families in the final schema,
    ``selected_keys`` everything the solver set to 1 (a superset —
    cost-free selections the extraction pruned are "selected-unused").
    ``query_plans`` maps each workload query to its chosen plan and
    ``plan_columns`` is the program's ``(query, plan, column)`` listing,
    from which per-statement alternatives and the best rejected plan
    cost are derived; every member of a class gets its class's record.
    """
    space_limited = problem.space_limit is not None
    indexes = {}
    for index in problem.indexes:
        if index.key in chosen_keys:
            status, reason = "chosen", None
        elif index.key in selected_keys:
            status, reason = "selected-unused", "no chosen plan uses it"
        else:
            status = "rejected"
            reason = "space-budget" if space_limited else "cost"
        record = {"status": status}
        if reason is not None:
            record["reason"] = reason
        indexes[index.key] = record

    grouped = {}
    for query, plan, _column in plan_columns:
        grouped.setdefault(query, []).append(plan)
    statements = {}
    for query, plans in grouped.items():
        chosen = query_plans.get(query)
        record = {
            "alternatives_in_solver": len(plans),
            "chosen_cost": chosen.cost if chosen is not None else None,
            "chosen_signature": (chosen.signature
                                 if chosen is not None else None),
        }
        # the chosen plan may be rebound to another statement of its
        # class (QueryPlan.rebind): match it by signature
        rejected = [plan for plan in plans if chosen is None
                    or plan.signature != chosen.signature]
        if rejected:
            best = min(rejected,
                       key=lambda plan: (plan.cost, plan.signature))
            record["best_rejected_cost"] = best.cost
            record["best_rejected_signature"] = best.signature
        else:
            record["best_rejected_cost"] = None
            record["best_rejected_signature"] = None
        for member in problem.classes.get(query, (query,)):
            label = getattr(member, "label", None) or str(member)
            statements[label] = dict(record)

    return {
        "space_limit": problem.space_limit,
        "indexes": {key: indexes[key] for key in sorted(indexes)},
        "statements": {label: statements[label]
                       for label in sorted(statements)},
    }
