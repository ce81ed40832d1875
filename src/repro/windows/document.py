"""The "nose-windows/1" document: one windowed advising run.

``windows_document`` folds a
:class:`~repro.windows.advisor.WindowedRecommendation` into a single
JSON-able document: the schedule, per-window schemas with serving
costs and statement costs, the migration steps between windows (create
/ drop / rows and bytes to load), the cost ledger, and both baselines
scored by the same evaluator.  Everything is deterministic — sorted
key lists, rounded floats, no wall-clock — so repeated runs serialize
byte-identically through :func:`repro.io.dump_document`.
"""

from __future__ import annotations

__all__ = ["WINDOWS_FORMAT", "windows_document"]

WINDOWS_FORMAT = "nose-windows/1"


def _round(value):
    return round(float(value), 6)


def _index_entry(index):
    return {
        "key": index.key,
        "triple": index.triple(),
        "entries": _round(index.entries),
        "size_bytes": _round(index.size),
    }


def _migration_entry(migration, cost):
    return {
        "create": sorted(index.key for index in migration.create),
        "drop": sorted(index.key for index in migration.drop),
        "keep": len(migration.keep),
        "rows_to_load": _round(migration.rows_to_load),
        "bytes_to_load": _round(migration.bytes_to_load),
        "cost": _round(cost),
    }


def _statement_costs(result):
    costs = {}
    for query, plan in result.query_plans.items():
        weight = result.weights.get(query.label, 0.0)
        costs[query.label] = _round(weight * plan.cost)
    for update, plans in result.update_plans.items():
        weight = result.weights.get(update.label, 0.0)
        total = 0.0
        for update_plan in plans:
            total += update_plan.update_cost
            total += sum(plan.cost
                         for plan in update_plan.support_plans)
        costs[update.label] = _round(weight * total)
    return costs


def _window_entry(result):
    return {
        "label": result.window.label,
        "mix": result.window.mix,
        "requests": _round(result.window.requests),
        "indexes": [_index_entry(index) for index in result.indexes],
        "size_bytes": _round(result.size),
        "serving_cost": _round(result.serving_cost),
        "statement_costs": _statement_costs(result),
        "migration": _migration_entry(result.migration,
                                      result.migration_cost),
    }


def _baseline_entry(baseline):
    # baseline windows repeat the full evaluation; the document keeps
    # the schedule of schemas and the totals, not the per-plan detail
    return {
        "serving_cost": _round(baseline["serving"]),
        "migration_cost": _round(baseline["migration"]),
        "total_cost": _round(baseline["total"]),
        "windows": [
            {"label": result.window.label,
             "indexes": sorted(result.keys),
             "serving_cost": _round(result.serving_cost),
             "migration": _migration_entry(result.migration,
                                           result.migration_cost)}
            for result in baseline["windows"]],
    }


def windows_document(recommendation, meta=None):
    """Assemble the byte-stable windows document.

    ``meta`` carries run facts (source, users, seed) — callers must keep
    wall-clock values out of it; the recommendation's ``timing`` is
    deliberately not serialized.
    """
    totals = {
        "serving_cost": _round(recommendation.serving_cost),
        "migration_cost": _round(recommendation.migration_cost),
        "total_cost": _round(recommendation.total_cost),
    }
    return {
        "format": WINDOWS_FORMAT,
        "meta": dict(meta or {}),
        "schedule": [
            {"label": window.label, "mix": window.mix,
             "requests": _round(window.requests)}
            for window in recommendation.schedule],
        "initial": sorted(index.key
                          for index in recommendation.initial),
        "migration_model":
            recommendation.migration_model.cost_terms(),
        "windows": [_window_entry(result)
                    for result in recommendation.windows],
        "totals": totals,
        "baselines": {
            name: _baseline_entry(baseline)
            for name, baseline in
            sorted(recommendation.baselines.items())},
    }
