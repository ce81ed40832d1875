"""Update planning: support queries plus put/delete steps (paper §VI-B).

For every (update, candidate column family) pair where the update
modifies the column family, the update planner builds an
:class:`~repro.planner.plans.UpdatePlan`: the support-query plan spaces
that locate the affected rows, followed by the delete and/or insert
steps that apply the change.  The optimizer charges these plans only
when the column family is selected for the schema (Fig 10).
"""

from __future__ import annotations

from repro.enumerator.support import (
    modified_row_counts,
    modifies,
    support_queries,
)
from repro.exceptions import PlanningError
from repro.planner.plans import UpdatePlan
from repro.planner.steps import DeleteStep, InsertStep


class UpdatePlanner:
    """Builds maintenance plans for updates over a candidate pool.

    ``max_support_plans`` caps the plan space per support query: support
    queries exist for every (update, modified column family) pair, so an
    uncapped space multiplies quickly.
    """

    def __init__(self, model, query_planner, max_support_plans=32):
        self.model = model
        self.query_planner = query_planner
        self.max_support_plans = max_support_plans

    def plans_for(self, update, indexes=None, require=True):
        """One :class:`UpdatePlan` per modified column family.

        ``indexes`` defaults to the query planner's pool.  When
        ``require`` is unset, column families whose support queries
        cannot be planned are skipped instead of raising — useful when
        evaluating a fixed, hand-written schema.
        """
        pool = self.query_planner.pool if indexes is None else indexes
        plans = []
        for index in pool:
            if not modifies(update, index):
                continue
            plan = self.plan_one(update, index, require=require)
            if plan is not None:
                plans.append(plan)
        return plans

    def support_queries_for(self, update, index):
        """The support queries maintaining ``index`` under ``update``.

        A pure function of the pair (§VI-B); exposed so the advisor can
        fingerprint the pool subset relevant to each support query
        before deciding whether a cached maintenance plan still
        applies.
        """
        return list(support_queries(update, index))

    def plan_all(self, updates, indexes=None, require=True):
        """Maintenance plan spaces for many updates, in input order:
        ``{update: [plans]}``."""
        return {update: self.plans_for(update, indexes=indexes,
                                       require=require)
                for update in updates}

    def plan_one(self, update, index, require=True, supports=None):
        """The maintenance plan for one (update, column family) pair.

        ``supports`` optionally passes pre-built support queries (from
        :meth:`support_queries_for`) to avoid deriving them twice.
        Returns None when ``require`` is unset and a support query has
        no plan.
        """
        if supports is None:
            supports = support_queries(update, index)
        support_plans = []
        truncated_support = []
        for support in supports:
            try:
                plans = self.query_planner.plans_for(
                    support, max_plans=self.max_support_plans)
            except PlanningError:
                if require:
                    raise PlanningError(
                        f"cannot plan support query {support.text or support!r} "
                        f"for {update.label or update!r} on {index.key}")
                return None
            if getattr(plans, "truncated", False):
                truncated_support.append(support)
            support_plans.extend(plans)
        deleted, inserted = modified_row_counts(update, index)
        steps = []
        if deleted > 0:
            steps.append(DeleteStep(index, deleted))
        if inserted > 0:
            steps.append(InsertStep(index, inserted))
        return UpdatePlan(update, index, support_plans, steps,
                          truncated_support=truncated_support)
