"""Plan containers: one implementation strategy for one statement."""

from __future__ import annotations

from repro.enumerator.support import support_queries
from repro.planner.steps import (
    DeleteStep,
    FilterStep,
    IndexLookupStep,
    InsertStep,
)


def _rebind_steps(steps, query):
    """``steps`` with every filter over ``query``'s own conditions."""
    rebound = []
    for step in steps:
        if isinstance(step, FilterStep):
            copy = FilterStep([query.condition_on(condition.field)
                               for condition in step.conditions],
                              step.input_cardinality, step.cardinality)
            copy.cost = step.cost
            step = copy
        rebound.append(step)
    return rebound


class PlanSpace(list):
    """The enumerated plans for one query, with provenance.

    Behaves exactly like the plain list the planner used to return, but
    additionally records whether the depth-first enumeration was cut
    short by the planner's ``max_plans`` cap (``truncated``) — a capped
    space must never be mistaken for an exhaustive one.
    """

    def __init__(self, plans=(), query=None, truncated=False):
        super().__init__(plans)
        self.query = query
        #: True when ``max_plans`` stopped the DFS with branches left
        self.truncated = truncated


class QueryPlan:
    """A sequence of primitive steps answering one query.

    Plans are comparable by cost once a cost model has annotated their
    steps; ``indexes`` is the set of column families the plan requires,
    which is what the optimizer's BIP links plan choice to schema choice
    with.
    """

    def __init__(self, query, steps):
        self.query = query
        self.steps = tuple(steps)
        #: total cost stamped by the last cost-model pass (the steps are
        #: immutable, so dominance pruning and BIP construction read the
        #: cached scalar instead of re-summing step costs per access)
        self._cost = None
        self._indexes = None
        self._signature = None

    @property
    def indexes(self):
        """Distinct column families used, in first-use order."""
        if self._indexes is None:
            seen = {}
            for step in self.steps:
                if isinstance(step, IndexLookupStep):
                    seen.setdefault(step.index.key, step.index)
            self._indexes = tuple(seen.values())
        return self._indexes

    @property
    def lookup_steps(self):
        return tuple(s for s in self.steps
                     if isinstance(s, IndexLookupStep))

    @property
    def cost(self):
        """Total plan cost; requires a prior cost-model pass."""
        if self._cost is not None:
            return self._cost
        total = 0.0
        for step in self.steps:
            if step.cost is None:
                raise ValueError(
                    f"step {step!r} has no cost; run a cost model first")
            total += step.cost
        self._cost = total
        return total

    @property
    def cardinality(self):
        """Estimated number of result rows."""
        return self.steps[-1].cardinality if self.steps else 0.0

    @property
    def signature(self):
        """Stable identity for de-duplication within a plan space."""
        if self._signature is None:
            parts = []
            for step in self.steps:
                if isinstance(step, IndexLookupStep):
                    parts.append(f"L:{step.index.key}")
                else:
                    parts.append(type(step).__name__[0])
            self._signature = "|".join(parts)
        return self._signature

    def rebind(self, query):
        """This plan, answering the structurally identical ``query``.

        Statements of one form share a plan space, planned for whichever
        of them came first.  The executor binds parameters through
        ``plan.query`` and the filter conditions, and explain prints
        both, so a plan handed to another statement of the form is a
        copy over that statement's own conditions.  The steps are
        otherwise shared, costs included.
        """
        if query is self.query:
            return self
        plan = QueryPlan(query, _rebind_steps(self.steps, query))
        plan._cost = self._cost
        plan._signature = self._signature
        return plan

    def describe(self):
        lines = [f"Plan for {self.query.label or self.query}:"]
        lines.extend(f"  {i + 1}. {step.describe()}"
                     for i, step in enumerate(self.steps))
        return "\n".join(lines)

    def __repr__(self):
        return f"QueryPlan({self.signature})"


class UnionPlan(QueryPlan):
    """A plan answering a disjunctive query as a union of branch plans.

    One complete :class:`QueryPlan` per OR branch, followed by tail
    steps that merge the branch streams (and sort/aggregate/limit the
    merged result).  ``steps`` concatenates every branch's steps with
    the tail, so cost models, dominance pruning and the BIP see one
    flat step sequence; the executor instead walks ``branch_plans``
    (each with its branch query's predicate context) and then
    ``tail_steps``.
    """

    def __init__(self, query, branch_plans, tail_steps):
        self.branch_plans = tuple(branch_plans)
        self.tail_steps = tuple(tail_steps)
        steps = [step for plan in self.branch_plans for step in plan.steps]
        steps.extend(tail_steps)
        super().__init__(query, steps)

    @property
    def signature(self):
        """Branch signatures in parallel, then the tail skeleton."""
        if self._signature is None:
            branches = ")U(".join(plan.signature
                                  for plan in self.branch_plans)
            parts = [f"({branches})"]
            parts.extend(type(step).__name__[0]
                         for step in self.tail_steps)
            self._signature = "|".join(parts)
        return self._signature

    def rebind(self, query):
        """Each branch plan rebound to ``query``'s branch query."""
        if query is self.query:
            return self
        plan = UnionPlan(query, [
            branch.rebind(branch_query) for branch, branch_query
            in zip(self.branch_plans, query.branch_queries)],
            self.tail_steps)
        plan._cost = self._cost
        plan._signature = self._signature
        return plan

    def describe(self):
        lines = [f"Union plan for {self.query.label or self.query}:"]
        for number, plan in enumerate(self.branch_plans):
            lines.append(f"  branch {number}:")
            lines.extend(f"    {step.describe()}" for step in plan.steps)
        lines.extend(f"  {step.describe()}" for step in self.tail_steps)
        return "\n".join(lines)

    def __repr__(self):
        return f"UnionPlan({self.signature})"


class UpdatePlan:
    """Maintenance of one column family under one update statement (§VI-B).

    Consists of the support query plans that locate the affected rows,
    followed by delete and/or insert steps against the maintained column
    family.  The optimizer charges ``cost`` only when the column family
    is part of the recommended schema.
    """

    def __init__(self, update, index, support_plans, steps,
                 truncated_support=()):
        self.update = update
        self.index = index
        self.support_plans = tuple(support_plans)
        self.steps = tuple(steps)
        #: support queries whose plan spaces hit the planner cap
        self.truncated_support = tuple(truncated_support)
        #: update-step cost stamped by the last cost-model pass
        self._update_cost = None
        self._by_query = None

    @property
    def update_steps(self):
        return tuple(s for s in self.steps
                     if isinstance(s, (InsertStep, DeleteStep)))

    @property
    def update_cost(self):
        """Cost of the put/delete work alone (C'_mn in the paper's BIP)."""
        if self._update_cost is not None:
            return self._update_cost
        total = 0.0
        for step in self.steps:
            if step.cost is None:
                raise ValueError(
                    f"step {step!r} has no cost; run a cost model first")
            total += step.cost
        self._update_cost = total
        return total

    @property
    def cost(self):
        """Update cost plus the cost of the cheapest support-query plans.

        Used by reporting and the brute-force optimizer; the BIP instead
        lets the solver choose support-query plans jointly.
        """
        total = self.update_cost
        for plans in self.support_plans_by_query.values():
            total += min(plan.cost for plan in plans)
        return total

    @property
    def support_plans_by_query(self):
        """Support-query plan spaces, grouped per support query.

        Cached — the plan tuple is immutable and the grouping is read
        repeatedly by the BIP builder and the explain renderers.
        """
        if self._by_query is None:
            grouped = {}
            for plan in self.support_plans:
                grouped.setdefault(plan.query, []).append(plan)
            self._by_query = grouped
        return self._by_query

    def rebind(self, update):
        """This maintenance plan for the structurally identical
        ``update``, over that update's own support queries (see
        :meth:`QueryPlan.rebind`)."""
        if update is self.update:
            return self
        supports = dict(zip(self.support_plans_by_query,
                            support_queries(update, self.index)))
        return UpdatePlan(
            update, self.index,
            [plan.rebind(supports[plan.query])
             for plan in self.support_plans],
            self.steps,
            truncated_support=[supports[query]
                               for query in self.truncated_support])

    def describe(self):
        label = self.update.label or str(self.update)
        lines = [f"Maintenance of {self.index.key} under {label}:"]
        for query, plans in self.support_plans_by_query.items():
            best = min(plans, key=lambda p: p.cost if p.steps
                       and p.steps[0].cost is not None else 0)
            lines.append(f"  support: {query.text or query}")
            lines.extend(f"    {step.describe()}" for step in best.steps)
        lines.extend(f"  {step.describe()}" for step in self.update_steps)
        return "\n".join(lines)

    def __repr__(self):
        return (f"UpdatePlan({self.update.label or type(self.update).__name__}"
                f" on {self.index.key})")
