"""The schema-design optimization problem instance."""

from __future__ import annotations

from typing import NamedTuple

from repro import dominance
from repro.exceptions import OptimizationError
from repro.planner.plans import UpdatePlan
from repro.workload.digest import statement_signature


class SchemaPrice(NamedTuple):
    """A fixed schema priced by :meth:`OptimizationProblem.price`.

    ``query_plans`` maps each query to its chosen plan and
    ``update_plans`` each update to one :class:`UpdatePlan` per
    maintained column family, carrying the chosen support plans.
    ``used_keys`` are the column families some chosen plan reads.
    """

    cost: float
    query_plans: dict
    update_plans: dict
    used_keys: frozenset


def _used_by(query_plans, update_plans):
    """Column families the chosen plans read: every query plan's, then
    — to a fixpoint — the support plans of each maintained column
    family already read."""
    supports = {}
    for plans in update_plans.values():
        for update_plan in plans:
            supports.setdefault(update_plan.index.key, []).extend(
                update_plan.support_plans)
    used = set()
    frontier = {index.key for plan in query_plans.values()
                for index in plan.indexes}
    while frontier:
        used |= frontier
        frontier = {index.key for key in frontier
                    for plan in supports.get(key, ())
                    for index in plan.indexes} - used
    return frozenset(used)


def _classes(plan_spaces, representative):
    """One plan space per statement form: ``{representative: plans}``.

    Statements with one :func:`statement_signature` have the same plan
    space, so each form keeps its first statement's, in that statement's
    position; ``representative`` maps every statement to its form's
    first statement.
    """
    first = {}
    spaces = {}
    for statement, plans in plan_spaces.items():
        head = first.setdefault(statement_signature(statement), statement)
        representative[statement] = head
        if head is statement:
            spaces[statement] = plans
    return spaces


class OptimizationProblem:
    """Everything the optimizers need, in one container.

    ``query_plans`` maps each workload query to its (costed) plan space;
    ``update_plans`` maps each update to its list of
    :class:`~repro.planner.plans.UpdatePlan` (one per modified candidate
    column family, support plans costed).  ``weights`` maps statement
    labels to their workload weights.  ``space_limit`` optionally bounds
    the total estimated size of the recommended schema in bytes; like
    the weights, it may change between solves of one program.

    A workload is weighted statements (paper §III-B), so statements of
    one form — one :func:`~repro.workload.digest.statement_signature`,
    whatever their labels and parameter names — make one *statement
    class*, weighing the sum of its members' weights.  ``query_classes``
    and ``update_classes`` hold one plan space per class, keyed by its
    first member, and ``classes`` lists each class's members.
    """

    def __init__(self, query_plans, update_plans, weights,
                 space_limit=None):
        self.query_plans = dict(query_plans)
        self.update_plans = dict(update_plans)
        self.weights = dict(weights)
        self.space_limit = space_limit
        #: {statement: the first member of its class}, workload order
        self.representative = {}
        self.query_classes = _classes(self.query_plans,
                                      self.representative)
        self.update_classes = _classes(self.update_plans,
                                       self.representative)
        #: {representative: [members]}
        self.classes = {}
        for statement, head in self.representative.items():
            self.classes.setdefault(head, []).append(statement)
        #: {(class plan, member): the plan rebound to the member}
        self._rebound = {}
        self._indexes = None
        for query, plans in self.query_plans.items():
            if not plans:
                raise OptimizationError(
                    f"query has an empty plan space: {query.text or query!r}")

    @property
    def indexes(self):
        """Every candidate column family referenced by any plan.

        The plan spaces are fixed at construction, so the scan is done
        once and cached — the BIP consults this list per column.
        """
        if self._indexes is None:
            seen = {}
            for plans in self.query_classes.values():
                for plan in plans:
                    for index in plan.indexes:
                        seen.setdefault(index.key, index)
            for update_plans in self.update_classes.values():
                for update_plan in update_plans:
                    seen.setdefault(update_plan.index.key,
                                    update_plan.index)
                    for plan in update_plan.support_plans:
                        for index in plan.indexes:
                            seen.setdefault(index.key, index)
            self._indexes = list(seen.values())
        return list(self._indexes)

    def weight(self, statement):
        try:
            return self.weights[statement.label]
        except KeyError:
            raise OptimizationError(
                f"no weight for statement {statement.label!r}") from None

    def class_weight(self, representative):
        """The weight of ``representative``'s class: its members' sum."""
        first, *others = self.classes[representative]
        weight = self.weight(first)
        for member in others:
            weight += self.weight(member)
        return weight

    def set_weights(self, weights):
        """Replace the statement weights (plan spaces stay fixed).

        Every statement with a plan space must keep a weight — the BIP's
        constraint structure is weight-independent, so a prepared
        program can be re-costed in place after this.
        """
        weights = dict(weights)
        missing = [s.label for s in self.representative
                   if s.label not in weights]
        if missing:
            raise OptimizationError(
                f"new weights miss statements: {sorted(missing)}")
        self.weights = weights

    def price(self, keys):
        """Price the fixed schema ``keys``; a :class:`SchemaPrice` or None.

        Every query takes its cheapest plan within ``keys``, and every
        maintained column family in ``keys`` adds its update cost plus
        the cheapest plan of each support query; cost ties break on plan
        signature, so the choice is reproducible across runs and hash
        seeds.  Plans are chosen once per statement class and rebound to
        each member (:meth:`~repro.planner.plans.QueryPlan.rebind`); the
        cost sums every member's weighted terms in workload order.  Keys
        no plan space references are ignored.  Returns None when some
        query or support query has no plan within ``keys`` or the schema
        exceeds the space limit.  Requires costed plans.
        """
        indexes = self.indexes
        keys = frozenset(keys) & {index.key for index in indexes}
        if self.space_limit is not None:
            if sum(index.size for index in indexes
                   if index.key in keys) > self.space_limit:
                return None

        def cheapest(plans):
            best = best_rank = None
            for plan in plans:
                if all(index.key in keys for index in plan.indexes):
                    rank = (plan.cost, dominance._signature(plan))
                    if best is None or rank < best_rank:
                        best, best_rank = plan, rank
            return best

        chosen_plans = {}
        terms = {}  # representative -> unweighted costs, in sum order
        for query, plans in self.query_classes.items():
            chosen = cheapest(plans)
            if chosen is None:
                return None
            chosen_plans[query] = chosen
            terms[query] = (chosen.cost,)
        for update, plans in self.update_classes.items():
            kept = []
            costs = terms[update] = []
            for update_plan in plans:
                if update_plan.index.key not in keys:
                    continue
                supports = []
                for support_plans in \
                        update_plan.support_plans_by_query.values():
                    chosen = cheapest(support_plans)
                    if chosen is None:
                        return None
                    supports.append(chosen)
                    costs.append(chosen.cost)
                costs.append(update_plan.update_cost)
                kept.append(UpdatePlan(update, update_plan.index, supports,
                                       update_plan.steps))
            if kept:
                chosen_plans[update] = kept
        cost = 0.0
        query_plans = {}
        update_plans = {}
        for statement, head in self.representative.items():
            weight = self.weight(statement)
            for term in terms[head]:
                cost += weight * term
            if head in self.query_classes:
                query_plans[statement] = self._rebind(chosen_plans[head],
                                                      statement)
            elif head in chosen_plans:
                update_plans[statement] = [plan.rebind(statement)
                                           for plan in chosen_plans[head]]
        return SchemaPrice(cost, query_plans, update_plans,
                           _used_by(query_plans, update_plans))

    def _rebind(self, plan, query):
        """``plan.rebind(query)``, the same object on every call."""
        rebound = self._rebound.get((plan, query))
        if rebound is None:
            rebound = self._rebound[plan, query] = plan.rebind(query)
        return rebound

    @property
    def size(self):
        """Rough problem size: (candidates, query plans, support plans)."""
        query_plan_count = sum(len(p) for p in self.query_plans.values())
        support_plan_count = sum(
            len(up.support_plans)
            for plans in self.update_plans.values() for up in plans)
        return (len(self.indexes), query_plan_count, support_plan_count)

    def __repr__(self):
        candidates, query_plans, support_plans = self.size
        return (f"OptimizationProblem(candidates={candidates}, "
                f"query_plans={query_plans}, "
                f"support_plans={support_plans})")
