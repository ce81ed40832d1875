"""The advisor's output: a recommended schema plus per-statement plans."""

from __future__ import annotations


class SchemaRecommendation:
    """Result of schema optimization (the right-hand side of Fig 2).

    ``indexes`` are the recommended column families; ``query_plans`` maps
    each workload query to its recommended implementation plan;
    ``update_plans`` maps each update to one maintenance plan per
    recommended column family it modifies (with the chosen support-query
    plans).  ``total_cost`` is the weighted workload cost under the cost
    model used for optimization.
    """

    def __init__(self, indexes, query_plans, update_plans, weights,
                 total_cost):
        self.indexes = tuple(indexes)
        self.query_plans = dict(query_plans)
        self.update_plans = dict(update_plans)
        self.weights = dict(weights)
        self.total_cost = total_cost
        #: filled by the advisor with an AdvisorTiming breakdown
        self.timing = None
        #: filled by the BIP: per-candidate selection statuses and
        #: per-statement chosen-vs-rejected plan costs
        self.ledger = None
        #: filled by the advisor: candidate provenance, pruning ledger
        #: and the cost model used (see repro.explain.ExplainData)
        self.explain_data = None

    # -- derived reporting ---------------------------------------------------

    @property
    def size(self):
        """Estimated total schema size in bytes."""
        return sum(index.size for index in self.indexes)

    def weight(self, statement):
        return self.weights.get(statement.label, 0.0)

    def update_cost(self, update):
        """Unweighted maintenance cost of one update across the schema."""
        total = 0.0
        for plan in self.update_plans.get(update, []):
            total += plan.update_cost
            for plans in plan.support_plans_by_query.values():
                total += min(p.cost for p in plans)
        return total

    @property
    def statement_costs(self):
        """``{label: (weight, unweighted cost)}`` for every statement."""
        costs = {}
        for query, plan in self.query_plans.items():
            costs[query.label] = (self.weight(query), plan.cost)
        for update in self.update_plans:
            costs[update.label] = (self.weight(update),
                                   self.update_cost(update))
        return costs

    def as_cql(self, keyspace=None):
        """CQL3 DDL creating every recommended column family."""
        from repro.indexes.cql import create_schema
        return create_schema(self.indexes, keyspace=keyspace)

    def as_dict(self):
        """JSON-serializable summary of the recommendation."""
        def plan_steps(plan):
            return [step.describe() for step in plan.steps]

        return {
            "total_cost": self.total_cost,
            "size_bytes": self.size,
            "indexes": [
                {"key": index.key, "triple": index.triple(),
                 "path": str(index.path),
                 "entries": index.entries,
                 "size_bytes": index.size}
                for index in self.indexes],
            "query_plans": {
                query.label: {"cost": plan.cost,
                              "steps": plan_steps(plan)}
                for query, plan in self.query_plans.items()},
            "update_plans": {
                update.label: [
                    {"index": plan.index.key,
                     "support_queries": [
                         support.text or str(support)
                         for support in plan.support_plans_by_query],
                     "steps": [step.describe()
                               for step in plan.update_steps]}
                    for plan in plans]
                for update, plans in self.update_plans.items()},
        }

    def explain_document(self):
        """The serializable explain document (see ``repro.explain``)."""
        from repro.explain import explain_document
        return explain_document(self)

    def explain(self, statement=None):
        """Annotated decision report: provenance, ledger and plan trees.

        Renders each chosen plan with per-step cost-model terms, the
        derivation chain of every recommended column family, and the
        solver's chosen-vs-rejected accounting.  ``statement`` narrows
        the report to one statement label.
        """
        from repro.reporting import explain_report
        return explain_report(self.explain_document(),
                              statement=statement)

    def describe(self):
        """Human-readable report: schema, then one plan per statement."""
        lines = [f"Recommended schema ({len(self.indexes)} column families, "
                 f"~{self.size / 1e6:.2f} MB, cost {self.total_cost:.4f}):"]
        for index in self.indexes:
            lines.append(f"  {index.key}  {index.triple()}  over {index.path}")
        lines.append("")
        for query, plan in self.query_plans.items():
            lines.append(plan.describe())
        for update, plans in self.update_plans.items():
            for plan in plans:
                lines.append(plan.describe())
        return "\n".join(lines)

    def __repr__(self):
        return (f"SchemaRecommendation(indexes={len(self.indexes)}, "
                f"cost={self.total_cost:.4f})")
