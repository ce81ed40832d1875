"""The windowed schema-selection BIP with migration decision variables.

Extends the per-plan formulation of :mod:`repro.optimizer.bip` across a
window schedule: one statement block per window, laid out by the shared
:class:`~repro.optimizer.bip.SelectionProgram` builder over that
window's selection variables ``d[w,j]`` (choose-one plan rows,
aggregated link rows, support gates), plus one migration variable
``m[t,j]`` per transition and candidate, constrained by

    d[t,j] - d[t-1,j] - m[t,j] <= 0

(``d[-1,j]`` is 1 exactly when candidate ``j`` is part of the initial
schema), so ``m[t,j]`` is forced to 1 whenever window ``t`` materializes
a column family its predecessor did not hold.  Migration variables are
priced by a :class:`~repro.tools.migration.MigrationCostModel` — the
same rows/bytes estimate :func:`~repro.tools.migration.plan_migration`
reports — which makes "hold the schema" and "migrate between windows"
directly comparable inside one objective.  Dropping a column family is
free, as in the executor.

Like the single-window program, a windowed program is re-costed in
place for new window weights and migration prices
(:meth:`WindowedProgram.reweight`) and re-solved from its last
solution; its rows depend only on each window's active statements, the
initial schema and the space limit.

As in the single-window program, only the selection variables need
integrality: for any fixed 0/1 selection the plan optimum is attained
at pure plans, and the migration variables sit at the integral lower
bound ``max(0, d[t,j] - d[t-1,j])`` because their objective
coefficients are non-negative.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.exceptions import OptimizationError
from repro.optimizer.bip import SelectionProgram

__all__ = ["WindowedProgram"]


def _active(plan_spaces, weights):
    """The plan spaces of the statements with positive weight."""
    return {statement: plans for statement, plans in plan_spaces.items()
            if weights.get(statement.label, 0.0) > 0.0}


class WindowedProgram(SelectionProgram):
    """A materialized windowed BIP over shared (costed) plan spaces.

    ``query_plans`` and ``update_plans`` are the union plan spaces (every
    statement active in *any* window); ``window_weights`` is one
    ``{label: absolute weight}`` row per window — a statement's mix
    weight times the window's request volume, zero when it is idle —
    and gates which blocks each window actually builds.  ``indexes``
    fixes the candidate order (all plan columns refer into it), and
    ``initial`` lists the column-family keys already materialized
    before the first window (creation of anything else is charged).
    """

    def __init__(self, query_plans, update_plans, window_weights,
                 indexes, migration_model, initial=(),
                 space_limit=None):
        self.query_plans = dict(query_plans)
        self.update_plans = dict(update_plans)
        self.window_weights = [dict(row) for row in window_weights]
        self.indexes = list(indexes)
        self.migration_model = migration_model
        self.initial_keys = frozenset(initial)
        self.space_limit = space_limit
        self.windows = len(self.window_weights)
        if not self.windows:
            raise OptimizationError("windowed program needs at least "
                                    "one window")
        # layout: W*J selection binaries, then W*J migration variables,
        # then per-window plan/support columns (all continuous)
        blocks = self.windows * len(self.indexes)
        super().__init__(2 * blocks, blocks)
        self.objective_value = None
        self._build()

    # -- column helpers ---------------------------------------------------

    def _d(self, window, j):
        return window * len(self.indexes) + j

    def _m(self, transition, j):
        return (self.windows * len(self.indexes)
                + transition * len(self.indexes) + j)

    # -- construction -----------------------------------------------------

    def _price_migrations(self, costs):
        for j, index in enumerate(self.indexes):
            creation = self.migration_model.index_cost(index)
            for transition in range(self.windows):
                costs[self._m(transition, j)] = creation

    def _build(self):
        self._price_migrations(self.costs)
        for window, weights in enumerate(self.window_weights):
            # one block per window over its active statements, linked
            # to the column families this window holds
            selection = {index.key: self._d(window, j)
                         for j, index in enumerate(self.indexes)}
            self._add_block(_active(self.query_plans, weights),
                            _active(self.update_plans, weights),
                            lambda statement: weights[statement.label],
                            selection)
        self._build_migrations()
        if self.space_limit is not None:
            for window in range(self.windows):
                self._add_row(-np.inf, float(self.space_limit),
                              [(self._d(window, j), index.size)
                               for j, index in enumerate(self.indexes)])

    def _build_migrations(self):
        for transition in range(self.windows):
            for j, index in enumerate(self.indexes):
                terms = [(self._d(transition, j), 1.0),
                         (self._m(transition, j), -1.0)]
                if transition == 0:
                    held = index.key in self.initial_keys
                    self._add_row(-np.inf, 1.0 if held else 0.0, terms)
                else:
                    self._add_row(-np.inf, 0.0,
                                  [(self._d(transition - 1, j), -1.0)]
                                  + terms)

    # -- re-costing -------------------------------------------------------

    def reweight(self, window_weights, migration_model):
        """Re-cost the program in place for new window weights and
        migration prices.

        ``window_weights`` must activate the same statements in each
        window as the rows were built for; the cost vector then equals
        a fresh build's bit for bit.
        """
        self.window_weights = [dict(row) for row in window_weights]
        self.migration_model = migration_model
        costs = [0.0] * self.columns
        self._price_migrations(costs)
        statements = [*self.query_plans, *self.update_plans]
        self._recost(costs, [{statement: weights.get(statement.label, 0.0)
                              for statement in statements}
                             for weights in self.window_weights])

    # -- solving ----------------------------------------------------------

    def solve(self, mip_rel_gap=1e-4, time_limit=120.0):
        """Solve for the cheapest schedule; returns per-window key sets.

        A re-solve starts from the last solve's solution."""
        result = self._solve(self.costs, self._matrix(),
                             {"mip_rel_gap": mip_rel_gap,
                              "time_limit": time_limit}, seeded=True)
        self.objective_value = float(
            np.asarray(self.costs) @ result.x)
        active = telemetry.current()
        if active.enabled:
            active.gauge("windows.bip_columns", self.columns)
            active.gauge("windows.bip_binary_columns", self.binaries)
            active.gauge("windows.bip_rows", len(self._lower))
            active.gauge("windows.bip_objective", self.objective_value)
        key_sets = []
        for window in range(self.windows):
            keys = {index.key for j, index in enumerate(self.indexes)
                    if result.x[self._d(window, j)] > 0.5}
            key_sets.append(keys)
        return key_sets
