"""Binary integer program for schema selection (paper §V, Fig 7 & Fig 10).

The paper formulates schema choice with one variable per (query, column
family) use plus per-column-family selection variables, tied together by
per-query path constraints.  We solve the equivalent per-plan
formulation: one binary variable per enumerated plan, exactly one plan
per query, and plan variables dominated by the selection variables of
every column family they touch.  Updates contribute the ``C'_mn`` terms
of Fig 10 directly on the selection variables, and support queries are
planned iff their column family is selected (an equality constraint on
the plan variables).  After minimising cost, a second solve finds the
smallest schema achieving that optimum, as §V describes.

Solved with scipy's HiGHS MILP backend (substituting for Gurobi, which
is unavailable offline); the formulation is identical.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro import telemetry
from repro.exceptions import OptimizationError
from repro.explain import solver_ledger
from repro.optimizer.results import SchemaRecommendation


class SelectionProgram:
    """Rows, columns and the solver call shared by the selection BIPs.

    The first ``binaries`` columns are the integral column-family
    selection variables; :meth:`_add_block` appends one statement
    block after them.  :class:`_Program` lays out one block for a whole
    problem, :class:`~repro.windows.bip.WindowedProgram` one per window.
    Rows and columns are emitted in a fixed order, since HiGHS resolves
    cost ties by it.
    """

    def __init__(self, columns, binaries):
        self.columns = columns
        self.binaries = binaries
        self.costs = [0.0] * columns
        #: (query, plan, column) for workload query plans
        self.plan_columns = []
        #: (update_plan, support query, plan, column)
        self.support_columns = []
        #: (column, statement, unweighted cost) per cost charge, in
        #: the order :meth:`_add_block` charged them
        self._charges = []
        self._entries = []  # (row, column, value)
        self._lower = []
        self._upper = []
        #: lazily materialized solver inputs, reused across solves
        self._base_constraint = None
        self._entry_arrays = None
        self._integrality = None
        self._unit_bounds = None

    def _add_row(self, lower, upper, terms=()):
        """Append ``lower <= row <= upper``, starting with ``terms``
        (``(column, coefficient)`` pairs); returns the row index."""
        row = len(self._lower)
        self._lower.append(lower)
        self._upper.append(upper)
        self._entries.extend((row, column, value)
                             for column, value in terms)
        return row

    def _new_column(self, cost):
        self.costs.append(cost)
        column = self.columns
        self.columns += 1
        return column

    def _add_block(self, query_plans, update_plans, weight_of, selection):
        """Lay out one statement block over ``selection`` columns.

        Each query gets a choose-one row over its plan columns.  Each
        update plan charges its maintenance cost to the selection column
        of the column family it maintains, and each of its support
        queries gets a gate row: one support plan iff that column family
        is selected.  ``weight_of`` maps a statement to its weight and
        ``selection`` a column-family key to its selection column.
        """
        for query, plans in query_plans.items():
            weight = weight_of(query)
            choose_one = self._add_row(1.0, 1.0)
            links = {}
            for plan in plans:
                column = self._new_column(weight * plan.cost)
                self._charges.append((column, query, plan.cost))
                self.plan_columns.append((query, plan, column))
                self._entries.append((choose_one, column, 1.0))
                self._link_plan(column, plan, links, selection)
        for update, plans_by_index in update_plans.items():
            weight = weight_of(update)
            for update_plan in plans_by_index:
                selected = selection[update_plan.index.key]
                self.costs[selected] += weight * update_plan.update_cost
                self._charges.append((selected, update,
                                      update_plan.update_cost))
                grouped = update_plan.support_plans_by_query
                for support, plans in grouped.items():
                    gate = self._add_row(0.0, 0.0, [(selected, -1.0)])
                    links = {}
                    for plan in plans:
                        column = self._new_column(weight * plan.cost)
                        self._charges.append((column, update, plan.cost))
                        self.support_columns.append(
                            (update_plan, support, plan, column))
                        self._entries.append((gate, column, 1.0))
                        self._link_plan(column, plan, links, selection)

    def _link_plan(self, column, plan, links, selection):
        """Plan usable only when every column family it touches exists.

        Links are aggregated per (statement, column family): since each
        statement selects exactly one plan, ``sum of plans using j <= d_j``
        is valid and gives a tighter LP relaxation than per-plan rows.
        """
        for index in plan.indexes:
            row = links.get(index.key)
            if row is None:
                row = self._add_row(-np.inf, 0.0,
                                    [(selection[index.key], -1.0)])
                links[index.key] = row
            self._entries.append((row, column, 1.0))

    def _solve_rows(self):
        """Rows set per solve rather than built, as ``(lower, upper,
        terms)``; :meth:`_matrix` places them after the base rows."""
        return []

    def _matrix(self, cost_cap=None):
        """The constraint matrix: the base rows, the per-solve rows of
        :meth:`_solve_rows`, then — given ``cost_cap`` — the cost cut
        ``cost @ x <= cost_cap`` as the last row."""
        if self._entry_arrays is None:
            self._entry_arrays = (
                np.asarray([e[0] for e in self._entries]),
                np.asarray([e[1] for e in self._entries]),
                np.asarray([e[2] for e in self._entries], dtype=float),
            )
        rows, columns, values = self._entry_arrays
        extra = self._solve_rows()
        if cost_cap is not None:
            extra.append((-np.inf, cost_cap,
                          [(column, value)
                           for column, value in enumerate(self.costs)
                           if value != 0.0]))
        if not extra:
            if self._base_constraint is None:
                matrix = csr_matrix(
                    (values, (rows, columns)),
                    shape=(len(self._lower), self.columns))
                self._base_constraint = LinearConstraint(
                    matrix, np.asarray(self._lower, dtype=float),
                    np.asarray(self._upper, dtype=float))
            return self._base_constraint
        entries = [(len(self._lower) + offset, column, value)
                   for offset, (_lower, _upper, terms) in enumerate(extra)
                   for column, value in terms]
        rows = np.concatenate([rows, [e[0] for e in entries]])
        columns = np.concatenate([columns, [e[1] for e in entries]])
        values = np.concatenate([values, [e[2] for e in entries]])
        lower = list(self._lower) + [row[0] for row in extra]
        upper = list(self._upper) + [row[1] for row in extra]
        matrix = csr_matrix((values, (rows, columns)),
                            shape=(len(lower), self.columns))
        return LinearConstraint(matrix, np.asarray(lower),
                                np.asarray(upper))

    def _solve(self, objective, constraints, options=None, bounds=None):
        # Only the column-family selection variables need integrality:
        # for any 0/1 selection, every plan whose column families are
        # all selected is feasible on its own (the aggregated links
        # allow x_p = 1), so a linear objective over the plan variables
        # attains its optimum at a pure plan — fractional plan mixes
        # can never beat the cheapest feasible plan.  Declaring the
        # plan variables continuous cuts the binaries from thousands to
        # the number of candidates.
        if self._integrality is None:
            self._integrality = np.zeros(self.columns)
            self._integrality[:self.binaries] = 1
        if bounds is None:
            if self._unit_bounds is None:
                self._unit_bounds = Bounds(0, 1)
            bounds = self._unit_bounds
        result = milp(
            c=np.asarray(objective),
            constraints=constraints,
            integrality=self._integrality,
            bounds=bounds,
            options=options or {},
        )
        if result.status == 1 and result.x is not None:
            # iteration or time limit: the incumbent is feasible but
            # possibly short of the requested gap — keep it, and say so
            active = telemetry.current()
            if active.enabled:
                active.count("bip.time_limited")
        elif not result.success:
            raise OptimizationError(self._failure(result))
        return result

    def _failure(self, result):
        """The error message for a failed solve."""
        return f"BIP solve failed: {result.message}"


class _Program(SelectionProgram):
    """A fully materialized BIP instance, ready to optimize.

    The constraint structure depends only on the plan spaces, never on
    the statement weights or the space limit — weights enter through
    the cost vector alone, and the space row is set per solve from
    ``problem.space_limit`` (:meth:`_solve_rows`).  One program
    therefore serves every solve over its plan spaces: :meth:`reweight`
    re-costs it in place, and the base constraint matrix, integrality
    vector and variable bounds are each materialized once and reused.
    """

    def __init__(self, problem):
        self.problem = problem
        self.indexes = problem.indexes
        self.index_column = {index.key: column
                             for column, index in enumerate(self.indexes)}
        super().__init__(len(self.indexes), len(self.indexes))
        #: wall-clock seconds of the last optimize(), split so the
        #: advisor can attribute solving vs result extraction honestly
        self.solve_seconds = 0.0
        self.extract_seconds = 0.0
        self._add_block(problem.query_classes, problem.update_classes,
                        problem.class_weight, self.index_column)
        active = telemetry.current()
        if active.enabled:
            active.gauge("bip.columns", self.columns)
            active.gauge("bip.binary_columns", self.binaries)
            active.gauge("bip.rows", len(self._lower))
            active.gauge("bip.nonzeros", len(self._entries))

    def _solve_rows(self):
        """The space row, under a space limit: selected sizes sum to
        at most ``problem.space_limit``."""
        limit = self.problem.space_limit
        if limit is None:
            return []
        return [(-np.inf, float(limit),
                 [(column, index.size)
                  for column, index in enumerate(self.indexes)])]

    def _failure(self, result):
        limit = self.problem.space_limit
        if result.status == 2 and limit is not None:
            # every query can always be answered by selecting every
            # candidate, so only the space row makes the program
            # infeasible
            return (f"no schema fits within space_limit={limit:g}: "
                    f"every schema answering the workload is larger")
        return super()._failure(result)

    # -- re-costing -----------------------------------------------------------

    def reweight(self, weights):
        """Re-cost the program for new statement weights, in place.

        Choose-one rows, support gates and plan links are all
        weight-independent, so only the cost vector needs rebuilding
        — the expensive construction work survives a weight change.
        The charges are replayed in :meth:`_add_block`'s order, so the
        vector equals a fresh build's bit for bit.
        """
        problem = self.problem
        problem.set_weights(weights)
        weight_of = {statement: problem.class_weight(statement)
                     for statement in problem.classes}
        costs = [0.0] * self.columns
        for column, statement, cost in self._charges:
            costs[column] += weight_of[statement] * cost
        self.costs = costs

    # -- solving --------------------------------------------------------------

    def _phase2_bounds(self, best_cost, tolerance):
        """Variable fixing for the schema-minimisation solve.

        Any solution within the phase-2 cost cap pays at least the
        cheapest plan of every query group (their sum ``lower_bound``),
        plus — for each active support gate and in full for a pure plan
        choice — the cost of whichever plan column carries weight.  A
        plan column whose cost exceeds its group minimum by more than
        ``best_cost + tolerance - lower_bound`` therefore appears in no
        pure solution under the cap, and since the best cost achievable
        for a fixed schema is always attained by pure plan choices,
        fixing such columns to zero preserves a phase-2 optimum.  This
        is a no-op when maintenance costs dominate the slack (e.g.
        update-heavy mixes) but prunes most plan columns on read-mostly
        workloads.  Returns the columns' upper bounds: 0 where fixed.
        """
        upper = np.ones(self.columns)
        costs = np.asarray(self.costs, dtype=float)
        if costs.size == 0 or costs.min() < 0.0:
            # negative costs void the lower-bound argument
            return upper
        # index-selection columns must never be fixed: the group minima
        # below are computed ignoring which column families exist
        margins = np.full(self.columns, -np.inf)
        lower_bound = 0.0
        by_query = {}
        for query, _plan, column in self.plan_columns:
            by_query.setdefault(id(query), []).append(column)
        for group in by_query.values():
            group_costs = costs[group]
            group_min = float(group_costs.min())
            lower_bound += group_min
            margins[group] = group_costs - group_min
        for _update_plan, _support, _plan, column in self.support_columns:
            # support plans cost nothing when their gate is closed, so
            # their margin is the full column cost
            margins[column] = costs[column]
        slack = best_cost + tolerance - lower_bound
        fixed = margins > slack
        active = telemetry.current()
        if active.enabled:
            active.gauge("bip.phase2_fixed_columns",
                         int(fixed.sum()))
            active.gauge("bip.phase2_free_columns",
                         int(self.columns - fixed.sum()))
        upper[fixed] = 0.0
        return upper

    def _warm_bound(self, keys):
        """Incumbent cost bound from a previous schema's keys, or None.

        Evaluating the schema as a full solution of *this* program
        yields a feasible objective value; solutions costing more can
        be cut off without losing any optimum.  scipy's ``milp`` has no
        MIP-start API, so this incumbent-bound cut is how a previous
        solution warm-starts the solve.  None (no cut) when the warm
        schema is infeasible for the current problem.
        """
        priced = self.problem.price(keys)
        active = telemetry.current()
        if priced is None:
            if active.enabled:
                active.count("bip.warm_start_infeasible")
            return None
        if active.enabled:
            active.count("bip.warm_starts_applied")
            active.gauge("bip.warm_start_bound", priced.cost)
        # slack absorbs float noise only: any true optimum still
        # satisfies cost <= incumbent < incumbent + slack
        return priced.cost + 1e-7 * (1.0 + abs(priced.cost))

    def optimize(self, minimize_schema_size=True, mip_rel_gap=1e-4,
                 time_limit=120.0, warm_start=None):
        """Two-phase solve: min cost, then min #column families.

        ``mip_rel_gap`` and ``time_limit`` bound the branch-and-bound
        effort; with a time limit the incumbent solution is returned
        (still feasible, within the reported gap of optimal).
        ``warm_start`` optionally supplies a previous solution whose
        cost bounds the first solve from above (see :meth:`_warm_bound`
        for the exact semantics — the optimum is never changed, though
        equal-cost ties may resolve differently than an unassisted
        solve).
        """
        active = telemetry.current()
        solve_started = time.perf_counter()
        with active.span("bip_solving"):
            options = {"mip_rel_gap": mip_rel_gap,
                       "time_limit": time_limit}
            bound = None
            if warm_start is not None:
                if hasattr(warm_start, "indexes"):
                    warm_start = warm_start.indexes
                bound = self._warm_bound({getattr(index, "key", index)
                                          for index in warm_start})
            result = self._solve(self.costs, [self._matrix(bound)],
                                 options)
            best_cost = float(np.asarray(self.costs) @ result.x)
            if minimize_schema_size:
                phase1_seconds = time.perf_counter() - solve_started
                # pin the cost at the incumbent — slack proportional to
                # the MIP gap, so the second solve is never knife-edge —
                # and minimise the number of selected column families
                tolerance = (mip_rel_gap * abs(best_cost)
                             + 1e-7 * (1.0 + abs(best_cost)))
                objective = [0.0] * self.columns
                objective[:self.binaries] = [1.0] * self.binaries
                # the phase-1 selection is feasible for phase 2, so
                # phase 2 searches only within it: every column family
                # phase 1 left out is fixed to 0, which keeps the search
                # small enough to finish well inside its budget and
                # never yields a larger schema than phase 1's
                upper = self._phase2_bounds(best_cost, tolerance)
                unselected = result.x[:self.binaries] <= 0.5
                upper[:self.binaries][unselected] = 0.0
                if active.enabled:
                    active.gauge("bip.phase2_free_binaries",
                                 int(self.binaries - unselected.sum()))
                # the second solve only shrinks the schema at equal
                # cost — it must never dominate the runtime, so its
                # budget matches the phase-1 solve (floor 1s, cap 30s)
                # and its gap is loose (the objective is a small integer
                # count); on failure or timeout the phase-1 solution is
                # kept and _extract prunes unused column families
                phase2_options = {
                    "mip_rel_gap": max(mip_rel_gap, 0.02),
                    "time_limit": min(
                        time_limit, 30.0,
                        max(1.0, phase1_seconds)),
                }
                phase2_started = time.perf_counter()
                try:
                    result = self._solve(
                        objective, [self._matrix(best_cost + tolerance)],
                        phase2_options, bounds=Bounds(0, upper))
                except OptimizationError:
                    # keep the phase-1 solution; _extract prunes it
                    if active.enabled:
                        active.count("bip.phase2_failed")
                if active.enabled:
                    active.gauge("bip.phase2_time_limit",
                                 phase2_options["time_limit"])
                    active.gauge("bip.phase2_seconds",
                                 time.perf_counter() - phase2_started)
            extract_started = time.perf_counter()
            self.solve_seconds = extract_started - solve_started
        with active.span("recommendation"):
            recommendation = self._extract(result, best_cost)
        self.extract_seconds = time.perf_counter() - extract_started
        if active.enabled:
            active.observe("bip.solve_seconds", self.solve_seconds,
                           buckets=telemetry.TIME_BUCKETS)
            active.observe("bip.extract_seconds", self.extract_seconds,
                           buckets=telemetry.TIME_BUCKETS)
        return recommendation

    def _extract(self, result, total_cost):
        # plan variables are continuous and may split across equal-cost
        # alternatives, and phase 2 leaves them anywhere under the cost
        # cap: the selection alone is read, and priced afresh
        selected_keys = {index.key for index, selected
                         in zip(self.indexes, result.x > 0.5) if selected}
        chosen = self.problem.price(selected_keys)
        if chosen is None:
            raise OptimizationError(
                "BIP selection is infeasible once rounded to 0/1")
        chosen_keys = chosen.used_keys
        indexes = [index for index in self.indexes
                   if index.key in chosen_keys]
        update_plans = {}
        for update, plans in chosen.update_plans.items():
            kept = [plan for plan in plans
                    if plan.index.key in chosen_keys]
            if kept:
                update_plans[update] = kept
        recommendation = SchemaRecommendation(indexes, chosen.query_plans,
                                              update_plans,
                                              self.problem.weights,
                                              total_cost)
        # the decision ledger: per-candidate selection status and, per
        # statement, the chosen plan next to the best rejected one
        recommendation.ledger = solver_ledger(
            self.problem, chosen_keys, selected_keys, chosen.query_plans,
            self.plan_columns)
        return recommendation


class BIPOptimizer:
    """Facade exposing BIP construction and solving as separate stages,
    so the advisor can report the paper's Fig 13 runtime breakdown."""

    def __init__(self, minimize_schema_size=True, mip_rel_gap=1e-4,
                 time_limit=120.0):
        self.minimize_schema_size = minimize_schema_size
        self.mip_rel_gap = mip_rel_gap
        self.time_limit = time_limit

    def prepare(self, problem):
        """Construct the program (the 'BIP construction' stage)."""
        return _Program(problem)

    def reweight(self, program, weights):
        """Re-cost a prepared program for new statement weights.

        The constraint structure is weight-independent, so this replaces
        only the cost vector — re-solving after a weight change skips
        construction entirely.
        """
        program.reweight(weights)
        return program

    def optimize(self, program, warm_start=None):
        """Solve a prepared program (the 'BIP solving' stage).

        The space limit is read from ``program.problem.space_limit`` at
        solve time.  ``warm_start`` may be a previous
        :class:`~repro.optimizer.results.SchemaRecommendation` (or any
        iterable of indexes / index keys); its cost becomes an
        incumbent upper bound on the first solve.
        """
        return program.optimize(self.minimize_schema_size,
                                mip_rel_gap=self.mip_rel_gap,
                                time_limit=self.time_limit,
                                warm_start=warm_start)

    def solve(self, problem, warm_start=None):
        """Construct and solve in one call."""
        return self.optimize(self.prepare(problem),
                             warm_start=warm_start)
