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

Solved with HiGHS through the bindings scipy bundles (substituting for
Gurobi, which is unavailable offline); the formulation is identical.
Like Gurobi, HiGHS takes a MIP start, which a re-solve of one program
gets from its previous solve (:meth:`SelectionProgram._solve`).  Every
solve runs with HiGHS's feasibility-jump heuristic switched off
(:data:`HANDLE_OPTIONS`).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from repro import dominance, telemetry
from repro.exceptions import OptimizationError
from repro.explain import solver_ledger
from repro.optimizer.results import SchemaRecommendation

try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        HighsStatus,
        _Highs,
        kSolutionStatusFeasible,
    )
    _Highs.setSolution  # older bindings take no MIP start
except (ImportError, AttributeError) as error:  # pragma: no cover
    raise ImportError(
        "repro needs scipy>=1.17, whose bundled HiGHS bindings "
        "(scipy.optimize._highspy) take a MIP start") from error


#: HiGHS options set on every handle, before the per-solve
#: ``mip_rel_gap`` and ``time_limit``.  Feasibility jump is a start-up
#: heuristic (HiGHS 1.12) that took up to half of each warm solve; these
#: programs reach a first incumbent without it, from a MIP start or from
#: the root LP, so switching it off cuts a seeded RuBiS phase 1 by ~40%.
HANDLE_OPTIONS = {"log_to_console": False,
                  "mip_heuristic_run_feasibility_jump": False}


class HighsOutcome(NamedTuple):
    """What one HiGHS solve reports back."""

    status: HighsModelStatus
    #: the primal solution, None when HiGHS holds no feasible one
    x: np.ndarray | None
    mip_gap: float
    dual_bound: float


def run_highs(model, options, start=None):
    """Solve ``model`` (:meth:`~_Highs.passModel`'s argument tuple) on
    a fresh HiGHS handle, from the MIP start ``start`` if given.

    HiGHS checks the start and ignores it if infeasible.  ``options``
    are HiGHS options, all doubles, set after :data:`HANDLE_OPTIONS`;
    an option HiGHS rejects raises :class:`OptimizationError`.
    """
    highs = _Highs()
    options = {**HANDLE_OPTIONS,
               **{name: float(value) for name, value in options.items()}}
    for name, value in options.items():
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise OptimizationError(
                f"HiGHS rejected option {name}={value!r}")
    highs.passModel(*model)
    if start is not None:
        highs.setSolution(len(start), np.arange(len(start), dtype=np.int32),
                          np.asarray(start, dtype=float))
    highs.run()
    info = highs.getInfo()
    x = None
    if info.primal_solution_status == kSolutionStatusFeasible:
        x = np.asarray(highs.getSolution().col_value)
    return HighsOutcome(highs.getModelStatus(), x, info.mip_gap,
                        info.mip_dual_bound)


class SelectionProgram:
    """Rows, columns and the solver call shared by the selection BIPs.

    The first ``binaries`` columns are the integral column-family
    selection variables; :meth:`_add_block` appends one statement
    block after them.  :class:`_Program` lays out one block for a whole
    problem, :class:`~repro.windows.bip.WindowedProgram` one per window.
    Rows and columns are emitted in a fixed order, since HiGHS resolves
    cost ties by it.

    Weights enter through the cost vector alone, so a program is
    re-costed in place (:meth:`_recost`) and re-solved from its last
    solution (:meth:`_solve` with ``seeded``): a fresh program has no
    start, so its first solve is unseeded.
    """

    def __init__(self, columns, binaries):
        self.columns = columns
        self.binaries = binaries
        self.costs = [0.0] * columns
        #: (query, plan, column) for workload query plans
        self.plan_columns = []
        #: (update_plan, support query, plan, column)
        self.support_columns = []
        #: one list per block of (column, statement, unweighted cost)
        #: per cost charge, in the order :meth:`_add_block` charged them
        self._charges = []
        #: the last seeded solve's solution, the next one's MIP start
        self._start = None
        self._entries = []  # (row, column, value)
        self._lower = []
        self._upper = []
        #: lazily materialized solver inputs, reused across solves: the
        #: entries as arrays, the base rows as CSC arrays with their
        #: bounds, and the integrality vector
        self._entry_arrays = None
        self._csc = None
        self._integrality = None

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
        charges = []
        self._charges.append(charges)
        for query, plans in query_plans.items():
            weight = weight_of(query)
            choose_one = self._add_row(1.0, 1.0)
            links = {}
            for plan in plans:
                column = self._new_column(weight * plan.cost)
                charges.append((column, query, plan.cost))
                self.plan_columns.append((query, plan, column))
                self._entries.append((choose_one, column, 1.0))
                self._link_plan(column, plan, links, selection)
        for update, plans_by_index in update_plans.items():
            weight = weight_of(update)
            for update_plan in plans_by_index:
                selected = selection[update_plan.index.key]
                self.costs[selected] += weight * update_plan.update_cost
                charges.append((selected, update, update_plan.update_cost))
                grouped = update_plan.support_plans_by_query
                for support, plans in grouped.items():
                    gate = self._add_row(0.0, 0.0, [(selected, -1.0)])
                    links = {}
                    for plan in plans:
                        column = self._new_column(weight * plan.cost)
                        charges.append((column, update, plan.cost))
                        self.support_columns.append(
                            (update_plan, support, plan, column))
                        self._entries.append((gate, column, 1.0))
                        self._link_plan(column, plan, links, selection)

    def _recost(self, costs, block_weights):
        """Replay the recorded charges onto ``costs`` and install them.

        ``block_weights`` holds one ``{statement: weight}`` per block.
        Charges are replayed in :meth:`_add_block`'s order onto a vector
        holding what the build set outside the blocks, so the result
        equals a fresh build's bit for bit.
        """
        for weights, charges in zip(block_weights, self._charges):
            for column, statement, cost in charges:
                costs[column] += weights[statement] * cost
        self.costs = costs

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
        """The constraint matrix as CSC arrays with its row bounds,
        ``(start, index, value, lower, upper)``: the base rows, the
        per-solve rows of :meth:`_solve_rows`, then — given
        ``cost_cap`` — the cost cut ``cost @ x <= cost_cap`` as the
        last row.  The arrays are the ones ``scipy.optimize.milp``
        built from the same rows."""
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
        if not extra and self._csc is not None:
            return self._csc
        if extra:
            entries = [(len(self._lower) + offset, column, value)
                       for offset, (_lower, _upper, terms)
                       in enumerate(extra)
                       for column, value in terms]
            rows = np.concatenate([rows, [e[0] for e in entries]])
            columns = np.concatenate([columns, [e[1] for e in entries]])
            values = np.concatenate([values, [e[2] for e in entries]])
        lower = self._lower + [row[0] for row in extra]
        upper = self._upper + [row[1] for row in extra]
        matrix = csr_matrix((values, (rows, columns)),
                            shape=(len(lower), self.columns)).tocsc()
        csc = (matrix.indptr, matrix.indices, matrix.data,
               np.asarray(lower, dtype=float),
               np.asarray(upper, dtype=float))
        if not extra:
            self._csc = csc
        return csc

    def _solve(self, objective, matrix, options, upper=None,
               seeded=False):
        """Solve ``min objective @ x`` over ``matrix`` (:meth:`_matrix`)
        with ``0 <= x <= upper`` (default 1); returns the
        :class:`HighsOutcome`.

        The ``seeded`` solves are the cost solves (phase 1 and the
        windowed solve).  Each starts from the last seeded solve's
        solution and keeps its own as the next one's start.  Between
        solves of one program only the costs and per-solve rows change,
        so the start is feasible unless a tighter space limit cuts it
        off, and HiGHS then ignores it.  Only a seeded solve sets the
        ``bip.mip_gap`` and ``bip.dual_bound`` gauges, so they certify
        the cost optimum rather than phase 2's schema size.
        """
        # Only the column-family selection variables need integrality:
        # for any 0/1 selection, every plan whose column families are
        # all selected is feasible on its own (the aggregated links
        # allow x_p = 1), so a linear objective over the plan variables
        # attains its optimum at a pure plan — fractional plan mixes
        # can never beat the cheapest feasible plan.  Declaring the
        # plan variables continuous cuts the binaries from thousands to
        # the number of candidates.
        if self._integrality is None:
            self._integrality = np.zeros(self.columns, dtype=np.int32)
            self._integrality[:self.binaries] = 1
        a_start, a_index, a_value, row_lower, row_upper = matrix
        objective = np.asarray(objective, dtype=float)
        self._check_finite(objective, row_lower, row_upper)
        # column-wise matrix (format 1), minimised (sense 1), no offset
        model = (self.columns, len(row_lower), len(a_index), 1, 1, 0.0,
                 objective, np.zeros(self.columns),
                 np.ones(self.columns) if upper is None else upper,
                 row_lower, row_upper, a_start, a_index, a_value,
                 self._integrality)
        start = self._start if seeded else None
        result = run_highs(model, options, start)
        active = telemetry.current()
        if (result.status in (HighsModelStatus.kTimeLimit,
                              HighsModelStatus.kIterationLimit)
                and result.x is not None):
            # iteration or time limit: the incumbent is feasible but
            # possibly short of the requested gap — keep it, and say so
            if active.enabled:
                active.count("bip.time_limited")
        elif result.status != HighsModelStatus.kOptimal:
            raise OptimizationError(self._failure(result.status))
        if seeded:
            self._start = result.x
            if active.enabled:
                if start is not None:
                    active.count("bip.started")
                active.gauge("bip.mip_gap", result.mip_gap)
                active.gauge("bip.dual_bound", result.dual_bound)
        return result

    def _check_finite(self, objective, row_lower, row_upper):
        """Raise :class:`OptimizationError` at the first non-finite
        objective entry or NaN row bound (a cost cap or space limit):
        HiGHS may search forever on one."""
        bad = np.flatnonzero(~np.isfinite(objective))
        if bad.size:
            column = int(bad[0])
            owners = [statement.label for charges in self._charges
                      for charged, statement, cost in charges
                      if charged == column and not np.isfinite(cost)]
            raise OptimizationError(
                f"BIP objective entry {column} is {objective[column]}"
                + (f" (a cost of {owners[0]})" if owners else "")
                + ": a cost, weight or entity count is not finite")
        bad = np.flatnonzero(np.isnan(row_lower) | np.isnan(row_upper))
        if bad.size:
            row = int(bad[0])
            raise OptimizationError(
                f"BIP row {row} has bounds [{row_lower[row]}, "
                f"{row_upper[row]}]: a cost cap or space limit is not "
                f"finite")

    def _failure(self, status):
        """The error message for a solve that ended in ``status``."""
        return f"BIP solve failed: {_Highs().modelStatusToString(status)}"


class _Program(SelectionProgram):
    """A fully materialized BIP instance, ready to optimize.

    The constraint structure depends only on the plan spaces, never on
    the statement weights or the space limit — weights enter through
    the cost vector alone, and the space row is set per solve from
    ``problem.space_limit`` (:meth:`_solve_rows`).  One program
    therefore serves every solve over its plan spaces: :meth:`reweight`
    re-costs it in place, and the base constraint matrix, integrality
    vector and variable bounds are each materialized once and reused.
    Each phase 1 is seeded with the last one's solution; phase 2 is
    never seeded: a start from phase 1 slowed it.
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
        #: lazily built, like ``_integrality``: the plan columns grouped
        #: per query, the groups' start offsets, and the support columns
        self._phase2_groups = None
        self._add_block(problem.query_classes, problem.update_classes,
                        problem.class_weight, self.index_column)
        #: {column phase 1 fixes at 0: its dominator's} (:meth:`_dominated`)
        self.dominated = self._dominated()
        active = telemetry.current()
        if active.enabled:
            active.gauge("bip.dominated_columns", len(self.dominated))
            active.gauge("bip.columns", self.columns)
            active.gauge("bip.binary_columns", self.binaries)
            active.gauge("bip.rows", len(self._lower))
            active.gauge("bip.nonzeros", len(self._entries))

    def _dominated(self):
        """Dominated twin candidates: ``{B's column: A's column}``.

        Candidate B is dominated by candidate A when (1) both have the
        same path, field set and size; (2) every update class maintains
        both or neither, at equal update cost, and their support
        queries pair up, each pair's plans giving the same set of
        (cost, column-family set) pairs; and (3) every plan reading B,
        in any choose-one row or gate, has a twin in that row whose
        column-family set is its own with B replaced by A, at no
        greater cost.  With no negative cost, any
        schema holding B then costs no less than the one holding A
        instead, at no greater size or column-family count, whatever
        the weights and space limit.  Each B maps to a dominator A that
        is not fixed itself, so fixing every B at 0 keeps an optimum; of
        mutual twins the first in candidate order is kept.  Empty when a
        plan or update cost is negative.
        """
        groups = {}
        for index in self.indexes:
            groups.setdefault((index.path.signature, index.all_field_ids),
                              []).append(index)
        groups = [group for group in groups.values() if len(group) > 1]
        if not groups or any(cost < 0.0 for charges in self._charges
                             for _column, _statement, cost in charges):
            return {}
        # rules 1 and 3 first, which rule out most pairs: peers[b] keeps
        # each A not yet ruled out, and twins each B with one left
        size = {index.key: index.size
                for group in groups for index in group}
        peers = {b.key: [a.key for a in group if a is not b
                         and size[a.key] == size[b.key]]
                 for group in groups for b in group}
        twins = {key for key, others in peers.items() if others}
        updates = list(self.problem.update_classes.values())
        rows = list(self.problem.query_classes.values())
        rows.extend(plans for update_plans in updates
                    for update_plan in update_plans
                    for plans in update_plan.support_plans_by_query.values())
        keys_of = dominance.plan_keys
        for plans in rows:
            cost_of = None
            for plan in plans:
                keys = keys_of(plan)
                if twins.isdisjoint(keys):
                    continue
                if cost_of is None:
                    # pruned spaces hold one plan per column-family set;
                    # where one holds more, the last plan's cost only
                    # makes the test stricter
                    cost_of = {keys_of(other): other.cost
                               for other in plans}
                for b in keys & twins:
                    peers[b] = [a for a in peers[b]
                                if cost_of.get(keys - {b} | {a},
                                               np.inf) <= plan.cost]
                    if not peers[b]:
                        twins.discard(b)
        # rule 2 for the pairs left
        upkeep = {key: [] for b in twins for key in (b, *peers[b])}
        for number, update_plans in enumerate(updates):
            for update_plan in update_plans:
                if update_plan.index.key in upkeep:
                    spaces = update_plan.support_plans_by_query.values()
                    upkeep[update_plan.index.key].append(
                        (number, update_plan.update_cost, Counter(
                            frozenset((plan.cost, keys_of(plan))
                                      for plan in plans)
                            for plans in spaces)))
        for b in list(twins):
            peers[b] = [a for a in peers[b] if upkeep[a] == upkeep[b]]
            if not peers[b]:
                twins.discard(b)

        def dominator(b, fixed):
            return next((a for a in peers[b] if a not in fixed), None)

        dominated = {}
        for group in groups:
            fixed = set()
            for b in reversed(group):
                if b.key not in twins:
                    continue
                trial = fixed | {b.key}
                if all(dominator(c, trial) for c in trial):
                    fixed = trial
            dominated.update((self.index_column[b],
                              self.index_column[dominator(b, fixed)])
                             for b in fixed)
        return dict(sorted(dominated.items()))

    def _solve_rows(self):
        """The space row, under a space limit: selected sizes sum to
        at most ``problem.space_limit``."""
        limit = self.problem.space_limit
        if limit is None:
            return []
        return [(-np.inf, float(limit),
                 [(column, index.size)
                  for column, index in enumerate(self.indexes)])]

    def _failure(self, status):
        limit = self.problem.space_limit
        if status == HighsModelStatus.kInfeasible and limit is not None:
            # every query can always be answered by selecting every
            # candidate, so only the space row makes the program
            # infeasible
            return (f"no schema fits within space_limit={limit:g}: "
                    f"every schema answering the workload is larger")
        return super()._failure(status)

    # -- re-costing -----------------------------------------------------------

    def reweight(self, weights):
        """Re-cost the program for new statement weights, in place.

        Choose-one rows, support gates and plan links are all
        weight-independent, so only the cost vector needs rebuilding
        — the expensive construction work survives a weight change.
        """
        problem = self.problem
        problem.set_weights(weights)
        self._recost([0.0] * self.columns,
                     [{statement: problem.class_weight(statement)
                       for statement in problem.classes}])

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
        if self._phase2_groups is None:
            by_query = {}
            for query, _plan, column in self.plan_columns:
                by_query.setdefault(id(query), []).append(column)
            sizes = [len(group) for group in by_query.values()]
            self._phase2_groups = (
                np.asarray([column for group in by_query.values()
                            for column in group], dtype=np.intp),
                np.cumsum([0] + sizes[:-1], dtype=np.intp),
                np.asarray(sizes, dtype=np.intp),
                np.asarray([column for *_rest, column
                            in self.support_columns], dtype=np.intp))
        grouped, starts, sizes, support = self._phase2_groups
        # index-selection columns must never be fixed: the group minima
        # below are computed ignoring which column families exist
        margins = np.full(self.columns, -np.inf)
        lower_bound = 0.0
        if grouped.size:
            group_costs = costs[grouped]
            minima = np.minimum.reduceat(group_costs, starts)
            # one addition at a time in group order, not np.sum's
            # pairwise rounding, so the slack is the sequential sum's
            for group_min in minima.tolist():
                lower_bound += group_min
            margins[grouped] = group_costs - np.repeat(minima, sizes)
        # support plans cost nothing when their gate is closed, so their
        # margin is the full column cost
        margins[support] = costs[support]
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

    def optimize(self, minimize_schema_size=True, mip_rel_gap=1e-4,
                 time_limit=120.0):
        """Two-phase solve: min cost, then min #column families.

        ``mip_rel_gap`` and ``time_limit`` bound the branch-and-bound
        effort; with a time limit the incumbent solution is returned
        (still feasible, within the reported gap of optimal).
        """
        active = telemetry.current()
        solve_started = time.perf_counter()
        with active.span("bip_solving"):
            options = {"mip_rel_gap": mip_rel_gap,
                       "time_limit": time_limit}
            # the dominance argument holds for non-negative costs only
            upper = None
            if self.dominated and min(self.costs) >= 0.0:
                upper = np.ones(self.columns)
                upper[list(self.dominated)] = 0.0
            result = self._solve(self.costs, self._matrix(), options,
                                 upper=upper, seeded=True)
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
                        objective, self._matrix(best_cost + tolerance),
                        phase2_options, upper=upper)
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

    def optimize(self, program):
        """Solve a prepared program (the 'BIP solving' stage).

        The space limit is read from ``program.problem.space_limit`` at
        solve time.
        """
        return program.optimize(self.minimize_schema_size,
                                mip_rel_gap=self.mip_rel_gap,
                                time_limit=self.time_limit)

    def solve(self, problem):
        """Construct and solve in one call."""
        return self.optimize(self.prepare(problem))
