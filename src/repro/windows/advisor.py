"""Windowed schema advising: one schedule, globally cheapest schemas.

``recommend_windows`` extends the advisor across an ordered window
schedule.  It prepares *once* for the union of every window's active
statements (a single enumeration/planning/costing/pruning pass through
the incremental pipeline), prices two baselines — the best *static*
single schema held across all windows, and *naive per-window*
re-advising with migrations priced after the fact — and then solves
the windowed BIP (:class:`~repro.windows.bip.WindowedProgram`), which
co-optimizes per-window schemas and inter-window migrations and may
therefore land anywhere between the two: holding one schema when
migration outweighs the per-window win, migrating everything when it
is cheap, or migrating only the column families that pay for
themselves.

All three strategies are scored by one evaluator: each window is an
:class:`~repro.optimizer.OptimizationProblem` over its active
statements, priced by :meth:`~repro.optimizer.OptimizationProblem.price`,
plus migrations priced by the
:class:`~repro.tools.migration.MigrationCostModel`.  Their totals are
therefore directly comparable, and the cheapest of the three scored
schedules is returned, so the result is never worse than either
baseline.

The naive baseline's per-window programs and the windowed program are
kept on the union view's prepared workload: a later call over the same
statements re-costs them in place and starts each solve from that
program's last solution.
"""

from __future__ import annotations

import time

from repro.advisor import AdvisorTiming, construct_program
from repro.exceptions import OptimizationError
from repro.optimizer import OptimizationProblem
from repro.tools.migration import MigrationCostModel, plan_migration
from repro.windows.bip import WindowedProgram, _active
from repro.windows.schedule import WindowSchedule

__all__ = ["WindowedRecommendation", "WindowResult", "recommend_windows"]

#: synthetic mix holding each statement's peak weight across the
#: schedule; prepares the union of every window's active statements
UNION_MIX = "__windows_union__"


class WindowResult:
    """One window of a recommended schedule."""

    def __init__(self, window, indexes, serving_cost, migration,
                 migration_cost, query_plans, update_plans, weights):
        self.window = window
        self.indexes = tuple(indexes)
        self.serving_cost = serving_cost
        #: the SchemaMigration entering this window (from the previous
        #: window's schema, or from the initial schema for the first)
        self.migration = migration
        self.migration_cost = migration_cost
        self.query_plans = dict(query_plans)
        self.update_plans = dict(update_plans)
        self.weights = dict(weights)

    @property
    def keys(self):
        return [index.key for index in self.indexes]

    @property
    def size(self):
        return sum(index.size for index in self.indexes)

    def __repr__(self):
        return (f"WindowResult({self.window.label}: "
                f"{len(self.indexes)} column families, "
                f"serving={self.serving_cost:.4f}, "
                f"migration={self.migration_cost:.4f})")


class WindowedRecommendation:
    """A schedule of schemas with costed migrations between them."""

    def __init__(self, schedule, windows, initial, migration_model,
                 baselines, timing=None):
        self.schedule = schedule
        self.windows = list(windows)
        self.initial = tuple(initial)
        self.migration_model = migration_model
        #: {"static": {...}, "naive_per_window": {...}} evaluated by
        #: the same scorer as the windowed schedule
        self.baselines = dict(baselines)
        self.timing = dict(timing or {})

    @property
    def serving_cost(self):
        return sum(window.serving_cost for window in self.windows)

    @property
    def migration_cost(self):
        return sum(window.migration_cost for window in self.windows)

    @property
    def total_cost(self):
        return self.serving_cost + self.migration_cost

    def document(self, meta=None):
        """The byte-stable "nose-windows/1" document."""
        from repro.windows.document import windows_document
        return windows_document(self, meta=meta)

    def describe(self):
        """Human-readable schedule report."""
        from repro.reporting import windows_report
        return windows_report(self.document())

    def __repr__(self):
        return (f"WindowedRecommendation(windows={len(self.windows)}, "
                f"total={self.total_cost:.4f})")


# -- schedule evaluation ------------------------------------------------------


def _price(problem, keys, label):
    """Price one window's schema with the window's own problem."""
    priced = problem.price(keys)
    if priced is None:
        raise OptimizationError(
            f"window {label!r}: its schema leaves an active statement "
            f"without a plan or exceeds the space limit")
    return priced


def _trim_schedule(key_sets, used_sets):
    """Drop selected-but-never-read column families, per run.

    The solver may hold a column family in windows where nothing reads
    it (holding is free without a space limit, so such selections are
    cost ties).  For determinism each maximal run of consecutive
    selections is trimmed to the span between its first and last *used*
    window — runs with no use vanish entirely.  Trimming a run never
    adds a migration (each surviving run still starts with the one
    creation it already paid) and only removes maintenance, so the
    trimmed schedule costs no more than the solver's.
    """
    count = len(key_sets)
    all_keys = set().union(*key_sets) if key_sets else set()
    trimmed = [set() for _ in range(count)]
    for key in sorted(all_keys):
        window = 0
        while window < count:
            if key not in key_sets[window]:
                window += 1
                continue
            start = window
            while window < count and key in key_sets[window]:
                window += 1
            used = [position for position in range(start, window)
                    if key in used_sets[position]]
            if used:
                for position in range(used[0], used[-1] + 1):
                    trimmed[position].add(key)
    return trimmed


def _evaluate_schedule(problems, schedule, key_sets, index_by_key,
                       migration_model, initial):
    """Score a full schedule; returns (windows, serving, migration)."""
    results = []
    serving_total = 0.0
    migration_total = 0.0
    previous = list(initial)
    for window, problem, keys in zip(schedule, problems, key_sets):
        priced = _price(problem, keys, window.label)
        current = [index_by_key[key] for key in sorted(keys)]
        migration = plan_migration(previous, current)
        migration_cost = migration_model.migration_cost(migration)
        results.append(WindowResult(
            window, current, priced.cost, migration, migration_cost,
            priced.query_plans, priced.update_plans, problem.weights))
        serving_total += priced.cost
        migration_total += migration_cost
        previous = current
    return results, serving_total, migration_total


# -- the windowed advisor entry point ----------------------------------------


def _union_view(workload, schedule):
    """A workload view whose active mix holds each statement's peak
    weight across the schedule — statements idle in every window drop
    out of preparation entirely."""
    union = workload.clone()
    for label in union.statements:
        peak = max(workload.weight(label, mix=window.mix)
                   for window in schedule)
        union.set_weight(label, peak, mix=UNION_MIX)
    return union.with_mix(UNION_MIX)


def _window_weight_rows(workload, schedule):
    """One ``{label: absolute weight}`` row per window.

    Mix names are validated strictly — the windowed path is exactly
    where a typo'd mix silently reusing default weights would corrupt
    a whole schedule.
    """
    rows = []
    for window in schedule:
        workload.validate_mix(window.mix)
        rows.append({label: (workload.weight(label, mix=window.mix)
                             * window.requests)
                     for label in workload.statements})
    return rows


def _active_labels(weights):
    """The labels a window weight row activates (see ``_active``)."""
    return frozenset(label for label, weight in weights.items()
                     if weight > 0.0)


def _initial_indexes(initial):
    if initial is None:
        return ()
    if hasattr(initial, "indexes"):
        return tuple(initial.indexes)
    return tuple(initial)


def _baseline_entry(windows, serving, migration):
    return {"windows": windows, "serving": serving,
            "migration": migration, "total": serving + migration}


def recommend_windows(advisor, workload, schedule, initial=None,
                      migration_model=None, space_limit=None,
                      mip_rel_gap=1e-4, time_limit=120.0):
    """Recommend a schema *schedule* for an ordered set of windows.

    ``schedule`` is a :class:`~repro.windows.WindowSchedule` (or
    anything its constructor accepts); each window names a known mix of
    ``workload`` and a request volume.  ``initial`` optionally passes
    the already-materialized schema (a recommendation or iterable of
    column families) — creating anything beyond it is charged by
    ``migration_model`` (default :class:`MigrationCostModel`).

    Returns a :class:`WindowedRecommendation` whose ``baselines`` carry
    the static single-schema and naive per-window strategies evaluated
    by the same scorer.  The windowed schedule is returned unless a
    baseline scores cheaper — the solver stops within ``mip_rel_gap``
    of its optimum — so the total never exceeds either baseline.
    """
    if not isinstance(schedule, WindowSchedule):
        schedule = WindowSchedule(schedule)
    schedule.validate(workload)
    migration_model = migration_model or MigrationCostModel()
    initial = _initial_indexes(initial)
    timing = {}

    started = time.perf_counter()
    union = _union_view(workload, schedule)
    prepared = advisor.prepare(union)
    stage_timing = AdvisorTiming()
    advisor._cost_prepared(prepared, stage_timing)
    advisor._prune_prepared(prepared, stage_timing)
    query_plans = prepared._pruned_query_plans
    update_plans = prepared._pruned_update_plans
    window_weights = _window_weight_rows(workload, schedule)
    aggregate = {}
    for row in window_weights:
        for label, weight in row.items():
            aggregate[label] = aggregate.get(label, 0.0) + weight
    union_problem = OptimizationProblem(query_plans, update_plans,
                                        aggregate,
                                        space_limit=space_limit)
    index_by_key = {index.key: index
                    for index in union_problem.indexes}
    for index in initial:
        index_by_key.setdefault(index.key, index)
    # each window priced and re-advised over its active statements
    window_problems = [
        OptimizationProblem(_active(query_plans, weights),
                            _active(update_plans, weights), weights,
                            space_limit=space_limit)
        for weights in window_weights]
    timing["prepare"] = time.perf_counter() - started

    # -- static baseline: one schema, chosen for the aggregate mix
    started = time.perf_counter()
    static_rec = advisor.recommend_prepared(prepared, weights=aggregate,
                                            space_limit=space_limit)
    static_keys = {index.key for index in static_rec.indexes}
    static = _evaluate_schedule(window_problems, schedule,
                                [static_keys] * len(schedule),
                                index_by_key, migration_model, initial)
    timing["static"] = time.perf_counter() - started

    # the programs this call solves are kept for the next call over
    # the same prepared workload, keyed by what fixes their rows; a
    # kept program is re-costed and re-solved from its last solution
    kept = prepared._window_programs
    used = {}

    def program(key, build, reweight):
        used[key] = construct_program(kept.get(key), build, reweight)
        return used[key]

    # -- naive baseline: re-advise each window, price migrations after;
    # windows with the same weights share one solve
    started = time.perf_counter()
    optimizer = advisor.optimizer
    solved = {}
    naive_keys = []
    for problem, weights in zip(window_problems, window_weights):
        row = tuple(weights.items())
        if row not in solved:
            labels = _active_labels(weights)
            # distinct windows over one statement set get a program each
            repeat = sum(key[1] == labels for key in used)
            window_program = program(
                ("naive", labels, repeat),
                lambda: optimizer.prepare(problem),
                lambda kept_program: optimizer.reweight(kept_program,
                                                        weights))
            window_program.problem.space_limit = space_limit
            window_rec = optimizer.optimize(window_program)
            solved[row] = {index.key for index in window_rec.indexes}
        naive_keys.append(solved[row])
    naive = _evaluate_schedule(window_problems, schedule, naive_keys,
                               index_by_key, migration_model, initial)
    timing["naive"] = time.perf_counter() - started

    # -- the windowed program: schemas and migrations co-optimized
    started = time.perf_counter()
    initial_keys = frozenset(index.key for index in initial)
    windowed_program = program(
        ("windowed", tuple(_active_labels(weights)
                           for weights in window_weights),
         initial_keys, space_limit),
        lambda: WindowedProgram(query_plans, update_plans, window_weights,
                                union_problem.indexes, migration_model,
                                initial=initial_keys,
                                space_limit=space_limit),
        lambda kept_program: kept_program.reweight(window_weights,
                                                   migration_model))
    key_sets = windowed_program.solve(mip_rel_gap=mip_rel_gap,
                                      time_limit=time_limit)
    # trim cost-tie selections nothing reads, then re-score: the final
    # totals come from the shared evaluator, not the solver objective
    used_sets = [_price(problem, keys, window.label).used_keys
                 for window, problem, keys
                 in zip(schedule, window_problems, key_sets)]
    trimmed = _trim_schedule(key_sets, used_sets)
    windowed = _evaluate_schedule(window_problems, schedule, trimmed,
                                  index_by_key, migration_model, initial)
    timing["windowed_solve"] = time.perf_counter() - started

    prepared._window_programs = used

    baselines = {"static": _baseline_entry(*static),
                 "naive_per_window": _baseline_entry(*naive)}
    # both baselines are feasible schedules of the windowed program,
    # but the solver stops within mip_rel_gap of its optimum: return
    # the cheapest of the three, the windowed schedule on a tie
    windows = min((windowed, static, naive),
                  key=lambda scored: scored[1] + scored[2])[0]
    timing["cost_calculation"] = stage_timing.cost_calculation
    timing["pruning"] = stage_timing.pruning
    return WindowedRecommendation(schedule, windows, initial,
                                  migration_model, baselines,
                                  timing=timing)


def replan_from_monitor(advisor, workload, recommendation, observed,
                        requests=1000.0, migration_model=None,
                        space_limit=None):
    """Hand a drift monitor's observed mix to the windowed advisor.

    Where :func:`repro.monitor.estimate_regret` only *prices* standing
    still, this decides: it runs a one-window schedule under the
    observed weights with the standing ``recommendation`` as the
    initial schema, so the answer weighs the migration cost of moving
    against ``requests`` worth of serving the observed mix on the old
    schema.  ``observed`` is a ``{label: weight}`` mapping or anything
    with ``observed_weights()`` (a ``WorkloadMonitor``).  Returns a
    :class:`WindowedRecommendation`; its single window either holds the
    old schema (migration not worth it yet) or names the column
    families to create and drop.
    """
    if hasattr(observed, "observed_weights"):
        observed = observed.observed_weights()
    total = sum(weight for weight in observed.values() if weight > 0)
    if total <= 0.0:
        raise OptimizationError(
            "cannot replan from an empty observation")
    live = workload.clone()
    for label in live.statements:
        weight = max(observed.get(label, 0.0), 0.0) / total
        live.set_weight(label, weight, mix="observed")
    schedule = WindowSchedule([("observed", requests)])
    return recommend_windows(advisor, live, schedule,
                             initial=recommendation,
                             migration_model=migration_model,
                             space_limit=space_limit)
