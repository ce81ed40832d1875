"""The NoSE schema advisor facade (Fig 2 / Fig 4 of the paper).

Wires the four stages together — candidate enumeration, query planning,
schema optimization, plan recommendation — and records a wall-clock
breakdown per stage so the Fig 13 runtime-decomposition experiment can
be reproduced (cost calculation / BIP construction / BIP solving /
other).

The pipeline is staged and cached: :meth:`Advisor.prepare` runs
enumeration and plan-space generation and caches the result keyed by
the *structure* of the workload's active statements, and
:meth:`Advisor.recommend_prepared` runs costing, pruning and the BIP.
Weight-only changes — the repeated-tuning scenario of time-dependent
workloads — therefore skip enumeration and planning entirely and
re-solve a re-costed program.  :meth:`Advisor.recommend` remains the
one-shot entry point as a thin wrapper over the two stages.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

from repro import dominance, telemetry
from repro.cost import CassandraCostModel
from repro.enumerator import CandidateEnumerator
from repro.enumerator.support import modifies, support_queries
from repro.exceptions import OptimizationError, TruncationWarning
from repro.explain import ExplainData, prune_entry, prune_record
from repro.optimizer import BIPOptimizer, OptimizationProblem
from repro.optimizer.results import SchemaRecommendation
from repro.pipeline import ArtifactStore
from repro.planner import QueryPlanner, UpdatePlanner
from repro.planner.plans import UpdatePlan
from repro.workload.digest import statement_signature

__all__ = [
    "Advisor",
    "AdvisorTiming",
    "PreparedWorkload",
    "SchemaRecommendation",
    "prune_dominated_plans",
    "prune_plan_space",
]

logger = logging.getLogger("repro.advisor")

#: prepared workloads an advisor keeps (FIFO-evicted), keyed by structure
PREPARED_CACHE_SIZE = 8

#: per-statement artifacts an advisor's store keeps (LRU-evicted)
ARTIFACT_CACHE_SIZE = 4096


def prune_dominated_plans(plans, keep=None, removals=None):
    """Drop plans that cannot appear in any optimal solution.

    Two plans using the same set of column families impose identical
    constraints on the BIP, so only the cheaper one can ever be chosen;
    we keep the cheapest plan per distinct column-family set, and
    optionally only the ``keep`` cheapest overall (the plan space stays
    feasible since every retained plan is self-contained).  Cost ties
    are broken by plan signature so the result is deterministic across
    runs and hash seeds.  Requires costed plans.

    ``removals`` is an optional list receiving one pruning-ledger entry
    per dropped plan, naming the rule that killed it and the plan that
    dominated it.
    """
    pruned = dominance.dedupe_cheapest(plans, removals=removals)
    if keep is not None:
        if removals is not None:
            removals.extend(prune_entry(plan, "cap")
                            for plan in pruned[keep:])
        pruned = pruned[:keep]
    return pruned


def prune_plan_space(plans, keep=None, removals=None):
    """Dominance-prune one statement's plan space for the optimizer.

    Applies the per-column-family-set rule of
    :func:`prune_dominated_plans`, then additionally drops any plan
    whose column-family set is a proper superset of a cheaper (or
    equal-cost) kept plan's: wherever the superset plan is feasible the
    subset plan is too, using no more storage and costing no more, so
    the superset plan appears in no optimal solution — the argument
    holds under a space limit and for the schema-minimising second
    solve as well.  This typically halves the BIP's plan columns.
    ``keep`` caps the result (cheapest first) after both rules.
    ``removals`` collects pruning-ledger entries as in
    :func:`prune_dominated_plans`.  The superset rule is the
    pure-Python scan of :func:`repro.dominance.superset_filter`.
    """
    plans = list(plans)
    pruned = dominance.dedupe_cheapest(plans, removals=removals)
    kept = dominance.superset_filter(pruned, removals=removals)
    capped = kept if keep is None else kept[:keep]
    if removals is not None and keep is not None:
        removals.extend(prune_entry(plan, "cap") for plan in kept[keep:])
    active = telemetry.current()
    if active.enabled:
        active.count("prune.plans_in", len(plans))
        active.count("prune.removed_duplicate_cfset",
                      len(plans) - len(pruned))
        active.count("prune.removed_superset", len(pruned) - len(kept))
        active.count("prune.removed_cap", len(kept) - len(capped))
        active.count("prune.plans_out", len(capped))
    return capped


@dataclass
class AdvisorTiming:
    """Wall-clock seconds spent in each advisor stage.

    ``cost_calculation``, ``bip_construction`` and ``bip_solving`` match
    the three named components of the paper's Fig 13; enumeration,
    planning, dominance pruning and result extraction form the figure's
    "other" share, each attributed to its own bucket so no stage time
    lands unaccounted between buckets.  ``bip_construction`` covers
    problem assembly plus program construction (or re-costing on a
    cache hit); ``recommendation`` is result extraction.  Stages that a
    prepared-workload cache hit skips report zero.
    """

    enumeration: float = 0.0
    planning: float = 0.0
    cost_calculation: float = 0.0
    pruning: float = 0.0
    bip_construction: float = 0.0
    bip_solving: float = 0.0
    recommendation: float = 0.0
    total: float = 0.0
    candidates: int = 0
    query_plan_count: int = 0
    support_plan_count: int = 0
    #: cache hits serving this call: 1 when the prepared workload came
    #: from the advisor's structural cache, plus lookup-cost memo hits
    #: during this call's costing pass
    cache_hits: int = 0
    #: statements (incl. support queries) whose plan space was capped
    truncated_queries: int = 0
    #: statements whose plan spaces were served from the per-statement
    #: artifact store during this call's prepare (delta reuse)
    reused_statements: int = 0
    #: statements actually re-enumerated/re-planned during prepare
    replanned_statements: int = 0

    @property
    def other(self):
        """Everything outside the three Fig 13 named components."""
        named = (self.cost_calculation + self.bip_construction
                 + self.bip_solving)
        return max(self.total - named, 0.0)

    def stage_breakdown(self):
        """Disjoint wall-clock buckets that partition ``total``.

        Every named stage appears exactly once, and the residual
        ``other`` bucket covers only the bookkeeping *between* stages —
        so the values sum to ``total`` (to float precision) and the row
        is safe to stack in a chart or to re-aggregate.  Contrast
        :meth:`as_figure13_row`, whose coarser ``other`` bucket *rolls
        up* several named stages for the paper's figure.
        """
        stages = {
            "enumeration": self.enumeration,
            "planning": self.planning,
            "cost_calculation": self.cost_calculation,
            "pruning": self.pruning,
            "bip_construction": self.bip_construction,
            "bip_solving": self.bip_solving,
            "recommendation": self.recommendation,
        }
        stages["other"] = max(self.total - sum(stages.values()), 0.0)
        return stages

    def as_figure13_row(self):
        """The four series of Fig 13 for one workload size.

        The figure names cost calculation, BIP construction and BIP
        solving; everything else — enumeration, planning, pruning,
        result extraction and inter-stage bookkeeping — is its
        ``other`` share.  The four buckets partition ``total``.
        """
        stages = self.stage_breakdown()
        return {
            "cost_calculation": stages["cost_calculation"],
            "bip_construction": stages["bip_construction"],
            "bip_solving": stages["bip_solving"],
            "other": (stages["enumeration"] + stages["planning"]
                      + stages["pruning"] + stages["recommendation"]
                      + stages["other"]),
            "total": self.total,
        }


class PreparedWorkload:
    """Reusable product of the enumeration and planning stages.

    Created by :meth:`Advisor.prepare` for one workload *structure*
    (weights excluded).  Besides the candidate pool and raw plan
    spaces, it accumulates the weight-independent downstream artifacts
    — costed and pruned plan spaces, and one constructed program — as
    :meth:`Advisor.recommend_prepared` produces them, so repeated solves
    over the same structure, under any weights and space limit, redo
    only the cost vector and the solve itself.  The windowed advisor
    (:func:`~repro.windows.recommend_windows`) keeps its programs here
    too.
    """

    def __init__(self, key, workload, candidates, query_plans,
                 update_plans, enumeration_seconds=0.0,
                 planning_seconds=0.0):
        self.key = key
        #: the workload last prepared/looked-up with this structure;
        #: supplies default weights to recommend_prepared
        self.workload = workload
        self.candidates = candidates
        #: {query: PlanSpace} — raw, unpruned plan spaces
        self.query_plans = dict(query_plans)
        #: {update: [UpdatePlan]} — raw maintenance plans
        self.update_plans = dict(update_plans)
        self.enumeration_seconds = enumeration_seconds
        self.planning_seconds = planning_seconds
        #: delta accounting for the prepare that produced (or served)
        #: this object; mirrored into AdvisorTiming per recommend
        self.reused_statements = 0
        self.replanned_statements = 0
        #: statements (queries and support queries) whose enumeration
        #: hit the planner's plan cap
        truncated = [query for query, space in self.query_plans.items()
                     if getattr(space, "truncated", False)]
        for plans in self.update_plans.values():
            for update_plan in plans:
                truncated.extend(update_plan.truncated_support)
        self.truncated = tuple(truncated)
        #: times this prepared workload was served from the cache
        self.reuse_count = 0
        # lazily filled by Advisor.recommend_prepared
        self._fresh = True
        self._costed_by = None
        self._cost_seconds = 0.0
        self._cost_cache_hits = 0
        self._pruned_query_plans = None
        self._pruned_update_plans = None
        self._pruning_seconds = 0.0
        #: {statement label: pruning record} — filled during pruning
        self._prune_ledger = {}
        self._program = None
        #: the programs the last recommend_windows call over this
        #: workload solved, keyed by what fixes their rows
        self._window_programs = {}

    def consume_fresh(self):
        """True on the first call after actual enumeration/planning —
        the caller then attributes those stage timings to itself."""
        fresh, self._fresh = self._fresh, False
        return fresh

    @property
    def plan_count(self):
        return sum(len(space) for space in self.query_plans.values())

    def __repr__(self):
        return (f"PreparedWorkload(candidates={len(self.candidates)}, "
                f"queries={len(self.query_plans)}, "
                f"updates={len(self.update_plans)}, "
                f"reused={self.reuse_count})")


def _relabeled(record, label):
    """A pruning record for ``label``, of the same form as the statement
    the record was made for."""
    if record["statement"] == label:
        return record
    return dict(record, statement=label)


def _support_records(records, update_plan, update):
    """The pruning records of ``update_plan``'s support queries, keyed
    by the labels of ``update``'s own support queries."""
    if update_plan.update.label == update.label:
        return records
    labels = {planned.label: own.label for planned, own in zip(
        update_plan.support_plans_by_query,
        support_queries(update, update_plan.index))}
    return {labels[label]: _relabeled(record, labels[label])
            for label, record in records.items()}


def construct_program(program, build, reweight):
    """``program`` re-costed by ``reweight(program)``, or ``build()``'s
    new program when it is None.

    Timed in a ``bip_construction`` span whose ``mode`` attribute says
    which, and counted by ``bip.programs_built`` or
    ``bip.programs_reweighted``.
    """
    active = telemetry.current()
    with active.span("bip_construction") as span:
        if program is None:
            program = build()
            active.count("bip.programs_built")
            mode = "build"
        else:
            reweight(program)
            active.count("bip.programs_reweighted")
            mode = "reweight"
        if span is not None:
            span.set(mode=mode)
    return program


def _nothing_to_optimize(workload):
    """Why a workload without positively weighted statements cannot be
    optimized."""
    if not workload.statements:
        return "the workload has no statements: there is nothing to optimize"
    return (f"none of the workload's {len(workload.statements)} "
            f"statements has a positive weight: there is nothing to "
            f"optimize")


class Advisor:
    """End-to-end schema advisor.

    >>> advisor = Advisor(model)
    >>> recommendation = advisor.recommend(workload)
    >>> print(recommendation.describe())

    For repeated solves over the same statements with changing weights,
    either keep calling :meth:`recommend` (the structural cache makes
    repeats cheap) or drive the stages explicitly::

    >>> prepared = advisor.prepare(workload)
    >>> for weights in weight_epochs:
    ...     advisor.recommend_prepared(prepared, weights=weights)

    ``cost_model`` defaults to the Cassandra-style model; ``enumerator``
    may be swapped for the ablation studies, and ``optimizer`` is a
    :class:`~repro.optimizer.BIPOptimizer` (pass one to change its gap
    or time limit).  Every stage runs serially, one statement form at a
    time in workload order.
    """

    def __init__(self, model, cost_model=None, enumerator=None,
                 optimizer=None, max_plans=500, prune_to=32,
                 support_prune_to=8):
        self.model = model
        self.cost_model = cost_model or CassandraCostModel()
        self.enumerator = enumerator or CandidateEnumerator(model)
        self.optimizer = optimizer or BIPOptimizer()
        self.max_plans = max_plans
        #: plans kept per query after dominance pruning (None = all)
        self.prune_to = prune_to
        #: plans kept per support query (their spaces are much denser)
        self.support_prune_to = support_prune_to
        #: prepared workloads, keyed by structure
        self._prepared = {}
        #: per-statement artifacts (enumeration, plan spaces,
        #: maintenance plans), keyed by structural signature + stage
        #: config; every prepare — cold or incremental — goes through
        #: it, so editing one statement replans only that statement
        self.artifacts = ArtifactStore(ARTIFACT_CACHE_SIZE)

    # -- main entry point ----------------------------------------------------

    def recommend(self, workload, space_limit=None):
        """Recommend a schema and one plan per statement for a workload.

        A thin wrapper over :meth:`prepare` + :meth:`recommend_prepared`:
        repeated calls with structurally identical workloads (weight
        changes included) reuse the cached plan spaces and program and
        only re-cost and re-solve.
        """
        with telemetry.current().span("recommend"):
            prepared = self.prepare(workload)
            return self.recommend_prepared(prepared, weights=workload,
                                           space_limit=space_limit)

    # -- stage 1: enumeration + planning -------------------------------------

    def _workload_key(self, workload):
        # the label carries the weights; the signature is everything
        # enumeration and planning look at
        statements = tuple((statement.label, statement_signature(statement))
                           for statement, _ in workload.weighted_statements)
        return (statements, self.max_plans)

    def prepare(self, workload):
        """Enumerate candidates and generate per-statement plan spaces.

        Preparation is incremental at two levels.  Whole prepared
        workloads are cached on the advisor keyed by the structure of
        the workload's active statements — weights are excluded, so any
        workload differing only in (positive) weights is served with
        enumeration and planning skipped entirely.  Below that, every
        prepare runs through the advisor's per-statement artifact
        store: enumeration results, plan spaces and maintenance plans
        are keyed by structural statement signature plus stage
        configuration, so after an edit only the changed statements are
        re-enumerated and re-planned while unchanged ones are served
        from the store (the cross-statement Combine step always
        re-runs, and a new prepared workload is costed, pruned and
        solved whole).  Cold and incremental prepares share this one
        code path — a fresh advisor simply starts with an empty store —
        so incremental results are identical to cold ones by
        construction.
        """
        active = telemetry.current()
        key = self._workload_key(workload)
        prepared = self._prepared.get(key)
        if prepared is not None:
            prepared.reuse_count += 1
            prepared._fresh = False
            prepared.workload = workload
            total = (len(prepared.query_plans)
                     + len(prepared.update_plans))
            prepared.reused_statements = total
            prepared.replanned_statements = 0
            active.count("advisor.prepared_cache_hits")
            active.count("advisor.delta_reused_statements", total)
            return prepared
        active.count("advisor.prepared_cache_misses")

        with active.span("enumeration"):
            started = time.perf_counter()
            # the enumerator serves per-statement candidate sets (with
            # replayed provenance) from the artifact store
            candidates = self.enumerator.candidates(
                workload, store=self.artifacts)
            enumeration_seconds = time.perf_counter() - started

        with active.span("planning"):
            stage = time.perf_counter()
            planner = QueryPlanner(self.model, candidates,
                                   max_plans=self.max_plans)
            update_planner = UpdatePlanner(self.model, planner)
            query_plans, reused_queries = self._plan_queries(
                workload.queries, planner)
            update_plans, reused_updates = self._plan_updates(
                workload.updates, planner, update_planner)
            planning_seconds = time.perf_counter() - stage

        prepared = PreparedWorkload(key, workload, candidates,
                                    query_plans, update_plans,
                                    enumeration_seconds,
                                    planning_seconds)
        reused = reused_queries + reused_updates
        replanned = len(query_plans) + len(update_plans) - reused
        prepared.reused_statements = reused
        prepared.replanned_statements = replanned
        active.count("advisor.delta_reused_statements", reused)
        active.count("advisor.delta_replanned_statements", replanned)
        if active.enabled:
            active.gauge("enumeration.pool_size", len(candidates))
            active.gauge("planner.query_plan_count", prepared.plan_count)
            active.count("planner.truncated_statements",
                         len(prepared.truncated))
        self._warn_truncation(prepared)
        if len(self._prepared) >= PREPARED_CACHE_SIZE:
            self._prepared.pop(next(iter(self._prepared)))
        self._prepared[key] = prepared
        return prepared

    def _plan_queries(self, queries, planner):
        """Per-query plan spaces: ``({query: space}, reused count)``.

        A query's plan space is a pure function of its structure, the
        planner's plan cap and the pool subset its plans can touch —
        the artifact key captures exactly that (see
        :meth:`~repro.planner.QueryPlanner.relevant_pool_key`), so a
        cached space is served even when unrelated parts of the pool
        changed.  Labels and parameter names are not part of the key:
        the queries of one form share one space, planned for the first
        of them (costing and pruning then also run once per form, and
        the optimizer rebinds the chosen plan to each query; see
        :class:`~repro.optimizer.OptimizationProblem`).  Every form is
        looked up first, then the misses are planned and stored in
        workload order.
        """
        store = self.artifacts
        keys = {}      # signature -> artifact key
        resolved = {}  # artifact key -> space (None until planned)
        missing = []   # (key, the form's first query) to plan
        forms = []     # (query, key) in workload order
        reused = 0
        for query in queries:
            signature = statement_signature(query)
            key = keys.get(signature)
            if key is None:
                # a form is looked up and planned once, for its first
                # query; the others share its plan space
                key = keys[signature] = (
                    "plan", signature, planner.max_plans,
                    planner.relevant_pool_key(query))
                resolved[key] = store.get(key)
                if resolved[key] is None:
                    missing.append((key, query))
            if resolved[key] is not None:
                reused += 1
            forms.append((query, key))
        for key, query in missing:
            resolved[key] = planner.plans_for(query)
            store.put(key, resolved[key])
        spaces = {query: resolved[key] for query, key in forms}
        return spaces, reused

    def _plan_updates(self, updates, planner, update_planner):
        """Maintenance plans: ``({update: [UpdatePlan]}, reused count)``.

        One artifact per (update form, modified column family) pair,
        keyed by the update's signature, the column family, the
        support-plan cap and a fingerprint of the pool subset each
        support query can touch; as for queries, the updates of one form
        share their artifacts.  An update counts as reused only when
        every one of its pairs was served from the store.  As for
        queries, every pair is looked up first, then the misses are
        planned and stored in workload order.
        """
        store = self.artifacts
        pool = planner.pool
        forms = {}     # signature -> [UpdatePlan | position in missing]
        slots = []     # (update, its form's pairs)
        stale = set()  # updates with at least one store miss
        missing = []   # (update, index, supports, key) work items
        for update in updates:
            signature = statement_signature(update)
            pairs = forms.get(signature)
            if pairs is None:
                # as for queries, a form is planned once, for its first
                # update, and its maintenance plans are shared
                pairs = forms[signature] = []
                for index in pool:
                    if not modifies(update, index):
                        continue
                    supports = update_planner.support_queries_for(
                        update, index)
                    fingerprint = tuple(
                        planner.relevant_pool_key(support)
                        for support in supports)
                    key = ("update-plan", signature, index.key,
                           update_planner.max_support_plans, fingerprint)
                    update_plan = store.get(key)
                    if update_plan is None:
                        pairs.append(len(missing))
                        missing.append((update, index, supports, key))
                    else:
                        pairs.append(update_plan)
            if not all(isinstance(pair, UpdatePlan) for pair in pairs):
                stale.add(update)
            slots.append((update, pairs))
        fresh = []
        for update, index, supports, key in missing:
            update_plan = update_planner.plan_one(update, index,
                                                  supports=supports)
            store.put(key, update_plan)
            fresh.append(update_plan)
        update_plans = {}
        reused = 0
        for update, pairs in slots:
            update_plans[update] = [
                pair if isinstance(pair, UpdatePlan) else fresh[pair]
                for pair in pairs]
            if update not in stale:
                reused += 1
        return update_plans, reused

    def _warn_truncation(self, prepared):
        """Warn when a *workload query's* plan space was capped.

        Support-query spaces are deliberately dense-capped
        (``max_support_plans``), so their truncation is routine; it is
        surfaced through ``timing.truncated_queries`` and the per-plan
        ``truncated_support`` flags rather than a warning.
        """
        capped = [statement for statement in prepared.truncated
                  if not getattr(statement, "is_support", False)]
        if not capped:
            return
        labels = sorted({statement.label or repr(statement)
                         for statement in capped})
        shown = ", ".join(labels[:5]) + (", ..." if len(labels) > 5
                                         else "")
        message = (f"plan enumeration hit the planner's plan cap for "
                   f"{len(labels)} statement(s) ({shown}); the plan "
                   f"space may be incomplete — raise max_plans for an "
                   f"exhaustive search")
        # emitted both ways: a warning for interactive use, a log
        # record so library users get signal without filtering warnings
        logger.warning("%s", message)
        warnings.warn(TruncationWarning(message), stacklevel=3)

    def clear_cache(self):
        """Drop all cached prepared workloads."""
        self._prepared.clear()

    # -- stage 2: costing + pruning + optimization ----------------------------

    def _resolve_weights(self, prepared, weights):
        if weights is None:
            weights = prepared.workload
        if hasattr(weights, "weighted_statements"):
            weights = {statement.label: weight
                       for statement, weight in weights.weighted_statements}
        return dict(weights)

    def recommend_prepared(self, prepared, weights=None,
                           space_limit=None):
        """Cost, prune and solve a prepared workload.

        ``weights`` maps statement labels to weights; a
        :class:`~repro.workload.Workload` may be passed instead (its
        active mix is read), and the default is the workload the
        structure was last prepared from.  Costing, dominance pruning
        and program construction all cache on ``prepared``: after the
        first solve, a change of weights or ``space_limit`` rebuilds only
        the program's cost vector and re-solves.
        """
        timing = AdvisorTiming()
        started = time.perf_counter()
        weights = self._resolve_weights(prepared, weights)
        if not any(weight > 0 for weight in weights.values()):
            raise OptimizationError(_nothing_to_optimize(prepared.workload))

        if prepared.consume_fresh():
            timing.enumeration = prepared.enumeration_seconds
            timing.planning = prepared.planning_seconds
        else:
            timing.cache_hits += 1
        timing.candidates = len(prepared.candidates)
        timing.truncated_queries = len(prepared.truncated)
        timing.query_plan_count = prepared.plan_count
        timing.support_plan_count = sum(
            len(update_plan.support_plans)
            for plans in prepared.update_plans.values()
            for update_plan in plans)
        timing.reused_statements = prepared.reused_statements
        timing.replanned_statements = prepared.replanned_statements

        self._cost_prepared(prepared, timing)
        self._prune_prepared(prepared, timing)
        recommendation = self._optimize_prepared(prepared, weights,
                                                 space_limit, timing)
        recommendation.timing = timing
        # decision provenance: candidate derivations from enumeration,
        # the dominance-pruning ledger, and the cost model for per-step
        # explain terms (the BIP attached its own ledger in extraction)
        recommendation.explain_data = ExplainData(
            provenance=getattr(prepared.candidates, "provenance", None),
            pruning=prepared._prune_ledger,
            cost_model=self.cost_model)
        timing.total = (time.perf_counter() - started
                        + timing.enumeration + timing.planning)
        return recommendation

    def _cost_prepared(self, prepared, timing):
        """Cost all plans once per cost model (plan costs are
        weight-independent).  Costing *mutates* the shared plan objects
        in place (step costs, the per-plan cost cache)."""
        if prepared._costed_by == id(self.cost_model):
            return
        active = telemetry.current()
        with active.span("cost_calculation"):
            stage = time.perf_counter()
            hits_before, misses_before, _ = self.cost_model.cache_info()
            # statements of one form share their plans: each distinct
            # space and maintenance plan is costed once
            query_spaces = {id(space): space
                            for space in prepared.query_plans.values()}
            update_plans = {id(update_plan): update_plan
                            for plans in prepared.update_plans.values()
                            for update_plan in plans}
            for space in query_spaces.values():
                for plan in space:
                    self.cost_model.cost_plan(plan)
            for update_plan in update_plans.values():
                self.cost_model.cost_update_plan(update_plan)
            prepared._costed_by = id(self.cost_model)
            # costs changed: downstream artifacts are stale
            prepared._pruned_query_plans = None
            prepared._pruned_update_plans = None
            prepared._program = None
            prepared._window_programs = {}
            prepared._cost_seconds = time.perf_counter() - stage
            hits, misses, _ = self.cost_model.cache_info()
            prepared._cost_cache_hits = hits - hits_before
        if active.enabled:
            active.count("cost.cache_hits", hits - hits_before)
            active.count("cost.cache_misses", misses - misses_before)
            self.cost_model.record_metrics(active)
        timing.cost_calculation = prepared._cost_seconds
        timing.cache_hits += prepared._cost_cache_hits

    def _prune_prepared(self, prepared, timing):
        if prepared._pruned_query_plans is not None:
            return
        active = telemetry.current()
        with active.span("pruning"):
            stage = time.perf_counter()
            ledger = prepared._prune_ledger
            # statements of one form share one plan space: prune it
            # once, and fill the ledger in workload order
            pruned = {}
            pruned_query_plans = {}
            for query, plans in prepared.query_plans.items():
                if id(plans) not in pruned:
                    removals = []
                    kept = prune_plan_space(plans, self.prune_to,
                                            removals=removals)
                    pruned[id(plans)] = kept, prune_record(
                        query, len(plans), len(kept), removals)
                kept, record = pruned[id(plans)]
                pruned_query_plans[query] = kept
                label = query.label or str(query)
                ledger[label] = _relabeled(record, label)
            prepared._pruned_query_plans = pruned_query_plans
            pruned = {}
            pruned_updates = {}
            for update, plans in prepared.update_plans.items():
                pruned_plans = []
                for update_plan in plans:
                    if id(update_plan) not in pruned:
                        records = {}
                        pruned[id(update_plan)] = (
                            self._prune_update_plan(update_plan, records),
                            records)
                    pruned_plan, records = pruned[id(update_plan)]
                    pruned_plans.append(pruned_plan)
                    ledger.update(_support_records(records, update_plan,
                                                   update))
                pruned_updates[update] = pruned_plans
            prepared._pruned_update_plans = \
                dominance.reachable_update_plans(
                    prepared._pruned_query_plans, pruned_updates)
            prepared._pruning_seconds = time.perf_counter() - stage
        if active.enabled:
            before = sum(len(plans)
                         for plans in pruned_updates.values())
            after = sum(len(plans) for plans
                        in prepared._pruned_update_plans.values())
            active.count("prune.update_plans_removed_unreachable",
                         before - after)
        timing.pruning = prepared._pruning_seconds

    def _optimize_prepared(self, prepared, weights, space_limit, timing):
        active = telemetry.current()
        stage = time.perf_counter()
        program = prepared._program = construct_program(
            prepared._program,
            lambda: self.optimizer.prepare(OptimizationProblem(
                prepared._pruned_query_plans,
                prepared._pruned_update_plans, weights)),
            lambda program: self.optimizer.reweight(program, weights))
        # the space limit is a solve input, like the weights
        program.problem.space_limit = space_limit
        # statements of one form are one class: one block, one plan
        active.gauge("advisor.statement_classes",
                     len(program.problem.classes))
        timing.bip_construction = time.perf_counter() - stage

        stage = time.perf_counter()
        recommendation = self.optimizer.optimize(program)
        solving = time.perf_counter() - stage
        # the program separates solver time from result extraction
        timing.bip_solving = max(solving - program.extract_seconds, 0.0)
        timing.recommendation = program.extract_seconds
        return recommendation

    def _prune_update_plan(self, update_plan, ledger=None):
        """Dominance-prune each support query's plan space."""
        pruned = []
        for query, plans in update_plan.support_plans_by_query.items():
            removals = [] if ledger is not None else None
            kept = prune_plan_space(plans, self.support_prune_to,
                                    removals=removals)
            pruned.extend(kept)
            if ledger is not None:
                label = query.label or str(query)
                ledger[label] = prune_record(query, len(plans),
                                             len(kept), removals)
        return UpdatePlan(update_plan.update, update_plan.index, pruned,
                          update_plan.steps,
                          truncated_support=update_plan.truncated_support)

    # -- fixed-schema evaluation -------------------------------------------------

    def plan_for_schema(self, workload, indexes, require_updates=True):
        """Plan the workload against a fixed, user-supplied schema.

        Used to evaluate hand-designed schemas (the paper's "normalized"
        and "expert" baselines): no enumeration or optimization happens,
        :meth:`OptimizationProblem.price` chooses the cheapest plan per
        statement over exactly ``indexes``.  Raises :class:`~repro.exceptions.PlanningError` when the
        schema cannot answer the workload.
        """
        planner = QueryPlanner(self.model, indexes,
                               max_plans=self.max_plans)
        update_planner = UpdatePlanner(self.model, planner)
        query_plans = {}
        for query in workload.queries:
            plans = query_plans[query] = planner.plans_for(query)
            for plan in plans:
                self.cost_model.cost_plan(plan)
        update_plans = {}
        for update in workload.updates:
            plans = update_plans[update] = update_planner.plans_for(
                update, require=require_updates)
            for update_plan in plans:
                self.cost_model.cost_update_plan(update_plan)
        weights = {statement.label: weight
                   for statement, weight in workload.weighted_statements}
        problem = OptimizationProblem(query_plans, update_plans, weights)
        priced = problem.price(index.key for index in indexes)
        recommendation = SchemaRecommendation(
            indexes, priced.query_plans, priced.update_plans, weights,
            priced.cost)
        # a fixed schema has no enumeration provenance or solver ledger,
        # but explain() can still annotate plan steps with cost terms
        recommendation.explain_data = ExplainData(
            cost_model=self.cost_model)
        return recommendation
