"""Dominance pruning over column-family sets.

The advisor's plan-space pruning applies two rules per statement
(:func:`repro.advisor.prune_plan_space`): keep the cheapest plan per
distinct column-family set (:func:`dedupe_cheapest`), then drop any
plan whose column-family set is a proper superset of a cheaper kept
plan's (:func:`superset_filter`).  The superset rule is one pure-Python
pass: each plan, in ascending (cost, signature) order, looks its proper
subsets up among the key sets of the plans kept so far, and each
dropped plan's ledger entry names the first kept dominator.  Plans
touch a handful of column families, so the lookups stay few however
many plans a space keeps.  Testing kept plans only is enough: by
transitivity, a dropped plan's kept dominator is a proper subset of
every set that contains the dropped plan's.

The module also hosts the vectorized maintenance-plan reachability
closure (:func:`reachable_update_plans`): one boolean support-matrix
row per maintenance plan, closed over a reachable-key vector instead of
a Python worklist.
"""

from __future__ import annotations

import numpy as np

from repro.explain import prune_entry

__all__ = [
    "dedupe_cheapest",
    "plan_keys",
    "reachable_update_plans",
    "superset_filter",
]


def _signature(plan):
    # cost ties are broken by plan signature for reproducibility; plain
    # stand-in plan objects (as used in tests) may not carry one
    return getattr(plan, "signature", "")


def plan_keys(plan):
    """The plan's column-family key set, cached on the plan.

    Pruning consults each plan's set several times (dedupe, superset
    scan, reachability seeding); the steps are immutable, so
    the frozenset is computed once.  Slotted stand-ins that cannot take
    the attribute are handled by recomputing.
    """
    try:
        return plan._cfkeys
    except AttributeError:
        pass
    keyset = frozenset(index.key for index in plan.indexes)
    try:
        plan._cfkeys = keyset
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return keyset


def dedupe_cheapest(plans, removals=None):
    """The duplicate-cfset rule: cheapest plan per column-family set.

    Returns survivors sorted ascending by (cost, signature).
    ``removals`` receives one ``duplicate-cfset`` ledger entry per
    dropped plan, in discovery order.
    """
    best = {}
    for plan in plans:
        keyset = plan_keys(plan)
        current = best.get(keyset)
        if current is None:
            best[keyset] = plan
            continue
        cost = plan.cost
        current_cost = current.cost
        # signatures are only consulted on exact cost ties — building
        # the signature string for every plan measurably dominates the
        # pass on large spaces
        if cost < current_cost or (cost == current_cost
                                   and _signature(plan)
                                   < _signature(current)):
            if removals is not None:
                removals.append(prune_entry(current, "duplicate-cfset",
                                            dominated_by=plan))
            best[keyset] = plan
        elif removals is not None:
            removals.append(prune_entry(plan, "duplicate-cfset",
                                        dominated_by=current))
    return sorted(best.values(),
                  key=lambda plan: (plan.cost, _signature(plan)))


def superset_filter(plans, removals=None):
    """The superset-cfset rule over a deduplicated, sorted plan list.

    ``plans`` must be in ascending (cost, signature) order with
    pairwise-distinct column-family sets (the output of
    :func:`dedupe_cheapest`).  Drops every plan whose set properly
    contains an earlier plan's set; returns the kept plans in order.
    ``removals`` receives one ``superset-cfset`` entry per dropped
    plan, attributed to its first kept dominator.
    """
    kept = []
    #: each kept plan's key set, as a bit mask, -> its position in kept
    position_of = {}
    bit_of = {}
    for plan in plans:
        keys = plan_keys(plan)
        mask = 0
        for key in keys:
            bit = bit_of.get(key)
            if bit is None:
                bit = bit_of[key] = 1 << len(bit_of)
            mask |= bit
        if (1 << len(keys)) - 1 < len(kept):
            # fewer proper subsets than kept sets: look each one up,
            # walking the sub-masks of ``mask`` down to the empty set
            found = []
            subset = mask
            while subset:
                subset = (subset - 1) & mask
                if subset in position_of:
                    found.append(position_of[subset])
            dominator = min(found, default=None)
        else:
            dominator = next((position
                              for existing, position in position_of.items()
                              if existing & mask == existing
                              and existing != mask), None)
        if dominator is not None:
            if removals is not None:
                removals.append(prune_entry(
                    plan, "superset-cfset",
                    dominated_by=kept[dominator]))
            continue
        position_of[mask] = len(kept)
        kept.append(plan)
    return kept


def reachable_update_plans(query_plans, update_plans):
    """Drop maintenance plans for unreachable candidates.

    After plan-space pruning, a candidate column family may appear in
    no retained query plan and in no support plan reachable from one.
    Selecting such a candidate can only add maintenance cost and
    storage (all costs are nonnegative), so some optimal solution —
    also under a space limit, and for the schema-minimising second
    solve — never selects it, and its maintenance plans can be dropped
    from the BIP outright.  The reachable set is closed transitively: a
    reachable candidate's support plans may themselves look up further
    candidates.

    The closure runs over bit vectors: one boolean support-matrix row
    per maintenance plan, OR-folded into the reachable-key vector until
    a pass activates no new plan.
    """
    flat = [update_plan for plans in update_plans.values()
            for update_plan in plans]
    if not flat:
        return {update: list(plans)
                for update, plans in update_plans.items()}
    columns = {}

    def column(key):
        position = columns.get(key)
        if position is None:
            position = columns[key] = len(columns)
        return position

    maintained = np.array([column(update_plan.index.key)
                           for update_plan in flat])
    support_columns = []
    for update_plan in flat:
        cols = set()
        for plan in update_plan.support_plans:
            for key in plan_keys(plan):
                cols.add(column(key))
        support_columns.append(sorted(cols))
    seeds = {column(key)
             for plans in query_plans.values()
             for plan in plans
             for key in plan_keys(plan)}
    support_matrix = np.zeros((len(flat), len(columns)), dtype=bool)
    for row, cols in enumerate(support_columns):
        support_matrix[row, cols] = True
    reachable = np.zeros(len(columns), dtype=bool)
    reachable[sorted(seeds)] = True
    visited = np.zeros(len(flat), dtype=bool)
    while True:
        activated = reachable[maintained] & ~visited
        if not activated.any():
            break
        reachable |= support_matrix[activated].any(axis=0)
        visited |= activated
    survivors = reachable[maintained]
    result = {}
    position = 0
    for update, plans in update_plans.items():
        kept = []
        for update_plan in plans:
            if survivors[position]:
                kept.append(update_plan)
            position += 1
        result[update] = kept
    return result
