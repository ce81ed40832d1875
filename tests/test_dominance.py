"""``superset_filter`` implements the superset-cfset rule exactly.

The rule's definition is the oracle: over a deduplicated plan list in
ascending (cost, signature) order, a plan is kept iff no *earlier*
plan's column-family set is a proper subset of its own, and each
dropped plan's ledger entry names the first kept such plan.  The scan
itself only tests kept plans; the oracle tests all earlier ones.  It
is checked on every deduplicated plan space of three workloads and on
two synthetic 500-plan extremes.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro import Advisor, Workload
from repro.demo import hotel_model, hotel_workload
from repro.dominance import dedupe_cheapest, plan_keys, superset_filter
from repro.explain import prune_entry
from repro.randgen import random_model
from repro.randgen.statements import _random_query, _random_update
from repro.rubis import rubis_model, rubis_workload
from repro.workload.statements import Query, Update

# the demo and random workloads hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _hotel():
    model = hotel_model()
    return model, hotel_workload(model, include_updates=True)


def _rubis_bidding():
    model = rubis_model(users=2_000)
    return model, rubis_workload(model, mix="bidding")


def _template():
    """A few random statement forms, each instantiated several times
    under distinct labels."""
    model = random_model(entities=6, seed=7)
    rng = random.Random(17)
    queries = [_random_query(model, rng, number, 2) for number in range(8)]
    updates = [form for form in (_random_update(model, rng, number, 2)
                                 for number in range(2))
               if form is not None]
    workload = Workload(model)
    for number in range(24):
        form = queries[number % len(queries)]
        workload.add_statement(
            Query(form.key_path, form.select, form.conditions,
                  label=f"q{number}"),
            weight=round(rng.uniform(0.1, 10.0), 2))
    for number, form in enumerate(updates):
        workload.add_statement(
            Update(form.key_path, form.settings, form.conditions,
                   label=f"u{number}"),
            weight=round(rng.uniform(0.1, 5.0), 2))
    return model, workload


def _plan_spaces(model, workload):
    """Every costed query and support-query plan space, deduplicated
    as the superset rule receives it."""
    advisor = Advisor(model)
    prepared = advisor.prepare(workload)
    spaces = list(prepared.query_plans.values())
    for update_plans in prepared.update_plans.values():
        for update_plan in update_plans:
            spaces.extend(update_plan.support_plans_by_query.values())
    deduplicated = []
    for space in spaces:
        for plan in space:
            advisor.cost_model.cost_plan(plan)
        deduplicated.append(dedupe_cheapest(space))
    return deduplicated


def _oracle(plans):
    """The rule by definition: kept plans and ledger entries."""
    keys = [plan_keys(plan) for plan in plans]
    dominated = [any(keys[earlier] < keys[position]
                     for earlier in range(position))
                 for position in range(len(plans))]
    kept = [plan for plan, dead in zip(plans, dominated) if not dead]
    removals = []
    for position, plan in enumerate(plans):
        if dominated[position]:
            first = next(earlier for earlier in range(position)
                         if not dominated[earlier]
                         and keys[earlier] < keys[position])
            removals.append(prune_entry(plan, "superset-cfset",
                                        dominated_by=plans[first]))
    return kept, removals


def _assert_matches_oracle(plans):
    removals = []
    kept = superset_filter(plans, removals)
    expected_kept, expected_removals = _oracle(plans)
    assert [id(plan) for plan in kept] \
        == [id(plan) for plan in expected_kept]
    assert removals == expected_removals
    return removals


@pytest.mark.parametrize("workload", [_hotel, _rubis_bidding, _template],
                         ids=["hotel", "rubis-bidding", "randgen"])
def test_superset_filter_matches_rule_definition(workload):
    dominated = 0
    for plans in _plan_spaces(*workload()):
        dominated += len(_assert_matches_oracle(plans))
    # the spaces are non-trivial: the rule actually drops plans
    assert dominated > 0


def _synthetic(keysets):
    """Stand-in plans over ``keysets``, listed in ascending cost."""
    return [SimpleNamespace(
                indexes=tuple(SimpleNamespace(key=f"cf{key}")
                              for key in sorted(keyset)),
                cost=float(position), signature=f"p{position}")
            for position, keyset in enumerate(keysets)]


def test_incomparable_sets_are_all_kept():
    # distinct sets of one size are pairwise incomparable
    keysets = list(itertools.combinations(range(20), 3))[:500]
    plans = _synthetic(keysets)
    assert superset_filter(plans) == plans
    assert _assert_matches_oracle(plans) == []


def test_subset_chain_keeps_only_the_smallest():
    plans = _synthetic([range(size) for size in range(1, 501)])
    removals = _assert_matches_oracle(plans)
    assert superset_filter(plans) == plans[:1]
    assert len(removals) == 499
    assert {entry["dominated_by"] for entry in removals} == {"p0"}
