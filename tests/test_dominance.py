"""The two superset-rule engines of :mod:`repro.dominance` agree.

``superset_filter`` picks the vector engine for large plan spaces and
the scalar scan, the reference, for small ones.  Both are run here on
every deduplicated plan space of three workloads, and must keep the
same plans in the same order and write the same ledger entries.
"""

import random

import pytest

from repro import Advisor, Workload
from repro.demo import hotel_model, hotel_workload
from repro.dominance import (
    _superset_scalar,
    _superset_vector,
    dedupe_cheapest,
)
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


@pytest.mark.parametrize("workload", [_hotel, _rubis_bidding, _template],
                         ids=["hotel", "rubis-bidding", "randgen"])
def test_scalar_and_vector_engines_agree(workload):
    spaces = _plan_spaces(*workload())
    dominated = 0
    for plans in spaces:
        scalar_removals, vector_removals = [], []
        scalar = _superset_scalar(plans, scalar_removals)
        vector = _superset_vector(plans, vector_removals)
        assert [id(plan) for plan in vector] \
            == [id(plan) for plan in scalar]
        assert vector_removals == scalar_removals
        dominated += len(scalar_removals)
    # the spaces are non-trivial: the rule actually drops plans
    assert dominated > 0
