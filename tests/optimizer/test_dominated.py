"""Phase 1 fixes dominated twin column families at 0.

Twin candidates share a path and field set and differ only in how the
key splits between partition and clustering fields.  When one twin B
costs no less than another twin A wherever it appears (the rule of
``_Program._dominated``), swapping B for A in any schema keeps it
feasible at no greater cost, so the BIP may leave B out.  These tests
check that swap on the programs themselves, against the fixed-schema
pricer, and that the fixing leaves the optimum where it was.
"""

import importlib.util
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.optimizer.bip as bip_module
from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.dominance import plan_keys
from repro.exceptions import OptimizationError
from repro.randgen import random_model, random_workload
from repro.rubis import rubis_model, rubis_workload
from repro.telemetry import activate

ROOT = pathlib.Path(__file__).resolve().parents[2]

# the demo and random workloads hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _hotel():
    model = hotel_model()
    return model, hotel_workload(model)


def _rubis_bidding():
    model = rubis_model(users=2_000)
    return model, rubis_workload(model, mix="bidding")


def _randgen(seed=3):
    model = random_model(entities=6, seed=seed)
    return model, random_workload(model, queries=6, updates=2, inserts=1,
                                  seed=seed)


def _template_oltp():
    """perfbench's template-oltp advise workload: 100 statements."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while being defined
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    inputs = workloads.TemplateOltp().build()
    return inputs.model, inputs.advise


def _prepared(model, workload, **options):
    """An advisor, its prepared workload, and the first recommendation."""
    advisor = Advisor(model, **options)
    prepared = advisor.prepare(workload)
    return advisor, prepared, advisor.recommend_prepared(prepared)


def _random_schema(problem, rng, key):
    """A random schema holding ``key`` under which every query and every
    support query of a maintained column family has a plan."""
    keys = {key}
    for plans in problem.query_classes.values():
        keys |= plan_keys(rng.choice(plans))
    grown = True
    while grown:
        grown = False
        for update_plans in problem.update_classes.values():
            for update_plan in update_plans:
                if update_plan.index.key not in keys:
                    continue
                for plans in update_plan.support_plans_by_query.values():
                    if not any(plan_keys(plan) <= keys for plan in plans):
                        keys |= plan_keys(rng.choice(plans))
                        grown = True
    return keys


def _check_swaps(program, schemas=3, seed=0):
    """For each dominated pair (B, A), swapping B for A in random
    schemas holding B stays feasible at no greater cost."""
    problem = program.problem
    rng = random.Random(seed)
    for b_column, a_column in program.dominated.items():
        b = program.indexes[b_column]
        a = program.indexes[a_column]
        assert a_column not in program.dominated
        assert (a.path.signature, a.all_field_ids, a.size) == \
            (b.path.signature, b.all_field_ids, b.size)
        for _ in range(schemas):
            keys = _random_schema(problem, rng, b.key)
            priced = problem.price(keys)
            assert priced is not None
            swapped = problem.price(keys - {b.key} | {a.key})
            assert swapped is not None, (b.key, a.key)
            # the terms match one for one; only their order may differ
            assert swapped.cost <= priced.cost * (1 + 1e-12), \
                (b.key, a.key)


@pytest.mark.parametrize("workload", [_hotel, _rubis_bidding,
                                      _template_oltp],
                         ids=["hotel", "rubis-bidding", "template-oltp"])
def test_swapping_a_dominated_twin_for_its_dominator(workload):
    _advisor, prepared, _ = _prepared(*workload())
    program = prepared._program
    if workload is not _hotel:
        assert program.dominated
    _check_swaps(program)


def test_template_oltp_fixes_its_dominated_twins():
    with activate() as sink:
        _advisor, prepared, recommendation = _prepared(*_template_oltp())
    gauges = sink.report().metrics["gauges"]
    assert gauges["bip.dominated_columns"] == len(
        prepared._program.dominated) == 51
    assert len(recommendation.indexes) == 39
    assert recommendation.total_cost == pytest.approx(506.1276660630077,
                                                      rel=1e-4)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_swaps_hold_on_random_workloads(seed):
    model, workload = _randgen(seed)
    _advisor, prepared, _ = _prepared(model, workload, max_plans=60)
    _check_swaps(prepared._program, seed=seed)


def _three_solves(workload):
    """Total costs: cold, after a reweight, and under a space limit
    a tenth below the cold schema's size (None when nothing fits)."""
    model, workload = workload()
    advisor, prepared, cold = _prepared(model, workload)
    rng = random.Random(1)
    weights = {label: workload.weight(label) * rng.uniform(0.2, 5.0)
               for label in workload.statements}
    reweighted = advisor.recommend_prepared(prepared, weights=weights)
    limit = 0.9 * sum(index.size for index in cold.indexes)
    try:
        limited = advisor.recommend_prepared(prepared, weights=weights,
                                             space_limit=limit).total_cost
    except OptimizationError:
        limited = None
    return (prepared._program.dominated,
            [cold.total_cost, reweighted.total_cost, limited])


@pytest.mark.parametrize("workload", [_rubis_bidding, _randgen],
                         ids=["rubis-bidding", "randgen"])
def test_fixing_keeps_the_optimum(workload, monkeypatch):
    dominated, fixed = _three_solves(workload)
    assert dominated
    monkeypatch.setattr(bip_module._Program, "_dominated",
                        lambda self: {})
    none, free = _three_solves(workload)
    assert not none
    assert fixed[2] is not None
    for with_pass, without in zip(fixed, free):
        assert with_pass == pytest.approx(without, rel=1e-4)


def test_negative_costs_switch_the_pass_off(monkeypatch):
    model, workload = _rubis_bidding()
    advisor, prepared, _ = _prepared(model, workload)
    program = prepared._program
    assert program.dominated

    uppers = []
    real_run = bip_module.run_highs

    def recording(model, options, start=None):
        uppers.append(np.asarray(model[8]))
        return real_run(model, options, start)

    monkeypatch.setattr(bip_module, "run_highs", recording)
    advisor.recommend_prepared(prepared)
    assert (uppers[0][list(program.dominated)] == 0.0).all()
    # a negative weight makes negative costs: phase 1 fixes nothing
    weights = {label: workload.weight(label) for label in
               workload.statements}
    weights[next(iter(weights))] = -1.0
    uppers.clear()
    advisor.recommend_prepared(prepared, weights=weights)
    assert (uppers[0] == 1.0).all()
    # a program built with a negative plan cost fixes no candidate
    plan = program.plan_columns[0][1]
    monkeypatch.setattr(plan, "_cost", -1.0)
    assert bip_module._Program(program.problem).dominated == {}
