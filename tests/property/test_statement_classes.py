"""Statements of one form are one weighted statement class.

A workload repeating a statement under new labels and parameter names
must be advised exactly like the workload holding each form once with
the summed weight: same cost, same schema, and every repeat served by
its form's plan, bound to its own parameters.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Advisor, Workload
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.verify import DifferentialRunner

# random plan spaces hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _renamed(statement, copy):
    """``statement``'s text with every parameter renamed."""
    return re.sub(r"\?(\w+)", rf"?\1_r{copy}", statement.unparse())


def _workloads(model, seed, draw):
    """(duplicated, merged, {merged label: duplicated members})."""
    base = random_workload(model, queries=3, updates=1, inserts=1,
                           seed=seed, max_path=2)
    duplicated = Workload(model)
    merged = Workload(model)
    repeats = []
    members = {}
    for label, statement in base.statements.items():
        weights = [base.weight(label)] + draw(st.lists(
            st.floats(0.1, 5.0), min_size=1, max_size=3),
            label=f"repeat weights of {label}")
        members[label] = [duplicated.add_statement(statement,
                                                   weight=weights[0],
                                                   label=label)]
        repeats.extend((label, copy, weight) for copy, weight
                       in enumerate(weights[1:]))
        merged.add_statement(statement, weight=sum(weights), label=label)
    # repeats follow every original, so classes interleave
    for label, copy, weight in repeats:
        members[label].append(duplicated.add_statement(
            _renamed(base.statements[label], copy), weight=weight,
            label=f"{label}_r{copy}"))
    return duplicated, merged, members


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), data=st.data())
def test_repeated_statements_advise_like_their_merged_form(seed, data):
    model = random_model(entities=3, seed=seed)
    dataset = random_dataset(model, seed=seed, rows_per_entity=8)
    dataset.sync_counts()
    duplicated, merged, members = _workloads(model, seed, data.draw)
    classed = Advisor(model, max_plans=40).recommend(duplicated)
    single = Advisor(model, max_plans=40).recommend(merged)

    assert classed.total_cost == pytest.approx(single.total_cost,
                                               rel=1e-9)
    assert sorted(index.key for index in classed.indexes) \
        == sorted(index.key for index in single.indexes)
    for label, statements in members.items():
        form = merged.statements[label]
        if form in single.query_plans:
            signature = single.query_plans[form].signature
            for member in statements:
                plan = classed.query_plans[member]
                assert plan.signature == signature
                assert plan.query is member
        else:
            maintained = sorted(plan.index.key for plan
                                in single.update_plans.get(form, ()))
            for member in statements:
                plans = classed.update_plans.get(member, ())
                assert sorted(plan.index.key
                              for plan in plans) == maintained
                assert all(plan.update is member for plan in plans)
                assert all(support.update is member for plan in plans
                           for support in plan.support_plans_by_query)

    # the renamed repeats run on their own parameter names
    generator = BindingGenerator(dataset, seed=seed)
    runner = DifferentialRunner(model, classed, dataset)
    renamed = [member for statements in members.values()
               for member in statements[1:]]
    runner.run([(member, generator.bindings_for(member))
                for member in renamed for _ in range(3)])
    assert runner.ok, [divergence.as_dict()
                       for divergence in runner.divergences]
