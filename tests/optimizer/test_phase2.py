"""The schema-minimising second solve searches only the phase-1 schema.

Phase 2 looks for the fewest column families at the phase-1 cost.  The
phase-1 selection is itself such a schema, so phase 2 fixes every other
column family to 0: it then finishes well inside its budget, and its
answer never grows the schema or depends on where a timeout struck.
"""

import pytest

import repro.optimizer.bip as bip_module
from repro import Advisor, Workload
from repro.randgen import random_model, random_workload
from repro.telemetry import activate

# random plan spaces hit the planner's plan cap by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.TruncationWarning")


def _template_workload():
    """Random statement forms, each repeated under three labels."""
    model = random_model(entities=6, seed=7)
    forms = random_workload(model, queries=8, updates=2, inserts=1,
                            seed=7)
    workload = Workload(model)
    for copy in range(3):
        for label, statement in forms.statements.items():
            workload.add_statement(statement.unparse(),
                                   weight=forms.weight(label) + copy,
                                   label=f"{label}_{copy}")
    return model, workload


def _advise():
    model, workload = _template_workload()
    return Advisor(model, max_plans=60).recommend(workload)


def test_phase2_keeps_within_the_phase1_selection(monkeypatch):
    solves = []
    real_solve = bip_module.SelectionProgram._solve

    def recording(self, objective, constraints, *args, **kwargs):
        result = real_solve(self, objective, constraints, *args, **kwargs)
        solves.append((self, result))
        return result

    monkeypatch.setattr(bip_module.SelectionProgram, "_solve", recording)
    with activate() as sink:
        recommendation = _advise()
    metrics = sink.report().metrics
    counters = metrics.get("counters", {})
    assert "bip.phase2_failed" not in counters
    assert "bip.time_limited" not in counters

    (program, phase1), (_, phase2) = solves[-2:]
    selected = {index.key for index, value
                in zip(program.indexes, phase1.x[:program.binaries])
                if value > 0.5}
    assert metrics["gauges"]["bip.phase2_free_binaries"] == len(selected)
    phase2_keys = {index.key for index, value
                   in zip(program.indexes, phase2.x[:program.binaries])
                   if value > 0.5}
    assert phase2_keys <= selected
    keys = {index.key for index in recommendation.indexes}
    assert keys <= selected
    assert len(keys) <= len(program.problem.price(selected).used_keys)


def test_cold_advise_is_deterministic():
    first, second = _advise(), _advise()
    assert first.total_cost == second.total_cost
    assert sorted(index.key for index in first.indexes) \
        == sorted(index.key for index in second.indexes)
