"""Tests of the benchmark harness on shrunken workloads.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import copy
import json

import pytest

import harness
from checks import capped_labels, check_pricing
from conftest import ROOT
from repro import Advisor
from tracing import TARGETS
from workloads import RubisBidding, RubisDrift, TemplateOltp

# capped plan spaces are part of the workloads
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.TruncationWarning")

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(scenario_class, **sizes):
    """A scenario instance with small inputs and a single round."""
    scenario = scenario_class()
    sizes = {"setups": 1, "readvise_per_round": 2, "windows_per_round": 1,
             "min_rounds": 1, "traced_rounds": 1, "verify_sample": (4, 1),
             **sizes}
    for name, value in sizes.items():
        setattr(scenario, name, value)
    return scenario


TINY = {
    "rubis-bidding": lambda: _tiny(RubisBidding, users=200),
    "rubis-drift": lambda: _tiny(RubisDrift, users=200),
    "template-oltp": lambda: _tiny(TemplateOltp, statements=30, rows=24),
}


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def test_declared_workloads_are_the_harness_workloads():
    names = [workload["name"] for workload in DECLARED["workloads"]]
    assert sorted(names) == sorted(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_prints_every_declared_metric(workload):
    _head, result, errors = harness.run(workload, 3, 0, False, ROOT,
                                        scenario=TINY[workload]())
    assert result["correct"], errors
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_command_prints_declared_metrics_last(monkeypatch, capsys):
    monkeypatch.setitem(harness.SCENARIOS, "rubis-drift",
                        TINY["rubis-drift"])
    import run

    status = run.main(["--workload", "rubis-drift", "--seed", "4",
                       "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(_declared("end_to_end"))
    assert json.loads(lines[-2])["header"]["seed"] == 4


def _installed():
    return [(owner, attribute, getattr(owner, attribute),
             attribute in vars(owner))
            for owner, attribute, _layer, _hook in TARGETS]


def test_traced_run_reports_per_layer_metrics_and_removes_wrappers(
        tmp_path):
    before = _installed()
    head, result, errors = harness.run(
        "rubis-drift", 3, 0, True, ROOT, scenario=TINY["rubis-drift"](),
        trace_dir=tmp_path)
    assert result["correct"], errors
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert _installed() == before
    assert (tmp_path / "rubis-drift-seed3.json.gz").is_file()
    assert set(head["stage_cross_check"]) >= {"enumeration", "pruning"}


def test_pricing_check_fails_on_a_mispriced_recommendation():
    inputs = TINY["rubis-bidding"]().build()
    advisor = Advisor(inputs.model)
    recommendation = advisor.recommend(inputs.advise)
    capped = capped_labels(advisor.prepare(inputs.advise))
    gap = advisor.optimizer.mip_rel_gap

    failures, notes = check_pricing(inputs.model, inputs.advise,
                                    recommendation, capped, gap)
    assert failures == []
    assert abs(notes["plan_excess_frac"]) <= gap

    # off by more than the solver's gap: the fresh re-pricing fails
    mispriced = copy.copy(recommendation)
    mispriced.total_cost = recommendation.total_cost * (1 + 100 * gap)
    failures, _notes = check_pricing(inputs.model, inputs.advise,
                                     mispriced, capped, gap)
    assert len(failures) == 1 and "re-prices" in failures[0]

    # off by more than the program's plan-sum tolerance: both fail
    mispriced.total_cost = recommendation.total_cost * 1.1
    failures, _notes = check_pricing(inputs.model, inputs.advise,
                                     mispriced, capped, gap)
    assert len(failures) == 2


def test_a_check_that_raises_fails_the_run_but_prints_the_result(
        monkeypatch):
    def broken(*_args):
        raise RuntimeError("replay broke")

    monkeypatch.setattr(harness, "check_execution", broken)
    _head, result, errors = harness.run(
        "rubis-drift", 3, 0, False, ROOT, scenario=TINY["rubis-drift"]())
    assert not result["correct"]
    assert result["failed"] == 1
    assert sorted(result["metrics"]) == sorted(_declared("end_to_end"))
    assert any("replay broke" in error for error in errors)


def test_a_raise_outside_any_operation_fails_the_run(monkeypatch):
    scenario = TINY["rubis-bidding"]()

    def broken(*_args):
        raise RuntimeError("no stream")

    monkeypatch.setattr(scenario, "stream", broken)
    _head, result, errors = harness.run("rubis-bidding", 3, 0, False,
                                        ROOT, scenario=scenario)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= 1
    assert result["metrics"] == {}
    assert any("no stream" in error for error in errors)
