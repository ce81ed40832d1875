"""Tests for the windowed schema advisor."""

import pytest

from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import OptimizationError, ParseError, WorkloadError
from repro.io import dump_document, load_document
from repro.tools import MigrationCostModel
from repro.windows import (
    WINDOWS_FORMAT,
    WindowSchedule,
    recommend_windows,
    replan_from_monitor,
)
from repro.windows.bip import WindowedProgram

TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def phased():
    """A hotel workload with a quiet phase and a write-heavy phase."""
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    # registers the "writes" mix on the same workload object
    workload.scale_weights(50, mix="writes")
    schedule = WindowSchedule([("default", 400.0), ("writes", 400.0),
                               ("default", 400.0)])
    return model, workload, schedule


def _totals(recommendation):
    best = min(entry["total"]
               for entry in recommendation.baselines.values())
    return recommendation.total_cost, best


def test_windowed_never_worse_than_either_baseline(phased):
    model, workload, schedule = phased
    recommendation = recommend_windows(Advisor(model), workload,
                                       schedule)
    total, best = _totals(recommendation)
    assert total <= best * (1 + TOLERANCE) + TOLERANCE
    assert len(recommendation.windows) == len(schedule)
    for result, window in zip(recommendation.windows, schedule):
        assert result.window.label == window.label
        assert result.serving_cost > 0
        assert result.indexes


def test_a_cheaper_baseline_replaces_a_worse_windowed_schedule(
        phased, monkeypatch):
    model, workload, schedule = phased

    def every_candidate(program, **_options):
        keys = {index.key for index in program.indexes}
        return [set(keys) for _ in range(program.windows)]

    monkeypatch.setattr(WindowedProgram, "solve", every_candidate)
    recommendation = recommend_windows(Advisor(model), workload,
                                       schedule)
    cheaper = min(recommendation.baselines.values(),
                  key=lambda entry: entry["total"])
    assert recommendation.total_cost == cheaper["total"]
    assert [result.keys for result in recommendation.windows] \
        == [result.keys for result in cheaper["windows"]]


def test_naive_baseline_solves_each_distinct_window_once(phased):
    model, workload, schedule = phased
    advisor = Advisor(model)
    solve = advisor.optimizer.solve
    solved = []

    def counting(problem):
        solved.append(problem)
        return solve(problem)

    advisor.optimizer.solve = counting
    recommendation = recommend_windows(advisor, workload, schedule)
    # the first and last windows share a mix and a request volume
    assert len(schedule) == 3 and len(solved) == 2
    naive = recommendation.baselines["naive_per_window"]["windows"]
    assert naive[0].keys == naive[2].keys


def test_huge_migration_cost_holds_one_schema(phased):
    model, workload, schedule = phased
    pricing = MigrationCostModel(row_cost=1e9)
    recommendation = recommend_windows(Advisor(model), workload,
                                       schedule,
                                       migration_model=pricing)
    first = set(recommendation.windows[0].keys)
    for result in recommendation.windows[1:]:
        assert set(result.keys) == first
        assert result.migration.is_noop
        assert result.migration_cost == 0.0
    # holding one schema is exactly the static strategy
    static = recommendation.baselines["static"]["total"]
    assert recommendation.total_cost \
        <= static * (1 + TOLERANCE) + TOLERANCE


def test_free_migrations_track_naive_per_window(phased):
    model, workload, schedule = phased
    pricing = MigrationCostModel(row_cost=0.0)
    recommendation = recommend_windows(Advisor(model), workload,
                                       schedule,
                                       migration_model=pricing)
    assert recommendation.migration_cost == 0.0
    naive = recommendation.baselines["naive_per_window"]
    assert recommendation.serving_cost \
        <= naive["serving"] * (1 + TOLERANCE) + TOLERANCE


def test_initial_schema_makes_first_window_cheaper(phased):
    model, workload, schedule = phased
    advisor = Advisor(model)
    cold = recommend_windows(advisor, workload, schedule)
    # hand the cold run's first-window schema in as already built
    warm = recommend_windows(advisor, workload, schedule,
                             initial=cold.windows[0].indexes)
    assert warm.migration_cost < cold.migration_cost
    held = {index.key for index in warm.initial}
    assert not set(
        index.key for index in warm.windows[0].migration.create) & held


def test_unknown_window_mix_raises(phased):
    model, workload, _schedule = phased
    with pytest.raises(WorkloadError, match="known mixes"):
        recommend_windows(Advisor(model), workload,
                          [("defualt", 100.0)])


def test_document_round_trips_byte_stable(phased, tmp_path):
    model, workload, schedule = phased
    meta = {"source": "test"}
    # two runs, each on a fresh advisor
    once = recommend_windows(Advisor(model), workload, schedule)
    again = recommend_windows(Advisor(model), workload, schedule)
    first = dump_document(once.document(meta=meta),
                          tmp_path / "first.json")
    second = dump_document(again.document(meta=meta),
                           tmp_path / "second.json")
    first_bytes = (tmp_path / "first.json").read_bytes()
    assert first_bytes == (tmp_path / "second.json").read_bytes()
    document = load_document(first, WINDOWS_FORMAT)
    assert document["format"] == "nose-windows/1"
    assert document["totals"]["total_cost"] == pytest.approx(
        once.total_cost, rel=1e-5)
    assert first != second


def test_load_windows_rejects_untagged_documents(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{\"windows\": []}\n")
    with pytest.raises(ParseError, match="missing 'format'"):
        load_document(bogus, WINDOWS_FORMAT)


def test_replan_from_monitor_decides_for_observed_mix(phased):
    model, workload, _schedule = phased
    advisor = Advisor(model)
    standing = advisor.recommend(workload)
    observed = {label: workload.weight(label, mix="writes")
                for label in workload.statements}
    decision = replan_from_monitor(advisor, workload, standing,
                                   observed, requests=500.0)
    assert len(decision.windows) == 1
    total, best = _totals(decision)
    assert total <= best * (1 + TOLERANCE) + TOLERANCE
    # the old schema is the starting point the migration is priced from
    assert {index.key for index in decision.initial} \
        == {index.key for index in standing.indexes}
    with pytest.raises(OptimizationError, match="empty observation"):
        replan_from_monitor(advisor, workload, standing,
                            {label: 0.0 for label in observed})
