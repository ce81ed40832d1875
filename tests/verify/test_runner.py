"""The differential runner and whole-recommendation verification."""

import pytest

from repro import Advisor
from repro.backend import ExecutionEngine
from repro.randgen import random_dataset, random_model, random_workload
from repro.verify import DifferentialRunner, verify_recommendation


@pytest.fixture(scope="module")
def verified_hotel():
    from repro.demo import hotel_dataset, hotel_model, hotel_workload
    model = hotel_model(scale=0.01)
    workload = hotel_workload(model, include_updates=True)
    dataset = hotel_dataset(model, seed=0)
    dataset.sync_counts()
    recommendation = Advisor(model).recommend(workload)
    return model, workload, dataset, recommendation


def test_hotel_verifies_cleanly_under_both_protocols(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    report = verify_recommendation(model, workload, recommendation,
                                   dataset, seed=0)
    assert report["ok"], report
    for protocol in ("nose", "expert"):
        entry = report["protocols"][protocol]
        assert entry["ok"]
        assert entry["checks"] == 3 * len(workload.statements)
        assert entry["divergences"] == []


def test_verification_leaves_the_input_dataset_untouched(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    before = {name: dict(rows) for name, rows in dataset.rows.items()}
    verify_recommendation(model, workload, recommendation, dataset,
                          seed=1, rounds=1, protocols=("nose",))
    assert {name: dict(rows)
            for name, rows in dataset.rows.items()} == before


def test_sweep_catches_store_corruption(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    runner = DifferentialRunner(model, recommendation, dataset.copy())
    assert runner.sweep() == []
    index = recommendation.indexes[0]
    column_family = runner.engine.store[index.key]
    victim = next(iter(column_family.rows()))
    column_family.delete_many([victim])
    divergences = runner.sweep(label="corruption")
    assert divergences
    assert divergences[0].kind == "store_inconsistent"
    assert divergences[0].index == index.key


class MissortingEngine(ExecutionEngine):
    """Broken on purpose: loads every partition in reverse key order."""

    def load(self):
        total = super().load()
        for column_family in self.store.column_families.values():
            for _partition, records in column_family.partitions():
                records.reverse()
        return total


def test_load_sweep_catches_a_missorted_partition(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    runner = DifferentialRunner(model, recommendation, dataset.copy(),
                                engine_factory=MissortingEngine)
    assert runner.divergences
    assert {divergence.kind for divergence in runner.divergences} \
        == {"store_inconsistent"}
    assert {divergence.label for divergence in runner.divergences} \
        == {"(load)"}
    assert all("out of key order" in divergence.message
               for divergence in runner.divergences)
    assert runner.checks == 0


def test_verification_stops_at_a_load_divergence(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    report = verify_recommendation(
        model, workload, recommendation, dataset, seed=0,
        protocols=("nose",), engine_factory=MissortingEngine)
    assert not report["ok"]
    entry = report["protocols"]["nose"]
    assert entry["checks"] == 0
    assert entry["divergences"][0]["label"] == "(load)"
    # the load alone reproduces it: no request survives shrinking
    assert entry["shrunk"]["requests"] == []


def test_query_mismatch_reports_missing_rows(verified_hotel):
    model, workload, dataset, recommendation = verified_hotel
    runner = DifferentialRunner(model, recommendation, dataset.copy())
    query = workload.statements["guest_by_id"]
    # corrupt the store row the query reads, then check it
    for index in recommendation.indexes:
        column_family = runner.engine.store[index.key]
        column_family.delete_many(list(column_family.rows()))
    found = runner.check(query, {"guest": 1})
    assert any(d.kind == "result_mismatch" for d in found)
    assert not runner.ok


def test_random_workload_verifies_cleanly():
    """Fuzz pin: one seeded random trial through the full oracle."""
    seed = 4
    model = random_model(entities=4, seed=seed)
    workload = random_workload(model, queries=4, updates=2, inserts=1,
                               seed=seed)
    dataset = random_dataset(model, seed=seed, rows_per_entity=10)
    dataset.sync_counts()
    recommendation = Advisor(model, max_plans=60).recommend(workload)
    report = verify_recommendation(model, workload, recommendation,
                                   dataset, seed=seed, rounds=1)
    assert report["ok"], report
