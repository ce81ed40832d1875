"""The executor's monitor hook: live ingestion during execution."""

import pytest

from repro import Advisor
from repro.backend.executor import ExecutionEngine
from repro.demo import hotel_model, hotel_workload
from repro.demo.hotel import hotel_dataset
from repro.monitor import WorkloadMonitor
from repro.randgen.data import BindingGenerator


@pytest.fixture(scope="module")
def executed():
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    recommendation = Advisor(model).recommend(workload)
    dataset = hotel_dataset(model, seed=0)
    dataset.sync_counts()
    monitor = WorkloadMonitor(workload, half_life=50.0)
    engine = ExecutionEngine(model, recommendation, dataset,
                             observers=(monitor,))
    engine.load()
    generator = BindingGenerator(dataset, seed=0, null_rate=0.0)
    labels = ["guest_by_id", "guest_by_id", "hotels_by_location"]
    for label in labels:
        statement = workload.statements[label]
        engine.execute(label, generator.bindings_for(statement))
    return monitor, labels


def test_monitor_sees_every_statement(executed):
    monitor, labels = executed
    assert monitor.requests == len(labels)
    weights = monitor.observed_weights()
    assert weights["guest_by_id"] > weights["hotels_by_location"]


def test_monitor_clock_and_simulated_time_advance(executed):
    monitor, labels = executed
    assert monitor.clock == float(len(labels))
    assert monitor.simulated_seconds > 0.0


def test_support_queries_not_double_counted():
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    recommendation = Advisor(model).recommend(workload)
    dataset = hotel_dataset(model, seed=1)
    dataset.sync_counts()
    monitor = WorkloadMonitor(workload)
    engine = ExecutionEngine(model, recommendation, dataset,
                             observers=(monitor,))
    engine.load()
    generator = BindingGenerator(dataset, seed=1, null_rate=0.0)
    update = workload.statements["update_poi_description"]
    engine.execute("update_poi_description",
                   generator.bindings_for(update))
    # the update's internal support queries ride under the update label
    assert monitor.requests == 1
    assert set(label for _digest, label in monitor.estimates) \
        == {"update_poi_description"}
