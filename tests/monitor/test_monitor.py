"""Unit tests for the workload monitor's decayed weight estimates."""

import pytest

from repro.demo import hotel_model, hotel_workload
from repro.monitor import WorkloadMonitor
from repro.workload.digest import statement_digest


@pytest.fixture()
def workload():
    model = hotel_model()
    return hotel_workload(model, include_updates=True)


def test_half_life_decay_is_exact(workload):
    monitor = WorkloadMonitor(workload, half_life=10.0)
    statement = workload.statements["hotels_by_location"]
    monitor.observe(statement, time=0.0)
    weights = monitor.observed_weights(time=10.0)
    assert weights["hotels_by_location"] == pytest.approx(0.5)
    assert monitor.observed_weights(time=20.0)[
        "hotels_by_location"] == pytest.approx(0.25)


def test_observations_accumulate_with_decay(workload):
    monitor = WorkloadMonitor(workload, half_life=10.0)
    statement = workload.statements["hotels_by_location"]
    monitor.observe(statement, time=0.0)
    monitor.observe(statement, time=10.0)
    # the first observation halved by the time the second arrived
    assert monitor.observed_weights()["hotels_by_location"] \
        == pytest.approx(1.5)
    assert monitor.requests == 2


def test_clock_ratchets_forward(workload):
    monitor = WorkloadMonitor(workload, half_life=10.0)
    statement = workload.statements["hotels_by_location"]
    monitor.observe(statement, time=50.0)
    monitor.observe(statement, time=10.0)  # stale time clamps to clock
    assert monitor.clock == 50.0


def test_default_clock_ticks_once_per_request(workload):
    monitor = WorkloadMonitor(workload)
    statement = workload.statements["hotels_by_location"]
    for _ in range(5):
        monitor.observe(statement)
    assert monitor.clock == 5.0


def test_estimates_keyed_by_digest_and_label(workload):
    monitor = WorkloadMonitor(workload)
    first = workload.statements["hotels_by_location"]
    second = workload.statements["guest_by_id"]
    monitor.observe(first)
    monitor.observe(second)
    keys = set(monitor.estimates)
    assert (statement_digest(first), "hotels_by_location") in keys
    assert (statement_digest(second), "guest_by_id") in keys


def test_observed_distribution_sums_to_one(workload):
    monitor = WorkloadMonitor(workload, half_life=10.0)
    monitor.observe(workload.statements["hotels_by_location"], time=1.0)
    monitor.observe(workload.statements["guest_by_id"], time=2.0)
    monitor.observe(workload.statements["guest_by_id"], time=3.0)
    distribution = monitor.observed_distribution()
    assert sum(distribution.values()) == pytest.approx(1.0)
    assert len(distribution) == 2


def test_empty_monitor_has_empty_distribution(workload):
    monitor = WorkloadMonitor(workload)
    assert monitor.observed_distribution() == {}
    assert monitor.observed_weights() == {}


def test_advised_distribution_matches_weights(workload):
    monitor = WorkloadMonitor(workload)
    advised = monitor.advised_distribution()
    assert sum(advised.values()) == pytest.approx(1.0)
    total = sum(weight for _statement, weight
                in workload.weighted_statements)
    statement = workload.statements["hotels_by_location"]
    assert advised[statement_digest(statement)] == pytest.approx(
        workload.weight(statement) / total)


def test_replay_trace_resolves_labels(workload):
    monitor = WorkloadMonitor(workload, half_life=10.0)
    monitor.replay_trace([
        {"label": "hotels_by_location", "time": 1.0},
        {"label": "guest_by_id", "time": 2.0, "count": 3},
    ])
    assert monitor.requests == 4
    weights = monitor.observed_weights()
    assert weights["guest_by_id"] > weights["hotels_by_location"]


def test_replay_trace_rejects_unknown_label(workload):
    monitor = WorkloadMonitor(workload)
    with pytest.raises(ValueError, match="no_such_statement"):
        monitor.replay_trace([{"label": "no_such_statement"}])


def test_replay_trace_rejects_missing_label(workload):
    monitor = WorkloadMonitor(workload)
    with pytest.raises(ValueError, match="label"):
        monitor.replay_trace([{"time": 1.0}])


def test_invalid_half_life_rejected(workload):
    with pytest.raises(ValueError, match="half_life"):
        WorkloadMonitor(workload, half_life=0.0)


def test_rolling_log_caps_at_window(workload):
    monitor = WorkloadMonitor(workload, window=4)
    statement = workload.statements["guest_by_id"]
    for _ in range(10):
        monitor.observe(statement)
    assert len(monitor.recent) == 4
    assert monitor.requests == 10


def test_executed_counts_simulated_time(workload):
    monitor = WorkloadMonitor(workload)
    statement = workload.statements["guest_by_id"]
    monitor.executed(statement, "guest_by_id", "query",
                     {"simulated_ms": 250.0})
    monitor.executed(statement, "guest_by_id", "query",
                     {"simulated_ms": 750.0})
    assert monitor.simulated_seconds == pytest.approx(1.0)
    assert monitor.clock == 2.0
    assert monitor.requests == 2
