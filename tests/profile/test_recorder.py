"""Tests for the execution flight recorder riding a real replay."""

import pytest

from repro import Advisor, telemetry
from repro.backend import ExecutionEngine, LatencyModel
from repro.profile import FlightRecorder, profile_recommendation


@pytest.fixture(scope="module")
def replay_setup():
    from repro.demo import hotel_dataset, hotel_model, hotel_workload
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    recommendation = Advisor(model).recommend(workload)
    return model, workload, dataset, recommendation


def _engine(replay_setup, recorder):
    model, _workload, dataset, recommendation = replay_setup
    engine = ExecutionEngine(model, recommendation, dataset,
                             observers=(recorder,))
    engine.store.recorder = recorder
    engine.load()
    return engine


def test_recorder_measures_query_statement(replay_setup):
    _model, workload, _dataset, _rec = replay_setup
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    query = workload.statements["guest_by_id"]
    engine.execute_query(query, {"guest": 5})
    engine.execute_query(query, {"guest": 7})
    profile = recorder.statements["guest_by_id"]
    assert profile.kind == "query"
    assert profile.requests == 2
    assert profile.counters["gets"] == 2
    assert profile.counters["rows_read"] >= 2
    assert profile.counters["partitions_touched"] >= 2
    assert profile.latency.count == 2
    assert profile.latency.total > 0


def test_statement_delta_matches_store_metrics(replay_setup):
    # the per-statement deltas must partition the store's global meters:
    # summing them reproduces the totals exactly
    _model, workload, _dataset, _rec = replay_setup
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    engine.store.reset_metrics()
    engine.execute("guest_by_id", {"guest": 5})
    engine.execute("pois_for_guest", {"guest": 3})
    engine.execute("update_poi_description",
                   {"poi": 1, "description": "x"})
    totals = engine.store.metrics.snapshot()
    for name in ("gets", "puts", "deletes", "rows_read", "rows_scanned",
                 "bytes_read", "partitions_touched"):
        recorded = sum(profile.counters[name]
                       for profile in recorder.statements.values())
        assert recorded == totals[name], name
    recorded_ms = sum(profile.latency.total
                      for profile in recorder.statements.values())
    assert recorded_ms == pytest.approx(totals["simulated_ms"])


def test_update_charges_support_queries_to_the_update(replay_setup):
    # support queries run inside execute_update must not appear as
    # separate statement profiles
    _model, workload, _dataset, _rec = replay_setup
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    engine.execute("delete_guest", {"guest": 11})
    assert set(recorder.statements) == {"delete_guest"}
    profile = recorder.statements["delete_guest"]
    assert profile.kind == "update"
    assert profile.counters["deletes"] >= 1


def test_per_column_family_operation_profiles(replay_setup):
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    engine.execute("guest_by_id", {"guest": 5})
    gets = [profile for (name, kind), profile
            in recorder.operations.items() if kind == "get"]
    assert gets
    record = gets[0].as_dict()
    assert record["requests"] >= 1
    assert record["p50_ms"] is not None
    assert record["p50_ms"] <= record["p99_ms"]


def test_calibration_samples_reproduce_latency_model(replay_setup):
    # every captured sample must satisfy the latency model's linear
    # form exactly — the property the replay-driven fit relies on
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    for guest in range(1, 12):
        engine.execute("guest_by_id", {"guest": guest})
        engine.execute("pois_for_guest", {"guest": guest})
    engine.execute("update_poi_description",
                   {"poi": 2, "description": "y"})
    latency = LatencyModel()
    samples = recorder.calibration_samples()
    assert len(samples) >= 12
    for sample in samples:
        if sample.kind == "get":
            expected = (latency.get_base * sample.requests
                        + latency.row_scan * sample.rows
                        + latency.byte_transfer
                        * sample.rows * sample.row_bytes)
        elif sample.kind == "put":
            expected = (latency.put_base * sample.requests
                        + latency.put_row * sample.rows)
        else:
            expected = (latency.delete_base * sample.requests
                        + latency.delete_row * sample.rows)
        assert sample.time_ms == pytest.approx(expected), sample


def test_sample_capture_cap(replay_setup):
    recorder = FlightRecorder(max_samples=3)
    engine = _engine(replay_setup, recorder)
    for guest in range(1, 8):
        engine.execute("guest_by_id", {"guest": guest})
    assert len(recorder.samples) == 3
    assert recorder.samples_dropped == 4
    assert recorder.samples_dict()["dropped"] == 4


def test_capture_disabled_keeps_profiles(replay_setup):
    recorder = FlightRecorder(capture_samples=False)
    engine = _engine(replay_setup, recorder)
    engine.execute("guest_by_id", {"guest": 5})
    assert recorder.samples == []
    assert recorder.statements["guest_by_id"].requests == 1


def test_recorder_works_with_telemetry_disabled(replay_setup):
    # an explicitly attached recorder must record regardless of the
    # NOSE_TELEMETRY kill-switch (the process-wide sink stays null)
    assert not telemetry.current().enabled
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    engine.execute("guest_by_id", {"guest": 5})
    assert recorder.total_requests() == 1


def test_replay_emits_telemetry_when_active(replay_setup):
    recorder = FlightRecorder()
    engine = _engine(replay_setup, recorder)
    with telemetry.activate() as sink:
        engine.execute("guest_by_id", {"guest": 5})
    report = sink.report()
    counters = report.metrics["counters"]
    assert counters["exec.requests"] == 1
    assert counters["store.rows_read"] >= 1
    histograms = report.metrics["histograms"]
    assert histograms["exec.latency_ms"]["count"] == 1
    assert "exec.latency_ms.guest_by_id" in histograms
    names = [span["name"] for span in report.spans]
    assert "exec.query" in names


def test_profile_recommendation_end_to_end(replay_setup):
    model, workload, dataset, recommendation = replay_setup
    document, recorder = profile_recommendation(
        model, workload, recommendation, dataset, seed=3, requests=60)
    assert document["format"] == "nose-profile/1"
    workload_section = document["workload"]
    assert workload_section["requests"] >= 60
    assert workload_section["statements_measured"] == len(
        list(workload.weighted_statements))
    assert workload_section["rank_correlation"] is not None
    # every statement joined against a prediction carries quantiles
    # and the raw counters
    for record in document["statements"].values():
        measured = record["measured"]
        assert measured["p50_ms"] is not None
        assert measured["p50_ms"] <= measured["p95_ms"] \
            <= measured["p99_ms"]
        for counter in ("rows_scanned", "partitions_touched",
                        "bytes_read"):
            assert counter in measured
        assert "terms" in record["predicted"]
    assert document["column_families"]
    assert recorder.calibration_samples()


def test_profile_recommendation_is_deterministic(replay_setup):
    # replays mutate their dataset (update statements), so two runs on
    # *fresh* datasets must agree byte for byte
    from repro.demo import hotel_dataset
    model, workload, _dataset, recommendation = replay_setup
    documents = []
    for _ in range(2):
        fresh = hotel_dataset(model, seed=42)
        fresh.sync_counts()
        document, _ = profile_recommendation(
            model, workload, recommendation, fresh, seed=5, requests=40)
        documents.append(document)
    assert documents[0] == documents[1]
