"""Unit tests for the accuracy report and its rank correlation."""

import pytest

from repro.profile.recorder import FlightRecorder
from repro.profile.report import (
    PROFILE_FORMAT,
    _average_ranks,
    accuracy_report,
    spearman,
)


# -- spearman ----------------------------------------------------------------


def test_average_ranks_no_ties():
    assert _average_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]


def test_average_ranks_with_ties():
    # the two tied values share rank (2+3)/2
    assert _average_ranks([10, 20, 20, 40]) == [1.0, 2.5, 2.5, 4.0]


def test_spearman_perfect_agreement():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) \
        == pytest.approx(1.0)


def test_spearman_perfect_disagreement():
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) \
        == pytest.approx(-1.0)


def test_spearman_is_rank_based_not_linear():
    # monotone but wildly non-linear: still exactly 1
    xs = [1, 2, 3, 4, 5]
    ys = [1, 100, 10_000, 1_000_000, 100_000_000]
    assert spearman(xs, ys) == pytest.approx(1.0)


def test_spearman_with_ties_matches_pearson_of_ranks():
    xs = [1, 2, 2, 3]
    ys = [10, 20, 20, 40]
    assert spearman(xs, ys) == pytest.approx(1.0)
    # a tie on one side only reduces but does not destroy correlation
    assert 0.0 < spearman([1, 2, 2, 3], [10, 20, 30, 40]) < 1.0


def test_spearman_degenerate_inputs():
    assert spearman([], []) is None
    assert spearman([1], [2]) is None
    assert spearman([1, 1, 1], [1, 2, 3]) is None  # constant side
    with pytest.raises(ValueError):
        spearman([1, 2], [1])


# -- accuracy report ---------------------------------------------------------


def _delta(simulated_ms, **counters):
    base = {name: 0 for name in
            ("gets", "puts", "deletes", "rows_read", "rows_scanned",
             "rows_written", "rows_deleted", "bytes_read",
             "partitions_touched")}
    base.update(counters)
    base["simulated_ms"] = simulated_ms
    return base


def _explain(costs):
    return {"statements": {
        label: {"kind": "query", "weight": 1.0, "cost": cost,
                "weighted_cost": cost,
                "plan": {"signature": label, "cost": cost,
                         "steps": [{"op": "lookup", "cost": cost,
                                    "terms": {"rows_read": 2.0,
                                              "partitions_contacted":
                                              1.0}}]}}
        for label, cost in costs.items()}}


def _recorded(latencies):
    recorder = FlightRecorder()
    for label, values in latencies.items():
        for value in values:
            recorder.executed(
                None, label, "query", _delta(value, gets=1, rows_read=2))
    return recorder


def test_accuracy_report_joins_measured_and_predicted():
    recorder = _recorded({"cheap": [1.0, 1.2], "dear": [8.0, 9.0]})
    document = accuracy_report(
        recorder, _explain({"cheap": 0.5, "dear": 4.0}),
        meta={"source": "unit"})
    assert document["format"] == PROFILE_FORMAT
    assert document["meta"]["source"] == "unit"
    cheap = document["statements"]["cheap"]
    assert cheap["measured"]["requests"] == 2
    assert cheap["measured"]["mean_ms"] == pytest.approx(1.1)
    assert cheap["predicted"]["cost"] == 0.5
    assert cheap["predicted"]["terms"]["rows_read"] == 2.0
    assert cheap["measured_over_predicted"] == pytest.approx(2.2)
    workload = document["workload"]
    assert workload["statements_joined"] == 2
    assert workload["requests"] == 4
    assert workload["rank_correlation"] == pytest.approx(1.0)


def test_accuracy_report_normalizes_ratios_by_median():
    # measured/predicted sits near 2.0 for most statements; the outlier
    # is flagged by its normalized ratio, not the raw one
    recorder = _recorded({"a": [2.0], "b": [4.0], "c": [40.0]})
    document = accuracy_report(
        recorder, _explain({"a": 1.0, "b": 2.0, "c": 2.0}))
    workload = document["workload"]
    assert workload["median_measured_over_predicted"] \
        == pytest.approx(2.0)
    assert document["statements"]["a"]["normalized_ratio"] \
        == pytest.approx(1.0)
    worst = workload["worst_divergences"]
    assert worst[0]["label"] == "c"
    assert worst[0]["normalized_ratio"] == pytest.approx(10.0)


def test_accuracy_report_handles_unjoined_statements():
    # a measured statement absent from the explain document still
    # appears, without prediction fields
    recorder = _recorded({"known": [1.0], "mystery": [2.0]})
    document = accuracy_report(recorder, _explain({"known": 1.0}))
    mystery = document["statements"]["mystery"]
    assert "predicted" not in mystery
    assert "measured_over_predicted" not in mystery
    assert document["workload"]["statements_measured"] == 2
    assert document["workload"]["statements_joined"] == 1
    # a single joined pair has no defined rank correlation
    assert document["workload"]["rank_correlation"] is None


def test_accuracy_report_empty_recorder():
    document = accuracy_report(FlightRecorder(), _explain({}))
    assert document["statements"] == {}
    assert document["workload"]["requests"] == 0
    assert document["workload"]["rank_correlation"] is None
    assert document["workload"]["worst_divergences"] == []


def test_accuracy_report_aggregates_update_terms():
    recorder = FlightRecorder()
    recorder.executed(
        None, "upd", "update", _delta(3.0, puts=1, rows_written=4))
    explain = {"statements": {"upd": {
        "kind": "update", "weight": 1.0, "cost": 2.0,
        "weighted_cost": 2.0,
        "maintenance": [{
            "index": "i1", "update_cost": 2.0,
            "write_amplification": 4.0,
            "steps": [{"op": "insert", "cost": 1.5,
                       "terms": {"rows_written": 4.0}}],
            "support_plans": [{
                "signature": "s", "cost": 0.5,
                "steps": [{"op": "lookup", "cost": 0.5,
                           "terms": {"rows_read": 1.0}}]}],
        }]}}}
    document = accuracy_report(recorder, explain)
    terms = document["statements"]["upd"]["predicted"]["terms"]
    assert terms == {"rows_read": 1.0, "rows_written": 4.0}


def test_report_is_json_serializable():
    import json
    recorder = _recorded({"a": [1.0], "b": [2.0], "c": [3.0]})
    document = accuracy_report(
        recorder, _explain({"a": 1.0, "b": 2.0, "c": 3.0}))
    json.dumps(document, sort_keys=True)
