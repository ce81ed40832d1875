"""Incremental (delta) preparation: correctness and accounting.

The contract of the per-statement artifact store: for ANY sequence of
workload edits, an advisor that prepared earlier versions incrementally
must produce *exactly* the recommendation a cold advisor produces on
the final workload — same total cost, byte-identical explain document
(timing aside).  Cold and incremental prepares share one code path, so
these tests guard the artifact keying (structural signature + stage
config + relevant-pool fingerprints) that makes reuse safe.
"""

import json
import warnings

import pytest

from repro import Advisor, telemetry
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import TruncationWarning
from repro.explain import explain_document
from repro.pipeline import ArtifactStore
from repro.workload.statements import Query


@pytest.fixture(autouse=True)
def _quiet_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


def _canonical(recommendation):
    document = json.loads(json.dumps(explain_document(recommendation)))
    document.pop("timing", None)
    meta = document.get("meta")
    if isinstance(meta, dict):
        meta.pop("timing", None)
    return json.dumps(document)


def _edit_query(workload, label, weight=2.0):
    """Structurally edit one query in place: change its selected fields."""
    original = workload.remove_statement(label)
    select = list(original.select)
    if len(select) > 1:
        select = select[:-1]
    else:
        extra = [field for field in original.entity.attributes
                 if field not in select]
        select = select + extra[:1]
    edited = Query(original.key_path, select, original.conditions,
                   order_by=original.order_by, limit=original.limit,
                   label=label)
    workload.add_statement(edited, weight=weight, label=label)
    return edited


def _assert_equivalent(incremental, final_workload, model, **advisor_kw):
    served = incremental.recommend(final_workload)
    cold = Advisor(model, **advisor_kw).recommend(final_workload)
    assert served.total_cost == cold.total_cost
    assert _canonical(served) == _canonical(cold)
    return served


# -- equivalence: incremental == cold on the final workload ----------------


def test_hotel_add_remove_edit_sequence_matches_cold():
    model = hotel_model()
    base = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    advisor.recommend(base)

    # remove a query
    step1 = base.clone()
    step1.remove_statement("pois_for_hotel")
    _assert_equivalent(advisor, step1, model)

    # add a new query
    step2 = step1.clone()
    step2.add_statement(
        "SELECT Guest.GuestEmail FROM Guest "
        "WHERE Guest.GuestID = ?gid", label="guest_email")
    _assert_equivalent(advisor, step2, model)

    # edit an existing query (same label, different structure)
    step3 = step2.clone()
    _edit_query(step3, "guest_by_id")
    _assert_equivalent(advisor, step3, model)

    # and going back to the base workload still matches cold
    _assert_equivalent(advisor, base, model)


def test_rubis_add_remove_edit_sequence_matches_cold():
    from repro.rubis import rubis_model, rubis_workload
    model = rubis_model()
    base = rubis_workload(model, mix="bidding")
    advisor = Advisor(model, max_plans=100)
    advisor.recommend(base)

    edited = base.clone()
    removed = edited.remove_statement("bc_categories")
    _edit_query(edited, "vi_item")
    edited.add_statement(removed, weight=0.5, label="bc_categories")
    _assert_equivalent(advisor, edited, model, max_plans=100)


# -- delta accounting -------------------------------------------------------


def test_single_edit_replans_only_affected_statements():
    model = hotel_model()
    base = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    prepared = advisor.prepare(base)
    total = len(prepared.query_plans) + len(prepared.update_plans)
    assert prepared.reused_statements == 0
    assert prepared.replanned_statements == total

    edited = base.clone()
    edited.remove_statement("pois_for_hotel")
    delta = advisor.prepare(edited)
    remaining = len(delta.query_plans) + len(delta.update_plans)
    assert delta.reused_statements + delta.replanned_statements \
        == remaining
    assert delta.reused_statements > 0
    assert delta.replanned_statements < remaining

    # structurally identical re-prepare is a whole-workload cache hit
    again = advisor.prepare(edited.clone())
    assert again is delta
    assert again.reused_statements == remaining
    assert again.replanned_statements == 0


def test_delta_counters_and_timing_report():
    model = hotel_model()
    base = hotel_workload(model, include_updates=True)
    edited = base.clone()
    edited.remove_statement("pois_for_hotel")
    with telemetry.activate() as sink:
        advisor = Advisor(model)
        advisor.recommend(base)
        recommendation = advisor.recommend(edited)
        report = sink.report()
    counters = report.as_dict()["metrics"]["counters"]
    assert counters["advisor.delta_reused_statements"] > 0
    assert counters["advisor.delta_replanned_statements"] > 0
    timing = recommendation.timing
    assert timing.reused_statements > 0
    assert timing.reused_statements + timing.replanned_statements \
        == len(edited.queries) + len(edited.updates)


# -- the artifact store itself ----------------------------------------------


def test_artifact_store_is_a_bounded_lru():
    store = ArtifactStore(capacity=2)
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1  # refreshes "a"
    store.put("c", 3)  # evicts "b", the least recently used
    assert store.get("b") is None
    assert store.get("a") == 1
    assert store.get("c") == 3
    stats = store.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 3 and stats["misses"] == 1
    assert stats["size"] == 2
    assert "a" in store and "b" not in store
    assert len(store) == 2
    store.clear()
    assert len(store) == 0


def test_artifact_store_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ArtifactStore(capacity=0)


def test_advisor_store_fills_and_serves():
    model = hotel_model()
    workload = hotel_workload(model, include_updates=True)
    advisor = Advisor(model)
    advisor.prepare(workload)
    assert len(advisor.artifacts) > 0
    before = advisor.artifacts.stats()["hits"]
    advisor.clear_cache()  # prepared-workload cache, not artifacts
    replayed = advisor.prepare(workload)
    total = len(replayed.query_plans) + len(replayed.update_plans)
    assert replayed.reused_statements == total
    assert advisor.artifacts.stats()["hits"] > before
