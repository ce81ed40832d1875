"""The "nose-monitor/1" document: one run of the drift observatory.

``monitor_document`` folds a :class:`~repro.monitor.WorkloadMonitor`,
its :class:`~repro.monitor.DriftDetector` and an optional regret
section into a single JSON-able document.  Everything in it is
deterministic — logical-clock timestamps, digest-sorted lists, rounded
floats, no wall-clock — so repeated monitored runs serialize
byte-identically through :func:`repro.io.dump_document`.
"""

from __future__ import annotations

__all__ = ["MONITOR_FORMAT", "monitor_document"]

MONITOR_FORMAT = "nose-monitor/1"


def _digest_labels(monitor):
    """``{digest: [labels]}`` across advised and observed statements."""
    labels = {}
    for statement in monitor.workload.statements.values():
        digest = monitor._digest_for(statement)
        labels.setdefault(digest, set()).add(statement.label)
    for (digest, label) in monitor.estimates:
        labels.setdefault(digest, set()).add(label)
    return {digest: sorted(names) for digest, names in labels.items()}


def monitor_document(monitor, detector=None, regret=None, meta=None):
    """Assemble the byte-stable monitor document.

    ``regret`` is the mapping :func:`repro.monitor.estimate_regret`
    returns; its non-serializable ``"recommendation"`` entry is
    replaced by a schema summary.  ``meta`` carries run facts (source,
    mixes, seed) — callers must keep wall-clock values out of it.
    """
    document = {
        "format": MONITOR_FORMAT,
        "meta": dict(meta or {}),
        "ingest": {
            "requests": monitor.requests,
            "half_life": monitor.half_life,
            "clock": round(monitor.clock, 6),
            "simulated_seconds": round(monitor.simulated_seconds, 6),
            "statements_tracked": len(monitor.estimates),
            "recent": [list(entry) for entry in monitor.recent],
        },
        "estimates": monitor.estimates_dict(),
    }
    if detector is not None:
        drift = detector.as_dict()
        labels = _digest_labels(monitor)
        latest = drift.get("latest")
        if latest:
            drift["structural"] = {
                "added": {digest: labels.get(digest, [])
                          for digest in latest["structural_added"]},
                "removed": {digest: labels.get(digest, [])
                            for digest in latest["structural_removed"]},
            }
        document["drift"] = drift
    if regret is not None:
        section = {key: value for key, value in regret.items()
                   if key != "recommendation"}
        fresh = regret.get("recommendation")
        if fresh is not None:
            section["fresh_schema"] = sorted(index.key
                                             for index in fresh.indexes)
        document["regret"] = section
    return document
