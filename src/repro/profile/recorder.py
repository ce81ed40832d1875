"""The execution flight recorder.

A :class:`FlightRecorder` rides one replay through the execution
engine and captures what actually happened, at two granularities:

* **per statement** — the engine reports the store-metric deltas each
  statement execution caused (rows scanned/read, partitions touched,
  bytes transferred, maintenance puts/deletes) plus the simulated-clock
  delta from the latency model, accumulated here into counter totals
  and a latency histogram per statement label;
* **per operation** — the store reports every charged get/put/delete
  with its shape (rows, bytes) and simulated service time, accumulated
  into per-column-family, per-operation histograms and captured as
  :class:`~repro.cost.calibrate.CalibrationSample` records so a cost
  model can be fitted from real replay traffic instead of synthetic
  probes.

The recorder is attached explicitly, as one of the engine's
observers (``ExecutionEngine(..., observers=(recorder,))``) and as
the store's ``recorder``, so replays that do not profile pay only an
empty-tuple check per statement and a ``None`` check per operation;
the telemetry kill-switch does not apply to an explicitly attached
recorder.  Single-threaded by design — replays drive one engine from
one thread.
"""

from __future__ import annotations

from repro.telemetry import LATENCY_BUCKETS_MS, Histogram

__all__ = ["FlightRecorder", "OperationProfile", "StatementProfile"]

#: store-metric deltas accumulated per statement, in report order
STATEMENT_COUNTERS = ("gets", "puts", "deletes", "rows_read",
                      "rows_scanned", "rows_written", "rows_deleted",
                      "bytes_read", "partitions_touched")

#: cap on captured calibration samples (one per store operation)
MAX_SAMPLES = 20_000


def _quantiles(histogram):
    def rounded(value):
        return None if value is None else round(value, 6)

    return {
        "p50_ms": rounded(histogram.quantile(0.50)),
        "p95_ms": rounded(histogram.quantile(0.95)),
        "p99_ms": rounded(histogram.quantile(0.99)),
    }


class StatementProfile:
    """Measured totals for one statement label across a replay."""

    __slots__ = ("label", "kind", "requests", "latency", "counters")

    def __init__(self, label, kind):
        self.label = label
        self.kind = kind
        self.requests = 0
        self.latency = Histogram(LATENCY_BUCKETS_MS)
        self.counters = dict.fromkeys(STATEMENT_COUNTERS, 0)

    def record(self, delta):
        self.requests += 1
        self.latency.observe(delta["simulated_ms"])
        counters = self.counters
        for name in STATEMENT_COUNTERS:
            counters[name] += delta[name]

    def as_dict(self):
        """Measured section of the profile report for this statement."""
        record = {
            "requests": self.requests,
            "total_ms": round(self.latency.total, 6),
            "mean_ms": (round(self.latency.total / self.requests, 6)
                        if self.requests else None),
        }
        record.update(_quantiles(self.latency))
        record.update({name: self.counters[name]
                       for name in STATEMENT_COUNTERS})
        record["latency_histogram"] = self.latency.as_dict()
        return record


class OperationProfile:
    """Measured totals for one (column family, operation kind) pair."""

    __slots__ = ("name", "kind", "requests", "rows", "bytes_read",
                 "latency")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.requests = 0
        self.rows = 0
        self.bytes_read = 0
        self.latency = Histogram(LATENCY_BUCKETS_MS)

    def record(self, rows, bytes_read, time_ms):
        self.requests += 1
        self.rows += rows
        self.bytes_read += bytes_read
        self.latency.observe(time_ms)

    def as_dict(self):
        record = {
            "requests": self.requests,
            "rows": self.rows,
            "bytes": self.bytes_read,
            "total_ms": round(self.latency.total, 6),
            "mean_ms": (round(self.latency.total / self.requests, 6)
                        if self.requests else None),
        }
        record.update(_quantiles(self.latency))
        return record


class FlightRecorder:
    """Collects per-statement and per-operation replay measurements.

    Attach it as an engine observer for the per-statement records and
    as ``engine.store.recorder`` for the per-operation ones.
    """

    def __init__(self, capture_samples=True, max_samples=MAX_SAMPLES):
        self.statements = {}
        self.operations = {}
        self.capture_samples = capture_samples
        self.max_samples = max_samples
        self.samples = []
        self.samples_dropped = 0

    # -- engine-side hook ----------------------------------------------------

    def executed(self, statement, label, kind, delta):
        """One statement executed; ``delta`` is the store-metric delta."""
        profile = self.statements.get(label)
        if profile is None:
            profile = self.statements[label] = StatementProfile(label,
                                                                kind)
        profile.record(delta)

    # -- store-side hook -----------------------------------------------------

    def observe_op(self, name, kind, rows, time_ms, returned=None,
                   row_bytes=None, bytes_read=None):
        """One charged store operation on column family ``name``.

        For gets, ``rows`` is the clustering rows *scanned* (what the
        latency model charges for), ``returned``/``bytes_read`` the
        rows and bytes actually transferred.  For puts/deletes,
        ``rows`` is the batch size charged.
        """
        key = (name, kind)
        profile = self.operations.get(key)
        if profile is None:
            profile = self.operations[key] = OperationProfile(name, kind)
        profile.record(returned if returned is not None else rows,
                       bytes_read or 0, time_ms)
        if not self.capture_samples:
            return
        if len(self.samples) >= self.max_samples:
            self.samples_dropped += 1
            return
        if kind == "get":
            # encode the sample so requests/rows/rows*row_bytes exactly
            # reproduce the charged shape: rows = rows scanned, and the
            # per-row byte size chosen so rows * row_bytes equals the
            # bytes actually transferred (scans and transfers are
            # charged separately by the latency model)
            fitted_bytes = ((bytes_read or 0) / rows) if rows else 0.0
            self.samples.append(("get", 1, rows, fitted_bytes, time_ms))
        else:
            self.samples.append((kind, 1, rows, row_bytes or 0,
                                 time_ms))

    # -- output --------------------------------------------------------------

    def calibration_samples(self):
        """Captured operations as :class:`CalibrationSample` records."""
        from repro.cost.calibrate import CalibrationSample
        return [CalibrationSample(*sample) for sample in self.samples]

    def total_requests(self):
        return sum(profile.requests
                   for profile in self.statements.values())

    def column_families_dict(self):
        """``{column family: {operation kind: measured record}}``."""
        section = {}
        for (name, kind) in sorted(self.operations):
            section.setdefault(name, {})[kind] = \
                self.operations[(name, kind)].as_dict()
        return section

    def samples_dict(self, limit=500):
        """Serialized calibration samples (capped for the report)."""
        listed = [{"kind": kind, "requests": requests, "rows": rows,
                   "row_bytes": round(row_bytes, 6),
                   "time_ms": round(time_ms, 6)}
                  for kind, requests, rows, row_bytes, time_ms
                  in self.samples[:limit]]
        return {
            "captured": len(self.samples),
            "dropped": self.samples_dropped,
            "listed": len(listed),
            "truncated": len(self.samples) > limit,
            "samples": listed,
        }
