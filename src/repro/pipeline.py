"""Per-statement artifact store for incremental advising.

NoSE's pipeline decomposes per statement (§IV): candidate enumeration,
plan-space generation and costing all consume one statement at a time,
with only the candidate-combination step (§IV-A3) and the BIP itself
looking across statements.  The advisor exploits that by keeping the
per-statement products in this store, keyed by structural statement
digest plus the stage configuration that produced them, so editing one
statement re-enumerates and re-plans that statement alone:

* **enumeration artifacts** — one candidate set per workload query and
  per (update, maintained column family) support round, together with
  the provenance events (candidate, derivation rule) recorded while
  enumerating, replayed verbatim into each new prepare's
  :class:`~repro.explain.provenance.ProvenanceRecorder`;
* **plan spaces** — one :class:`~repro.planner.plans.PlanSpace` per
  query form, under ``("plan", signature, plan cap, pool key)``: the
  pool key fingerprints the *relevant pool subset* (the candidates
  that can appear in any of the query's plans), so a pool change far
  away from a statement never invalidates it;
* **maintenance plans** — one :class:`~repro.planner.plans.UpdatePlan`
  per (update form, modified column family) pair, under
  ``("update-plan", signature, column family, support cap, pool
  keys)``.

Only what enumeration and planning produce is stored.  Costing and
pruning run once per prepared workload (each distinct space once), and
the prepared-workload cache serves them across weight changes; a
prepare after a structural edit re-costs and re-prunes every form.

The store is a bounded, thread-safe LRU; entries are not replaced once
stored (costing fills in plan costs in place, the same for every
prepare under one cost model).
"""

from __future__ import annotations

import threading

__all__ = [
    "ArtifactStore",
    "EnumerationArtifact",
]


class EnumerationArtifact:
    """Candidates one statement's enumeration produced, with provenance.

    ``events`` is the ordered tuple of ``(index, rule)`` provenance
    records emitted while enumerating; replaying them against a fresh
    recorder (with the current statement as source) reproduces the
    cold enumeration's provenance byte for byte.  ``support_count`` is
    the number of support queries enumerated (telemetry parity for the
    update support rounds; zero for workload queries).
    """

    __slots__ = ("indexes", "events", "support_count")

    def __init__(self, indexes, events, support_count=0):
        self.indexes = frozenset(indexes)
        self.events = tuple(events)
        self.support_count = support_count


class ArtifactStore:
    """Bounded, thread-safe LRU cache of per-statement artifacts.

    Keys are tuples of hashable parts — by convention
    ``(kind, statement_digest, *stage_config)``; see
    :meth:`repro.advisor.Advisor.prepare` for the concrete layouts.
    """

    def __init__(self, capacity=4096):
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = {}
        self._lock = threading.Lock()

    def get(self, key):
        """The stored artifact, or None; refreshes LRU position."""
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._entries[key] = value
            self.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
            self._entries[key] = value

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def stats(self):
        """``{hits, misses, evictions, size}`` snapshot."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries)}

    def __repr__(self):
        return (f"ArtifactStore(size={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
