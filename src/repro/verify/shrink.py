"""Shrinking: reduce a divergence to a minimal failing reproducer.

Given a request sequence and a starting dataset that produce a
divergence, the shrinker minimizes along two axes while preserving the
failure signature (divergence kind + statement label + column family):

1. the request sequence — the tail after the first failure is cut, then
   earlier requests are removed one at a time (delta-debugging style);
2. the dataset — entity rows are removed in halving chunks, then
   individually, as long as the divergence persists.

The recommendation (the plans under test) is held fixed: re-advising a
smaller workload would change the artifact being debugged.  Every
candidate is replayed from a fresh dataset copy through a fresh engine,
so shrinking is deterministic and side-effect free.
"""

from __future__ import annotations

from repro.verify.runner import DifferentialRunner


class ShrunkRepro:
    """A minimal reproducer for one divergence."""

    def __init__(self, divergence, requests, dataset, replays):
        self.divergence = divergence
        #: minimal ``(statement, params)`` sequence ending in the failure
        self.requests = requests
        #: minimal starting dataset reproducing the failure
        self.dataset = dataset
        #: number of candidate replays the shrinker executed
        self.replays = replays

    def as_dict(self):
        return {
            "divergence": self.divergence.as_dict(),
            "requests": [
                {"label": statement.label,
                 "statement": str(statement),
                 "params": {name: _clean(value)
                            for name, value in params.items()}}
                for statement, params in self.requests],
            "dataset_rows": {name: len(rows)
                             for name, rows in self.dataset.rows.items()
                             if rows},
            "dataset": {
                name: [_clean_row(row) for row in rows.values()]
                for name, rows in self.dataset.rows.items() if rows},
            "links": {
                key: {str(source): sorted(targets, key=repr)
                      for source, targets in links.items() if targets}
                for key, links in self.dataset.links.items()
                if any(links.values())},
            "replays": self.replays,
        }

    def __repr__(self):
        rows = sum(len(rows) for rows in self.dataset.rows.values())
        return (f"ShrunkRepro({self.divergence.kind!r}, "
                f"requests={len(self.requests)}, rows={rows})")


def _clean(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _clean_row(row):
    return {field: _clean(value) for field, value in row.items()}


class Shrinker:
    """Shrinks one divergence; see :func:`shrink_divergence`."""

    def __init__(self, model, recommendation, divergence,
                 update_protocol="nose", share_reads=False,
                 engine_factory=None, max_dataset_passes=4):
        self.model = model
        self.recommendation = recommendation
        self.target = divergence
        self.update_protocol = update_protocol
        self.share_reads = share_reads
        self.engine_factory = engine_factory
        self.max_dataset_passes = max_dataset_passes
        self.replays = 0

    def _replay(self, dataset, requests):
        """Replays ``requests`` on a copy of ``dataset``; returns the
        first divergence matching the target, or None."""
        self.replays += 1
        runner = DifferentialRunner(
            self.model, self.recommendation, dataset.copy(),
            update_protocol=self.update_protocol,
            share_reads=self.share_reads,
            engine_factory=self.engine_factory)
        for divergence in runner.divergences:  # found by the load sweep
            if divergence.matches(self.target):
                return divergence
        for statement, params in requests:
            for divergence in runner.check(statement, params):
                if divergence.matches(self.target):
                    return divergence
        return None

    def shrink(self, dataset, requests):
        requests = self._cut_tail(dataset, requests)
        requests = self._drop_requests(dataset, requests)
        dataset = self._shrink_dataset(dataset, requests)
        final = self._replay(dataset, requests) or self.target
        return ShrunkRepro(final, requests, dataset, self.replays)

    def _cut_tail(self, dataset, requests):
        """Truncate after the first request that triggers the target."""
        for cut in range(1, len(requests) + 1):
            if self._replay(dataset, requests[:cut]) is not None:
                return list(requests[:cut])
        # target not reproducible (flaky); keep everything
        return list(requests)

    def _drop_requests(self, dataset, requests):
        """Remove earlier requests one at a time, last-to-first."""
        kept = list(requests)
        for position in range(len(kept) - 2, -1, -1):
            candidate = kept[:position] + kept[position + 1:]
            if self._replay(dataset, candidate) is not None:
                kept = candidate
        return kept

    def _shrink_dataset(self, dataset, requests):
        current = dataset.copy()
        for _ in range(self.max_dataset_passes):
            shrunk = False
            for entity_name in current.rows:
                ids = list(current.rows[entity_name])
                chunk = max(len(ids) // 2, 1)
                while chunk >= 1 and ids:
                    position = 0
                    while position < len(ids):
                        batch = ids[position:position + chunk]
                        candidate = current.copy()
                        for entity_id in batch:
                            candidate.delete_entity(entity_name,
                                                    entity_id)
                        if self._replay(candidate, requests) is not None:
                            current = candidate
                            ids = [i for i in ids if i not in batch]
                            shrunk = True
                        else:
                            position += chunk
                    if chunk == 1:
                        break
                    chunk = max(chunk // 2, 1)
            if not shrunk:
                break
        return current


def shrink_divergence(model, recommendation, dataset, requests,
                      divergence, update_protocol="nose",
                      share_reads=False, engine_factory=None):
    """Minimize ``(requests, dataset)`` for one observed divergence.

    ``dataset`` must be the *initial* state the failing run started
    from (not the post-run mutated state); ``requests`` the sequence of
    ``(statement, params)`` pairs that was executed.  Returns a
    :class:`ShrunkRepro`.
    """
    shrinker = Shrinker(model, recommendation, divergence,
                        update_protocol=update_protocol,
                        share_reads=share_reads,
                        engine_factory=engine_factory)
    return shrinker.shrink(dataset, requests)
