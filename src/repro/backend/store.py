"""An in-memory extensible record store (the Cassandra substrate).

Implements the column-family model of §III-C: each
:class:`ColumnFamily` maps a partition key to records sorted by
clustering key, supporting exactly the get/put/delete surface the paper
assumes.  Every operation is metered (request counts, rows, bytes) and
charged simulated service time through a
:class:`~repro.backend.latency.LatencyModel`.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from repro.backend.latency import LatencyModel
from repro.exceptions import ExecutionError
from repro.workload.semantics import END, NULL, row_ordering_key

#: a record's sort key: records are ``(key, row)`` pairs
_KEY = itemgetter(0)


class StoreMetrics:
    """Operation counters and accumulated simulated time (ms)."""

    __slots__ = ("gets", "puts", "deletes", "rows_read", "rows_scanned",
                 "rows_written", "rows_deleted", "bytes_read",
                 "partitions_touched", "simulated_ms")

    def __init__(self):
        self.reset()

    def reset(self):
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.rows_read = 0
        self.rows_scanned = 0
        self.rows_written = 0
        self.rows_deleted = 0
        self.bytes_read = 0
        self.partitions_touched = 0
        self.simulated_ms = 0.0

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (f"StoreMetrics(gets={self.gets}, puts={self.puts}, "
                f"rows_read={self.rows_read}, "
                f"simulated_ms={self.simulated_ms:.3f})")


class ColumnFamily:
    """One table: partition key -> clustering-key-sorted records.

    Rows are supplied as ``{field_id: value}`` dictionaries; the column
    family extracts its partition and clustering tuples from them and
    stores a new dict of its key and value columns (a missing value
    column is ``None``).  Each partition is a list of ``(key, row)``
    records sorted by ``key``, the clustering tuple in
    :func:`~repro.workload.semantics.row_ordering_key` form (NULLS
    LAST), so bisection runs on plain tuple comparison.
    """

    def __init__(self, index, latency, metrics, store=None):
        self.index = index
        self.name = index.key
        self._latency = latency
        self._metrics = metrics
        #: owning store, consulted for the optional per-op flight
        #: recorder (one attribute read per charged operation when
        #: nothing is recording)
        self._store = store
        self._hash_ids = tuple(f.id for f in index.hash_fields)
        self._order_ids = tuple(f.id for f in index.order_fields)
        self._column_ids = self._hash_ids + self._order_ids + tuple(
            f.id for f in index.extra_fields)
        self._row_bytes = max(index.entry_size, 1)
        #: partition tuple -> sorted list of (clustering key, row)
        self._partitions = {}

    # -- row shredding -------------------------------------------------------

    def _keys_of(self, row):
        try:
            partition = tuple(map(row.__getitem__, self._hash_ids))
            clustering = tuple(map(row.__getitem__, self._order_ids))
        except KeyError as missing:
            raise ExecutionError(
                f"row is missing key column {missing} for {self.name}"
            ) from None
        return partition, clustering

    def row_key(self, row):
        """The (partition, clustering) key tuple identifying a row."""
        return self._keys_of(row)

    def _write(self, partition, clustering, row):
        # a new dict per upsert: rows handed out by get stay snapshots
        columns = self._column_ids
        record = (row_ordering_key(clustering),
                  dict(zip(columns, map(row.get, columns))))
        bucket = self._partitions.setdefault(partition, [])
        position = bisect_left(bucket, record[0], key=_KEY)
        if position < len(bucket) and bucket[position][0] == record[0]:
            bucket[position] = record
        else:
            bucket.insert(position, record)

    def _remove(self, partition, clustering):
        bucket = self._partitions.get(partition)
        if not bucket:
            return False
        key = row_ordering_key(clustering)
        position = bisect_left(bucket, key, key=_KEY)
        if position == len(bucket) or bucket[position][0] != key:
            return False
        del bucket[position]
        if not bucket:
            del self._partitions[partition]
        return True

    # -- operations --------------------------------------------------------------

    def _recorder(self):
        return self._store.recorder if self._store is not None else None

    def put(self, row, charge=True):
        """Upsert one record (Cassandra put semantics)."""
        partition, clustering = self._keys_of(row)
        self._write(partition, clustering, row)
        if charge:
            self._metrics.puts += 1
            self._metrics.rows_written += 1
            self._metrics.partitions_touched += 1
            elapsed = self._latency.put_time(1)
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "put", rows=1,
                                    row_bytes=self._row_bytes,
                                    time_ms=elapsed)

    def put_many(self, rows, charge=True):
        """Batch upsert, charged as a single request.  All or nothing: a
        row missing a key column raises before any row is written."""
        batch = [(self._keys_of(row), row) for row in rows]
        for (partition, clustering), row in batch:
            self._write(partition, clustering, row)
        count = len(batch)
        if charge and count:
            self._metrics.puts += 1
            self._metrics.rows_written += count
            self._metrics.partitions_touched += len(
                {keys[0] for keys, _ in batch})
            elapsed = self._latency.put_time(count)
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "put", rows=count,
                                    row_bytes=self._row_bytes,
                                    time_ms=elapsed)
        return count

    def get(self, partition, prefix=(), range_filter=None, limit=None,
            charge=True):
        """One get request: all records of a partition whose clustering
        key extends ``prefix``, optionally range-restricted on the next
        clustering component.

        ``range_filter`` is ``(operator, value)`` with operator one of
        ``> >= < <=`` applied to clustering component ``len(prefix)``.
        Returns full rows (key and value columns), in clustering order.

        The rows are the store's own row dicts, not copies: callers must
        not mutate them.  An upsert replaces a record's row with a new
        dict and a delete drops it, so a returned row stays a valid
        snapshot of the record as it was read.
        """
        bucket = self._partitions.get(tuple(partition), ())
        prefix = row_ordering_key(prefix)
        if prefix:
            low = bisect_left(bucket, prefix, key=_KEY)
            high = bisect_left(bucket, prefix + (END,), low, key=_KEY)
        else:
            low, high = 0, len(bucket)
        scanned = high - low
        if range_filter is not None:
            if len(prefix) >= len(self._order_ids):
                raise ExecutionError(
                    f"no clustering component {len(prefix)} to "
                    f"range-scan in {self.name}")
            low, high = _range_restrict(bucket, low, high, prefix,
                                        *range_filter)
        if limit is not None:
            high = min(high, low + limit)
        rows = [row for _, row in bucket[low:high]]
        if charge:
            self._metrics.gets += 1
            self._metrics.rows_read += len(rows)
            self._metrics.rows_scanned += scanned
            self._metrics.partitions_touched += 1
            returned_bytes = len(rows) * self._row_bytes
            self._metrics.bytes_read += returned_bytes
            elapsed = self._latency.get_time(scanned, returned_bytes)
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "get", rows=scanned,
                                    returned=len(rows),
                                    row_bytes=self._row_bytes,
                                    bytes_read=returned_bytes,
                                    time_ms=elapsed)
        return rows

    def delete_row(self, row, charge=True):
        """Remove one record identified by its key columns; no-op if
        absent. Returns True when a record was removed."""
        removed = self._remove(*self._keys_of(row))
        if charge:
            self._metrics.deletes += 1
            self._metrics.rows_deleted += 1 if removed else 0
            self._metrics.partitions_touched += 1
            elapsed = self._latency.delete_time(1)
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "delete", rows=1,
                                    row_bytes=self._row_bytes,
                                    time_ms=elapsed)
        return removed

    def delete_many(self, rows, charge=True):
        """Batch delete, charged as a single request.  All or nothing: a
        row missing a key column raises before any record is removed."""
        batch = [self._keys_of(row) for row in rows]
        removed = sum(self._remove(partition, clustering)
                      for partition, clustering in batch)
        if charge and batch:
            self._metrics.deletes += 1
            self._metrics.rows_deleted += removed
            self._metrics.partitions_touched += len(
                {partition for partition, _ in batch})
            elapsed = self._latency.delete_time(len(batch))
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "delete", rows=len(batch),
                                    row_bytes=self._row_bytes,
                                    time_ms=elapsed)
        return removed

    # -- introspection ---------------------------------------------------------------

    def rows(self):
        """Iterate all rows (unmetered; for tests and maintenance)."""
        for bucket in self._partitions.values():
            for _, row in bucket:
                yield row

    @property
    def partition_count(self):
        return len(self._partitions)

    def __len__(self):
        return sum(len(bucket) for bucket in self._partitions.values())

    def __repr__(self):
        return (f"ColumnFamily({self.name}, partitions="
                f"{self.partition_count}, rows={len(self)})")


def _range_restrict(bucket, low, high, prefix, operator, bound):
    """Narrow ``bucket[low:high]``, the records extending ``prefix``, on
    clustering component ``len(prefix)``; returns the new bounds.

    Follows the canonical NULL rule: a NULL bound matches nothing, and
    NULL component values (sorted last) never satisfy a range.
    """
    if bound is None:
        return low, low
    # cut the NULL components from the tail of every scan
    high = bisect_left(bucket, prefix + (NULL,), low, high, key=_KEY)
    # (bound,) sorts before and (bound, END) after every key whose
    # component equals bound
    if operator == ">":
        return bisect_left(bucket, prefix + (bound, END), low, high,
                           key=_KEY), high
    if operator == ">=":
        return bisect_left(bucket, prefix + (bound,), low, high,
                           key=_KEY), high
    if operator == "<":
        return low, bisect_left(bucket, prefix + (bound,), low, high,
                                key=_KEY)
    if operator == "<=":
        return low, bisect_left(bucket, prefix + (bound, END), low, high,
                                key=_KEY)
    raise ExecutionError(f"unsupported range operator {operator!r}")


class Store:
    """A collection of column families sharing metrics and a latency
    model — the simulated record-store cluster."""

    def __init__(self, latency=None):
        self.latency = latency or LatencyModel()
        self.metrics = StoreMetrics()
        self.column_families = {}
        #: optional flight recorder receiving one ``observe_op`` call
        #: per charged operation (see :mod:`repro.profile`)
        self.recorder = None

    def create(self, index):
        """Create (or return) the column family backing an index."""
        if index.key not in self.column_families:
            self.column_families[index.key] = ColumnFamily(
                index, self.latency, self.metrics, store=self)
        return self.column_families[index.key]

    def drop(self, index):
        self.column_families.pop(index.key, None)

    def __getitem__(self, key):
        try:
            return self.column_families[key]
        except KeyError:
            raise ExecutionError(f"no column family {key!r}") from None

    def __contains__(self, key):
        return key in self.column_families

    @property
    def total_rows(self):
        return sum(len(cf) for cf in self.column_families.values())

    def reset_metrics(self):
        self.metrics.reset()

    def __repr__(self):
        return (f"Store(column_families={len(self.column_families)}, "
                f"rows={self.total_rows})")
