"""An in-memory extensible record store (the Cassandra substrate).

Implements the column-family model of §III-C: each
:class:`ColumnFamily` maps a partition key to records sorted by
clustering key, supporting exactly the get/put/delete surface the paper
assumes.  Every operation is metered (request counts, rows, bytes) and
charged simulated service time through a
:class:`~repro.backend.latency.LatencyModel`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from repro.backend.latency import LatencyModel
from repro.exceptions import ExecutionError
from repro.workload.semantics import NULL_KEY, ordering_key


def _clustering_key(clustering):
    """Comparable sort key for a clustering tuple (NULLS LAST; see
    repro.workload.semantics — the rule shared with client-side sorts
    and the reference interpreter)."""
    return tuple(ordering_key(value) for value in clustering)


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
    family extracts its partition tuple, clustering tuple, and value
    columns from them.
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
        self._extra_ids = tuple(f.id for f in index.extra_fields)
        self._key_ids = self._hash_ids + self._order_ids
        self._row_bytes = max(index.entry_size, 1)
        #: partition tuple -> sorted list of (clustering tuple, values)
        self._partitions = {}

    # -- row shredding -------------------------------------------------------

    def _keys_of(self, row):
        try:
            partition = tuple(row[field] for field in self._hash_ids)
            clustering = tuple(row[field] for field in self._order_ids)
        except KeyError as missing:
            raise ExecutionError(
                f"row is missing key column {missing} for {self.name}"
            ) from None
        return partition, clustering

    def _values_of(self, row):
        return {field: row.get(field) for field in self._extra_ids}

    def row_key(self, row):
        """The (partition, clustering) key tuple identifying a row."""
        return self._keys_of(row)

    def _as_row(self, partition, clustering, values):
        row = dict(zip(self._key_ids, partition + clustering))
        row.update(values)
        return row

    # -- operations --------------------------------------------------------------

    def _recorder(self):
        return self._store.recorder if self._store is not None else None

    def put(self, row, charge=True):
        """Upsert one record (Cassandra put semantics).  Returns the
        record's partition tuple (for batch partition accounting)."""
        partition, clustering = self._keys_of(row)
        bucket = self._partitions.setdefault(partition, [])
        position = bisect_left(bucket, _clustering_key(clustering),
                               key=lambda record: _clustering_key(
                                   record[0]))
        values = self._values_of(row)
        if position < len(bucket) and bucket[position][0] == clustering:
            bucket[position] = (clustering,
                                {**bucket[position][1], **values})
        else:
            insort(bucket, (clustering, values),
                   key=lambda record: _clustering_key(record[0]))
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
        return partition

    def put_many(self, rows, charge=True):
        """Batch upsert, charged as a single request."""
        count = 0
        partitions = set()
        for row in rows:
            partition = self.put(row, charge=False)
            count += 1
            if charge:
                partitions.add(partition)
        if charge and count:
            self._metrics.puts += 1
            self._metrics.rows_written += count
            self._metrics.partitions_touched += len(partitions)
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
        Returns full rows (key and value columns merged).
        """
        partition = tuple(partition)
        prefix = tuple(prefix)
        bucket = self._partitions.get(partition, [])
        width = len(prefix)
        prefix_key = _clustering_key(prefix)
        low = bisect_left(bucket, prefix_key,
                          key=lambda record: _clustering_key(
                              record[0][:width]))
        high = bisect_right(bucket, prefix_key,
                            key=lambda record: _clustering_key(
                                record[0][:width]))
        scanned = high - low
        selected = bucket[low:high]
        if range_filter is not None:
            operator, bound = range_filter
            component = width
            if component >= len(self._order_ids):
                raise ExecutionError(
                    f"no clustering component {component} to range-scan "
                    f"in {self.name}")
            selected = _range_restrict(selected, component, operator,
                                       bound)
        if limit is not None:
            selected = selected[:limit]
        rows = [self._as_row(partition, clustering, values)
                for clustering, values in selected]
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
        partition, clustering = self._keys_of(row)
        bucket = self._partitions.get(partition)
        removed = False
        if bucket:
            position = bisect_left(bucket, _clustering_key(clustering),
                                   key=lambda record: _clustering_key(
                                       record[0]))
            if position < len(bucket) and bucket[position][0] == clustering:
                del bucket[position]
                removed = True
                if not bucket:
                    del self._partitions[partition]
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
        """Batch delete, charged as a single request."""
        removed = 0
        rows = list(rows)
        partitions = set()
        for row in rows:
            removed += self.delete_row(row, charge=False)
            if charge:
                partitions.add(self._keys_of(row)[0])
        if charge and rows:
            self._metrics.deletes += 1
            self._metrics.rows_deleted += removed
            self._metrics.partitions_touched += len(partitions)
            elapsed = self._latency.delete_time(len(rows))
            self._metrics.simulated_ms += elapsed
            recorder = self._recorder()
            if recorder is not None:
                recorder.observe_op(self.name, "delete", rows=len(rows),
                                    row_bytes=self._row_bytes,
                                    time_ms=elapsed)
        return removed

    # -- introspection ---------------------------------------------------------------

    def rows(self):
        """Iterate all rows (unmetered; for tests and maintenance)."""
        for partition, bucket in self._partitions.items():
            for clustering, values in bucket:
                yield self._as_row(partition, clustering, values)

    @property
    def partition_count(self):
        return len(self._partitions)

    def __len__(self):
        return sum(len(bucket) for bucket in self._partitions.values())

    def __repr__(self):
        return (f"ColumnFamily({self.name}, partitions="
                f"{self.partition_count}, rows={len(self)})")


def _range_restrict(records, component, operator, bound):
    """Restrict a clustering-sorted block on one sorted component.

    Follows the canonical NULL rule: a NULL bound matches nothing, and
    NULL component values (sorted last) never satisfy a range.
    """
    if bound is None:
        return []
    keys = [ordering_key(record[0][component]) for record in records]
    bound_key = ordering_key(bound)
    # NULL components sort after every bound, so they must be cut from
    # the tail of any lower-bounded scan
    nulls_start = bisect_left(keys, NULL_KEY)
    if operator == ">":
        return records[bisect_right(keys, bound_key):nulls_start]
    if operator == ">=":
        return records[bisect_left(keys, bound_key):nulls_start]
    if operator == "<":
        return records[:bisect_left(keys, bound_key)]
    if operator == "<=":
        return records[:bisect_right(keys, bound_key)]
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
