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
    stores a dict of its key and value columns, in column order (a
    missing value column is ``None``): a copy on a put, the fresh row
    itself on a bulk :meth:`load`.  Each partition is a list of
    ``(key, row)`` records sorted by ``key``, the clustering tuple in
    :func:`~repro.workload.semantics.row_ordering_key` form (NULLS
    LAST), so bisection runs on plain tuple comparison.
    """

    def __init__(self, index, store):
        self.index = index
        self.name = index.key
        self._latency = store.latency
        self._metrics = store.metrics
        #: owning store, consulted for its optional recorder (one
        #: attribute read per charged operation when nothing records)
        self._store = store
        self._hash_ids = tuple(f.id for f in index.hash_fields)
        self._order_ids = tuple(f.id for f in index.order_fields)
        self._column_ids = self._hash_ids + self._order_ids + tuple(
            f.id for f in index.extra_fields)
        self._row_bytes = max(index.entry_size, 1)
        self._partition_of = _tuple_getter(self._hash_ids)
        self._clustering_of = _tuple_getter(self._order_ids)
        #: partition tuple -> sorted list of (clustering key, row)
        self._partitions = {}

    # -- row shredding -------------------------------------------------------

    def _keys_of(self, row):
        try:
            return self._partition_of(row), self._clustering_of(row)
        except KeyError as missing:
            raise ExecutionError(
                f"row is missing key column {missing} for {self.name}"
            ) from None

    def row_key(self, row):
        """The (partition, clustering) key tuple identifying a row."""
        return self._keys_of(row)

    def _copy(self, row):
        # a new dict per upsert: rows handed out by get stay snapshots
        columns = self._column_ids
        return dict(zip(columns, map(row.get, columns)))

    def _grouped(self, rows, copy):
        """``{partition: [(key, row), ...]}`` of ``rows`` in input order,
        each row copied by :meth:`_copy` when ``copy``.  Raises before
        anything is written when a row lacks a key column."""
        keys_of = self._keys_of
        grouped = {}
        for row in rows:
            partition, clustering = keys_of(row)
            record = (row_ordering_key(clustering),
                      self._copy(row) if copy else row)
            records = grouped.get(partition)
            if records is None:
                grouped[partition] = [record]
            else:
                records.append(record)
        return grouped

    def _write_grouped(self, grouped):
        """Upsert :meth:`_grouped` records; returns how many there were.

        A partition the column family does not hold yet is sorted once,
        keeping the last of equal keys as sequential upserts would; a
        partition that already holds records takes them one by one."""
        count = 0
        partitions = self._partitions
        for partition, records in grouped.items():
            count += len(records)
            bucket = partitions.get(partition)
            if bucket is None:
                partitions[partition] = (_sorted_last_wins(records)
                                         if len(records) > 1 else records)
            else:
                for record in records:
                    _write(bucket, record)
        return count

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

    def _charge_write(self, kind, rows, changed, partitions):
        """Meter one ``"put"`` or ``"delete"`` request of ``rows`` rows
        over ``partitions`` partitions, ``changed`` of them written or
        removed, and report it to the store's recorder."""
        metrics = self._metrics
        if kind == "put":
            metrics.puts += 1
            metrics.rows_written += changed
            elapsed = self._latency.put_time(rows)
        else:
            metrics.deletes += 1
            metrics.rows_deleted += changed
            elapsed = self._latency.delete_time(rows)
        metrics.partitions_touched += partitions
        metrics.simulated_ms += elapsed
        recorder = self._store.recorder
        if recorder is not None:
            recorder.observe_op(self.name, kind, rows=rows,
                                row_bytes=self._row_bytes, time_ms=elapsed)

    def put(self, row, charge=True):
        """Upsert one record (Cassandra put semantics)."""
        partition, clustering = self._keys_of(row)
        _write(self._partitions.setdefault(partition, []),
               (row_ordering_key(clustering), self._copy(row)))
        if charge:
            self._charge_write("put", 1, 1, 1)

    def put_many(self, rows, charge=True):
        """Batch upsert, charged as a single request.  All or nothing: a
        row missing a key column raises before any row is written."""
        grouped = self._grouped(rows, copy=True)
        count = self._write_grouped(grouped)
        if charge and count:
            self._charge_write("put", count, count, len(grouped))
        return count

    def load(self, rows):
        """Bulk-load fresh rows, unmetered; returns how many there were.

        Unlike :meth:`put_many` this keeps the row dicts themselves, so
        each must be a new dict of exactly this column family's columns
        in column order (``index.all_fields``), as
        :func:`~repro.backend.dataset.materialize_rows` builds them.
        All or nothing, like :meth:`put_many`."""
        return self._write_grouped(self._grouped(rows, copy=False))

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
            recorder = self._store.recorder
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
            self._charge_write("delete", 1, int(removed), 1)
        return removed

    def delete_many(self, rows, charge=True):
        """Batch delete, charged as a single request.  All or nothing: a
        row missing a key column raises before any record is removed."""
        batch = [self._keys_of(row) for row in rows]
        removed = sum(self._remove(partition, clustering)
                      for partition, clustering in batch)
        if charge and batch:
            self._charge_write("delete", len(batch), removed, len(
                {partition for partition, _ in batch}))
        return removed

    # -- introspection ---------------------------------------------------------------

    def rows(self):
        """Iterate all rows (unmetered; for tests and maintenance)."""
        for bucket in self._partitions.values():
            for _, row in bucket:
                yield row

    def partitions(self):
        """Iterate ``(partition, records)`` pairs, each partition's
        ``(key, row)`` records in stored order (unmetered; for checks).
        Callers must not mutate them."""
        return iter(self._partitions.items())

    @property
    def partition_count(self):
        return len(self._partitions)

    def __len__(self):
        return sum(len(bucket) for bucket in self._partitions.values())

    def __repr__(self):
        return (f"ColumnFamily({self.name}, partitions="
                f"{self.partition_count}, rows={len(self)})")


def _tuple_getter(ids):
    """A function reading the ``ids`` columns of a row as a tuple; it
    raises ``KeyError`` when the row lacks one."""
    if len(ids) > 1:
        return itemgetter(*ids)
    if ids:
        getter = itemgetter(*ids)
        return lambda row: (getter(row),)
    return lambda row: ()


def _write(bucket, record):
    """Upsert a ``(key, row)`` record into a sorted partition."""
    position = bisect_left(bucket, record[0], key=_KEY)
    if position < len(bucket) and bucket[position][0] == record[0]:
        bucket[position] = record
    else:
        bucket.insert(position, record)


def _sorted_last_wins(records):
    """``records`` sorted by key with one record per key, the last of
    equal keys; a stable sort keeps equal keys in input order."""
    records.sort(key=_KEY)
    unique = [record for record, following in zip(records, records[1:])
              if record[0] != following[0]]
    unique.append(records[-1])
    return unique


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
        #: optional recorder receiving one ``observe_op`` call per
        #: charged get, put and delete, set by its user (see
        #: :func:`repro.profile.profile_recommendation`); the execution
        #: engine never sets it
        self.recorder = None

    def create(self, index):
        """Create (or return) the column family backing an index."""
        if index.key not in self.column_families:
            self.column_families[index.key] = ColumnFamily(index, self)
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
