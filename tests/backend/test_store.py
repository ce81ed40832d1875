"""Unit tests for the in-memory extensible record store."""

import pytest

from repro.backend import LatencyModel, Store
from repro.exceptions import ExecutionError
from repro.indexes import Index


@pytest.fixture()
def store():
    return Store()


@pytest.fixture()
def rooms_cf(hotel, store):
    city = hotel.field("Hotel", "HotelCity")
    rate = hotel.field("Room", "RoomRate")
    room_id = hotel.field("Room", "RoomID")
    index = Index((city,), (rate, room_id), (),
                  hotel.path(["Hotel", "Rooms"]))
    cf = store.create(index)
    for i, (rate_value, room) in enumerate(
            [(100.0, 1), (150.0, 2), (150.0, 3), (200.0, 4)]):
        cf.put({"Hotel.HotelCity": "boston", "Room.RoomRate": rate_value,
                "Room.RoomID": room})
    cf.put({"Hotel.HotelCity": "chicago", "Room.RoomRate": 300.0,
            "Room.RoomID": 9})
    return cf


def test_create_is_idempotent(hotel, store, rooms_cf):
    assert store.create(rooms_cf.index) is rooms_cf
    assert rooms_cf.index.key in store
    assert store[rooms_cf.index.key] is rooms_cf


def test_missing_cf_raises(store):
    with pytest.raises(ExecutionError):
        store["nope"]


def test_get_whole_partition(rooms_cf):
    rows = rooms_cf.get(("boston",))
    assert len(rows) == 4
    rates = [row["Room.RoomRate"] for row in rows]
    assert rates == sorted(rates)


def test_get_missing_partition_is_empty(rooms_cf):
    assert rooms_cf.get(("atlantis",)) == []


def test_get_with_clustering_prefix(rooms_cf):
    rows = rooms_cf.get(("boston",), prefix=(150.0,))
    assert {row["Room.RoomID"] for row in rows} == {2, 3}


def test_get_with_range(rooms_cf):
    rows = rooms_cf.get(("boston",), range_filter=(">", 100.0))
    assert {row["Room.RoomID"] for row in rows} == {2, 3, 4}
    rows = rooms_cf.get(("boston",), range_filter=(">=", 150.0))
    assert {row["Room.RoomID"] for row in rows} == {2, 3, 4}
    rows = rooms_cf.get(("boston",), range_filter=("<", 150.0))
    assert {row["Room.RoomID"] for row in rows} == {1}
    rows = rooms_cf.get(("boston",), range_filter=("<=", 150.0))
    assert {row["Room.RoomID"] for row in rows} == {1, 2, 3}


def test_get_with_bad_range_component(rooms_cf):
    with pytest.raises(ExecutionError):
        rooms_cf.get(("boston",), prefix=(150.0, 2),
                     range_filter=(">", 1))
    with pytest.raises(ExecutionError):
        rooms_cf.get(("boston",), range_filter=("~", 1))


def test_get_with_limit(rooms_cf):
    rows = rooms_cf.get(("boston",), limit=2)
    assert len(rows) == 2
    assert rows[0]["Room.RoomRate"] <= rows[1]["Room.RoomRate"]


def test_put_upserts_values(hotel, store):
    guest_id = hotel.field("Guest", "GuestID")
    name = hotel.field("Guest", "GuestName")
    index = Index((guest_id,), (), (name,), hotel.path(["Guest"]))
    cf = store.create(index)
    cf.put({"Guest.GuestID": 1, "Guest.GuestName": "ada"})
    cf.put({"Guest.GuestID": 1, "Guest.GuestName": "grace"})
    rows = cf.get((1,))
    assert len(rows) == 1
    assert rows[0]["Guest.GuestName"] == "grace"


def test_put_missing_key_column_raises(rooms_cf):
    with pytest.raises(ExecutionError):
        rooms_cf.put({"Hotel.HotelCity": "boston"})


def test_delete_row(rooms_cf):
    row = {"Hotel.HotelCity": "boston", "Room.RoomRate": 100.0,
           "Room.RoomID": 1}
    assert rooms_cf.delete_row(row)
    assert not rooms_cf.delete_row(row)  # already gone
    assert len(rooms_cf.get(("boston",))) == 3


def test_delete_last_row_drops_partition(rooms_cf):
    rooms_cf.delete_row({"Hotel.HotelCity": "chicago",
                         "Room.RoomRate": 300.0, "Room.RoomID": 9})
    assert rooms_cf.partition_count == 1


def test_batch_operations_count_one_request(hotel, store, rooms_cf):
    metrics = store.metrics
    metrics.reset()
    rows = [{"Hotel.HotelCity": "denver", "Room.RoomRate": float(i),
             "Room.RoomID": 100 + i} for i in range(5)]
    rooms_cf.put_many(rows)
    assert metrics.puts == 1
    assert metrics.rows_written == 5
    rooms_cf.delete_many(rows)
    assert metrics.deletes == 1
    assert metrics.rows_deleted == 5


def test_metrics_and_latency_accumulate(rooms_cf, store):
    store.reset_metrics()
    rooms_cf.get(("boston",))
    metrics = store.metrics
    assert metrics.gets == 1
    assert metrics.rows_read == 4
    assert metrics.rows_scanned == 4
    assert metrics.bytes_read > 0
    assert metrics.simulated_ms > 0
    snapshot = metrics.snapshot()
    assert snapshot["gets"] == 1


def test_partitions_touched_counts_distinct_partitions(hotel, store,
                                                       rooms_cf):
    metrics = store.metrics
    metrics.reset()
    rooms_cf.get(("boston",))
    assert metrics.partitions_touched == 1
    # a batch spanning two partitions touches two, charged once
    rows = [{"Hotel.HotelCity": city, "Room.RoomRate": 50.0,
             "Room.RoomID": 200 + i}
            for i, city in enumerate(["miami", "miami", "austin"])]
    rooms_cf.put_many(rows)
    assert metrics.partitions_touched == 3
    rooms_cf.delete_many(rows)
    assert metrics.partitions_touched == 5


class _RecordingStore:
    """Captures observe_op calls the way a flight recorder would."""

    def __init__(self):
        self.calls = []

    def observe_op(self, name, kind, **details):
        self.calls.append((name, kind, details))


def test_store_recorder_sees_every_charged_operation(rooms_cf, store):
    recorder = _RecordingStore()
    store.recorder = recorder
    rooms_cf.get(("boston",))
    row = {"Hotel.HotelCity": "boston", "Room.RoomRate": 99.0,
           "Room.RoomID": 77}
    rooms_cf.put(row)
    rooms_cf.delete_row(row)
    rooms_cf.get(("boston",), charge=False)  # uncharged: not observed
    kinds = [(kind, details["rows"])
             for _name, kind, details in recorder.calls]
    assert kinds == [("get", 4), ("put", 1), ("delete", 1)]
    get_details = recorder.calls[0][2]
    assert get_details["returned"] == 4
    assert get_details["bytes_read"] > 0
    assert get_details["time_ms"] > 0


def test_uncharged_operations_do_not_meter(rooms_cf, store):
    store.reset_metrics()
    rooms_cf.get(("boston",), charge=False)
    assert store.metrics.gets == 0
    assert store.metrics.simulated_ms == 0.0


def test_latency_model_components():
    latency = LatencyModel(get_base=1.0, row_scan=0.1, byte_transfer=0.01,
                           put_base=2.0, put_row=0.5, delete_base=3.0,
                           delete_row=0.25)
    assert latency.get_time(10, 100) == pytest.approx(1 + 1 + 1)
    assert latency.put_time(4) == pytest.approx(4.0)
    assert latency.delete_time(4) == pytest.approx(4.0)


def test_rows_iterator_and_len(rooms_cf):
    assert len(rooms_cf) == 5
    assert len(list(rooms_cf.rows())) == 5
    assert rooms_cf.partition_count == 2
    assert "rows=5" in repr(rooms_cf)


def test_store_totals(store, rooms_cf):
    assert store.total_rows == 5
    store.drop(rooms_cf.index)
    assert store.total_rows == 0


def test_put_many_with_a_malformed_row_writes_nothing(rooms_cf, store):
    before = list(rooms_cf.rows())
    store.reset_metrics()
    good = {"Hotel.HotelCity": "boston", "Room.RoomRate": 120.0,
            "Room.RoomID": 5}
    with pytest.raises(ExecutionError):
        rooms_cf.put_many([good, {"Hotel.HotelCity": "boston"}])
    assert list(rooms_cf.rows()) == before
    assert store.metrics.puts == 0


def test_delete_many_with_a_malformed_row_removes_nothing(rooms_cf, store):
    before = list(rooms_cf.rows())
    store.reset_metrics()
    with pytest.raises(ExecutionError):
        rooms_cf.delete_many([before[0], {"Room.RoomID": 1}])
    assert list(rooms_cf.rows()) == before
    assert store.metrics.deletes == 0
