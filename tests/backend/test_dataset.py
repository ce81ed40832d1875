"""Unit tests for the ground-truth dataset and join materialization."""

import pytest

from repro.backend import Dataset, materialize_rows
from repro.exceptions import ExecutionError, ModelError
from repro.indexes import Index, entity_fetch_index
from repro.workload import parse_statement


@pytest.fixture()
def hotel():
    """A private model instance — some tests mutate entity counts."""
    from repro.demo import hotel_model
    return hotel_model()


@pytest.fixture()
def tiny(hotel):
    """Two hotels, four rooms, two guests, four reservations."""
    dataset = Dataset(hotel)
    for h in range(2):
        dataset.add_row("Hotel", {"HotelID": h, "HotelName": f"h{h}",
                                  "HotelCity": "boston" if h == 0
                                  else "chicago",
                                  "HotelState": "MA",
                                  "HotelAddress": "x",
                                  "HotelPhone": "y"})
    for r in range(4):
        dataset.add_row("Room", {"RoomID": r, "RoomNumber": r,
                                 "RoomRate": 100.0 * (r + 1)})
        dataset.connect("Hotel", r % 2, "Rooms", r)
    for g in range(2):
        dataset.add_row("Guest", {"GuestID": g, "GuestName": f"g{g}",
                                  "GuestEmail": f"g{g}@x"})
    import datetime
    day = datetime.datetime(2016, 1, 1)
    for i in range(4):
        dataset.add_row("Reservation", {"ResID": i, "ResStartDate": day,
                                        "ResEndDate": day})
        dataset.connect("Room", i, "Reservations", i)
        dataset.connect("Guest", i % 2, "Reservations", i)
    return dataset


def test_add_row_requires_primary_key(hotel):
    dataset = Dataset(hotel)
    with pytest.raises(ModelError):
        dataset.add_row("Hotel", {"HotelName": "x"})
    with pytest.raises(ModelError):
        dataset.add_row("Hotel", {"HotelID": 1, "Rooms": 2})


def test_bad_names_raise_after_the_name_cache_is_warm(tiny):
    # building tiny resolved every Hotel attribute and Hotel.Rooms
    with pytest.raises(ModelError, match="no attribute 'HotelStars'"):
        tiny.add_row("Hotel", {"HotelID": 9, "HotelStars": 5})
    # a foreign key is not an attribute, under either spelling
    with pytest.raises(ModelError, match="no attribute 'Rooms'"):
        tiny.add_row("Hotel", {"HotelID": 9, "Rooms": 2})
    with pytest.raises(ModelError, match="no attribute 'Hotel.Rooms'"):
        tiny.add_row("Hotel", {"HotelID": 9, "Hotel.Rooms": 2})
    with pytest.raises(ModelError, match="missing its primary key"):
        tiny.add_row("Hotel", {"HotelName": "x"})
    with pytest.raises(ModelError, match="Hotel.HotelName is not a "
                                         "relationship"):
        tiny.connect("Hotel", 0, "HotelName", 1)
    assert 9 not in tiny.rows["Hotel"]
    row = tiny.add_row("Hotel", {"Hotel.HotelID": 9, "HotelName": "h9"})
    assert row == {"Hotel.HotelID": 9, "Hotel.HotelName": "h9"}


def test_row_lookup(tiny, hotel):
    row = tiny.row(hotel.entity("Hotel"), 0)
    assert row["Hotel.HotelCity"] == "boston"
    with pytest.raises(ExecutionError):
        tiny.row(hotel.entity("Hotel"), 99)


def test_related_follows_both_directions(tiny, hotel):
    rooms_fk = hotel.entity("Hotel")["Rooms"]
    assert tiny.related(rooms_fk, 0) == {0, 2}
    back = hotel.entity("Room")["Hotel"]
    assert tiny.related(back, 2) == {0}


def test_disconnect_removes_both_directions(tiny, hotel):
    tiny.disconnect("Hotel", 0, "Rooms", 2)
    assert tiny.related(hotel.entity("Hotel")["Rooms"], 0) == {0}
    assert tiny.related(hotel.entity("Room")["Hotel"], 2) == set()


def test_delete_entity_cleans_links(tiny, hotel):
    tiny.delete_entity("Room", 0)
    assert 0 not in tiny.rows["Room"]
    assert tiny.related(hotel.entity("Hotel")["Rooms"], 0) == {2}
    reservations = hotel.entity("Room")["Reservations"]
    assert tiny.related(reservations, 0) == set()


def test_join_tuples_full(tiny, hotel):
    path = hotel.path(["Hotel", "Rooms"])
    tuples = tiny.join_tuples(path)
    assert sorted(tuples) == [(0, 0), (0, 2), (1, 1), (1, 3)]


def test_join_tuples_anchored_tail(tiny, hotel):
    path = hotel.path(["Hotel", "Rooms"])
    tuples = tiny.join_tuples(path, anchor_position=1, anchor_ids=[2])
    assert tuples == [(0, 2)]


def test_join_tuples_anchored_middle(tiny, hotel):
    path = hotel.path(["Hotel", "Rooms", "Reservations"])
    tuples = tiny.join_tuples(path, anchor_position=1, anchor_ids=[1])
    assert tuples == [(1, 1, 1)]


def test_matching_ids_by_primary_key(tiny, hotel):
    delete = parse_statement(hotel,
                             "DELETE FROM Guest WHERE Guest.GuestID = ?g")
    assert tiny.matching_ids(delete, {"g": 1}) == [1]
    assert tiny.matching_ids(delete, {"g": 42}) == []


def test_matching_ids_through_path(tiny, hotel):
    query = parse_statement(
        hotel,
        "SELECT Guest.GuestName FROM Guest WHERE "
        "Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")
    # boston rooms are 0 (rate 100) and 2 (rate 300); reservations 0, 2
    # belong to guest 0
    assert tiny.matching_ids(query, {"city": "boston",
                                     "rate": 150.0}) == [0]
    assert tiny.matching_ids(query, {"city": "boston",
                                     "rate": 500.0}) == []


def test_evaluate_query_projects_select(tiny, hotel):
    query = parse_statement(
        hotel,
        "SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city")
    results = tiny.evaluate_query(query, {"city": "chicago"})
    assert results == {("g1", "g1@x")}


def test_apply_update(tiny, hotel):
    update = parse_statement(
        hotel, "UPDATE Room SET RoomRate = ?rate WHERE Room.RoomID = ?r")
    affected = tiny.apply(update, {"rate": 999.0, "r": 0})
    assert affected == [0]
    assert tiny.rows["Room"][0]["Room.RoomRate"] == 999.0


def test_apply_insert_with_connections(tiny, hotel):
    insert = parse_statement(
        hotel,
        "INSERT INTO Room SET RoomID = ?, RoomNumber = ?n, "
        "RoomRate = ?rate AND CONNECT TO Hotel(?h)")
    affected = tiny.apply(insert, {"RoomID": 77, "n": 7, "rate": 70.0,
                                   "h": 1})
    assert affected == [77]
    assert tiny.related(hotel.entity("Hotel")["Rooms"], 1) == {1, 3, 77}


def test_apply_delete(tiny, hotel):
    delete = parse_statement(hotel,
                             "DELETE FROM Guest WHERE Guest.GuestID = ?g")
    assert tiny.apply(delete, {"g": 0}) == [0]
    assert 0 not in tiny.rows["Guest"]


def test_apply_connect_and_disconnect(tiny, hotel):
    connect = parse_statement(hotel,
                              "CONNECT Guest(?g) TO Reservations(?r)")
    tiny.apply(connect, {"g": 0, "r": 1})
    reservations = hotel.entity("Guest")["Reservations"]
    assert 1 in tiny.related(reservations, 0)
    disconnect = parse_statement(
        hotel, "DISCONNECT Guest(?g) FROM Reservations(?r)")
    tiny.apply(disconnect, {"g": 0, "r": 1})
    assert 1 not in tiny.related(reservations, 0)


def test_apply_rejects_queries(tiny, hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?g")
    with pytest.raises(ExecutionError):
        tiny.apply(query, {"g": 0})


def test_materialize_rows_full(tiny, hotel):
    city = hotel.field("Hotel", "HotelCity")
    rate = hotel.field("Room", "RoomRate")
    room_id = hotel.field("Room", "RoomID")
    index = Index((city,), (rate, room_id), (),
                  hotel.path(["Hotel", "Rooms"]))
    rows = materialize_rows(tiny, index)
    assert len(rows) == 4
    assert {row["Room.RoomID"] for row in rows} == {0, 1, 2, 3}
    assert all(set(row) == {"Hotel.HotelCity", "Room.RoomRate",
                            "Room.RoomID"} for row in rows)


def test_materialize_rows_anchored(tiny, hotel):
    index = entity_fetch_index(hotel.entity("Room"))
    rows = materialize_rows(tiny, index,
                            anchor_entity=hotel.entity("Room"),
                            anchor_ids=[1])
    assert len(rows) == 1
    assert rows[0]["Room.RoomID"] == 1


def test_materialize_rows_for_absent_anchor_entity(tiny, hotel):
    index = entity_fetch_index(hotel.entity("Room"))
    rows = materialize_rows(tiny, index,
                            anchor_entity=hotel.entity("Guest"),
                            anchor_ids=[0])
    assert rows == []


def test_sync_counts(tiny, hotel):
    tiny.sync_counts()
    assert hotel.entity("Room").count == 4
    assert hotel.entity("Guest").count == 2
