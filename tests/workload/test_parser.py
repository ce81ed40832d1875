"""Unit tests for the statement parser."""

import re

import pytest

from repro.exceptions import ParseError
from repro.workload import (
    Connect,
    Delete,
    Disconnect,
    Insert,
    Query,
    Update,
    parse_statement,
)

FIG3 = ("SELECT Guest.GuestName, Guest.GuestEmail FROM Guest "
        "WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city "
        "AND Guest.Reservations.Room.RoomRate > ?rate")


def test_fig3_query_parses(hotel):
    query = parse_statement(hotel, FIG3)
    assert isinstance(query, Query)
    assert [f.name for f in query.select] == ["GuestName", "GuestEmail"]
    assert str(query.key_path) == "Guest.Reservations.Room.Hotel"
    assert len(query.eq_conditions) == 1
    assert query.eq_conditions[0].field.id == "Hotel.HotelCity"
    assert query.eq_conditions[0].parameter == "city"
    assert query.range_condition.field.id == "Room.RoomRate"
    assert query.range_condition.operator == ">"


def test_entity_name_path_components(hotel):
    # Fig 3 writes the path with entity names; the model uses the
    # relationship name "Reservations"
    query = parse_statement(
        hotel,
        "SELECT Guest.GuestName FROM Guest "
        "WHERE Guest.Reservation.Room.Hotel.HotelCity = ?")
    assert str(query.key_path) == "Guest.Reservations.Room.Hotel"


def test_path_in_from_clause(hotel):
    query = parse_statement(
        hotel,
        "SELECT Room.RoomRate FROM Room.Hotel.PointsOfInterest "
        "WHERE Room.RoomNumber = ?floor "
        "AND PointOfInterest.POIID = ?id")
    assert str(query.key_path) == "Room.Hotel.PointsOfInterest"
    assert query.entity.name == "Room"


def test_star_select_expands_attributes(hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.* FROM Guest "
                            "WHERE Guest.GuestID = ?")
    names = {field.name for field in query.select}
    assert names == {"GuestID", "GuestName", "GuestEmail"}


def test_order_by_and_limit(hotel):
    query = parse_statement(
        hotel,
        "SELECT Hotel.HotelName FROM Hotel "
        "WHERE Hotel.HotelCity = ? ORDER BY Hotel.HotelName LIMIT 10")
    assert [f.name for f in query.order_by] == ["HotelName"]
    assert query.limit == 10


def test_anonymous_parameters_use_field_name(hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?")
    assert query.conditions[0].parameter == "GuestID"


def test_insert_with_connections(hotel):
    statement = parse_statement(
        hotel,
        "INSERT INTO Reservation SET ResID = ?, ResStartDate = ?start "
        "AND CONNECT TO Guest(?guest), Room(?room)")
    assert isinstance(statement, Insert)
    assert {f.name for f in statement.set_fields} >= {"ResID",
                                                      "ResStartDate"}
    assert [(k.name, p) for k, p in statement.connections] == [
        ("Guest", "guest"), ("Room", "room")]


def test_insert_adds_missing_primary_key(hotel):
    statement = parse_statement(
        hotel, "INSERT INTO Guest SET GuestName = ?name")
    id_field = hotel.field("Guest", "GuestID")
    assert id_field in statement.settings


def test_update_with_from_path(hotel):
    statement = parse_statement(
        hotel,
        "UPDATE Room FROM Room.Hotel SET RoomRate = ?rate "
        "WHERE Hotel.HotelID = ?hotel")
    assert isinstance(statement, Update)
    assert str(statement.key_path) == "Room.Hotel"
    assert [f.name for f in statement.set_fields] == ["RoomRate"]


def test_update_without_from_extends_path(hotel):
    statement = parse_statement(
        hotel,
        "UPDATE PointOfInterest SET POIName = ? "
        "WHERE PointOfInterest.POIID = ?")
    assert len(statement.key_path) == 1


def test_update_from_must_start_at_entity(hotel):
    with pytest.raises(ParseError):
        parse_statement(hotel,
                        "UPDATE Room FROM Hotel.Rooms SET RoomRate = ? "
                        "WHERE Room.RoomID = ?")


def test_delete(hotel):
    statement = parse_statement(
        hotel, "DELETE FROM Guest WHERE Guest.GuestID = ?guest")
    assert isinstance(statement, Delete)
    assert statement.entity.name == "Guest"


def test_connect_and_disconnect(hotel):
    connect = parse_statement(
        hotel, "CONNECT Guest(?guest) TO Reservations(?res)")
    assert isinstance(connect, Connect)
    assert not connect.removes_link
    assert connect.relationship.name == "Reservations"
    disconnect = parse_statement(
        hotel, "DISCONNECT Guest(?guest) FROM Reservations(?res)")
    assert isinstance(disconnect, Disconnect)
    assert disconnect.removes_link


def test_connect_by_entity_name(hotel):
    connect = parse_statement(
        hotel, "CONNECT Room(?room) TO Hotel(?hotel)")
    assert connect.relationship.entity.name == "Hotel"


@pytest.mark.parametrize("text", [
    "",
    "FROBNICATE Guest",
    "SELECT FROM Guest",
    "SELECT Guest.GuestName FROM Guest WHERE",
    "SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID ~ ?",
    "SELECT Guest.GuestName FROM Guest WHERE Guest.Missing = ?",
    "SELECT Guest.GuestName FROM NoSuchEntity WHERE Guest.GuestID = ?",
    "SELECT Guest.GuestName FROM Guest WHERE Guest.GuestID = ? trailing",
    "SELECT Guest.GuestName FROM Guest "
    "WHERE Guest.Reservations.Missing.X = ?",
    "INSERT INTO Guest SET Reservations = ?",
    "CONNECT Guest(?) TO GuestName(?)",
])
def test_parse_errors(hotel, text):
    with pytest.raises(ParseError):
        parse_statement(hotel, text)


@pytest.mark.parametrize("text, message, token", [
    # a stray token before a clause is trailing input, reported before
    # the statement itself is validated
    ("SELECT Guest.GuestName FROM Guest ( WHERE Guest.GuestID = ?",
     "trailing input near '('", "("),
    ("SELECT Guest.GuestName FROM COUNT(*) WHERE Guest.GuestID = ?",
     "unknown entity 'COUNT'", "COUNT"),
    ("SELECT Guest.GuestName FROM AS WHERE Guest.GuestID = ?",
     "unknown entity 'AS'", "AS"),
    ("UPDATE Nowhere SET GuestName = ?", "unknown entity 'Nowhere'",
     "Nowhere"),
    ("CONNECT Guest(?) TO Reservations(?) extra",
     "trailing input near 'extra'", "extra"),
])
def test_parse_errors_point_at_the_offending_token(hotel, text, message,
                                                   token):
    with pytest.raises(ParseError, match=re.escape(message)) as caught:
        parse_statement(hotel, text)
    assert caught.value.offset == text.index(f" {token}") + 1
    assert caught.value.line == 1
    assert caught.value.column == caught.value.offset + 1


def test_unqualified_reference_rejected(hotel):
    with pytest.raises(ParseError):
        parse_statement(hotel,
                        "SELECT GuestName FROM Guest "
                        "WHERE Guest.GuestID = ?")


def test_divergent_path_rejected(hotel):
    with pytest.raises(ParseError):
        parse_statement(
            hotel,
            "SELECT Guest.GuestName FROM Guest.Reservations.Room "
            "WHERE Guest.Reservations.Guest.GuestID = ?")


def test_statement_label_round_trip(hotel):
    query = parse_statement(hotel,
                            "SELECT Guest.GuestName FROM Guest "
                            "WHERE Guest.GuestID = ?",
                            label="my_label")
    assert query.label == "my_label"
    assert query.text.startswith("SELECT")


@pytest.mark.parametrize("text, message, where", [
    # no WHERE clause: the error points at the end of input
    ("DELETE FROM Guest", "DELETE requires a WHERE clause", None),
    ("UPDATE Guest SET GuestName = ?", "UPDATE requires a WHERE clause",
     None),
    ("SELECT Guest.GuestName FROM Guest",
     "a query needs at least one equality", None),
    ("SELECT Guest.GuestName\nFROM Guest  \n",
     "a query needs at least one equality", None),
    # a WHERE clause that fails validation: the error points at WHERE
    ("SELECT Guest.GuestName FROM Guest WHERE Guest.GuestName > ?",
     "a query needs at least one equality", "WHERE"),
    ("SELECT Guest.GuestName FROM Guest\nWHERE Guest.GuestName > ?",
     "a query needs at least one equality", "WHERE"),
])
def test_validation_errors_are_positioned(hotel, text, message, where):
    with pytest.raises(ParseError, match=re.escape(message)) as caught:
        parse_statement(hotel, text)
    error = caught.value
    lines = text.split("\n")
    assert 1 <= error.line <= len(lines)
    assert 1 <= error.column <= len(lines[error.line - 1]) + 1
    if where is None:
        assert error.offset == len(text.rstrip())
    else:
        assert error.offset == text.index(where)
    assert "(in statement:" not in str(error)
