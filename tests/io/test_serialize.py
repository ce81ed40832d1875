"""Tests for JSON (de)serialization of models and workloads."""

import json
import math
import re

import pytest

from repro import Advisor
from repro.demo import hotel_model, hotel_workload
from repro.exceptions import ModelError, ParseError
from repro.io import (
    dump_application,
    load_application,
    model_from_dict,
    model_to_dict,
    workload_from_dict,
    workload_to_dict,
)


def test_model_round_trip():
    original = hotel_model()
    document = model_to_dict(original)
    rebuilt = model_from_dict(json.loads(json.dumps(document)))
    assert rebuilt.describe() == original.describe()
    assert rebuilt.relationship_count == original.relationship_count
    for name, entity in original.entities.items():
        assert rebuilt.entity(name).count == entity.count
        for field in entity.fields.values():
            twin = rebuilt.entity(name)[field.name]
            assert type(twin) is type(field)
            assert twin.size == field.size
            assert twin.cardinality == field.cardinality


def test_workload_round_trip():
    model = hotel_model()
    original = hotel_workload(model, include_updates=True)
    document = workload_to_dict(original)
    rebuilt = workload_from_dict(model, json.loads(json.dumps(document)))
    assert set(rebuilt.statements) == set(original.statements)
    for label in original.statements:
        assert rebuilt.weight(label) == original.weight(label)
        assert rebuilt.statements[label].text \
            == original.statements[label].text


def test_mixes_survive_round_trip():
    from repro.rubis import rubis_model, rubis_workload
    model = rubis_model(users=500)
    original = rubis_workload(model, mix="bidding")
    rebuilt = workload_from_dict(model, workload_to_dict(original))
    assert rebuilt.weight("sic_items") == original.weight("sic_items")
    browsing = rebuilt.with_mix("browsing")
    assert browsing.weight("sb_insert") == 0.0


def test_application_file_round_trip(tmp_path):
    model = hotel_model()
    workload = hotel_workload(model, include_updates=False)
    path = tmp_path / "hotel.json"
    dump_application(model, workload, path)
    loaded_model, loaded_workload = load_application(path)
    # the loaded application must drive the advisor to the same schema
    original = Advisor(model).recommend(workload)
    reloaded = Advisor(loaded_model).recommend(loaded_workload)
    assert {i.key for i in original.indexes} \
        == {i.key for i in reloaded.indexes}
    assert reloaded.total_cost == pytest.approx(original.total_cost)


def test_model_document_errors():
    with pytest.raises(ModelError):
        model_from_dict({"entities": [{"name": "A", "id": "AID",
                                       "fields": [{"name": "x",
                                                   "type": "blob"}]}]})
    with pytest.raises(ModelError):
        model_from_dict({"name": "m"})


def test_workload_document_errors():
    model = hotel_model()
    with pytest.raises(ParseError):
        workload_from_dict(model, {})
    with pytest.raises(ParseError):
        workload_from_dict(model, {"statements": [{"weight": 1.0}]})


def test_programmatic_statement_serializes_via_unparse():
    # a statement built from the IR has no source text; serialization
    # falls back to the grammar's unparse and must round-trip
    from repro import Workload
    from repro.workload.conditions import Condition
    from repro.workload.digest import statement_digest
    from repro.workload.statements import Query
    model = hotel_model()
    workload = Workload(model)
    guest = model.entity("Guest")
    query = Query(model.path(["Guest"]), [guest["GuestName"]],
                  [Condition(guest["GuestID"], "=")])
    workload.add_statement(query, label="programmatic")
    document = workload_to_dict(workload)
    rebuilt = workload_from_dict(model, document)
    assert statement_digest(rebuilt.statements["programmatic"]) \
        == statement_digest(query)


def test_cli_json_loading(tmp_path, capsys):
    from repro.cli import main
    model = hotel_model()
    workload = hotel_workload(model, include_updates=False)
    path = tmp_path / "app.json"
    dump_application(model, workload, path)
    assert main(["--json", str(path), "--cost-model", "simple"]) == 0
    assert "Recommended schema" in capsys.readouterr().out


def test_relationship_totality_round_trips():
    from repro.model import Entity, IDField, Model, StringField
    model = Model("tot")
    first = Entity("A", count=5)
    first.add_field(IDField("AID"))
    first.add_field(StringField("AName"))
    second = Entity("B", count=5)
    second.add_field(IDField("BID"))
    second.add_field(StringField("BName"))
    model.add_entity(first)
    model.add_entity(second)
    model.add_relationship("A", "TheB", "B", "As", kind="many_to_one",
                           forward_total=False, reverse_total=True)
    model.validate()
    document = model_to_dict(model)
    spec = document["relationships"][0]
    # totality is the default; only partial directions are written out
    assert spec["forward_total"] is False
    assert "reverse_total" not in spec
    rebuilt = model_from_dict(json.loads(json.dumps(document)))
    key = rebuilt.entity("A")["TheB"]
    assert key.total is False
    assert key.reverse.total is True


def test_total_by_default_round_trips():
    original = hotel_model()
    document = model_to_dict(original)
    for spec in document["relationships"]:
        assert "forward_total" not in spec
        assert "reverse_total" not in spec
    rebuilt = model_from_dict(json.loads(json.dumps(document)))
    for entity in rebuilt.entities.values():
        for key in entity.foreign_keys:
            assert key.total is True



@pytest.mark.parametrize("text, error, message", [
    (None, ParseError, "cannot read"),
    ('{"model": {', ParseError, "not valid JSON (line 1, column 12)"),
    ("[]", ParseError, "expected a JSON object"),
    ('{"workload": {}}', ParseError, "missing 'model' key"),
    ('{"model": {"entities": "oops"}}', ParseError,
     "not a valid application"),
    ('{"model": {"name": "m"}}', ModelError, "missing key 'entities'"),
])
def test_load_application_errors_name_the_path(tmp_path, text, error,
                                               message):
    path = tmp_path / "app.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(error) as caught:
        load_application(path)
    assert message in str(caught.value)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("where, value, message", [
    ("model.entities[0].count", 0, "entity count must be at least 1"),
    ("model.entities[0].name", "", "entity name must be a non-empty string"),
    ("model.entities[0].id", 5, "field name must be a non-empty string"),
    ("model.entities[1].fields[0].name", "",
     "field name must be a non-empty string"),
    ("model.relationships[0].forward", "",
     "field name must be a non-empty string"),
    ("model.relationships[0].reverse", None,
     "field name must be a non-empty string"),
    ("model.entities[0].count", math.nan,
     "count must be a finite number"),
    ("model.entities[0].count", math.inf,
     "count must be a finite number"),
    ("model.entities[1].fields[0].cardinality", math.nan,
     "cardinality must be a finite number of at least 1"),
    ("model.entities[1].fields[0].cardinality", math.inf,
     "cardinality must be a finite number of at least 1"),
    ("model.entities[1].fields[0].cardinality", 0.5,
     "cardinality must be a finite number of at least 1"),
    ("model.entities[1].fields[0].size", math.nan,
     "size must be a finite number of at least 0"),
    ("model.entities[1].fields[0].size", math.inf,
     "size must be a finite number of at least 0"),
    ("model.entities[1].fields[0].size", -1,
     "size must be a finite number of at least 0"),
    ("model.relationships[0].forward_fanout", math.nan,
     "forward_fanout must be a finite number of at least 0"),
    ("model.relationships[0].forward_fanout", -math.inf,
     "forward_fanout must be a finite number of at least 0"),
    ("model.relationships[0].reverse_fanout", math.inf,
     "reverse_fanout must be a finite number of at least 0"),
    ("model.relationships[0].reverse_fanout", -0.5,
     "reverse_fanout must be a finite number of at least 0"),
])
def test_rejected_model_values_name_their_document_path(tmp_path, where,
                                                        value, message):
    document = {"model": model_to_dict(hotel_model()),
                "workload": {"statements": []}}
    steps = [int(index) if index else key
             for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", where)]
    target = document["model"]
    for step in steps[:-1]:
        target = target[step]
    target[steps[-1]] = value
    with pytest.raises(ModelError) as caught:
        model_from_dict(document["model"])
    assert str(caught.value) == f"{where}: {message}"
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ModelError) as caught:
        load_application(path)
    assert str(caught.value) == f"{path}: {where}: {message}"
