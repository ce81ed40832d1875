"""JSON document format for models and workloads.

A complete application is one document::

    {
      "model": {
        "name": "hotel",
        "entities": [
          {"name": "Hotel", "count": 100,
           "id": "HotelID",
           "fields": [
             {"name": "HotelCity", "type": "string", "size": 12,
              "cardinality": 20},
             ...]},
          ...],
        "relationships": [
          {"from": "Hotel", "forward": "Rooms",
           "to": "Room", "reverse": "Hotel",
           "kind": "one_to_many"},
          ...]
      },
      "workload": {
        "mix": "default",
        "statements": [
          {"label": "q1", "statement": "SELECT ...",
           "weight": 2.0},
          {"label": "q2", "statement": "SELECT ...",
           "mixes": {"read": 3.0, "write": 0.5}},
          ...]
      }
    }

Field types map to the conceptual-model field classes; sizes and
cardinalities are optional (class defaults / entity count apply).
"""

from __future__ import annotations

import json
import math

from repro.exceptions import ModelError, NoseError, ParseError
from repro.model import (
    BooleanField,
    DateField,
    Entity,
    FloatField,
    IDField,
    IntegerField,
    Model,
    StringField,
)
from repro.workload import Workload

_FIELD_TYPES = {
    "string": StringField,
    "integer": IntegerField,
    "float": FloatField,
    "boolean": BooleanField,
    "date": DateField,
}

_TYPE_NAMES = {cls: name for name, cls in _FIELD_TYPES.items()}


# -- model ------------------------------------------------------------------


def model_to_dict(model):
    """Serialize a conceptual model to the document format."""
    entities = []
    relationships = []
    seen_edges = set()
    for entity in model.entities.values():
        id_field = entity.id_field
        fields = []
        for field in entity.data_fields:
            record = {"name": field.name,
                      "type": _TYPE_NAMES.get(type(field), "string"),
                      "size": field.size}
            if field._cardinality is not None:
                record["cardinality"] = field._cardinality
            fields.append(record)
        entities.append({
            "name": entity.name,
            "count": entity.count,
            "id": id_field.name if id_field else None,
            "fields": fields,
        })
        for key in entity.foreign_keys:
            if key.id in seen_edges:
                continue
            seen_edges.add(key.id)
            if key.reverse is not None:
                seen_edges.add(key.reverse.id)
            kind = {
                ("one", "one"): "one_to_one",
                ("many", "one"): "one_to_many",
                ("one", "many"): "many_to_one",
                ("many", "many"): "many_to_many",
            }[(key.relationship,
               key.reverse.relationship if key.reverse else "one")]
            record = {
                "from": entity.name, "forward": key.name,
                "to": key.entity.name,
                "reverse": key.reverse.name if key.reverse else None,
                "kind": kind,
            }
            if key._avg_fanout is not None:
                record["forward_fanout"] = key._avg_fanout
            if key.reverse is not None \
                    and key.reverse._avg_fanout is not None:
                record["reverse_fanout"] = key.reverse._avg_fanout
            if not key.total:
                record["forward_total"] = False
            if key.reverse is not None and not key.reverse.total:
                record["reverse_total"] = False
            relationships.append(record)
    return {"name": model.name, "entities": entities,
            "relationships": relationships}


def model_from_dict(document):
    """Rebuild a conceptual model from the document format.

    A value the model constructors reject (an empty name, a count below
    1), and a statistic they would take on trust (a NaN count, a
    negative fanout), raises a :class:`ModelError` naming its document
    path, e.g. ``model.entities[0].count``.
    """
    try:
        model = Model(document.get("name", "model"))
        for number, spec in enumerate(document["entities"]):
            where = f"model.entities[{number}]"
            # Entity checks its name before its count
            checked = "count" if _is_name(spec["name"]) else "name"
            count = _number(f"{where}.count", spec.get("count", 1))
            entity = _built(f"{where}.{checked}", Entity, spec["name"],
                            count=count)
            if spec.get("id"):
                entity.add_field(_built(f"{where}.id", IDField, spec["id"]))
            for slot, field_spec in enumerate(spec.get("fields", [])):
                field_type = _FIELD_TYPES.get(
                    field_spec.get("type", "string"))
                if field_type is None:
                    raise ModelError(
                        f"unknown field type {field_spec.get('type')!r}")
                kwargs = {key: _number(f"{where}.fields[{slot}].{key}",
                                       field_spec[key], lowest)
                          for key, lowest in (("size", 0),
                                              ("cardinality", 1))
                          if field_spec.get(key) is not None}
                entity.add_field(_built(
                    f"{where}.fields[{slot}].name", field_type,
                    field_spec["name"], **kwargs))
            model.add_entity(entity)
        for number, spec in enumerate(document.get("relationships", [])):
            where = f"model.relationships[{number}]"
            fanouts = {key: _number(f"{where}.{key}", spec[key], 0)
                       for key in ("forward_fanout", "reverse_fanout")
                       if spec.get(key) is not None}
            # the forward edge is built before the reverse one
            side = "reverse" if _is_name(spec["forward"]) else "forward"
            _built(f"{where}.{side}", model.add_relationship,
                   spec["from"], spec["forward"], spec["to"],
                   spec["reverse"], kind=spec.get("kind", "one_to_many"),
                   **fanouts,
                   forward_total=spec.get("forward_total", True),
                   reverse_total=spec.get("reverse_total", True))
        return model.validate()
    except KeyError as missing:
        raise ModelError(
            f"model document is missing key {missing}") from None


def _is_name(value):
    """The model constructors' test of an entity or field name."""
    return bool(value) and isinstance(value, str)


def _number(where, value, lowest=None):
    """``value`` when it is a finite number (of at least ``lowest``);
    otherwise a :class:`ModelError` naming the document path ``where``.

    The model constructors take statistics on trust, and a NaN passes
    every comparison they make."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)
            or lowest is not None and value < lowest):
        bound = "" if lowest is None else f" of at least {lowest}"
        key = where.rsplit(".", 1)[-1]
        raise ModelError(f"{where}: {key} must be a finite number{bound}")
    return value


def _built(where, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ValueError`` re-raised as a
    :class:`ModelError` naming the document path ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise ModelError(f"{where}: {error}") from None


# -- workload ------------------------------------------------------------------


def workload_to_dict(workload):
    """Serialize a workload.

    Statements keep their source text verbatim when they were parsed
    from text; programmatically built statements are unparsed from the
    grammar's canonical rendering, which round-trips through
    :func:`repro.workload.parser.parse_statement`.
    """
    statements = []
    for label, statement in workload.statements.items():
        try:
            text = statement.text or statement.unparse()
        except NotImplementedError:
            raise ParseError(
                f"statement {label!r} has no source text to serialize")
        record = {"label": label, "statement": text}
        mixes = workload._weights[label]
        if set(mixes) == {Workload.DEFAULT_MIX}:
            record["weight"] = mixes[Workload.DEFAULT_MIX]
        else:
            record["mixes"] = dict(mixes)
        statements.append(record)
    return {"mix": workload.active_mix, "statements": statements}


def workload_from_dict(model, document):
    """Rebuild a workload over ``model`` from the document format."""
    workload = Workload(model, mix=document.get("mix"))
    try:
        for record in document["statements"]:
            workload.add_statement(
                record["statement"],
                weight=record.get("weight", 1.0),
                label=record.get("label"),
                mixes=record.get("mixes"))
    except KeyError as missing:
        raise ParseError(
            f"workload document is missing key {missing}") from None
    return workload


# -- reading JSON -------------------------------------------------------------


def read_json(path, kind=None):
    """Parse the JSON file at ``path``; every failure names the path.

    A missing or unreadable file and invalid JSON (with its line and
    column) raise :class:`~repro.exceptions.ParseError`.  With ``kind``
    the top level must be an object; ``kind`` names the expected
    document in the error.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as error:
        raise ParseError(
            f"cannot read {path}: {error.strerror or error}") from None
    except UnicodeDecodeError as error:
        raise ParseError(f"{path} is not a text file: {error}") from None
    except json.JSONDecodeError as error:
        raise ParseError(
            f"{path} is not valid JSON (line {error.lineno}, column "
            f"{error.colno}): {error.msg}") from None
    if kind is None:
        return document
    if not isinstance(document, dict):
        raise ParseError(
            f"{path}: expected a JSON object ({kind} document), found "
            f"{type(document).__name__}")
    return document


# -- applications ------------------------------------------------------------------


def load_application(path):
    """Load ``(model, workload)`` from a JSON application file."""
    document = read_json(path, "application")
    if "model" not in document:
        raise ParseError(f"{path}: missing 'model' key (application "
                         "document)")
    try:
        model = model_from_dict(document["model"])
        workload = workload_from_dict(model, document.get(
            "workload", {"statements": []}))
    except NoseError as error:
        raise type(error)(f"{path}: {error}") from error
    except (AttributeError, TypeError) as error:
        # a value of the wrong JSON type somewhere in the document
        raise ParseError(
            f"{path} is not a valid application document: {error}") \
            from None
    return model, workload


def dump_application(model, workload, path):
    """Write a model and workload to a JSON application file."""
    document = {"model": model_to_dict(model),
                "workload": workload_to_dict(workload)}
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


# -- tagged documents ---------------------------------------------------------


def dump_document(document, path):
    """Write a tagged document (explain, profile, run report, windows,
    monitor) as stable JSON.

    Keys are sorted and a trailing newline appended, so two dumps of
    the same document — and repeated runs that produce it — are
    byte-for-byte identical: the property ``nose-advisor diff`` and CI
    artifact comparison rely on.
    """
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_document(path, expected_format):
    """Load a document written by :func:`dump_document`.

    The file must hold a JSON object tagged ``expected_format`` (e.g.
    ``"nose-explain/1"``).  Explain, profile and run-report files
    predate the tag, so for those an untagged file is read as the
    current version; windows and monitor carried their tag from day
    one.  Anything else raises :class:`~repro.exceptions.ParseError`
    naming the path.
    """
    from repro.explain.document import EXPLAIN_FORMAT
    from repro.profile.report import PROFILE_FORMAT
    from repro.telemetry import RUN_REPORT_FORMAT
    kind = expected_format.split("/")[0].removeprefix("nose-")
    document = read_json(path, kind)
    found = document.get("format")
    if found is None:
        if expected_format not in (EXPLAIN_FORMAT, PROFILE_FORMAT,
                                   RUN_REPORT_FORMAT):
            raise ParseError(f"{path}: missing 'format' field "
                             f"(expected {expected_format!r})")
    elif found != expected_format:
        raise ParseError(
            f"{path} declares unsupported {kind} document version "
            f"{found!r}; supported: {expected_format!r}")
    return document
