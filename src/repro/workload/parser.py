"""Parser for the paper's SQL-like statement language.

The parser is layered the way a conventional compiler front end is:

1. a tokenizer producing a stream of :class:`_Token` objects that carry
   their source offset, so every later error can point at a line and
   column with a caret-annotated snippet;
2. an expression grammar with precedence for WHERE clauses
   (``OR`` < ``AND`` < parenthesized groups < predicates), normalized
   to disjunctive normal form;
3. per-statement productions for the six statement types.

Supported statement forms (Fig 3 and Fig 8 of the paper, plus the
aggregation / IN-list / disjunction extensions)::

    SELECT Guest.GuestName, Guest.GuestEmail FROM Guest
        WHERE Guest.Reservations.Room.Hotel.HotelCity = ?city
          AND Guest.Reservations.Room.RoomRate > ?rate
        ORDER BY Guest.GuestName LIMIT 10

    SELECT Hotel.HotelCity, COUNT(*), AVG(Room.RoomRate) FROM Room.Hotel
        WHERE Room.RoomFloor IN (?low, ?high)
           OR (Room.RoomRate >= ?rate AND Room.RoomNumber = ?n)
        GROUP BY Hotel.HotelCity

    INSERT INTO Reservation SET ResID = ?, ResEndDate = ?date
        AND CONNECT TO Guest(?guest), Room(?room)

    UPDATE Room FROM Room.Hotel SET RoomRate = ?rate
        WHERE Hotel.HotelID = ?hotel

    DELETE FROM Guest WHERE Guest.GuestID = ?guest

    CONNECT Guest(?guest) TO Reservations(?res)
    DISCONNECT Guest(?guest) FROM Reservations(?res)

Paths may be written in the FROM clause (``FROM Room.Hotel.PointsOfInterest``,
Fig 9 style) or implied by dotted references in the WHERE clause rooted at
the target entity (``Guest.Reservations.Room.Hotel.HotelCity``, Fig 3
style); both extend the statement's key path.  Path components may name
either the relationship (the foreign key) or the entity it reaches,
whenever that is unambiguous.

``OR`` is supported in query WHERE clauses only (updates modify rows
through single-branch predicates); ``IN`` and ``!=``/``<>`` work in
every WHERE clause.  Aggregate select items (``COUNT/SUM/AVG/MIN/MAX``)
take a dotted reference or ``*`` (COUNT only) and may be grouped with
``GROUP BY``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.exceptions import ModelError, ParseError
from repro.model.fields import ForeignKeyField
from repro.model.paths import KeyPath
from repro.workload.conditions import Condition
from repro.workload.semantics import AGGREGATE_FUNCTIONS
from repro.workload.statements import (
    Aggregate,
    Connect,
    Delete,
    Disconnect,
    Insert,
    Query,
    Update,
)

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<param>\?[A-Za-z_][A-Za-z0-9_]*|\?)
      | (?P<number>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>>=|<=|!=|<>|=|>|<)
      | (?P<punct>[.,()*])
    )""", re.VERBOSE)

_KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "OR", "IN", "GROUP", "ORDER", "BY",
    "LIMIT", "INSERT", "INTO", "SET", "CONNECT", "TO", "UPDATE", "DELETE",
    "DISCONNECT",
})


class _Token(NamedTuple):
    """One lexeme with its position in the source text."""

    kind: str
    value: str
    offset: int


#: sentinel kind for the end of the statement
_EOF = "eof"


def _tokenize(text):
    """Split statement text into position-carrying tokens."""
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:]
            stripped = remainder.lstrip()
            if stripped:
                offset = position + (len(remainder) - len(stripped))
                raise ParseError(
                    f"unexpected character {stripped[0]!r}", text, offset)
            break
        position = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        offset = match.start(kind)
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper(), offset))
        else:
            tokens.append(_Token(kind, value, offset))
    return tokens


class _TokenStream:
    """Cursor over the token list with positioned expectations."""

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.position = 0
        #: offset of the first OR keyword consumed, for statement types
        #: that reject disjunction
        self.or_offset = None
        #: offset of the WHERE keyword, where validation errors point
        self.where_offset = None

    def peek(self, ahead=0):
        index = self.position + ahead
        if index < len(self.tokens):
            return self.tokens[index]
        return _Token(_EOF, None, len(self.text))

    def next(self):
        token = self.peek()
        self.position += 1
        return token

    def accept(self, kind, value=None):
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            self.position += 1
            return token.value
        return None

    def error(self, message, token=None):
        """Raise a :class:`ParseError` pointing at ``token`` (or here)."""
        if token is None:
            token = self.peek()
        raise ParseError(message, self.text, token.offset)

    def expect(self, kind, value=None, describe=None):
        result = self.accept(kind, value)
        if result is None:
            token = self.peek()
            wanted = describe or repr(value if value is not None else kind)
            found = ("end of statement" if token.kind == _EOF
                     else repr(token.value))
            self.error(f"expected {wanted}, found {found}", token)
        return result

    def expect_keyword(self, *words):
        for word in words:
            self.expect("keyword", word)

    def expect_end(self):
        """Raise at the first token past the end of the statement."""
        if self.position < len(self.tokens):
            token = self.peek()
            self.error(f"trailing input near {token.value!r}", token)


def _entity(model, name, text, offset):
    """The model's entity called ``name``, or a positioned error."""
    entity = model.entities.get(name)
    if entity is None:
        raise ParseError(f"unknown entity {name!r}", text, offset)
    return entity


def _parse_entity(stream, model, text):
    """Read an entity name and resolve it against the model."""
    offset = stream.peek().offset
    name = stream.expect("name", describe="an entity name")
    return _entity(model, name, text, offset)


class _PathBuilder:
    """Incrementally grows a statement's key path while resolving refs.

    Holds the path as an entity/key list; dotted references either follow
    the existing path or extend it linearly at the tail, which implements
    the paper's implicit-path queries (Fig 3).
    """

    def __init__(self, model, root_entity, text):
        self.model = model
        self.text = text
        self.entities = [root_entity]
        self.keys = []

    @property
    def path(self):
        return KeyPath(self.entities[0], self.keys)

    def _positions_of(self, name):
        """Path positions a name may refer to (entity or arrival alias)."""
        positions = []
        for index, entity in enumerate(self.entities):
            if entity.name == name:
                positions.append(index)
        for index, key in enumerate(self.keys):
            if key.name == name and (index + 1) not in positions:
                positions.append(index + 1)
        return positions

    def _step(self, position, name, offset=None):
        """Advance one path component from ``position``; extends the tail.

        ``name`` may match the outgoing relationship, the next entity's
        name, or — when at the tail — a foreign key on the tail entity
        (by relationship name, or by target entity name if unique).
        """
        at_tail = position == len(self.entities) - 1
        if not at_tail:
            next_key = self.keys[position]
            if name in (next_key.name, next_key.entity.name):
                return position + 1
            raise ParseError(
                f"path component {name!r} diverges from the statement path "
                f"after {self.entities[position].name}", self.text, offset)
        entity = self.entities[position]
        key = entity.fields.get(name)
        if not isinstance(key, ForeignKeyField):
            key = None
            candidates = [fk for fk in entity.foreign_keys
                          if fk.entity.name == name]
            if len(candidates) == 1:
                key = candidates[0]
            elif len(candidates) > 1:
                raise ParseError(
                    f"ambiguous path component {name!r} from "
                    f"{entity.name}: name the relationship explicitly",
                    self.text, offset)
        if key is None:
            raise ParseError(
                f"no relationship {name!r} from entity {entity.name}",
                self.text, offset)
        self.keys.append(key)
        self.entities.append(key.entity)
        return position + 1

    def extend(self, names, offset=None):
        """Walk relationship names from the root, extending the tail."""
        position = 0
        for name in names:
            position = self._step(position, name, offset)
        return position

    def resolve(self, components, offset=None):
        """Resolve a dotted reference to (entity, field).

        The last component is the field name; the preceding components
        locate an entity, starting from any alias on the path (entity or
        relationship name) and possibly extending the path at its tail.
        """
        if len(components) < 2:
            raise ParseError(
                f"reference {'.'.join(components)!r} must be qualified as "
                "Entity.Field", self.text, offset)
        *path_parts, field_name = components
        positions = self._positions_of(path_parts[0])
        if not positions:
            raise ParseError(
                f"{path_parts[0]!r} is not an entity or relationship on "
                f"the statement path", self.text, offset)
        position = positions[0]
        for name in path_parts[1:]:
            position = self._step(position, name, offset)
        entity = self.entities[position]
        field = entity.fields.get(field_name)
        if field is None:
            raise ParseError(
                f"entity {entity.name!r} has no field {field_name!r}",
                self.text, offset)
        if isinstance(field, ForeignKeyField):
            raise ParseError(
                f"{field.id} is a relationship, not an attribute",
                self.text, offset)
        return entity, field


def _parse_dotted_names(stream):
    """Read ``Name(.Name)*``; returns the components and their offset."""
    first = stream.peek()
    names = [stream.expect("name", describe="a name")]
    while stream.accept("punct", "."):
        if stream.accept("punct", "*"):
            names.append("*")
            break
        names.append(stream.expect("name", describe="a name"))
    return names, first.offset


def _parse_parameter(stream, default):
    token = stream.expect("param", describe="a ?parameter")
    return token[1:] if len(token) > 1 else default


# -- WHERE expression grammar (precedence: OR < AND < ( ) < predicate) ---


def _parse_predicate(stream, builder):
    """``ref op ?param`` or ``ref IN (?param, ...)``."""
    components, offset = _parse_dotted_names(stream)
    _entity, field = builder.resolve(components, offset)
    if stream.accept("keyword", "IN"):
        stream.expect("punct", "(")
        parameters = []
        while True:
            default = f"{field.name}{len(parameters) + 1}"
            parameters.append(_parse_parameter(stream, default))
            if stream.accept("punct", ",") is None:
                break
        stream.expect("punct", ")")
        return Condition(field, "IN", parameters)
    operator = stream.expect("op", describe="a comparison operator")
    if operator == "<>":
        operator = "!="
    parameter = _parse_parameter(stream, field.name)
    return Condition(field, operator, parameter)


def _parse_factor(stream, builder):
    if stream.accept("punct", "("):
        branches = _parse_or_expr(stream, builder)
        stream.expect("punct", ")")
        return branches
    return [[_parse_predicate(stream, builder)]]


def _parse_and_expr(stream, builder):
    branches = _parse_factor(stream, builder)
    while stream.accept("keyword", "AND"):
        right = _parse_factor(stream, builder)
        # distribute the conjunction over both sides' branches (DNF)
        branches = [left + factor for left in branches for factor in right]
    return branches


def _parse_or_expr(stream, builder):
    branches = _parse_and_expr(stream, builder)
    while True:
        token = stream.peek()
        if stream.accept("keyword", "OR") is None:
            return branches
        if stream.or_offset is None:
            stream.or_offset = token.offset
        branches = branches + _parse_and_expr(stream, builder)


def _parse_where(stream, builder):
    """Parse an optional WHERE clause into DNF predicate branches.

    Returns a list of branches (each a list of conditions); a missing
    clause yields the single empty branch.
    """
    offset = stream.peek().offset
    if stream.accept("keyword", "WHERE") is None:
        return [[]]
    stream.where_offset = offset
    return _parse_or_expr(stream, builder)


def _require_conjunctive(stream, branches, what):
    if len(branches) > 1:
        token = _Token("keyword", "OR",
                       stream.or_offset if stream.or_offset is not None
                       else stream.peek().offset)
        stream.error(f"OR predicates are not supported in {what}", token)
    return branches[0]


# -- SELECT ---------------------------------------------------------------


def _parse_select_items(stream):
    """Parse the SELECT list: dotted refs and aggregate items.

    References are resolved only after the FROM clause (and the WHERE
    clause, which may extend the path) has been read, so items are
    returned unresolved.
    """
    items = []
    while True:
        token = stream.peek()
        is_aggregate = (token.kind == "name"
                        and token.value.upper() in AGGREGATE_FUNCTIONS
                        and stream.peek(1).kind == "punct"
                        and stream.peek(1).value == "(")
        if is_aggregate:
            func = stream.next().value.upper()
            stream.expect("punct", "(")
            if stream.accept("punct", "*"):
                if func != "COUNT":
                    stream.error(f"{func}(*) is not defined; only COUNT(*)",
                                 token)
                argument = None
            else:
                argument = _parse_dotted_names(stream)
            stream.expect("punct", ")")
            items.append(("aggregate", func, argument, token.offset))
        else:
            components, offset = _parse_dotted_names(stream)
            items.append(("ref", components, offset))
        if stream.accept("punct", ",") is None:
            return items


def _resolve_select(items, builder, text):
    resolved = []
    for item in items:
        if item[0] == "aggregate":
            _tag, func, argument, offset = item
            if argument is None:
                resolved.append(Aggregate(func))
            else:
                components, ref_offset = argument
                _entity, field = builder.resolve(components, ref_offset)
                resolved.append(Aggregate(func, field))
            continue
        _tag, components, offset = item
        if components[-1] == "*":
            positions = builder._positions_of(components[0])
            if len(components) != 2 or not positions:
                raise ParseError(
                    f"cannot expand {'.'.join(components)!r}", text, offset)
            entity = builder.entities[positions[0]]
            resolved.append(tuple(entity.attributes))
        else:
            _entity, field = builder.resolve(components, offset)
            resolved.append((field,))
    # preserve order, drop duplicates; aggregates stay distinct items
    flattened = dict.fromkeys(
        element
        for item in resolved
        for element in (item if isinstance(item, tuple) else (item,)))
    return tuple(flattened)


def _parse_field_list(stream, builder):
    """Parse ``ref, ref, ...`` clauses (GROUP BY / ORDER BY)."""
    fields = []
    while True:
        components, offset = _parse_dotted_names(stream)
        _entity, field = builder.resolve(components, offset)
        fields.append(field)
        if stream.accept("punct", ",") is None:
            return fields


def _parse_query(stream, model, text, label):
    stream.expect_keyword("SELECT")
    select_items = _parse_select_items(stream)
    stream.expect_keyword("FROM")
    from_names, from_offset = _parse_dotted_names(stream)
    builder = _PathBuilder(
        model, _entity(model, from_names[0], text, from_offset), text)
    builder.extend(from_names[1:], from_offset)
    branches = _parse_where(stream, builder)
    group_by = []
    if stream.accept("keyword", "GROUP"):
        stream.expect_keyword("BY")
        group_by = _parse_field_list(stream, builder)
    order_by = []
    if stream.accept("keyword", "ORDER"):
        stream.expect_keyword("BY")
        order_by = _parse_field_list(stream, builder)
    limit = None
    if stream.accept("keyword", "LIMIT"):
        limit = int(stream.expect("number", describe="a number"))
    stream.expect_end()
    select = _resolve_select(select_items, builder, text)
    if len(branches) > 1:
        return Query(builder.path, select, disjuncts=branches,
                     order_by=order_by, limit=limit, text=text,
                     label=label, group_by=group_by)
    return Query(builder.path, select, branches[0], order_by=order_by,
                 limit=limit, text=text, label=label, group_by=group_by)


# -- write statements ------------------------------------------------------


def _parse_settings(stream, entity, text):
    """Parse ``field = ?param`` assignments for INSERT/UPDATE SET clauses."""
    settings = {}
    while True:
        components, offset = _parse_dotted_names(stream)
        if len(components) == 2 and components[0] == entity.name:
            field_name = components[1]
        elif len(components) == 1:
            field_name = components[0]
        else:
            raise ParseError(
                f"SET must assign fields of {entity.name}", text, offset)
        field = entity.fields.get(field_name)
        if field is None or isinstance(field, ForeignKeyField):
            raise ParseError(
                f"entity {entity.name!r} has no attribute {field_name!r}",
                text, offset)
        stream.expect("op", "=")
        settings[field] = _parse_parameter(stream, field.name)
        if stream.accept("punct", ",") is None:
            break
    return settings


def _parse_relationship(stream, entity, text):
    """Read a relationship name on ``entity`` (by key or entity name)."""
    token = stream.peek()
    name = stream.expect("name", describe="a relationship name")
    key = entity.fields.get(name)
    if not isinstance(key, ForeignKeyField):
        candidates = [fk for fk in entity.foreign_keys
                      if fk.entity.name == name]
        if len(candidates) != 1:
            raise ParseError(
                f"no relationship {name!r} on entity {entity.name}",
                text, token.offset)
        key = candidates[0]
    return key


def _parse_connections(stream, entity, text):
    """Parse the ``AND CONNECT TO rel(?param), ...`` clause of an INSERT."""
    connections = []
    while True:
        key = _parse_relationship(stream, entity, text)
        stream.expect("punct", "(")
        parameter = _parse_parameter(stream, key.name)
        stream.expect("punct", ")")
        connections.append((key, parameter))
        if stream.accept("punct", ",") is None:
            break
    return connections


def _parse_insert(stream, model, text, label):
    stream.expect_keyword("INSERT", "INTO")
    entity = _parse_entity(stream, model, text)
    stream.expect_keyword("SET")
    settings = _parse_settings(stream, entity, text)
    connections = ()
    if stream.accept("keyword", "AND"):
        stream.expect_keyword("CONNECT", "TO")
        connections = _parse_connections(stream, entity, text)
    stream.expect_end()
    return Insert(KeyPath(entity), settings, connections, text=text,
                  label=label)


def _parse_update(stream, model, text, label):
    stream.expect_keyword("UPDATE")
    entity = _parse_entity(stream, model, text)
    builder = _PathBuilder(model, entity, text)
    if stream.accept("keyword", "FROM"):
        from_names, from_offset = _parse_dotted_names(stream)
        if from_names[0] != entity.name:
            raise ParseError(
                "the FROM path of an UPDATE must start at the updated "
                "entity", text, from_offset)
        builder.extend(from_names[1:], from_offset)
    stream.expect_keyword("SET")
    settings = _parse_settings(stream, entity, text)
    branches = _parse_where(stream, builder)
    conditions = _require_conjunctive(stream, branches, "UPDATE statements")
    stream.expect_end()
    return Update(builder.path, settings, conditions, text=text, label=label)


def _parse_delete(stream, model, text, label):
    stream.expect_keyword("DELETE", "FROM")
    from_names, from_offset = _parse_dotted_names(stream)
    builder = _PathBuilder(
        model, _entity(model, from_names[0], text, from_offset), text)
    builder.extend(from_names[1:], from_offset)
    branches = _parse_where(stream, builder)
    conditions = _require_conjunctive(stream, branches, "DELETE statements")
    stream.expect_end()
    return Delete(builder.path, conditions, text=text, label=label)


def _parse_connect(stream, model, text, label, disconnect):
    stream.expect_keyword("DISCONNECT" if disconnect else "CONNECT")
    entity = _parse_entity(stream, model, text)
    stream.expect("punct", "(")
    source_parameter = _parse_parameter(stream, entity.id_field.name)
    stream.expect("punct", ")")
    stream.expect_keyword("FROM" if disconnect else "TO")
    key = _parse_relationship(stream, entity, text)
    stream.expect("punct", "(")
    target_parameter = _parse_parameter(stream, key.entity.id_field.name)
    stream.expect("punct", ")")
    stream.expect_end()
    path = KeyPath(entity, (key,))
    cls = Disconnect if disconnect else Connect
    return cls(path, source_parameter, target_parameter, text=text,
               label=label)


def parse_statement(model, text, label=None):
    """Parse one statement against a conceptual model.

    Returns a :class:`~repro.workload.statements.Statement` subclass
    instance; raises :class:`~repro.exceptions.ParseError` on malformed
    input or references that do not resolve against the model.  Errors
    in non-empty text carry the source line/column and a caret pointing
    at the offending token; the statement's own validation errors point
    at the WHERE keyword, or at the end of input when there is none.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty statement", text)
    stream = _TokenStream(tokens, text)
    first = tokens[0]
    keyword = first.value if first.kind == "keyword" else None
    parsers = {
        "SELECT": lambda: _parse_query(stream, model, text, label),
        "INSERT": lambda: _parse_insert(stream, model, text, label),
        "UPDATE": lambda: _parse_update(stream, model, text, label),
        "DELETE": lambda: _parse_delete(stream, model, text, label),
        "CONNECT": lambda: _parse_connect(stream, model, text, label, False),
        "DISCONNECT": lambda: _parse_connect(stream, model, text, label,
                                             True),
    }
    if keyword not in parsers:
        raise ParseError(f"unknown statement type {first.value!r}", text,
                         first.offset)
    try:
        return parsers[keyword]()
    except (ModelError, ParseError) as error:
        if getattr(error, "offset", None) is not None:
            raise
        # the statement's own validation rejected what parsed; its checks
        # mostly concern the WHERE clause, so point at that clause, or at
        # the end of input where one was expected
        offset = stream.where_offset
        if offset is None:
            offset = len(text.rstrip())
        raise ParseError(getattr(error, "reason", str(error)), text,
                         offset) from error
