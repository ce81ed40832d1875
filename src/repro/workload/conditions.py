"""Predicates appearing in WHERE clauses.

NoSE statements support equality, inequality, single-sided range, and
``IN``-list predicates over attributes of entities along the statement's
path.  Values are left as named parameters (``?city``) at design time
and bound at execution time; an ``IN`` predicate carries one parameter
name per list member.
"""

from __future__ import annotations

from repro.workload import semantics

#: supported comparison operators, in the paper's query language plus
#: the inequality and membership extensions (``<>`` is normalized to
#: ``!=`` by the parser)
OPERATORS = ("=", "!=", ">", ">=", "<", "<=", "IN")

#: operators that can bind a column-family hash or clustering column via
#: (multi-)get requests — equality, and IN as a k-way equality
BINDABLE_OPERATORS = ("=", "IN")

#: default selectivity assumed for a range predicate when no histogram
#: information is available (the tech-report cost model does the same)
RANGE_SELECTIVITY = 0.1


class Condition:
    """A single predicate ``field op ?parameter``.

    ``field`` is a :class:`~repro.model.fields.Field` on an entity along
    the statement's path.  Conditions are immutable value objects.  For
    ``IN`` predicates ``parameter`` is a tuple of parameter names, one
    per list member; for every other operator it is a single name.
    """

    __slots__ = ("field", "operator", "parameter", "_selectivity")

    def __init__(self, field, operator, parameter=None):
        if operator not in OPERATORS:
            raise ValueError(f"unsupported operator {operator!r}")
        self.field = field
        self.operator = operator
        #: name(s) of the placeholder(s) supplying the comparison value
        if operator == "IN":
            if not parameter:
                raise ValueError("IN condition requires parameter names")
            self.parameter = tuple(parameter)
        else:
            self.parameter = parameter if parameter else field.name
        self._selectivity = None

    @property
    def is_equality(self):
        return self.operator == "="

    @property
    def is_membership(self):
        """True for ``IN``-list predicates."""
        return self.operator == "IN"

    @property
    def is_inequality(self):
        """True for ``!=`` predicates."""
        return self.operator == "!="

    @property
    def is_bindable(self):
        """True when the predicate can bind a hash/clustering column.

        Equality binds a column to one value; membership binds it to a
        k-way multi-get.  Inequality and ranges cannot seed a get.
        """
        return self.operator in BINDABLE_OPERATORS

    @property
    def is_range(self):
        """True for single-sided range predicates (``> >= < <=``)."""
        return self.operator in (">", ">=", "<", "<=")

    @property
    def cardinality(self):
        """Number of distinct values the predicate binds (1, or k for IN)."""
        if self.is_membership:
            return len(self.parameter)
        return 1

    @property
    def selectivity(self):
        """Fraction of rows expected to satisfy this predicate.

        Cached on first access — the planner consults it once per
        (candidate, predicate) binding attempt, millions of times on
        large pools, and field cardinalities are fixed while a
        statement is being planned.
        """
        if self._selectivity is None:
            distinct = max(self.field.cardinality, 1)
            if self.is_equality:
                self._selectivity = 1.0 / distinct
            elif self.is_membership:
                self._selectivity = min(1.0, len(self.parameter) / distinct)
            elif self.is_inequality:
                self._selectivity = 1.0 - 1.0 / distinct
            else:
                self._selectivity = RANGE_SELECTIVITY
        return self._selectivity

    def bind(self, params):
        """Resolve this predicate's bound value(s) from a parameter map.

        Returns a single value for scalar operators and a tuple of
        values (one per list member) for ``IN``.
        """
        if self.is_membership:
            return tuple(params[name] for name in self.parameter)
        return params[self.parameter]

    def matches(self, value, bound):
        """Evaluate the predicate for a concrete row/parameter value.

        Follows the canonical NULL rule of :mod:`repro.workload.semantics`:
        ``None`` equals only ``None`` and never satisfies a range.
        """
        return semantics.matches(self.operator, value, bound)

    def matcher(self, params):
        """The predicate bound to ``params``: a ``value -> bool`` closure
        equivalent to ``matches(value, bind(params))``."""
        return semantics.matcher(self.operator, self.bind(params))

    def __eq__(self, other):
        if not isinstance(other, Condition):
            return NotImplemented
        return (self.field is other.field
                and self.operator == other.operator
                and self.parameter == other.parameter)

    def __hash__(self):
        return hash((id(self.field), self.operator, self.parameter))

    def __repr__(self):
        return f"Condition({self})"

    def __str__(self):
        if self.is_membership:
            members = ", ".join(f"?{name}" for name in self.parameter)
            return f"{self.field.id} IN ({members})"
        return f"{self.field.id} {self.operator} ?{self.parameter}"
