"""Canonical value semantics: the NULL comparison and ordering rules.

One definition shared by every layer that compares or orders attribute
values — WHERE-clause predicates (:meth:`Condition.matches`), the
execution engine's client-side filter/sort steps, the record store's
clustering order and range scans, and the :mod:`repro.verify` reference
interpreter.  A single rule is what makes differential testing
meaningful: the executor and the oracle can only be compared if they
agree on what a missing value means.

The rules, restricted to NoSE's operator set (``= != > >= < <= IN``):

* A missing attribute behaves as NULL (``None``).
* Equality: ``NULL = NULL`` holds, ``NULL = v`` fails for every other
  value.  (Parameters bound to ``None`` follow the same rule.)
* Inequality is the exact complement of equality: ``NULL != NULL``
  fails, ``NULL != v`` holds for every other value.
* ``IN`` matches when the value equals any member of the bound list,
  member-wise under the equality rule (so ``NULL IN (.., NULL, ..)``
  holds).
* Range operators never match when either side is NULL.
* Ordering: NULL sorts after every non-NULL value (NULLS LAST), and
  sorts are stable.

Sort keys carry NULL as the :data:`NULL` sentinel, which compares
greater than every value and equal only to itself; every other value is
its own key.  A value tuple without NULLs is therefore its own row key,
and keys compare with plain (C-level) tuple comparison — the record
store keeps clustering keys in exactly this form.  :data:`END` sorts
after :data:`NULL`, so ``prefix + (END,)`` bounds every key extending
``prefix``.  Values of mutually unordered types still raise
``TypeError`` when compared.

Aggregation folds (:func:`aggregate_value`) live here for the same
reason: the executor's AggregateStep and the reference interpreter must
produce bit-identical results, so both fold values in the same
canonical order.
"""

from __future__ import annotations


class _Sentinel:
    """A sort-key component above every value; ``NULL < END``.

    Ordinary values defer to it through Python's reflected comparison
    (``5 < NULL`` asks ``NULL > 5``); equality is identity."""

    __slots__ = ("_name", "_rank")

    def __init__(self, name, rank):
        self._name = name
        self._rank = rank

    def __lt__(self, other):
        return isinstance(other, _Sentinel) and self._rank < other._rank

    def __gt__(self, other):
        return not isinstance(other, _Sentinel) or self._rank > other._rank

    def __le__(self, other):
        return self is other or self < other

    def __ge__(self, other):
        return self is other or self > other

    def __repr__(self):
        return self._name

    def __reduce__(self):
        # copies and unpickles resolve to the module singleton
        return self._name


#: the sort key of a NULL value: after every non-NULL value
NULL = _Sentinel("NULL", 0)
#: after NULL too: ``prefix + (END,)`` bounds the keys extending ``prefix``
END = _Sentinel("END", 1)


def ordering_key(value):
    """Sort key implementing the canonical NULLS LAST order."""
    return NULL if value is None else value


def row_ordering_key(values):
    """Sort key for a sequence of values (e.g. an ORDER BY tuple); a
    tuple without NULLs is returned as it is."""
    values = tuple(values)
    if None in values:
        return tuple(map(ordering_key, values))
    return values


def matches(operator, value, bound):
    """Evaluate ``value operator bound`` under the canonical NULL rule.

    For ``IN``, ``bound`` is a sequence of candidate values and the
    predicate holds when ``value`` equals any member (equality rule
    applied member-wise).
    """
    if operator == "=":
        return value == bound
    if operator == "!=":
        return value != bound
    if operator == "IN":
        return any(value == member for member in bound)
    if value is None or bound is None:
        return False
    if operator == ">":
        return value > bound
    if operator == ">=":
        return value >= bound
    if operator == "<":
        return value < bound
    if operator == "<=":
        return value <= bound
    raise ValueError(f"unsupported operator {operator!r}")


#: aggregate function names accepted by the statement language
AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def aggregate_value(func, values):
    """Fold ``values`` (one per row of a group) with aggregate ``func``.

    NULLs are ignored by every function except ``COUNT(*)``, which the
    caller expresses by passing the row count via ``values`` of all-1
    markers — here ``COUNT`` simply counts non-NULL members.  SUM/AVG
    fold in canonical :func:`ordering_key` order so floating-point
    summation is deterministic across the executor and the reference
    interpreter.  Empty input yields ``None`` (SQL semantics) for every
    function but COUNT, which yields 0.
    """
    present = [value for value in values if value is not None]
    if func == "COUNT":
        return len(present)
    if not present:
        return None
    present.sort(key=ordering_key)
    if func == "MIN":
        return present[0]
    if func == "MAX":
        return present[-1]
    if func == "SUM":
        total = present[0]
        for value in present[1:]:
            total = total + value
        return total
    if func == "AVG":
        total = present[0]
        for value in present[1:]:
            total = total + value
        return total / len(present)
    raise ValueError(f"unsupported aggregate function {func!r}")
