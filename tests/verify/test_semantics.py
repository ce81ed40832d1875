"""The canonical NULL comparison and ordering rules.

One shared definition (:mod:`repro.workload.semantics`) governs every
layer that compares attribute values; these tests pin the rules the
differential oracle depends on.
"""

import copy
import pickle

import pytest

from repro.model import StringField
from repro.workload.conditions import Condition
from repro.workload.semantics import (
    END,
    NULL,
    matches,
    ordering_key,
    row_ordering_key,
)


def test_null_equality():
    assert matches("=", None, None)
    assert not matches("=", None, "x")
    assert not matches("=", "x", None)
    assert matches("=", "x", "x")


@pytest.mark.parametrize("operator", [">", ">=", "<", "<="])
def test_ranges_never_match_null(operator):
    assert not matches(operator, None, 5)
    assert not matches(operator, 5, None)
    assert not matches(operator, None, None)


def test_range_operators_on_values():
    assert matches(">", 2, 1)
    assert not matches(">", 1, 1)
    assert matches(">=", 1, 1)
    assert matches("<", 1, 2)
    assert matches("<=", 2, 2)


def test_unknown_operator_rejected():
    with pytest.raises(ValueError):
        matches("LIKE", 1, 2)


def test_inequality_and_membership_matching():
    assert matches("!=", 1, 2)
    assert not matches("!=", 1, 1)
    # != is the exact complement of =, so NULL != NULL is False and
    # NULL != 1 is True
    assert not matches("!=", None, None)
    assert matches("!=", None, 1)
    assert matches("!=", 1, None)
    assert matches("IN", 2, (1, 2, 3))
    assert not matches("IN", 4, (1, 2, 3))
    # membership is member-wise equality, so NULL IN (.., NULL, ..) holds
    assert matches("IN", None, (1, None))
    assert not matches("IN", None, (1, 2))
    assert not matches("IN", 1, ())


def test_nulls_sort_last():
    values = [3, None, 1, None, 2]
    ordered = sorted(values, key=ordering_key)
    assert ordered == [1, 2, 3, None, None]


def test_row_ordering_key_handles_mixed_nulls():
    rows = [(1, None), (None, 1), (1, 1)]
    ordered = sorted(rows, key=row_ordering_key)
    assert ordered == [(1, 1), (1, None), (None, 1)]


def test_a_null_free_tuple_is_its_own_key():
    values = (3, "a", 1.5)
    assert row_ordering_key(values) is values
    assert row_ordering_key([1, None]) == (1, NULL)


def test_sentinels_sort_after_every_value():
    for value in (0, -1e300, "zzz", (9,)):
        assert value < NULL < END and END > NULL > value
        assert NULL != value and value != NULL
        assert not NULL < value and not END <= value
    assert NULL == NULL and NULL <= NULL and NULL >= NULL
    assert not NULL < NULL and not NULL > NULL
    assert (1, NULL) > (1, 2) and (1, NULL) < (1, END) < (2,)


def test_sentinels_survive_copies():
    assert copy.deepcopy((NULL, END)) == (NULL, END)
    assert pickle.loads(pickle.dumps(NULL)) is NULL


def test_unordered_types_still_raise():
    with pytest.raises(TypeError):
        sorted([1, "a"], key=ordering_key)
    with pytest.raises(TypeError):
        sorted([(1, None), ("a", None)], key=row_ordering_key)


def test_condition_matches_uses_the_canonical_rule():
    field = StringField("Name")
    equality = Condition(field, "=", "p")
    assert equality.matches(None, None)
    assert not equality.matches(None, "x")
    ranged = Condition(field, ">", "p")
    assert not ranged.matches(None, "a")
    assert not ranged.matches("b", None)
    assert ranged.matches("b", "a")
