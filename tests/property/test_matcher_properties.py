"""Request-bound matchers agree with the canonical predicate rule.

:func:`repro.workload.semantics.matcher` binds a predicate once per
request for the executor's and the dataset's scans, while the reference
interpreter keeps evaluating :func:`~repro.workload.semantics.matches`.
The two must agree on every value: the same bool, or the same exception
type, including NULL, NaN and values of mutually unordered types.
"""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.semantics import matcher, matches

values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.integers(-3, 3),
    # small floats collide with the ints; any float may be NaN or inf
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.datetimes(min_value=datetime.datetime(2020, 1, 1),
                 max_value=datetime.datetime(2020, 1, 3)),
    st.booleans(),
)

#: an IN bound is a list of members, but a malformed scalar must fail
#: (or, for a string, iterate) the same way in both
in_bounds = st.one_of(st.lists(values, max_size=4).map(tuple), values)


def _outcome(evaluate):
    try:
        return "value", evaluate()
    except Exception as error:  # the exception type is the outcome
        return "raised", type(error)


def _agree(operator, value, bound):
    expected = _outcome(lambda: matches(operator, value, bound))
    found = _outcome(lambda: matcher(operator, bound)(value))
    assert found == expected, (operator, value, bound)
    if found[0] == "value":
        assert type(found[1]) is type(expected[1])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["=", "!=", ">", ">=", "<", "<="]), values, values)
def test_scalar_matchers_agree_with_matches(operator, value, bound):
    _agree(operator, value, bound)


@settings(max_examples=200, deadline=None)
@given(values, in_bounds)
def test_membership_matcher_agrees_with_matches(value, bound):
    _agree("IN", value, bound)

