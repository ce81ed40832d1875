"""The join anchor of :meth:`Dataset.matching_ids` against a full join.

``matching_ids`` starts the path join from the most selective bindable
predicate.  The differential oracle cannot check that choice: the
reference interpreter mutates through ``Dataset.apply``, which calls
``matching_ids`` too.  So these tests compare it with the interpreter's
full-join evaluation, which joins every path row before filtering.
"""

import pytest

from repro.backend import Dataset
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.verify.interpreter import ReferenceInterpreter
from repro.workload import parse_statement
from repro.workload.statements import Delete, Insert, Update


def _full_join_ids(dataset, statement, params):
    interpreter = ReferenceInterpreter(dataset.model, dataset)
    return sorted({ids[0]
                   for ids in interpreter._join_rows(statement, params)})


def _statements(workload):
    """Every query and UPDATE, plus a DELETE over each UPDATE's path."""
    for statement in workload.statements.values():
        if isinstance(statement, Insert):
            continue
        yield statement
        if isinstance(statement, Update):
            yield Delete(statement.key_path, statement.conditions,
                         label=f"{statement.label}~delete")


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_matching_ids_equal_the_full_join(seed, extended):
    model = random_model(entities=6, seed=seed)
    dataset = random_dataset(model, seed=seed, rows_per_entity=16)
    workload = random_workload(model, queries=8, updates=4, seed=seed,
                               extended=extended)
    generator = BindingGenerator(dataset, seed=seed)
    checked = matched = 0
    for statement in _statements(workload):
        for _ in range(6):
            params = generator.bindings_for(statement)
            expected = _full_join_ids(dataset, statement, params)
            assert dataset.matching_ids(statement, params) == expected, \
                (statement, params)
            checked += 1
            matched += bool(expected)
    assert checked > 0 and matched > 0


@pytest.fixture()
def guests():
    from repro.demo import hotel_model
    model = hotel_model()
    dataset = Dataset(model)
    for guest in range(4):
        dataset.add_row("Guest", {"GuestID": guest,
                                  "GuestName": f"g{guest % 2}",
                                  "GuestEmail": f"g{guest}@x"})
    return model, dataset


@pytest.mark.parametrize("email, expected", [
    # the ID pins the anchor even though the email predicate matches no
    # row at all, which would have made it the smaller anchor
    ("nobody@x", []),
    ("g1@x", [1]),
    ("g2@x", []),
])
def test_an_id_predicate_beside_a_non_id_predicate(guests, email,
                                                   expected):
    model, dataset = guests
    update = parse_statement(
        model, "UPDATE Guest SET GuestName = ?name "
        "WHERE Guest.GuestID = ?guest AND Guest.GuestEmail = ?email")
    params = {"guest": 1, "email": email, "name": "x"}
    assert dataset.matching_ids(update, params) == expected
    assert _full_join_ids(dataset, update, params) == expected


def test_two_predicates_on_one_entity_narrow_one_scan(guests):
    model, dataset = guests
    delete = parse_statement(
        model, "DELETE FROM Guest WHERE Guest.GuestName = ?name "
        "AND Guest.GuestEmail = ?email")
    assert dataset.matching_ids(
        delete, {"name": "g0", "email": "g2@x"}) == [2]
    assert dataset.matching_ids(
        delete, {"name": "g1", "email": "g2@x"}) == []
