"""Unit tests for the RUBiS data and parameter generators."""

import random

import pytest

from repro.rubis import (
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
)
from repro.rubis.transactions import TRANSACTIONS


@pytest.fixture(scope="module")
def model():
    return rubis_model(users=600)


@pytest.fixture(scope="module")
def dataset(model):
    return generate_dataset(model, seed=7)


def test_row_counts_match_model(model, dataset):
    for name, entity in model.entities.items():
        assert len(dataset.rows[name]) == entity.count


def test_generation_is_deterministic(model):
    first = generate_dataset(model, seed=7)
    second = generate_dataset(model, seed=7)
    assert first.rows["User"][5] == second.rows["User"][5]
    assert first.rows["Item"][3] == second.rows["Item"][3]


def test_item_bid_statistics_consistent(model, dataset):
    """NbOfBids and MaxBid on items must match the generated bids."""
    bids_fk = model.entity("Item")["Bids"]
    for item_id, row in dataset.rows["Item"].items():
        bids = dataset.related(bids_fk, item_id)
        assert row["Item.NbOfBids"] == len(bids)
        if bids:
            top = max(dataset.rows["Bid"][b]["Bid.BidAmount"]
                      for b in bids)
            assert row["Item.MaxBid"] == pytest.approx(top)
        else:
            assert row["Item.MaxBid"] == 0.0


def test_every_entity_connected(model, dataset):
    region_fk = model.entity("User")["Region"]
    for user_id in list(dataset.rows["User"])[:50]:
        assert dataset.related(region_fk, user_id)
    seller_fk = model.entity("Item")["Seller"]
    for item_id in list(dataset.rows["Item"])[:50]:
        assert dataset.related(seller_fk, item_id)


def test_parameter_generator_covers_all_transactions(dataset):
    generator = RubisParameterGenerator(dataset, seed=11)
    for transaction in TRANSACTIONS:
        requests = generator.requests_for(transaction)
        assert [label for label, _ in requests] \
            == TRANSACTIONS[transaction]
        for _label, params in requests:
            assert params["item"] in dataset.rows["Item"]
            assert params["user"] in dataset.rows["User"]


def test_fresh_ids_do_not_collide(dataset):
    generator = RubisParameterGenerator(dataset, seed=11)
    seen = set()
    for _ in range(10):
        (_, params), _ = generator.requests_for("StoreBid")
        assert params["BidID"] not in dataset.rows["Bid"]
        assert params["BidID"] not in seen
        seen.add(params["BidID"])


def test_store_bid_parameters_consistent(dataset):
    generator = RubisParameterGenerator(dataset, seed=13)
    (_, params), _ = generator.requests_for("StoreBid")
    item = dataset.rows["Item"][params["item"]]
    assert params["amount"] > item["Item.MaxBid"]
    assert params["nb_of_bids"] == item["Item.NbOfBids"] + 1
    assert params["max_bid"] >= item["Item.MaxBid"]


def test_id_draws_follow_inserts_and_deletes(model):
    """Draws interleaved with inserts (and a delete) pick the same keys
    as drawing from a fresh ``list(rows)`` each time, seed for seed."""
    dataset = generate_dataset(model, seed=7)
    generator = RubisParameterGenerator(dataset, seed=19)
    reference = random.Random(19)
    rows = dataset.rows["Bid"]
    next_bid = max(rows) + 1
    for step in range(60):
        for _ in range(step % 4):
            dataset.add_row("Bid", {"BidID": next_bid, "BidQty": 1,
                                    "BidAmount": 1.0, "BidDate": 0})
            next_bid += 1
        if step == 40:
            dataset.delete_entity("Bid", next(iter(rows)))
        keys = list(rows)
        expected = keys[reference.randrange(len(keys))]
        assert generator._any_id("Bid") == expected


def test_id_draws_follow_a_delete_plus_an_insert(model):
    """A delete and an insert between two draws leave the row count
    unchanged; the draws must still see the deleted key gone and the
    inserted one present."""
    dataset = generate_dataset(model, seed=7)
    generator = RubisParameterGenerator(dataset, seed=23)
    reference = random.Random(23)
    rows = dataset.rows["Bid"]
    next_bid = max(rows) + 1
    for step in range(40):
        if step % 5 == 4:
            dataset.delete_entity("Bid", next(iter(rows)))
            dataset.add_row("Bid", {"BidID": next_bid, "BidQty": 1,
                                    "BidAmount": 1.0, "BidDate": 0})
            next_bid += 1
        keys = list(rows)
        expected = keys[reference.randrange(len(keys))]
        assert generator._any_id("Bid") == expected
