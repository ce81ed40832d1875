"""Deterministic RUBiS data and request-parameter generation.

The paper populated its Cassandra instance with a 200,000-user RUBiS
dataset; this generator produces a synthetic equivalent at any scale
with the same cardinality ratios, fully deterministic under a seed.  A
companion parameter generator draws coherent request parameters per
transaction (e.g. StoreBid's insert and item-update share the same item
and keep ``NbOfBids``/``MaxBid`` consistent).
"""

from __future__ import annotations

import datetime
import random
from itertools import islice

from repro.backend.dataset import Dataset
from repro.rubis.transactions import TRANSACTIONS

#: reference "current time" for date attributes (kept fixed for
#: reproducibility)
NOW = datetime.datetime(2016, 4, 1)


def _days_ago(days):
    return NOW - datetime.timedelta(days=days)


def _days_ahead(days):
    return NOW + datetime.timedelta(days=days)


def generate_dataset(model, seed=7):
    """Populate a :class:`Dataset` matching the model's entity counts.

    Row counts come from the model (``rubis_model(users=...)``), so the
    advisor's cardinality statistics agree with the loaded data.
    """
    rng = random.Random(seed)
    dataset = Dataset(model)
    counts = {name: entity.count
              for name, entity in model.entities.items()}

    for region in range(counts["Region"]):
        dataset.add_row("Region", {
            "RegionID": region, "RegionName": f"region-{region}"})
    for category in range(counts["Category"]):
        dataset.add_row("Category", {
            "CategoryID": category,
            "CategoryName": f"category-{category}", "Dummy": 1})
    for user in range(counts["User"]):
        dataset.add_row("User", {
            "UserID": user,
            "UserFirstName": f"First{user}",
            "UserLastName": f"Last{user}",
            "UserNickname": f"nick{user}",
            "UserPassword": f"pw{user}",
            "UserEmail": f"user{user}@rubis.example",
            "UserRating": rng.randint(0, 99),
            "UserBalance": round(rng.uniform(0, 1000), 2),
            "UserCreationDate": _days_ago(rng.randint(1, 365)),
        })
        dataset.connect("Region", user % counts["Region"], "Users", user)

    for item in range(counts["Item"]):
        start = _days_ago(rng.randint(1, 60))
        end = _days_ahead(rng.randint(1, 30)) if rng.random() < 0.8 \
            else _days_ago(rng.randint(1, 10))
        dataset.add_row("Item", {
            "ItemID": item,
            "ItemName": f"item-{item}",
            "ItemDescription": f"description of item {item}",
            "InitialPrice": round(rng.uniform(1, 500), 2),
            "ItemQuantity": rng.randint(1, 10),
            "ReservePrice": round(rng.uniform(1, 700), 2),
            "BuyNowPrice": round(rng.uniform(10, 1000), 2),
            "NbOfBids": 0,
            "MaxBid": 0.0,
            "StartDate": start,
            "EndDate": end,
        })
        dataset.connect("User", rng.randrange(counts["User"]),
                        "ItemsSold", item)
        dataset.connect("Category", item % counts["Category"],
                        "Items", item)

    for old_item in range(counts["OldItem"]):
        dataset.add_row("OldItem", {
            "OldItemID": old_item,
            "OldItemName": f"old-item-{old_item}",
            "OldItemSoldPrice": round(rng.uniform(1, 800), 2),
            "OldItemEndDate": _days_ago(rng.randint(30, 365)),
        })
        dataset.connect("User", rng.randrange(counts["User"]),
                        "OldItemsSold", old_item)

    items = dataset.rows["Item"]
    for bid in range(counts["Bid"]):
        item = rng.randrange(counts["Item"])
        row = items[item]
        amount = round(row["Item.InitialPrice"]
                       + rng.uniform(0.5, 50) * (row["Item.NbOfBids"] + 1),
                       2)
        dataset.add_row("Bid", {
            "BidID": bid,
            "BidQty": rng.randint(1, 5),
            "BidAmount": amount,
            "BidDate": _days_ago(rng.randint(0, 30)),
        })
        dataset.connect("User", rng.randrange(counts["User"]), "Bids", bid)
        dataset.connect("Item", item, "Bids", bid)
        row["Item.NbOfBids"] += 1
        row["Item.MaxBid"] = max(row["Item.MaxBid"], amount)

    for comment in range(counts["Comment"]):
        dataset.add_row("Comment", {
            "CommentID": comment,
            "CommentRating": rng.randint(-5, 5),
            "CommentDate": _days_ago(rng.randint(0, 180)),
            "CommentText": f"comment text {comment}",
        })
        author = rng.randrange(counts["User"])
        recipient = rng.randrange(counts["User"])
        dataset.connect("User", author, "CommentsWritten", comment)
        dataset.connect("User", recipient, "CommentsReceived", comment)
        dataset.connect("Item", rng.randrange(counts["Item"]),
                        "Comments", comment)

    for buy in range(counts["BuyNow"]):
        dataset.add_row("BuyNow", {
            "BuyNowID": buy,
            "BuyNowQty": rng.randint(1, 3),
            "BuyNowDate": _days_ago(rng.randint(0, 60)),
        })
        dataset.connect("User", rng.randrange(counts["User"]),
                        "Purchases", buy)
        dataset.connect("Item", rng.randrange(counts["Item"]),
                        "BuyNows", buy)

    return dataset


class RubisParameterGenerator:
    """Draws coherent request parameters for each RUBiS transaction.

    Keeps counters for fresh IDs so insert statements never collide with
    existing rows, and reads current item state so StoreBid's item
    update stays consistent with the inserted bid.
    """

    def __init__(self, dataset, seed=11):
        self.dataset = dataset
        self.rng = random.Random(seed)
        self._next_id = {name: max(rows, default=0) + 1_000_000
                         for name, rows in dataset.rows.items()}
        self._key_cache = {}

    def _fresh_id(self, entity_name):
        value = self._next_id[entity_name]
        self._next_id[entity_name] = value + 1
        return value

    def _any_id(self, entity_name):
        rows = self.dataset.rows[entity_name]
        deletions = self.dataset.deletions[entity_name]
        seen, keys = self._key_cache.get(entity_name, (None, None))
        if seen != deletions:
            keys = list(rows)
            self._key_cache[entity_name] = (deletions, keys)
        elif len(keys) < len(rows):
            # inserts append: the new keys are the last in insertion order
            grown = list(islice(reversed(rows), len(rows) - len(keys)))
            keys.extend(reversed(grown))
        return keys[self.rng.randrange(len(keys))]

    def requests_for(self, transaction):
        """``[(statement label, params), ...]`` for one transaction."""
        shared = self._shared_parameters(transaction)
        return [(label, shared) for label in TRANSACTIONS[transaction]]

    def _shared_parameters(self, transaction):
        rng = self.rng
        params = {
            "dummy": 1,
            "now": NOW,
            "user": self._any_id("User"),
            "item": self._any_id("Item"),
            "category": self._any_id("Category"),
            "to_user": self._any_id("User"),
            "region": self._any_id("Region"),
            "date": NOW,
            "qty": rng.randint(1, 3),
        }
        if transaction == "StoreBid":
            item_row = self.dataset.rows["Item"][params["item"]]
            amount = round(item_row["Item.MaxBid"]
                           + rng.uniform(0.5, 25), 2)
            params.update({
                "BidID": self._fresh_id("Bid"),
                "amount": amount,
                "nb_of_bids": item_row["Item.NbOfBids"] + 1,
                "max_bid": max(item_row["Item.MaxBid"], amount),
            })
        elif transaction == "StoreBuyNow":
            item_row = self.dataset.rows["Item"][params["item"]]
            params.update({
                "BuyNowID": self._fresh_id("BuyNow"),
                "quantity": max(item_row["Item.ItemQuantity"]
                                - params["qty"], 0),
            })
        elif transaction == "StoreComment":
            params.update({
                "CommentID": self._fresh_id("Comment"),
                "rating": rng.randint(-5, 5),
                "text": "a new comment",
            })
        elif transaction == "RegisterItem":
            params.update({
                "ItemID": self._fresh_id("Item"),
                "name": "a new item",
                "description": "description of a new item",
                "initial_price": round(rng.uniform(1, 500), 2),
                "quantity": rng.randint(1, 10),
                "reserve_price": round(rng.uniform(1, 700), 2),
                "buy_now_price": round(rng.uniform(10, 1000), 2),
                "nb_of_bids": 0,
                "max_bid": 0.0,
                "start_date": NOW,
                "end_date": _days_ahead(rng.randint(1, 30)),
            })
        elif transaction == "RegisterUser":
            new_user = self._fresh_id("User")
            params.update({
                "UserID": new_user,
                "first_name": "New",
                "last_name": "User",
                "nickname": f"nick{new_user}",
                "password": "secret",
                "email": f"user{new_user}@rubis.example",
                "rating": 0,
                "balance": 0.0,
                "creation_date": NOW,
            })
        return params
