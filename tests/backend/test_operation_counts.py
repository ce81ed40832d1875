"""Pinned store operation counts for fixed request sequences.

A seeded request sequence replayed on hotel and on a small RuBiS
bidding instance, under both update protocols and with the
per-transaction read cache on and off, must issue exactly the store
operations recorded here.  The figures were taken from the interpreting
executor that preceded plan compilation; any change to how the engine
serves plans must leave every counter, and the simulated clock, as it
is.
"""

import pytest

from repro import Advisor
from repro.backend import ExecutionEngine
from repro.demo import hotel_dataset, hotel_model, hotel_workload
from repro.randgen import BindingGenerator
from repro.rubis import (
    TRANSACTIONS,
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
    rubis_workload,
)

EXPECTED = {
    ("hotel", "nose", False): {
        "gets": 75, "puts": 12, "deletes": 16, "rows_read": 1143,
        "rows_scanned": 3089, "rows_written": 12, "rows_deleted": 16,
        "bytes_read": 143544, "partitions_touched": 103,
        "simulated_ms": 55.11425999999997},
    ("hotel", "nose", True): {
        "gets": 50, "puts": 12, "deletes": 16, "rows_read": 1114,
        "rows_scanned": 3060, "rows_written": 12, "rows_deleted": 16,
        "bytes_read": 141088, "partitions_touched": 78,
        "simulated_ms": 43.69351999999999},
    ("hotel", "expert", False): {
        "gets": 75, "puts": 12, "deletes": 12, "rows_read": 1143,
        "rows_scanned": 3089, "rows_written": 12, "rows_deleted": 12,
        "bytes_read": 143544, "partitions_touched": 99,
        "simulated_ms": 53.994259999999976},
    ("hotel", "expert", True): {
        "gets": 50, "puts": 12, "deletes": 12, "rows_read": 1114,
        "rows_scanned": 3060, "rows_written": 12, "rows_deleted": 12,
        "bytes_read": 141088, "partitions_touched": 74,
        "simulated_ms": 42.573519999999995},
    ("rubis", "nose", False): {
        "gets": 120, "puts": 56, "deletes": 12, "rows_read": 260,
        "rows_scanned": 262, "rows_written": 56, "rows_deleted": 12,
        "bytes_read": 18764, "partitions_touched": 188,
        "simulated_ms": 74.72555999999994},
    ("rubis", "nose", True): {
        "gets": 116, "puts": 56, "deletes": 12, "rows_read": 256,
        "rows_scanned": 258, "rows_written": 56, "rows_deleted": 12,
        "bytes_read": 17964, "partitions_touched": 184,
        "simulated_ms": 72.88355999999995},
    ("rubis", "expert", False): {
        "gets": 120, "puts": 56, "deletes": 0, "rows_read": 260,
        "rows_scanned": 262, "rows_written": 56, "rows_deleted": 0,
        "bytes_read": 18764, "partitions_touched": 176,
        "simulated_ms": 71.36555999999995},
    ("rubis", "expert", True): {
        "gets": 116, "puts": 56, "deletes": 0, "rows_read": 256,
        "rows_scanned": 258, "rows_written": 56, "rows_deleted": 0,
        "bytes_read": 17964, "partitions_touched": 172,
        "simulated_ms": 69.52355999999996},
}


def _hotel():
    model = hotel_model(scale=0.01)
    workload = hotel_workload(model, include_updates=True)
    statements = list(workload.statements.values())

    def transactions(dataset):
        # four passes over the workload, three statements a transaction
        generator = BindingGenerator(dataset, seed=5)
        for _ in range(4):
            for start in range(0, len(statements), 3):
                yield [(statement.label,
                        generator.bindings_for(statement))
                       for statement in statements[start:start + 3]]

    return (model, Advisor(model).recommend(workload),
            lambda: hotel_dataset(model, seed=0), transactions)


def _rubis():
    model = rubis_model(users=400)
    workload = rubis_workload(model, mix="bidding")

    def transactions(dataset):
        generator = RubisParameterGenerator(dataset, seed=11)
        for _ in range(4):
            for name in sorted(TRANSACTIONS):
                yield generator.requests_for(name)

    return (model, Advisor(model).recommend(workload),
            lambda: generate_dataset(model, seed=7), transactions)


@pytest.fixture(scope="module")
def applications():
    return {"hotel": _hotel(), "rubis": _rubis()}


@pytest.mark.filterwarnings("ignore::repro.TruncationWarning")
@pytest.mark.parametrize("application, protocol, share_reads",
                         sorted(EXPECTED))
def test_replay_issues_the_pinned_store_operations(
        applications, application, protocol, share_reads):
    model, recommendation, dataset_of, transactions = \
        applications[application]
    dataset = dataset_of()
    engine = ExecutionEngine(model, recommendation, dataset,
                             share_reads=share_reads,
                             update_protocol=protocol)
    engine.load()
    for requests in transactions(dataset):
        engine.execute_transaction(requests)
    assert engine.store.metrics.snapshot() \
        == EXPECTED[(application, protocol, share_reads)]
