"""The differential oracle over engines that share reads.

With ``share_reads`` the engine answers a get request repeated inside
one transaction from a per-transaction cache, handing the same row
objects to every statement that asks.  Those rows must reach each
statement unchanged, so these runs check whole transactions against
the reference interpreter under both update protocols and require the
cache to have answered some gets.
"""

import random

import pytest

from repro import Advisor
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.rubis import (
    TRANSACTIONS,
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
    rubis_workload,
)
from repro.verify import DifferentialRunner
from repro.workload.statements import Query

PROTOCOLS = ("nose", "expert")


def _replay(model, recommendation, dataset, protocol, share_reads,
            transactions):
    runner = DifferentialRunner(model, recommendation, dataset,
                                update_protocol=protocol,
                                share_reads=share_reads)
    for requests in transactions(runner.dataset):
        # one engine transaction, so the read cache spans its statements
        with runner.engine.transaction():
            for statement, params in requests:
                runner.check(statement, params)
    return runner


def _assert_clean_and_shared(model, recommendation, dataset_of, protocol,
                             transactions):
    shared = _replay(model, recommendation, dataset_of(), protocol, True,
                     transactions)
    assert shared.ok, shared.divergences[:3]
    unshared = _replay(model, recommendation, dataset_of(), protocol,
                       False, transactions)
    assert unshared.ok, unshared.divergences[:3]
    assert shared.checks == unshared.checks > 0
    # the cache answered some of the repeated gets
    assert shared.engine.store.metrics.gets \
        < unshared.engine.store.metrics.gets


@pytest.fixture(scope="module")
def rubis_bidding():
    model = rubis_model(users=400)
    workload = rubis_workload(model, mix="bidding")
    return model, workload, Advisor(model).recommend(workload)


@pytest.mark.filterwarnings("ignore::repro.TruncationWarning")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_rubis_bidding_transactions_verify_with_shared_reads(
        rubis_bidding, protocol):
    model, workload, recommendation = rubis_bidding

    def transactions(dataset):
        generator = RubisParameterGenerator(dataset, seed=3)
        for _ in range(4):
            for name in sorted(TRANSACTIONS):
                yield [(workload.statements[label], params)
                       for label, params in generator.requests_for(name)]

    _assert_clean_and_shared(
        model, recommendation,
        lambda: generate_dataset(model, seed=7), protocol, transactions)


@pytest.mark.parametrize("seed", [1, 4, 9])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_random_workload_transactions_verify_with_shared_reads(seed,
                                                               protocol):
    """Randgen fuzz instances: each transaction asks some queries, asks
    them again with the same parameters (answered by the cache), then
    writes, so the next transaction reads what the writes left."""
    model = random_model(entities=4, seed=seed)
    workload = random_workload(model, queries=4, updates=2, inserts=1,
                               seed=seed)
    dataset = random_dataset(model, seed=seed, rows_per_entity=10)
    dataset.sync_counts()
    recommendation = Advisor(model, max_plans=60).recommend(workload)
    statements = list(workload.statements.values())
    queries = [s for s in statements if isinstance(s, Query)]
    writes = [s for s in statements if not isinstance(s, Query)]

    def transactions(live):
        rng = random.Random(seed)
        generator = BindingGenerator(live, seed=seed)
        for _ in range(8):
            reads = [(query, generator.bindings_for(query))
                     for query in rng.sample(queries, 2)]
            write = rng.choice(writes)
            yield reads + reads + [(write, generator.bindings_for(write))]

    _assert_clean_and_shared(model, recommendation, dataset.copy,
                             protocol, transactions)
