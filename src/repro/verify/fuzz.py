"""Fuzz driver: random workloads through the differential oracle.

Follows the §VII-B methodology end to end: a random entity graph, a
random workload over it, a random dataset with NULLs and orphaned
relationship ends, a real advisor recommendation, and a random request
sequence with data-driven parameter bindings — all seeded.  Every
request is cross-checked by the :class:`DifferentialRunner`; any
divergence is shrunk to a minimal failing statement + dataset.
"""

from __future__ import annotations

import random

from repro.advisor import Advisor
from repro.randgen import (
    BindingGenerator,
    random_dataset,
    random_model,
    random_workload,
)
from repro.verify.runner import DifferentialRunner
from repro.verify.shrink import shrink_divergence


class FuzzTrial:
    """Outcome of one (model, workload, dataset, protocol) combination."""

    def __init__(self, seed, protocol, checks, divergences, shrunk):
        self.seed = seed
        self.protocol = protocol
        self.checks = checks
        self.divergences = divergences
        self.shrunk = shrunk

    @property
    def ok(self):
        return not self.divergences

    def as_dict(self):
        record = {"seed": self.seed, "protocol": self.protocol,
                  "checks": self.checks, "ok": self.ok,
                  "divergences": [d.as_dict() for d in self.divergences]}
        if self.shrunk is not None:
            record["shrunk"] = self.shrunk.as_dict()
        return record


def fuzz_workloads(trials=3, seed=0, entities=5, queries=5, updates=2,
                   inserts=1, requests=40, rows_per_entity=16,
                   protocols=("nose", "expert"), max_plans=100,
                   engine_factory=None, shrink=True, extended=False):
    """Run ``trials`` random differential-verification rounds.

    Returns a list of :class:`FuzzTrial`, one per (trial, protocol);
    failures carry their divergences and a shrunk minimal reproducer.
    Fully deterministic under ``seed``.  ``extended`` draws workloads
    mixing the extended statement-language constructs (aggregation,
    IN-lists, ``!=``, OR) into the trials.
    """
    results = []
    for trial in range(trials):
        trial_seed = seed * 7919 + trial
        model = random_model(entities=entities, seed=trial_seed)
        workload = random_workload(model, queries=queries,
                                   updates=updates, inserts=inserts,
                                   seed=trial_seed, extended=extended)
        dataset = random_dataset(model, seed=trial_seed,
                                 rows_per_entity=rows_per_entity)
        dataset.sync_counts()
        recommendation = Advisor(model, max_plans=max_plans).recommend(
            workload)
        statements = list(workload.statements.values())
        for protocol in protocols:
            initial = dataset.copy()
            live = dataset.copy()
            # str hash is process-randomized; derive a stable offset
            rng = random.Random(trial_seed
                                + sum(ord(c) for c in protocol))
            generator = BindingGenerator(live, seed=trial_seed)
            runner = DifferentialRunner(
                model, recommendation, live,
                update_protocol=protocol,
                engine_factory=engine_factory)
            request_log = []
            for _ in range(requests):
                if runner.divergences:  # from the load sweep or a check
                    break
                statement = rng.choice(statements)
                params = generator.bindings_for(statement)
                request_log.append((statement, params))
                runner.check(statement, params)
            shrunk = None
            if runner.divergences and shrink:
                shrunk = shrink_divergence(
                    model, recommendation, initial, request_log,
                    runner.divergences[0], update_protocol=protocol,
                    engine_factory=engine_factory)
            results.append(FuzzTrial(trial_seed, protocol,
                                     runner.checks,
                                     list(runner.divergences), shrunk))
    return results
