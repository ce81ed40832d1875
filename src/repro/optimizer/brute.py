"""Exhaustive schema optimization, for validating the BIP encoding.

Enumerates every subset of the candidate pool (the naive approach §V
mentions and rejects for scale) and picks the feasible subset with the
lowest weighted cost, breaking ties toward fewer column families.  Only
usable for small candidate pools; property tests assert it agrees with
:class:`~repro.optimizer.bip.BIPOptimizer`.
"""

from __future__ import annotations

from itertools import combinations

from repro.exceptions import OptimizationError
from repro.optimizer.results import SchemaRecommendation


class BruteForceOptimizer:
    """Exponential-time reference optimizer."""

    def __init__(self, max_indexes=16):
        self.max_indexes = max_indexes

    def solve(self, problem):
        indexes = problem.indexes
        if len(indexes) > self.max_indexes:
            raise OptimizationError(
                f"brute force supports at most {self.max_indexes} "
                f"candidates, got {len(indexes)}")
        best = None
        for subset_size in range(len(indexes) + 1):
            for subset in combinations(indexes, subset_size):
                priced = problem.price(index.key for index in subset)
                if priced is None:
                    continue
                rank = (priced.cost, len(subset))
                if best is None or rank < best[0]:
                    best = (rank, subset, priced)
        if best is None:
            raise OptimizationError("no feasible schema exists")
        _rank, subset, priced = best
        return SchemaRecommendation(subset, priced.query_plans,
                                    priced.update_plans, problem.weights,
                                    priced.cost)
