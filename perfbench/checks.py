"""Correctness checks run on every benchmark run's outputs.

Each check returns a list of failure messages; the run counts every
message as a failed operation and exits nonzero if there is any.
"""

from __future__ import annotations

from repro import Advisor
from repro.verify import DifferentialRunner

#: relative slack for sums of the same floating-point terms
FLOAT_TOLERANCE = 1e-9
#: HiGHS' default MIP feasibility tolerance: a solution may overrun a
#: constraint row, such as the BIP's phase-2 cost cap, by this much
MIP_FEASIBILITY = 1e-6
#: how far the weighted sum of a recommendation's own plans may stray
#: from its objective, relative: the program's stated tolerance
#: (tests/rubis/test_rubis_recommendation.py).  The extractor keeps the
#: heavier plan of a fractional split, which may be the dearer one, so
#: the sum can overrun the phase-2 cost cap; the run reports the
#: overrun as ``plan_excess_frac``
PLAN_SUM_TOLERANCE = 1e-2


def cost_tolerance(claimed, gap):
    """How far a recommendation's plans may cost from its objective.

    The BIP reports its phase-1 optimum, then re-solves for the
    smallest schema under the cap ``objective + gap * |objective| +
    1e-7 * (1 + |objective|)`` (``repro.optimizer.bip``), which the
    solver honours up to :data:`MIP_FEASIBILITY`.
    """
    scale = 1.0 + abs(claimed)
    return gap * abs(claimed) + 1e-7 * scale + MIP_FEASIBILITY * scale


def capped_labels(prepared):
    """Labels of statements whose plan space — their own or one of
    their support queries' — hit the planner's plan cap."""
    labels = set()
    for query in prepared.truncated:
        update = getattr(query, "update", None)
        labels.add(update.label if update is not None else query.label)
    return labels


def check_pricing(model, workload, recommendation, capped, gap):
    """Re-price ``recommendation`` with a fresh fixed-schema planner.

    The claimed objective must agree, within the solver's tolerance
    (:func:`cost_tolerance`), with a fresh :meth:`Advisor.plan_for_schema`
    over the same column families, and within
    :data:`PLAN_SUM_TOLERANCE` with the weighted sum of the chosen
    plans.  A statement in ``capped`` may re-price cheaper — the cap hid
    that plan from the solver, and the recommendation says so — and
    that difference is reported, not failed.  Returns ``(failures,
    notes)``: the excused relative gap (``capped_gap_frac``) and the
    chosen plans' relative overrun of the objective
    (``plan_excess_frac``).
    """
    claimed = recommendation.total_cost
    costs = recommendation.statement_costs
    summed = sum(weight * cost for weight, cost in costs.values())
    failures = []
    if abs(summed - claimed) > PLAN_SUM_TOLERANCE * abs(claimed):
        failures.append(f"objective {claimed!r} differs from the "
                        f"weighted sum {summed!r} of the chosen plans "
                        f"by more than {PLAN_SUM_TOLERANCE} relative")
    fresh = Advisor(model).plan_for_schema(workload,
                                           recommendation.indexes)
    repriced = fresh.statement_costs
    unplanned = sorted(query.label for query in workload.queries
                       if query.label not in costs)
    if unplanned:
        failures.append(f"queries without a plan: {unplanned}")
    # an update that modifies no chosen column family may be absent
    # from one side; it costs nothing on either
    excused = 0.0
    for label, (weight, cost) in costs.items():
        cheaper = cost - repriced.get(label, (weight, 0.0))[1]
        if label in capped and cheaper > 0:
            excused += weight * cheaper
    tolerance = cost_tolerance(claimed, gap)
    disagreement = abs(claimed - fresh.total_cost - excused)
    if disagreement > tolerance:
        failures.append(f"objective {claimed!r} re-prices to "
                        f"{fresh.total_cost!r} ({excused!r} explained by "
                        f"capped plan spaces), beyond {tolerance!r}")
    scale = abs(claimed) if claimed else 1.0
    return failures, {"capped_gap_frac": excused / scale,
                      "plan_excess_frac": (summed - claimed) / scale}


def check_windows(recommendation):
    """The windowed schedule may cost no more than either baseline."""
    total = recommendation.total_cost
    failures = []
    for name, baseline in sorted(recommendation.baselines.items()):
        if total > baseline["total"] * (1 + FLOAT_TOLERANCE):
            failures.append(f"windowed total {total!r} exceeds the "
                            f"{name} baseline {baseline['total']!r}")
    return failures


def check_execution(model, recommendation, dataset, stream, statements,
                    reads, writes):
    """Differential check of a seeded sample of the served stream.

    Draws transactions from ``stream`` until ``reads`` read-only and
    ``writes`` writing transactions are taken (skipping the surplus of
    either kind) and replays them through a :class:`DifferentialRunner`
    over ``dataset``, which sweeps the store after every write.
    Returns the runner.
    """
    runner = DifferentialRunner(model, recommendation, dataset)
    wanted = {False: reads, True: writes}
    while wanted[False] or wanted[True]:
        requests, is_write = stream.next()
        if not wanted[is_write]:
            continue
        wanted[is_write] -= 1
        for label, params in requests:
            runner.check(statements[label], params)
    return runner
