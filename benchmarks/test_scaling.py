"""Benchmark: thousand-statement scaling of the staged advisor.

Measures end-to-end ``prepare`` + ``recommend_prepared`` over
template-based workloads of growing statement count and asserts the
prepare stage stays near-linear: per-statement prepare time may not
grow more than ``SUPERLINEARITY_BOUND``-fold from the smallest to the
largest size.  Template-based means a bounded set of structural
statement shapes instantiated under distinct labels — the realistic
OLTP shape (applications issue few distinct statement *forms*, many
times), and the regime where the candidate pool saturates instead of
growing with every added statement.  A fully-random workload grows its
pool superlinearly with the statement count and measures enumeration
explosion, not pipeline scaling.

Writes ``BENCH_scaling.json`` at the repo root.  Knobs:

``NOSE_BENCH_SCALING_SIZES``      comma-separated statement counts
                                  (default ``100,1000``; add 5000 for
                                  the full run)
``NOSE_BENCH_SCALING_TEMPLATES``  distinct structural shapes (default 24)
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from bench_common import write_result
from repro import Advisor
from repro.randgen import random_model
from repro.randgen.statements import (
    _random_insert,
    _random_query,
    _random_update,
)
from repro.workload import Workload
from repro.workload.statements import Insert, Query, Update

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZES = [int(size) for size in os.environ.get(
    "NOSE_BENCH_SCALING_SIZES", "100,1000").split(",")]
TEMPLATES = int(os.environ.get("NOSE_BENCH_SCALING_TEMPLATES", "24"))
#: per-statement prepare time may grow at most this factor across a
#: 10x (default) size increase — a quadratic stage would show ~10x
SUPERLINEARITY_BOUND = 3.0


def template_workload(model, statements, templates=TEMPLATES, seed=17):
    """``statements`` instances of a bounded set of structural shapes.

    Roughly 90/8/2 read/update/insert, labels distinct per instance so
    every statement plans individually while the candidate pool stays
    bounded by the template set.
    """
    rng = random.Random(seed)
    query_forms = [_random_query(model, rng, number, 2)
                   for number in range(templates)]
    update_forms = [form for form in
                    (_random_update(model, rng, number, 2)
                     for number in range(max(2, templates // 6)))
                    if form is not None]
    insert_forms = [_random_insert(model, rng, number)
                    for number in range(max(1, templates // 12))]
    updates = statements * 8 // 100
    inserts = statements * 2 // 100
    queries = statements - updates - inserts
    workload = Workload(model)
    for number in range(queries):
        form = query_forms[number % len(query_forms)]
        workload.add_statement(
            Query(form.key_path, form.select, form.conditions,
                  label=f"q{number}"),
            weight=round(rng.uniform(0.1, 10.0), 2))
    for number in range(updates):
        form = update_forms[number % len(update_forms)]
        workload.add_statement(
            Update(form.key_path, form.settings, form.conditions,
                   label=f"u{number}"),
            weight=round(rng.uniform(0.1, 5.0), 2))
    for number in range(inserts):
        form = insert_forms[number % len(insert_forms)]
        workload.add_statement(
            Insert(form.key_path, form.settings, form.connections,
                   label=f"i{number}"),
            weight=round(rng.uniform(0.1, 5.0), 2))
    return workload


def _measure(model, size):
    workload = template_workload(model, size)
    advisor = Advisor(model)
    started = time.perf_counter()
    prepared = advisor.prepare(workload)
    prepare_seconds = time.perf_counter() - started
    started = time.perf_counter()
    recommendation = advisor.recommend_prepared(prepared)
    recommend_seconds = time.perf_counter() - started
    return {
        "statements": len(list(workload.statements)),
        "prepare_seconds": prepare_seconds,
        "prepare_seconds_per_statement": prepare_seconds / size,
        "recommend_seconds": recommend_seconds,
        "stages": recommendation.timing.stage_breakdown(),
        "candidates": len(prepared.candidates),
        "query_plan_count": prepared.plan_count,
        "recommended_column_families": len(recommendation.indexes),
    }


def test_scaling_near_linear():
    model = random_model(entities=8, seed=7)
    rows = [_measure(model, size) for size in sorted(SIZES)]

    smallest, largest = rows[0], rows[-1]
    growth = (largest["prepare_seconds_per_statement"]
              / max(smallest["prepare_seconds_per_statement"], 1e-9))
    payload = {
        "workload": "randgen/template-oltp",
        "templates": TEMPLATES,
        "sizes": rows,
        "prepare_per_statement_growth": growth,
        "superlinearity_bound": SUPERLINEARITY_BOUND,
        "cpu_count": os.cpu_count(),
    }
    (REPO_ROOT / "BENCH_scaling.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    lines = [f"{'stmts':>6} {'prepare':>9} {'ms/stmt':>8} "
             f"{'recommend':>10} {'pool':>6}"]
    for row in rows:
        lines.append(
            f"{row['statements']:>6} {row['prepare_seconds']:>8.2f}s "
            f"{1000 * row['prepare_seconds_per_statement']:>7.2f} "
            f"{row['recommend_seconds']:>9.2f}s "
            f"{row['candidates']:>6}")
    summary = ("\n".join(lines)
               + f"\n\nper-statement prepare growth "
               f"({smallest['statements']} -> "
               f"{largest['statements']} stmts): {growth:.2f}x"
               f"\ncpu_count: {os.cpu_count()}\n")
    print()
    print(summary)
    write_result("scaling.txt", summary)

    # acceptance: prepare stays near-linear in the statement count
    assert growth <= SUPERLINEARITY_BOUND, (
        f"per-statement prepare time grew {growth:.2f}x from "
        f"{smallest['statements']} to {largest['statements']} "
        f"statements (bound {SUPERLINEARITY_BOUND}x)")
