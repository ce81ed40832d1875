"""Command-line interface for the schema advisor.

Usage::

    nose-advisor --demo hotel
    nose-advisor --demo rubis --mix bidding --space-limit 50000000
    nose-advisor --model my_model.py --timing
    nose-advisor --demo rubis --explain --output-json base.json
    nose-advisor diff base.json tuned.json --fail-on-regression 10
    nose-advisor verify --seed 0
    nose-advisor verify --demo rubis --mix bidding --output-json report.json
    nose-advisor verify --fuzz 5 --seed 42
    nose-advisor profile --demo hotel --requests 400
    nose-advisor profile --demo rubis --mix bidding --output-json profile.json
    nose-advisor monitor --demo drift --output-json monitor.json
    nose-advisor monitor --trace-in trace.json --model my_model.py
    nose-advisor monitor --demo drift --replan-requests 5000
    nose-advisor windows --demo rubis-drift --output-json windows.json
    nose-advisor windows --model app.py --windows "quiet:800,busy:1200"

With ``--model``, the given Python file must define ``build()``
returning a ``(model, workload)`` pair; this mirrors how the original
prototype loaded workload definition files.  The ``diff`` subcommand
compares two recommendation documents written by ``--output-json`` and
exits nonzero when the total cost regresses past the given threshold.
The ``verify`` subcommand runs the differential execution oracle: it
executes a recommendation through the in-memory engine and a reference
interpreter side by side and exits with status 2 on any divergence.
The ``profile`` subcommand replays a recommendation with the execution
flight recorder attached and reports how well predicted costs track
measured latencies (see :mod:`repro.profile`).
The ``monitor`` subcommand watches live (or recorded) traffic drift
away from the advised workload and prices the regret of keeping the
old schema (see :mod:`repro.monitor`); it exits with status 3 when
drift was detected.  With ``--replan-requests`` it hands the observed
mix to the windowed advisor, which decides migrate-or-hold instead of
only pricing regret.
The ``windows`` subcommand advises a schema *schedule* for an ordered
sequence of workload windows, co-optimizing per-window schemas with
costed migrations between them (see :mod:`repro.windows`); it exits
with status 2 if the windowed schedule is ever worse than the static
or naive-per-window baselines — an internal-consistency guarantee CI
relies on.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import sys

from repro import telemetry
from repro.advisor import Advisor
from repro.cost import CassandraCostModel, SimpleCostModel
from repro.exceptions import NoseError
from repro.io import (
    dump_document,
    load_application,
    load_document,
    read_json,
)


def _load_demo(name, mix):
    if name == "hotel":
        from repro.demo import hotel_model, hotel_workload
        model = hotel_model()
        return model, hotel_workload(model)
    if name == "rubis":
        from repro.rubis import rubis_model, rubis_workload
        model = rubis_model()
        return model, rubis_workload(model, mix=mix or "bidding")
    raise NoseError(f"unknown demo {name!r}; available: hotel, rubis")


def _load_module(path):
    spec = importlib.util.spec_from_file_location("nose_workload", path)
    if spec is None or spec.loader is None:
        raise NoseError(f"cannot load workload module {path!r}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except NoseError:
        raise
    except Exception as error:
        # a broken user module must not escape as a raw traceback
        raise NoseError(
            f"workload module {path!r} failed to import: "
            f"{type(error).__name__}: {error}") from error
    if not hasattr(module, "build"):
        raise NoseError(
            f"workload module {path!r} must define build() -> "
            "(model, workload)")
    try:
        model, workload = module.build()
    except NoseError:
        raise
    except Exception as error:
        raise NoseError(
            f"workload module {path!r} build() failed: "
            f"{type(error).__name__}: {error}") from error
    return model, workload


def _load_application(arguments, mix):
    """``(model, workload)`` from ``--json`` or ``--model``, switched
    to ``mix`` when one is given."""
    if arguments.json_file:
        model, workload = load_application(arguments.json_file)
    else:
        model, workload = _load_module(arguments.model)
    if mix:
        workload = workload.with_mix(mix)
    return model, workload


def _add_source(parser, demos, demo_help, required=False, default=None):
    """Add the ``--demo``/``--model``/``--json`` source group.

    Returns the mutually exclusive group so a subcommand can add a
    further source of its own (``verify --fuzz``).
    """
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--demo", choices=demos, default=default,
                        help=demo_help)
    source.add_argument("--model", metavar="FILE",
                        help="Python file defining build() -> "
                             "(model, workload)")
    source.add_argument("--json", metavar="FILE", dest="json_file",
                        help="JSON application document (see repro.io)")
    return source


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor",
        description="NoSE: recommend a NoSQL schema for a workload")
    _add_source(parser, ["hotel", "rubis"],
                "use a bundled demo model and workload", required=True)
    parser.add_argument("--mix", help="workload mix to optimize for")
    parser.add_argument("--space-limit", type=float, default=None,
                        metavar="BYTES",
                        help="storage budget for the recommended schema")
    parser.add_argument("--cost-model", choices=["cassandra", "simple"],
                        default="cassandra")
    parser.add_argument("--max-plans", type=int, default=500,
                        help="cap on enumerated plans per statement")
    parser.add_argument("--repeat-tuning", type=int, default=0,
                        metavar="N",
                        help="after the first recommendation, re-solve N "
                             "more times with write weights scaled 2x "
                             "per epoch, reusing the prepared pipeline; "
                             "prints a per-epoch timing table")
    parser.add_argument("--timing", action="store_true",
                        help="print the advisor stage timing breakdown")
    parser.add_argument("--trace", action="store_true",
                        help="record a telemetry trace and print the "
                             "span tree and metric summary "
                             "(NOSE_TELEMETRY=0 disables)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        dest="metrics_out",
                        help="write the telemetry run report as JSON")
    parser.add_argument("--cql", action="store_true",
                        help="also print CREATE TABLE DDL for the schema")
    parser.add_argument("--explain", action="store_true",
                        help="annotate the recommendation with candidate "
                             "provenance, per-step cost terms and the "
                             "solver's chosen-vs-rejected accounting")
    parser.add_argument("--output-json", metavar="FILE",
                        help="write the recommendation as an explain "
                             "JSON document (diffable with "
                             "'nose-advisor diff')")
    return parser


def build_diff_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor diff",
        description="Compare two recommendation JSON documents "
                    "(written by --output-json)")
    parser.add_argument("base", help="baseline recommendation JSON")
    parser.add_argument("other", help="candidate recommendation JSON")
    parser.add_argument("--fail-on-regression", type=float, default=None,
                        metavar="PCT",
                        help="exit with status 2 if the candidate's "
                             "total cost exceeds the baseline by more "
                             "than PCT percent")
    return parser


def run_diff(argv):
    arguments = build_diff_parser().parse_args(argv)
    from repro.explain import EXPLAIN_FORMAT, diff_recommendations
    from repro.reporting import diff_report
    try:
        base = load_document(arguments.base, EXPLAIN_FORMAT)
        other = load_document(arguments.other, EXPLAIN_FORMAT)
        diff = diff_recommendations(base, other)
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(diff_report(diff))
    threshold = arguments.fail_on_regression
    if threshold is not None:
        total = diff["total_cost"]
        pct = total["regression_pct"]
        # a regression from a zero-cost baseline has no percentage;
        # any cost increase then counts as exceeding the threshold
        exceeded = (pct > threshold if pct is not None
                    else total["delta"] > 0)
        if exceeded:
            shown = f"{pct:.2f}%" if pct is not None else "from zero"
            print(f"error: total cost regression {shown} exceeds "
                  f"--fail-on-regression {threshold:g}%",
                  file=sys.stderr)
            return 2
    return 0


def build_verify_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor verify",
        description="Differentially verify recommended plans: execute "
                    "them through the in-memory engine and a reference "
                    "interpreter side by side and compare answers. "
                    "Exits 2 on divergence, 1 on error.")
    source = _add_source(parser, ["hotel", "rubis"],
                         "verify one bundled demo (default: both "
                         "hotel and rubis bidding)")
    source.add_argument("--fuzz", type=int, metavar="TRIALS",
                        help="instead of a fixed application, run "
                             "TRIALS random model/workload/dataset "
                             "trials through the oracle")
    parser.add_argument("--mix", help="workload mix to verify under")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for datasets, parameter bindings "
                             "and request order (default 0)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="replay passes over the workload's "
                             "statements (default 3)")
    parser.add_argument("--protocols", default="nose,expert",
                        help="comma-separated update protocols to "
                             "check (default nose,expert)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="demo dataset scale factor (default 0.01)")
    parser.add_argument("--max-plans", type=int, default=100,
                        help="cap on enumerated plans per statement")
    parser.add_argument("--entities", type=int, default=5,
                        help="entity sets per random model "
                             "(--fuzz only)")
    parser.add_argument("--extended", action="store_true",
                        help="draw extended statement-language "
                             "constructs — GROUP BY aggregation, "
                             "IN-lists, != and OR — into the fuzzed "
                             "workloads (--fuzz only)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking divergences to minimal "
                             "reproducers")
    parser.add_argument("--output-json", metavar="FILE",
                        help="write the verification report as JSON")
    return parser


def _replay_inputs(arguments, demo):
    """``(model, workload, dataset, mix)`` for a replaying subcommand.

    A bundled ``demo`` is built at ``--scale`` with its own dataset;
    otherwise the ``--json``/``--model`` application gets a random
    dataset.  ``mix`` is set only for RuBiS, whose requests are drawn
    per transaction from that mix.
    """
    if demo is None:
        from repro.randgen import random_dataset
        model, workload = _load_application(arguments, arguments.mix)
        return (model, workload,
                random_dataset(model, seed=arguments.seed), None)
    if demo == "hotel":
        from repro.demo import hotel_model, hotel_workload
        from repro.demo.hotel import hotel_dataset
        model = hotel_model(scale=arguments.scale)
        workload = hotel_workload(model, include_updates=True)
        return (model, workload,
                hotel_dataset(model, seed=arguments.seed), None)
    from repro.rubis import rubis_model, rubis_workload
    from repro.rubis.datagen import generate_dataset
    mix = arguments.mix or "bidding"
    model = rubis_model(users=max(int(20_000 * arguments.scale), 100))
    workload = rubis_workload(model, mix=mix)
    return (model, workload,
            generate_dataset(model, seed=arguments.seed + 7), mix)


def _verify(arguments, protocols, demo=None):
    """Run the oracle over one demo or the given application; returns
    a report dict."""
    from repro.verify import verify_recommendation
    model, workload, dataset, mix = _replay_inputs(arguments, demo)
    requests_factory = None
    if mix is not None:
        from repro.rubis.datagen import RubisParameterGenerator
        from repro.rubis.transactions import transaction_weights
        transactions = sorted(transaction_weights(mix))

        def requests_factory(live, seed):
            # draw realistic per-transaction parameters from the live
            # data, the way the benchmark harness issues them
            generator = RubisParameterGenerator(live, seed=seed + 11)
            out = []
            for name in transactions:
                for _ in range(max(arguments.rounds - 1, 1)):
                    for label, params in generator.requests_for(name):
                        out.append((workload.statements[label], params))
            return out

    dataset.sync_counts()
    recommendation = Advisor(model, max_plans=arguments.max_plans) \
        .recommend(workload)
    return verify_recommendation(
        model, workload, recommendation, dataset, seed=arguments.seed,
        rounds=arguments.rounds, protocols=protocols,
        requests_factory=requests_factory,
        shrink=not arguments.no_shrink)


def run_verify(argv):
    arguments = build_verify_parser().parse_args(argv)
    from repro.reporting import verify_report
    protocols = tuple(p for p in arguments.protocols.split(",") if p)
    try:
        if arguments.fuzz is not None:
            from repro.verify import fuzz_workloads
            trials = fuzz_workloads(
                trials=arguments.fuzz, seed=arguments.seed,
                entities=arguments.entities, protocols=protocols,
                max_plans=arguments.max_plans,
                shrink=not arguments.no_shrink,
                extended=arguments.extended)
            reports = {"fuzz": {
                "seed": arguments.seed,
                "extended": arguments.extended,
                "trials": [trial.as_dict() for trial in trials],
                "ok": all(trial.ok for trial in trials),
            }}
        elif arguments.model or arguments.json_file:
            name = arguments.json_file or arguments.model
            reports = {name: _verify(arguments, protocols)}
        else:
            targets = [arguments.demo] if arguments.demo \
                else ["hotel", "rubis"]
            reports = {name: _verify(arguments, protocols, demo=name)
                       for name in targets}
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    ok = all(report["ok"] for report in reports.values())
    for name, report in reports.items():
        print(f"== {name} ==")
        print(verify_report(report))
        print()
    if arguments.output_json:
        import json
        document = {"seed": arguments.seed, "ok": ok,
                    "targets": reports}
        with open(arguments.output_json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
        print(f"verification report written to "
              f"{arguments.output_json}")
    if not ok:
        print("error: differential verification found divergences",
              file=sys.stderr)
        return 2
    return 0


def build_profile_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor profile",
        description="Replay a recommendation through the in-memory "
                    "execution engine with a flight recorder attached "
                    "and report measured-vs-predicted cost accuracy "
                    "(a nose-profile/1 document).")
    _add_source(parser, ["hotel", "rubis"],
                "profile a bundled demo (default: hotel)",
                default="hotel")
    parser.add_argument("--mix", help="workload mix to profile under")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for datasets and parameter bindings "
                             "(default 0)")
    parser.add_argument("--requests", type=int, default=200,
                        help="statements to replay, apportioned by "
                             "workload weight (default 200)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="demo dataset scale factor (default 0.02)")
    parser.add_argument("--protocol", choices=["nose", "expert"],
                        default="nose",
                        help="update maintenance protocol to replay "
                             "under (default nose)")
    parser.add_argument("--max-plans", type=int, default=200,
                        help="cap on enumerated plans per statement")
    parser.add_argument("--output-json", metavar="FILE",
                        help="write the nose-profile/1 accuracy report "
                             "as JSON")
    return parser


def _profile_requests(dataset, mix):
    """A RuBiS request factory replaying ``mix``'s transactions."""
    from repro.rubis.datagen import RubisParameterGenerator
    from repro.rubis.transactions import TRANSACTIONS, transaction_weights
    weights = transaction_weights(mix)

    def requests_factory(count, seed):
        # a transaction schedule proportional to the mix, replayed
        # with coherent per-transaction parameters drawn from the
        # live data — the way the benchmark harness issues requests
        generator = RubisParameterGenerator(dataset, seed=seed + 11)
        schedule = []
        for transaction in sorted(weights):
            repeats = max(1, round(count * weights[transaction]
                                   / len(TRANSACTIONS[transaction])))
            schedule.append((transaction, repeats))
        out = []
        remaining = dict(schedule)
        while remaining:
            for transaction, _repeats in schedule:
                left = remaining.get(transaction)
                if left is None:
                    continue
                out.extend(generator.requests_for(transaction))
                if left <= 1:
                    del remaining[transaction]
                else:
                    remaining[transaction] = left - 1
        return out
    return requests_factory


def run_profile(argv):
    arguments = build_profile_parser().parse_args(argv)
    from repro.profile import profile_recommendation
    from repro.reporting import profile_report
    source = arguments.json_file or arguments.model
    try:
        model, workload, dataset, mix = _replay_inputs(
            arguments, None if source else arguments.demo)
        requests_factory = None if mix is None \
            else _profile_requests(dataset, mix)
        dataset.sync_counts()
        recommendation = Advisor(model, max_plans=arguments.max_plans) \
            .recommend(workload)
        document, _recorder = profile_recommendation(
            model, workload, recommendation, dataset,
            seed=arguments.seed, requests=arguments.requests,
            protocol=arguments.protocol,
            requests_factory=requests_factory,
            meta={"source": source or arguments.demo,
                  "mix": workload.active_mix})
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(profile_report(document))
    if arguments.output_json:
        dump_document(document, arguments.output_json)
        print(f"\nprofile written to {arguments.output_json}")
    return 0


def build_monitor_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor monitor",
        description="Watch a workload drift away from the one the "
                    "schema was advised for: ingest executed "
                    "statements into decayed weight estimates, detect "
                    "weight/structural drift against the advised mix, "
                    "and price the regret of standing still (a "
                    "nose-monitor/1 document).  Exits 3 when drift "
                    "was detected.")
    # --trace-in needs --model or --json beside it, so it stays out of
    # the source group; run_monitor rejects it with --demo
    _add_source(parser, ["drift"],
                "run the bundled RUBiS browsing->bidding drift scenario")
    parser.add_argument("--trace-in", metavar="FILE",
                        help="replay a recorded statement trace (JSON "
                             "list of {label, time?, count?} events) "
                             "against the advised workload given by "
                             "--model or --json")
    parser.add_argument("--mix", help="advised workload mix")
    parser.add_argument("--half-life", type=float, default=None,
                        metavar="REQUESTS",
                        help="decay half-life in requests (default: 60 "
                             "for the demo, 100 for traces)")
    parser.add_argument("--weight-threshold", type=float, default=0.1,
                        help="Jensen-Shannon divergence that raises "
                             "the weight-drift alert (default 0.1)")
    parser.add_argument("--structural-threshold", type=int, default=1,
                        help="added+removed digest count that raises "
                             "the structural alert (default 1)")
    parser.add_argument("--checkpoint-every", type=int, default=20,
                        help="drift check cadence in requests "
                             "(default 20)")
    parser.add_argument("--requests", type=int, default=400,
                        help="demo replay length (default 400)")
    parser.add_argument("--seed", type=int, default=0,
                        help="demo dataset/binding seed (default 0)")
    parser.add_argument("--users", type=int, default=2000,
                        help="demo dataset scale in users "
                             "(default 2000)")
    parser.add_argument("--trace", action="store_true",
                        help="print the telemetry run report (monitor "
                             "gauges + alert events) after the run")
    parser.add_argument("--output-json", metavar="FILE",
                        help="write the nose-monitor/1 document as "
                             "byte-stable JSON")
    parser.add_argument("--replan-requests", type=float, default=None,
                        metavar="N",
                        help="hand the observed mix to the windowed "
                             "advisor: decide whether migrating away "
                             "from the advised schema pays off over "
                             "the next N requests")
    parser.add_argument("--replan-out", metavar="FILE",
                        help="write the replan decision as a "
                             "nose-windows/1 document")
    return parser


def _monitor_trace(arguments, capture=None):
    """Replay a trace file; returns the monitor document.

    A ``capture`` dict, when given, is filled with the live objects
    (advisor, workload, recommendation, monitor) the replan bridge
    needs after the document is assembled.
    """
    from repro.monitor import (
        DriftDetector,
        WorkloadMonitor,
        estimate_regret,
        monitor_document,
    )
    source = arguments.json_file or arguments.model
    if not source:
        raise NoseError(
            "--trace-in needs the advised workload: pass --model or "
            "--json")
    model, workload = _load_application(arguments, arguments.mix)
    trace = read_json(arguments.trace_in)
    events = trace.get("events", trace) if isinstance(trace, dict) \
        else trace
    if not isinstance(events, list):
        raise NoseError(
            f"{arguments.trace_in} is not a trace: expected a JSON "
            "list of events or {'events': [...]}")
    monitor = WorkloadMonitor(
        workload, half_life=arguments.half_life or 100.0)
    detector = DriftDetector(
        monitor, weight_threshold=arguments.weight_threshold,
        structural_threshold=arguments.structural_threshold)
    cadence = max(arguments.checkpoint_every, 1)
    try:
        for start in range(0, len(events), cadence):
            monitor.replay_trace(events[start:start + cadence])
            detector.check()
        if len(events) % cadence or not events:
            detector.check()
    except ValueError as error:
        raise NoseError(str(error)) from error
    advisor = Advisor(model)
    recommendation = advisor.recommend(workload)
    regret = estimate_regret(advisor, workload, recommendation,
                             monitor)
    if capture is not None:
        capture.update(advisor=advisor, workload=workload,
                       recommendation=recommendation, monitor=monitor)
    meta = {"source": source, "trace": arguments.trace_in,
            "advised_mix": workload.active_mix,
            "events": len(events)}
    return monitor_document(monitor, detector, regret=regret, meta=meta)


def run_monitor(argv):
    parser = build_monitor_parser()
    arguments = parser.parse_args(argv)
    if arguments.demo and arguments.trace_in:
        parser.error("argument --trace-in: not allowed with argument "
                     "--demo")
    from repro.reporting import monitor_report
    try:
        if not arguments.demo and not arguments.trace_in:
            raise NoseError("pass --demo drift or --trace-in FILE")
        if arguments.replan_out and arguments.replan_requests is None:
            raise NoseError("--replan-out requires --replan-requests")
        if arguments.trace:
            scope = telemetry.activate()
        else:
            scope = contextlib.nullcontext(None)
        replanning = arguments.replan_requests is not None
        capture = {} if replanning else None
        replan = None
        with scope as sink:
            if arguments.trace_in:
                document = _monitor_trace(arguments, capture=capture)
            else:
                from repro.monitor import drift_demo
                document = drift_demo(
                    half_life=arguments.half_life or 60.0,
                    requests=arguments.requests,
                    checkpoint_every=arguments.checkpoint_every,
                    weight_threshold=arguments.weight_threshold,
                    structural_threshold=arguments.structural_threshold,
                    seed=arguments.seed, users=arguments.users,
                    capture=capture)
            if replanning:
                from repro.windows import replan_from_monitor
                replan = replan_from_monitor(
                    capture["advisor"], capture["workload"],
                    capture["recommendation"], capture["monitor"],
                    requests=arguments.replan_requests)
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(monitor_report(document))
    if replan is not None:
        print()
        print(replan.describe())
        if arguments.replan_out:
            from repro.windows import windows_document
            replan_doc = windows_document(replan, meta={
                "source": "monitor-replan",
                "advised_mix": document["meta"].get("advised_mix")})
            dump_document(replan_doc, arguments.replan_out)
            print(f"\nreplan decision written to {arguments.replan_out}")
    if arguments.trace and sink is not None and sink.enabled:
        print()
        print(sink.report(meta={"command": "monitor"}).render())
    if arguments.output_json:
        dump_document(document, arguments.output_json)
        print(f"\nmonitor document written to {arguments.output_json}")
    drift = document.get("drift", {})
    if drift.get("weight_alert") or drift.get("structural_alert"):
        print("\ndrift detected: the observed workload has moved away "
              "from the advised mix", file=sys.stderr)
        return 3
    return 0


def build_windows_parser():
    parser = argparse.ArgumentParser(
        prog="nose-advisor windows",
        description="Advise a schema *schedule* for an ordered "
                    "sequence of workload windows: one BIP chooses the "
                    "column families to hold in each window and the "
                    "migrations to run between windows, with data "
                    "movement priced in the same cost units as serving "
                    "(a nose-windows/1 document).  Exits 2 if the "
                    "windowed schedule costs more than the static or "
                    "naive-per-window baselines.")
    _add_source(parser, ["rubis-drift"],
                "run the bundled RUBiS browsing->bidding->browsing "
                "drift schedule", required=True)
    parser.add_argument("--windows", metavar="SPEC",
                        help="comma-separated mix:requests windows, "
                             "e.g. 'browsing:800,bidding:1200' "
                             "(required with --model/--json; overrides "
                             "the demo schedule)")
    parser.add_argument("--load-rate", type=float, default=0.15,
                        metavar="COST",
                        help="migration cost per row loaded into a new "
                             "column family (default 0.15, the "
                             "Cassandra cost model's put cost)")
    parser.add_argument("--byte-rate", type=float, default=0.0,
                        metavar="COST",
                        help="additional migration cost per byte "
                             "loaded (default 0)")
    parser.add_argument("--users", type=int, default=2000,
                        help="demo dataset scale in users "
                             "(default 2000)")
    parser.add_argument("--space-limit", type=float, default=None,
                        metavar="BYTES",
                        help="per-window storage budget for each "
                             "held schema")
    parser.add_argument("--max-plans", type=int, default=500,
                        help="cap on enumerated plans per statement")
    parser.add_argument("--mip-gap", type=float, default=1e-4,
                        help="relative MIP gap for the windowed solve "
                             "(default 1e-4)")
    parser.add_argument("--time-limit", type=float, default=120.0,
                        metavar="SECONDS",
                        help="solver time limit (default 120)")
    parser.add_argument("--timing", action="store_true",
                        help="print the windowed stage timing "
                             "breakdown")
    parser.add_argument("--output-json", metavar="FILE",
                        help="write the nose-windows/1 document as "
                             "byte-stable JSON")
    return parser


def run_windows(argv):
    arguments = build_windows_parser().parse_args(argv)
    from repro.reporting import windows_report
    from repro.tools.migration import MigrationCostModel
    from repro.windows import (
        parse_window_spec,
        recommend_windows,
        windows_document,
    )
    try:
        migration_model = MigrationCostModel(
            row_cost=arguments.load_rate, byte_cost=arguments.byte_rate)
        if arguments.demo:
            from repro.windows import rubis_drift_scenario
            model, workload, schedule, _default = rubis_drift_scenario(
                users=arguments.users)
            source = "rubis-drift"
            meta = {"source": source, "users": arguments.users}
        else:
            if not arguments.windows:
                raise NoseError(
                    "pass --windows 'mix:requests,...' with "
                    "--model/--json")
            model, workload = _load_application(arguments, None)
            meta = {"source": arguments.json_file or arguments.model}
        if arguments.windows:
            schedule = parse_window_spec(arguments.windows)
        advisor = Advisor(model, max_plans=arguments.max_plans)
        recommendation = recommend_windows(
            advisor, workload, schedule,
            migration_model=migration_model,
            space_limit=arguments.space_limit,
            mip_rel_gap=arguments.mip_gap,
            time_limit=arguments.time_limit)
        document = windows_document(recommendation, meta=meta)
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(windows_report(document))
    if arguments.timing:
        print()
        print("Stage timing (seconds):")
        for stage, seconds in recommendation.timing.items():
            print(f"  {stage:<18} {seconds:.3f}")
    if arguments.output_json:
        dump_document(document, arguments.output_json)
        print(f"\nwindows document written to {arguments.output_json}")
    windowed = document["totals"]["total_cost"]
    best = min(entry["total_cost"]
               for entry in document["baselines"].values())
    # recommend_windows returns the cheapest of the three schedules, so
    # this inequality cannot fail; CI leans on it as an end-to-end
    # consistency check
    if windowed > best * (1.0 + 1e-6) + 1e-6:
        print(f"error: windowed schedule ({windowed:.3f}) costs more "
              f"than the best baseline ({best:.3f})", file=sys.stderr)
        return 2
    return 0


_SUBCOMMANDS = {
    "diff": run_diff,
    "verify": run_verify,
    "profile": run_profile,
    "monitor": run_monitor,
    "windows": run_windows,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    arguments = parser.parse_args(argv)
    report = None
    try:
        if arguments.demo:
            model, workload = _load_demo(arguments.demo, arguments.mix)
        else:
            model, workload = _load_application(arguments, arguments.mix)
        cost_model = CassandraCostModel() \
            if arguments.cost_model == "cassandra" else SimpleCostModel()
        advisor = Advisor(model, cost_model=cost_model,
                          max_plans=arguments.max_plans)
        if arguments.trace or arguments.metrics_out:
            scope = telemetry.activate()
        else:
            scope = contextlib.nullcontext(None)
        with scope as sink:
            recommendation = advisor.recommend(
                workload, space_limit=arguments.space_limit)
            tuning_rows = None
            if arguments.repeat_tuning:
                tuning_rows = {"cold": recommendation.timing}
                for epoch in range(1, arguments.repeat_tuning + 1):
                    factor = 2.0 ** epoch
                    tuned = workload.scale_weights(factor)
                    epoch_rec = advisor.recommend(
                        tuned, space_limit=arguments.space_limit)
                    tuning_rows[f"writes x{factor:g}"] = epoch_rec.timing
            if sink is not None:
                report = sink.report()
    except NoseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(recommendation.describe())
    if arguments.explain:
        print()
        print(recommendation.explain())
    if arguments.cql:
        print()
        print(recommendation.as_cql())
    if arguments.output_json:
        dump_document(recommendation.explain_document(),
                      arguments.output_json)
        print(f"\nrecommendation written to {arguments.output_json}")
    if arguments.timing:
        print()
        print("Stage timing (seconds):")
        for stage, seconds in \
                recommendation.timing.as_figure13_row().items():
            print(f"  {stage:<18} {seconds:.3f}")
        timing = recommendation.timing
        print(f"  delta: {timing.reused_statements} statement(s) "
              f"served from the artifact store, "
              f"{timing.replanned_statements} re-planned")
    if tuning_rows:
        from repro.reporting import timing_table
        print()
        print("Repeated tuning (write weights scaled per epoch; warm "
              "epochs reuse the prepared pipeline):")
        print(timing_table(tuning_rows))
    if arguments.trace and report is not None:
        print()
        if report.meta.get("enabled"):
            print(report.render())
        else:
            print("telemetry disabled (NOSE_TELEMETRY=0); no trace "
                  "recorded")
    if arguments.metrics_out and report is not None:
        if report.meta.get("enabled"):
            dump_document(report.as_dict(), arguments.metrics_out)
            print(f"\ntelemetry report written to "
                  f"{arguments.metrics_out}")
        else:
            print(f"\ntelemetry disabled (NOSE_TELEMETRY=0); not "
                  f"writing {arguments.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())
