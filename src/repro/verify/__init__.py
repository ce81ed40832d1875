"""Differential execution oracle (the correctness backstop of §VII-A).

The paper validates NoSE by executing recommended plans against a real
store; this package validates our execution engine by executing the
same statements twice — once through the recommended plans and the
in-memory store, once through a reference interpreter that evaluates
statement semantics directly over the ground-truth dataset — and
comparing the answers.  A fuzz driver extends the check to random
models, workloads and datasets, and shrinks any divergence to a
minimal reproducer.

Entry points:

* :class:`ReferenceInterpreter` — canonical statement semantics.
* :class:`DifferentialRunner` — engine-vs-oracle checks plus
  store-vs-dataset consistency sweeps after every write.
* :func:`verify_recommendation` — drive a whole workload, both update
  protocols, from one call (what ``nose-advisor verify`` uses).
* :func:`fuzz_workloads` / :func:`shrink_divergence` — randomized
  search for executor bugs with minimal reproducers.
"""

from __future__ import annotations

from repro.randgen import BindingGenerator
from repro.verify.fuzz import FuzzTrial, fuzz_workloads
from repro.verify.interpreter import ReferenceInterpreter, ReferenceResult
from repro.verify.runner import Divergence, DifferentialRunner
from repro.verify.shrink import ShrunkRepro, shrink_divergence

__all__ = [
    "BindingGenerator",
    "Divergence",
    "DifferentialRunner",
    "FuzzTrial",
    "ReferenceInterpreter",
    "ReferenceResult",
    "ShrunkRepro",
    "fuzz_workloads",
    "shrink_divergence",
    "verify_recommendation",
]


def verify_recommendation(model, workload, recommendation, dataset,
                          seed=0, rounds=3, protocols=("nose", "expert"),
                          requests_factory=None, engine_factory=None,
                          shrink=True):
    """Differentially verify one recommendation against a workload.

    Replays ``rounds`` passes over every workload statement (parameters
    drawn from the live data unless ``requests_factory`` supplies its
    own ``(statement, params)`` sequence), once per update protocol,
    each from a fresh copy of ``dataset``.  Returns a report dict with
    one entry per protocol, including any shrunk reproducer.
    """
    report = {"seed": seed, "protocols": {}, "ok": True}
    for protocol in protocols:
        initial = dataset.copy()
        live = dataset.copy()
        if requests_factory is not None:
            requests = list(requests_factory(live, seed))
        else:
            generator = BindingGenerator(live, seed=seed)
            requests = []
            for _ in range(rounds):
                for statement in workload.statements.values():
                    requests.append(
                        (statement, generator.bindings_for(statement)))
        runner = DifferentialRunner(model, recommendation, live,
                                    update_protocol=protocol,
                                    engine_factory=engine_factory)
        for statement, params in requests:
            if runner.divergences:  # from the load sweep or a check
                break
            runner.check(statement, params)
        entry = {"checks": runner.checks,
                 "ok": runner.ok,
                 "divergences": [d.as_dict()
                                 for d in runner.divergences]}
        if runner.divergences and shrink:
            executed = requests[:runner.checks]
            shrunk = shrink_divergence(
                model, recommendation, initial, executed,
                runner.divergences[0], update_protocol=protocol,
                engine_factory=engine_factory)
            entry["shrunk"] = shrunk.as_dict()
        report["protocols"][protocol] = entry
        report["ok"] = report["ok"] and runner.ok
    return report
