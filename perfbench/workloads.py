"""The benchmark's three workloads, built from statement text and a seed.

Each workload is a :class:`Scenario`: a model, the statements the cold
advisor sees, a two-mix *drift* workload that the re-advise epochs and
the windowed advisor walk between, a window schedule, a dataset and a
closed-loop request stream.  The advisor inputs are fixed per workload,
so cold-advise figures compare across seeds; the seed drives the
weight epochs, the dataset, the request stream and the verified sample.

Every schedule has the shape of ``rubis_drift_scenario``'s day — a
read-only phase, a phase with writes, the read-only phase again — at
that scenario's migration row cost, with its 6000 requests per window
at 2,000 RuBiS users scaled by the model's entity rows, so migrating
costs the same share of a window's serving on every model.  The
re-advise epochs are what a ``WorkloadMonitor`` reports hour by hour
over a seeded request stream that walks the schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import Workload
from repro.monitor import WorkloadMonitor
from repro.monitor.demo import EPSILON_WEIGHT
from repro.monitor.monitor import DEFAULT_HALF_LIFE
from repro.randgen import BindingGenerator, random_dataset, random_model
from repro.randgen.statements import (
    _random_insert,
    _random_query,
    _random_update,
)
from repro.rubis import (
    RubisParameterGenerator,
    generate_dataset,
    rubis_model,
    rubis_workload,
    transaction_weights,
)
from repro.rubis.transactions import WRITE_TRANSACTIONS
from repro.tools.migration import MigrationCostModel
from repro.windows import WindowSchedule, rubis_drift_scenario
from repro.workload.statements import Insert, Query, Update

#: name of the mix that weights each statement by its share of the
#: schedule's requests; every statement of the two mixes is active in it
DAY_MIX = "day"
#: ``rubis_drift_scenario``'s default requests per window, and the
#: RuBiS user count it is set for
DRIFT_REQUESTS = 6000.0
DRIFT_USERS = 2000
#: re-advise epochs per pass over the schedule: one an hour of a day
EPOCHS_PER_DAY = 24
#: requests a monitor sees before each epoch: older ones would weigh
#: under 2**-20 of the newest at the monitor's half-life
MONITOR_HALF_LIVES = 20


def _rows(model):
    return sum(entity.count for entity in model.entities.values())


def window_requests(model):
    """Requests per schedule window on ``model``: the RuBiS drift
    scenario's volume, scaled by entity rows."""
    return DRIFT_REQUESTS * _rows(model) / _rows(
        rubis_model(users=DRIFT_USERS))


@dataclass
class Inputs:
    """Everything one set-up produces before data is generated."""

    model: object
    #: workload of the cold advise loop (active mix set)
    advise: Workload
    #: workload of the re-advise epochs and the windowed advisor,
    #: active on :data:`DAY_MIX`
    drift: Workload
    schedule: WindowSchedule
    migration_model: MigrationCostModel


def _add_day_mix(workload, schedule):
    """Weight every statement by the schedule's request-volume average."""
    total = sum(window.requests for window in schedule)
    for label in workload.statements:
        weight = sum(window.requests * workload.weight(label, window.mix,
                                                       strict=True)
                     for window in schedule) / total
        workload.set_weight(label, weight, mix=DAY_MIX)
    return workload.with_mix(DAY_MIX)


def epoch_weights(drift, schedule, seed):
    """Endless label->weight maps, one per epoch, over repeated days.

    A day is ``schedule``'s requests in order, each drawn by statement
    weight from its window's mix; an epoch ends every
    :data:`EPOCHS_PER_DAY`-th of the day.  Its weights are what a fresh
    ``WorkloadMonitor`` at its default half-life reports after seeing
    the requests that precede that point, normalised to sum 1, with
    the monitor demo's ``EPSILON_WEIGHT`` floor for statements it did
    not see, so every statement keeps a plan.
    """
    rng = random.Random(seed)
    labels = sorted(drift.statements)
    tables = {window.mix: [drift.weight(label, window.mix)
                           for label in labels]
              for window in schedule}
    ends = []
    total = 0.0
    for window in schedule:
        total += window.requests
        ends.append((total, window.mix))
    seen = int(MONITOR_HALF_LIVES * DEFAULT_HALF_LIFE)
    epoch = 0
    while True:
        end = (epoch % EPOCHS_PER_DAY + 1) * total / EPOCHS_PER_DAY
        monitor = WorkloadMonitor(drift)
        for position in range(seen, 0, -1):
            at = (end - position) % total
            mix = next(mix for bound, mix in ends if at < bound)
            label = rng.choices(labels, tables[mix])[0]
            monitor.observe(drift.statements[label], label=label)
        observed = monitor.observed_weights()
        grand = sum(observed.values())
        yield {label: max(observed.get(label, 0.0) / grand,
                          EPSILON_WEIGHT)
               for label in labels}
        epoch += 1


class _RubisStream:
    """Weight-sampled RuBiS transactions, one window mix at a time."""

    def __init__(self, dataset, mixes, seed, chunk):
        self.params = RubisParameterGenerator(dataset, seed=seed)
        self.rng = random.Random(seed + 1)
        self.tables = []
        for mix in mixes:
            weights = transaction_weights(mix)
            names = sorted(weights)
            self.tables.append((names, [weights[n] for n in names]))
        self.chunk = chunk
        self.served = 0

    def next(self):
        """``(requests, is_write)`` for the next transaction."""
        names, weights = self.tables[
            (self.served // self.chunk) % len(self.tables)]
        self.served += 1
        transaction = self.rng.choices(names, weights)[0]
        return (self.params.requests_for(transaction),
                transaction in WRITE_TRANSACTIONS)


class _StatementStream:
    """Weight-sampled single-statement transactions with bound params."""

    def __init__(self, dataset, workload, seed):
        self.params = BindingGenerator(dataset, seed=seed)
        self.rng = random.Random(seed + 1)
        pairs = sorted(workload.weighted_statements,
                       key=lambda pair: pair[0].label)
        self.statements = [statement for statement, _ in pairs]
        self.weights = [weight for _, weight in pairs]

    def next(self):
        statement = self.rng.choices(self.statements, self.weights)[0]
        return ([(statement.label, self.params.bindings_for(statement))],
                not isinstance(statement, Query))


class Scenario:
    """One benchmark workload; subclasses fill in the inputs."""

    name = None
    #: set-up repetitions per run (median reported)
    setups = 5
    #: work in each round besides its one cold advise: re-advise
    #: epochs, windowed solves and serving chunks
    readvise_per_round = 10
    windows_per_round = 2
    serve_per_round = 3
    #: fewest rounds, whatever the run's seconds
    min_rounds = 5
    #: rounds of each pass of a traced run
    traced_rounds = 3
    #: verified sample: (read transactions, write transactions)
    verify_sample = (16, 2)

    def build(self):
        """Model and parsed workloads: :class:`Inputs`."""
        raise NotImplementedError

    def dataset(self, inputs, seed):
        raise NotImplementedError

    def stream(self, inputs, dataset, seed):
        """A request stream with ``next() -> (requests, is_write)``."""
        raise NotImplementedError


class RubisBidding(Scenario):
    name = "rubis-bidding"
    #: each set-up generates and loads the 20k-user dataset (~2 s)
    setups = 3
    readvise_per_round = 5
    windows_per_round = 1
    users = 20000

    def build(self):
        requests = window_requests(rubis_model(users=self.users))
        model, workload, schedule, migration_model = \
            rubis_drift_scenario(users=self.users,
                                 browsing_requests=requests,
                                 bidding_requests=requests)
        drift = _add_day_mix(workload, schedule)
        return Inputs(model, rubis_workload(model, mix="bidding"), drift,
                      schedule, migration_model)

    def dataset(self, inputs, seed):
        return generate_dataset(inputs.model, seed=seed)

    def stream(self, inputs, dataset, seed):
        return _RubisStream(dataset, ["bidding"], seed, chunk=1)


class RubisDrift(Scenario):
    name = "rubis-drift"
    verify_sample = (24, 4)
    users = 2000
    #: served transactions per schedule window before the next window
    chunk = 500

    def build(self):
        model, workload, schedule, migration_model = \
            rubis_drift_scenario(users=self.users)
        drift = _add_day_mix(workload, schedule)
        return Inputs(model, drift, drift, schedule, migration_model)

    def dataset(self, inputs, seed):
        return generate_dataset(inputs.model, seed=seed)

    def stream(self, inputs, dataset, seed):
        mixes = [window.mix for window in inputs.schedule]
        return _RubisStream(dataset, mixes, seed, chunk=self.chunk)


def template_texts(model, statements=100, templates=24, seed=17):
    """Statement text of the template OLTP recipe: ``[(label, text,
    weight)]``.

    ``statements`` instances of ``templates`` query forms plus a few
    update and insert forms, roughly 90/8/2 read/update/insert, each
    instance under its own label; weights are drawn by the recipe.
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
    rows = []
    for number in range(statements - updates - inserts):
        form = query_forms[number % len(query_forms)]
        rows.append((f"q{number}", Query(form.key_path, form.select,
                                         form.conditions),
                     round(rng.uniform(0.1, 10.0), 2)))
    for number in range(updates):
        form = update_forms[number % len(update_forms)]
        rows.append((f"u{number}", Update(form.key_path, form.settings,
                                          form.conditions),
                     round(rng.uniform(0.1, 5.0), 2)))
    for number in range(inserts):
        form = insert_forms[number % len(insert_forms)]
        rows.append((f"i{number}", Insert(form.key_path, form.settings,
                                          form.connections),
                     round(rng.uniform(0.1, 5.0), 2)))
    return [(label, statement.unparse(), weight)
            for label, statement, weight in rows]


class TemplateOltp(Scenario):
    name = "template-oltp"
    readvise_per_round = 14
    #: a chunk serves in ~0.07 s, so more chunks cost little time
    serve_per_round = 8
    min_rounds = 5
    traced_rounds = 2
    verify_sample = (40, 6)
    entities = 8
    model_seed = 7
    statements = 100
    #: rows per entity of the served dataset
    rows = 200
    #: forms of each kind (q/u/i, in recipe order) in the drift workload:
    #: over all 30 forms a windowed solve takes 16-80 s and a warm
    #: re-advise ~1.5 s on a 2.1 GHz Xeon vCPU, too slow to sample
    #: within a run
    drift_forms = {"q": 12, "u": 2, "i": 2}

    def __init__(self):
        self._texts = None

    def build(self):
        model = random_model(entities=self.entities, seed=self.model_seed)
        if self._texts is None:
            self._texts = template_texts(model, self.statements)
        workload = Workload(model, mix="oltp")
        drift = Workload(model)
        for label, text, weight in self._texts:
            statement = workload.add_statement(
                text, label=label, mixes={"oltp": weight})
            # labels number instances in recipe order, so the first
            # instance of each form carries the lowest numbers
            if int(label[1:]) < self.drift_forms[label[0]]:
                # "reads" is to "oltp" as RuBiS browsing is to bidding:
                # the same reads, and no writes
                read = isinstance(statement, Query)
                drift.add_statement(statement, label=label, mixes={
                    "oltp": weight, "reads": weight if read else 0.0})
        requests = window_requests(model)
        schedule = WindowSchedule([("reads", requests), ("oltp", requests),
                                   ("reads", requests)])
        drift = _add_day_mix(drift, schedule)
        return Inputs(model, workload, drift, schedule,
                      MigrationCostModel())

    def dataset(self, inputs, seed):
        return random_dataset(inputs.model, seed=seed,
                              rows_per_entity=self.rows)

    def stream(self, inputs, dataset, seed):
        return _StatementStream(dataset, inputs.advise, seed)


SCENARIOS = {scenario.name: scenario
             for scenario in (RubisBidding, RubisDrift, TemplateOltp)}
