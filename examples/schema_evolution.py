"""Operating NoSE over time: calibration and schema migration.

Two workflows beyond the one-shot recommendation:

1. *Calibration* — fit the cost model's constants to the record store's
   measured behaviour (the paper fitted its constants to its Cassandra
   testbed) instead of trusting defaults.
2. *Migration* — when the workload drifts (here: writes grow 50x),
   re-run the advisor and apply the schema diff to the running store
   without rebuilding unchanged column families.
3. *Incremental re-advising* — when the workload is *edited* (a
   statement retired), clone it, drop the statement and re-recommend:
   the advisor's per-statement artifact store replans only what
   changed.

Run with::

    python examples/schema_evolution.py
"""

from repro import Advisor
from repro.backend import ExecutionEngine, Store
from repro.cost import calibrate_store
from repro.demo import hotel_dataset, hotel_model, hotel_workload
from repro.tools import execute_migration, plan_migration


def main():
    model = hotel_model(scale=0.02)

    # -- 1. calibrate the cost model against the store -----------------
    cost_model = calibrate_store(Store())
    print("Calibrated cost model from store probes:")
    print(f"  per-request  {cost_model.request_cost + cost_model.partition_cost:.4f} ms")
    print(f"  per-row      {cost_model.row_cost:.5f} ms")
    print(f"  per-put-row  {cost_model.put_cost:.5f} ms")
    print()

    advisor = Advisor(model, cost_model=cost_model)

    # -- 2. recommend and deploy for the current workload --------------
    workload = hotel_workload(model, include_updates=True)
    current = advisor.recommend(workload)
    dataset = hotel_dataset(model, seed=42)
    dataset.sync_counts()
    engine = ExecutionEngine(model, current, dataset)
    rows = engine.load()
    print(f"Deployed {len(current.indexes)} column families "
          f"({rows} rows)")

    # -- 3. the workload drifts: writes grow 50x ------------------------
    drifted = workload.scale_weights(50, mix="write_heavy")
    target = advisor.recommend(drifted)
    migration = plan_migration(current, target)
    print()
    print(migration.describe())

    loaded = execute_migration(engine.store, dataset, migration)
    print(f"\nMigrated: {loaded} rows loaded into new column families")

    # -- 4. the workload is edited: a statement is retired ---------------
    # clone() + remove_statement() build the edited workload without
    # mutating the deployed one; structural_diff shows what changed,
    # and the advisor replans only the affected statements
    edited = drifted.clone()
    edited.remove_statement("pois_for_hotel")
    diff = drifted.structural_diff(edited)
    print(f"\nWorkload edited ({diff.summary()}): retired "
          f"'pois_for_hotel'")
    retuned = advisor.recommend(edited)
    timing = retuned.timing
    print(f"re-advised incrementally: {timing.reused_statements} "
          f"statement(s) reused, {timing.replanned_statements} "
          f"re-planned")

    # -- 5. the store now serves the new plans --------------------------
    new_engine = ExecutionEngine(model, target, dataset,
                                 store=engine.store)
    query = workload.statements["pois_for_guest"]
    results = new_engine.execute_query(query, {"guest": 3})
    oracle = dataset.evaluate_query(query, {"guest": 3})
    got = {tuple(row[field.id] for field in query.select)
           for row in results}
    print(f"post-migration query agrees with ground truth: "
          f"{got == oracle}")


if __name__ == "__main__":
    main()
