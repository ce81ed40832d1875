"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload rubis-bidding --seed 1 \\
        --seconds 18 --trace 0

Run from the repository root.  Prints a header line (versions, seed,
sample counts) and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (whose spans also go to ``perfbench/traces/``).  Exits 1
when any operation raised or any output check failed, and 2 when the
program under test cannot be imported.  Metric names, units and the
layer each one measures are declared in ``BENCHMARK.json`` and
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    from repro import TruncationWarning
    from workloads import SCENARIOS

    if args.workload not in SCENARIOS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(sorted(SCENARIOS))})")
    # capped plan spaces are part of the workloads; the pricing check
    # accounts for them
    warnings.simplefilter("ignore", TruncationWarning)
    head, result, errors = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        trace_dir=HERE / "traces")
    for error in errors:
        print(error, file=sys.stderr)
    print(json.dumps({"header": head}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
