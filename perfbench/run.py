"""Benchmark of the mergeqp CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload wide-linear --seed 0 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  Bundles,
reports, spans and a full record go to ``perfbench/out/``.
"""

import os

# One BLAS thread: the runs are single-process and steadier this way.  Must be
# set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mergeqp" / "__init__.py").is_file():
        print(f"error: no mergeqp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if harness.cli.__file__ != str(SRC / "mergeqp" / "cli.py"):
        print(f"error: imported mergeqp from {harness.cli.__file__}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = harness.run_workload(ROOT, workload, args.seed, args.seconds, args.trace, work)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {
        name: {"value": m["value"] if math.isfinite(m["value"]) else None, "unit": m["unit"]}
        for name, m in record["metrics"].items()
    }
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
