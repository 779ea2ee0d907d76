"""The full command-line loop: generate, merge, evaluate, diagnose, compare.

Everything the library does is reachable through the `mergeqp` console
command with bundle files on disk.  This script drives the same entry point
in-process and leaves the artifacts in a temp directory for inspection.
"""

import json
import pathlib
import tempfile

from mergeqp.cli import main


def run(args):
    print(f"\n$ mergeqp {' '.join(args)}")
    rc = main(args)
    if rc != 0:
        raise SystemExit(f"command failed with exit code {rc}")


def main_demo():
    work = pathlib.Path(tempfile.mkdtemp(prefix="mergeqp-demo-"))
    bundle = work / "bundle.json"
    model = work / "merged.json"
    report = work / "report.csv"
    table = work / "compare.csv"

    run(["gen", "--kind", "linear", "--out", str(bundle), "--seed", "3"])
    run(["merge", "--bundle", str(bundle), "--method", "qp-diag",
         "--out", str(model), "--report", str(report)])
    run(["eval", "--model", str(model), "--bundle", str(bundle)])
    run(["diagnose", "--bundle", str(bundle), "--random-seeds", "2",
         "--out", str(work / "diagnose.csv")])
    run(["compare", "--bundle", str(bundle), "--out", str(table)])

    print(f"\nreport rows ({report}):")
    print(report.read_text().strip())
    print(f"\ncomparison table ({table}):")
    for line in table.read_text().strip().splitlines():
        print(" ", line)
    print(f"\nartifacts kept under {work}")


if __name__ == "__main__":
    main_demo()
