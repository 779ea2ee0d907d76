"""Run a fixed battery of mergeqp CLI commands and fingerprint every output.

    python3 tools/cli_battery.py OUT

Generates the bundles of the three benchmark workloads at seed 0 (their
``gen`` arguments come from ``perfbench/harness.py``), a ReLU bundle at seed 3
and a shared-direction bundle, copies the golden test bundle, and last
generates a ReLU bundle merged at layer 1 under two ReLU gaps (seed 0, the
only bundle whose Jacobians mask more than one gap; its lines come after
the others so theirs keep their numbers).  It runs every merge method,
both solvers, every qp-basis family, ``compare``, ``diagnose``, ``eval``
and hybrid refinement on the bundles, in this process
through ``mergeqp.cli.main``, with the mergeqp sources of this checkout and
one BLAS thread.  Commands run inside OUT with relative paths, so
``OUT/battery.txt`` holds one line per command that does not depend on
where OUT is: the argv, the exit code and the sha256 of stdout, stderr and
each file the command wrote.  Two checkouts give byte-identical CLI
artifacts exactly when their ``battery.txt`` files are equal.
"""

import os

# One BLAS thread, as in the benchmark. Results depend on the thread count by rounding:
# at 2 OpenBLAS threads, 18 of the 218 lines change (14 wide-linear; relu-sweep's two qp-diag
# merges, its eval and its compare).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import shlex
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from harness import WORKLOADS  # noqa: E402  (needs the paths above)
from mergeqp import cli  # noqa: E402
from mergeqp.bundles import load_bundle  # noqa: E402

BASELINES = ("soup", "ta", "dare", "ties", "fisher")
SOLVERS = ("box", "exact")
BASES = ("eigen", "standard", "svd", "random")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Battery:
    """The commands run so far, one fingerprint line each."""

    def __init__(self):
        self.lines = []

    def run(self, argv, workdir=None):
        """Run one command; fingerprint it and every file in workdir, its own directory."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        files = sorted(Path(workdir).iterdir()) if workdir else []
        fields = [shlex.join(argv), f"exit {code}",
                  f"stdout {_sha(stdout.getvalue().encode())}",
                  f"stderr {_sha(stderr.getvalue().encode())}"]
        fields += [f"{f} {_sha(f.read_bytes())}" for f in files]
        self.lines.append("\t".join(fields))

    def workdir(self, name):
        path = Path("runs") / name / f"{len(self.lines):03d}"
        path.mkdir(parents=True)
        return str(path)


def _bundle(battery, name, gen=None, seed="0"):
    """The path of bundle name, made by gen (argv) at seed, or the golden test bundle's copy."""
    work = Path("bundles") / name
    work.mkdir(parents=True)
    bundle = f"{work}/bundle.json"
    if gen is None:
        shutil.copyfile(ROOT / "tests" / "data" / "golden_bundle.json", bundle)
    else:
        battery.run(["gen", *gen, "--seed", seed, "--out", bundle], work)
    return bundle


def _bundles(battery):
    """Generate or copy the first bundles of the battery; returns {name: path}."""
    bundles = {name: _bundle(battery, name, list(w.gen)) for name, w in WORKLOADS.items()}
    bundles["relu-seed3"] = _bundle(battery, "relu-seed3", ["--kind", "relu"], "3")
    bundles["shared-direction"] = _bundle(
        battery, "shared-direction", ["--kind", "shared-direction", "--sigmas", "1,2"])
    bundles["golden"] = _bundle(battery, "golden")
    return bundles


def _bundle_commands(battery, name, bundle):
    def merge(*extra, report="report.json"):
        work = battery.workdir(name)
        fmt = ["--format", "json"] if report.endswith(".json") else []
        battery.run(["merge", "--bundle", bundle, *extra, *fmt, "--out", f"{work}/merged.json",
                     "--report", f"{work}/{report}"], work)
        return work

    for method in BASELINES:
        merge("--method", method, report="report.csv")
    merge("--method", "ta", "--lambda", "1e300", report="report.csv")
    for solver in SOLVERS:
        model = merge("--method", "qp-diag", "--solver", solver)
        if solver == "box":
            work = battery.workdir(name)
            battery.run(["eval", "--model", f"{model}/merged.json", "--bundle", bundle,
                         "--out", f"{work}/eval.json"], work)
        for basis in BASES:
            merge("--method", "qp-basis", "--basis", basis, "--solver", solver)
            merge("--method", "qp-basis", "--basis", basis, "--p", "2", "--solver", solver)
    if name == "deep-tall":
        for init in BASELINES:
            for solver in SOLVERS:
                merge("--method", "qp-diag", "--mode", "hybrid", "--init-method", init,
                      "--solver", solver)
    for layer in sorted(load_bundle(bundle).residuals):
        work = battery.workdir(name)
        battery.run(["compare", "--bundle", bundle, "--layer", str(layer),
                     "--out", f"{work}/compare.csv"], work)
        work = battery.workdir(name)
        battery.run(["diagnose", "--bundle", bundle, "--layer", str(layer),
                     "--out", f"{work}/diagnose.csv"], work)
        battery.run(["diagnose", "--bundle", bundle, "--layer", str(layer), "--p-max", "99"])


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/cli_battery.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    battery = Battery()
    for name, bundle in _bundles(battery).items():
        _bundle_commands(battery, name, bundle)
    two_gap = _bundle(battery, "relu-two-gap", ["--kind", "relu", "--merge-layer", "1"])
    _bundle_commands(battery, "relu-two-gap", two_gap)
    (out / "battery.txt").write_text("".join(line + "\n" for line in battery.lines))
    print(f"{len(battery.lines)} commands; fingerprints in {out / 'battery.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
