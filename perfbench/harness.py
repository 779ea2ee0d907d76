"""Workloads and measurement loop of the mergeqp benchmark.

Every workload generates its bundle with ``mergeqp gen`` from the workload
seed, then runs a fixed sequence of real CLI commands in this process through
``mergeqp.cli.main``.  Untraced runs install nothing and give the end-to-end
metrics; a traced run repeats one job under ``spans.SpanRecorder`` and gives
the per-layer metrics.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from mergeqp import cli
from mergeqp.bundles import load_bundle
from mergeqp.multilayer import layer_basis
from mergeqp.qp import merge_geometry

MIN_REPS = 3
# Timings are reported in seconds at a reference host speed: a round's gen or
# job time is scaled by PROBE_REF_S over the mean time of the speed_probe()
# runs made just before its commands.
# 0.02 s is about the probe's time on the 2-vCPU x86-64 VM the benchmark was
# tuned on.
PROBE_REF_S = 0.02
LONG_SOLVE = 10  # merge_mse_ratio's reference merge runs the solver this many times longer
# solve_unconstrained's documented default rel_cutoff: eigenvalues of H at or
# below this times the largest are dropped.  Fixed here rather than read from
# the program, so a later cutoff that drops more directions fails the check.
SOLVER_RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class Workload:
    """A ``gen`` invocation (without --seed/--out) and the job's commands.

    Command arguments may use ``{bundle}`` for the generated bundle and
    ``{out}`` for the job's output directory.
    """

    name: str
    gen: tuple
    job: tuple


def _merge(*extra, report):
    return ("merge", "--bundle", "{bundle}", *extra, "--format", "json", "--report", f"{{out}}/{report}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-linear",
            ("--kind", "linear", "--dims", "256,128,32", "--tasks", "8", "--n-calib", "15",
             "--merge-layer", "1"),
            (
                _merge("--method", "qp-diag", report="merge1.json"),
                ("compare", "--bundle", "{bundle}", "--out", "{out}/compare.csv"),
                ("diagnose", "--bundle", "{bundle}", "--p-max", "4", "--random-seeds", "1",
                 "--out", "{out}/diagnose.csv"),
            ),
        ),
        Workload(
            "relu-sweep",
            ("--kind", "relu", "--dims", "64,48,32,16", "--merge-layer", "2", "--tasks", "4",
             "--n-calib", "40"),
            (
                ("diagnose", "--bundle", "{bundle}", "--out", "{out}/diagnose.csv"),
                _merge("--method", "qp-basis", "--basis", "eigen", report="merge1.json"),
                ("compare", "--bundle", "{bundle}", "--out", "{out}/compare.csv"),
            ),
        ),
        Workload(
            "deep-tall",
            ("--kind", "linear", "--dims", "16,12,8", "--n-layers", "4", "--merge-layer", "1,2,3",
             "--tasks", "4", "--n-calib", "600", "--noise", "0.05"),
            (
                _merge("--method", "qp-diag", "--out", "{out}/merged.json", report="merge1.json"),
                _merge("--method", "qp-diag", "--mode", "hybrid", "--init-method", "fisher",
                       report="merge2.json"),
                _merge("--method", "ties", report="merge3.json"),
                ("eval", "--model", "{out}/merged.json", "--bundle", "{bundle}",
                 "--out", "{out}/eval.json"),
                ("compare", "--bundle", "{bundle}", "--layer", "2", "--out", "{out}/compare.csv"),
            ),
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("merge_mse_ratio", "ratio"),
)

# Names ending in _s or _calls are a public function's total span time or
# call count; the rest are computed in traced_run.
PER_LAYER = (
    ("bundles.self_s", "s"),
    ("bundles.load_bundle_s", "s"),
    ("bundles.load_bundle_calls", "count"),
    ("bundles.save_bundle_s", "s"),
    ("bundles.file_mb", "MB"),
    ("networks.self_s", "s"),
    ("networks.forward_calls", "count"),
    ("networks.forward_s", "s"),
    ("networks.layer_input_calls", "count"),
    ("networks.linearize_downstream_calls", "count"),
    ("networks.linearize_downstream_s", "s"),
    ("qp.self_s", "s"),
    ("qp.merge_geometry_calls", "count"),
    ("qp.merge_geometry_s", "s"),
    ("qp.build_diagonal_qp_calls", "count"),
    ("qp.build_diagonal_qp_s", "s"),
    ("qp.build_general_basis_qp_calls", "count"),
    ("qp.build_general_basis_qp_s", "s"),
    ("qp.solve_unconstrained_s", "s"),
    ("qp.solve_box_constrained_s", "s"),
    ("qp.calibration_mse_calls", "count"),
    ("qp.calibration_mse_s", "s"),
    ("qp.linearized_delta_objective_s", "s"),
    ("qp.max_dim", "count"),
    ("qp.box_kkt_residual", "abs"),
    ("subspaces.self_s", "s"),
    ("subspaces.output_projector_calls", "count"),
    ("subspaces.output_projector_s", "s"),
    ("subspaces.svd_basis_s", "s"),
    ("subspaces.captured_energy_pointwise_s", "s"),
    ("baselines.self_s", "s"),
    ("baselines.baseline_delta_calls", "count"),
    ("multilayer.self_s", "s"),
    ("multilayer.basis_fraction_s", "s"),
    ("cli.self_s", "s"),
    ("cli.cmd_gen_s", "s"),
    ("cli.cmd_merge_s", "s"),
    ("cli.cmd_compare_s", "s"),
    ("cli.cmd_diagnose_s", "s"),
    ("cli.cmd_eval_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

MB = 1e6


def _fill(template, bundle, out):
    return [a.replace("{bundle}", str(bundle)).replace("{out}", str(out)) for a in template]


def _outputs(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--report")]


def _same(a, b):
    """Both files missing, or both present with the same bytes."""
    return a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Run:
    """Runs CLI commands one at a time and counts attempts and failures.

    Each command run has a key; a run fails at most once, whether it exited
    non-zero or its outputs failed a check.
    """

    def __init__(self, workload):
        self.workload = workload
        self.recorder = None
        self.attempted = 0
        self.failures = {}  # key -> first problem

    @property
    def failed(self):
        return len(self.failures)

    def fail(self, key, message):
        self.failures.setdefault(key, message)

    def command(self, argv, key):
        """Run ``mergeqp <argv>``; returns (exit code, seconds)."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.begin_command(":".join(map(str, (self.workload, *key, argv[0]))))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crashing command is a failed operation, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(key, f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
        return code, elapsed


def gen_argv(workload, seed, bundle):
    return ["gen", *workload.gen, "--seed", str(seed), "--out", str(bundle)]


_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((24, 16))
_PROBE_MEDIUM = _PROBE_RNG.standard_normal((200, 200))
_PROBE_LARGE = _PROBE_RNG.standard_normal((400, 400))
_PROBE_SYM = _PROBE_MEDIUM[:128, :128] @ _PROBE_MEDIUM[:128, :128].T


def speed_probe():
    """Wall time of fixed work of the kinds the jobs do: an interpreted loop,
    small SVDs, BLAS matrix products of two sizes and a symmetric
    eigendecomposition.  About 0.02 s.

    The host is shared, and its speed changes by half within seconds.  A
    command and the probe run just before it slow down nearly alike.
    """
    start = time.perf_counter()
    acc = sum(j * 0.5 for j in range(20000))
    for _ in range(300):
        acc += np.linalg.svd(_PROBE_SMALL, compute_uv=False)[0]
    for _ in range(4):
        acc += float((_PROBE_MEDIUM @ _PROBE_MEDIUM)[0, 0])
    acc += float((_PROBE_LARGE @ _PROBE_LARGE)[0, 0])
    acc += np.linalg.eigh(_PROBE_SYM)[0][0]
    return time.perf_counter() - start


def run_job(run, workload, bundle, out, tag, probe=False):
    """One pass over the job.

    Returns the summed time of its commands, seconds per command kind,
    output digests, and the summed time of the speed probes: with ``probe``,
    speed_probe() runs before each command, outside its time; else 0.
    Command ``i`` runs under the key ``(tag, i)``.
    """
    out.mkdir(parents=True, exist_ok=True)
    argvs = [_fill(t, bundle, out) for t in workload.job]
    per_kind = {}
    job_s = probe_s = 0.0
    for i, argv in enumerate(argvs):
        if probe:
            probe_s += speed_probe()
        _, elapsed = run.command(argv, (tag, i))
        per_kind[argv[0]] = per_kind.get(argv[0], 0.0) + elapsed
        job_s += elapsed
    digests = [_digest(_outputs(a)) if all(map(os.path.exists, _outputs(a))) else None for a in argvs]
    return job_s, per_kind, digests, probe_s


def check_outputs(run, workload, bundle, out, tags):
    """Check one job's outputs; a problem fails command ``i`` of every job in ``tags``.

    Returns (argv, report) of the job's first merge, or None.
    """
    argvs = [_fill(t, bundle, out) for t in workload.job]
    parser = cli.build_parser()
    data = load_bundle(bundle)
    c = data.base.output_dim

    merges = {}
    first_merge = None
    for i, argv in enumerate(argvs):
        if not all(map(os.path.exists, _outputs(argv))):
            continue  # the command already failed
        args = parser.parse_args(argv)
        layer = args.layer if getattr(args, "layer", None) is not None else data.layers_with_updates[0]
        problems = []
        if args.command == "merge":
            report = checks.merge_report(args.report)
            merges[args.out] = report
            first_merge = first_merge or (argv, report)
            if args.method in cli.QP_METHODS and args.solver == "box":
                problems = checks.check_box_coefficients(report, args.lo, args.hi)
        elif args.command == "eval":
            source = merges.get(args.model)
            problems = (
                checks.check_eval(args.out, source["final_mse"])
                if source
                else ["no merge report for the evaluated model"]
            )
        elif args.command == "compare":
            p = args.p if args.p is not None else min(data.base.layer_shape(layer)[0], c)
            geometry = merge_geometry(data.base, layer, data.pooled_calibration())
            basis = layer_basis("eigen", p, args.seed, data.residuals[layer], geometry)
            references = {
                "qp-diag": checks.least_squares_reference(data, layer, SOLVER_RANK_CUTOFF),
                "qp-basis": checks.least_squares_reference(
                    data, layer, SOLVER_RANK_CUTOFF, basis.columns
                ),
            }
            problems = checks.check_compare(args.out, references)
        elif args.command == "diagnose":
            p_cap = min(data.base.layer_shape(layer)[0], c)
            p = min(args.p_max if args.p_max is not None else p_cap, p_cap)
            fixed = all(a == "identity" for a in data.base.activations[layer - 1 :])
            problems = checks.check_diagnose(
                args.out, 3 + args.random_seeds, p, checks.total_energy(data), fixed
            )
        for message in problems:
            for tag in tags:
                run.fail((tag, i), f"{argv[0]}: {message}")
    return first_merge


def _long_merge_mse(run, argv, out):
    """final_mse of the same merge with LONG_SOLVE times the solver steps (untimed)."""
    args = cli.build_parser().parse_args(argv)
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out")
        del argv[i : i + 2]
    report = out / "long.json"
    steps = str(LONG_SOLVE * args.steps)
    code, _ = run.command(
        argv + ["--steps", steps, "--format", "json", "--report", str(report)], ("long", 0)
    )
    return checks.merge_report(report)["final_mse"] if code == 0 else float("nan")


def measure(workload, seed, seconds, work):
    """Untraced run: rounds of set-up and whole job for ``seconds``, probed."""
    run = Run(workload.name)
    bundle = work / "bundle.json"
    out = work / "job"
    setup, reps, first_digest = [], [], None
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        probe_s = speed_probe()
        key = ("setup", len(setup))
        _, elapsed = run.command(gen_argv(workload, seed, bundle), key)
        setup.append((elapsed, probe_s))
        digest = _digest([bundle])
        first_digest = first_digest or digest
        if digest != first_digest:
            run.fail(key, "gen wrote a different bundle for the same seed")
        reps.append(run_job(run, workload, bundle, out, len(reps), probe=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    for rep, (_, _, digests, _) in enumerate(reps):
        for i, (first, again) in enumerate(zip(reps[0][2], digests)):
            if first != again:
                run.fail((rep, i), f"{workload.job[i][0]}: outputs differ between repetitions")

    first_merge = check_outputs(run, workload, bundle, out, range(len(reps)))
    merge_mse = first_merge[1]["final_mse"] if first_merge else float("nan")
    long_mse = _long_merge_mse(run, first_merge[0], work) if first_merge else float("nan")

    n = len(workload.job)
    metrics = {
        "setup_s": statistics.median(s / p * PROBE_REF_S for s, p in setup),
        "job_s": statistics.median(r[0] / r[3] * n * PROBE_REF_S for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
        "merge_mse_ratio": merge_mse / long_mse,
    }
    detail = {
        "setup_s": [s for s, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "job_s": [r[0] for r in reps],
        "job_probe_s": [r[3] for r in reps],
        "command_s": [r[1] for r in reps],
        "median_command_s": {kind: statistics.median(r[1][kind] for r in reps) for kind in reps[0][1]},
        "merge_mse": merge_mse,
        "long_solve_merge_mse": long_mse,
    }
    return run, metrics, detail


def traced_run(workload, seed, work):
    """One untraced and one traced job on bundles of the same seed; per-layer metrics."""
    run = Run(workload.name)
    bundle = work / "bundle.json"
    run.command(gen_argv(workload, seed, bundle), ("setup", 0))
    plain_s, _, _, _ = run_job(run, workload, bundle, work / "job", "plain")

    recorder = spans.SpanRecorder()
    recorder.observe("qp.build_diagonal_qp", lambda args, qp: qp.dim)
    recorder.observe("qp.build_general_basis_qp", lambda args, qp: qp.dim)
    recorder.observe(
        "qp.solve_box_constrained",
        lambda args, res: (args["qp"].H, args["qp"].g, args["lo"], args["hi"], res.values.ravel()),
    )
    traced = work / "traced"
    traced.mkdir()
    before = recorder.bindings()
    run.recorder = recorder
    with recorder:
        run.command(gen_argv(workload, seed, traced / "bundle.json"), ("setup", 1))
        traced_s, _, _, _ = run_job(run, workload, traced / "bundle.json", traced / "job", "traced")
    run.recorder = None
    after = recorder.bindings()
    if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
        run.fail(("restore", 0), "the span recorder left a rebound name behind")
    recorder.write(work / "spans.csv")

    if not _same(bundle, traced / "bundle.json"):
        run.fail(("setup", 1), "the traced gen wrote a different bundle")
    for i, argv in enumerate(_fill(t, "", "") for t in workload.job):
        names = [Path(p).name for p in _outputs(argv)]
        if not all(_same(work / "job" / n, traced / "job" / n) for n in names):
            run.fail(("traced", i), f"{argv[0]}: traced outputs differ from untraced outputs")
    check_outputs(run, workload, bundle, work / "job", ("plain", "traced"))

    functions, layer_self = recorder.summary()
    dims = recorder.observations["qp.build_diagonal_qp"] + recorder.observations["qp.build_general_basis_qp"]
    metrics = {}
    for name, _unit in PER_LAYER:
        layer, key = name.split(".", 1)
        if key == "self_s":
            value = layer_self.get(layer, 0.0)
        elif name == "bundles.file_mb":
            value = bundle.stat().st_size / MB
        elif name == "qp.max_dim":
            value = max(dims, default=0)
        elif name == "qp.box_kkt_residual":
            value = spans.box_kkt_residual(recorder.observations["qp.solve_box_constrained"])
        elif name == "trace.overhead_ratio":
            value = traced_s / plain_s - 1.0
        elif key.endswith("_calls"):
            value = functions.get(f"{layer}.{key[:-6]}", {"calls": 0})["calls"]
        else:
            value = functions.get(f"{layer}.{key[:-2]}", {"s": 0.0})["s"]
        metrics[name] = value
    detail = {"spans": len(recorder.spans), "untraced_job_s": plain_s, "traced_job_s": traced_s}
    return run, metrics, detail


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, workload, seed, seconds, trace, bundle):
    """What must match for two runs to be comparable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "bundle": {
            "gen": " ".join(workload.gen),
            "seed": seed,
            "bytes": bundle.stat().st_size if bundle.exists() else None,
        },
    }


def run_workload(root, workload, seed, seconds, trace, work):
    """Run one workload in ``work`` (emptied first); returns the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        run, values, detail = traced_run(workload, seed, work)
        units = dict(PER_LAYER)
    else:
        run, values, detail = measure(workload, seed, seconds, work)
        units = dict(END_TO_END)
    env = environment(root, workload, seed, seconds, trace, work / "bundle.json")
    record = {
        "env": env,
        "detail": detail,
        "problems": list(run.failures.values()),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record
