"""Command line front end: gen, merge, diagnose, eval, compare.

A thin layer over library calls: flags become baseline parameters in
`_baseline_params` only, and `mergeqp.multilayer.layer_params` turns those
into each layer's, for `merge`, hybrid refinement and `compare` alike.

Exit codes: 0 success, 1 a merging method failed, 2 usage or configuration
error (argparse errors included), 3 numerical failure (non-finite values in
an objective or solve).  Reports are byte-identical for a fixed config,
seed, numpy/BLAS build and BLAS thread count: no timestamps, floats written
with shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .baselines import baseline_delta, fisher_diagonals
from .bundles import (
    ModelBundle,
    gen_linear_tasks,
    gen_relu_tasks,
    gen_shared_direction_instance,
    load_bundle,
    load_network,
    save_bundle,
    save_network,
)
from .multilayer import (
    MergeReport,
    baseline_merge,
    hybrid_refine,
    layer_basis,
    layer_params,
    prefix_sweep,
    sequential_merge,
    solve_layer,
)
from .networks import NumericalError, apply_merged_residual, forward
from .qp import (
    calibration_mse,
    linearized_delta_objective,
    merge_geometry,
    solve_box_constrained,
    solve_unconstrained,
)

EXIT_OK = 0
EXIT_METHOD = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

BASELINES = ("soup", "ta", "dare", "ties", "fisher")
QP_METHODS = ("qp-diag", "qp-basis")


def _parse_ints(text):
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_floats(text):
    try:
        return [_finite_float(part) for part in str(text).split(",") if part != ""]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"expected comma-separated finite numbers, got {text!r}") from exc


def _finite_float(text):
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    """Write rows to the CSV file at path, or to stdout when path is empty."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        # files keep csv's default \r\n; stdout ends each line with \n, as print does
        writer = csv.writer(fh, lineterminator="\r\n" if path else "\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path, obj):
    """Write obj as indented JSON with sorted keys to path, or to stdout when path is empty."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _emit_csv(path, header, rows):
    """_write_csv, saying how many rows went to a file."""
    _write_csv(path, header, rows)
    if path:
        print(f"wrote {len(rows)} rows to {path}")


def _table_header(task_ids, last):
    """Columns of the merge report and the compare table, `last` the final one."""
    return ["method", "layer", "objective", "mse"] + [f"task_mse_{t}" for t in task_ids] + [last]


def _select_layers(bundle: ModelBundle, spec: str):
    available = bundle.layers_with_updates
    chosen = available if spec == "all" else sorted(set(_parse_ints(spec)))
    if not chosen:
        raise ValueError("no layers to merge")
    missing = [l for l in chosen if l not in available]
    if missing:
        raise ValueError(
            f"no residual updates at layer(s) {missing}; bundle has {available}"
        )
    return chosen


def _single_layer(args):
    """What diagnose and compare study: (bundle, layer, pooled calibration, updates, geometry).

    The layer is --layer, or the only one with updates.
    """
    bundle = load_bundle(args.bundle)
    available = bundle.layers_with_updates
    layer = available[0] if args.layer is None and len(available) == 1 else args.layer
    if layer is None:
        raise ValueError(f"bundle has updates at {available}; pick one with --layer")
    if layer not in available:
        raise ValueError(f"no residual updates at layer {layer}; bundle has {available}")
    calib = bundle.pooled_calibration()
    return bundle, layer, calib, bundle.residuals[layer], merge_geometry(bundle.base, layer, calib)


def _report_rows(report: MergeReport, task_ids):
    return [
        [report.method, rec.layer_index, rec.objective_after, report.final_mse]
        + [report.task_mse.get(t) for t in task_ids]
        + [rec.captured_fraction]
        for rec in report.steps
    ]


def _report_json(report: MergeReport, task_ids):
    return {
        "method": report.method,
        "final_mse": report.final_mse,
        "task_mse": {str(t): report.task_mse.get(t) for t in task_ids},
        "baseline_mse": report.baseline_mse,
        "layers": [
            {
                "layer": rec.layer_index,
                "basis": rec.basis_id,
                "objective_before": rec.objective_before,
                "objective_after": rec.objective_after,
                "fraction": rec.captured_fraction,
                "coefficients": [[float(v) for v in row] for row in rec.coefficients],
            }
            for rec in report.steps
        ],
    }


def _baseline_params(args, bundle: ModelBundle, calib, method, layers):
    """Merge-wide parameters of baseline `method` from the command's flags.

    Fisher diagonals are computed on calib at the given layers only;
    layer_params picks each layer's values.
    """
    if method == "ta":
        return {"lambdas": _parse_floats(args.lam)}
    if method == "dare":
        return {"keep_prob": args.keep_prob, "seed": args.seed}
    if method == "ties":
        return {"density": args.density}
    if method == "fisher":
        return {"fishers": fisher_diagonals(bundle.base, calib, bundle.task_ids, layers)}
    return {}


# The gen flags each kind does not read.  Gen flags default to None, so a flag given at
# its default value counts as given; an omitted one keeps its generator's default.
_GEN_UNREAD = {
    "linear": ("sigmas",),
    "relu": ("n_layers", "delta_scale", "noise", "sigmas"),
    "shared-direction": ("dims", "n_layers", "merge_layer", "tasks", "delta_scale", "noise"),
}


def cmd_gen(args) -> int:
    unread = [f for f in _GEN_UNREAD[args.kind] if vars(args)[f] is not None]
    if unread:
        names = ", ".join("--" + f.replace("_", "-") for f in unread)
        raise ValueError(f"gen --kind {args.kind} does not read {names}")
    flags = {"n_layers": args.n_layers, "n_tasks": args.tasks, "delta_scale": args.delta_scale,
             "noise": args.noise, "n_samples": args.n_calib}
    given = {name: value for name, value in flags.items() if value is not None}
    if args.kind == "linear":
        dims = _parse_ints(args.dims or "8,6,5")
        layers = _parse_ints(args.merge_layer or "1")
        bundle = gen_linear_tasks(dims=tuple(dims), merge_layer=layers, seed=args.seed, **given)
    elif args.kind == "shared-direction":
        bundle = gen_shared_direction_instance(
            sigmas=_parse_floats(args.sigmas or "1,2"), seed=args.seed, **given
        )
        print("assumption validators passed (shared direction, isometry)")
    else:
        given.setdefault("n_tasks", 3)  # as for linear bundles; gen_relu_tasks' own default is 2
        dims = _parse_ints(args.dims or "16,12,8,4")
        bundle = gen_relu_tasks(dims=tuple(dims), merge_layer=int(args.merge_layer or "2"),
                                seed=args.seed, **given)
    save_bundle(bundle, args.out)
    print(
        f"wrote {args.out}: {bundle.base.depth} layers, "
        f"{len(bundle.task_ids)} tasks, updates at {bundle.layers_with_updates}, "
        f"{sum(len(cs) for cs in bundle.calibration)} calibration samples, seed {args.seed}"
    )
    return EXIT_OK


def cmd_merge(args) -> int:
    bundle = load_bundle(args.bundle)
    layers = _select_layers(bundle, args.layers)
    calib = bundle.pooled_calibration()
    method = args.method

    if args.mode == "hybrid" and method != "qp-diag":
        raise ValueError("--mode hybrid refines with qp-diag; pick --method qp-diag")

    def box(qp):
        coeffs = solve_box_constrained(qp, lo=args.lo, hi=args.hi, steps=args.steps)
        if not coeffs.converged:
            print(f"note: box solve stopped uncertified at --steps {args.steps} "
                  f"(KKT residual {coeffs.kkt_residual:.1e})", file=sys.stderr)
        return coeffs

    solver = solve_unconstrained if args.solver == "exact" else box
    chosen = {l: bundle.residuals[l] for l in layers}
    if method in BASELINES:
        params = _baseline_params(args, bundle, calib, method, layers)
        merged, report = baseline_merge(bundle.base, chosen, calib, method, params)
    elif args.mode == "hybrid":
        # the baseline goes on every layer with updates; --layers picks the refined ones
        init_params = _baseline_params(args, bundle, calib, args.init_method,
                                       bundle.layers_with_updates)
        merged, report = hybrid_refine(
            bundle.base, bundle.residuals, calib, init_method=args.init_method,
            refine_layers=layers, init_params=init_params, solver=solver,
        )
    else:
        merged, report = sequential_merge(
            bundle.base, chosen, calib, basis_kind=None if method == "qp-diag" else args.basis,
            basis_p=args.p, basis_seed=args.seed, solver=solver,
        )

    for rec in report.steps:
        if rec.rank_deficient:
            print(f"note: the {args.basis} basis at layer {rec.layer_index} is rank-deficient: "
                  f"rank {rec.coefficients.shape[1]}", file=sys.stderr)
    if args.out:
        save_network(merged, args.out)
    task_ids = bundle.task_ids
    if args.report:
        if args.format == "csv":
            rows = _report_rows(report, task_ids)
            _write_csv(args.report, _table_header(task_ids, "fraction"), rows)
        else:
            _write_json(args.report, _report_json(report, task_ids))
    print(f"{report.method}: final calibration mse {report.final_mse!r}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.random_seeds < 0:
        raise ValueError(f"--random-seeds must be >= 0, got {args.random_seeds}")
    bundle, layer, calib, deltas, geometry = _single_layer(args)
    p_cap = geometry.default_p
    p_max = args.p_max if args.p_max is not None else p_cap
    if p_max > p_cap:
        r, c = deltas[0].delta.shape[0], bundle.base.output_dim
        print(f"note: clipping p to {p_cap} (min of layer dim {r}, output dim {c})",
              file=sys.stderr)
        p_max = p_cap
    if p_max < 1:
        raise ValueError("p range is empty")

    chains = [
        (kind, layer_basis(kind, p_max, args.seed, deltas, geometry))
        for kind in ("eigen", "standard", "svd")
    ] + [
        (f"random({seed})", layer_basis("random", p_max, seed, deltas, geometry))
        for seed in range(args.seed, args.seed + args.random_seeds)
    ]

    rows = []
    for label, chain in chains:
        # zero updates empty the svd chain, zero ReLU Jacobians the eigen one
        if not chain.p:
            print(f"note: the {label} basis is empty; no {label} rows", file=sys.stderr)
            continue
        if chain.p < p_max:
            print(f"note: the {label} basis spans {chain.p} of {p_max} directions; "
                  f"no {label} rows past p={chain.p}", file=sys.stderr)
        rows += [[label, *row] for row in prefix_sweep(geometry, deltas, chain)]

    header = ["basis", "p", "fraction", "relaxed_loss", "qp_mse", "gap"]
    _emit_csv(args.out, header, rows)
    return EXIT_OK


def cmd_eval(args) -> int:
    net = load_network(args.model)
    bundle = load_bundle(args.bundle)
    calib = bundle.pooled_calibration()
    pooled, per_task = calibration_mse(net, calib)
    metrics = {
        "mse": pooled,
        "task_mse": {str(t): v for t, v in per_task.items()},
        "n_samples": len(calib),
    }
    targets = calib.targets
    if np.array_equal(targets, np.eye(targets.shape[1])[targets.argmax(axis=1)]):  # one-hot
        hits = np.argmax(forward(net, calib.inputs), axis=1) == np.argmax(targets, axis=1)
        metrics["accuracy"] = int(np.count_nonzero(hits)) / len(calib)
    _write_json(args.out, metrics)
    return EXIT_OK


def cmd_compare(args) -> int:
    bundle, layer, calib, deltas, geometry = _single_layer(args)
    task_ids = bundle.task_ids
    p = geometry.default_p if args.p is None else args.p
    basis = layer_basis("eigen", p, args.seed, deltas, geometry)
    if basis.p < p:
        print(f"note: the eigen basis spans {basis.p} of {p} directions", file=sys.stderr)

    specs = [("base", "base", {}), ("soup", "soup", {})]
    specs += [(f"ta({_fmt(v)})", "ta", {"lambdas": v}) for v in _parse_floats(args.lambda_grid)]
    # None: parameters from the flags, computed in the row's try so a failure marks that row only
    specs += [(kind, kind, None) for kind in ("dare", "ties", "fisher")]
    specs += [("qp-diag", "qp-diag", {}), (f"qp-basis(eigen,{basis.p})", "qp-basis", {})]

    rows = []
    for name, kind, params in specs:
        try:
            if kind == "base":
                delta = np.zeros(deltas[0].delta.shape)
            elif kind in QP_METHODS:
                delta = solve_layer(geometry, deltas, basis if kind == "qp-basis" else None)[2]
            else:
                if params is None:
                    params = _baseline_params(args, bundle, calib, kind, [layer])
                delta = baseline_delta(kind, deltas, layer_params(kind, params, layer))
            merged = apply_merged_residual(bundle.base, layer, delta)
            mse, per_task = calibration_mse(merged, calib)  # a model that overflows exits 3
            objective = linearized_delta_objective(geometry, delta)
            rows.append(
                [name, layer, objective, mse] + [per_task.get(t) for t in task_ids] + ["ok"]
            )
        except NumericalError as exc:  # exits 3, naming the row
            raise NumericalError(f"{name}: {exc}") from exc
        except Exception as exc:  # a single method failing should not kill the table
            rows.append([name, layer, None, None] + [None] * len(task_ids) + ["failed"])
            print(f"method {name} failed: {exc}", file=sys.stderr)

    _emit_csv(args.out, _table_header(task_ids, "status"), rows)

    objectives = {row[0]: row[2] for row in rows if row[-1] == "ok"}
    if "qp-diag" in objectives:
        # fixed-coefficient rows are feasible points of the diagonal QP; slack relative to base
        tol = 1e-8 * objectives.get("base", 0.0)
        for name, kind, _ in specs:
            feasible = kind in ("base", "soup", "ta", "dare", "ties") and name in objectives
            if feasible and objectives["qp-diag"] > objectives[name] + tol:
                print(
                    f"dominance violated: qp-diag objective {objectives['qp-diag']!r} "
                    f"> {name} objective {objectives[name]!r}",
                    file=sys.stderr,
                )
                return EXIT_METHOD
    return EXIT_METHOD if any(row[-1] == "failed" for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergeqp",
        description="Merge task-specific weight updates by solving small QPs "
        "over calibration data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic model bundle")
    p_gen.add_argument("--kind", choices=("linear", "shared-direction", "relu"), default="linear")
    p_gen.add_argument("--out", required=True, help="bundle file path (format version 3)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--dims", help="comma dims: linear d,r,c / relu d,h1,...,c")
    p_gen.add_argument("--n-layers", type=int, help="linear: layer count (default 2)")
    p_gen.add_argument("--merge-layer", help="layer index (linear allows a comma list)")
    p_gen.add_argument("--tasks", type=int, help="linear and relu (default 3)")
    p_gen.add_argument("--n-calib", type=int,
                       help="calibration samples per task (generator default when omitted)")
    p_gen.add_argument("--delta-scale", type=_finite_float, help="linear (default 0.5)")
    p_gen.add_argument("--noise", type=_finite_float, help="linear (default 0.0)")
    p_gen.add_argument("--sigmas", help="shared-direction strengths, e.g. 1,2")
    p_gen.set_defaults(func=cmd_gen)

    p_merge = sub.add_parser("merge", help="merge a bundle's task updates")
    p_merge.add_argument("--bundle", required=True)
    p_merge.add_argument(
        "--method",
        required=True,
        choices=BASELINES + QP_METHODS,
    )
    p_merge.add_argument("--layers", default="all", help="all or comma list, e.g. 1,2")
    p_merge.add_argument("--mode", choices=("sequential", "hybrid"), default="sequential")
    p_merge.add_argument("--init-method", choices=BASELINES, default="soup",
                         help="hybrid mode: baseline applied before refinement")
    p_merge.add_argument("--lambda", dest="lam", default="1.0", help="ta weights")
    p_merge.add_argument("--keep-prob", type=_finite_float, default=0.5)
    p_merge.add_argument("--density", type=_finite_float, default=0.5)
    p_merge.add_argument("--seed", type=int, default=0)
    p_merge.add_argument("--basis", choices=("eigen", "standard", "svd", "random"),
                         default="eigen", help="qp-basis direction family")
    p_merge.add_argument("--p", type=int, default=None, help="qp-basis direction count")
    p_merge.add_argument("--solver", choices=("box", "exact"), default="box")
    p_merge.add_argument("--lo", type=_finite_float, default=0.0)
    p_merge.add_argument("--hi", type=_finite_float, default=1.0)
    p_merge.add_argument("--steps", type=int, default=500, help="box solver iteration cap")
    p_merge.add_argument("--out", help="merged model file path (a version-3 network file)")
    p_merge.add_argument("--report", help="report path")
    p_merge.add_argument("--format", choices=("csv", "json"), default="csv")
    p_merge.set_defaults(func=cmd_merge)

    p_diag = sub.add_parser("diagnose", help="captured-energy sweep across bases")
    p_diag.add_argument("--bundle", required=True)
    p_diag.add_argument("--layer", type=int, default=None)
    p_diag.add_argument("--p-max", type=int, default=None)
    p_diag.add_argument("--random-seeds", type=int, default=5,
                        help="number of random-basis chains")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", help="CSV path (stdout when omitted)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_eval = sub.add_parser("eval", help="evaluate a model on bundle calibration data")
    p_eval.add_argument("--model", required=True, help="network file path, e.g. merge --out")
    p_eval.add_argument("--bundle", required=True)
    p_eval.add_argument("--out", help="metrics JSON path (stdout when omitted)")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="one table: baselines vs QP merges")
    p_cmp.add_argument("--bundle", required=True)
    p_cmp.add_argument("--layer", type=int, default=None)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--lambda-grid", default="0.25,0.5,0.75,1.0")
    p_cmp.add_argument("--keep-prob", type=_finite_float, default=0.5)
    p_cmp.add_argument("--density", type=_finite_float, default=0.5)
    p_cmp.add_argument("--p", type=int, default=None, help="qp-basis direction count")
    p_cmp.add_argument("--out", help="CSV path (stdout when omitted)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # BundleFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
