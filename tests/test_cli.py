"""End-to-end command flows: gen, merge, diagnose, eval, compare, exit codes."""

import csv
import io
import itertools
import json
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

import mergeqp as mq
from mergeqp.cli import BASELINES, main
from mergeqp.qp import _eigen_cut


def _gen(tmp_path, *extra, name="bundle.json"):
    path = tmp_path / name
    rc = main(["gen", "--out", str(path), *extra])
    assert rc == 0
    return path


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_gen_writes_loadable_bundle(tmp_path):
    path = _gen(tmp_path, "--seed", "5")
    bundle = mq.load_bundle(path)
    assert bundle.layers_with_updates == [1]
    assert len(bundle.calibration) == 3


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path, "--seed", "5", name="a.json")
    b = _gen(tmp_path, "--seed", "5", name="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_shared_direction_reports_validation(tmp_path, capsys):
    path = tmp_path / "sd.json"
    rc = main(["gen", "--kind", "shared-direction", "--out", str(path), "--sigmas", "1,2"])
    assert rc == 0
    assert "assumption validators passed" in capsys.readouterr().out
    mq.validate_shared_direction_bundle(mq.load_bundle(path))


def test_gen_relu_bundle(tmp_path):
    path = _gen(tmp_path, "--kind", "relu", "--seed", "1", "--tasks", "2")
    bundle = mq.load_bundle(path)
    assert bundle.base.activations == ["relu", "relu"]
    assert len(bundle.pooled_calibration()) == 200


@pytest.mark.parametrize("flags", [
    ("--dims", "8,0,5"),
    ("--dims", "0,4,3"),
    ("--dims", "5,4,0"),
    ("--kind", "relu", "--dims", "6,0,4", "--merge-layer", "1"),
])
def test_gen_rejects_a_zero_dimension_and_writes_nothing(tmp_path, capsys, flags):
    path = tmp_path / "bundle.json"
    assert main(["gen", *flags, "--out", str(path)]) == 2
    assert "dimensions must be positive" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("kind, generator", [
    ("linear", partial(mq.gen_linear_tasks, dims=(8, 6, 5), merge_layer=[1])),
    ("relu", partial(mq.gen_relu_tasks, dims=(16, 12, 8, 4), merge_layer=2, n_tasks=3,
                     n_samples=100)),
    ("shared-direction", partial(mq.gen_shared_direction_instance, sigmas=[1.0, 2.0],
                                 n_samples=12)),
])
def test_gen_writes_its_generators_bundle(tmp_path, kind, generator):
    # gen passes only these values; every other generator parameter keeps its default
    path = _gen(tmp_path, "--kind", kind, "--seed", "0")
    mq.save_bundle(generator(seed=0), tmp_path / "direct.json")
    assert path.read_bytes() == (tmp_path / "direct.json").read_bytes()


@pytest.mark.parametrize("kind, flags, unread", [
    ("linear", ("--sigmas", "1,2"), "--sigmas"),
    ("relu", ("--n-layers", "5", "--delta-scale", "9", "--sigmas", "1,2"),
     "--n-layers, --delta-scale, --sigmas"),
    ("relu", ("--noise", "0.0", "--tasks", "2"), "--noise"),
    ("shared-direction",
     ("--tasks", "5", "--dims", "3,3,3", "--merge-layer", "2", "--noise", "0.3"),
     "--dims, --merge-layer, --tasks, --noise"),
    ("shared-direction", ("--tasks", "3"), "--tasks"),
    ("shared-direction", ("--n-layers", "2", "--delta-scale", "0.5"), "--n-layers, --delta-scale"),
])
def test_gen_rejects_flags_its_kind_does_not_read(tmp_path, capsys, kind, flags, unread):
    # a flag given at its default value counts as given
    path = tmp_path / "bundle.json"
    assert main(["gen", "--kind", kind, *flags, "--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: gen --kind {kind} does not read {unread}\n"
    assert not path.exists()


def test_merge_report_schema(tmp_path):
    bundle = _gen(tmp_path)
    report = tmp_path / "report.csv"
    model = tmp_path / "merged.json"
    rc = main([
        "merge", "--bundle", str(bundle), "--method", "qp-diag",
        "--report", str(report), "--out", str(model),
    ])
    assert rc == 0
    header, rows = _read_csv(report)
    assert header == ["method", "layer", "objective", "mse",
                      "task_mse_0", "task_mse_1", "task_mse_2", "fraction"]
    assert rows[0][0] == "qp-diag"
    assert int(rows[0][1]) == 1
    float(rows[0][2]), float(rows[0][3])  # parseable numbers
    net = mq.load_network(model)
    assert net.depth == mq.load_bundle(bundle).base.depth


def test_merge_report_json_format(tmp_path):
    bundle = _gen(tmp_path)
    report = tmp_path / "report.json"
    rc = main([
        "merge", "--bundle", str(bundle), "--method", "qp-diag",
        "--solver", "exact", "--report", str(report), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert set(payload) >= {"method", "final_mse", "task_mse", "layers"}
    assert payload["layers"][0]["objective_after"] <= payload["layers"][0]["objective_before"]


def test_merge_mse_agrees_with_eval(tmp_path, capsys):
    bundle = _gen(tmp_path)
    model = tmp_path / "m.json"
    report = tmp_path / "r.json"
    main(["merge", "--bundle", str(bundle), "--method", "qp-diag",
          "--out", str(model), "--report", str(report), "--format", "json"])
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--bundle", str(bundle)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    reported = json.loads(report.read_text())["final_mse"]
    assert np.isclose(metrics["mse"], reported, rtol=1e-12)


def test_merge_baseline_methods_run(tmp_path):
    bundle = _gen(tmp_path)
    for method in ("soup", "ta", "dare", "ties", "fisher"):
        rc = main(["merge", "--bundle", str(bundle), "--method", method])
        assert rc == 0, method


def test_merge_box_solver_beats_or_matches_soup(tmp_path):
    bundle_path = _gen(tmp_path)
    bundle = mq.load_bundle(bundle_path)
    calib = bundle.pooled_calibration()
    report = tmp_path / "r.json"
    main(["merge", "--bundle", str(bundle_path), "--method", "qp-diag",
          "--report", str(report), "--format", "json"])
    qp_mse = json.loads(report.read_text())["final_mse"]
    merged = bundle.base
    for layer in bundle.layers_with_updates:
        merged = mq.apply_merged_residual(merged, layer, mq.soup(bundle.residuals[layer]))
    soup_mse, _ = mq.calibration_mse(merged, calib)
    assert qp_mse <= soup_mse + 1e-10


def test_merge_hybrid_requires_qp(tmp_path):
    bundle = _gen(tmp_path)
    rc = main(["merge", "--bundle", str(bundle), "--method", "soup", "--mode", "hybrid"])
    assert rc == 2


def test_merge_hybrid_runs(tmp_path):
    bundle = _gen(
        tmp_path, "--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2", name="two.json"
    )
    report = tmp_path / "h.json"
    rc = main([
        "merge", "--bundle", str(bundle), "--method", "qp-diag", "--mode", "hybrid",
        "--init-method", "soup", "--layers", "1", "--solver", "exact",
        "--report", str(report), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["baseline_mse"] is not None
    assert payload["final_mse"] <= payload["baseline_mse"] + 1e-10


@pytest.mark.parametrize(
    "flags",
    [
        ("--method", "soup"),
        ("--method", "qp-diag"),
        ("--method", "qp-diag", "--mode", "hybrid"),
    ],
)
def test_merge_empty_layer_selection_exits_two(tmp_path, flags):
    bundle = _gen(tmp_path)
    report = tmp_path / "r.json"
    rc = main([
        "merge", "--bundle", str(bundle), *flags, "--layers", ",",
        "--report", str(report), "--format", "json",
    ])
    assert rc == 2
    assert not report.exists()


@pytest.mark.parametrize(
    "flags",
    [("--method", "ta"), ("--method", "qp-diag", "--mode", "hybrid", "--init-method", "ta")],
)
def test_non_finite_baseline_exits_three(tmp_path, capsys, flags):
    bundle = _gen(
        tmp_path, "--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2",
        "--delta-scale", "1e10", name="big.json",
    )
    rc = main(["merge", "--bundle", str(bundle), *flags, "--lambda", "1e300"])
    assert rc == 3
    assert "numerical failure: merged layer 1 contains non-finite weights" in capsys.readouterr().err


DEEP_TALL = (
    "--dims", "16,12,8", "--n-layers", "4", "--merge-layer", "1,2,3", "--tasks", "4",
    "--n-calib", "600", "--noise", "0.05", "--seed", "0",
)


@pytest.mark.parametrize(
    "flags",
    [("--method", "ta"), ("--method", "qp-diag", "--mode", "hybrid", "--init-method", "ta")],
)
def test_overflow_in_the_merged_model_exits_three(tmp_path, capsys, flags):
    # finite updates whose merged layers overflow in the forward pass: the
    # plain merge ends with a nan calibration mse, the hybrid refinement
    # meets non-finite downstream maps
    bundle = _gen(tmp_path, *DEEP_TALL, name="deep.json")
    model = tmp_path / "merged.json"
    rc = main(["merge", "--bundle", str(bundle), *flags, "--lambda", "1e300", "--out", str(model)])
    assert rc == 3
    assert "numerical failure:" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "gen_flags",
    [("--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2", "--delta-scale", "1e10"), DEEP_TALL],
)
def test_overflow_prints_no_numpy_warnings(tmp_path, capsys, gen_flags):
    # the overflow is reported once, as the CLI's numerical failure
    bundle = _gen(tmp_path, *gen_flags)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["merge", "--bundle", str(bundle), "--method", "ta", "--lambda", "1e300"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_eval_and_compare_exit_three_when_the_model_overflows(tmp_path, capsys):
    # finite weights whose forward pass overflows: eval and compare report the
    # numerical failure instead of writing an infinite mse
    bundle = _gen(tmp_path, *DEEP_TALL, name="deep.json")
    base = mq.load_bundle(bundle).base
    model = tmp_path / "huge.json"
    mq.save_network(mq.LinearNetwork([1e100 * W for W in base.layers], base.activations), model)
    metrics = tmp_path / "eval.json"
    table = tmp_path / "compare.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--model", str(model), "--bundle", str(bundle),
                     "--out", str(metrics)]) == 3
        assert main(["compare", "--bundle", str(bundle), "--layer", "1",
                     "--lambda-grid", "1e300", "--out", str(table)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("numerical failure:") for line in err)
    assert not metrics.exists() and not table.exists()


def test_merge_notes_an_uncertified_box_solve(tmp_path, capsys):
    bundle = _gen(tmp_path)
    assert main(["merge", "--bundle", str(bundle), "--method", "qp-diag", "--steps", "1"]) == 0
    assert "note: box solve stopped uncertified at --steps 1" in capsys.readouterr().err
    assert main(["merge", "--bundle", str(bundle), "--method", "qp-diag"]) == 0
    assert capsys.readouterr().err == ""


def test_fisher_pairs_calibration_with_tasks_by_id(tmp_path):
    bundle = mq.gen_linear_tasks(dims=(8, 6, 5), n_tasks=3, n_samples=20, seed=4)
    models, reports = [], []
    for name, calibration in (("as_is", bundle.calibration), ("reversed", bundle.calibration[::-1])):
        path = tmp_path / f"{name}.json"
        mq.save_bundle(mq.ModelBundle(bundle.base, bundle.residuals, calibration), path)
        model, report = tmp_path / f"{name}.model.json", tmp_path / f"{name}.report.json"
        rc = main(["merge", "--bundle", str(path), "--method", "fisher",
                   "--out", str(model), "--format", "json", "--report", str(report)])
        assert rc == 0
        models.append(model.read_bytes())
        reports.append(report.read_bytes())
    assert models[0] == models[1]
    # calibration is pooled in task order, so the storage order moves no bit of the report
    assert reports[0] == reports[1]
    assert round(json.loads(reports[1])["final_mse"], 4) == 0.9254


def test_fisher_task_without_calibration_exits_two(tmp_path, capsys):
    # a shared-direction bundle holds calibration data for its target task only
    bundle = _gen(tmp_path, "--kind", "shared-direction", "--sigmas", "1,2", name="sd.json")
    capsys.readouterr()
    rc = main(["merge", "--bundle", str(bundle), "--method", "fisher"])
    assert rc == 2
    assert "task 1 has no calibration samples" in capsys.readouterr().err


def test_fisher_with_non_finite_diagonals_exits_three(tmp_path, capsys):
    # m_j^2 overflows while u_j^2 underflows: NaN diagonals are a numerical failure, not usage
    net = mq.LinearNetwork([[[1e-50], [1e-50]], [[1e200, 1e200]]])
    calib = mq.CalibrationSet.for_task(0, [[1e-190]], [[0.0]])
    path = tmp_path / "steep.json"
    mq.save_bundle(mq.ModelBundle(net, {1: [mq.ResidualUpdate(1, np.ones((2, 1)), 0)]}, [calib]),
                   path)
    assert main(["merge", "--bundle", str(path), "--method", "fisher"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the pulled-back residual L_j' b_j or its square overflows at layer 1\n"
    )


def test_compare_marks_fisher_failed_for_a_task_without_calibration(tmp_path, capsys):
    bundle = _gen(tmp_path, "--kind", "shared-direction", "--sigmas", "1,2", name="sd.json")
    capsys.readouterr()
    rc = main(["compare", "--bundle", str(bundle)])
    assert rc == 1
    captured = capsys.readouterr()
    header, *rows = csv.reader(io.StringIO(captured.out))
    assert all(len(row) == len(header) for row in rows)
    status = {row[0]: row[-1] for row in rows}
    assert status.pop("fisher") == "failed"
    assert set(status.values()) == {"ok"}
    assert "method fisher failed: fisher: task 1 has no calibration samples" in captured.err


def test_diagnose_schema_and_monotone_fraction(tmp_path):
    bundle = _gen(tmp_path)
    out = tmp_path / "diag.csv"
    rc = main(["diagnose", "--bundle", str(bundle), "--out", str(out),
               "--random-seeds", "2"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["basis", "p", "fraction", "relaxed_loss", "qp_mse", "gap"]
    labels = {r[0] for r in rows}
    assert {"eigen", "standard", "svd", "random(0)", "random(1)"} <= labels
    eigen = sorted((int(r[1]), float(r[2]), float(r[4])) for r in rows if r[0] == "eigen")
    fracs = [e[1] for e in eigen]
    mses = [e[2] for e in eigen]
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert all(b <= a + 1e-10 for a, b in zip(mses, mses[1:]))


def test_diagnose_stdout_when_no_out(tmp_path, capsys):
    bundle = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["diagnose", "--bundle", str(bundle), "--random-seeds", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "basis,p,fraction,relaxed_loss,qp_mse,gap"
    assert len(lines) > 3


def test_diagnose_rejects_a_negative_random_seed_count(tmp_path, capsys):
    # a negative count would empty the random chains without a word
    bundle = _gen(tmp_path)
    capsys.readouterr()
    assert main(["diagnose", "--bundle", str(bundle), "--random-seeds", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--random-seeds must be >= 0, got -2" in captured.err


def test_diagnose_clipping_note_leaves_the_stdout_csv_intact(tmp_path, capsys):
    bundle = _gen(tmp_path, "--kind", "relu", "--seed", "0")
    capsys.readouterr()
    assert main(["diagnose", "--bundle", str(bundle), "--p-max", "99",
                 "--random-seeds", "1"]) == 0
    captured = capsys.readouterr()
    header, *rows = csv.reader(io.StringIO(captured.out))
    assert header == ["basis", "p", "fraction", "relaxed_loss", "qp_mse", "gap"]
    assert rows and all(len(row) == len(header) for row in rows)
    assert "note: clipping p to 4 (min of layer dim 8, output dim 4)" in captured.err


def test_diagnose_values_stay_within_their_bounds(tmp_path):
    # the svd chain at p=4 captures all the residual energy; rounding used to print
    # a fraction of 1.0000000000000004 and losses and a gap of about -5e-15
    bundle = _gen(tmp_path, "--kind", "shared-direction", "--sigmas", "1,2")
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--bundle", str(bundle), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert rows and header == ["basis", "p", "fraction", "relaxed_loss", "qp_mse", "gap"]
    for row in rows:
        fraction, relaxed, qp_mse, gap = map(float, row[2:])
        assert 0.0 <= fraction <= 1.0 and relaxed >= 0.0 and qp_mse >= 0.0, row
        assert gap >= 0.0, row  # a fixed downstream map: Ky Fan bounds the captured energy
    svd = [row for row in rows if row[0] == "svd"]
    assert svd[-1][1:] == ["4", "1.0", "0.0", "0.0", "0.0"]


def test_eval_accuracy_for_one_hot_targets(tmp_path, capsys):
    # classifier-style targets switch on the accuracy metric
    net = mq.LinearNetwork([np.eye(2)])
    bundle = mq.ModelBundle(
        base=net,
        residuals={1: [mq.ResidualUpdate(1, 0.1 * np.eye(2), task_id=0)]},
        calibration=[
            mq.CalibrationSet.for_task(
                0,
                np.array([[3.0, 1.0], [0.0, 2.0], [5.0, 0.0]]),
                np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
            )
        ],
        meta={},
    )
    bpath = tmp_path / "b.json"
    npath = tmp_path / "n.json"
    mq.save_bundle(bundle, bpath)
    mq.save_network(net, npath)
    rc = main(["eval", "--model", str(npath), "--bundle", str(bpath)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert np.isclose(metrics["accuracy"], 2 / 3)
    assert metrics["n_samples"] == 3


def test_compare_table_and_dominance(tmp_path):
    bundle = _gen(tmp_path)
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--bundle", str(bundle), "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["method", "layer", "objective", "mse",
                      "task_mse_0", "task_mse_1", "task_mse_2", "status"]
    methods = [r[0] for r in rows]
    assert methods[:2] == ["base", "soup"]
    assert "qp-diag" in methods
    assert any(m.startswith("qp-basis(eigen,") for m in methods)
    assert all(r[-1] == "ok" for r in rows)
    objectives = {r[0]: float(r[2]) for r in rows}
    qp_obj = objectives["qp-diag"]
    for name, val in objectives.items():
        if name == "qp-diag" or name.startswith("qp-basis") or name == "fisher":
            continue
        assert qp_obj <= val + 1e-8 * objectives["base"]


def test_compare_marks_failed_methods(tmp_path, capsys, monkeypatch):
    bundle = _gen(tmp_path)
    import mergeqp.cli as cli_mod

    real = cli_mod.baseline_delta

    def flaky(method, deltas, params=None):
        if method == "ties":
            raise ValueError("synthetic failure")
        return real(method, deltas, params)

    monkeypatch.setattr(cli_mod, "baseline_delta", flaky)
    rc = main(["compare", "--bundle", str(bundle)])
    assert rc == 1
    out = capsys.readouterr().out
    ties_row = [l for l in out.splitlines() if l.startswith("ties,")][0]
    assert ties_row.endswith(",failed")


def test_compare_dominance_slack_is_relative_on_small_objectives(tmp_path, capsys, monkeypatch):
    # inputs and targets scaled by 1e-4 scale every objective of this linear
    # bundle by 1e-8, so an absolute slack of 1e-8 would forgive the qp-diag
    # row below, which lands 1e-3 relative above soup's
    path = _gen(tmp_path)
    bundle = mq.load_bundle(path)
    for cs in bundle.calibration:
        cs.inputs *= 1e-4
        cs.targets *= 1e-4
    mq.save_bundle(bundle, path)
    import mergeqp.cli as cli_mod

    real = cli_mod.solve_layer

    def worse_than_soup(geometry, deltas, basis=None, solver=None):
        qp, coeffs, merged = real(geometry, deltas, basis, solver)
        if basis is not None:
            return qp, coeffs, merged
        soup = mq.baseline_delta("soup", deltas, {})
        J = [mq.linearized_delta_objective(geometry, t * soup) for t in (0.0, 1.0, 2.0)]
        # J(t) = a t^2 + b t + J(0) along t * soup; step to where it is 1.001 J(1)
        a = (J[2] - 2 * J[1] + J[0]) / 2
        b = J[1] - J[0] - a
        t = (-b + np.sqrt(b * b - 4 * a * (J[0] - 1.001 * J[1]))) / (2 * a)
        return qp, coeffs, t * soup

    monkeypatch.setattr(cli_mod, "solve_layer", worse_than_soup)
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--bundle", str(path), "--out", str(out)])
    _, rows = _read_csv(out)
    objectives = {r[0]: float(r[2]) for r in rows}
    assert objectives["base"] < 1e-5
    assert objectives["qp-diag"] / objectives["soup"] == pytest.approx(1.001, rel=1e-6)
    assert rc == 1
    assert "dominance violated: qp-diag objective" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    rc = main(["merge", "--bundle", str(tmp_path / "missing.json"), "--method", "soup"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--bundle", "x", "--method", "nope"])
    assert exc.value.code == 2
    path = tmp_path / "none.json"
    assert main(["gen", "--merge-layer", ",", "--out", str(path)]) == 2  # no merge layer
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--dims", "4,3"], "linear bundles take dims (input, hidden, output), got (4, 3)"),
    (["gen", "--dims", "8,6,5,4"],
     "linear bundles take dims (input, hidden, output), got (8, 6, 5, 4)"),
    (["merge", "--bundle", "{one}", "--method", "soup", "--layers", "9"],
     "no residual updates at layer(s) [9]; bundle has [1]"),
    (["diagnose", "--bundle", "{two}"], "bundle has updates at [1, 2]; pick one with --layer"),
    (["compare", "--bundle", "{two}"], "bundle has updates at [1, 2]; pick one with --layer"),
    (["compare", "--bundle", "{one}", "--layer", "9"],
     "no residual updates at layer 9; bundle has [1]"),
    (["diagnose", "--bundle", "{one}", "--p-max", "0"], "p range is empty"),
    (["compare", "--bundle", "{one}", "--p", "0"], "p=0 outside [1, 5]"),
])
def test_usage_errors_name_their_cause_and_write_nothing(tmp_path, capsys, argv, message):
    bundles = {"one": _gen(tmp_path, name="one.json"),
               "two": _gen(tmp_path, "--dims", "5,4,3", "--merge-layer", "1,2", name="two.json")}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([a.format(**bundles) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_eval_names_a_model_of_another_output_width(tmp_path, capsys):
    model, out = tmp_path / "model.json", tmp_path / "eval.json"
    narrow = _gen(tmp_path, "--dims", "8,6,4", name="narrow.json")
    assert main(["merge", "--bundle", str(narrow), "--method", "soup", "--out", str(model)]) == 0
    wide = _gen(tmp_path, "--dims", "8,6,5", name="wide.json")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--bundle", str(wide), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: targets have dim 5, network outputs 4\n")
    assert not out.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


@pytest.mark.parametrize(
    "flags",
    [
        ("--method", "ta", "--lambda", "nan"),
        ("--method", "ta", "--lambda", "1,inf,1"),
        ("--method", "ties", "--density", "inf"),
        ("--method", "qp-diag", "--lo=-inf"),
        ("--method", "qp-diag", "--hi", "inf"),
        ("--method", "dare", "--keep-prob", "nan"),
        ("--method", "dare", "--keep-prob", "abc"),
    ],
)
def test_non_finite_merge_flags_exit_two(tmp_path, flags):
    bundle = _gen(tmp_path)
    report = tmp_path / "r.json"
    rc = _exit_code(["merge", "--bundle", str(bundle), *flags, "--report", str(report)])
    assert rc == 2
    assert not report.exists()


def test_non_finite_compare_and_gen_flags_exit_two(tmp_path):
    bundle = _gen(tmp_path)
    out = tmp_path / "cmp.csv"
    assert _exit_code(["compare", "--bundle", str(bundle), "--lambda-grid", "0.5,nan",
                       "--out", str(out)]) == 2
    assert not out.exists()
    path = tmp_path / "noisy.json"
    assert _exit_code(["gen", "--noise", "nan", "--out", str(path)]) == 2
    assert _exit_code(["gen", "--kind", "shared-direction", "--sigmas", "1,inf",
                       "--out", str(path)]) == 2
    assert not path.exists()


def test_numerical_failure_exits_three(tmp_path):
    bundle = _gen(tmp_path, "--delta-scale", "1e200", name="huge.json")
    rc = main(["merge", "--bundle", str(bundle), "--method", "qp-diag"])
    assert rc == 3


def test_console_script_installed(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "mergeqp.cli", "--help"],
        capture_output=True, text=True,
    )
    # argparse help goes to stdout with exit 0
    assert out.returncode == 0
    assert "merge" in out.stdout


def _degenerate_bundle(tmp_path, kind):
    if kind == "merged-layer-overflow":  # finite updates, a finite model; W + delta overflows
        path = tmp_path / "overflow.json"
        mq.save_bundle(mq.ModelBundle(
            mq.LinearNetwork([[[1e308]], [[1.0]]]),
            {1: [mq.ResidualUpdate(1, [[1e308]], t) for t in (0, 1)]},
            [mq.CalibrationSet.for_task(t, [[1e-300]], [[0.0]]) for t in (0, 1)],
        ), path)
        return path
    if kind == "delta-scale-1e10":
        return _gen(tmp_path, "--delta-scale", "1e10")
    if kind == "one-task-one-sample":
        return _gen(tmp_path, "--tasks", "1", "--n-calib", "1")
    if kind == "relu-zero-input":
        path = _gen(tmp_path, "--kind", "relu", "--tasks", "2", "--n-calib", "5")
    else:
        path = _gen(tmp_path, "--tasks", "2" if kind == "identical-tasks" else "3")
    bundle = mq.load_bundle(path)
    for cs in bundle.calibration:
        if kind == "relu-zero-input":
            cs.inputs[...] = 0.0  # every pre-activation is exactly 0
        elif kind == "energy-overflow":
            cs.targets += 1e200  # S = B^T B overflows
        elif kind == "updates-1e160":
            cs.inputs *= 1e-160  # keeps the merged model's outputs in range
    for ups in bundle.residuals.values():
        if kind == "zero-updates":
            for u in ups:
                u.delta[...] = 0.0
        elif kind == "identical-tasks":
            ups[1].delta[...] = ups[0].delta  # H is exactly rank-deficient
        elif kind == "updates-1e160":
            for u in ups:
                u.delta *= 1e160  # squared norms of the updates overflow
    mq.save_bundle(bundle, path)
    return path


@pytest.mark.parametrize("kind, chain", [("zero-updates", "svd"), ("relu-zero-input", "eigen")])
def test_diagnose_names_an_empty_chain(tmp_path, capsys, kind, chain):
    path = _degenerate_bundle(tmp_path, kind)
    out = tmp_path / "diag.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["diagnose", "--bundle", str(path), "--random-seeds", "1", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("basis is empty") == 1
    assert f"note: the {chain} basis is empty; no {chain} rows" in err
    _, rows = _read_csv(out)
    assert rows and chain not in {row[0] for row in rows}


def test_compare_labels_the_eigen_row_with_the_directions_it_kept(tmp_path, capsys):
    # zero ReLU Jacobians empty the eigen pullback: its row is the zero update
    path = _degenerate_bundle(tmp_path, "relu-zero-input")
    bundle = mq.load_bundle(path)
    layer = bundle.layers_with_updates[0]
    p = min(bundle.residuals[layer][0].delta.shape[0], bundle.base.output_dim)
    out = tmp_path / "cmp.csv"
    capsys.readouterr()
    rc = main(["compare", "--bundle", str(path), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == f"note: the eigen basis spans 0 of {p} directions\n"
    _, rows = _read_csv(out)
    by_name = {row[0]: row for row in rows}
    assert [name for name in by_name if name.startswith("qp-basis")] == ["qp-basis(eigen,0)"]
    assert by_name["qp-basis(eigen,0)"][2:] == by_name["base"][2:]


def test_diagnose_notes_a_chain_shorter_than_p_max(tmp_path, capsys):
    # both tasks' updates are rank 1 along one shared direction u
    path = _gen(tmp_path, "--tasks", "2")
    bundle = mq.load_bundle(path)
    u = np.arange(1.0, 7.0)
    for k, up in enumerate(bundle.residuals[1]):
        up.delta[...] = np.outer(u, np.arange(8.0) - 3.0 * k)
    mq.save_bundle(bundle, path)
    out = tmp_path / "diag.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["diagnose", "--bundle", str(path), "--random-seeds", "1", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == "note: the svd basis spans 1 of 5 directions; no svd rows past p=1\n"
    _, rows = _read_csv(out)
    assert [row[1] for row in rows if row[0] == "svd"] == ["1"]
    assert [row[1] for row in rows if row[0] == "eigen"] == ["1", "2", "3", "4", "5"]


def test_merge_notes_a_rank_deficient_basis_without_a_warning(tmp_path, capsys):
    # zero updates at layer 2 only: its svd basis is empty, layer 1's is full
    path = _gen(tmp_path, "--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2")
    bundle = mq.load_bundle(path)
    for up in bundle.residuals[2]:
        up.delta[...] = 0.0
    mq.save_bundle(bundle, path)
    report = tmp_path / "report.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["merge", "--bundle", str(path), "--method", "qp-basis", "--basis", "svd",
                   "--format", "json", "--report", str(report)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == "note: the svd basis at layer 2 is rank-deficient: rank 0\n"
    layers = json.loads(report.read_text())["layers"]
    assert [sorted(layer) for layer in layers] == [
        ["basis", "coefficients", "fraction", "layer", "objective_after", "objective_before"]
    ] * 2


def _eigen_cut_optimum(qp):
    return mq.objective_value(qp, _eigen_cut(qp.H, qp.g)[0])


@pytest.mark.parametrize("kind", ["zero-updates", "identical-tasks", "delta-scale-1e10",
                                  "one-task-one-sample", "relu-zero-input"])
def test_degenerate_bundles_exit_cleanly_with_eigen_cut_objectives(tmp_path, kind, capsys):
    # exact solves reach the eigen cut's objective, box solves do no worse than
    # soup's 1/K; an empty basis (zero updates for svd, zero ReLU Jacobians for
    # eigen) leaves a QP without coefficients whose one point is the zero update
    path = _degenerate_bundle(tmp_path, kind)
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    deltas = bundle.residuals[layer]
    geometry = mq.merge_geometry(bundle.base, layer, calib)
    p_max = min(deltas[0].delta.shape[0], bundle.base.output_dim)

    # objectives sum terms as large as the base objective (the QP's constant),
    # so an optimum near 0, as one sample allows, carries rounding of that scale
    def check(got, qp):
        want = _eigen_cut_optimum(qp)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-13 * qp.constant

    def basis_qp(kind, p=None, seed=0):
        basis = mq.layer_basis(kind, p_max, seed, deltas, geometry)
        basis = basis if p is None else basis.prefix(p)
        return mq.build_general_basis_qp(geometry, deltas, basis)

    diag_qp = mq.build_diagonal_qp(geometry, deltas)
    for basis, solver in itertools.product((None, "eigen", "svd"), ("exact", "box")):
        flags = ["qp-diag"] if basis is None else ["qp-basis", "--basis", basis]
        report = tmp_path / "merge.json"
        rc = main(["merge", "--bundle", str(path), "--method", *flags, "--solver", solver,
                   "--format", "json", "--report", str(report)])
        assert rc in (0, 3)
        if rc == 0:
            got = json.loads(report.read_text())["layers"][0]["objective_after"]
            qp = diag_qp if basis is None else basis_qp(basis)
            if solver == "exact":
                check(got, qp)
            else:
                soup = mq.objective_value(qp, np.full(qp.dim, 1.0 / qp.n_tasks))
                assert got <= soup + 1e-12 * abs(soup) + 1e-13 * qp.constant
    for method in BASELINES:
        assert main(["merge", "--bundle", str(path), "--method", method]) in (0, 3)
    rc = main(["compare", "--bundle", str(path), "--out", str(tmp_path / "cmp.csv")])
    assert rc in (0, 3)
    if rc == 0:
        _, rows = _read_csv(tmp_path / "cmp.csv")
        objectives = {r[0]: float(r[2]) for r in rows}
        check(objectives["qp-diag"], diag_qp)
        k = mq.layer_basis("eigen", p_max, 0, deltas, geometry).p
        check(objectives[f"qp-basis(eigen,{k})"], basis_qp("eigen"))
    rc = main(["diagnose", "--bundle", str(path), "--random-seeds", "2",
               "--out", str(tmp_path / "diag.csv")])
    assert rc in (0, 3)
    if rc == 0:
        _, rows = _read_csv(tmp_path / "diag.csv")
        assert rows
        for label, p, _, _, qp_mse, _ in rows:
            seed = int(label[7:-1]) if label.startswith("random(") else 0
            qp = basis_qp(label.split("(")[0], int(p), seed)
            check(float(qp_mse) * len(calib), qp)
    assert "Traceback" not in capsys.readouterr().err


def _stacked_least_squares(geometry, deltas, Q):
    """min_d sum_j ||A_j d + b_j||^2 over directions Q, by lstsq on the stacked design.

    Column (k, p) of A_j is (L_j q_p)(q_p^T delta_k u_j) and b_j the base residual.
    """
    U, LQ = geometry.hidden_inputs, geometry.downstream @ Q
    alpha = np.einsum("rp,krm,nm->nkp", Q, np.stack([u.delta for u in deltas]), U)
    A = np.broadcast_to(LQ, (len(U), *LQ.shape[-2:]))[:, :, None, :] * alpha[:, None]
    A, b = A.reshape(-1, alpha.shape[1] * Q.shape[1]), geometry.residuals.ravel()
    res = A @ np.linalg.lstsq(A, -b, rcond=None)[0] + b
    return float(res @ res)


def test_diagnose_rows_of_a_singular_bundle_are_least_squares_optima(tmp_path):
    # one sample per task leaves every chain's H singular.  Each row's n qp_mse must be within
    # 5e-11 of the total of a least-squares solve on the stacked design; per-prefix eigen cuts
    # put the standard chain's rows 6.8e-3 of it too high and the random chain's 1.6e-10 low
    path = _gen(tmp_path, "--kind", "relu", "--dims", "6,3,5,6", "--merge-layer", "3",
                "--tasks", "4", "--n-calib", "1", "--seed", "599031595")
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--bundle", str(path), "--seed", "599031595", "--random-seeds", "1",
                 "--out", str(out)]) == 0
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    deltas = bundle.residuals[3]
    geometry = mq.merge_geometry(bundle.base, 3, calib)
    total = float(np.sum(geometry.residuals**2))
    rows = _read_csv(out)[1]
    assert [row[0] for row in rows[::6]] == ["eigen", "standard", "svd", "random(599031595)"]
    for label, p, _, _, qp_mse, _ in rows:
        chain = mq.layer_basis(label.split("(")[0], None, 599031595, deltas, geometry)
        want = _stacked_least_squares(geometry, deltas, chain.prefix(int(p)).columns)
        assert abs(len(calib) * float(qp_mse) - want) <= 5e-11 * total, (label, p)


EXTREME_MERGES = [["--method", m] for m in BASELINES] + [
    ["--method", "qp-diag", "--mode", "hybrid", "--init-method", "soup"],
    ["--method", "qp-diag"],
    ["--method", "qp-basis", "--basis", "eigen"],
    ["--method", "qp-basis", "--basis", "svd"],
]


@pytest.mark.parametrize("kind, exit_codes", [
    # soup, ta, ties, fisher and hybrid refinement from soup overflow; a DARE draw and the
    # QP solves pick updates whose merged layer stays finite
    ("merged-layer-overflow", {"merge": [3, 3, 0, 3, 3, 3, 0, 0, 0], "compare": 3, "diagnose": 0}),
    ("energy-overflow", {"merge": [3] * 9, "compare": 3, "diagnose": 3}),
    ("updates-1e160", {"merge": [0] * 9, "compare": 0, "diagnose": 0}),
])
def test_extreme_scale_bundles_exit_three_or_keep_every_direction(tmp_path, capsys, kind,
                                                                    exit_codes):
    # every command either fails loudly, exit 3 and no report, or succeeds with a full basis
    path = _degenerate_bundle(tmp_path, kind)
    bundle = mq.load_bundle(path)
    p_max = min(bundle.residuals[1][0].delta.shape[0], bundle.base.output_dim)
    capsys.readouterr()
    for flags, want in zip(EXTREME_MERGES, exit_codes["merge"]):
        report, model = tmp_path / "merge.json", tmp_path / "merged.json"
        with warnings.catch_warnings(record=True) as caught:  # the CLI prints them on stderr
            warnings.simplefilter("always")
            rc = main(["merge", "--bundle", str(path), *flags, "--out", str(model),
                       "--format", "json", "--report", str(report)])
        assert rc == want, flags
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], flags
        if rc == 3:
            assert not report.exists() and not model.exists()
            continue
        if flags[1] == "qp-basis":
            assert np.shape(json.loads(report.read_text())["layers"][0]["coefficients"]) == (
                len(bundle.task_ids), p_max)
        report.unlink()
        model.unlink()
    err = capsys.readouterr().err
    assert "rank-deficient" not in err and "Traceback" not in err
    if kind == "merged-layer-overflow":
        assert "numerical failure: merged layer 1 contains non-finite weights" in err
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--bundle", str(path), "--out", str(out)]) == exit_codes["compare"]
    if exit_codes["compare"] == 3:
        assert not out.exists()
    else:
        assert all(row[-1] == "ok" for row in _read_csv(out)[1])
    if kind == "merged-layer-overflow":  # the row that overflowed, not a "failed" row
        assert capsys.readouterr().err == (
            "numerical failure: soup: merged layer 1 contains non-finite weights\n")
    out = tmp_path / "diag.csv"
    rc = main(["diagnose", "--bundle", str(path), "--random-seeds", "1", "--out", str(out)])
    assert rc == exit_codes["diagnose"]
    if rc == 3:
        assert not out.exists()
    else:
        rows = _read_csv(out)[1]
        for chain in ("eigen", "standard", "svd", "random(0)"):
            assert [int(row[1]) for row in rows if row[0] == chain] == list(range(1, p_max + 1))


# A deep-tall-shaped linear bundle with 80 samples: at layer 2, r_in + c = 20,
# so merge_geometry keeps the 20 rows of R from a thin QR of [U | B].
DEEP_SMALL = ("--dims", "16,12,8", "--n-layers", "4", "--merge-layer", "1,2,3",
              "--tasks", "4", "--n-calib", "20")


def _per_sample_geometry(bundle, layer, calib):
    """The geometry with one row per sample, straight from the network functions."""
    X = calib.inputs
    return mq.MergeGeometry(layer, mq.layer_input(bundle.base, layer, X),
                            mq.linearize_downstream(bundle.base, layer, X),
                            mq.forward(bundle.base, X) - calib.targets, len(calib))


def test_diagnose_qp_mse_on_the_second_moment_geometry_is_per_sample(tmp_path):
    path = _gen(tmp_path, *DEEP_SMALL)
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    deltas = bundle.residuals[2]
    geometry = mq.merge_geometry(bundle.base, 2, calib)
    assert (len(geometry.residuals), geometry.n_samples) == (20, 80)
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--bundle", str(path), "--layer", "2", "--random-seeds", "1",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    per_sample = _per_sample_geometry(bundle, 2, calib)
    want = []
    for kind, seed in (("eigen", 0), ("standard", 0), ("svd", 0), ("random", 0)):
        chain = mq.layer_basis(kind, 8, seed, deltas, geometry)
        want += [row[3] for row in mq.prefix_sweep(per_sample, deltas, chain)]
    got = [float(row[4]) for row in rows]
    assert len(got) == len(want) == 32
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_compare_fisher_row_on_the_second_moment_geometry_is_per_sample(tmp_path):
    path = _gen(tmp_path, *DEEP_SMALL)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--bundle", str(path), "--layer", "2", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert "fisher" in [row[0] for row in rows]
    assert [row[-1] for row in rows] == ["ok"] * len(rows)
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    fishers = mq.fisher_diagonals(bundle.base, calib, bundle.task_ids, [2])[2]
    for task, fisher in zip(bundle.task_ids, fishers):
        total = np.zeros(bundle.base.layer_shape(2))
        for x, y, label in zip(calib.inputs, calib.targets, calib.task_ids):
            if label == task:
                b = mq.forward(bundle.base, x) - y
                L = mq.linearize_downstream(bundle.base, 2, x)
                grad = 2.0 * np.outer(L.T @ b, mq.layer_input(bundle.base, 2, x))
                total += grad * grad
        assert np.abs(fisher - total).max() <= 1e-12 * np.abs(total).max()


def test_hybrid_fisher_merge_runs_on_the_second_moment_geometry(tmp_path):
    path = _gen(tmp_path, *DEEP_SMALL)
    assert main(["merge", "--bundle", str(path), "--method", "qp-diag", "--mode", "hybrid",
                 "--init-method", "fisher"]) == 0
