"""Tests of the benchmark itself, on miniature workloads with the same commands.

    python -m pytest perfbench
"""

import csv
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

MINI_LINEAR = harness.Workload(
    "mini-linear",
    ("--kind", "linear", "--dims", "8,6,5", "--n-layers", "3", "--merge-layer", "1,2",
     "--tasks", "3", "--n-calib", "20", "--noise", "0.05"),
    (
        harness._merge("--method", "qp-diag", "--out", "{out}/merged.json", report="merge1.json"),
        harness._merge("--method", "qp-diag", "--mode", "hybrid", "--init-method", "fisher",
                       report="merge2.json"),
        harness._merge("--method", "ties", report="merge3.json"),
        ("eval", "--model", "{out}/merged.json", "--bundle", "{bundle}", "--out", "{out}/eval.json"),
        ("compare", "--bundle", "{bundle}", "--layer", "2", "--out", "{out}/compare.csv"),
        ("diagnose", "--bundle", "{bundle}", "--layer", "1", "--p-max", "3", "--random-seeds", "1",
         "--out", "{out}/diagnose.csv"),
    ),
)

MINI_RELU = harness.Workload(
    "mini-relu",
    ("--kind", "relu", "--dims", "16,12,8,4", "--merge-layer", "2", "--tasks", "2",
     "--n-calib", "30"),
    (
        ("diagnose", "--bundle", "{bundle}", "--random-seeds", "1", "--out", "{out}/diagnose.csv"),
        harness._merge("--method", "qp-basis", "--basis", "eigen", report="merge1.json"),
        ("compare", "--bundle", "{bundle}", "--out", "{out}/compare.csv"),
    ),
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_pattern_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [name for name, _ in harness.END_TO_END + harness.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", [MINI_LINEAR, MINI_RELU], ids=lambda w: w.name)
def test_span_wrapper_keeps_outputs_and_restores_names(tmp_path, workload):
    before = spans.SpanRecorder().bindings()
    record = harness.run_workload(ROOT, workload, 0, 0, 1, tmp_path)
    after = spans.SpanRecorder().bindings()
    assert record["correct"], record["problems"]
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    # the traced job wrote the same bytes as the untraced one
    names = sorted(p.name for p in (tmp_path / "job").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "traced" / "job").iterdir())
    assert all(
        (tmp_path / "job" / n).read_bytes() == (tmp_path / "traced" / "job" / n).read_bytes()
        for n in names
    )
    metrics = record["metrics"]
    assert set(metrics) == {name for name, _ in harness.PER_LAYER}
    assert metrics["networks.forward_calls"]["value"] > 0
    assert metrics["qp.max_dim"]["value"] > 0
    with open(tmp_path / "spans.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    layers = {row["function"].split(".")[0] for row in rows}
    assert {"bundles", "networks", "qp", "cli", "multilayer"} <= layers
    assert all(int(row["parent"]) < int(row["span"]) for row in rows)


def test_recorder_rebinds_every_reference_and_restores_it():
    recorder = spans.SpanRecorder()
    qp = recorder.modules["qp"]
    original = qp.calibration_mse
    holders = [m for m in (recorder.package, *recorder.modules.values())
               if getattr(m, "calibration_mse", None) is original]
    assert len(holders) > 1  # defined in qp, imported elsewhere
    with recorder:
        assert all(m.calibration_mse is not original for m in holders)
        assert len({id(m.calibration_mse) for m in holders}) == 1
    assert all(m.calibration_mse is original for m in holders)


@pytest.mark.parametrize("workload", [MINI_LINEAR, MINI_RELU], ids=lambda w: w.name)
def test_two_seeds_give_same_metric_names_and_pass_checks(tmp_path, workload):
    records = [
        harness.run_workload(ROOT, workload, seed, 0, 0, tmp_path / str(seed)) for seed in (0, 1)
    ]
    for record in records:
        assert record["correct"], record["problems"]
        assert record["failed"] == 0 and record["attempted"] > 0
        assert set(record["metrics"]) == {name for name, _ in harness.END_TO_END}
        assert all(m["value"] > 0 for m in record["metrics"].values())
    assert records[0]["metrics"].keys() == records[1]["metrics"].keys()


def test_checks_catch_wrong_outputs(tmp_path):
    record = harness.run_workload(ROOT, MINI_LINEAR, 0, 0, 0, tmp_path)
    assert record["correct"], record["problems"]
    job = tmp_path / "job"
    bundle = harness.load_bundle(tmp_path / "bundle.json")
    exact, truncated = checks.least_squares_reference(bundle, 2, harness.SOLVER_RANK_CUTOFF)
    energy = checks.total_energy(bundle)
    assert checks.check_compare(job / "compare.csv", {"qp-diag": (exact, truncated)}) == []
    for wrong in (exact * (1 + 1e-6), exact * (1 - 1e-6)):
        assert checks.check_compare(job / "compare.csv", {"qp-diag": (wrong, wrong)}) != []
    assert checks.check_diagnose(job / "diagnose.csv", 4, 3, energy, True) == []
    assert checks.check_diagnose(job / "diagnose.csv", 5, 3, energy, True) != []
    report = checks.merge_report(job / "merge1.json")
    assert checks.check_box_coefficients(report, 0.0, 1.0) == []
    assert checks.check_box_coefficients(report, 0.0, 1e-9) != []
    assert checks.check_eval(job / "eval.json", report["final_mse"]) == []
    assert checks.check_eval(job / "eval.json", report["final_mse"] * 1.001) != []
