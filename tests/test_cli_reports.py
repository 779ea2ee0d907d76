"""Pinned report contents for every merge method, compare, diagnose and eval.

The fixtures in tests/data/cli_reports/ hold each command's exit code and
report on three small generated bundles.  Text fields must match exactly and
numbers within 1e-9 relative with a 1e-12 absolute floor, so the pins hold
on another BLAS.  After a change that is meant to alter results, regenerate
the fixtures of the bundles it moves with
``PYTHONPATH=src python tests/test_cli_reports.py BUNDLE...`` (names from
BUNDLES; none rewrites every fixture).
"""

import csv
import json
import math
import pathlib
import sys
import tempfile

import pytest

from mergeqp.cli import BASELINES, main

FIXTURES = pathlib.Path(__file__).parent / "data" / "cli_reports"
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

BUNDLES = {
    "linear": ("--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2", "--seed", "0"),
    "relu": ("--kind", "relu", "--tasks", "2", "--n-calib", "10", "--seed", "0"),
    # merged below two ReLU gaps: every QP takes the per-sample Jacobian build
    "relu-two-gap": ("--kind", "relu", "--merge-layer", "1", "--tasks", "2", "--n-calib", "10",
                     "--seed", "0"),
}
# --layer values for compare and diagnose; None leaves the flag out
SINGLE_LAYERS = {"linear": (1, 2), "relu": (None,), "relu-two-gap": (None,)}

MERGES = (
    *(("--method", m) for m in BASELINES),
    ("--method", "ta", "--lambda", "0.5,1.5"),
    *(("--method", "qp-diag", "--solver", s) for s in ("box", "exact")),
    *(
        ("--method", "qp-basis", "--basis", b, "--solver", s)
        for b in ("eigen", "standard", "svd", "random")
        for s in ("box", "exact")
    ),
    *(("--method", "qp-diag", "--mode", "hybrid", "--init-method", m) for m in BASELINES),
)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path):
    with open(path, newline="") as fh:
        return [[_cell(v) for v in row] for row in csv.reader(fh)]


def _commands(kind):
    """(label, argv, report parser) for each pinned command; None parses CSV."""
    for flags in MERGES:
        yield "merge " + " ".join(flags), [
            "merge", *flags, "--format", "json", "--report", "{out}",
        ], json.loads
    yield "eval", ["eval", "--model", "{model}", "--out", "{out}"], json.loads
    for layer in SINGLE_LAYERS[kind]:
        flags = () if layer is None else ("--layer", str(layer))
        yield " ".join(("compare", *flags)), ["compare", *flags, "--out", "{out}"], None
        yield " ".join(("diagnose", *flags)), [
            "diagnose", *flags, "--random-seeds", "2", "--out", "{out}",
        ], None


def _run_all(kind, workdir):
    """Generate the bundle and run every pinned command: label -> {exit, report}."""
    workdir = pathlib.Path(workdir)
    bundle = workdir / f"{kind}.json"
    model = workdir / f"{kind}-model.json"
    assert main(["gen", "--out", str(bundle), *BUNDLES[kind]]) == 0
    assert main(["merge", "--bundle", str(bundle), "--method", "qp-diag", "--out", str(model)]) == 0
    results = {}
    for i, (label, argv, parse) in enumerate(_commands(kind)):
        out = workdir / f"{kind}-{i}.out"
        argv = [a.format(out=out, model=model) for a in argv]
        rc = main([argv[0], "--bundle", str(bundle), *argv[1:]])
        report = None
        if out.exists():
            report = parse(out.read_text()) if parse else _read_csv(out)
        results[label] = {"exit": rc, "report": report}
    return results


def _assert_matches(actual, expected, where):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), where
        assert math.isfinite(actual) == math.isfinite(expected), (where, actual, expected)
        assert abs(actual - expected) <= max(REL_TOL * abs(expected), ABS_FLOOR), (
            where, actual, expected,
        )
    else:
        assert actual == expected, (where, actual, expected)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {kind: _run_all(kind, tmp_path_factory.mktemp(kind)) for kind in BUNDLES}


@pytest.mark.parametrize(
    "kind,label",
    [(kind, label) for kind in BUNDLES for label, _, _ in _commands(kind)],
)
def test_report_matches_fixture(outputs, kind, label):
    expected = json.loads((FIXTURES / f"{kind}.json").read_text())
    assert label in expected, f"no fixture for {kind}: {label}"
    _assert_matches(outputs[kind][label], expected[label], f"{kind}: {label}")


def test_fixtures_pin_every_command():
    for kind in BUNDLES:
        expected = json.loads((FIXTURES / f"{kind}.json").read_text())
        assert sorted(expected) == sorted(label for label, _, _ in _commands(kind))


if __name__ == "__main__":
    kinds = sys.argv[1:] or list(BUNDLES)
    if not set(kinds) <= set(BUNDLES):
        sys.exit(f"unknown bundle {sorted(set(kinds) - set(BUNDLES))}; choose from {list(BUNDLES)}")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kind in kinds:
            results = _run_all(kind, tmp)
            with open(FIXTURES / f"{kind}.json", "w") as fh:
                json.dump(results, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {FIXTURES / kind}.json: {len(results)} commands", file=sys.stderr)
