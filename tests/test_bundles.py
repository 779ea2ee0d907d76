"""Serialization round trips, format validation, and synthetic generators."""

import base64
import json
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mergeqp as mq
from mergeqp import bundles as bn
from mergeqp.cli import main as cli_main

from conftest import same_bits

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_bundle.json"


def _tiny_bundle():
    return mq.ModelBundle(
        base=mq.LinearNetwork([np.array([[2.0, 0.0], [0.0, 3.0]])]),
        residuals={1: [mq.ResidualUpdate(1, np.array([[0.5, 0.0], [0.0, 0.5]]), task_id=0)]},
        calibration=[
            mq.CalibrationSet.for_task(0, np.array([[1.0, 1.0]]), np.array([[3.0, 4.0]]))
        ],
        meta={"note": "x"},
    )


def test_round_trip_preserves_every_bit(tmp_path):
    path = tmp_path / "b.json"
    for seed in range(5):
        bundle = mq.gen_linear_tasks(seed=seed, noise=0.1)
        mq.save_bundle(bundle, path)
        loaded = mq.load_bundle(path)
        for W0, W1 in zip(bundle.base.layers, loaded.base.layers):
            assert same_bits(W0, W1)
        for layer in bundle.residuals:
            for u0, u1 in zip(bundle.residuals[layer], loaded.residuals[layer]):
                assert same_bits(u0.delta, u1.delta)
                assert u0.task_id == u1.task_id
        for c0, c1 in zip(bundle.calibration, loaded.calibration):
            assert same_bits(c0.inputs, c1.inputs)
            assert same_bits(c0.targets, c1.targets)
        assert loaded.meta == bundle.meta


def test_save_is_deterministic(tmp_path):
    bundle = mq.gen_linear_tasks(seed=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    mq.save_bundle(bundle, p1)
    mq.save_bundle(mq.load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_golden_fixture_loads_exactly():
    bundle = mq.load_bundle(GOLDEN)
    assert np.array_equal(bundle.base.layers[0], [[2.0, 0.0], [0.0, 3.0]])
    delta = bundle.residuals[1][0].delta
    assert np.array_equal(delta, [[0.5, 0.0], [0.0, 0.5]])
    calib = bundle.pooled_calibration()
    qp = mq.build_diagonal_qp(mq.merge_geometry(bundle.base, 1, calib), bundle.residuals[1])
    sol = mq.solve_unconstrained(qp)
    # doubling the update hits the target exactly
    assert np.allclose(sol.flat, [2.0, 2.0], atol=1e-12)
    assert abs(mq.objective_value(qp, sol)) < 1e-20


def test_golden_fixture_round_trip(tmp_path):
    bundle = mq.load_bundle(GOLDEN)
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    mq.save_bundle(bundle, p1)
    mq.save_bundle(mq.load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    # saving the version-1 fixture converts it to the version-3 layout
    assert p1.read_bytes() == _v3_file(*_v3_parts(bundle))
    _assert_same_bits(bundle, mq.load_bundle(p1))


def _mutated(mutate):
    obj = _v1_obj(_tiny_bundle())
    mutate(obj)
    return obj


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda o: o.pop("version"), "$: missing field 'version'"),
        (lambda o: o.update(version=99), "$.version"),
        # a JSON header without the magic: version 1 only
        (lambda o: o.update(version=2), "$.version: unsupported version 2"),
        (lambda o: o.update(version=3), "$.version: unsupported version 3, expected 1"),
        (lambda o: o.pop("base"), "$: missing field 'base'"),
        (lambda o: o["residuals"][0].update(layer=5), "$.residuals[0].layer"),
        (lambda o: o["residuals"][0].update(data=[1.0]), "$.residuals[0].data"),
        (lambda o: o["calibration"][0].update(inputs=[[1.0, 2.0, 3.0]]), "$.calibration[0].inputs"),
        (lambda o: o["calibration"][0].update(targets=[[1.0, 2.0], [3.0, 4.0]]), "$.calibration[0]"),
        (lambda o: o.update(meta=[1, 2]), "$.meta"),
        (lambda o: o["base"]["layers"][0].update(data="xx"), "$.base.layers[0].data"),
    ],
)
def test_malformed_bundles_name_the_json_path(mutate, needle):
    with pytest.raises(mq.BundleFormatError) as err:
        bn.bundle_from_obj(_mutated(mutate))
    assert needle in str(err.value)


def test_load_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(mq.BundleFormatError):
        mq.load_bundle(path)


def test_network_file_round_trip(tmp_path):
    net = mq.LinearNetwork([np.array([[1.5, -2.0], [0.25, 8.0]])])
    path = tmp_path / "net.json"
    mq.save_network(net, path)
    again = mq.load_network(path)
    assert np.array_equal(net.layers[0], again.layers[0])
    with pytest.raises(mq.BundleFormatError):
        mq.load_bundle(path)  # a network file is not a bundle


def test_gen_linear_tasks_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    mq.save_bundle(mq.gen_linear_tasks(seed=12), a)
    mq.save_bundle(mq.gen_linear_tasks(seed=12), b)
    assert a.read_bytes() == b.read_bytes()
    assert not np.array_equal(
        mq.gen_linear_tasks(seed=12).residuals[1][0].delta,
        mq.gen_linear_tasks(seed=13).residuals[1][0].delta,
    )


def test_gen_linear_targets_come_from_per_task_models():
    bundle = mq.gen_linear_tasks(seed=2, noise=0.0)
    layer = bundle.layers_with_updates[0]
    for k, calib in enumerate(bundle.calibration):
        task_net = mq.apply_merged_residual(
            bundle.base, layer, bundle.residuals[layer][k].delta
        )
        for j in range(len(calib)):
            assert np.allclose(
                mq.forward(task_net, calib.inputs[j]), calib.targets[j], atol=1e-12
            )


def test_gen_linear_multi_layer_updates():
    bundle = mq.gen_linear_tasks(
        dims=(5, 4, 3), n_layers=2, merge_layer=(1, 2), n_tasks=2, seed=0
    )
    assert bundle.layers_with_updates == [1, 2]
    # targets reflect updates applied at every merge layer together
    net = bundle.base
    for layer in (1, 2):
        net = mq.apply_merged_residual(net, layer, bundle.residuals[layer][0].delta)
    calib = bundle.calibration[0]
    assert np.allclose(mq.forward(net, calib.inputs[0]), calib.targets[0], atol=1e-12)
    for bad in ((1, 3), 0):
        with pytest.raises(ValueError, match=r"outside \[1, 2\]"):
            mq.gen_linear_tasks(dims=(5, 4, 3), n_layers=2, merge_layer=bad)


@pytest.mark.parametrize("dims", [(8, 6), (8, 6, 5, 4)])
def test_gen_linear_tasks_takes_three_dims(dims):
    with pytest.raises(ValueError, match=re.escape(f"dims (input, hidden, output), got {dims}")):
        mq.gen_linear_tasks(dims=dims)


def test_gen_linear_delta_scale():
    small = mq.gen_linear_tasks(seed=1, delta_scale=0.01).residuals[1][0].delta
    large = mq.gen_linear_tasks(seed=1, delta_scale=1.0).residuals[1][0].delta
    assert np.allclose(large * 0.01, small, atol=1e-15)


def test_shared_direction_instance_structure(tmp_path):
    bundle = mq.gen_shared_direction_instance(sigmas=(1.0, 2.0), seed=5)
    mq.validate_shared_direction_bundle(bundle)
    recipe = {"r": 4, "c": 6, "input_dim": 5, "n_samples": 12, "target_task": 0,
              "orth_scale": 0.1, "seed": 5}
    assert {k: bundle.meta[k] for k in recipe} == recipe
    assert [W.shape for W in bundle.base.layers] == [(4, 5), (6, 4)]
    mq.save_bundle(bundle, tmp_path / "sd.json")
    loaded = mq.load_bundle(tmp_path / "sd.json")
    assert loaded.meta == bundle.meta
    mq.validate_shared_direction_bundle(loaded)
    u = np.asarray(bundle.meta["u"])
    v = np.asarray(bundle.meta["v"])
    sig = bundle.meta["sigmas"]
    layer = bundle.layers_with_updates[0]
    for k, up in enumerate(bundle.residuals[layer]):
        shared = sig[k] * np.outer(u, v)
        rest = up.delta - shared
        assert np.max(np.abs(u @ rest)) < 1e-10  # remainder lives off the shared row space
    with pytest.raises(ValueError):
        mq.gen_shared_direction_instance(sigmas=(), seed=0)


def test_gen_relu_tasks_shapes_and_determinism():
    b1 = mq.gen_relu_tasks(seed=0)
    b2 = mq.gen_relu_tasks(seed=0)
    assert b1.base.depth == 3
    assert b1.base.activations == ["relu", "relu"]
    assert b1.layers_with_updates == [2]
    assert len(b1.residuals[2]) == 2
    assert same_bits(b1.residuals[2][0].delta, b2.residuals[2][0].delta)
    recipe = {"n_train": 60, "train_steps": 25, "learning_rate": 0.05, "input_noise": 0.3}
    assert {k: b1.meta[k] for k in recipe} == recipe
    calib = b1.pooled_calibration()
    assert calib.inputs.shape[1] == b1.base.input_dim
    assert calib.targets.shape[1] == b1.base.output_dim


def _finetune_layer_full_forward(net, layer_index, X, T, steps, lr):
    """The ReLU trainer as it was first written: every step runs the whole forward pass."""
    layers = [W.copy() for W in net.layers]
    M = len(layers)
    for _ in range(steps):
        acts, pre = [X], []
        for l in range(M):
            pre.append(acts[-1] @ layers[l].T)
            relu = l < M - 1 and net.activations[l] == "relu"
            acts.append(np.maximum(pre[-1], 0.0) if relu else pre[-1])
        G = 2.0 * (acts[-1] - T) / len(X)
        for l in range(M - 1, layer_index - 1, -1):
            G = G @ layers[l]
            if net.activations[l - 1] == "relu":
                G = G * (pre[l - 1] > 0.0)
        grad = G.T @ acts[layer_index - 1]
        layers[layer_index - 1] -= lr * grad
    return mq.LinearNetwork(layers, list(net.activations))


@settings(deadline=None, max_examples=60)
@given(
    dims=st.lists(st.integers(1, 9), min_size=3, max_size=6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_relu_trainer_matches_the_full_forward_loop_bit_for_bit(dims, data, seed):
    # 2-5 layers, any one trainable: the frozen layers below it are evaluated once, so
    # every update, weight and target must keep the per-step loop's bits
    merge_layer = data.draw(st.integers(1, len(dims) - 1), label="merge_layer")
    n_tasks = data.draw(st.integers(1, min(4, dims[-1])), label="n_tasks")
    args = dict(dims=dims, merge_layer=merge_layer, n_tasks=n_tasks, n_samples=3, seed=seed)
    got = mq.gen_relu_tasks(**args)
    with mock.patch.object(bn, "_finetune_layer", _finetune_layer_full_forward):
        want = mq.gen_relu_tasks(**args)
    _assert_same_bits(got, want)
    assert got.meta == want.meta


def test_gen_relu_finetuning_reduces_task_loss():
    bundle = mq.gen_relu_tasks(seed=1)
    layer = bundle.layers_with_updates[0]
    for k, calib in enumerate(bundle.calibration):
        task_net = mq.apply_merged_residual(
            bundle.base, layer, bundle.residuals[layer][k].delta
        )
        base_err = task_err = 0.0
        for j in range(len(calib)):
            base_err += float(np.sum((mq.forward(bundle.base, calib.inputs[j]) - calib.targets[j]) ** 2))
            task_err += float(np.sum((mq.forward(task_net, calib.inputs[j]) - calib.targets[j]) ** 2))
        assert task_err < base_err


def test_bundle_validation_catches_shape_mismatch():
    net = mq.LinearNetwork([np.eye(2)])
    with pytest.raises(ValueError):
        mq.ModelBundle(
            base=net,
            residuals={1: [mq.ResidualUpdate(1, np.ones((3, 3)), task_id=0)]},
            calibration=[],
            meta={},
        )


def test_pooled_calibration_concatenates_in_task_order():
    bundle = mq.gen_linear_tasks(n_tasks=3, seed=0)
    pooled = bundle.pooled_calibration()
    sizes = [len(c) for c in bundle.calibration]
    assert len(pooled) == sum(sizes)
    assert list(pooled.task_ids[: sizes[0]]) == [0] * sizes[0]
    # storage order does not matter; a set of a task without updates goes last
    extra = mq.CalibrationSet.for_task(7, pooled.inputs[:2], pooled.targets[:2])
    stored = [bundle.calibration[2], extra, *bundle.calibration[1::-1]]
    moved = mq.ModelBundle(bundle.base, bundle.residuals, stored).pooled_calibration()
    assert np.array_equal(moved.inputs[:-2], pooled.inputs)
    assert np.array_equal(moved.targets[:-2], pooled.targets)
    assert moved.task_ids == pooled.task_ids + [7, 7]


# --- file formats: v3 raw float64 data section, v1 number lists ---------------

_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)
_EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072009e-308, -0.0, 0.0,
                1.7976931348623157e308, -1.7976931348623157e308]


def _arrays(bundle):
    """Every float array of a bundle, in file order."""
    out = list(bundle.base.layers)
    for layer in sorted(bundle.residuals):
        out.extend(u.delta for u in bundle.residuals[layer])
    for cs in bundle.calibration:
        out.extend((cs.inputs, cs.targets))
    return out


def _assert_same_bits(a, b):
    arrs_a, arrs_b = _arrays(a), _arrays(b)
    assert len(arrs_a) == len(arrs_b)
    for x, y in zip(arrs_a, arrs_b):
        assert same_bits(x, y)


def _v1_obj(bundle):
    """The bundle as the version-1 writer stored it: JSON number lists."""
    flat = lambda m: [float(v) for v in m.ravel()]
    rows = lambda m: [[float(v) for v in row] for row in m]
    return {
        "version": 1,
        "base": {
            "layers": [
                {"rows": W.shape[0], "cols": W.shape[1], "data": flat(W)}
                for W in bundle.base.layers
            ],
            "activations": list(bundle.base.activations),
        },
        "residuals": [
            {"layer": layer, "task": u.task_id, "data": flat(u.delta)}
            for layer in sorted(bundle.residuals)
            for u in bundle.residuals[layer]
        ],
        "calibration": [
            {"task": cs.task_ids[0], "inputs": rows(cs.inputs), "targets": rows(cs.targets)}
            for cs in bundle.calibration
        ],
        "meta": bundle.meta,
    }


def _array_slots(obj):
    """(entry, key) of every float array of a bundle object, in file order."""
    slots = [(entry, "data") for entry in obj["base"]["layers"] + obj["residuals"]]
    return slots + [(entry, key) for entry in obj["calibration"] for key in ("inputs", "targets")]


def _le_bytes(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _v3_parts(bundle):
    """The version-3 header object and data section of a bundle, built from the layout."""
    obj, data = dict(_v1_obj(bundle), version=3), b""
    for (entry, key), arr in zip(_array_slots(obj), _arrays(bundle)):
        entry[key] = [len(data), len(data) + arr.size * 8]
        data += _le_bytes(arr)
    return obj, data


def _v3_file(header, data, magic=bn.MAGIC, extra_size=0):
    """Magic, header length (off by extra_size), header (stdlib JSON unless bytes), data."""
    text = header if isinstance(header, bytes) else json.dumps(
        header, allow_nan=False, separators=(",", ":")).encode()
    return magic + (len(text) + extra_size).to_bytes(8, "little") + text + data


def _bundle_from_values(values, r, c, n):
    vals = np.asarray(values, dtype=np.float64)
    take = lambda k, shape: np.resize(np.roll(vals, k), shape)
    return mq.ModelBundle(
        base=mq.LinearNetwork([take(0, (r, c))]),
        residuals={1: [mq.ResidualUpdate(1, take(1, (r, c)), task_id="a")]},
        calibration=[mq.CalibrationSet.for_task("a", take(2, (n, c)), take(3, (n, r)))],
    )


@settings(deadline=None, max_examples=60)
@given(
    bits=st.lists(_FINITE_BITS, min_size=1, max_size=40),
    r=st.integers(1, 4),
    c=st.integers(1, 4),
    n=st.integers(1, 3),
)
@example(bits=[int(np.float64(v).view(np.uint64)) for v in _EDGE_FLOATS], r=3, c=2, n=2)
def test_round_trip_preserves_any_float64_bit_pattern(tmp_path_factory, bits, r, c, n):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    bundle = _bundle_from_values(values, r, c, n)
    d = tmp_path_factory.mktemp("bits")
    mq.save_bundle(bundle, d / "a.json")
    assert (d / "a.json").read_bytes() == _v3_file(*_v3_parts(bundle))
    loaded = mq.load_bundle(d / "a.json")
    _assert_same_bits(bundle, loaded)
    mq.save_bundle(loaded, d / "b.json")
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()


def test_edge_floats_survive_network_round_trip(tmp_path):
    W = np.array(_EDGE_FLOATS[:6]).reshape(2, 3)
    mq.save_network(mq.LinearNetwork([W]), tmp_path / "net.json")
    again = mq.load_network(tmp_path / "net.json").layers[0]
    assert same_bits(W, again)
    assert np.signbit(again[1, 0])  # -0.0 keeps its sign


@pytest.mark.parametrize(
    "make",
    [
        lambda: mq.gen_linear_tasks(seed=4, noise=0.1, merge_layer=(1, 2)),
        lambda: mq.gen_relu_tasks(seed=2, n_samples=7),
        lambda: mq.gen_shared_direction_instance(seed=1),
    ],
)
def test_v1_list_file_loads_bit_identical_to_v3(tmp_path, make):
    bundle = make()
    v1_path, v3_path, conv_path = (tmp_path / n for n in ("v1.json", "v3.json", "conv.json"))
    v1_path.write_text(json.dumps(_v1_obj(bundle), indent=1) + "\n")
    mq.save_bundle(bundle, v3_path)
    from_v1, from_v3 = (mq.load_bundle(p) for p in (v1_path, v3_path))
    _assert_same_bits(bundle, from_v1)
    _assert_same_bits(from_v1, from_v3)
    assert from_v1.meta == from_v3.meta
    # load then save converts a v1 file into the same v3 bytes
    mq.save_bundle(from_v1, conv_path)
    assert conv_path.read_bytes() == v3_path.read_bytes()
    assert v3_path.read_bytes().startswith(bn.MAGIC)


@pytest.mark.parametrize(
    "field,set_value,needle",
    [
        ("residual", [1.0, 2.0, 3.0], "expected 4 values, got 3"),
        ("residual", [[1.0, 2.0], [3.0, 4.0]], "expected a flat list of numbers"),
        ("residual", "AAAAAAAAAAA", "expected a list of numbers, got str"),
        ("residual", 5, "got int"),
        ("residual", {"data": []}, "got dict"),
        ("residual", None, "got NoneType"),
        ("residual", [1.0, None, 2.0, 3.0], "non-finite"),  # null reads as nan
        ("layer", [1.0] * 5, "expected 4 values, got 5"),
        ("layer", [[1.0, 0.0], [0.0]], "sequence"),
        ("layer", 1.5, "got float"),
        ("inputs", [[1.0, 2.0, 3.0]], "rows of length 3, expected 2"),
        ("inputs", [], "expected a non-empty list of equal-length rows"),
        ("inputs", [[1.0, "x"]], "could not convert string to float"),
        ("inputs", [[np.inf, 1.0]], "non-finite"),
        ("targets", [1.0, 2.0], "expected a non-empty list of equal-length rows"),
        ("targets", [[1.0, np.nan]], "non-finite"),
        ("targets", True, "got bool"),
    ],
)
def test_malformed_v1_arrays_name_the_json_path(field, set_value, needle):
    obj = _v1_obj(_tiny_bundle())
    target, key, path = {
        "residual": (obj["residuals"][0], "data", "$.residuals[0].data"),
        "layer": (obj["base"]["layers"][0], "data", "$.base.layers[0].data"),
        "inputs": (obj["calibration"][0], "inputs", "$.calibration[0].inputs"),
        "targets": (obj["calibration"][0], "targets", "$.calibration[0].targets"),
    }[field]
    target[key] = set_value
    with pytest.raises(mq.BundleFormatError) as err:
        bn.bundle_from_obj(obj)
    assert str(err.value).startswith(path + ":")
    assert needle in str(err.value)


def test_version_2_files_exit_2(tmp_path, capsys):
    # version 2 stored each array as one base64 string; its reader is retired
    obj = dict(_v1_obj(_tiny_bundle()), version=2)
    for (entry, key), arr in zip(_array_slots(obj), _arrays(_tiny_bundle())):
        entry[key] = base64.b64encode(_le_bytes(arr)).decode("ascii")
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(obj, indent=1) + "\n")
    with pytest.raises(mq.BundleFormatError, match=r"^\$\.version: unsupported version 2"):
        mq.load_bundle(path)
    assert cli_main(["merge", "--bundle", str(path), "--method", "qp-diag"]) == 2
    assert "error: $.version: unsupported version 2" in capsys.readouterr().err


def test_v1_ragged_calibration_rows_name_the_json_path():
    obj = _v1_obj(_tiny_bundle())
    obj["calibration"][0]["inputs"] = [[1.0, 2.0], [3.0]]
    with pytest.raises(mq.BundleFormatError, match=r"^\$\.calibration\[0\]\.inputs:"):
        bn.bundle_from_obj(obj)


# The tiny bundle's v3 data section: base layer [0, 32), residual [32, 64),
# inputs [64, 80), targets [80, 96).
_NAN = np.array([np.nan]).tobytes()


def _set(*keys_and_value):
    """A spoiler that sets header[k1][k2]... to the last argument."""
    *keys, value = keys_and_value

    def spoil(parts):
        entry = parts["header"]
        for k in keys[:-1]:
            entry = entry[k]
        entry[keys[-1]] = value
    return spoil


def _ranges(*ranges, gap_after_layer=0):
    """A spoiler that gives the four arrays these byte ranges.

    gap_after_layer inserts that many zero bytes after the base layer's.
    """
    keys = [("base", "layers", 0, "data"), ("residuals", 0, "data"),
            ("calibration", 0, "inputs"), ("calibration", 0, "targets")]

    def spoil(parts):
        for key, rng in zip(keys, ranges):
            _set(*key, list(rng))(parts)
        data = parts["data"]
        parts["data"] = data[:32] + b"\0" * gap_after_layer + data[32:]
    return spoil


@pytest.mark.parametrize(
    "spoil,path,needle",
    [
        (lambda p: p.update(magic=b"\x93MERGEQX"), "$", "no version-3 magic, and not valid JSON"),
        (lambda p: p.update(magic=b"{\"versio"), "$", "not valid JSON"),
        (lambda p: p.update(extra_size=200), "$",
         "header runs to byte 432, past the 328-byte file"),
        (lambda p: p.update(data=b"", header=b"", extra_size=1), "$", "past the 16-byte file"),
        (lambda p: p.update(header=b"{not json"), "$", "header is not valid JSON"),
        (lambda p: p.update(header=b"[1, 2]"), "$", "expected an object"),
        (_set("version", 2), "$.version", "unsupported version 2"),
        (_set("residuals", 0, "data", [32.0, 64]), "$.residuals[0].data", "two ints"),
        (_set("residuals", 0, "data", [True, 64]), "$.residuals[0].data", "two ints"),
        (_set("residuals", 0, "data", [32, 64, 96]), "$.residuals[0].data", "two ints"),
        (_set("residuals", 0, "data", "AAAA"), "$.residuals[0].data", "two ints"),
        (_set("calibration", 0, "targets", [80, 104]), "$.calibration[0].targets",
         "[80, 104) is not the range of the 96-byte data section that starts at byte 80"),
        (_set("calibration", 0, "targets", [80, 72]), "$.calibration[0].targets", "[80, 72)"),
        (lambda p: p.update(data=p["data"][:88]), "$.calibration[0].targets",
         "[80, 96) is not the range of the 88-byte data section"),
        # overlapping, out of order, a gap: each array must start where the one before ends
        (_ranges([0, 32], [24, 56], [56, 72], [72, 96]), "$.residuals[0].data",
         "[24, 56) is not the range of the 96-byte data section that starts at byte 32"),
        (_ranges([32, 64], [0, 32], [64, 80], [80, 96]), "$.base.layers[0].data",
         "[32, 64) is not the range of the 96-byte data section that starts at byte 0"),
        (_ranges([0, 32], [40, 72], [72, 88], [88, 104], gap_after_layer=8),
         "$.residuals[0].data",
         "[40, 72) is not the range of the 104-byte data section that starts at byte 32"),
        (lambda p: p.update(data=p["data"] + b"\0" * 8), "$.calibration[0].targets",
         "8 bytes follow it"),
        (_ranges([0, 32], [32, 60], [60, 76], [76, 96]), "$.residuals[0].data",
         "28 bytes is not a whole number of float64 values"),
        (_ranges([0, 32], [32, 56], [56, 72], [72, 96]), "$.residuals[0].data",
         "expected 4 values, got 3"),
        (_ranges([0, 32], [32, 64], [64, 72], [72, 96]), "$.calibration[0].inputs",
         "1 values do not fill rows of width 2"),
        (lambda p: p.update(data=p["data"][:88] + _NAN), "$.calibration[0].targets",
         "non-finite values"),
    ],
)
def test_malformed_v3_files_name_the_json_path(tmp_path, spoil, path, needle):
    header, data = _v3_parts(_tiny_bundle())
    parts = {"header": header, "data": data}
    spoil(parts)
    file = tmp_path / "b.json"
    file.write_bytes(_v3_file(**parts))
    with pytest.raises(mq.BundleFormatError) as err:
        mq.load_bundle(file)
    assert str(err.value).startswith(path + ":")
    assert needle in str(err.value)


def test_merge_exits_2_on_a_malformed_v3_file(tmp_path, capsys):
    header, data = _v3_parts(_tiny_bundle())
    path = tmp_path / "bundle.json"
    path.write_bytes(_v3_file(header, data + b"\0" * 8))
    assert cli_main(["merge", "--bundle", str(path), "--method", "qp-diag"]) == 2
    assert "error: $.calibration[0].targets: 8 bytes follow" in capsys.readouterr().err


def test_network_files_check_the_data_section(tmp_path):
    net = mq.LinearNetwork([np.eye(2), np.array([[1.0, 2.0]])])
    path = tmp_path / "net.json"
    mq.save_network(net, path)
    raw = path.read_bytes()
    assert raw[-48:] == _le_bytes(np.eye(2)) + _le_bytes([1.0, 2.0])
    path.write_bytes(raw + b"\0" * 16)
    with pytest.raises(mq.BundleFormatError, match=r"^\$\.network\.layers\[1\]\.data: 16 bytes"):
        mq.load_network(path)


@pytest.mark.parametrize("source", ["v1", "v3"])
def test_loaded_arrays_are_writable_native_float64(tmp_path, source):
    bundle = mq.gen_linear_tasks(seed=1)
    path = tmp_path / "b.json"
    if source == "v1":
        path.write_text(json.dumps(_v1_obj(bundle)))
    else:
        mq.save_bundle(bundle, path)
    loaded = mq.load_bundle(path)
    mq.save_network(loaded.base, tmp_path / "net.json")
    for arr in _arrays(loaded) + mq.load_network(tmp_path / "net.json").layers:
        assert arr.dtype == np.float64 and arr.dtype.isnative
        assert arr.flags.writeable and arr.flags.c_contiguous
        arr[...] = 0.0  # no read-only view of the decoded bytes
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        assert arr.base is None  # numpy owns the memory: no view keeps the file buffer


# --- task ids ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [[0], {"k": 0}, 1.5, None, True])
@pytest.mark.parametrize("where", ["residuals", "calibration"])
def test_non_scalar_task_ids_are_rejected_at_load(where, bad):
    obj = _v1_obj(_tiny_bundle())
    obj[where][0]["task"] = bad
    with pytest.raises(mq.BundleFormatError) as err:
        bn.bundle_from_obj(obj)
    assert str(err.value).startswith(f"$.{where}[0].task:")


def test_string_task_ids_load():
    obj = _v1_obj(_tiny_bundle())
    obj["residuals"][0]["task"] = obj["calibration"][0]["task"] = "math"
    bundle = bn.bundle_from_obj(obj)
    assert bundle.task_ids == ["math"]
    assert bundle.calibration[0].task_ids == ["math"]


def test_cli_exits_2_on_list_task_id(tmp_path, capsys):
    obj = _v1_obj(_tiny_bundle())
    obj["calibration"][0]["task"] = [0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for argv in (["merge", "--bundle", str(path), "--method", "qp-diag"],
                 ["compare", "--bundle", str(path)]):
        assert cli_main(argv) == 2
        assert "$.calibration[0].task" in capsys.readouterr().err


# --- refusing to save what cannot load back ---------------------------------


@pytest.mark.parametrize(
    "spoil,needle",
    [
        (lambda b: b.residuals[1][0].delta.__setitem__((0, 1), np.nan), "$.residuals[0].data"),
        (lambda b: b.base.layers[0].__setitem__((1, 1), np.inf), "$.base.layers[0].data"),
        (lambda b: b.calibration[0].targets.__setitem__((0, 0), -np.inf), "$.calibration[0].targets"),
        (lambda b: setattr(b.residuals[1][0], "task_id", (0,)), "$.residuals[0].task"),
        (lambda b: setattr(b.calibration[0], "task_ids", None), "$.calibration[0].task"),
    ],
)
def test_save_refuses_what_load_would_reject(tmp_path, spoil, needle):
    bundle = _tiny_bundle()
    spoil(bundle)
    path = tmp_path / "b.json"
    path.write_text("previous contents")
    with pytest.raises(ValueError) as err:
        mq.save_bundle(bundle, path)
    assert str(err.value).startswith(needle + ":")
    assert path.read_text() == "previous contents"  # nothing written


def test_save_reruns_the_bundle_checks_on_edited_fields(tmp_path):
    # task ids edited after construction: 0 and "0" key one report column, so no load
    bundle = mq.gen_linear_tasks(n_tasks=2)
    bundle.residuals[1][1].task_id = "0"
    path = tmp_path / "b.json"
    with pytest.raises(ValueError, match=r"task ids \[0, '0'\] repeat"):
        mq.save_bundle(bundle, path)
    assert not path.exists()


def test_save_network_refuses_non_finite_weights(tmp_path):
    net = mq.LinearNetwork([np.eye(2), np.array([[1.0, 2.0]])])
    net.layers[1][0, 1] = np.nan  # the constructor checks; later edits are not
    path = tmp_path / "net.json"
    with pytest.raises(ValueError, match=r"^\$\.network\.layers\[1\]\.data:"):
        mq.save_network(net, path)
    assert not path.exists()


def _circular():
    meta = {"nested": {}}
    meta["nested"]["back"] = meta
    return meta


@pytest.mark.parametrize(
    "meta,error",
    [({"weights": np.zeros(2000)}, TypeError), ({"noise": float("nan")}, ValueError),
     (_circular(), ValueError)],
)
def test_save_refuses_meta_that_is_not_strict_json(tmp_path, meta, error):
    bundle = _tiny_bundle()
    bundle.meta = meta
    path = tmp_path / "b.json"
    with pytest.raises(error):
        mq.save_bundle(bundle, path)
    assert not path.exists()


# --- the header is the stdlib encoding, the data section the arrays' bytes ---


def _hostile_bundle():
    ids = ['say "hi"', "back\\slash", "new\nline", "caf\u00e9 \u2603"]
    rng = np.random.default_rng(0)
    return mq.ModelBundle(
        base=mq.LinearNetwork([rng.normal(size=(3, 2)), rng.normal(size=(2, 3))]),
        residuals={1: [mq.ResidualUpdate(1, rng.normal(size=(3, 2)), t) for t in ids]},
        calibration=[
            mq.CalibrationSet.for_task(t, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
            for t in ids
        ],
        meta={
            "nested": {"empty_obj": {}, "empty_list": [], "deep": [[{}], {"x": [None]}]},
            "none": None, "yes": True, "no": False, "huge": 1e300, "tiny": -5e-324,
            'quote"key': "tab\tquote\"back\\slash\u0001 ctrl, caf\u00e9, \U0001f600",
        },
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: mq.gen_linear_tasks(dims=(6, 5, 4), n_layers=3, merge_layer=(1, 3), seed=0),
        lambda: mq.gen_relu_tasks(seed=0),
        lambda: mq.gen_shared_direction_instance(seed=0),
        _hostile_bundle,
    ],
)
def test_written_files_are_the_stdlib_encoding(tmp_path, make):
    bundle = make()
    header, data = _v3_parts(bundle)
    text = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode(header).encode()
    assert text.isascii()
    path = tmp_path / "b.json"
    mq.save_bundle(bundle, path)
    raw = path.read_bytes()
    assert raw == bn.MAGIC + len(text).to_bytes(8, "little") + text + data
    assert data == b"".join(_le_bytes(arr) for arr in _arrays(bundle))
    loaded = mq.load_bundle(path)
    assert loaded.task_ids == bundle.task_ids and loaded.meta == bundle.meta
    _assert_same_bits(bundle, loaded)
    # a network file's header is {"version": 3, "network": ...}; the base comes first in a bundle
    mq.save_network(bundle.base, path)
    n_base = sum(W.size * 8 for W in bundle.base.layers)
    assert path.read_bytes() == _v3_file({"version": 3, "network": header["base"]}, data[:n_base])


@pytest.mark.parametrize("unknown", [object(), {1, 2}, b"AAAA", 1 + 2j])
def test_save_refuses_unknown_meta_objects(tmp_path, unknown):
    bundle = _tiny_bundle()
    bundle.meta = {"x": [unknown]}
    path = tmp_path / "b.json"
    with pytest.raises(TypeError, match="is not JSON serializable"):
        mq.save_bundle(bundle, path)
    assert not path.exists()


# --- every layer lists the same tasks in the same order ----------------------


def _two_layer_obj(tmp_path):
    path = tmp_path / "b.json"
    assert cli_main(["gen", "--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "3",
                     "--out", str(path)]) == 0
    return _v1_obj(mq.load_bundle(path))


def _layer_two_reversed(obj):
    first = [r for r in obj["residuals"] if r["layer"] == 1]
    second = [r for r in obj["residuals"] if r["layer"] == 2]
    obj["residuals"] = first + second[::-1]


def _layer_two_duplicates_task_0(obj):
    [r for r in obj["residuals"] if r["layer"] == 2][1]["task"] = 0


@pytest.mark.parametrize(
    "spoil,listed", [(_layer_two_reversed, "[2, 1, 0]"), (_layer_two_duplicates_task_0, "[0, 0, 2]")]
)
def test_layers_listing_tasks_differently_are_rejected(tmp_path, capsys, spoil, listed):
    # Fisher diagonals and per-task --lambda values pair with updates by position
    obj = _two_layer_obj(tmp_path)
    spoil(obj)
    with pytest.raises(mq.BundleFormatError, match=rf"^layer 2 lists tasks {re.escape(listed)}"):
        bn.bundle_from_obj(obj)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    for flags in (("--method", "fisher"), ("--method", "ta", "--lambda", "1,0,0")):
        assert cli_main(["merge", "--bundle", str(path), *flags]) == 2
        assert "error: layer 2 lists tasks" in capsys.readouterr().err


def test_task_id_repeated_in_every_layer_is_rejected(tmp_path, capsys):
    # the layers still agree with each other, but a fisher merge would give
    # both "task 0" updates task 0's diagonal and report only tasks 0 and 2
    obj = _two_layer_obj(tmp_path)
    for entry in obj["residuals"]:
        if entry["task"] == 1:
            entry["task"] = 0
    with pytest.raises(mq.BundleFormatError, match=r"^task ids \[0, 0, 2\] repeat within a layer"):
        bn.bundle_from_obj(obj)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["merge", "--bundle", str(path), "--method", "fisher"]) == 2
    assert "error: task ids [0, 0, 2] repeat within a layer" in capsys.readouterr().err


def test_task_ids_that_print_alike_are_rejected(tmp_path, capsys):
    # reports key task_mse by the id's text, so tasks "1" and 1 would share one entry
    obj = _two_layer_obj(tmp_path)
    for entry in obj["residuals"] + obj["calibration"]:
        if entry["task"] == 0:
            entry["task"] = "1"
    listed = re.escape("task ids ['1', 1, 2] repeat within a layer")
    with pytest.raises(mq.BundleFormatError, match=f"^{listed}"):
        bn.bundle_from_obj(obj)
    path = tmp_path / "alike.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["merge", "--bundle", str(path), "--method", "qp-diag"]) == 2
    assert "error: task ids ['1', 1, 2] repeat within a layer" in capsys.readouterr().err
    # a bundle built in memory is refused before anything can be saved
    bundle = mq.gen_linear_tasks(n_tasks=2)
    for layer, ups in bundle.residuals.items():
        ups[0] = mq.ResidualUpdate(layer, ups[0].delta, "1")
        ups[1] = mq.ResidualUpdate(layer, ups[1].delta, 1)
    with pytest.raises(ValueError, match=re.escape("task ids ['1', 1] repeat within a layer")):
        mq.ModelBundle(bundle.base, bundle.residuals, bundle.calibration)
