"""Model bundles: base network, per-task updates, calibration data, on disk.

A bundle is everything one merging experiment needs, in one file.  Files are
written as format version 3: MAGIC, the header length as 8 little-endian
bytes, a JSON header, then the float arrays as row-major little-endian
float64, back to back in header order.  The header has the JSON layout of
earlier versions with each array replaced by its [start, end) byte range,
so save -> load -> save is bit-exact and equal generator configurations give
byte-identical files.  Array shapes come from the network: layer rows/cols,
the layer shape for residual updates, and the input/output width for
calibration rows.  JSON files of version 1 (number lists) are still read,
told apart by the magic, and saving one converts it.  Three seeded
generators build desk-scale bundles: plain linear stacks, the
shared-direction construction behind the closed-form merge weights, and a
small ReLU classifier fine-tuned on disjoint class subsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .networks import RELU, LinearNetwork, ResidualUpdate, _backward, forward
from .qp import CalibrationSet

MAGIC = b"\x93MERGEQP"  # not UTF-8, so no JSON text starts with it
FORMAT_VERSION = 3
JSON_VERSION = 1  # the version a file without the magic must have


class BundleFormatError(ValueError):
    """A bundle or network file failed structural validation."""


@dataclass
class ModelBundle:
    """Base network, residual updates grouped by layer, per-task calibration.

    residuals maps layer index -> list of ResidualUpdate (one per task, in
    task order).  calibration holds one CalibrationSet per task, each with a
    uniform task label.  meta carries generator provenance (seed, kind,
    parameters) and round-trips untouched.
    """

    base: LinearNetwork
    residuals: dict
    calibration: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.residuals, dict) or not self.residuals:
            raise ValueError("residuals must be a non-empty {layer: [updates]} map")
        for layer, ups in self.residuals.items():
            if not ups:
                raise ValueError(f"layer {layer} has no residual updates")
            shape = self.base.layer_shape(layer)
            for u in ups:
                if u.layer_index != layer:
                    raise ValueError(
                        f"update for layer {u.layer_index} filed under layer {layer}"
                    )
                if u.delta.shape != shape:
                    raise ValueError(
                        f"layer {layer} update shape {u.delta.shape} != {shape}"
                    )
        for layer in self.layers_with_updates:  # per-task values pair with updates by position
            ids = [u.task_id for u in self.residuals[layer]]
            if ids != self.task_ids:
                raise BundleFormatError(f"layer {layer} lists tasks {ids}, not {self.task_ids}")
        if len(set(map(str, self.task_ids))) < len(self.task_ids):  # reports key tasks by text
            raise BundleFormatError(f"task ids {self.task_ids} repeat within a layer")
        if not self.calibration:
            raise ValueError("bundle has no calibration sets")
        for cs in self.calibration:
            if cs.inputs.shape[1] != self.base.input_dim:
                raise ValueError("calibration input dim does not match network")
            if cs.targets.shape[1] != self.base.output_dim:
                raise ValueError("calibration target dim does not match network")

    @property
    def layers_with_updates(self) -> list:
        return sorted(self.residuals)

    @property
    def task_ids(self) -> list:
        first = self.layers_with_updates[0]
        return [u.task_id for u in self.residuals[first]]

    def pooled_calibration(self) -> CalibrationSet:
        """Every calibration set, pooled in task order; tasks without updates go last."""
        rank = {t: i for i, t in enumerate(self.task_ids)}
        return CalibrationSet.concat(sorted(
            self.calibration, key=lambda cs: rank.get((cs.task_ids or [None])[0], len(rank))
        ))


class _Section(list):
    """The arrays of a version-3 data section, in header order, as a file is encoded."""

    nbytes = 0

    def add(self, arr: np.ndarray, path: str) -> list:
        """Append arr as row-major little-endian float64; its [start, end) byte range."""
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: non-finite values, refusing to save")
        self.append(arr)
        self.nbytes += arr.nbytes
        return [self.nbytes - arr.nbytes, self.nbytes]


class _Data:
    """The data section of a version-3 file, handed out in header order."""

    def __init__(self, buf: memoryview):
        self.buf, self.end, self.last = buf, 0, "$"

    def take(self, rng, path: str) -> memoryview:
        if not (isinstance(rng, list) and len(rng) == 2 and all(type(v) is int for v in rng)):
            raise BundleFormatError(f"{path}: expected a [start, end) byte range of two ints")
        if not self.end == rng[0] <= rng[1] <= len(self.buf):  # no gap, overlap or reordering
            raise BundleFormatError(
                f"{path}: [{rng[0]}, {rng[1]}) is not the range of the {len(self.buf)}-byte "
                f"data section that starts at byte {self.end}, right after the arrays before it"
            )
        self.end, self.last = rng[1], path
        return self.buf[rng[0]:rng[1]]


def _task_id(task, path, error=BundleFormatError):
    """Task ids are JSON scalars: int or str (bool is not an id)."""
    if isinstance(task, bool) or not isinstance(task, (int, str)):
        raise error(
            f"{path}: task id must be an int or a string, got {type(task).__name__}"
        )
    return task


def _network_obj(net: LinearNetwork, path: str, section: _Section) -> dict:
    return {
        "layers": [
            {
                "rows": int(W.shape[0]),
                "cols": int(W.shape[1]),
                "data": section.add(W, f"{path}.layers[{i}].data"),
            }
            for i, W in enumerate(net.layers)
        ],
        "activations": list(net.activations),
    }


def _bundle_header(bundle: ModelBundle, section: _Section) -> dict:
    """The version-3 header of a bundle, arrays added to section; ValueError if it cannot load."""
    updates = [up for layer in sorted(bundle.residuals) for up in bundle.residuals[layer]]
    header = {
        "version": FORMAT_VERSION,
        "base": _network_obj(bundle.base, "$.base", section),
        "residuals": [
            {
                "layer": int(up.layer_index),
                "task": _task_id(up.task_id, f"$.residuals[{i}].task", ValueError),
                "data": section.add(up.delta, f"$.residuals[{i}].data"),
            }
            for i, up in enumerate(updates)
        ],
        "calibration": [],
        "meta": bundle.meta,
    }
    for i, cs in enumerate(bundle.calibration):
        path = f"$.calibration[{i}]"
        ids = set(cs.task_ids or [None])
        if len(ids) != 1:
            raise ValueError("each stored calibration set must belong to one task")
        header["calibration"].append(
            {
                "task": _task_id(next(iter(ids)), f"{path}.task", ValueError),
                "inputs": section.add(cs.inputs, f"{path}.inputs"),
                "targets": section.add(cs.targets, f"{path}.targets"),
            }
        )
    return header


def _write(path, make_header) -> None:
    """Write the v3 file of make_header(section), which fills section; errors write nothing."""
    section = _Section()
    text = json.dumps(make_header(section), allow_nan=False, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.writelines([MAGIC, len(text).to_bytes(8, "little"), text, *section])


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write a bundle as a version-3 file. Deterministic, no timestamps.

    Raises ValueError before anything is written: ModelBundle's checks, rerun as fields can
    change, or one naming the field of a non-finite value or a task id not an int or str.
    """
    bundle.__post_init__()
    _write(path, lambda section: _bundle_header(bundle, section))


def _expect(obj, key, kinds, path):
    if not isinstance(obj, dict):
        raise BundleFormatError(f"{path}: expected an object")
    if key not in obj:
        raise BundleFormatError(f"{path}: missing field {key!r}")
    val = obj[key]
    if kinds is not None and not isinstance(val, kinds):
        raise BundleFormatError(
            f"{path}.{key}: expected {getattr(kinds, '__name__', kinds)}, "
            f"got {type(val).__name__}"
        )
    return val


def _floats(entry, key, cols, path, rows=None, data=None) -> np.ndarray:
    """The (rows, cols) float64 array in entry[key]: a byte range or a number list.

    A range indexes data, a version-3 data section of row-major little-endian float64
    bytes.  A list is flat when rows is given and a list of rows otherwise (version 1).
    rows=None takes the row count from the data, which must be non-empty.
    """
    value, path = _expect(entry, key, None, path), f"{path}.{key}"
    if data is not None:
        value = data.take(value, path)
        if len(value) % 8:
            raise BundleFormatError(
                f"{path}: {len(value)} bytes is not a whole number of float64 values"
            )
        arr = np.frombuffer(value, "<f8").astype(np.float64)
    elif isinstance(value, list):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BundleFormatError(f"{path}: {exc}") from exc
        if arr.ndim != (1 if rows is not None else 2):
            raise BundleFormatError(
                f"{path}: expected a flat list of numbers"
                if rows is not None
                else f"{path}: expected a non-empty list of equal-length rows"
            )
        if rows is None and arr.shape[1] != cols:
            raise BundleFormatError(f"{path}: rows of length {arr.shape[1]}, expected {cols}")
    else:
        raise BundleFormatError(f"{path}: expected a list of numbers, got {type(value).__name__}")
    if rows is not None and arr.size != rows * cols:
        raise BundleFormatError(f"{path}: expected {rows * cols} values, got {arr.size}")
    if rows is None and (arr.size == 0 or arr.size % cols):
        raise BundleFormatError(
            f"{path}: {arr.size} values do not fill rows of width {cols}"
        )
    if not np.all(np.isfinite(arr)):
        raise BundleFormatError(f"{path}: non-finite values")
    return arr.reshape(-1 if rows is None else rows, cols)


def _parse_network(obj, path, data) -> LinearNetwork:
    layers = []
    for i, entry in enumerate(_expect(obj, "layers", list, path)):
        rows, cols = (_expect(entry, k, int, f"{path}.layers[{i}]") for k in ("rows", "cols"))
        if rows < 1 or cols < 1:
            raise BundleFormatError(f"{path}.layers[{i}]: rows and cols must be positive")
        layers.append(_floats(entry, "data", cols, f"{path}.layers[{i}]", rows, data))
    activations = _expect(obj, "activations", list, path)
    try:  # the network checks the layer count and the activation names
        return LinearNetwork(layers, activations)
    except ValueError as exc:
        raise BundleFormatError(f"{path}: {exc}") from exc


def _load(path, parse):
    """parse(header object, data) of a file; data is a version-3 data section, else None."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header, data = raw, None
    if raw.startswith(MAGIC):
        start = len(MAGIC) + 8
        end = start + int.from_bytes(raw[len(MAGIC):start], "little")
        if end > len(raw):
            raise BundleFormatError(f"$: header runs to byte {end}, past the {len(raw)}-byte file")
        header, data = raw[start:end], _Data(memoryview(raw)[end:])
    try:
        obj = json.loads(header)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        what = "no version-3 magic, and" if data is None else "header is"
        raise BundleFormatError(f"$: {what} not valid JSON: {exc}") from exc
    result = parse(obj, data)
    if data is not None and data.end != len(data.buf):
        raise BundleFormatError(f"{data.last}: {len(data.buf) - data.end} bytes follow it")
    return result


def _check_version(obj, data) -> None:
    expected = JSON_VERSION if data is None else FORMAT_VERSION
    if (version := _expect(obj, "version", int, "$")) != expected:
        raise BundleFormatError(f"$.version: unsupported version {version}, expected {expected}")


def bundle_from_obj(obj, data=None) -> ModelBundle:
    """The bundle in a header object; data is the data section of a version-3 file."""
    _check_version(obj, data)
    base = _parse_network(_expect(obj, "base", dict, "$"), "$.base", data)
    residuals = {}
    res_list = _expect(obj, "residuals", list, "$")
    if not res_list:
        raise BundleFormatError("$.residuals: bundle has no residual updates")
    for i, entry in enumerate(res_list):
        path = f"$.residuals[{i}]"
        layer = _expect(entry, "layer", int, path)
        if not 1 <= layer <= base.depth:
            raise BundleFormatError(f"{path}.layer: {layer} outside [1, {base.depth}]")
        task = _task_id(_expect(entry, "task", None, path), f"{path}.task")
        rows, cols = base.layer_shape(layer)
        delta = _floats(entry, "data", cols, path, rows, data)
        residuals.setdefault(layer, []).append(ResidualUpdate(layer, delta, task))
    calibration = []
    cal_list = _expect(obj, "calibration", list, "$")
    if not cal_list:
        raise BundleFormatError("$.calibration: bundle has no calibration data")
    for i, entry in enumerate(cal_list):
        path = f"$.calibration[{i}]"
        task = _task_id(_expect(entry, "task", None, path), f"{path}.task")
        inputs = _floats(entry, "inputs", base.input_dim, path, data=data)
        targets = _floats(entry, "targets", base.output_dim, path, data=data)
        try:  # the set checks that inputs and targets pair up
            calibration.append(CalibrationSet.for_task(task, inputs, targets))
        except ValueError as exc:
            raise BundleFormatError(f"{path}: {exc}") from exc
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise BundleFormatError("$.meta: expected an object")
    try:
        return ModelBundle(base, residuals, calibration, meta)
    except ValueError as exc:
        raise BundleFormatError(str(exc)) from exc


def load_bundle(path) -> ModelBundle:
    """Parse and validate a bundle file, naming the offending field on error."""
    return _load(path, bundle_from_obj)


def save_network(net: LinearNetwork, path) -> None:
    """Write a bare network (e.g. a merged model) as a version-3 file.

    Raises ValueError naming the layer, before anything is written, when a
    weight is non-finite.
    """
    _write(path, lambda section: {
        "version": FORMAT_VERSION, "network": _network_obj(net, "$.network", section)})


def _network_from_obj(obj, data) -> LinearNetwork:
    _check_version(obj, data)
    return _parse_network(_expect(obj, "network", dict, "$"), "$.network", data)


def load_network(path) -> LinearNetwork:
    return _load(path, _network_from_obj)


def _random_layers(rng, sizes) -> list:
    """Gaussian weights sizes[l] -> sizes[l + 1], scaled by 1/sqrt(fan-in), drawn in order."""
    return [rng.standard_normal((m, n)) / math.sqrt(n) for n, m in zip(sizes, sizes[1:])]


def gen_linear_tasks(
    dims=(8, 6, 5),
    n_layers: int = 2,
    merge_layer=1,
    n_tasks: int = 3,
    n_samples: int = 20,
    delta_scale: float = 0.5,
    noise: float = 0.0,
    seed: int = 0,
) -> ModelBundle:
    """Random all-identity stack with Gaussian task updates at chosen layers.

    dims = (input, hidden, output), any other length a ValueError; interior
    layers have the hidden width.  merge_layer may be one index or a
    sequence, each getting an independent update per task.  Task k's
    calibration targets are the outputs of the base network with task k's
    updates applied (noise standard deviation added on top when noise > 0),
    so with one task and no noise the generating model reaches zero loss.
    """
    if len(dims) != 3:
        raise ValueError(f"linear bundles take dims (input, hidden, output), got {tuple(dims)}")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if n_tasks < 1 or n_samples < 1:
        raise ValueError("need at least one task and one sample")
    layers_to_merge = (
        [int(merge_layer)] if np.isscalar(merge_layer) else sorted(int(l) for l in merge_layer)
    )
    sizes = [dims[0]] + [dims[1]] * (n_layers - 1) + [dims[2]]
    rng = np.random.default_rng(seed)
    base = LinearNetwork(_random_layers(rng, sizes))
    residuals = {N: [] for N in layers_to_merge}
    finetuned = []
    for k in range(n_tasks):
        layers = list(base.layers)
        for N in layers_to_merge:
            shape = base.layer_shape(N)
            delta = delta_scale * rng.standard_normal(shape) / math.sqrt(shape[1])
            residuals[N].append(ResidualUpdate(N, delta, k))
            layers[N - 1] = layers[N - 1] + delta
        finetuned.append(LinearNetwork(layers))
    calibration = []
    for k in range(n_tasks):
        X = rng.standard_normal((n_samples, sizes[0]))
        Y = forward(finetuned[k], X)
        if noise > 0:
            Y = Y + noise * rng.standard_normal(Y.shape)
        calibration.append(CalibrationSet.for_task(k, X, Y))
    meta = {
        "generator": "linear",
        "dims": list(dims),
        "n_layers": n_layers,
        "merge_layers": layers_to_merge,
        "n_tasks": n_tasks,
        "n_samples": n_samples,
        "delta_scale": delta_scale,
        "noise": noise,
        "seed": seed,
    }
    return ModelBundle(base, residuals, calibration, meta)


def gen_shared_direction_instance(
    sigmas=(1.0, 2.0),
    n_samples: int = 12,
    target_task: int = 0,
    seed: int = 0,
) -> ModelBundle:
    """Instance meeting the closed-form assumptions: shared u, isometric L.

    Two-layer network h = L W1 x on 5 inputs: W1 is 4 x 5 and the 6 x 4
    map L has orthonormal columns.  Task k's update is sigma_k u v^T plus an
    orthogonal remainder 0.1 (I - u u^T) G_k, so u^T delta_k = sigma_k v^T
    exactly.  Calibration targets come from the fine-tuned model of
    target_task.  The assumption checks (u orthogonal to remainders, L^T L
    close to identity) run before returning; meta records u, v and sigmas so
    they can be re-checked after a round trip.
    """
    r, c, input_dim, orth_scale = 4, 6, 5, 0.1  # the fixed recipe; meta records it
    s = np.asarray(sigmas, dtype=float).ravel()
    if s.size < 1:
        raise ValueError("need at least one task strength")
    if np.any(s < 0):
        raise ValueError("sigmas must be non-negative")
    if not 0 <= target_task < s.size:
        raise ValueError(f"target task {target_task} outside [0, {s.size - 1}]")
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((r, input_dim)) / math.sqrt(input_dim)
    L, _ = np.linalg.qr(rng.standard_normal((c, r)))
    u = rng.standard_normal(r)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(input_dim)
    v /= np.linalg.norm(v)
    base = LinearNetwork([W1, L])
    updates = []
    for k in range(s.size):
        G = rng.standard_normal((r, input_dim)) / math.sqrt(input_dim)
        remainder = orth_scale * (G - np.outer(u, u @ G))
        delta = s[k] * np.outer(u, v) + remainder
        updates.append(ResidualUpdate(1, delta, k))
    X = rng.standard_normal((n_samples, input_dim))
    target_net = LinearNetwork([W1 + updates[target_task].delta, L])
    Y = forward(target_net, X)
    calibration = [CalibrationSet.for_task(target_task, X, Y)]
    meta = {
        "generator": "shared_direction",
        "sigmas": [float(x) for x in s],
        "r": r,
        "c": c,
        "input_dim": input_dim,
        "n_samples": n_samples,
        "target_task": target_task,
        "orth_scale": orth_scale,
        "seed": seed,
        "u": [float(x) for x in u],
        "v": [float(x) for x in v],
    }
    bundle = ModelBundle(base, {1: updates}, calibration, meta)
    validate_shared_direction_bundle(bundle)
    return bundle


def validate_shared_direction_bundle(bundle: ModelBundle) -> None:
    """Re-check the closed-form assumptions on a shared-direction bundle.

    Verifies u^T (delta_k - sigma_k u v^T) vanishes to 1e-12 for every task
    and that the last layer has orthonormal columns to 1e-10.  Raises
    ValueError on violation or if the bundle lacks the required meta fields.
    """
    meta = bundle.meta
    for key in ("u", "v", "sigmas"):
        if key not in meta:
            raise ValueError(f"bundle meta lacks {key!r}; not a shared-direction bundle")
    u = np.asarray(meta["u"], dtype=float)
    v = np.asarray(meta["v"], dtype=float)
    s = np.asarray(meta["sigmas"], dtype=float)
    updates = bundle.residuals.get(1)
    if updates is None or len(updates) != s.size:
        raise ValueError("residual updates do not match the recorded sigmas")
    for k, up in enumerate(updates):
        remainder = up.delta - s[k] * np.outer(u, v)
        worst = np.abs(u @ remainder).max()
        if worst > 1e-12:
            raise ValueError(
                f"task {k} remainder is not orthogonal to u (|u^T R| = {worst:.3e})"
            )
    L = bundle.base.layers[-1]
    defect = np.abs(L.T @ L - np.eye(L.shape[1])).max()
    if defect > 1e-10:
        raise ValueError(f"downstream map is not an isometry (defect {defect:.3e})")


def _class_batch(rng, means, classes, n, input_noise):
    picks = rng.integers(0, len(classes), size=n)
    labels = np.asarray(classes)[picks]
    X = means[labels] + input_noise * rng.standard_normal((n, means.shape[1]))
    return X, labels


def _finetune_layer(net, layer_index, X, T, steps, lr):
    """Full-batch gradient descent on one layer's MSE; layers below run once, _backward above."""
    layers = [W.copy() for W in net.layers]
    M = len(layers)
    acts = [X]
    for _ in range(steps):
        del acts[layer_index:]  # back to the frozen prefix
        for l in range(len(acts) - 1, M):
            a = acts[-1] @ layers[l].T
            acts.append(np.maximum(a, 0.0) if l < M - 1 and net.activations[l] == RELU else a)
        G = _backward(net, layer_index, acts, 2.0 * (acts[-1] - T) / len(X))
        layers[layer_index - 1] -= lr * (G.T @ acts[layer_index - 1])
    return LinearNetwork(layers, list(net.activations))


def gen_relu_tasks(
    dims=(16, 12, 8, 4),
    merge_layer: int = 2,
    n_tasks: int = 2,
    n_samples: int = 100,
    seed: int = 0,
) -> ModelBundle:
    """Small ReLU classifier fine-tuned per task on disjoint class subsets.

    The base network maps dims[0] -> ... -> dims[-1] with ReLU gaps; output
    coordinates act as class logits with one Gaussian prototype per class,
    and inputs are a prototype plus noise of standard deviation 0.3.  The
    dims[-1] classes are split into n_tasks contiguous groups, and each task
    fine-tunes only layer merge_layer by 25 steps of full-batch gradient
    descent (learning rate 0.05) on one-hot targets for 60 inputs of its own
    classes.  Residual updates are the resulting weight differences;
    calibration pairs are fresh class-conditional inputs with the fine-tuned
    model's outputs as targets.
    """
    n_train, train_steps, learning_rate, input_noise = 60, 25, 0.05, 0.3  # meta records them
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least one layer")
    n_layers = len(dims) - 1
    if not 1 <= merge_layer <= n_layers:
        raise ValueError(f"merge layer {merge_layer} outside [1, {n_layers}]")
    n_classes = dims[-1]
    if n_tasks < 1 or n_tasks > n_classes:
        raise ValueError("n_tasks must be between 1 and the number of classes")
    rng = np.random.default_rng(seed)
    base = LinearNetwork(_random_layers(rng, dims), [RELU] * (n_layers - 1))
    means = 1.5 * rng.standard_normal((n_classes, dims[0]))
    groups = [list(g) for g in np.array_split(np.arange(n_classes), n_tasks)]

    updates = []
    finetuned = []
    for k in range(n_tasks):
        X, labels = _class_batch(rng, means, groups[k], n_train, input_noise)
        T = np.zeros((n_train, n_classes))
        T[np.arange(n_train), labels] = 1.0
        net_k = _finetune_layer(base, merge_layer, X, T, train_steps, learning_rate)
        delta = net_k.layers[merge_layer - 1] - base.layers[merge_layer - 1]
        updates.append(ResidualUpdate(merge_layer, delta, k))
        finetuned.append(net_k)

    calibration = []
    for k in range(n_tasks):
        X, _ = _class_batch(rng, means, groups[k], n_samples, input_noise)
        Y = forward(finetuned[k], X)
        calibration.append(CalibrationSet.for_task(k, X, Y))

    meta = {
        "generator": "relu",
        "dims": dims,
        "merge_layer": merge_layer,
        "n_tasks": n_tasks,
        "n_samples": n_samples,
        "n_train": n_train,
        "train_steps": train_steps,
        "learning_rate": learning_rate,
        "input_noise": input_noise,
        "seed": seed,
        "class_groups": [[int(c) for c in g] for g in groups],
    }
    return ModelBundle(base, {merge_layer: updates}, calibration, meta)
