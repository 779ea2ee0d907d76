"""Dense multi-layer networks, forward evaluation, and local linearisation.

Layers are numbered 1..M and weight ``layers[l]`` maps the output of layer l
to the input of layer l+1.  Each gap between consecutive layers carries an
activation flag ("identity" or "relu"); no activation follows the last layer.
All operations here are pure: they never mutate their network arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IDENTITY = "identity"
RELU = "relu"
ACTIVATIONS = (IDENTITY, RELU)


class NumericalError(ArithmeticError):
    """Raised when non-finite values appear in an objective or a solve."""


def _as_float_matrix(value, name):
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


def _input_columns(net, x):
    """x as one column (d,) or as columns (d, n) of an (n, d) sample matrix.

    Working on columns keeps the one-vector case the plain W @ x it always
    was; a sample matrix goes through the same products as one GEMM.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(
            f"input must be a vector or an (n, d) sample matrix, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    if a.shape[-1] != net.input_dim:
        raise ValueError(
            f"input has dim {a.shape[-1]}, network expects {net.input_dim}"
        )
    return a.T


@dataclass
class LinearNetwork:
    """Stack of dense layers with per-gap activation flags.

    layers
        List of weight matrices, ``layers[l]`` of shape (out_l, in_l), with
        consecutive shapes chaining (in_{l+1} == out_l).
    activations
        One flag per gap (length ``len(layers) - 1``), each "identity" or
        "relu".  ``None`` means all identity, i.e. a purely linear network.
    """

    layers: list
    activations: list | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        self.layers = [
            _as_float_matrix(W, f"layer {i + 1}") for i, W in enumerate(self.layers)
        ]
        for i, W in enumerate(self.layers):
            if 0 in W.shape:
                raise ValueError(f"layer {i + 1} has shape {W.shape}; dimensions must be positive")
            if i and W.shape[1] != self.layers[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i + 1} expects input dim {W.shape[1]} but layer "
                    f"{i} produces dim {self.layers[i - 1].shape[0]}"
                )
        if self.activations is None:
            self.activations = [IDENTITY] * (len(self.layers) - 1)
        self.activations = [str(a) for a in self.activations]
        if len(self.activations) != len(self.layers) - 1:
            raise ValueError(
                f"expected {len(self.layers) - 1} activation flags, "
                f"got {len(self.activations)}"
            )
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].shape[0]

    def layer_shape(self, layer_index: int) -> tuple:
        """The (out, in) shape of layer N's weights; a ValueError outside 1..depth."""
        if not 1 <= layer_index <= self.depth:
            raise ValueError(f"layer index {layer_index} outside [1, {self.depth}]")
        return self.layers[layer_index - 1].shape


@dataclass
class ResidualUpdate:
    """Weight update delta = W_finetuned - W_base for one task at one layer."""

    layer_index: int
    delta: np.ndarray
    task_id: object = None

    def __post_init__(self):
        self.layer_index = int(self.layer_index)
        if self.layer_index < 1:
            raise ValueError("layer_index is 1-based and must be >= 1")
        self.delta = _as_float_matrix(self.delta, "delta")


def _delta_matrices(deltas):
    """The update matrices of ResidualUpdates or plain arrays, one shape for all."""
    mats = [
        d.delta if isinstance(d, ResidualUpdate) else np.asarray(d, dtype=float)
        for d in deltas
    ]
    if not mats:
        raise ValueError("no residual updates")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError("residual updates have mismatched shapes")
    return mats


def _propagate(net: LinearNetwork, cols, n_layers: int) -> list:
    """The activations after layers 0..n_layers of input columns, the input first."""
    acts = [cols]
    for i in range(n_layers):
        a = net.layers[i] @ acts[-1]
        acts.append(np.maximum(a, 0.0) if i < net.depth - 1 and net.activations[i] == RELU else a)
    return acts


def _backward(net, layer_index, acts, G):
    """Output rows G (n, c) pulled back to layer N's output, row j to L_j^T g_j; acts as rows."""
    for l in range(net.depth - 1, layer_index - 1, -1):
        G = G @ net.layers[l]
        if net.activations[l - 1] == RELU:
            G = np.where(acts[l] > 0.0, G, 0.0)  # not a product: a dead unit's inf reads 0
    return G


def forward(net: LinearNetwork, x) -> np.ndarray:
    """Evaluate the network on one input vector or on an (n, d) sample matrix."""
    return _propagate(net, _input_columns(net, x), net.depth)[-1].T


def layer_input(net: LinearNetwork, layer_index: int, x) -> np.ndarray:
    """The input actually fed into layer N, activations below included.

    x is one vector or an (n, d) sample matrix (one row out per row in).
    For N = 1 this is x itself.
    """
    net.layer_shape(layer_index)  # checks the index
    return _propagate(net, _input_columns(net, x), layer_index - 1)[-1].T


def linearize_downstream(net: LinearNetwork, layer_index: int, x) -> np.ndarray:
    """Jacobian of the map from layer N's output to the model output at x.

    ReLU gaps contribute diagonal 0/1 masks fixed by the base activation
    pattern; a pre-activation sitting exactly at zero masks to 0.  When every
    downstream gap is identity the result is the exact weight product, one
    (c, r) matrix independent of x, for a vector and a sample matrix alike.
    With a ReLU above layer N it is (c, r) for one vector and an (n, c, r)
    stack, one Jacobian per sample, for an (n, d) sample matrix.
    """
    return _downstream(net, layer_index, _propagate(net, _input_columns(net, x), net.depth - 1))


def _downstream(net, layer_index, acts):
    """linearize_downstream's Jacobian; ReLU masks read acts (a > 0), none if acts is None.

    The weights above N, multiplied up to their first ReLU gap, lose the columns N's ReLU
    masks (the bits of masking first); each later ReLU gap zeroes rows of the product.
    """
    r = net.layer_shape(layer_index)[0]  # checks the index
    if layer_index == net.depth:
        return np.eye(r)
    relu = [acts is not None and a == RELU for a in net.activations]
    top = next((i for i in range(layer_index, net.depth - 1) if relu[i]), net.depth - 1)
    A = net.layers[layer_index] + 0.0  # a copy with -0.0 as 0.0: the bits of W @ I
    for i in range(layer_index, top):
        A = net.layers[i + 1] @ A
    finite = top == net.depth - 1 and np.isfinite(A).all()  # A: the whole (c, r) product
    if relu[layer_index - 1]:
        A = np.where((acts[layer_index] > 0.0).T.copy()[..., None, :], A, 0.0)  # C-ordered
    for i in range(top, net.depth - 1):
        if relu[i]:
            A = (acts[i + 1] > 0.0).astype(float).T[..., None] * A  # rebound: two stacks at most
        A = net.layers[i + 1] @ A
    if not (finite or np.isfinite(A).all()):  # masking keeps a finite product finite
        raise NumericalError("downstream matrix contains non-finite entries")
    return A


def apply_merged_residual(
    net: LinearNetwork, layer_index: int, merged_delta
) -> LinearNetwork:
    """New network with merged_delta added to layer N's weights.

    The input network is left untouched; all arrays are copied.  A new layer that
    is not finite (a non-finite delta, or W + delta overflowing) is a NumericalError.
    """
    shape = net.layer_shape(layer_index)
    delta = np.asarray(merged_delta, dtype=float)
    if delta.shape != shape:
        raise ValueError(f"merged delta shape {delta.shape} does not match layer "
                         f"{layer_index} shape {shape}")
    layers = [W.copy() for W in net.layers]
    with np.errstate(over="ignore", invalid="ignore"):
        layers[layer_index - 1] = layers[layer_index - 1] + delta
    if not np.isfinite(layers[layer_index - 1]).all():
        raise NumericalError(f"merged layer {layer_index} contains non-finite weights")
    return LinearNetwork(layers, list(net.activations))
