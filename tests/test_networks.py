"""Forward pass, layer inputs, and local linearization of small MLPs."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mergeqp as mq

from conftest import make_linear_net, make_relu_net, same_bits


def test_forward_identity_chain():
    net = make_linear_net([[2.0, 0.0], [0.0, 3.0]], [[1.0, 1.0]])
    y = mq.forward(net, [1.0, 1.0])
    # W2 @ (W1 @ x) = [1,1] @ [2,3]
    assert y.shape == (1,)
    assert y[0] == 5.0


def test_forward_relu_clamps_negative_preactivations():
    net = make_relu_net([[1.0], [-1.0]], [[1.0, 1.0]])
    assert mq.forward(net, [2.0])[0] == 2.0
    assert mq.forward(net, [-2.0])[0] == 2.0


def test_layer_input_applies_activations_below():
    net = make_relu_net([[1.0], [-1.0]], [[1.0, 1.0]])
    u = mq.layer_input(net, 2, [-3.0])
    assert np.array_equal(u, [0.0, 3.0])
    # layer 1 sees the raw input
    assert np.array_equal(mq.layer_input(net, 1, [-3.0]), [-3.0])


def test_linearize_matches_factorize_on_linear_nets(rng):
    net = make_linear_net(
        rng.normal(size=(4, 3)), rng.normal(size=(5, 4)), rng.normal(size=(2, 5))
    )
    # the weights above layer 1, multiplied onto the identity bottom-up
    L = np.eye(4)
    for W in net.layers[1:]:
        L = W @ L
    m = mq.linearize_downstream(net, 1, rng.normal(size=3))
    assert np.array_equal(m, L)


def test_non_finite_downstream_map_is_a_numerical_error():
    assert mq.NumericalError is mq.qp.NumericalError is mq.networks.NumericalError
    big = make_linear_net([[1.0]], [[1e300]], [[1e300]])
    with np.errstate(over="ignore"), pytest.raises(mq.NumericalError):
        mq.linearize_downstream(big, 1, [1.0])
    # the weight product above layer 1 overflows while building the geometry
    calib = mq.CalibrationSet([[1.0]], [[0.0]])
    with pytest.raises(mq.NumericalError, match="downstream matrix"):
        mq.merge_geometry(big, 1, calib)
    # under one ReLU gap the geometry checks the weight product W_top itself, so it raises
    # even when every sample masks the unit whose column overflows (x = -1)
    one_gap = mq.LinearNetwork(big.layers, ["relu", "identity"])
    for x in (1.0, -1.0):
        with pytest.raises(mq.NumericalError, match="downstream matrix"):
            mq.merge_geometry(one_gap, 1, mq.CalibrationSet([[x]], [[0.0]]))


def _sample_with_margin(rng, net, margin=1e-3, tries=200):
    # keep every downstream preactivation away from the relu kink
    for _ in range(tries):
        x = rng.normal(size=net.input_dim)
        a = np.asarray(x, dtype=float)
        ok = True
        for W, act in zip(net.layers, net.activations):
            pre = W @ a
            if act == "relu" and np.min(np.abs(pre)) < margin:
                ok = False
                break
            a = np.maximum(pre, 0.0) if act == "relu" else pre
        if ok:
            return x
    raise AssertionError("no input with margin found")


def test_linearize_downstream_matches_finite_differences(rng):
    net = make_relu_net(
        rng.normal(size=(6, 4)), rng.normal(size=(5, 6)), rng.normal(size=(3, 5))
    )
    for layer in (1, 2, 3):
        for _ in range(3):
            x = _sample_with_margin(rng, net)
            m = mq.linearize_downstream(net, layer, x)
            u = mq.layer_input(net, layer, x)
            V = rng.normal(size=net.layers[layer - 1].shape)
            h = 1e-6
            up = mq.forward(mq.apply_merged_residual(net, layer, h * V), x)
            dn = mq.forward(mq.apply_merged_residual(net, layer, -h * V), x)
            fd = (up - dn) / (2 * h)
            pred = m @ (V @ u)
            assert np.linalg.norm(fd - pred) <= 1e-5 * max(1.0, np.linalg.norm(pred))


def test_downstream_map_shapes(rng):
    # one (c, r) map when no ReLU lies above the layer, for a vector and a
    # sample matrix alike; an (n, c, r) stack of Jacobians when one does
    W1, W2 = rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
    lin, relu = make_linear_net(W1, W2), make_relu_net(W1, W2)
    X = rng.normal(size=(5, 2))
    calib = mq.CalibrationSet(X, rng.normal(size=(5, 4)))
    for x in (X[0], X):
        assert mq.linearize_downstream(lin, 1, x).shape == (4, 3)
        # nothing nonlinear above the last layer
        assert mq.linearize_downstream(relu, 2, x).shape == (4, 4)
    assert mq.linearize_downstream(relu, 1, X[0]).shape == (4, 3)
    assert mq.linearize_downstream(relu, 1, X).shape == (5, 4, 3)
    assert mq.merge_geometry(lin, 1, calib).fixed_downstream
    assert mq.merge_geometry(relu, 2, calib).fixed_downstream
    assert not mq.merge_geometry(relu, 1, calib).fixed_downstream


def _masked_identity_downstream(net, layer_index, x):
    """linearize_downstream as first written: the identity, each ReLU gap's mask applied to
    its rows, then the layer above; an (n, r, r) masked identity under a ReLU at layer N."""
    A = np.eye(net.layer_shape(layer_index)[0])
    for i in range(layer_index - 1, net.depth - 1):
        if net.activations[i] == "relu":
            A = (mq.layer_input(net, i + 2, x) > 0.0).astype(float)[..., None] * A
        A = net.layers[i + 1] @ A
    return A


@settings(deadline=None, max_examples=150)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=6),
    gaps=st.integers(0, 15),
    pick=st.integers(0, 4),
    n=st.integers(0, 4),
    integers=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# three ReLU gaps above layer 1 with an identity gap between, a ReLU at layer 1's output
# under two identity gaps and then a ReLU, one ReLU gap under one layer (the stack is the
# masked weights themselves), and the last layer
@example(dims=[3, 5, 4, 4, 3, 2], gaps=0b1011, pick=0, n=3, integers=True, seed=0)
@example(dims=[3, 5, 4, 4, 3, 2], gaps=0b1001, pick=0, n=3, integers=False, seed=1)
@example(dims=[3, 5, 4], gaps=0b1, pick=0, n=3, integers=False, seed=0)
@example(dims=[3, 5, 4, 2], gaps=0b11, pick=2, n=0, integers=False, seed=0)
def test_downstream_matches_the_masked_identity_product_bit_for_bit(
    dims, gaps, pick, n, integers, seed
):
    # gaps' bit i sets a ReLU at layer i + 1's output; n = 0 is one input vector.  Weights
    # hold exact zeros of both signs, and small integers put pre-activations at exactly 0
    rng = np.random.default_rng(seed)
    depth = len(dims) - 1

    def draw(shape):
        scale = rng.integers(-2, 3, size=shape) if integers else rng.normal(size=shape)
        return scale * rng.choice([-1.0, 0.0, 1.0], size=shape)

    activations = ["relu" if gaps >> i & 1 else "identity" for i in range(depth - 1)]
    net = mq.LinearNetwork([draw((dims[i + 1], dims[i])) for i in range(depth)], activations)
    layer = 1 + pick % depth
    x = draw((n, dims[0]) if n else (dims[0],))
    got = mq.linearize_downstream(net, layer, x)
    assert same_bits(got, _masked_identity_downstream(net, layer, x))
    assert got.flags.c_contiguous
    if n:
        calib = mq.CalibrationSet(x, draw((n, dims[-1])))
        assert same_bits(mq.merge_geometry(net, layer, calib).downstream, got)


def test_one_gap_downstream_checks_the_product_before_the_stack():
    # W3 W2 overflows in column 0 only: unit 0 of layer 1, which the ReLU at its output
    # masks when x < 0.  The masked stack is finite, with the bits of the masked identity
    # product, unless a sample activates that unit
    net = mq.LinearNetwork(
        [[[1.0], [-1.0]], [[1e300, 1.0], [1e300, 1.0]], [[1e300, 1e300]]], ["relu", "identity"]
    )
    with np.errstate(over="ignore"):
        for x in ([-1.0], [[-1.0], [-2.0]], [[-1.0], [0.0], [-3.0]]):
            got = mq.linearize_downstream(net, 1, x)
            assert same_bits(got, _masked_identity_downstream(net, 1, x))
            assert got[..., 1].max() == 2e300 and not got[..., 0].any()
        for x in ([1.0], [[-1.0], [1.0]]):
            with pytest.raises(mq.NumericalError, match="downstream matrix"):
                mq.linearize_downstream(net, 1, x)


def test_finite_one_gap_stack_is_not_scanned(rng):
    # a ReLU at layer 1's output and nothing above: the finite (c, r) product is checked, so
    # no n c r boolean scan of the masked stack is made (it took 1.125 stacks)
    d, r, c, n = 4, 64, 64, 100
    net = mq.LinearNetwork([rng.normal(size=(r, d)), rng.normal(size=(c, r))], ["relu"])
    x = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stack = mq.linearize_downstream(net, 1, x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stack.shape == (n, c, r)
    assert peak < 1.0625 * stack.nbytes


def test_apply_merged_residual_leaves_base_untouched():
    net = make_linear_net([[1.0, 0.0], [0.0, 1.0]])
    before = net.layers[0].copy()
    merged = mq.apply_merged_residual(net, 1, np.ones((2, 2)))
    assert np.array_equal(net.layers[0], before)
    assert np.array_equal(merged.layers[0], before + 1.0)


def test_apply_merged_residual_owns_finiteness():
    # the new layer is checked where it is made: a non-finite delta, or W + delta past the
    # largest double, is a NumericalError naming the layer, raised without a numpy warning
    net = make_linear_net([[1e308]], [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in ([[1e308]], [[np.nan]], [[-np.inf]]):
            with pytest.raises(mq.NumericalError, match="^merged layer 1 contains non-finite"):
                mq.apply_merged_residual(net, 1, delta)
    with pytest.raises(ValueError, match=re.escape("merged delta shape (1, 2) does not match")):
        mq.apply_merged_residual(net, 1, np.ones((1, 2)))
    assert mq.apply_merged_residual(net, 1, [[-1e308]]).layers[0][0, 0] == 0.0


def test_network_validation():
    with pytest.raises(ValueError):
        mq.LinearNetwork([np.ones((2, 3)), np.ones((2, 3))])  # chain mismatch
    with pytest.raises(ValueError):
        mq.LinearNetwork([np.ones((2, 2)), np.ones((2, 2))], ["sigmoid"])
    with pytest.raises(ValueError):
        mq.LinearNetwork([np.array([[np.inf, 0.0], [0.0, 1.0]])])
    # an empty layer could never load back from a bundle file
    with pytest.raises(ValueError, match=re.escape("layer 1 has shape (2, 0)")):
        mq.LinearNetwork([np.ones((2, 0))])
    with pytest.raises(ValueError, match=re.escape("layer 2 has shape (0, 2)")):
        mq.LinearNetwork([np.ones((2, 3)), np.ones((0, 2))])


def test_layer_index_bounds():
    net = make_linear_net([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        mq.apply_merged_residual(net, 0, np.ones((1, 1)))
    with pytest.raises(ValueError):
        mq.apply_merged_residual(net, 3, np.ones((1, 1)))


def test_network_properties():
    net = make_linear_net(np.ones((4, 3)), np.ones((2, 4)))
    assert net.depth == 2
    assert net.input_dim == 3
    assert net.output_dim == 2
    assert net.layer_shape(2) == (2, 4)
