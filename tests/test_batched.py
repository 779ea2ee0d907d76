"""Batched network passes, merge geometry and QP build against per-sample loops.

The references here evaluate one calibration sample at a time with the 1-D
network functions and sum in python, the way the library did before its
passes were stacked over sample matrices.  The stacked code sums in another
order, so results are compared within 1e-12 relative to the largest entry.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mergeqp as mq
from mergeqp import cli, qp

from conftest import make_linear_net, make_relu_net

REL = 1e-12


def _close(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = max(np.abs(expected).max(initial=0.0), 1e-300)
    assert np.abs(actual - expected).max(initial=0.0) <= REL * scale


def _loop_geometry(net, layer, calib):
    """Per-sample hidden inputs, downstream matrices and residuals."""
    hidden, maps, residuals = [], [], []
    for x, y in zip(calib.inputs, calib.targets):
        hidden.append(mq.layer_input(net, layer, x))
        maps.append(mq.linearize_downstream(net, layer, x).matrix)
        residuals.append(mq.forward(net, x) - y)
    return hidden, maps, residuals


def _loop_qp(net, deltas, calib, Q):
    """H, g and constant summed one sample at a time (the reference builder).

    Sample j contributes H += 2 outer(alpha, alpha) * tile(G) and
    g += 2 alpha * beta with alpha_kp = q_p^T delta_k u_j, beta = (L_j Q)^T b_j
    and G = (L_j Q)^T (L_j Q).
    """
    K = len(deltas)
    P = Q.shape[1]
    H = np.zeros((K * P, K * P))
    g = np.zeros(K * P)
    const = 0.0
    for u, L, b in zip(*_loop_geometry(net, deltas[0].layer_index, calib)):
        LQ = L @ Q
        alpha = np.stack([Q.T @ (d.delta @ u) for d in deltas])
        beta = LQ.T @ b
        G = LQ.T @ LQ
        aflat = alpha.ravel()
        H += np.outer(aflat, aflat) * np.tile(G, (K, K))
        g += (alpha * beta[None, :]).ravel()
        const += b @ b
    return 2.0 * H, 2.0 * g, const


NETS = {
    # name: (activations, layer to merge); dims are 4 -> 5 -> 6 -> 3
    "linear": (["identity", "identity"], 2),
    "relu-jacobian": (["relu", "relu"], 1),
    "relu-mid-jacobian": (["identity", "relu"], 2),
    "relu-below-fixed-map": (["relu", "identity"], 2),
}


def _instance(seed, net_name, n, K=2):
    rng = np.random.default_rng(seed)
    activations, layer = NETS[net_name]
    dims = (4, 5, 6, 3)
    net = mq.LinearNetwork(
        [rng.normal(size=(dims[i + 1], dims[i])) for i in range(3)], activations
    )
    shape = net.layer_shape(layer)
    deltas = [mq.ResidualUpdate(layer, 0.3 * rng.normal(size=shape), k) for k in range(K)]
    calib = mq.CalibrationSet(
        rng.normal(size=(n, 4)), rng.normal(size=(n, 3)), [k % K for k in range(n)]
    )
    return net, deltas, calib, rng


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    net_name=st.sampled_from(sorted(NETS)),
    random_basis=st.booleans(),
    n=st.integers(1, 20).filter(lambda n: n % 3),
)
def test_builder_matches_per_sample_oracle(seed, net_name, random_basis, n):
    net, deltas, calib, rng = _instance(seed, net_name, n)
    r = deltas[0].delta.shape[0]
    if random_basis:
        basis = mq.random_basis(r, 1 + seed % r, seed)
        Q = basis.columns
    else:
        basis = None
        Q = np.eye(r)
    c = net.output_dim
    dim = len(deltas) * Q.shape[1]
    # three samples per chunk, so n (never a multiple of 3) ends on a short chunk
    with mock.patch.object(qp, "_CHUNK_BYTES", 3 * 8 * c * dim):
        if basis is None:
            built = mq.build_diagonal_qp(net, deltas, calib)
        else:
            built = mq.build_general_basis_qp(net, deltas, calib, basis)
    H, g, const = _loop_qp(net, deltas, calib, Q)
    _close(built.H, H)
    _close(built.g, g)
    _close(built.constant, const)


def test_builder_default_chunks_match_oracle():
    net, deltas, calib, _ = _instance(7, "relu-jacobian", 1)
    dim = len(deltas) * deltas[0].delta.shape[0]
    step = qp._CHUNK_BYTES // (8 * net.output_dim * dim)
    net, deltas, calib, _ = _instance(7, "relu-jacobian", 2 * step + 5)
    H, g, const = _loop_qp(net, deltas, calib, np.eye(deltas[0].delta.shape[0]))
    built = mq.build_diagonal_qp(net, deltas, calib)
    _close(built.H, H)
    _close(built.g, g)
    _close(built.constant, const)


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_geometry_rows_match_per_sample_calls(net_name):
    net, deltas, calib, _ = _instance(3, net_name, 9)
    layer = deltas[0].layer_index
    geom = mq.merge_geometry(net, layer, calib)
    hidden, maps, residuals = _loop_geometry(net, layer, calib)
    assert geom.hidden_inputs.shape == (9, net.layer_shape(layer)[1])
    assert geom.downstream.matrix.shape == (9,) + maps[0].shape
    assert geom.residuals.shape == (9, net.output_dim)
    for j in range(9):
        _close(geom.hidden_inputs[j], hidden[j])
        _close(geom.downstream[j].matrix, maps[j])
        _close(geom.residuals[j], residuals[j])
    if geom.fixed_downstream:
        # one shared map broadcast over the samples, not n copies
        assert geom.downstream.matrix.strides[0] == 0


def test_batched_network_functions_match_rows_at_exact_zero():
    # integer weights and inputs keep the arithmetic exact, so the first and
    # third hidden pre-activations are exactly 0 on the first sample
    net = make_relu_net(
        [[1.0, -1.0], [1.0, 1.0], [2.0, -2.0]],
        [[1.0, 2.0, -1.0], [0.0, 1.0, 3.0]],
        [[1.0, -1.0]],
    )
    X = np.array([[1.0, 1.0], [2.0, -1.0], [-1.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(mq.forward(net, X), np.stack([mq.forward(net, x) for x in X]))
    for layer in (1, 2, 3):
        rows = np.stack([mq.layer_input(net, layer, x) for x in X])
        assert np.array_equal(mq.layer_input(net, layer, X), rows)
        batched = mq.linearize_downstream(net, layer, X)
        singles = [mq.linearize_downstream(net, layer, x) for x in X]
        assert batched.kind == singles[0].kind
        for j, single in enumerate(singles):
            assert np.array_equal(batched[j].matrix, single.matrix)
    # the pre-activation at exactly 0 masks its unit out (strict >)
    first = mq.linearize_downstream(net, 1, X[0]).matrix
    assert np.array_equal(first[:, [0, 2]], np.zeros((1, 2)))


def test_batched_network_functions_match_rows(rng):
    net = make_relu_net(rng.normal(size=(5, 4)), rng.normal(size=(6, 5)), rng.normal(size=(3, 6)))
    lin = make_linear_net(rng.normal(size=(5, 4)), rng.normal(size=(3, 5)))
    X = rng.normal(size=(7, 4))
    for model in (net, lin):
        _close(mq.forward(model, X), np.stack([mq.forward(model, x) for x in X]))
        for layer in range(1, model.depth + 1):
            rows = [mq.layer_input(model, layer, x) for x in X]
            _close(mq.layer_input(model, layer, X), np.stack(rows))
            batched = mq.linearize_downstream(model, layer, X)
            for j, x in enumerate(X):
                _close(batched[j].matrix, mq.linearize_downstream(model, layer, x).matrix)


def test_single_map_cannot_be_indexed(rng):
    m = mq.linearize_downstream(make_linear_net(np.eye(2)), 1, np.ones(2))
    with pytest.raises(TypeError):
        m[0]


def test_batched_input_validation():
    net = make_linear_net(np.eye(2))
    with pytest.raises(ValueError):
        mq.forward(net, np.ones((2, 3)))
    with pytest.raises(ValueError):
        mq.forward(net, np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        mq.layer_input(net, 1, np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_stacked_evaluators_match_per_sample_loops(net_name):
    net, deltas, calib, rng = _instance(11, net_name, 8)
    layer = deltas[0].layer_index
    hidden, maps, residuals = _loop_geometry(net, layer, calib)

    merged = 0.7 * deltas[0].delta - 0.2 * deltas[1].delta
    lin = sum(float(np.sum((L @ (merged @ u) + b) ** 2)) for u, L, b in zip(hidden, maps, residuals))
    _close(mq.linearized_delta_objective(net, layer, merged, calib), lin)

    sq = np.array([float(b @ b) for b in residuals])
    pooled, per_task = mq.calibration_mse(net, calib)
    _close(pooled, sq.mean())
    for t in (0, 1):
        _close(per_task[t], sq[[tid == t for tid in calib.task_ids]].mean())

    bundle = mq.ModelBundle(
        net,
        {layer: deltas},
        [mq.CalibrationSet.for_task(k, calib.inputs[k::2], calib.targets[k::2]) for k in (0, 1)],
    )
    for k, fisher in enumerate(cli._fisher_diagonals(bundle, layer)):
        total = np.zeros(net.layer_shape(layer))
        for j in range(k, len(calib), 2):
            grad = 2.0 * np.outer(maps[j].T @ residuals[j], hidden[j])
            total += grad * grad
        _close(fisher, total)


def test_interaction_error_matches_per_sample_loop(rng):
    net = make_linear_net(rng.normal(size=(4, 3)), rng.normal(size=(5, 4)), rng.normal(size=(2, 5)))
    d1 = mq.ResidualUpdate(1, 0.1 * rng.normal(size=(4, 3)), 0)
    d3 = mq.ResidualUpdate(3, 0.1 * rng.normal(size=(2, 5)), 0)
    calib = mq.CalibrationSet(rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
    a = mq.apply_merged_residual(net, 1, d1.delta)
    b = mq.apply_merged_residual(net, 3, d3.delta)
    ab = mq.apply_merged_residual(a, 3, d3.delta)
    loop = np.mean([
        np.linalg.norm(mq.forward(ab, x) - mq.forward(a, x) - mq.forward(b, x) + mq.forward(net, x))
        for x in calib.inputs
    ])
    _close(mq.interaction_error(net, d1, d3, calib), loop)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), K=st.integers(1, 3), rank=st.integers(1, 4))
def test_svd_basis_early_stop_equals_full_pass_prefix(seed, K, rank):
    rng = np.random.default_rng(seed)
    # updates of rank <= `rank` in dim 5, so a full pass can come up short
    ups = [
        mq.ResidualUpdate(1, rng.normal(size=(5, rank)) @ rng.normal(size=(rank, 4)), k)
        for k in range(K)
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        full = mq.svd_basis(ups, 5 * K * 4)  # more than all pooled vectors: no early stop
    assert full.rank_deficient and caught
    for p in range(1, 6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            basis = mq.svd_basis(ups, p)
        assert np.array_equal(basis.columns, full.columns[:, :p])
        assert basis.rank_deficient == (full.p < p)
        assert bool(caught) == (full.p < p)
