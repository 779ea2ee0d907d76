"""Batched network passes, merge geometry and QP build against per-sample loops.

The references here evaluate one calibration sample at a time with the 1-D
network functions and sum in python, the way the library did before its
passes were stacked over sample matrices.  The prefix-sweep references
take one output-image SVD per sample and prefix and build one QP per
prefix, the way diagnose did before it swept each basis chain in one pass.
The stacked code sums in another order, so results are compared within
1e-12 relative to the largest entry.
"""

import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mergeqp as mq
from mergeqp import cli, networks, qp, subspaces

from conftest import make_linear_net, make_relu_net, same_bits

REL = 1e-12


def _close(actual, expected, floor=0.0):
    """actual within REL of the largest |expected|, or of floor if that is larger."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = max(np.abs(expected).max(initial=0.0), floor, 1e-300)
    assert np.abs(actual - expected).max(initial=0.0) <= REL * scale


def _loop_geometry(net, layer, calib):
    """Per-sample hidden inputs, downstream matrices and residuals."""
    hidden, maps, residuals = [], [], []
    for x, y in zip(calib.inputs, calib.targets):
        hidden.append(mq.layer_input(net, layer, x))
        maps.append(mq.linearize_downstream(net, layer, x))
        residuals.append(mq.forward(net, x) - y)
    return hidden, maps, residuals


def _per_sample(maps, n):
    """The map of each of n samples: a (c, r) map is every sample's."""
    return maps if maps.ndim == 3 else [maps] * n


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
    # one ReLU gap, at layer 1's output, under the product of layers 2 and 3
    "relu-one-gap-product": (["relu", "identity"], 1),
}
# the nets whose Jacobians are W_top diag(m_j): MergeGeometry.one_gap holds the factors
ONE_GAP_NETS = ("relu-mid-jacobian", "relu-one-gap-product")


def _instance(seed, net_name, n, K=2, weights=None):
    """A net from NETS, K updates at its merge layer and n labelled calibration samples.

    weights "zero-column" zeroes column 0 of every weight product above the merge
    layer; "masks-on" and "masks-off" put every pre-activation of the merge layer
    above, or at or below, zero (all its ReLU masks 1 or 0 on a one-gap net).
    """
    rng = np.random.default_rng(seed)
    activations, layer = NETS[net_name]
    dims = (4, 5, 6, 3)
    layers = [rng.normal(size=(dims[i + 1], dims[i])) for i in range(3)]
    shape = layers[layer - 1].shape
    deltas = [mq.ResidualUpdate(layer, 0.3 * rng.normal(size=shape), k) for k in range(K)]
    X, Y = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    if weights == "zero-column":
        layers[layer][:, 0] = 0.0
    elif weights in ("masks-on", "masks-off"):
        # nonnegative inputs and layers below: the merge layer's signs fix its outputs'
        X, layers[:layer] = np.abs(X), [np.abs(W) for W in layers[:layer]]
        layers[layer - 1] *= 1.0 if weights == "masks-on" else -1.0
    net = mq.LinearNetwork(layers, activations)
    calib = mq.CalibrationSet(X, Y, [k % K for k in range(n)])
    return net, deltas, calib, rng


class _WindowSpy(np.ndarray):
    """A Jacobian stack that records the keys (sample windows) a build reads it by."""

    windows = ()

    def __getitem__(self, key):
        self.windows = [*self.windows, key]
        return self.view(np.ndarray)[key]


def _oracle_basis(kind, r, seed):
    """None (the diagonal QP), a random basis, or P < r permuted coordinate directions."""
    if kind == "diagonal":
        return None
    if kind == "random":
        return mq.random_basis(r, 1 + seed % r, seed)
    p = 1 + seed % (r - 1)
    basis = mq.standard_basis(r, p, np.random.default_rng(seed).permutation(r))
    if kind == "negated":  # a -e_s column: orthonormal, but not a coordinate selection
        basis = mq.OrthonormalBasis(basis.columns * np.where(np.arange(p) == 0, -1.0, 1.0),
                                    "standard")
    return basis


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    net_name=st.sampled_from(sorted(NETS)),
    weights=st.sampled_from([None, "zero-column", "masks-on", "masks-off"]),
    basis_kind=st.sampled_from(["diagonal", "random", "standard", "negated"]),
    n=st.integers(1, 20).filter(lambda n: n % 3),
)
def test_builder_matches_per_sample_oracle(seed, net_name, weights, basis_kind, n):
    net, deltas, calib, rng = _instance(seed, net_name, n, weights=weights)
    r = deltas[0].delta.shape[0]
    basis = _oracle_basis(basis_kind, r, seed)
    Q = np.eye(r) if basis is None else basis.columns
    geometry = mq.merge_geometry(net, deltas[0].layer_index, calib)
    assert (geometry.one_gap is not None) == (net_name in ONE_GAP_NETS)
    if geometry.one_gap and weights in ("masks-on", "masks-off"):
        assert np.all(geometry.one_gap[1] == (weights == "masks-on"))
    geometry.downstream = spy = geometry.downstream.view(_WindowSpy)
    # windows of three samples, so n (never a multiple of 3) ends on a window of 2 or 4
    with mock.patch.object(subspaces, "_WINDOW", 3):
        if basis is None:
            built = mq.build_diagonal_qp(geometry, deltas)
        else:
            built = mq.build_general_basis_qp(geometry, deltas, basis)
    # a one-gap map under I or a coordinate selection takes the masked GEMM instead
    masked = net_name in ONE_GAP_NETS and basis_kind in ("diagonal", "standard")
    assert bool(spy.windows) == (spy.ndim == 3 and not masked)
    H, g, const = _loop_qp(net, deltas, calib, Q)
    _close(built.H, H)
    _close(built.g, g)
    _close(built.constant, const)


def test_builder_default_windows_match_oracle():
    # two windows of the default size, the second taking the last sample
    net, deltas, calib, _ = _instance(7, "relu-jacobian", 2 * subspaces._WINDOW + 1)
    H, g, const = _loop_qp(net, deltas, calib, np.eye(deltas[0].delta.shape[0]))
    built = mq.build_diagonal_qp(mq.merge_geometry(net, deltas[0].layer_index, calib), deltas)
    _close(built.H, H)
    _close(built.g, g)
    _close(built.constant, const)


def test_build_and_energies_read_the_same_sample_windows():
    # one patch of subspaces._WINDOW reaches both passes over a per-sample stack; 10 samples
    # in windows of 3 end on a window of 4, not on a lone sample
    net, deltas, calib, _ = _instance(5, "relu-jacobian", 10)
    geometry = mq.merge_geometry(net, deltas[0].layer_index, calib)
    basis = mq.random_basis(deltas[0].delta.shape[0], 3, 5)
    geometry.downstream = spy = geometry.downstream.view(_WindowSpy)
    kernel = mock.patch.object(
        subspaces, "_orthonormalize_stack", wraps=subspaces._orthonormalize_stack
    )
    with mock.patch.object(subspaces, "_WINDOW", 3), kernel as calls:
        mq.build_general_basis_qp(geometry, deltas, basis)
        mq.prefix_captured_energy(geometry.downstream, basis, geometry.residuals)
    assert spy.windows == [slice(0, 3), slice(3, 6), slice(6, 10)]
    assert [len(call.args[0]) for call in calls.call_args_list] == [3, 3, 4]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    net_name=st.sampled_from(sorted(NETS)),
    random_basis=st.booleans(),
    dims=st.tuples(*[st.integers(1, 24)] * 4),
    K=st.integers(1, 8),
    n=st.integers(7, 40),
)
def test_builder_hessian_is_exactly_symmetric(seed, net_name, random_basis, dims, K, n):
    # builder QPs skip QuadraticObjective's symmetry scan on the strength of this
    rng = np.random.default_rng(seed)
    activations, layer = NETS[net_name]
    net = mq.LinearNetwork(
        [rng.normal(size=(dims[i + 1], dims[i])) for i in range(3)], activations
    )
    shape = net.layer_shape(layer)
    deltas = [mq.ResidualUpdate(layer, rng.normal(size=shape), k) for k in range(K)]
    calib = mq.CalibrationSet(rng.normal(size=(n, dims[0])), rng.normal(size=(n, dims[3])))
    geometry = mq.merge_geometry(net, layer, calib)
    r = shape[0]
    basis = mq.random_basis(r, 1 + seed % r, seed) if random_basis else None
    # windows of three samples, so a per-sample map sums at least two windows
    with mock.patch.object(subspaces, "_WINDOW", 3):
        if basis is None:
            built = mq.build_diagonal_qp(geometry, deltas)
        else:
            built = mq.build_general_basis_qp(geometry, deltas, basis)
    assert np.array_equal(built.H, built.H.T)


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_geometry_rows_match_per_sample_calls(net_name):
    net, deltas, calib, _ = _instance(3, net_name, 9)
    layer = deltas[0].layer_index
    geom = mq.merge_geometry(net, layer, calib)
    hidden, maps, residuals = _loop_geometry(net, layer, calib)
    assert geom.hidden_inputs.shape == (9, net.layer_shape(layer)[1])
    # a fixed map is one (c, r) matrix shared by the samples, not n copies
    n_maps = () if geom.fixed_downstream else (9,)
    assert geom.downstream.shape == n_maps + maps[0].shape
    assert geom.residuals.shape == (9, net.output_dim)
    for j in range(9):
        _close(geom.hidden_inputs[j], hidden[j])
        _close(_per_sample(geom.downstream, 9)[j], maps[j])
        _close(geom.residuals[j], residuals[j])


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
        batched = _per_sample(mq.linearize_downstream(net, layer, X), len(X))
        for j, x in enumerate(X):
            assert np.array_equal(batched[j], mq.linearize_downstream(net, layer, x))
    # the pre-activation at exactly 0 masks its unit out (strict >)
    first = mq.linearize_downstream(net, 1, X[0])
    assert np.array_equal(first[:, [0, 2]], np.zeros((1, 2)))


def test_batched_network_functions_match_rows(rng):
    net = make_relu_net(rng.normal(size=(5, 4)), rng.normal(size=(6, 5)), rng.normal(size=(3, 6)))
    lin = make_linear_net(rng.normal(size=(5, 4)), rng.normal(size=(3, 5)))
    # one ReLU gap, under identity gaps: layer 1's W_top is a product of three layers
    one_gap = mq.LinearNetwork([rng.normal(size=s) for s in ((5, 4), (6, 5), (4, 6), (3, 4))],
                               ["relu", "identity", "identity"])
    X = rng.normal(size=(7, 4))
    for model in (net, lin, one_gap):
        _close(mq.forward(model, X), np.stack([mq.forward(model, x) for x in X]))
        for layer in range(1, model.depth + 1):
            rows = [mq.layer_input(model, layer, x) for x in X]
            _close(mq.layer_input(model, layer, X), np.stack(rows))
            batched = _per_sample(mq.linearize_downstream(model, layer, X), len(X))
            for j, x in enumerate(X):  # bits, signed zeros included
                assert same_bits(batched[j], mq.linearize_downstream(model, layer, x))


def test_batched_input_validation():
    net = make_linear_net(np.eye(2))
    with pytest.raises(ValueError):
        mq.forward(net, np.ones((2, 3)))
    with pytest.raises(ValueError):
        mq.forward(net, np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        mq.layer_input(net, 1, np.array([[np.nan, 0.0]]))


def _sample_path_mse(net, calib):
    """calibration_mse's per-sample path: the model on every row, per-task means by label."""
    E = mq.forward(net, calib.inputs) - calib.targets
    sq = np.einsum("jc,jc->j", E, E)
    labels = sorted(set(calib.task_ids or ()), key=repr)
    ids = np.array(calib.task_ids or (), dtype=object)
    return float(sq.mean()), {t: float(sq[ids == t].mean()) for t in labels}


# Task layouts of a 4-in, 3-out calibration set, one label per row (None: an
# unlabelled set).  The factor rule is n_t >= 2 (d + c) = 14 for every task.
LAYOUTS = {
    "unequal": [0] * 14 + [1] * 20 + [2] * 31,
    "interleaved": [k % 3 for k in range(45)],
    "a-task-one-row-short": [0] * 13 + [1] * 20,
    "unlabelled": None,
    "none-label": [None] * 15 + ["b"] * 16,
}


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_stacked_evaluators_match_per_sample_loops(net_name):
    net, deltas, calib, rng = _instance(11, net_name, 8)
    layer = deltas[0].layer_index
    hidden, maps, residuals = _loop_geometry(net, layer, calib)

    merged = 0.7 * deltas[0].delta - 0.2 * deltas[1].delta
    lin = sum(float(np.sum((L @ (merged @ u) + b) ** 2)) for u, L, b in zip(hidden, maps, residuals))
    _close(mq.linearized_delta_objective(mq.merge_geometry(net, layer, calib), merged), lin)

    sq = np.array([float(b @ b) for b in residuals])
    pooled, per_task = mq.calibration_mse(net, calib)
    _close(pooled, sq.mean())
    for t in (0, 1):
        _close(per_task[t], sq[[tid == t for tid in calib.task_ids]].mean())

    for k, fisher in enumerate(mq.fisher_diagonals(net, calib, [0, 1], [layer])[layer]):
        total = np.zeros(net.layer_shape(layer))
        for j in range(k, len(calib), 2):
            grad = 2.0 * np.outer(maps[j].T @ residuals[j], hidden[j])
            total += grad * grad
        _close(fisher, total)

    eps = np.finfo(float).eps
    linear = "relu" not in net.activations
    for name, ids in LAYOUTS.items():
        n = 30 if ids is None else len(ids)
        sets = mq.CalibrationSet(rng.normal(size=(n, 4)), rng.normal(size=(n, 3)), ids)
        factored = name in ("unequal", "interleaved", "unlabelled", "none-label")
        assert (sets.task_factors is not None) == factored
        pooled, per_task = mq.calibration_mse(net, sets)
        if not (linear and factored):
            # ReLU nets and sets below the rule keep the per-sample path, bit for bit
            want_pooled, want_tasks = _sample_path_mse(net, sets)
            assert list(per_task) == list(want_tasks)
            assert same_bits([pooled, *per_task.values()], [want_pooled, *want_tasks.values()])
            continue
        # the factor's error bound: eps (||h(X_t)||^2 + ||Y_t||^2), not a share of the mse
        out = np.stack([mq.forward(net, x) for x in sets.inputs])
        sq = np.array([float(np.sum((h - y) ** 2)) for h, y in zip(out, sets.targets)])
        labels = np.array(ids or [None] * n, dtype=object)  # unlabelled: one group, the pool
        for t in set(labels):
            rows = labels == t
            scale = (np.sum(out[rows] ** 2) + np.sum(sets.targets[rows] ** 2)) / rows.sum()
            got = pooled if ids is None else per_task[t]
            assert abs(got - sq[rows].mean()) <= 8 * 7 * eps * scale
        scale = (np.sum(out ** 2) + np.sum(sets.targets ** 2)) / n
        assert abs(pooled - sq.mean()) <= 8 * 7 * eps * scale
        assert list(per_task) == sorted(set(ids or ()), key=repr)

    # fisher reads the set's grouping: the rows an object-array label match picks, bit for bit
    sets = mq.CalibrationSet(rng.normal(size=(45, 4)), rng.normal(size=(45, 3)), LAYOUTS["interleaved"])
    acts = [a.T for a in networks._propagate(net, sets.inputs.T, net.depth)]
    M, U = networks._backward(net, layer, acts, acts[-1] - sets.targets), acts[layer - 1]
    labels = np.array(sets.task_ids, dtype=object)
    want = [4.0 * (M * M)[labels == t].T @ (U * U)[labels == t] for t in (2, 0)]
    got = mq.fisher_diagonals(net, sets, [2, 0], [layer])[layer]
    assert len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))
    for labelled, missing in ((sets, 3), (mq.CalibrationSet(sets.inputs, sets.targets), 0)):
        with pytest.raises(ValueError, match=f"task {missing!r} has no calibration samples"):
            mq.fisher_diagonals(net, labelled, [0, missing], [layer])


def test_calibration_views_follow_reassigned_fields():
    # reassigning a field drops the cached task views; an augmented assignment reassigns
    net, _, _, rng = _instance(5, "linear", 8)
    ids = LAYOUTS["unequal"]
    X, Y = rng.normal(size=(len(ids), 4)), rng.normal(size=(len(ids), 3))
    calib = mq.CalibrationSet(X.copy(), Y.copy(), ids)
    assert mq.calibration_mse(net, calib) == mq.calibration_mse(net, mq.CalibrationSet(X, Y, ids))
    calib.inputs = 2.0 * calib.inputs
    calib.targets *= 0.5
    assert mq.calibration_mse(net, calib) == mq.calibration_mse(
        net, mq.CalibrationSet(2.0 * X, 0.5 * Y, ids))
    calib.task_ids = ids[::-1]
    assert mq.calibration_mse(net, calib) == mq.calibration_mse(
        net, mq.CalibrationSet(2.0 * X, 0.5 * Y, ids[::-1]))
    calib.task_ids = [0] * 13 + [1] * (len(ids) - 13)  # a task below the factor rule
    assert calib.task_factors is None
    assert mq.calibration_mse(net, calib) == _sample_path_mse(net, calib)


def test_factor_path_overflow_is_a_numerical_error():
    net, _, _, rng = _instance(5, "linear", 8)
    ids = LAYOUTS["unequal"]
    calib = mq.CalibrationSet(rng.normal(size=(len(ids), 4)), rng.normal(size=(len(ids), 3)), ids)
    huge = mq.LinearNetwork([1e150 * W for W in net.layers], net.activations)
    assert calib.task_factors is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mq.NumericalError, match="calibration mse is"):
            mq.calibration_mse(huge, calib)


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
    full = mq.svd_basis(ups, 5 * K * 4)  # more than all pooled vectors: no early stop
    assert full.rank_deficient
    for p in range(1, 6):
        basis = mq.svd_basis(ups, p)
        assert np.array_equal(basis.columns, full.columns[:, :p])
        assert basis.rank_deficient == (full.p < p)


def _output_image(L, basis):
    """Orthonormal columns U spanning span(L Q), from the SVD of B = L Q.

    Singular values at or below s_max * max(shape) * eps count as zero, so a
    rank-deficient B gives fewer columns than Q (none when B = 0).
    """
    B = np.asarray(L, dtype=float) @ np.asarray(getattr(basis, "columns", basis), dtype=float)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return U[:, :0]
    return U[:, s > s[0] * max(B.shape) * np.finfo(float).eps]


def _output_projector(L, basis):
    """Orthogonal projector onto span(L Q) = B (B^T B)^+ B^T with B = L Q.

    Built as U U^T from _output_image, so the result is symmetric and
    idempotent to machine precision even when B is rank-deficient.
    """
    Uk = _output_image(L, basis)
    P = Uk @ Uk.T
    return 0.5 * (P + P.T)


def test_output_projector_idempotent_symmetric(rng):
    L = rng.normal(size=(3, 5))
    basis = mq.random_basis(5, 2, seed=4)
    P = _output_projector(L, basis)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.isclose(np.trace(P), np.linalg.matrix_rank(L @ basis.columns))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 4))
def test_projector_contracts_for_any_seed(seed, p):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(4, 5))
    P = _output_projector(L, mq.random_basis(5, p, seed=seed))
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(P, P.T, atol=1e-12)
    b = rng.normal(size=4)
    assert np.linalg.norm(P @ b) <= np.linalg.norm(b) + 1e-12


def _loop_prefix_energy(maps, Q, B):
    """Captured energy of each prefix, one output-image SVD at a time.

    b_j^T P_j b_j = ||U_j^T b_j||^2 with U_j from _output_image, summed one
    sample at a time; a fixed map gets one SVD per prefix.  The squares are
    summed rather than b^T P b or tr(S P) formed: those cancel down from
    ||b||^2 and lose about 1e-12 of a small captured energy.
    """
    fixed = isinstance(maps, np.ndarray) and maps.ndim == 2
    out = []
    for p in range(1, Q.shape[1] + 1):
        total = 0.0
        for L, b in zip([maps] * len(B) if fixed else maps, B):
            total += float(((_output_image(L, Q[:, :p]).T @ b) ** 2).sum())
        out.append(total)
    return np.array(out)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    fixed=st.booleans(),
    standard=st.booleans(),
    n=st.integers(1, 12),
    p=st.integers(1, 4),
)
# fixed maps that capture 1e-8 to 1e-11 of the residual energy
@example(seed=1449, fixed=True, standard=True, n=1, p=1)
@example(seed=1951, fixed=True, standard=False, n=1, p=1)
@example(seed=3610, fixed=True, standard=False, n=1, p=1)
def test_prefix_energy_matches_projector_loop(seed, fixed, standard, n, p):
    rng = np.random.default_rng(seed)
    # Small integer weights and inputs put many pre-activations exactly at 0;
    # the zero input switches every unit off (a zero Jacobian); with 3 hidden
    # units above the 4-unit merge layer, L_j Q is rank-deficient for p = 4
    # on every sample, and for smaller p wherever units are inactive.  The
    # fixed map W3 W2 has rank 3, so p = 4 exceeds it too.
    dims = (3, 4, 3, 5)
    net = mq.LinearNetwork(
        [rng.integers(-2, 3, size=(dims[i + 1], dims[i])).astype(float) for i in range(3)],
        ["identity", "identity"] if fixed else ["relu", "relu"],
    )
    X = rng.integers(-2, 3, size=(n, 3)).astype(float)
    X[0] = 0.0
    calib = mq.CalibrationSet(X, rng.normal(size=(n, 5)))
    geom = mq.merge_geometry(net, 1, calib)
    basis = mq.standard_basis(4, p, rng.permutation(4)) if standard else mq.random_basis(4, p, seed)
    if fixed:
        maps = geom.downstream
    else:
        maps = [mq.linearize_downstream(net, 1, x) for x in X]
    expected = _loop_prefix_energy(maps, basis.columns, geom.residuals)
    got = mq.prefix_captured_energy(geom.downstream, basis, geom.residuals)
    total = float(np.trace(mq.energy_matrix(geom.residuals)))
    # A fixed map that captures E << ||B||^2 reads each (q^T b)^2 with condition
    # about 2 ||b|| / sqrt(E), so no evaluation gets within 1e-12 of E: the
    # error scale is sqrt(E ||B||^2), which is about E once E is comparable
    # to ||B||^2.
    floor = np.sqrt(np.abs(expected).max(initial=0.0) * total) if fixed else 0.0
    _close(got, expected, floor)
    # the per-sample maps, stacked by hand, give the same energies
    _close(mq.prefix_captured_energy(np.asarray(maps), basis, geom.residuals), expected, floor)
    assert mq.basis_fraction(basis, geom) == (1.0 if total == 0.0 else got[-1] / total)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), eps_exp=st.integers(3, 8))
def test_orthonormalized_stack_is_orthonormal_and_spans_prefixes(seed, eps_exp):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(4, 6, 5))
    M[:, :, 2] = M[:, :, 0] + 10.0**-eps_exp * rng.normal(size=(4, 6))  # nearly dependent
    M[:, :, 3] = 2.0 * M[:, :, 1]  # exactly dependent
    M[1] = 0.0  # a zero map
    Q = subspaces._orthonormalize_stack(M)
    for j in range(4):
        norms = np.linalg.norm(Q[j], axis=0)
        kept = norms > 0
        assert np.all(np.abs(norms[kept] - 1.0) <= 1e-14)
        assert kept.tolist() == ([False] * 5 if j == 1 else [True, True, True, False, True])
        # kept columns orthonormal to working precision even with a 1e-8
        # near-dependence; a single Gram-Schmidt pass loses about 1e-16 / 1e-8
        assert np.abs(Q[j].T @ Q[j] - np.diag(kept.astype(float))).max() <= 1e-13
        for p in range(1, 6):
            head = M[j, :, :p]
            resid = head - Q[j, :, :p] @ (Q[j, :, :p].T @ head)
            assert np.abs(resid).max() <= 1e-12 * max(np.abs(M[j]).max(), 1e-300)


def _prefix_objective(qp, p):
    """The QP over the first p directions, sliced out of the QP over all.

    Coefficients are task-major, so restricting every task to directions
    0..p-1 keeps flat indices k * P + i for i < p: the sub-block of H, the
    entries of g and the same constant.
    """
    P = qp.n_directions
    if not 1 <= p <= P:
        raise ValueError(f"prefix size {p} outside [1, {P}]")
    idx = (np.arange(qp.n_tasks)[:, None] * P + np.arange(p)).ravel()
    return mq.QuadraticObjective(
        qp.H[np.ix_(idx, idx)], qp.g[idx], qp.constant,
        n_tasks=qp.n_tasks, n_directions=p, basis_id=qp.basis_id,
    )


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_prefix_objective_equals_fresh_prefix_build(net_name):
    net, deltas, calib, _ = _instance(5, net_name, 7, K=3)
    r = deltas[0].delta.shape[0]
    chain = mq.random_basis(r, r, 5)
    geometry = mq.merge_geometry(net, deltas[0].layer_index, calib)
    full = mq.build_general_basis_qp(geometry, deltas, chain)
    for p in range(1, r + 1):
        sliced = _prefix_objective(full, p)
        fresh = mq.build_general_basis_qp(geometry, deltas, chain.prefix(p))
        assert (sliced.n_tasks, sliced.n_directions) == (3, p)
        assert sliced.basis_id == fresh.basis_id
        _close(sliced.H, fresh.H)
        _close(sliced.g, fresh.g)
        _close(sliced.constant, fresh.constant)
    with pytest.raises(ValueError):
        _prefix_objective(full, r + 1)


def test_prefix_sweep_takes_every_prefix_from_one_factor(tmp_path):
    # the relu-sweep benchmark bundle: update rows that are exactly zero give the standard
    # chain's H exactly zero rows, so only its live block is positive definite, as every
    # other chain's whole H is.  Their pivots are 0, so the standard chain is factored by
    # the loop of rank-1 updates, one a coordinate, and every other chain by LAPACK alone
    path = tmp_path / "relu.json"
    assert cli.main(["gen", "--kind", "relu", "--dims", "64,48,32,16", "--merge-layer", "2",
                     "--tasks", "4", "--n-calib", "40", "--seed", "0", "--out", str(path)]) == 0
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    deltas = bundle.residuals[2]
    geometry = mq.merge_geometry(bundle.base, 2, calib)
    chains = [(kind, 0) for kind in ("eigen", "standard", "svd")] + [("random", s) for s in range(3)]
    certified, dead = {}, {}
    for kind, seed in chains:
        chain = mq.layer_basis(kind, 16, seed, deltas, geometry)
        full = mq.build_general_basis_qp(geometry, deltas, chain)
        with mock.patch.object(np, "outer", wraps=np.outer) as update:
            rows = mq.prefix_sweep(geometry, deltas, chain)
        _, H, _ = qp._live_block(full)
        certified[kind, seed], dead[kind, seed] = qp._certified(H), full.dim - len(H)
        assert update.call_count == (full.dim if dead[kind, seed] else 0)
        qp_mse = [row[3] for row in rows]
        for p, got in enumerate(qp_mse, start=1):
            # the oracle: the eigen cut on the whole prefix block, dead rows included
            sub = _prefix_objective(full, p)
            want = mq.objective_value(sub, qp._eigen_cut(sub.H, sub.g)[0]) / len(calib)
            assert abs(got - want) <= REL * abs(want)
        # each prefix's QP is a restriction of the next one's
        assert all(b <= a for a, b in zip(qp_mse, qp_mse[1:]))
    assert all(certified.values())
    assert dead.pop(("standard", 0)) > 0 and not any(dead.values())


def _reference_diagnose_rows(bundle, args):
    """The diagnose loop before prefix sweeps: per-prefix projectors and QPs."""
    layer = bundle.layers_with_updates[0]
    calib = bundle.pooled_calibration()
    deltas = bundle.residuals[layer]
    geometry = mq.merge_geometry(bundle.base, layer, calib)
    S = mq.energy_matrix(geometry.residuals)
    total = float(np.trace(S))
    c = bundle.base.output_dim
    n = len(calib)
    p_max = min(deltas[0].delta.shape[0], c)
    chains = [
        (kind, mq.layer_basis(kind, p_max, args["seed"], deltas, geometry))
        for kind in ("eigen", "standard", "svd")
    ]
    for i in range(args["random_seeds"]):
        seed = args["seed"] + i
        chains.append((f"random({seed})", mq.layer_basis("random", p_max, seed, deltas, geometry)))
    opt_relaxed = {}
    for p in range(1, p_max + 1):
        P_opt = _output_projector(np.eye(c), mq.optimal_basis(S, p))
        opt_relaxed[p] = total - float(np.einsum("ij,ji->", S, P_opt))
    rows = []
    for label, chain in chains:
        for p in range(1, chain.p + 1):
            Q = chain.prefix(p)
            if geometry.fixed_downstream:
                P_model = _output_projector(geometry.downstream, Q)
                captured = float(np.einsum("ij,ji->", S, P_model))
            else:
                captured = 0.0
                for L, b in zip(geometry.downstream, geometry.residuals):
                    captured += float(b @ _output_projector(L, Q) @ b)
            fraction = 1.0 if total == 0 else captured / total
            relaxed = total - captured
            gap = relaxed - opt_relaxed[min(p, c)]
            qp = mq.build_general_basis_qp(geometry, deltas, Q)
            qp_mse = mq.objective_value(qp, mq.solve_unconstrained(qp)) / n
            rows.append([label, p, fraction, relaxed, qp_mse, gap])
    return rows, total


@pytest.mark.parametrize(
    "gen",
    [
        ("--kind", "relu", "--seed", "3", "--tasks", "2", "--n-calib", "25"),
        ("--kind", "linear", "--dims", "9,7,5", "--seed", "4", "--tasks", "3"),
    ],
)
def test_diagnose_csv_matches_per_prefix_reference(tmp_path, gen):
    bundle_path = tmp_path / "bundle.json"
    out = tmp_path / "diag.csv"
    assert cli.main(["gen", "--out", str(bundle_path), *gen]) == 0
    assert cli.main(["diagnose", "--bundle", str(bundle_path), "--random-seeds", "2",
                     "--seed", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        header, *got = list(csv.reader(fh))
    assert header == ["basis", "p", "fraction", "relaxed_loss", "qp_mse", "gap"]
    want, total = _reference_diagnose_rows(mq.load_bundle(bundle_path), {"seed": 1, "random_seeds": 2})
    assert [row[:2] for row in got] == [[label, str(p)] for label, p, *_ in want]
    for row, (_, _, fraction, relaxed, qp_mse, gap) in zip(got, want):
        assert abs(float(row[2]) - fraction) <= REL * abs(fraction)
        assert abs(float(row[4]) - qp_mse) <= REL * abs(qp_mse)
        # total - captured cancels, so these hold to the total energy's scale
        assert abs(float(row[3]) - relaxed) <= REL * total
        assert abs(float(row[5]) - gap) <= REL * total


def test_fmt_writes_numpy_floats_as_plain_reprs(tmp_path):
    assert cli._fmt(np.float64(0.5)) == "0.5"
    assert cli._fmt(np.float64(1e-300)) == repr(1e-300)
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["x", "y"], [[np.float64(0.1), 2]])
    assert path.read_text().splitlines() == ["x,y", "0.1,2"]


# Fixed-map geometries with n >= 2 (r_in + c) samples hold the R factor of a
# thin QR of [U | B] instead of one row per sample.  Their references are the
# per-sample rows from _loop_geometry, stacked into a MergeGeometry by hand.
FIXED_MAP_NETS = ("linear", "relu-below-fixed-map")
DEGENERATE = (None, "zero-residuals", "repeated-input-column", "zero-updates")


def _fixed_map_instance(seed, net_name, degenerate, n, K=3):
    """Layer 2 of 6 -> 5 -> 6 -> 3 under a fixed map: r_in + c = 8 columns of [U | B]."""
    rng = np.random.default_rng(seed)
    activations, layer = NETS[net_name]
    dims = (6, 5, 6, 3)
    # integer weights and inputs make the forward passes exact, so the per-sample
    # reference rows have zero residuals too
    draw = (lambda size: rng.integers(-2, 3, size=size).astype(float)
            if degenerate == "zero-residuals" else rng.normal(size=size))
    weights = [draw((dims[i + 1], dims[i])) for i in range(3)]
    if degenerate == "repeated-input-column":
        weights[0][1] = weights[0][0]  # hidden units 0 and 1 agree: U repeats a column
    net = mq.LinearNetwork(weights, activations)
    X = draw((n, dims[0]))
    Y = mq.forward(net, X) if degenerate == "zero-residuals" else rng.normal(size=(n, dims[3]))
    scale = 0.0 if degenerate == "zero-updates" else 0.3
    deltas = [
        mq.ResidualUpdate(layer, scale * rng.normal(size=net.layer_shape(layer)), k)
        for k in range(K)
    ]
    return net, deltas, mq.CalibrationSet(X, Y, [j % K for j in range(n)])


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    net_name=st.sampled_from(FIXED_MAP_NETS),
    degenerate=st.sampled_from(DEGENERATE),
    n=st.integers(16, 60),
    random_basis=st.booleans(),
)
def test_second_moment_geometry_matches_per_sample_rows(seed, net_name, degenerate, n,
                                                        random_basis):
    net, deltas, calib = _fixed_map_instance(seed, net_name, degenerate, n)
    layer = deltas[0].layer_index
    geometry = mq.merge_geometry(net, layer, calib)
    hidden, maps, residuals = _loop_geometry(net, layer, calib)
    rows = mq.MergeGeometry(layer, np.stack(hidden), maps[0], np.stack(residuals), n)
    assert geometry.fixed_downstream
    assert geometry.hidden_inputs.shape == (8, 5)
    assert geometry.residuals.shape == (8, 3)
    assert geometry.n_samples == n

    r = deltas[0].delta.shape[0]
    basis = mq.random_basis(r, r, seed) if random_basis else mq.standard_basis(r, r)
    for Q, built in (
        (np.eye(r), mq.build_diagonal_qp(geometry, deltas)),
        (basis.columns, mq.build_general_basis_qp(geometry, deltas, basis)),
    ):
        H, g, const = _loop_qp(net, deltas, calib, Q)
        _close(built.H, H)
        _close(built.g, g)
        _close(built.constant, const)

    merged = 0.7 * deltas[0].delta - 0.2 * deltas[1].delta
    moved = [maps[0] @ (merged @ u) for u in hidden]
    lin = sum(float(np.sum((m + b) ** 2)) for m, b in zip(moved, residuals))
    # the sum cancels down from its terms, so it holds to their scale
    scale = sum(float(m @ m) for m in moved) + const
    _close(mq.linearized_delta_objective(geometry, merged), lin, scale)

    S = sum(np.outer(b, b) for b in residuals)
    _close(mq.energy_matrix(geometry.residuals), S)
    total = float(np.trace(S))
    expected = _loop_prefix_energy(maps[0], basis.columns, rows.residuals)
    # see test_prefix_energy_matches_projector_loop for the fixed map's floor
    floor = np.sqrt(np.abs(expected).max(initial=0.0) * total)
    energy = mq.prefix_captured_energy(geometry.downstream, basis, geometry.residuals)
    _close(energy, expected, floor)

    got = np.array(mq.prefix_sweep(geometry, deltas, basis))
    want = np.array(mq.prefix_sweep(rows, deltas, basis))
    assert np.array_equal(got[:, 0], want[:, 0])
    _close(got[:, 1], want[:, 1], floor / total if total else 1.0)
    _close(got[:, 2], want[:, 2], total)
    # an optimum moves by rounding times the condition of its prefix's block
    kappas = _prefix_conditions(mq.build_general_basis_qp(rows, deltas, basis))
    for p, kappa in enumerate(kappas):
        _close(got[p, 3], want[p, 3], kappa * const / n)
    _close(got[:, 4], want[:, 4], total)


def _prefix_conditions(objective):
    """Condition of H on each prefix of directions, over its eigenvalues above the eigen cut."""
    K = objective.n_tasks
    order = np.arange(objective.dim).reshape(K, -1).T.ravel()  # direction-major
    H = objective.H[np.ix_(order, order)]
    out = []
    for m in range(K, objective.dim + 1, K):
        w = np.linalg.eigvalsh(H[:m, :m])
        kept = w[w > qp._EIGEN_CUT * w[-1]]
        out.append(kept[-1] / kept[0] if kept.size else 1.0)
    return out


@pytest.mark.parametrize("net_name", sorted(NETS))
def test_geometry_keeps_sample_rows_on_per_sample_maps_and_below_twice_the_factor(net_name):
    # the merge layer of 4 -> 5 -> 6 -> 3 has r_in + c = 7 (layer 1) or 8 (layer 2)
    _, layer = NETS[net_name]
    width = (4, 5)[layer - 1] + 3
    for n in (1, 2 * width - 1, 2 * width, 3 * width):
        net, _, calib, _ = _instance(3, net_name, n)
        geom = mq.merge_geometry(net, layer, calib)
        X = calib.inputs
        assert geom.n_samples == n
        # the same bits, signed zeros included, in C order
        assert same_bits(geom.downstream, mq.linearize_downstream(net, layer, X))
        assert geom.downstream.flags.c_contiguous
        if geom.fixed_downstream and n >= 2 * width:
            assert geom.hidden_inputs.shape == (width, width - 3)
            assert geom.residuals.shape == (width, 3)
        else:
            assert np.array_equal(geom.hidden_inputs, mq.layer_input(net, layer, X))
            assert np.array_equal(geom.residuals, mq.forward(net, X) - calib.targets)
    # residual rows are prediction minus target: (2, 3) - (3, 4) by hand
    net = make_linear_net([[2.0, 0.0], [0.0, 3.0]])
    calib = mq.CalibrationSet(np.array([[1.0, 1.0]]), np.array([[3.0, 4.0]]))
    assert np.array_equal(mq.merge_geometry(net, 1, calib).residuals, [[-1.0, -1.0]])
