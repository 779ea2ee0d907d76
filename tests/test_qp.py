"""Objective construction and solvers, checked against loop-level oracles.

The oracle below evaluates the calibration loss of a merged update directly,
with plain python loops, so any vectorization bug in the library shows up as
a mismatch rather than being reproduced on both sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mergeqp as mq

from conftest import make_linear_net


def _loop_loss(net, layer, deltas, coeffs, calib, basis=None):
    """Direct loss sum_j ||f_merged(x_j) - y_j||^2, no linear algebra shortcuts."""
    K = len(deltas)
    r = deltas[0].delta.shape[0]
    merged = np.zeros_like(deltas[0].delta)
    for k in range(K):
        if basis is None:
            for i in range(r):
                merged[i, :] += coeffs[k][i] * deltas[k].delta[i, :]
        else:
            Q = basis.columns
            for p in range(Q.shape[1]):
                q = Q[:, p]
                merged += coeffs[k][p] * np.outer(q, q) @ deltas[k].delta
    model = mq.apply_merged_residual(net, layer, merged)
    total = 0.0
    for j in range(len(calib)):
        err = mq.forward(model, calib.inputs[j]) - calib.targets[j]
        total += float(err @ err)
    return total


def _random_instance(rng, d=3, r=4, c=2, K=2, n=6):
    net = make_linear_net(rng.normal(size=(r, d)), rng.normal(size=(c, r)))
    deltas = [
        mq.ResidualUpdate(1, 0.3 * rng.normal(size=(r, d)), task_id=k)
        for k in range(K)
    ]
    calib = mq.CalibrationSet(rng.normal(size=(n, d)), rng.normal(size=(n, c)))
    return net, deltas, calib


def test_diagonal_qp_scalar_chain_by_hand():
    # single task, all dims 1: J(d) = (L d delta u + b)^2
    net = make_linear_net([[2.0]], [[3.0]])
    delta = mq.ResidualUpdate(1, np.array([[0.5]]), task_id=0)
    calib = mq.CalibrationSet(np.array([[1.0]]), np.array([[7.0]]))
    qp = mq.build_diagonal_qp(net, [delta], calib)
    # u = 1, L = 3, base output 6, b = -1, A = 3 * 0.5 = 1.5
    assert qp.H.shape == (1, 1)
    assert np.isclose(qp.H[0, 0], 2 * 1.5**2)
    assert np.isclose(qp.g[0], 2 * 1.5 * -1.0)
    assert np.isclose(qp.constant, 1.0)
    d_star = mq.solve_unconstrained(qp)
    assert np.isclose(mq.objective_value(qp, d_star), 0.0, atol=1e-12)


def test_diagonal_qp_matches_loop_loss(rng):
    net, deltas, calib = _random_instance(rng)
    qp = mq.build_diagonal_qp(net, deltas, calib)
    for _ in range(10):
        coeffs = rng.normal(size=(2, 4))
        direct = _loop_loss(net, 1, deltas, coeffs, calib)
        assert np.isclose(mq.objective_value(qp, coeffs.ravel()), direct, rtol=1e-10)


def test_general_basis_qp_matches_loop_loss(rng):
    net, deltas, calib = _random_instance(rng)
    basis = mq.random_basis(4, 2, seed=3)
    qp = mq.build_general_basis_qp(net, deltas, calib, basis)
    assert qp.n_directions == 2
    for _ in range(10):
        coeffs = rng.normal(size=(2, 2))
        direct = _loop_loss(net, 1, deltas, coeffs, calib, basis=basis)
        assert np.isclose(mq.objective_value(qp, coeffs.ravel()), direct, rtol=1e-10)


def test_full_standard_basis_reproduces_diagonal(rng):
    net, deltas, calib = _random_instance(rng)
    diag = mq.build_diagonal_qp(net, deltas, calib)
    full = mq.build_general_basis_qp(net, deltas, calib, mq.standard_basis(4, 4))
    assert np.allclose(full.H, diag.H, atol=1e-12)
    assert np.allclose(full.g, diag.g, atol=1e-12)
    assert np.isclose(full.constant, diag.constant)


def test_basis_orthonormality_enforced(rng):
    net, deltas, calib = _random_instance(rng)
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        mq.build_general_basis_qp(net, deltas, calib, bad)


def test_base_residuals_are_prediction_minus_target():
    net = make_linear_net([[2.0, 0.0], [0.0, 3.0]])
    calib = mq.CalibrationSet(np.array([[1.0, 1.0]]), np.array([[3.0, 4.0]]))
    b = mq.base_residuals(net, calib)
    assert np.array_equal(b, [[-1.0, -1.0]])


def test_solve_unconstrained_matches_dense_solve(rng):
    A = rng.normal(size=(8, 5))
    H = A.T @ A + 0.5 * np.eye(5)
    g = rng.normal(size=5)
    qp = mq.QuadraticObjective(H=H, g=g, constant=1.0, n_tasks=1, n_directions=5)
    d = mq.solve_unconstrained(qp).flat
    assert np.allclose(d, np.linalg.solve(H, -g), atol=1e-10)
    assert not mq.solve_unconstrained(qp).g_outside_range


def test_solve_unconstrained_singular_min_norm(rng):
    # rank-1 H with g in its range: minimum-norm solution is the pseudoinverse one
    v = rng.normal(size=4)
    H = np.outer(v, v)
    g = 0.7 * v
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.0, n_tasks=2, n_directions=2)
    d = mq.solve_unconstrained(qp).flat
    assert np.allclose(d, -np.linalg.pinv(H) @ g, atol=1e-10)


def test_solve_unconstrained_reports_range_defect(rng):
    v = np.array([1.0, 0.0])
    H = np.outer(v, v)
    g = np.array([0.0, 1.0])  # entirely outside range(H)
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.0, n_tasks=1, n_directions=2)
    sol = mq.solve_unconstrained(qp)
    assert sol.g_outside_range
    assert np.isclose(sol.g_range_defect, 1.0)


def test_box_solver_interior_converges_to_closed_form():
    H = np.array([[2.0]])
    g = np.array([-1.0])
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.25, n_tasks=1, n_directions=1)
    sol = mq.solve_box_constrained(qp)
    assert abs(sol.flat[0] - 0.5) < 1e-6


def test_box_solver_pins_active_bound():
    # unconstrained optimum at -1, box forces 0
    H = np.array([[2.0]])
    g = np.array([2.0])
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.0, n_tasks=1, n_directions=1)
    sol = mq.solve_box_constrained(qp)
    assert abs(sol.flat[0]) < 1e-8
    grad = mq.objective_gradient(qp, sol.flat)
    assert grad[0] > 0  # KKT at the lower bound


def test_box_solver_validation(rng):
    qp = mq.QuadraticObjective(
        H=np.eye(2), g=np.zeros(2), constant=0.0, n_tasks=1, n_directions=2
    )
    with pytest.raises(ValueError):
        mq.solve_box_constrained(qp, lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        mq.solve_box_constrained(qp, steps=0)


def test_solve_1d_zeroes_the_objective(rng):
    for _ in range(20):
        m = rng.normal(size=5)
        beta = float(rng.normal())
        d = mq.solve_1d(m, beta)
        assert abs(d @ m + beta) <= 1e-12 * max(1.0, abs(beta))
    assert np.array_equal(mq.solve_1d(np.zeros(3), 2.0), np.zeros(3))


def test_gradient_matches_finite_differences(rng):
    net, deltas, calib = _random_instance(rng)
    qp = mq.build_diagonal_qp(net, deltas, calib)
    d = rng.normal(size=qp.dim)
    grad = mq.objective_gradient(qp, d)
    h = 1e-6
    for i in range(qp.dim):
        e = np.zeros(qp.dim)
        e[i] = h
        fd = (mq.objective_value(qp, d + e) - mq.objective_value(qp, d - e)) / (2 * h)
        assert np.isclose(grad[i], fd, rtol=1e-6, atol=1e-8)


def test_merged_delta_diagonal_by_hand():
    deltas = [
        mq.ResidualUpdate(1, np.array([[1.0, 2.0], [3.0, 4.0]]), task_id=0),
        mq.ResidualUpdate(1, np.array([[10.0, 0.0], [0.0, 10.0]]), task_id=1),
    ]
    coeffs = mq.MergeCoefficients(np.array([[1.0, 0.0], [0.5, 0.5]]))
    merged = mq.merged_delta_from_coefficients(deltas, coeffs)
    assert np.array_equal(merged, [[6.0, 2.0], [0.0, 5.0]])


def test_merged_delta_with_basis_projects_rows(rng):
    deltas = [mq.ResidualUpdate(1, rng.normal(size=(3, 2)), task_id=0)]
    basis = mq.random_basis(3, 2, seed=1)
    coeffs = mq.MergeCoefficients(rng.normal(size=(1, 2)))
    merged = mq.merged_delta_from_coefficients(deltas, coeffs, basis=basis)
    Q = basis.columns
    expect = np.zeros((3, 2))
    for p in range(2):
        expect += coeffs.values[0, p] * np.outer(Q[:, p], Q[:, p]) @ deltas[0].delta
    assert np.allclose(merged, expect, atol=1e-12)


def test_linearized_objective_equals_exact_loss_on_linear_nets(rng):
    net, deltas, calib = _random_instance(rng)
    merged = 0.4 * deltas[0].delta + 0.1 * deltas[1].delta
    lin = mq.linearized_delta_objective(net, 1, merged, calib)
    model = mq.apply_merged_residual(net, 1, merged)
    exact = sum(
        float(np.sum((mq.forward(model, calib.inputs[j]) - calib.targets[j]) ** 2))
        for j in range(len(calib))
    )
    assert np.isclose(lin, exact, rtol=1e-12)


def test_calibration_mse_pooled_and_per_task():
    net = make_linear_net([[1.0]])
    calib = mq.CalibrationSet(
        np.array([[1.0], [2.0]]), np.array([[0.0], [0.0]]), task_ids=[0, 1]
    )
    pooled, per_task = mq.calibration_mse(net, calib)
    assert np.isclose(pooled, (1.0 + 4.0) / 2)
    assert np.isclose(per_task[0], 1.0)
    assert np.isclose(per_task[1], 4.0)


def test_calibration_set_concat_and_slice():
    a = mq.CalibrationSet.for_task(0, np.ones((2, 3)), np.zeros((2, 1)))
    b = mq.CalibrationSet.for_task(1, 2 * np.ones((1, 3)), np.ones((1, 1)))
    both = mq.CalibrationSet.concat([a, b])
    assert len(both) == 3
    assert list(both.task_ids) == [0, 0, 1]
    sub = mq.CalibrationSet.for_task(1, b.inputs, b.targets)
    assert np.array_equal(sub.inputs, both.inputs[2:])


def test_calibration_set_validation():
    with pytest.raises(ValueError):
        mq.CalibrationSet(np.ones((2, 3)), np.ones((3, 1)))


def test_objective_requires_symmetric_h():
    H = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises((ValueError, mq.NumericalError)):
        mq.QuadraticObjective(H=H, g=np.zeros(2), constant=0.0, n_tasks=1, n_directions=2)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_closed_form_is_a_global_minimum(seed):
    # the objective is a sum of squares, so it is nonnegative everywhere and
    # the eigendecomposition solve can never be beaten by a random probe
    rng = np.random.default_rng(seed)
    net, deltas, calib = _random_instance(rng, d=3, r=3, c=2, K=2, n=5)
    qp = mq.build_diagonal_qp(net, deltas, calib)
    star = mq.objective_value(qp, mq.solve_unconstrained(qp))
    probe = rng.normal(size=qp.dim)
    val = mq.objective_value(qp, probe)
    assert val >= -1e-10
    assert star <= val + 1e-9 * max(1.0, abs(star))


def test_nonfinite_inputs_raise_numerical_error(rng):
    net, deltas, calib = _random_instance(rng)
    deltas[0].delta[0, 0] = np.inf
    with pytest.raises((mq.NumericalError, ValueError)):
        mq.build_diagonal_qp(net, deltas, calib)
