"""Objective construction and solvers, checked against loop-level oracles.

The oracle below evaluates the calibration loss of a merged update directly,
with plain python loops, so any vectorization bug in the library shows up as
a mismatch rather than being reproduced on both sides.
"""

import contextlib
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mergeqp as mq
from mergeqp import cli, qp as qpmod

from conftest import kept_coordinate_optima, make_linear_net, same_bits
from test_cli_reports import BUNDLES


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
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), [delta])
    # u = 1, L = 3, base output 6, b = -1, A = 3 * 0.5 = 1.5
    assert qp.H.shape == (1, 1)
    assert np.isclose(qp.H[0, 0], 2 * 1.5**2)
    assert np.isclose(qp.g[0], 2 * 1.5 * -1.0)
    assert np.isclose(qp.constant, 1.0)
    d_star = mq.solve_unconstrained(qp)
    assert np.isclose(mq.objective_value(qp, d_star), 0.0, atol=1e-12)


def test_diagonal_qp_matches_loop_loss(rng):
    net, deltas, calib = _random_instance(rng)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    for _ in range(10):
        coeffs = rng.normal(size=(2, 4))
        direct = _loop_loss(net, 1, deltas, coeffs, calib)
        assert np.isclose(mq.objective_value(qp, coeffs.ravel()), direct, rtol=1e-10)


def test_general_basis_qp_matches_loop_loss(rng):
    net, deltas, calib = _random_instance(rng)
    basis = mq.random_basis(4, 2, seed=3)
    qp = mq.build_general_basis_qp(mq.merge_geometry(net, 1, calib), deltas, basis)
    assert qp.n_directions == 2
    for _ in range(10):
        coeffs = rng.normal(size=(2, 2))
        direct = _loop_loss(net, 1, deltas, coeffs, calib, basis=basis)
        assert np.isclose(mq.objective_value(qp, coeffs.ravel()), direct, rtol=1e-10)


def test_full_standard_basis_reproduces_diagonal(rng):
    net, deltas, calib = _random_instance(rng)
    geometry = mq.merge_geometry(net, 1, calib)
    diag = mq.build_diagonal_qp(geometry, deltas)
    full = mq.build_general_basis_qp(geometry, deltas, mq.standard_basis(4, 4))
    assert np.allclose(full.H, diag.H, atol=1e-12)
    assert np.allclose(full.g, diag.g, atol=1e-12)
    assert np.isclose(full.constant, diag.constant)


def test_basis_orthonormality_enforced(rng):
    net, deltas, calib = _random_instance(rng)
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        mq.build_general_basis_qp(
            mq.merge_geometry(net, 1, calib), deltas, mq.OrthonormalBasis(bad, "custom")
        )


@pytest.mark.parametrize("build", ["diagonal", "basis"])
@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_builders_reject_updates_the_geometry_does_not_fit(build, activation):
    # layer 1 is (4, 3) and layer 2 is (4, 4); ReLU gaps give per-sample maps
    rng = np.random.default_rng(0)
    net = mq.LinearNetwork(
        [rng.normal(size=(4, 3)), rng.normal(size=(4, 4)), rng.normal(size=(2, 4))],
        [activation, activation],
    )
    calib = mq.CalibrationSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    geometry = mq.merge_geometry(net, 1, calib)

    def qp(deltas):
        if build == "diagonal":
            return mq.build_diagonal_qp(geometry, deltas)
        return mq.build_general_basis_qp(geometry, deltas, mq.standard_basis(4, 2))

    assert qp([mq.ResidualUpdate(1, rng.normal(size=(4, 3)), 0)]).n_tasks == 1
    with pytest.raises(ValueError, match="targets layer 2 but the geometry is layer 1's"):
        qp([mq.ResidualUpdate(1, rng.normal(size=(4, 3)), 0),
            mq.ResidualUpdate(2, rng.normal(size=(4, 4)), 1)])
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match layer shape \(4, 3\)"):
        qp([mq.ResidualUpdate(1, rng.normal(size=(4, 4)), 0)])
    with pytest.raises(ValueError, match="no residual updates"):
        qp([])


def test_solve_unconstrained_matches_dense_solve(rng):
    A = rng.normal(size=(8, 5))
    H = A.T @ A + 0.5 * np.eye(5)
    g = rng.normal(size=5)
    qp = mq.QuadraticObjective(H=H, g=g, constant=1.0, n_tasks=1, n_directions=5)
    d = mq.solve_unconstrained(qp).flat
    assert np.allclose(d, np.linalg.solve(H, -g), atol=1e-10)
    assert not mq.solve_unconstrained(qp).g_range_defect > 1e-8 * np.linalg.norm(qp.g)


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
    assert sol.g_range_defect > 1e-8 * np.linalg.norm(qp.g)
    assert np.isclose(sol.g_range_defect, 1.0)


def _certified_case(kind, n, rng):
    """(H, g, path) for one case of the certified-solve test.

    path is "cholesky" or "cut" when the case fixes which one runs, "none"
    when neither may (H = 0 has no live block) and None when either may.
    """
    if kind == "pd":
        M = rng.normal(size=(n, n))
        return M @ M.T + n * np.eye(n), rng.normal(size=n), "cholesky"
    if kind == "zero":
        return np.zeros((n, n)), rng.normal(size=n), "none"
    if kind == "duplicated":
        # repeated indices duplicate rows and columns exactly; g = H x is in range
        idx = rng.integers(0, max(n - 1, 1), size=n)
        idx[-1] = idx[0]
        M = rng.normal(size=(n, n))
        H = (M @ M.T + n * np.eye(n))[np.ix_(idx, idx)]
        return H, H @ rng.normal(size=n), "cut"
    w = rng.uniform(1.0, 10.0, size=n)
    w[-1] = 10.0
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if kind == "planted-cut":
        # an eigenvalue at 4.2e-11 of the largest with g along its vector, as in
        # the relu-sweep seed 1755429855 QP: the cut must drop that direction
        w[0] = 4.2e-11 * w.max()
        return (V * w) @ V.T, V[:, 0] + rng.normal(size=n), "cut"
    # planted-near: 5e-10 or 1.5e-10 of the largest, above the cut, near the
    # certificate's margin of 2e-10 ||H||_inf.  Coordinate 0 is split off the
    # rest so that both paths resolve it to rounding: rotated into the other
    # coordinates, any backward-stable solve is only good to about
    # cond(H) eps = 2e-7 along it.
    H = np.zeros((n, n))
    H[0, 0] = rng.choice([5e-10, 1.5e-10]) * w.max()
    U = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))[0]
    H[1:, 1:] = (U * w[1:]) @ U.T
    return H, rng.normal(size=n), None


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    kind=st.sampled_from(["pd", "zero", "duplicated", "planted-cut", "planted-near"]),
    scale=st.sampled_from([1.0, 1e-20, 1e20]),
)
def test_solve_unconstrained_matches_the_eigen_cut(seed, n, kind, scale):
    rng = np.random.default_rng(seed)
    if kind in ("duplicated", "planted-cut", "planted-near") and n < 2:
        n = 2
    H, g, path = _certified_case(kind, n, rng)
    H, g = scale * (H + H.T) / 2, scale * g
    ref = qpmod._eigen_cut(H, g)[0]
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.0, n_tasks=1, n_directions=n)
    with mock.patch.object(qpmod, "_eigen_cut", wraps=qpmod._eigen_cut) as spy, \
            mock.patch.object(qpmod, "_certified", wraps=qpmod._certified) as certify:
        sol = mq.solve_unconstrained(qp)
    took_cut = spy.call_count == 1
    if path == "none":
        # every coordinate is dead: no factorisation, d = +0.0 and all of g left over
        assert certify.call_count == 0 and not took_cut
        assert same_bits(sol.flat, np.zeros(n))
        assert sol.g_range_defect == np.linalg.norm(g)
    elif path is not None:
        assert took_cut == (path == "cut")
    if not took_cut and path != "none":
        assert sol.g_range_defect == 0.0
        assert not sol.g_range_defect > 1e-8 * np.linalg.norm(qp.g)
    tol = 1e-9 if kind == "planted-near" else 1e-12
    assert np.abs(sol.flat - ref).max() <= tol * max(np.abs(ref).max(), 1e-300)
    if kind == "planted-cut":
        # nothing along the dropped eigenvector, and g's part along it left over
        v = np.linalg.eigh(H)[1][:, 0]
        assert abs(v @ sol.flat) <= 1e-12 * np.linalg.norm(sol.flat)
        assert np.isclose(sol.g_range_defect, abs(v @ g), rtol=1e-9)
    # scaling H and g together takes the same path to the same answer
    with mock.patch.object(qpmod, "_eigen_cut", wraps=qpmod._eigen_cut) as spy:
        rescaled = mq.solve_unconstrained(
            mq.QuadraticObjective(H=1e20 * H, g=1e20 * g, constant=0.0, n_tasks=1, n_directions=n)
        )
    assert (spy.call_count == 1) == took_cut
    assert np.abs(rescaled.flat - sol.flat).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


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


def _box_oracle(H, g, lo, hi):
    """min of J over [lo, hi]^n by enumerating every face of the box.

    Each coordinate is fixed at lo, fixed at hi or free; the free block takes
    its minimum-norm stationary point, clipped into the box.  Every candidate
    is feasible, and the optimal set has a vertex whose free block is
    nonsingular, so the smallest candidate value is the box minimum.
    """
    best = np.inf
    for code in itertools.product((0, 1, 2), repeat=g.size):
        code = np.array(code)
        d = np.where(code == 1, hi, lo).astype(float)
        free = code == 2
        if free.any():
            rhs = g[free] + H[np.ix_(free, ~free)] @ d[~free]
            d[free] = -np.linalg.pinv(H[np.ix_(free, free)], rcond=1e-10, hermitian=True) @ rhs
        d = np.clip(d, lo, hi)
        best = min(best, 0.5 * d @ H @ d + g @ d)
    return best


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    rank_drop=st.integers(0, 6),
    duplicate=st.booleans(),
    outside=st.booleans(),
    scale=st.sampled_from([1.0, 1e20]),
    bounds=st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]),
    one_task=st.booleans(),
)
def test_box_solver_matches_face_enumeration(
    seed, n, rank_drop, duplicate, outside, scale, bounds, one_task
):
    # rank-deficient H, duplicated columns and g outside range(H) are the
    # cases where the free block is singular and J is linear along its null space
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(max(n - rank_drop, 0), n))
    if duplicate and n > 1:
        A[:, -1] = A[:, 0]
    H = A.T @ A
    g = A.T @ rng.normal(size=A.shape[0])
    if outside:
        g = g + rng.normal(size=n)
    H, g = scale * H, scale * g
    lo, hi = bounds
    K = 1 if one_task else n
    qp = mq.QuadraticObjective(H=H, g=g, constant=0.0, n_tasks=K, n_directions=n // K)
    sol = mq.solve_box_constrained(qp, lo=lo, hi=hi)
    assert sol.converged
    assert sol.kkt_residual <= 1e-12
    d = sol.flat
    assert np.all((d >= lo) & (d <= hi))
    w = max(abs(lo), abs(hi))
    magnitude = (np.abs(H).sum() * w + np.abs(g).sum()) * w
    assert abs(mq.objective_value(qp, d) - _box_oracle(H, g, lo, hi)) <= 1e-9 * magnitude



def _all_live(qp, g_too=False):
    """qp._live_block as if no row were dead: the solvers then run on the whole H."""
    return np.ones(qp.dim, dtype=bool), qp.H, qp.g


def _planted_dead_qp(seed, n_tasks, n_directions, n_dead, rank_drop, outside, dead_g):
    """A PSD QP with n_dead exact-zero rows and columns; (qp, dead mask).

    The live block is V diag(w) V^T with w in [1, 10] and up to rank_drop of them 0 (one
    stays nonzero, so no live row is zero); outside
    adds a part of g off its range, and dead_g puts nonzero g on the dead coordinates.
    The constant puts min J at 1 over the range of H.
    """
    rng = np.random.default_rng(seed)
    n = n_tasks * n_directions
    n_dead = min(n_dead, n)
    dead = np.zeros(n, dtype=bool)
    dead[rng.choice(n, size=n_dead, replace=False)] = True
    m = n - n_dead
    w = rng.uniform(1.0, 10.0, size=m)
    w[: min(rank_drop, m - 1)] = 0.0
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    H = np.zeros((n, n))
    H[np.ix_(~dead, ~dead)] = (V * w) @ V.T
    H = 0.5 * (H + H.T)
    g = np.zeros(n)
    g[~dead] = H[np.ix_(~dead, ~dead)] @ rng.normal(size=m)
    if outside:
        g[~dead] += rng.normal(size=m)
    if dead_g:
        g[dead] = rng.normal(size=n_dead)
    cut = qpmod._eigen_cut(H, g)[0]
    qp = mq.QuadraticObjective(H=H, g=g, constant=1.0 - 0.5 * (g @ cut), n_tasks=n_tasks,
                               n_directions=n_directions)
    return qp, dead


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 10_000),
    n_tasks=st.integers(1, 3),
    n_directions=st.integers(1, 2),
    n_dead=st.integers(0, 6),
    rank_drop=st.integers(0, 2),
    outside=st.booleans(),
    dead_g=st.booleans(),
)
def test_solvers_leave_dead_coordinates_out(
    seed, n_tasks, n_directions, n_dead, rank_drop, outside, dead_g
):
    # n_dead >= n makes every row dead (H = 0); the references are the eigen cut and the
    # Newton steps on the whole H with no row found dead, and the kept-coordinate optima
    qp, dead = _planted_dead_qp(seed, n_tasks, n_directions, n_dead, rank_drop, outside, dead_g)
    H, g, K = qp.H, qp.g, n_tasks
    live, block, _ = qpmod._live_block(qp)
    assert np.array_equal(np.arange(qp.dim)[live], np.flatnonzero(~dead))
    assert (block is H) == (not dead.any())
    if np.diag(H).all():  # nothing to look for: no mask, no copy
        assert live == slice(None)

    # exact: dead coordinates are +0.0, and the defect is the norm of all g left over
    sol = mq.solve_unconstrained(qp)
    ref, in_range, _ = qpmod._eigen_cut(H, g)
    assert same_bits(sol.flat[dead], np.zeros(dead.sum()))
    assert np.abs(sol.flat - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)
    leftover = np.linalg.norm(g - in_range)
    assert abs(sol.g_range_defect - leftover) <= 1e-12 * max(np.linalg.norm(g), 1e-300)
    if not dead.any():
        certified = qpmod._certified(H)
        want = np.linalg.solve(H.T, -g) if certified else ref
        assert same_bits(sol.flat, want)
        assert sol.g_range_defect == (0.0 if certified else float(leftover))

    # prefix optima: a dead coordinate has pivot 0 and is never kept, nor are the live ones
    # past the live block's rank; g off H's range moves only the kept coordinates' optimum.
    # Both sides are const less a term up to ||H|| ||d||^2, so they differ by rounding of
    # that size: one ulp of const = 10.7 against an optimum of 3.5e-5 on seed 1644
    points = kept_coordinate_optima(qp)
    assert not any(d[dead].any() for _, d in points)
    eps, norm = np.finfo(float).eps, np.linalg.norm(H, 2)
    for got, (want, d) in zip(qpmod.prefix_optima(qp), points):
        assert abs(got - want) <= 4 * qp.dim * eps * (norm * (d @ d) + abs(qp.constant))

    # box: a dead coordinate with g = 0 keeps its start bit for bit; one with g != 0 is
    # live, and J is linear along it
    for lo, hi in ((0.0, 1.0), (-1.0, 2.0)):
        box = mq.solve_box_constrained(qp, lo=lo, hi=hi)
        with mock.patch.object(qpmod, "_live_block", _all_live):
            parent = mq.solve_box_constrained(qp, lo=lo, hi=hi)
        held = dead & (g == 0)
        start = np.full(held.sum(), np.clip(1.0 / K, lo, hi))
        assert same_bits(box.flat[held], start)
        assert box.converged == parent.converged
        # the residual the block reports is the whole QP's at the returned point
        grad = H @ box.flat + g
        active = ((box.flat <= lo) & (grad > 0)) | ((box.flat >= hi) & (grad < 0))
        scale = np.abs(H).sum(axis=1).max() * max(abs(lo), abs(hi)) + np.abs(g).max()
        kkt = np.abs(grad[~active]).max(initial=0.0) / scale if scale > 0 else 0.0
        assert abs(box.kkt_residual - kkt) <= 1e-15
        w = max(abs(lo), abs(hi))
        magnitude = (np.abs(H).sum() * w + np.abs(g).sum()) * w
        best = _box_oracle(H, g, lo, hi) + qp.constant
        assert abs(mq.objective_value(qp, box) - best) <= 1e-9 * magnitude
        if not dead.any():
            assert same_bits(box.flat, parent.flat)
            assert box.kkt_residual == parent.kkt_residual


def test_an_indefinite_h_keeps_a_row_with_a_zero_diagonal_live():
    # a zero diagonal entry zeroes the row only when H is PSD: this row is not zero
    H = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    qp = mq.QuadraticObjective(H=H, g=np.array([1.0, -1.0, 0.0]), constant=0.0, n_tasks=1,
                               n_directions=3)
    live, block, g = qpmod._live_block(qp)
    assert live.tolist() == [True, True, False]
    assert np.array_equal(block, H[:2, :2]) and np.array_equal(g, [1.0, -1.0])
    # flagged but not dead: every row is live, and H is used as it is
    qp = mq.QuadraticObjective(H=H[:2, :2], g=np.array([1.0, -1.0]), constant=0.0, n_tasks=1,
                               n_directions=2)
    live, block, g = qpmod._live_block(qp)
    assert live.tolist() == [True, True] and block is qp.H and g is qp.g


# gen flags of the three benchmark workloads (perfbench/harness.py), and of a
# bundle whose updates are scaled up until H is about 1e22; all at seed 0
ORACLE_BUNDLES = {
    "wide-linear": ("--kind", "linear", "--dims", "256,128,32", "--tasks", "8",
                    "--n-calib", "15", "--merge-layer", "1"),
    "relu-sweep": ("--kind", "relu", "--dims", "64,48,32,16", "--merge-layer", "2",
                   "--tasks", "4", "--n-calib", "40"),
    "deep-tall": ("--kind", "linear", "--dims", "16,12,8", "--n-layers", "4",
                  "--merge-layer", "1,2,3", "--tasks", "4", "--n-calib", "600",
                  "--noise", "0.05"),
    "delta-scale-1e10": ("--dims", "5,4,3", "--merge-layer", "1,2", "--tasks", "2",
                         "--delta-scale", "1e10"),
}


@pytest.mark.parametrize("workload", sorted(ORACLE_BUNDLES))
def test_box_solver_agrees_with_lbfgsb_on_benchmark_qps(tmp_path, workload):
    minimize = pytest.importorskip("scipy.optimize").minimize
    path = tmp_path / "bundle.json"
    assert cli.main(["gen", *ORACLE_BUNDLES[workload], "--seed", "0", "--out", str(path)]) == 0
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    qps = []
    for layer in bundle.layers_with_updates:
        deltas = bundle.residuals[layer]
        geometry = mq.merge_geometry(bundle.base, layer, calib)
        qps.append(mq.build_diagonal_qp(geometry, deltas))
        if workload == "relu-sweep":
            basis = mq.layer_basis("eigen", 16, 0, deltas, geometry)
            qps.append(mq.build_general_basis_qp(geometry, deltas, basis))
    if workload == "relu-sweep":
        # units dead on every calibration input leave zero rows: H is exactly singular
        assert not np.all(qps[0].H.any(axis=1))
    for qp in qps:
        sol = mq.solve_box_constrained(qp)
        d = sol.flat
        assert sol.converged
        assert np.abs(d - np.clip(d - mq.objective_gradient(qp, d), 0.0, 1.0)).max() <= 1e-8
        ref = minimize(
            lambda x: mq.objective_value(qp, x), np.full(qp.dim, 1.0 / qp.n_tasks),
            jac=lambda x: mq.objective_gradient(qp, x), method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * qp.dim, options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-12},
        )
        ours = mq.objective_value(qp, d)
        assert ours <= ref.fun + 1e-12 * abs(ref.fun)
        assert ref.fun - ours <= 1e-9 * abs(ref.fun)
        adam = mq.objective_value(qp, _projected_adam(qp))
        assert ours <= adam + 1e-12 * abs(adam)


def test_box_solver_step_cap_reports_no_convergence():
    A = np.array([[0.0, 1.0, 3.0], [2.0, 1.0, 0.0], [0.0, 3.0, -2.0]])
    qp = mq.QuadraticObjective(
        H=A.T @ A, g=np.array([4.0, 2.0, -6.0]), constant=0.0, n_tasks=3, n_directions=1
    )
    for steps in (1, 2):  # the solve needs three iterations
        capped = mq.solve_box_constrained(qp, steps=steps)
        assert not capped.converged
        assert np.isfinite(capped.kkt_residual) and capped.kkt_residual > 1e-12
    full = mq.solve_box_constrained(qp, steps=3)
    assert full.converged and full.kkt_residual <= 1e-12
    assert np.allclose(full.flat, [0.0, 0.0, 6.0 / 13.0], atol=1e-15)
    assert mq.solve_unconstrained(qp).kkt_residual is None


def _projected_adam(qp, lo=0.0, hi=1.0, steps=500, step_size=1e-2):
    """The paper's box solver: projected Adam, 500 steps at 1e-2 from d = 1/K.

    Adam's standard moment decay rates 0.9 and 0.999 and eps 1e-8, with no
    stopping test.  It was the default box solver before the certified
    Newton solve, which must never end above it.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    d = np.clip(np.full(qp.dim, 1.0 / qp.n_tasks), lo, hi)
    m = np.zeros_like(d)
    v = np.zeros_like(d)
    for t in range(1, steps + 1):
        grad = qp.H @ d + qp.g
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        d = np.clip(d - step_size * m_hat / (np.sqrt(v_hat) + eps), lo, hi)
    return d


@pytest.mark.parametrize("kind", sorted(BUNDLES))
def test_box_solver_never_ends_above_projected_adam(tmp_path, kind):
    # every single-layer QP the pinned CLI reports solve, at the base model
    path = tmp_path / "bundle.json"
    assert cli.main(["gen", *BUNDLES[kind], "--out", str(path)]) == 0
    bundle = mq.load_bundle(path)
    calib = bundle.pooled_calibration()
    for layer in bundle.layers_with_updates:
        deltas = bundle.residuals[layer]
        geometry = mq.merge_geometry(bundle.base, layer, calib)
        p = min(deltas[0].delta.shape[0], bundle.base.output_dim)
        qps = [mq.build_diagonal_qp(geometry, deltas)] + [
            mq.build_general_basis_qp(geometry, deltas, mq.layer_basis(b, p, 0, deltas, geometry))
            for b in ("eigen", "standard", "svd", "random")
        ]
        for qp in qps:
            for lo, hi in ((0.0, 1.0), (-1.0, 2.0)):
                box = mq.solve_box_constrained(qp, lo=lo, hi=hi)
                assert box.converged
                ours = mq.objective_value(qp, box)
                adam = mq.objective_value(qp, _projected_adam(qp, lo, hi))
                assert ours <= adam + 1e-12 * abs(adam), (layer, qp.basis_id, lo, hi)


def test_merge_geometry_rejects_an_overflowing_forward_pass():
    # layer 2's downstream map (the identity) is finite; its inputs are not
    net = mq.LinearNetwork([np.full((3, 2), 1e308), np.ones((2, 3))])
    calib = mq.CalibrationSet(np.ones((4, 2)), np.zeros((4, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mq.NumericalError, match="overflows at or above layer 2"):
            mq.merge_geometry(net, 2, calib)


def test_solve_1d_zeroes_the_objective(rng):
    for _ in range(20):
        m = rng.normal(size=5)
        beta = float(rng.normal())
        d = mq.solve_1d(m, beta)
        assert abs(d @ m + beta) <= 1e-12 * max(1.0, abs(beta))
    assert np.array_equal(mq.solve_1d(np.zeros(3), 2.0), np.zeros(3))


def test_gradient_matches_finite_differences(rng):
    net, deltas, calib = _random_instance(rng)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
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
    lin = mq.linearized_delta_objective(mq.merge_geometry(net, 1, calib), merged)
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


@pytest.mark.parametrize("asymmetry, raises", [(1e-9, True), (1e-12, False)])
def test_objective_symmetry_check_at_its_tolerance(asymmetry, raises):
    # a caller's H is checked to 1e-10 of its largest entry
    H = np.array([[3.0, -1.0, 0.5], [-1.0, 4.0, 2.0], [0.5, 2.0, -6.0]])
    H[0, 2] += asymmetry * np.abs(H).max()
    check = pytest.raises(ValueError, match="not symmetric") if raises else contextlib.nullcontext()
    with check:
        mq.QuadraticObjective(H=H, g=np.zeros(3), constant=0.0, n_tasks=1, n_directions=3)


def _unchanged_after(qp, solve):
    before = qp.H.tobytes(), qp.g.tobytes()
    solve(qp)
    return (qp.H.tobytes(), qp.g.tobytes()) == before


@pytest.mark.parametrize("path", ["certified", "eigen-cut"])
def test_exact_solvers_leave_the_qp_unchanged(path, rng):
    # 12 samples against 8 coefficients give a positive definite H, 3 a singular one
    net, deltas, calib = _random_instance(rng, d=5, K=2, n=12 if path == "certified" else 3)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    assert qpmod._certified(qp.H) == (path == "certified")
    assert _unchanged_after(qp, mq.solve_unconstrained)
    assert _unchanged_after(qp, qpmod.prefix_optima)


def _certificate_case(kind, rng, n=8):
    if kind == "overflowing-bound":
        # every row sums past the largest double, so tau is inf and H - tau I fails
        return np.full((n, n), 0.9e308) + np.diag(rng.uniform(0.0, 1e307, size=n))
    M = rng.normal(size=(n, n))
    H = M + M.T if kind == "indefinite" else M @ M.T + np.eye(n)
    H = 0.5 * (H + H.T)
    H[np.diag_indices(n)] += rng.uniform(-1e-3, 1e-3, size=n)  # bits the shift rounds off
    return H


@pytest.mark.parametrize("kind", ["positive-definite", "indefinite", "overflowing-bound"])
def test_certificate_restores_every_bit_of_h(kind, rng):
    # the shift of H's diagonal is made in place and undone by writing the saved diagonal
    H = _certificate_case(kind, rng)
    before = H.copy()
    assert qpmod._certified(H) == (kind == "positive-definite")
    assert same_bits(H, before)


def test_solvers_leave_a_read_only_caller_h_untouched(rng):
    # the objective stores its own H, so the in-place certificate never writes the caller's
    H = _certificate_case("positive-definite", rng, n=6)
    before = H.copy()
    H.flags.writeable = False
    qp = mq.QuadraticObjective(H=H, g=rng.normal(size=6), constant=1.0, n_tasks=2, n_directions=3)
    mq.solve_unconstrained(qp)
    qpmod.prefix_optima(qp)
    assert same_bits(H, before)
    assert qpmod._certified(qp.H)  # both solvers took the in-place certificate


def test_certified_solve_holds_no_copy_of_h(rng):
    # tracemalloc sees numpy's arrays but not LAPACK's work buffer, so the certified solve
    # traces the discarded Cholesky factor (1 x H.nbytes) and vectors; a shifted copy made it 2 x
    net, deltas, calib = _random_instance(rng, d=64, r=128, c=32, K=4, n=120)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    assert qp.dim == 512 and qpmod._certified(qp.H)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mq.solve_unconstrained(qp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * qp.H.nbytes


def test_one_gap_geometry_and_build_hold_no_per_sample_blocks(rng):
    # a ReLU at layer 1's output and nothing above: the geometry's (n, c, r) stack is layer
    # 2's weights with masked columns, with no (n, r, r) masked identity, and the diagonal
    # build is one GEMM that holds a few (n, K r) arrays (alpha, its masked copy) and H, with
    # no (m, r, r) window of Gram tiles
    d, r, c, K, n = 8, 48, 8, 2, 100
    net = mq.LinearNetwork([rng.normal(size=(r, d)), rng.normal(size=(c, r))], ["relu"])
    deltas = [mq.ResidualUpdate(1, 0.3 * rng.normal(size=(r, d)), task_id=k) for k in range(K)]
    calib = mq.CalibrationSet(rng.normal(size=(n, d)), rng.normal(size=(n, c)))
    peaks = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        geometry = mq.merge_geometry(net, 1, calib)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mq.build_diagonal_qp(geometry, deltas)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert geometry.one_gap is not None and geometry.downstream.shape == (n, c, r)
    assert peaks[0] < 8 * n * r * r
    assert peaks[1] < 4 * 8 * n * K * r < 8 * n * r * r


def test_two_gap_geometry_holds_no_masked_identity(rng):
    # two ReLU gaps above layer 1 and r >> c: the stack starts as layer 2's weights with
    # masked columns, with no (n, r, r) masked identity, and each row mask is rebound before
    # its product, so at most two (n, c1, r) stacks are alive at once
    d, r, c1, c, n = 4, 256, 16, 16, 20
    layers = [rng.normal(size=s) for s in ((r, d), (c1, r), (c, c1))]
    net = mq.LinearNetwork(layers, ["relu", "relu"])
    calib = mq.CalibrationSet(rng.normal(size=(n, d)), rng.normal(size=(n, c)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        geometry = mq.merge_geometry(net, 1, calib)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert geometry.one_gap is None and geometry.downstream.shape == (n, c, r)
    stack = 8 * n * c1 * r
    assert peak < 2.5 * stack < 8 * n * r * r


def test_box_solver_leaves_the_qp_unchanged(rng):
    net, deltas, calib = _random_instance(rng, K=2, n=3)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    # d = 1/K starts inside the box, so the first Newton step is on H itself
    with mock.patch.object(qpmod, "_newton_direction", wraps=qpmod._newton_direction) as spy:
        assert _unchanged_after(qp, mq.solve_box_constrained)
    assert spy.call_args_list[0].args[2].all()
    # one task starts at the upper bound, where coordinate 0's gradient holds it
    held = mq.QuadraticObjective(
        H=np.eye(3), g=np.array([-5.0, 0.5, -0.5]), constant=0.0, n_tasks=1, n_directions=3
    )
    with mock.patch.object(qpmod, "_newton_direction", wraps=qpmod._newton_direction) as spy:
        assert _unchanged_after(held, mq.solve_box_constrained)
    assert spy.call_args_list[0].args[2].tolist() == [False, True, True]


def test_caller_h_is_stored_as_its_symmetric_part():
    H = np.array([[3.0, -1.0, 0.5], [-1.0, 4.0, 2.0], [0.5, 2.0, -6.0]])
    near = H.copy()
    near[0, 2] += 1e-12 * np.abs(H).max()
    caller = near.tobytes()
    qp = mq.QuadraticObjective(H=near, g=np.zeros(3), constant=0.0, n_tasks=1, n_directions=3)
    assert np.array_equal(qp.H, qp.H.T)
    assert np.array_equal(qp.H, 0.5 * (near + near.T))
    assert near.tobytes() == caller
    # an exactly symmetric H is stored as given
    qp = mq.QuadraticObjective(H=H, g=np.zeros(3), constant=0.0, n_tasks=1, n_directions=3)
    assert qp.H.tobytes() == H.tobytes()
    far = H.copy()
    far[0, 2] += 1e-9 * np.abs(H).max()
    with pytest.raises(ValueError, match="not symmetric"):
        mq.QuadraticObjective(H=far, g=np.zeros(3), constant=0.0, n_tasks=1, n_directions=3)


@contextlib.contextmanager
def _lapack_spy():
    """Record every matrix handed to np.linalg's solve, cholesky and eigh."""
    seen = []

    def spy(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            seen.append((name, a))
            return real(a, *args, **kwargs)

        return mock.patch.object(np.linalg, name, call)

    with spy("solve"), spy("cholesky"), spy("eigh"):
        yield seen


def _partly_held_qp(rng, n=12):
    """One task starting at d = 1 = hi, with a negative gradient on half the coordinates."""
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    H = 0.5 * (H + H.T)
    push = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return mq.QuadraticObjective(
        H=H, g=push - H @ np.ones(n), constant=0.0, n_tasks=1, n_directions=n
    )


@pytest.mark.parametrize(
    "case", ["exact-certified", "exact-cut", "prefix-certified", "box-all-free", "box-held"]
)
def test_solvers_hand_lapack_column_ordered_qp_matrices(case, rng):
    # H is exactly symmetric, so its transpose view holds the same values and
    # is already in LAPACK's column order: numpy's copy into the LAPACK buffer
    # reads contiguous columns.  prefix_optima factors H bordered by -g, which
    # is symmetric too.
    net, deltas, calib = _random_instance(rng, d=5, K=2, n=12 if "cut" not in case else 3)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    if case == "box-held":
        qp = _partly_held_qp(rng)
    if not case.startswith("box"):
        assert qpmod._certified(qp.H) == case.endswith("certified")
    solve = {
        "exact-certified": mq.solve_unconstrained,
        "exact-cut": mq.solve_unconstrained,
        "prefix-certified": qpmod.prefix_optima,
        "box-all-free": mq.solve_box_constrained,
        "box-held": mq.solve_box_constrained,
    }[case]
    with mock.patch.object(qpmod, "_newton_direction", wraps=qpmod._newton_direction) as newton:
        with _lapack_spy() as seen:
            solve(qp)
    if case.startswith("box"):
        free = newton.call_args_list[0].args[2]
        assert free.all() == (case == "box-all-free") and free.any()
    assert seen and all(np.array_equal(a, a.T) and a.flags.f_contiguous for _, a in seen)


@pytest.mark.parametrize("path", ["bordered", "fallback"])
def test_prefix_optima_match_a_triangular_solve(path, rng):
    # the reference: z = L^{-1}(-g) by scipy's triangular solve on the
    # direction-major H; a QP with J < 0 somewhere puts z^T z above the
    # bordered factor's corner 4 const + 1, so LAPACK fails and the loop of
    # rank-1 updates, one a coordinate, factors it
    scipy_linalg = pytest.importorskip("scipy.linalg")
    net, deltas, calib = _random_instance(rng, d=5, r=6, c=4, K=3, n=12)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    if path == "fallback":
        qp = mq.QuadraticObjective(
            H=qp.H, g=qp.g, constant=-1.0, n_tasks=qp.n_tasks, n_directions=qp.n_directions
        )
    assert qpmod._certified(qp.H)
    K = qp.n_tasks
    order = np.arange(qp.dim).reshape(K, -1).T.ravel()
    L = np.linalg.cholesky(qp.H[np.ix_(order, order)])
    z = scipy_linalg.solve_triangular(L, -qp.g[order], lower=True)
    want = qp.constant - 0.5 * np.cumsum(z * z)[K - 1 :: K]
    with mock.patch.object(np, "outer", wraps=np.outer) as update:
        got = qpmod.prefix_optima(qp)
    assert update.call_count == (0 if path == "bordered" else qp.dim)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _planted_design(seed, K, P, kinds, scale):
    """An explicit stacked design with planted dependencies and its QP: (qp, A, b, kept, span).

    Columns are task-major (k * P + p) and planted direction-major, the order prefix_optima
    factors in.  The first column is "free"; each later one follows kinds.  A free column is
    Gaussian, a "zero" one 0, a "copy" a Gaussian mix of the free columns before it, and a
    "near" one such a mix plus 1e-7 times a Gaussian w: its pivot, about 1e-14 of a free
    one's, is under the cut, yet w is a direction the unrestricted optimum can use.  With
    K P + 3 rows the free columns are independent, their pivots far above the cut, and
    g = 2 A^T b lies in H's range.  kept marks the free columns; span holds each column's
    addition to the range of the columns before it (the column, w or 0).
    """
    rng = np.random.default_rng(seed)
    n = K * P
    A, span, kept = np.zeros((n + 3, n)), np.zeros((n + 3, n)), np.zeros(n, dtype=bool)
    for i, kind in enumerate(["free", *kinds][:n]):
        col, mix = (i % K) * P + i // K, A[:, kept] @ rng.normal(size=kept.sum())
        if kind == "free":
            A[:, col] = span[:, col] = rng.normal(size=n + 3) * rng.uniform(0.5, 2.0)
            kept[col] = True
        elif kind == "copy":
            A[:, col] = mix
        elif kind == "near":
            span[:, col] = rng.normal(size=n + 3)
            A[:, col] = mix + 1e-7 * span[:, col]
    A, b = scale * A, scale * rng.normal(size=n + 3)
    qp = mq.QuadraticObjective(H=2.0 * A.T @ A, g=2.0 * A.T @ b, constant=b @ b, n_tasks=K,
                               n_directions=P)
    return qp, A, b, kept, span


def _residual_energy(M, b):
    """||b - P b||^2, P the projector onto the range of M's (independent) columns."""
    q = np.linalg.qr(M)[0]
    for _ in range(2):
        b = b - q @ (q.T @ b)
    return b @ b


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tasks=st.integers(1, 3),
    n_directions=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["free", "zero", "copy", "near"]), min_size=11, max_size=11),
    scale=st.sampled_from([1e-50, 1.0, 1e50]),
)
def test_prefix_optima_are_least_squares_over_the_kept_columns(
    seed, n_tasks, n_directions, kinds, scale
):
    # prefix p's value is the least-squares residual of b over its kept (free) columns, and
    # not below the one over all its columns, whose range its free columns and near ones' w
    # span.  The rounding term is the factor's backward error E ~ eps ||H|| at the kept
    # minimiser d*, d*' E d* / 2, plus rounding of the constant's size, a coordinate each
    qp, A, b, kept, span = _planted_design(seed, n_tasks, n_directions, kinds, scale)
    got, eps = qpmod.prefix_optima(qp), np.finfo(float).eps
    for p in range(1, n_directions + 1):
        prefix = (np.arange(qp.dim) % n_directions) < p
        d = np.zeros(qp.dim)
        d[prefix & kept] = np.linalg.lstsq(A[:, prefix & kept], -b, rcond=None)[0]
        rounding = 4 * qp.dim * eps * (np.linalg.norm(qp.H, 2) * (d @ d) + qp.constant)
        assert abs(got[p - 1] - _residual_energy(A[:, prefix & kept], b)) <= rounding, p
        assert got[p - 1] >= _residual_energy(span[:, prefix & span.any(axis=0)], b) - rounding


def _c_ordered(name):
    """np.linalg.<name> run on a C-ordered copy of its matrix."""
    real = getattr(np.linalg, name)
    return mock.patch.object(
        np.linalg, name, lambda a, *args, **kw: real(np.ascontiguousarray(a), *args, **kw)
    )


@pytest.mark.parametrize("K, r, c, n", [(2, 64, 8, 40), (8, 128, 32, 120)])
def test_transposed_operands_keep_every_bit(K, r, c, n, rng):
    # K * r = 128, and 1024 as on the wide-linear workload
    net, deltas, calib = _random_instance(rng, d=64, r=r, c=c, K=K, n=n)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    assert qp.dim == K * r and qpmod._certified(qp.H)
    d = mq.solve_unconstrained(qp).flat
    assert same_bits(d, np.linalg.solve(np.ascontiguousarray(qp.H), -qp.g))
    cut = qpmod._eigen_cut(qp.H, qp.g)
    with _c_ordered("eigh"):
        reference = qpmod._eigen_cut(qp.H, qp.g)
    assert all(same_bits(a, b) for a, b in zip(cut, reference))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_closed_form_is_a_global_minimum(seed):
    # the objective is a sum of squares, so it is nonnegative everywhere and
    # the eigendecomposition solve can never be beaten by a random probe
    rng = np.random.default_rng(seed)
    net, deltas, calib = _random_instance(rng, d=3, r=3, c=2, K=2, n=5)
    qp = mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
    star = mq.objective_value(qp, mq.solve_unconstrained(qp))
    probe = rng.normal(size=qp.dim)
    val = mq.objective_value(qp, probe)
    assert val >= -1e-10
    assert star <= val + 1e-9 * max(1.0, abs(star))


def test_nonfinite_inputs_raise_numerical_error(rng):
    net, deltas, calib = _random_instance(rng)
    deltas[0].delta[0, 0] = np.inf
    with pytest.raises((mq.NumericalError, ValueError)):
        mq.build_diagonal_qp(mq.merge_geometry(net, 1, calib), deltas)
