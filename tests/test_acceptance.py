"""Acceptance suite.

Each test checks one shipped guarantee end to end and prints a single
pass/fail line so a full run reads as a checklist.  Tolerances are part of
the contract; loosening one here is an API change, not a test tweak.
"""

import pathlib
import time

import numpy as np
import pytest
import scipy.optimize

import mergeqp as mq

from conftest import same_bits

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_bundle.json"


@pytest.fixture
def report(capsys):
    def _report(num, name, ok):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num:02d}: {name}"

    return _report


def _total_loss(net, calib):
    return sum(
        float(np.sum((mq.forward(net, calib.inputs[j]) - calib.targets[j]) ** 2))
        for j in range(len(calib))
    )


def test_01_qp_dominates_row_baselines(report):
    start = time.perf_counter()
    ok = True
    for seed in range(50):
        bundle = mq.gen_linear_tasks(
            dims=(8, 6, 5), n_layers=2, merge_layer=1, n_tasks=3, n_samples=20, seed=seed
        )
        calib = bundle.pooled_calibration()
        deltas = bundle.residuals[1]
        qp = mq.build_diagonal_qp(mq.merge_geometry(bundle.base, 1, calib), deltas)
        star = mq.objective_value(qp, mq.solve_unconstrained(qp))
        tol = 1e-9 * max(1.0, qp.constant)
        mats = [d.delta for d in deltas]
        candidates = [mq.soup_coefficients(3, 6)]
        candidates += [mq.ta_coefficients([lam] * 3, 6) for lam in (0.25, 0.5, 0.75, 1.0)]
        candidates += [mq.dare_coefficients(3, 6, 0.5, s) for s in range(50)]
        candidates.append(mq.ties_coefficients(mats, 0.5))
        for cand in candidates:
            if star > mq.objective_value(qp, cand.ravel()) + tol:
                ok = False
    elapsed = time.perf_counter() - start
    report(1, f"diagonal QP no worse than row baselines ({elapsed:.2f}s)", ok and elapsed < 10.0)


def test_02_projected_energy_trace_identity(report):
    rng = np.random.default_rng(20)
    ok = True
    for _ in range(100):
        B = rng.normal(size=(12, 6))
        em = mq.energy_matrix(B)
        p = int(rng.integers(1, 6))
        Q, _ = np.linalg.qr(rng.normal(size=(6, p)))
        P = Q @ Q.T
        direct = sum(float(np.sum((P @ b) ** 2)) for b in B)
        trace_val = float(np.trace(em @ P))
        if abs(direct - trace_val) > 1e-9 * max(1.0, abs(direct)):
            ok = False
    report(2, "projected energy equals trace of S P", ok)


def test_03_eigenbasis_beats_random_subspaces(report):
    rng = np.random.default_rng(7)
    S = mq.energy_matrix(rng.normal(size=(30, 10)))
    w = np.linalg.eigvalsh(S)[::-1]
    ok = True
    for p in range(1, 10):
        basis = mq.optimal_basis(S, p)
        captured = float(np.trace(S @ (basis.columns @ basis.columns.T)))
        best_random = -np.inf
        for _ in range(1000):
            Q, _ = np.linalg.qr(rng.normal(size=(10, p)))
            best_random = max(best_random, float(np.trace(S @ (Q @ Q.T))))
        if captured < best_random - 1e-12:
            ok = False
        if abs(captured - w[:p].sum()) > 1e-9 * max(1.0, w[:p].sum()):
            ok = False
    report(3, "top eigenvectors capture the most energy", ok)


def test_04_capture_gap_matches_relaxed_loss_difference(report):
    rng = np.random.default_rng(40)
    ok = True
    for _ in range(100):
        B = rng.normal(size=(10, 5))
        em = mq.energy_matrix(B)
        p = int(rng.integers(1, 5))
        Qm, _ = np.linalg.qr(rng.normal(size=(5, p)))
        P_model = Qm @ Qm.T
        opt = mq.optimal_basis(em, p)
        P_opt = opt.columns @ opt.columns.T
        relaxed_model = sum(float(np.sum((b - P_model @ b) ** 2)) for b in B)
        relaxed_opt = sum(float(np.sum((b - P_opt @ b) ** 2)) for b in B)
        formula = float(np.trace(em @ (P_opt - P_model)))
        if abs((relaxed_model - relaxed_opt) - formula) > 1e-9 * max(1.0, abs(formula)):
            ok = False
    report(4, "optimality gap formula matches direct relaxed losses", ok)


def test_05_energy_capture_tracks_merge_quality_on_relu(report):
    bundle = mq.gen_relu_tasks(seed=0)
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    deltas = bundle.residuals[layer]
    geometry = mq.merge_geometry(bundle.base, layer, calib)
    n = len(calib)
    p_max = min(deltas[0].delta.shape[0], bundle.base.output_dim)

    def chain_stats(basis):
        fracs, mses = [], []
        for p in range(1, p_max + 1):
            prefix = basis.prefix(p)
            fracs.append(mq.basis_fraction(prefix, geometry))
            qp = mq.build_general_basis_qp(geometry, deltas, prefix)
            mses.append(mq.objective_value(qp, mq.solve_unconstrained(qp)) / n)
        return fracs, mses

    eigen_f, eigen_m = chain_stats(mq.layer_basis("eigen", p_max, 0, deltas, geometry))
    _, std_m = chain_stats(mq.layer_basis("standard", p_max, 0, deltas, geometry))
    rand_m = [
        chain_stats(mq.layer_basis("random", p_max, seed, deltas, geometry))[1]
        for seed in range(20)
    ]
    ok = all(b >= a - 1e-12 for a, b in zip(eigen_f, eigen_f[1:]))
    ok = ok and all(b <= a + 1e-10 for a, b in zip(eigen_m, eigen_m[1:]))
    for i in range(p_max):
        worst_random = max(chain[i] for chain in rand_m)
        ok = ok and eigen_m[i] <= std_m[i] + 1e-10
        ok = ok and std_m[i] <= worst_random + 1e-10
    report(5, "captured energy rises and merge error falls with p", ok)


def test_06_shared_strength_closed_form(report):
    ok = True
    for sigmas in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0, 5.0)):
        bundle = mq.gen_shared_direction_instance(sigmas=sigmas, seed=11, target_task=0)
        calib = bundle.pooled_calibration()
        layer = bundle.layers_with_updates[0]
        u = np.asarray(bundle.meta["u"], dtype=float)
        basis = mq.OrthonormalBasis(u[:, None], origin="shared")
        geometry = mq.merge_geometry(bundle.base, layer, calib)
        qp = mq.build_general_basis_qp(geometry, bundle.residuals[layer], basis)
        got = mq.solve_unconstrained(qp).flat
        want = mq.svd_closed_form_weights(sigmas, 0)
        if np.max(np.abs(got - want)) > 1e-8:
            ok = False
    ok = ok and np.allclose(mq.svd_closed_form_weights((1.0, 1.0), 0), [0.5, 0.5], atol=1e-15)
    ok = ok and mq.svd_closed_form_weights((3.0,), 0)[0] == 1.0
    report(6, "shared-direction weights follow the strength ratios", ok)


def test_07_single_direction_solution(report):
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(100):
        m = rng.normal(size=int(rng.integers(1, 8)))
        while np.linalg.norm(m) == 0.0:
            m = rng.normal(size=3)
        beta = float(rng.normal() * 10)
        d = mq.solve_1d(m, beta)
        if abs(d @ m + beta) > 1e-12 * max(1.0, abs(beta)):
            ok = False
    ok = ok and np.array_equal(mq.solve_1d(np.zeros(4), 3.0), np.zeros(4))
    report(7, "single-direction closed form zeroes its objective", ok)


def test_08_full_standard_basis_reproduces_diagonal(report):
    rng = np.random.default_rng(80)
    ok = True
    for _ in range(20):
        d = int(rng.integers(3, 7))
        r = int(rng.integers(3, 7))
        c = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        net = mq.LinearNetwork([rng.normal(size=(r, d)), rng.normal(size=(c, r))])
        deltas = [
            mq.ResidualUpdate(1, 0.4 * rng.normal(size=(r, d)), task_id=k) for k in range(K)
        ]
        calib = mq.CalibrationSet(rng.normal(size=(8, d)), rng.normal(size=(8, c)))
        geometry = mq.merge_geometry(net, 1, calib)
        diag = mq.build_diagonal_qp(geometry, deltas)
        full = mq.build_general_basis_qp(geometry, deltas, mq.standard_basis(r, r))
        scale = max(1.0, float(np.max(np.abs(diag.H))))
        if np.max(np.abs(full.H - diag.H)) > 1e-10 * scale:
            ok = False
        if np.max(np.abs(full.g - diag.g)) > 1e-10 * scale:
            ok = False
    report(8, "full standard basis reproduces the diagonal QP", ok)


def test_09_box_solver_matches_closed_form_inside_bounds(report):
    ok = True
    for seed in (2, 12, 15, 26):
        bundle = mq.gen_linear_tasks(seed=seed)
        calib = bundle.pooled_calibration()
        layer = bundle.layers_with_updates[0]
        qp = mq.build_diagonal_qp(
            mq.merge_geometry(bundle.base, layer, calib), bundle.residuals[layer]
        )
        exact = mq.solve_unconstrained(qp)
        # these seeds are chosen so the optimum is strictly interior
        if exact.flat.min() <= 0.0 or exact.flat.max() >= 1.0:
            ok = False
        box = mq.solve_box_constrained(qp)  # the default certified projected Newton solve
        gap = mq.objective_value(qp, box) - mq.objective_value(qp, exact)
        if gap > 1e-8 * qp.constant:
            ok = False
    report(9, "projected solver reaches the interior optimum", ok)


def test_10_gradient_matches_finite_differences(report):
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(20):
        bundle = mq.gen_linear_tasks(seed=int(rng.integers(0, 1000)))
        calib = bundle.pooled_calibration()
        layer = bundle.layers_with_updates[0]
        qp = mq.build_diagonal_qp(
            mq.merge_geometry(bundle.base, layer, calib), bundle.residuals[layer]
        )
        d = rng.normal(size=qp.dim)
        grad = mq.objective_gradient(qp, d)
        h = 1e-6
        for i in rng.choice(qp.dim, size=5, replace=False):
            e = np.zeros(qp.dim)
            e[i] = h
            fd = (mq.objective_value(qp, d + e) - mq.objective_value(qp, d - e)) / (2 * h)
            if abs(grad[i] - fd) > 1e-6 * max(1.0, abs(fd)):
                ok = False
    report(10, "analytic gradient agrees with finite differences", ok)


def _joint_optimum(bundle, calib, seq_start):
    """Brute-force minimum over both layers' diagonal coefficients."""
    deltas1 = bundle.residuals[1]
    deltas2 = bundle.residuals[2]
    r1 = deltas1[0].delta.shape[0]
    r2 = deltas2[0].delta.shape[0]
    K = len(deltas1)
    split = K * r1

    def loss(flat):
        c1 = flat[:split].reshape(K, r1)
        c2 = flat[split:].reshape(K, r2)
        net = mq.apply_merged_residual(
            bundle.base, 1, mq.merged_delta_from_coefficients(deltas1, c1)
        )
        net = mq.apply_merged_residual(net, 2, mq.merged_delta_from_coefficients(deltas2, c2))
        return _total_loss(net, calib)

    dim = split + K * r2
    rng = np.random.default_rng(123)
    starts = [seq_start, np.full(dim, 0.5), np.zeros(dim)]
    starts += [rng.uniform(-1.0, 2.0, size=dim) for _ in range(5)]
    best = np.inf
    for s in starts:
        res = scipy.optimize.minimize(
            loss, s, method="L-BFGS-B",
            options={"ftol": 1e-16, "gtol": 1e-14, "maxiter": 5000},
        )
        best = min(best, float(res.fun))
    return best


def test_11_sequential_merging_contracts(report):
    # single layer: the plan is exactly the standalone solve
    bundle = mq.gen_linear_tasks(seed=4)
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    qp = mq.build_diagonal_qp(
        mq.merge_geometry(bundle.base, layer, calib), bundle.residuals[layer]
    )
    direct = mq.solve_unconstrained(qp)
    _, rep = mq.sequential_merge(bundle.base, bundle.residuals, calib, solver=mq.solve_unconstrained)
    ok = np.array_equal(rep.steps[0].coefficients, direct.values)

    # cross-layer interaction scales with the product of the update sizes
    two = mq.gen_linear_tasks(
        dims=(8, 6, 5), n_layers=2, merge_layer=(1, 2), n_tasks=3, n_samples=20, seed=5
    )
    cal2 = two.pooled_calibration()
    d1, d2 = two.residuals[1][0], two.residuals[2][0]
    ratios = [
        mq.interaction_error(two.base, d1, d2, cal2, scale=eps) / eps**2
        for eps in (1e-1, 1e-2, 1e-3)
    ]
    ok = ok and all(abs(r / ratios[0] - 1.0) <= 0.1 for r in ratios)

    # greedy bottom-up stays above the joint optimum by at most O(eps^2)
    gap_ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        toy = mq.gen_linear_tasks(
            dims=(3, 2, 2), n_layers=2, merge_layer=(1, 2), n_tasks=2,
            n_samples=8, delta_scale=eps, seed=1,
        )
        cal = toy.pooled_calibration()
        merged, rep_seq = mq.sequential_merge(toy.base, toy.residuals, cal, solver=mq.solve_unconstrained)
        seq_loss = _total_loss(merged, cal)
        seq_start = np.concatenate(
            [rec.coefficients.ravel() for rec in rep_seq.steps]
        )
        joint = _joint_optimum(toy, cal, seq_start)
        gap = seq_loss - joint
        ok = ok and gap >= -1e-9 * max(1.0, seq_loss)
        gap_ratios.append(max(gap, 0.0) / eps**2)
    # bounded above and below by a constant times eps^2
    ok = ok and max(gap_ratios) <= 3.0 * max(min(gap_ratios), 1e-12)
    report(11, "sequential merging is exact per layer and near-joint overall", ok)


def test_12_precision_weighted_average(report):
    merged = mq.fisher_merge([np.array([[0.0]]), np.array([[4.0]])],
                             [np.array([[1.0]]), np.array([[3.0]])])
    ok = np.isclose(merged[0, 0], 3.0, atol=1e-15)
    thetas = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])]
    fishers = [np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[2.0, 3.0], [1.0, 1.0]])]
    want = (fishers[0] * thetas[0] + fishers[1] * thetas[1]) / (fishers[0] + fishers[1])
    ok = ok and np.allclose(mq.fisher_merge(thetas, fishers), want, atol=1e-12)
    rng = np.random.default_rng(12)
    rand = [rng.normal(size=(3, 2)) for _ in range(3)]
    uniform = [np.full((3, 2), 0.7)] * 3
    ok = ok and np.allclose(
        mq.fisher_merge(rand, uniform), np.mean(rand, axis=0), atol=1e-12
    )
    report(12, "precision-weighted merge matches hand results and soup", ok)


def test_13_randomized_dropout_is_unbiased(report):
    delta = np.array([[1.0, -2.0], [0.5, 3.0]])
    ups = [mq.ResidualUpdate(1, delta, task_id=0)]
    ok = True
    for keep in (0.3, 0.5, 0.8):
        draws = np.stack(
            [mq.dare_row_uniform(ups, keep, seed=s) for s in range(10_000)]
        )
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        if np.any(np.abs(mean - delta) > 3.0 * se):
            ok = False
    report(13, "rescaled dropout stays centered on the full update", ok)


def test_14_linearization_quality(report):
    # identity activations: the linearized objective is the exact loss
    bundle = mq.gen_linear_tasks(seed=7)
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    deltas = bundle.residuals[layer]
    rng = np.random.default_rng(14)
    ok = True
    for _ in range(20):
        coeffs = rng.normal(size=(len(deltas), deltas[0].delta.shape[0]))
        merged = mq.merged_delta_from_coefficients(deltas, coeffs)
        lin = mq.linearized_delta_objective(mq.merge_geometry(bundle.base, layer, calib), merged)
        exact = _total_loss(mq.apply_merged_residual(bundle.base, layer, merged), calib)
        if abs(lin - exact) > 1e-9 * max(1.0, exact):
            ok = False

    # relu: the local map matches finite differences away from kinks
    relu = mq.gen_relu_tasks(seed=0)
    net = relu.base
    layer = relu.layers_with_updates[0]
    checked = 0
    while checked < 5:
        x = rng.normal(size=net.input_dim)
        a = x
        margin_ok = True
        for W, act in zip(net.layers, net.activations):
            pre = W @ a
            if act == "relu" and np.min(np.abs(pre)) < 1e-3:
                margin_ok = False
                break
            a = np.maximum(pre, 0.0)
        if not margin_ok:
            continue
        checked += 1
        m = mq.linearize_downstream(net, layer, x)
        u = mq.layer_input(net, layer, x)
        V = rng.normal(size=net.layer_shape(layer))
        h = 1e-6
        up = mq.forward(mq.apply_merged_residual(net, layer, h * V), x)
        dn = mq.forward(mq.apply_merged_residual(net, layer, -h * V), x)
        fd = (up - dn) / (2 * h)
        pred = m @ (V @ u)
        if np.linalg.norm(fd - pred) > 1e-5 * max(1.0, np.linalg.norm(pred)):
            ok = False

    # first-order error shrinks faster than the update as the scale drops
    calib_r = relu.pooled_calibration()
    geom = mq.merge_geometry(net, layer, calib_r)
    delta = relu.residuals[layer][0].delta
    rates = []
    for eps in (1e-1, 1e-2, 1e-3):
        pert = mq.apply_merged_residual(net, layer, eps * delta)
        total = 0.0
        for j in range(len(calib_r)):
            xj = calib_r.inputs[j]
            pred = eps * geom.downstream[j] @ (delta @ geom.hidden_inputs[j])
            total += np.linalg.norm(mq.forward(pert, xj) - mq.forward(net, xj) - pred)
        rates.append(total / len(calib_r) / eps)
    ok = ok and rates[0] > rates[1] > rates[2]
    report(14, "linearization is exact for linear nets and first order for relu", ok)


def test_15_round_trip_serialization(report, tmp_path):
    cases = []
    for seed in range(10):
        cases.append(mq.gen_linear_tasks(seed=seed, noise=0.05 * (seed % 3)))
    for seed in range(4):
        cases.append(
            mq.gen_linear_tasks(dims=(5, 4, 3), n_layers=2, merge_layer=(1, 2),
                                n_tasks=2, seed=seed)
        )
    for seed, sigmas in ((0, (1.0, 2.0)), (1, (2.0, 3.0, 5.0)), (2, (1.0, 1.0))):
        cases.append(mq.gen_shared_direction_instance(sigmas=sigmas, seed=seed))
    for seed in range(3):
        cases.append(mq.gen_relu_tasks(seed=seed))
    cases.append(mq.load_bundle(GOLDEN))
    assert len(cases) > 20

    ok = True
    for i, bundle in enumerate(cases):
        p1 = tmp_path / f"b{i}_1.json"
        p2 = tmp_path / f"b{i}_2.json"
        mq.save_bundle(bundle, p1)
        loaded = mq.load_bundle(p1)
        mq.save_bundle(loaded, p2)
        if p1.read_bytes() != p2.read_bytes():
            ok = False
        for W0, W1 in zip(bundle.base.layers, loaded.base.layers):
            if not same_bits(W0, W1):
                ok = False
        for layer in bundle.residuals:
            for u0, u1 in zip(bundle.residuals[layer], loaded.residuals[layer]):
                if not same_bits(u0.delta, u1.delta):
                    ok = False
        for c0, c1 in zip(bundle.calibration, loaded.calibration):
            if not (same_bits(c0.inputs, c1.inputs) and same_bits(c0.targets, c1.targets)):
                ok = False
    report(15, "serialization round trips are bit identical", ok)
