"""Row-coefficient forms of soup, task arithmetic, DARE, TIES, and Fisher."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mergeqp as mq


def _updates(*mats):
    return [mq.ResidualUpdate(1, np.asarray(m, dtype=float), task_id=k) for k, m in enumerate(mats)]


def test_soup_is_plain_average():
    ups = _updates([[2.0, 4.0]], [[0.0, 0.0]])
    assert np.array_equal(mq.soup(ups), [[1.0, 2.0]])
    assert np.all(mq.soup_coefficients(4, 3) == 0.25)


def test_task_arithmetic_scalar_and_per_task():
    ups = _updates([[1.0, 0.0]], [[0.0, 2.0]])
    assert np.array_equal(mq.baseline_delta("ta", ups, {"lambdas": 0.5}), [[0.5, 1.0]])
    assert np.array_equal(mq.baseline_delta("ta", ups, {"lambdas": [1.0, 0.25]}), [[1.0, 0.5]])
    assert np.array_equal(mq.baseline_delta("ta", ups), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="3 weights for 2 tasks"):
        mq.baseline_delta("ta", ups, {"lambdas": [1.0, 0.5, 0.25]})


def test_merged_delta_from_coefficients_loops(rng):
    ups = _updates(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    coeffs = rng.normal(size=(2, 3))
    got = mq.merged_delta_from_coefficients(ups, coeffs)
    want = np.zeros((3, 2))
    for k in range(2):
        for i in range(3):
            want[i] += coeffs[k, i] * ups[k].delta[i]
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("coeffs", [np.ones(6), np.float64(1.0), np.ones((3, 2))])
def test_merged_delta_from_coefficients_takes_one_row_per_task(rng, coeffs):
    ups = _updates(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    with pytest.raises(ValueError, match="one coefficient row per task"):
        mq.merged_delta_from_coefficients(ups, coeffs)


def test_dare_coefficients_row_level_mask():
    c = mq.dare_coefficients(2, 6, keep_prob=0.5, seed=3)
    assert c.shape == (2, 6)
    # every entry is either dropped or rescaled by 1/p
    assert set(np.unique(c)) <= {0.0, 2.0}
    assert np.array_equal(c, mq.dare_coefficients(2, 6, keep_prob=0.5, seed=3))
    assert np.all(mq.dare_coefficients(2, 6, keep_prob=1.0, seed=0) == 1.0)


def test_dare_keep_prob_bounds():
    with pytest.raises(ValueError):
        mq.dare_coefficients(1, 3, keep_prob=0.0, seed=0)
    with pytest.raises(ValueError):
        mq.dare_coefficients(1, 3, keep_prob=1.5, seed=0)


def test_ties_worked_example():
    # density 2/3 keeps ceil(2) = 2 rows per task by row norm
    a = [[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    b = [[-1.0, 0.0], [4.0, 0.0], [0.1, 0.0]]
    ups = _updates(a, b)
    coeffs = mq.ties_coefficients(ups, 2 / 3)
    # task a trims its weakest row (norm 1), task b trims row 2 (norm 0.1)
    # row 0: a (+3) and b (-1) both kept, election picks the positive side
    # row 1: only b survives the trim
    # row 2: only a survives the trim
    assert np.array_equal(coeffs[:, 0], [1.0, 0.0])
    assert np.array_equal(coeffs[:, 1], [0.0, 1.0])
    assert np.array_equal(coeffs[:, 2], [1.0, 0.0])
    merged = mq.baseline_delta("ties", ups, {"density": 2 / 3})
    assert np.allclose(merged, [[3.0, 0.0], [4.0, 0.0], [2.0, 0.0]])


def test_ties_sign_election_prefers_heavier_side():
    ups = _updates([[1.0]], [[-5.0]])
    coeffs = mq.ties_coefficients(ups, 1.0)
    # negative mass dominates, positive row is discarded
    assert np.array_equal(coeffs, [[0.0], [1.0]])


def test_ties_exact_cancellation_breaks_toward_first_task():
    ups = _updates([[2.0, 0.0]], [[-2.0, 0.0]])
    coeffs = mq.ties_coefficients(ups, 1.0)
    assert np.array_equal(coeffs, [[1.0], [0.0]])


def test_ties_zero_rows_yield_zero_coefficients():
    ups = _updates([[0.0, 0.0]], [[0.0, 0.0]])
    assert np.all(mq.ties_coefficients(ups, 1.0) == 0.0)


def test_fisher_merge_hand_example():
    thetas = [np.array([[0.0]]), np.array([[4.0]])]
    fishers = [np.array([[1.0]]), np.array([[3.0]])]
    merged = mq.fisher_merge(thetas, fishers)
    assert np.isclose(merged[0, 0], 3.0)


def test_fisher_uniform_weights_reduce_to_mean(rng):
    thetas = [rng.normal(size=(2, 3)) for _ in range(3)]
    ones = [np.ones((2, 3))] * 3
    assert np.allclose(mq.fisher_merge(thetas, ones), np.mean(thetas, axis=0), atol=1e-12)


def test_fisher_zero_information_falls_back_to_mean():
    thetas = [np.array([[2.0]]), np.array([[6.0]])]
    zeros = [np.zeros((1, 1))] * 2
    assert np.isclose(mq.fisher_merge(thetas, zeros)[0, 0], 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_fisher_merge_rejects_non_finite_and_negative_weights(bad):
    # a NaN weight would read as zero information, an inf one would make NaN weights
    thetas = [np.array([[2.0, 1.0]]), np.array([[6.0, 3.0]])]
    fishers = [np.array([[1.0, bad]]), np.ones((1, 2))]
    with pytest.raises(ValueError, match="fisher weights must be finite and non-negative"):
        mq.fisher_merge(thetas, fishers)


def test_fisher_diagonals_form_no_jacobian_stack(rng):
    # two ReLU gaps above layer 1 and r >> c: M comes back as (n, r) rows, so no (n, c, r)
    # array of per-sample Jacobians is allocated
    d, r, c1, c, n = 4, 256, 16, 16, 20
    net = mq.LinearNetwork([rng.normal(size=s) for s in ((r, d), (c1, r), (c, c1))],
                           ["relu", "relu"])
    calib = mq.CalibrationSet(rng.normal(size=(n, d)), rng.normal(size=(n, c)), [0] * n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fishers = mq.fisher_diagonals(net, calib, [0], [1])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fishers[1][0].shape == (r, d) and np.all(np.isfinite(fishers[1][0]))
    assert peak < 8 * n * c * r


def test_fisher_diagonals_stay_finite_above_a_dead_unit():
    # W2's column 0 (near 1e308) sits above unit 0 of layer 1, which no input x < 0
    # activates: the pulled-back residual overflows there and the ReLU gap zeroes it
    net = mq.LinearNetwork([[[1.0], [-1.0]], [[1e308, 1.0], [1e308, 1.0]]], ["relu"])
    x = np.array([[-1.0], [-2.0], [-3.0]])
    calib = mq.CalibrationSet(x, np.full((3, 2), 5.0), [0] * 3)
    with np.errstate(over="ignore"):
        assert np.isinf((mq.forward(net, x) - calib.targets) @ net.layers[1])[:, 0].all()
    fishers = mq.fisher_diagonals(net, calib, [0], [1, 2])
    assert all(np.all(np.isfinite(f)) for fs in fishers.values() for f in fs)
    assert np.all(fishers[1][0][0] == 0.0) and fishers[1][0][1, 0] > 0.0
    # an input that activates unit 0 overflows the forward pass itself
    hot = mq.CalibrationSet(np.array([[-1.0], [2.0]]), np.zeros((2, 2)), [0, 0])
    for layer in (1, 2):
        with pytest.raises(mq.NumericalError, match=f"overflows at or above layer {layer}"):
            mq.fisher_diagonals(net, hot, [0], [layer])
    # a pulled-back residual L_j' b_j that overflows over a finite forward pass is named
    steep = mq.LinearNetwork([[[1e-50], [1e-50]], [[1e200, 1e200]]])
    with pytest.raises(mq.NumericalError, match="residual L_j' b_j or its square overflows"):
        mq.fisher_diagonals(steep, mq.CalibrationSet([[1.0]], [[0.0]], [0]), [0], [1])


@pytest.mark.parametrize("layers, x, y", [
    # m_j = 2e160 is finite, but m_j^2 overflows while u_j^2 = 1e-380 underflows: inf * 0
    ([[[1e-50], [1e-50]], [[1e200, 1e200]]], 1e-190, 0.0),
    # the forward pass is 1e300, finite; m_j at layer 1 is 1e600
    ([[[1.0]], [[1e300]], [[1e300]]], 1e-300, 1.0),
])
def test_fisher_diagonals_raise_on_any_non_finite_diagonal(layers, x, y):
    net = mq.LinearNetwork(layers)
    calib = mq.CalibrationSet([[x]], [[y]], [0])
    assert np.isfinite(mq.forward(net, calib.inputs)).all()
    with pytest.raises(mq.NumericalError,
                       match="pulled-back residual L_j' b_j or its square overflows at layer 1"):
        mq.fisher_diagonals(net, calib, [0], [1])


def test_fisher_delta_weighted_combination(rng):
    ups = _updates(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    fishers = [np.abs(rng.normal(size=(2, 2))) + 0.1 for _ in range(2)]
    got = mq.baseline_delta("fisher", ups, {"fishers": fishers})
    den = fishers[0] + fishers[1]
    want = (fishers[0] * ups[0].delta + fishers[1] * ups[1].delta) / den
    assert np.allclose(got, want, atol=1e-12)


def test_baseline_delta_dispatch(rng):
    ups = _updates(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))

    def combined(coeffs):
        return mq.merged_delta_from_coefficients(ups, coeffs)

    assert np.array_equal(mq.baseline_delta("soup", ups), mq.soup(ups))
    assert np.array_equal(mq.soup(ups), combined(mq.soup_coefficients(2, 3)))
    assert np.array_equal(
        mq.baseline_delta("ta", ups, {"lambdas": 0.5}), combined(mq.ta_coefficients([0.5] * 2, 3))
    )
    assert np.array_equal(
        mq.baseline_delta("dare", ups, {"keep_prob": 0.5, "seed": 7}),
        mq.dare_row_uniform(ups, 0.5, seed=7),
    )
    assert np.array_equal(
        mq.dare_row_uniform(ups, 0.5, seed=7), combined(mq.dare_coefficients(2, 3, 0.5, 7))
    )
    assert np.array_equal(
        mq.baseline_delta("ties", ups, {"density": 0.5}),
        combined(mq.ties_coefficients(ups, 0.5)),
    )
    with pytest.raises(ValueError):
        mq.baseline_delta("stack", ups)
    with pytest.raises(ValueError):
        mq.baseline_delta("fisher", ups, {})


def _ties_coefficients_loop(mats, density):
    """Reference TIES weights: the row-by-row loop the vectorised rule replaced."""
    K, r = len(mats), mats[0].shape[0]
    keep_count = math.ceil(density * r)
    kept = np.zeros((K, r), dtype=bool)
    for k, m in enumerate(mats):
        order = np.argsort(-np.linalg.norm(m, axis=1), kind="stable")
        kept[k, order[:keep_count]] = True
    mass = np.stack([m.sum(axis=1) for m in mats]) * kept
    coeffs = np.zeros((K, r))
    for i in range(r):
        total = mass[:, i].sum()
        if total != 0.0:
            sign = np.sign(total)
        else:
            sign = 0.0
            for k in range(K):
                if mass[k, i] != 0.0:
                    sign = np.sign(mass[k, i])
                    break
        if sign == 0.0:
            continue
        survivors = [k for k in range(K) if mass[k, i] != 0.0 and np.sign(mass[k, i]) == sign]
        for k in survivors:
            coeffs[k, i] = 1.0 / len(survivors)
    return coeffs


def test_ties_exact_cancellation_over_eight_tasks():
    # row 1 cancels exactly when summed pairwise; adding task by task leaves
    # 5.6e-17, which would elect the positive side instead of task 1's
    rows = [[-1, 4, 0, 1, 2, -2, -2, -3], [0, -5, -2, -3, 1, 3, 4, 2], [2, 5, 2, -2, 0, -1, -3, 1]]
    mats = [np.array([[rows[i][k] * 0.1] for i in range(3)]) for k in range(8)]
    coeffs = mq.ties_coefficients(mats, 1.0)
    assert np.array_equal(coeffs, _ties_coefficients_loop(mats, 1.0))
    assert np.array_equal(coeffs[:, 1], [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0, 0.0])


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 40),
    r=st.integers(1, 6),
    c=st.integers(1, 2),
    density=st.sampled_from([0.2, 0.5, 2 / 3, 1.0]),
    cancel=st.booleans(),
)
def test_ties_coefficients_match_loop(seed, K, r, c, density, cancel):
    # multiples of 0.1 round on every sum; with cancel, the last task's tenths
    # make each entry's sum over tasks exactly 0 in decimal, not in floats
    rng = np.random.default_rng(seed)
    tenths = rng.integers(-5, 6, size=(K, r, c))
    if cancel:
        tenths[-1] = -tenths[:-1].sum(axis=0)
    mats = [m * 0.1 for m in tenths]
    for m in mats:
        m[rng.random(r) < 0.2] = 0.0
    assert np.array_equal(mq.ties_coefficients(mats, density), _ties_coefficients_loop(mats, density))
