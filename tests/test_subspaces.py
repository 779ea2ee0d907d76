"""Energy matrices, optimal subspaces, and projector diagnostics."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mergeqp as mq
from mergeqp import subspaces

from conftest import same_bits


def _proj(Q):
    return Q @ Q.T


def test_energy_matrix_is_sum_of_outer_products(rng):
    B = rng.normal(size=(7, 4))
    em = mq.energy_matrix(B)
    S = np.zeros((4, 4))
    for row in B:
        S += np.outer(row, row)
    assert np.allclose(em, S, atol=1e-12)
    assert np.isclose(np.trace(em), np.sum(B * B))
    # exactly symmetric for every memory layout, including the strided half of a thin-QR
    # R factor that merge_geometry hands over
    R = np.linalg.qr(rng.normal(size=(30, 12)), mode="r")
    for rows in (B, np.asfortranarray(B), np.hsplit(R, 2)[1], rng.normal(size=(4, 7)).T):
        S = mq.energy_matrix(rows)
        assert np.array_equal(S, S.T)


def test_energy_matrix_that_overflows_is_a_numerical_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the one signal
        with pytest.raises(mq.NumericalError, match="residual energy matrix S = B\\^T B overflows"):
            mq.energy_matrix(np.full((3, 2), 1e200))


def test_optimal_basis_spans_top_eigenspace(rng):
    B = rng.normal(size=(12, 5))
    em = mq.energy_matrix(B)
    w = np.linalg.eigvalsh(em)[::-1]
    for p in (1, 2, 4):
        basis = mq.optimal_basis(em, p)
        cap = float(np.trace(em @ _proj(basis.columns)))
        assert np.isclose(cap, w[:p].sum(), rtol=1e-12)
        assert np.allclose(basis.columns.T @ basis.columns, np.eye(p), atol=1e-12)


def test_optimal_basis_deterministic_signs(rng):
    S = mq.energy_matrix(rng.normal(size=(9, 4)))
    b1 = mq.optimal_basis(S, 3)
    b2 = mq.optimal_basis(S.copy(), 3)
    assert np.array_equal(b1.columns, b2.columns)
    for col in b1.columns.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_optimal_basis_degenerate_spectrum_is_stable():
    # identity has a fully degenerate spectrum; result must still be deterministic
    b = mq.optimal_basis(np.eye(4), 2)
    assert np.allclose(b.columns.T @ b.columns, np.eye(2), atol=1e-12)
    assert np.array_equal(b.columns, mq.optimal_basis(np.eye(4), 2).columns)


def _loop_optimal_basis(S, p):
    """optimal_basis one eigenvector at a time: sign by the largest entry, keep its index."""
    w, V = np.linalg.eigh(S)
    anchors = []
    for i in range(V.shape[1]):
        idx = int(np.argmax(np.abs(V[:, i])))
        if V[idx, i] < 0:
            V[:, i] = -V[:, i]
        anchors.append(idx)
    return V[:, np.lexsort((anchors, -w))[:p]]


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["gaussian", "integer", "zeroed"]))
def test_optimal_basis_matches_per_column_loop_bit_for_bit(seed, kind):
    # integer residuals give eigenvalue ties, zeroed ones a null space
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 7))
    B = rng.normal(size=(int(rng.integers(1, 9)), c))
    if kind == "integer":
        B = np.round(B)
    elif kind == "zeroed":
        B[:, rng.random(c) < 0.5] = 0.0
    S = mq.energy_matrix(B)
    for p in range(1, c + 1):
        got = mq.optimal_basis(S, p).columns
        assert same_bits(got, _loop_optimal_basis(S, p))


def test_standard_basis_columns():
    b = mq.standard_basis(4, 2)
    assert np.array_equal(b.columns, np.eye(4)[:, :2])
    ordered = mq.standard_basis(4, 3, order=[2, 0, 3])
    assert np.array_equal(ordered.columns[:, 0], np.eye(4)[:, 2])


def test_coordinate_energy_order_ranks_by_captured_energy():
    S = np.diag([3.0, 1.0, 2.0])
    assert list(mq.coordinate_energy_order(S, np.eye(3))) == [0, 2, 1]


def test_coordinate_energy_order_with_output_map():
    S = np.diag([1.0, 10.0])
    # L sends coordinate 0 onto the heavy output axis
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    order = mq.coordinate_energy_order(S, L)
    assert list(order) == [0, 1]


def _coordinate_energy_order_loop(S, L):
    """Reference ranking: one w^T S w / w^T w score per column w of L, in a loop.

    Walking the scores in descending order, a score at most 1e-12 times the
    largest below the previous one joins its run; each run ranks by index.
    """
    scores = np.empty(L.shape[1])
    for i in range(L.shape[1]):
        w = L[:, i]
        nrm2 = float(w @ w)
        scores[i] = float(w @ S @ w) / nrm2 if nrm2 > 0 else 0.0
    tol = 1e-12 * max((abs(s) for s in scores), default=0.0)
    order, run = [], []
    for i in sorted(range(len(scores)), key=lambda i: -scores[i]):
        if run and scores[run[-1]] - scores[i] > tol:
            order += sorted(run)
            run = []
        run.append(i)
    return np.array(order + sorted(run), dtype=int)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 12),
    r=st.integers(1, 12),
    integral=st.booleans(),
)
def test_coordinate_energy_order_matches_loop(seed, c, r, integral):
    # zero columns of L score 0 and zero rows add nothing.  Integer entries
    # make every score exact, so equal scores are exact ties for the stable
    # sort.  The scores are summed in another order than the loop's, so on
    # non-integer data two mathematically equal scores can round apart and
    # rank either way; Gaussian draws make such ties improbable.
    rng = np.random.default_rng(seed)
    if integral:
        L = rng.integers(-2, 3, size=(c, r)).astype(float)
        B = rng.integers(-2, 3, size=(3, c)).astype(float)
    else:
        L = rng.normal(size=(c, r))
        B = rng.normal(size=(int(rng.integers(1, 6)), c))
    L[:, rng.random(r) < 0.3] = 0.0
    L[rng.random(c) < 0.2] = 0.0
    S = mq.energy_matrix(B)
    assert np.array_equal(mq.coordinate_energy_order(S, L), _coordinate_energy_order_loop(S, L))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 10), r=st.integers(2, 12))
def test_coordinate_energy_order_breaks_near_ties_by_index(seed, c, r):
    # S = 2 I + 0.3 1 1^T does not change under a permutation of coordinates,
    # so columns of L that permute one vector score the same in exact
    # arithmetic; summed in other orders, the computed scores split in the
    # last bits.  Columns permute one of two vectors: two tied runs.
    rng = np.random.default_rng(seed)
    S = 2.0 * np.eye(c) + 0.3 * np.ones((c, c))
    v = rng.normal(size=(2, c))
    which = rng.integers(0, 2, size=r)
    L = np.stack([rng.permutation(v[k]) for k in which], axis=1)
    order = mq.coordinate_energy_order(S, L)
    assert np.array_equal(order, _coordinate_energy_order_loop(S, L))
    exact = [(2.0 * (u @ u) + 0.3 * u.sum() ** 2) / (u @ u) for u in v]
    assume(abs(exact[0] - exact[1]) > 1e-9 * max(exact))
    assert order.tolist() == sorted(range(r), key=lambda i: (-exact[which[i]], i))


def test_svd_basis_single_delta_top_direction(rng):
    delta = rng.normal(size=(5, 3))
    U, s, _ = np.linalg.svd(delta, full_matrices=False)
    basis = mq.svd_basis([mq.ResidualUpdate(1, delta, task_id=0)], 1)
    assert abs(abs(basis.columns[:, 0] @ U[:, 0]) - 1.0) < 1e-10


def test_svd_basis_rank_deficient_warns():
    delta = np.outer([1.0, 0.0, 0.0], [1.0, 2.0])
    ups = [mq.ResidualUpdate(1, delta, task_id=0), mq.ResidualUpdate(1, delta, task_id=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the flag is the one signal
        basis = mq.svd_basis(ups, 3)
    assert basis.rank_deficient
    assert basis.p < 3


def _orthonormalize_loop(columns, tol_scale, max_columns=None):
    """Reference Gram-Schmidt: one column at a time, projected twice.

    Left-looking modified Gram-Schmidt with a second projection pass.  A
    column whose residual is at most 1e-10 * tol_scale is dropped;
    processing stops once max_columns columns are kept.  Returns the kept
    columns, the residual norm of every processed column and which of them
    were kept.
    """
    cols = np.asarray(columns, dtype=float)
    tol = 1e-10 * tol_scale
    kept, norms = [], []
    for i in range(cols.shape[1]):
        v = cols[:, i].copy()
        for q in kept:
            v -= (q @ v) * q
        for q in kept:
            v -= (q @ v) * q
        norms.append(np.linalg.norm(v))
        if norms[-1] > tol and norms[-1] > 0.0:
            kept.append(v / norms[-1])
            if len(kept) == max_columns:
                break
    Q = np.stack(kept, axis=1) if kept else np.zeros((cols.shape[0], 0))
    norms = np.array(norms)
    return Q, norms, (norms > tol) & (norms > 0.0)


def _pooled_sigma_u(deltas):
    """The vectors svd_basis orthonormalises: pooled sigma u's in sorted order."""
    entries = []
    for k, up in enumerate(deltas):
        U, s, _ = np.linalg.svd(up.delta, full_matrices=False)
        entries.extend((float(s[i]), k, i, U[:, i]) for i in range(s.shape[0]))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return np.stack([sig * u for sig, _, _, u in entries], axis=1)


def _dependent_columns(rng, rows, eps, zero):
    """Columns with a near-copy at eps, a multiple, a sum, and zero columns."""
    M = rng.normal(size=(rows, 7))
    M[:, 2] = M[:, 0] + eps * rng.normal(size=rows)
    M[:, 3] = 2.0 * M[:, 1]
    M[:, 5] = M[:, 0] + M[:, 1]
    if zero == "one":
        M[:, 4] = 0.0
    elif zero == "all":
        M[:] = 0.0
    return M


def _assert_matches_loop(basis, M, p, max_columns=None):
    """basis orthonormalises the columns of M; compare it with the loop."""
    kept = subspaces._orthonormalize_stack(M[None], max_columns)[0].any(axis=0)
    assert basis.p == kept.sum()
    assert basis.rank_deficient == (basis.p < p)
    _assert_kept_columns_match_loop(basis.columns, kept, M, max_columns)


def _assert_kept_columns_match_loop(columns, kept, M, max_columns=None):
    """columns, M's Gram-Schmidt output at the kept mask, match the loop.

    A column is projected against the kept columns before it, and a kept
    residual rho leaves rounding times scale / rho in every later column:
    the two routines' residual norms of column i differ by up to rounding
    times scale * before[i] (2.7e-16 measured), and a kept column with
    residual rho_i differs by that over rho_i.  They keep the same columns
    unless a residual lies that close to the 1e-10 * scale threshold, as a
    dependent column after a near-copy at 1e-7 can; the columns kept before
    it still match.  A column whose residual is all rounding (one kept
    after such a near-copy) gets no bound: its direction is rounding too.
    """
    scale = np.linalg.norm(M, axis=0).max(initial=0.0)
    Q_ref, norms, kept_ref = _orthonormalize_loop(M, scale or 1.0, max_columns)
    p = columns.shape[1]
    # before[i]: scale over the smallest residual kept before column i
    rho = np.where(kept_ref, norms, np.inf)
    before = scale / np.minimum.accumulate(np.concatenate([[scale or 1.0], rho[:-1]]))
    differ = np.flatnonzero(kept[: kept_ref.size] != kept_ref)
    if differ.size:
        i = differ[0]
        assert abs(norms[i] - 1e-10 * scale) <= 1e-14 * scale * before[i]
        n = kept_ref[:i].sum()
    else:
        assert p == Q_ref.shape[1]
        n = p
    if p:
        # well-conditioned columns (before and scale / rho near 1) stay at 1e-12
        bound = 1e-12 * (before * scale)[kept_ref][:n] / norms[kept_ref][:n]
        err = np.abs(columns[:, :n] - Q_ref[:, :n]).max(axis=0, initial=0.0)
        assert (err <= bound).all()
        assert np.abs(columns.T @ columns - np.eye(p)).max() <= 1e-13


_DEGENERATE = dict(
    seed=st.integers(0, 2**32 - 1),
    eps_exp=st.integers(3, 8),
    scale_exp=st.sampled_from([-100, 0, 100]),
    zero=st.sampled_from(["none", "one", "all"]),
)


@settings(deadline=None, max_examples=150)
@given(p=st.integers(1, 9), **_DEGENERATE)
def test_pullback_basis_matches_reference_loop(seed, eps_exp, scale_exp, zero, p):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(4, 8))
    W = 10.0**scale_exp * _dependent_columns(rng, c, 10.0**-eps_exp, zero)[:, :p]
    L = rng.normal(size=(c, c + 1))
    basis = mq.pullback_basis(L, W)
    _assert_matches_loop(basis, np.linalg.pinv(L) @ W, p)


@settings(deadline=None, max_examples=150)
@given(p=st.integers(1, 12), rank=st.integers(0, 3), **_DEGENERATE)
def test_svd_basis_matches_reference_loop(seed, eps_exp, scale_exp, zero, p, rank):
    # task k's update c_k v_k^T with unit v_k pools sigma u = +-c_k, so the
    # columns' dependences carry over; one more task adds a generic rank
    rng = np.random.default_rng(seed)
    C = _dependent_columns(rng, 6, 10.0**-eps_exp, zero)
    V = rng.normal(size=(4, C.shape[1]))
    mats = [np.outer(c, v / np.linalg.norm(v)) for c, v in zip(C.T, V.T)]
    mats.append(rng.normal(size=(6, rank)) @ rng.normal(size=(rank, 4)))
    ups = [mq.ResidualUpdate(1, 10.0**scale_exp * m, task_id=k) for k, m in enumerate(mats)]
    basis = mq.svd_basis(ups, p)
    _assert_matches_loop(basis, _pooled_sigma_u(ups), p, max_columns=p)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), eps_exp=st.integers(3, 8), n=st.integers(2, 8),
       p=st.integers(1, 7), max_columns=st.none() | st.integers(1, 7))
def test_orthonormalize_stack_matches_loop_per_sample(seed, eps_exp, n, p, max_columns):
    # every sample draws its own scale, zero pattern (none, one zero column,
    # a zero matrix) and inactive units (zero columns), so a stack mixes them
    rng = np.random.default_rng(seed)
    c = int(rng.integers(4, 8))
    M = np.stack([
        10.0 ** rng.choice([-100, 0, 100])
        * _dependent_columns(rng, c, 10.0**-eps_exp, rng.choice(["none", "one", "all"]))
        for _ in range(n)
    ])[:, :, rng.permutation(7)[:p]]
    M *= rng.random((n, 1, p)) >= 0.2
    Q = subspaces._orthonormalize_stack(M, max_columns)
    for j in range(n):
        kept = Q[j].any(axis=0)
        _assert_kept_columns_match_loop(Q[j][:, kept], kept, M[j], max_columns)
    # a sample's bits do not depend on the rest of its stack, with a column cap too: each
    # sample stops at its own max_columns kept columns, whenever the pass stops
    for a in range(n - 1):
        for b in range(a + 2, n + 1):
            assert same_bits(subspaces._orthonormalize_stack(M[a:b], max_columns), Q[a:b])


@pytest.mark.parametrize("shape", [(160, 16, 16), (9, 6, 4), (1, 32, 12)])
@pytest.mark.parametrize("max_columns", [None, 3])
def test_orthonormalize_stack_keeps_its_bits_at_any_scale(rng, shape, max_columns):
    # each matrix is scaled by a power of two first, which is exact: times 2^600 its squared
    # norms would overflow and times 2^-600 underflow, yet the output bits do not move
    n, c, P = shape
    M = rng.normal(size=shape) * (rng.random((n, 1, P)) >= 0.2)
    M[1::3] *= 1e-3
    M[2::4] = 0.0
    Q = subspaces._orthonormalize_stack(M, max_columns)
    for k in (600, -600):
        assert same_bits(subspaces._orthonormalize_stack(M * 2.0**k, max_columns), Q)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_svd_basis_of_huge_or_tiny_updates_keeps_every_direction(rng, scale):
    # at 1e160 the squared column norms overflowed, the drop threshold became inf and the
    # basis came back empty
    mats = [rng.normal(size=(4, 3)) for _ in range(2)]
    want = mq.svd_basis(mats, 2)
    got = mq.svd_basis([scale * m for m in mats], 2)
    assert got.p == 2 and not got.rank_deficient
    assert np.allclose(_proj(got.columns), _proj(want.columns), atol=1e-10)


def _relu_images(rng, n, c=5, r=7, P=6):
    """Per-sample maps with inactive units (zero columns) and exact zeros, a basis, residuals."""
    L = rng.normal(size=(n, c, r)) * (rng.random((n, 1, r)) >= 0.4)
    L[::7] = 0.0  # every unit off
    Q = np.linalg.qr(rng.normal(size=(r, P)))[0]
    return L, mq.OrthonormalBasis(Q, "test"), rng.normal(size=(n, c))


@pytest.mark.parametrize("n", [1, 2, 3, subspaces._WINDOW - 1, subspaces._WINDOW,
                               subspaces._WINDOW + 1, subspaces._WINDOW + 2,
                               2 * subspaces._WINDOW + 1, 3 * subspaces._WINDOW - 2])
def test_windowed_energies_equal_the_whole_stack_pass(rng, n):
    # the per-sample energies go through windows of samples; the sum of each column's
    # squares, taken once over all n samples, has the bits of one pass over the whole stack
    L, basis, B = _relu_images(rng, n)
    r, P = basis.columns.shape
    M = (L.reshape(-1, r) @ basis.columns).reshape(n, -1, P)
    whole = np.cumsum((np.einsum("ncp,nc->np", subspaces._orthonormalize_stack(M), B) ** 2).sum(0))
    spy = mock.patch.object(
        subspaces, "_orthonormalize_stack", wraps=subspaces._orthonormalize_stack
    )
    with spy as kernel:
        got = mq.prefix_captured_energy(L, basis, B)
    assert same_bits(got, whole)
    # windows of _WINDOW samples, the last one longer rather than a lone sample
    sizes = [len(call.args[0]) for call in kernel.call_args_list]
    assert sum(sizes) == n and min(sizes) >= min(n, 2) and max(sizes) <= subspaces._WINDOW + 1
    assert sizes[:-1] == [subspaces._WINDOW] * (len(sizes) - 1)


def test_windowed_energies_hold_no_whole_stack(rng):
    # tracemalloc sees every numpy array: beyond their input, the energies hold one window's
    # image L_j Q, the kernel's working copy of it and the (P, n) squares, never an (n, c, P)
    # stack; the whole-stack pass held three of those
    n, c, r, P = 4 * subspaces._WINDOW, 16, 16, 8
    L, basis, B = _relu_images(rng, n, c, r, P)
    window = 8 * subspaces._WINDOW * c * P
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mq.prefix_captured_energy(L, basis, B)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * window + 8 * P * n
    assert 2.5 * window + 8 * P * n < 8 * n * c * P  # less than one whole stack


def test_random_basis_seeded(rng):
    a = mq.random_basis(6, 3, seed=9)
    b = mq.random_basis(6, 3, seed=9)
    c = mq.random_basis(6, 3, seed=10)
    assert np.array_equal(a.columns, b.columns)
    assert not np.array_equal(a.columns, c.columns)
    assert np.allclose(a.columns.T @ a.columns, np.eye(3), atol=1e-12)


def test_pullback_basis_inverts_output_map(rng):
    L = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    W = rng.normal(size=(4, 2))
    basis = mq.pullback_basis(L, W)
    # L maps the pulled-back span onto span(W)
    img = L @ basis.columns
    P_img = img @ np.linalg.pinv(img)
    P_w = W @ np.linalg.pinv(W)
    assert np.allclose(P_img, P_w, atol=1e-8)
    assert np.allclose(basis.columns.T @ basis.columns, np.eye(2), atol=1e-10)


def test_projection_energy_identity(rng):
    # sum_j ||P b_j||^2 equals tr(S P) for any orthogonal projector
    B = rng.normal(size=(10, 6))
    em = mq.energy_matrix(B)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    P = Q @ Q.T
    direct = sum(float(np.sum((P @ b) ** 2)) for b in B)
    assert np.isclose(direct, np.trace(em @ P), rtol=1e-12)


def test_closed_form_weights_grid():
    w = mq.svd_closed_form_weights((2.0, 3.0, 5.0), 1)
    tot = 4.0 + 9.0 + 25.0
    assert np.allclose(w, [3 * 2 / tot, 3 * 3 / tot, 3 * 5 / tot])
    assert np.allclose(mq.svd_closed_form_weights((1.0, 1.0), 0), [0.5, 0.5])
    assert mq.svd_closed_form_weights((3.0,), 0)[0] == 1.0  # exact


def test_orthonormal_basis_validation(rng):
    with pytest.raises(ValueError):
        mq.OrthonormalBasis(np.ones((3, 2)), origin="test")
    b = mq.random_basis(5, 3, seed=0)
    pre = b.prefix(2)
    assert pre.p == 2
    assert np.array_equal(pre.columns, b.columns[:, :2])
