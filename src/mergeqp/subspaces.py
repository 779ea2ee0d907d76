"""Output-space projection view of merging: energy matrices, bases, gaps.

Restricting the merged correction to p directions means the best achievable
relaxed loss is total residual energy minus the energy captured by the
projected subspace.  The energy matrix S = sum_j b_j b_j^T makes this a trace
computation, and the best p-dimensional subspace is spanned by the top-p
eigenvectors of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import _as_float_matrix, _delta_matrices

_WINDOW = 250  # samples per window of an (n, c, r) stack, in the QP build and the energies


def _windows(n: int):
    """(start, stop) of windows of _WINDOW samples; the last takes the rest, 1 only if n = 1."""
    return zip(edges := [*range(0, max(n - 1, 1), _WINDOW), n], edges[1:])


@dataclass
class OrthonormalBasis:
    """Orthonormal direction set, one column per direction.

    origin records how the basis was produced ("standard", "eigen_S",
    "svd_residuals", "random(seed)", "pullback(...)").  rank_deficient is set
    when fewer directions than requested were achievable.
    """

    columns: np.ndarray
    origin: str
    rank_deficient: bool = False

    def __post_init__(self):
        self.columns = _as_float_matrix(self.columns, "basis columns")
        p = self.columns.shape[1]
        gram = self.columns.T @ self.columns
        if p and np.abs(gram - np.eye(p)).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal")

    @property
    def p(self) -> int:
        return self.columns.shape[1]

    def prefix(self, p: int) -> "OrthonormalBasis":
        """First p columns, preserving origin. Prefixes form nested chains."""
        if not 1 <= p <= self.p:
            raise ValueError(f"prefix size {p} outside [1, {self.p}]")
        return OrthonormalBasis(self.columns[:, :p].copy(), self.origin)


def energy_matrix(residuals) -> np.ndarray:
    """S = sum_j b_j b_j^T from stacked residual rows, exactly symmetric.

    Its trace is the total residual energy sum_j ||b_j||^2.  numpy forms
    B^T B as a symmetric rank-k update, so S equals S^T bit for bit.
    """
    B = np.asarray(residuals, dtype=float)
    if B.ndim != 2 or B.shape[0] == 0:
        raise ValueError("residuals must be a non-empty 2-D array of rows")
    return B.T @ B


def optimal_basis(S, p: int) -> OrthonormalBasis:
    """Top-p eigenvectors of S, the best p-dimensional output subspace.

    Columns are ordered by descending eigenvalue.  Each eigenvector is signed
    so its largest-magnitude entry is positive, and exact eigenvalue ties are
    broken by the ascending index of that entry, so the result is
    deterministic up to degenerate eigenspaces.
    """
    Smat = np.asarray(S, dtype=float)
    c = Smat.shape[0]
    if not 1 <= p <= c:
        raise ValueError(f"p={p} outside [1, {c}]")
    w, V = np.linalg.eigh(Smat)
    anchors = np.argmax(np.abs(V), axis=0)
    V *= np.where(V[anchors, np.arange(c)] < 0, -1.0, 1.0)
    order = np.lexsort((anchors, -w))
    return OrthonormalBasis(V[:, order[:p]].copy(), "eigen_S")


def standard_basis(dim: int, p: int, order=None) -> OrthonormalBasis:
    """Coordinate directions e_i, optionally in a caller-chosen order."""
    if not 1 <= p <= dim:
        raise ValueError(f"p={p} outside [1, {dim}]")
    order = np.arange(dim) if order is None else np.asarray(order, dtype=int)
    if order.shape[0] < p:
        raise ValueError("order is shorter than p")
    cols = np.zeros((dim, p))
    cols[order[:p], np.arange(p)] = 1.0
    return OrthonormalBasis(cols, "standard")


def coordinate_energy_order(S, L) -> np.ndarray:
    """Coordinates ranked by the energy their induced output direction captures.

    Coordinate i maps to the output direction L e_i (column i of L); its
    score is the energy a 1-D projection onto that direction captures.  With
    L = I this ranks by the diagonal of S, so for diagonal S the top-p
    coordinates match the top-p eigenvectors.  A run of sorted scores with
    gaps of at most 1e-12 times the largest ties, ranked by index.
    """
    Smat = np.asarray(S, dtype=float)
    Lmat = np.asarray(L, dtype=float)
    nrm2 = np.einsum("ci,ci->i", Lmat, Lmat)
    quad = np.einsum("ci,ci->i", Smat @ Lmat, Lmat)
    scores = np.divide(quad, nrm2, out=np.zeros_like(quad), where=nrm2 > 0)
    order = np.argsort(-scores, kind="stable")
    tol = 1e-12 * np.abs(scores).max(initial=0.0)
    run = np.cumsum(np.diff(scores[order], prepend=scores[order[:1]]) < -tol)
    return order[np.lexsort((order, run))]


def svd_basis(deltas, p: int) -> OrthonormalBasis:
    """Orthonormalised left singular vectors of the task updates.

    Every task's (sigma, u) pairs are pooled, sorted by descending singular
    value (ties by task order, then singular index), and the vectors sigma u
    are orthonormalised in that order (_orthonormalize_stack) until p
    directions are kept, so a u is dropped when its residual is at most
    1e-10 sigma_max / sigma.  If the pooled updates span fewer than p
    directions the achieved rank is returned with rank_deficient set.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    svds = [np.linalg.svd(dm, full_matrices=False)[:2] for dm in _delta_matrices(deltas)]
    U = np.concatenate([u for u, _ in svds], axis=1)
    sig = np.concatenate([s for _, s in svds])
    order = np.argsort(-sig, kind="stable")
    q = _orthonormalize_stack((U[:, order] * sig[order])[None], max_columns=p)[0]
    Q = q[:, q.any(axis=0)]
    return OrthonormalBasis(Q, "svd_residuals", Q.shape[1] < p)


def random_basis(dim: int, p: int, seed: int) -> OrthonormalBasis:
    """Haar-ish random orthonormal p-frame from a seeded Gaussian QR."""
    if not 1 <= p <= dim:
        raise ValueError(f"p={p} outside [1, {dim}]")
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, p)))
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)  # a zero diagonal keeps its column
    return OrthonormalBasis(Q * signs[None, :], f"random({seed})")


def pullback_basis(L, directions, origin: str = "pullback(custom)") -> OrthonormalBasis:
    """Residual-space basis whose image under L tracks given output directions.

    Computes pinv(L) applied to each column of directions and orthonormalises
    in order (_orthonormalize_stack), so prefixes stay nested.  Directions
    whose preimages are linearly dependent are dropped (rank_deficient set).
    """
    Lmat = np.asarray(L, dtype=float)
    W = _as_float_matrix(directions, "directions")
    if W.shape[0] != Lmat.shape[0]:
        raise ValueError(
            f"directions live in dim {W.shape[0]} but L maps into {Lmat.shape[0]}"
        )
    q = _orthonormalize_stack((np.linalg.pinv(Lmat) @ W)[None])[0]
    Q = q[:, q.any(axis=0)]
    return OrthonormalBasis(Q, origin, rank_deficient=Q.shape[1] < W.shape[1])


def _orthonormalize_stack(M: np.ndarray, max_columns: int | None = None) -> np.ndarray:
    """Orthonormalise the columns of every matrix in an (n, c, P) stack, in order.

    Left-looking classical Gram-Schmidt, twice (Giraud, Langou and Rozloznik, 2005), in place
    on a (P, c, n) copy with the samples contiguous: column i is projected twice against the
    kept columns before it, each projection two einsum sweeps over all samples, and no later
    column is touched.  A column whose residual is at most 1e-10 times its matrix's largest
    column norm comes back as zeros, so the first p output columns of M[j] span the first p
    input ones.  A matrix keeps at most max_columns columns, the rest zeros, and the pass stops
    once every matrix has them.  A matrix in a stack of two or more gets the same bits in any
    window of two or more around it.
    """
    W = M.transpose(2, 1, 0).copy()
    tol = 1e-10 * np.sqrt(np.einsum("pcn,pcn->pn", W, W)).max(axis=0, initial=0.0)
    cap = W.shape[0] if max_columns is None else max_columns
    kept_count = np.zeros(W.shape[2], dtype=int)
    for i in range(W.shape[0]):
        v = W[i]
        for _ in range(2):
            v -= np.einsum("pcn,pn->cn", W[:i], np.einsum("pcn,cn->pn", W[:i], v))
        nrm = np.sqrt(np.einsum("cn,cn->n", v, v))
        keep = (nrm > tol) & (kept_count < cap)
        kept_count += keep
        v[...] = np.divide(v, nrm, out=np.zeros_like(v), where=keep)
        if kept_count.min() >= cap:
            W[i + 1 :] = 0.0
            break
    return W.transpose(2, 1, 0)


def prefix_captured_energy(downstream, basis: OrthonormalBasis, residuals) -> np.ndarray:
    """Captured residual energy of every prefix of a basis chain, in one pass.

    Entry p - 1 is the energy captured by the output image of the first p columns of Q:
    sum_j b_j^T P_j b_j with P_j the projector onto span(L_j Q[:, :p]) for per-sample maps L_j
    (an (n, c, r) stack), or tr(S P) with S = sum_j b_j b_j^T for one fixed (c, r) map L.
    residuals holds the b_j as (n, c) rows.

    The columns of L_j Q are orthonormalised in order (_orthonormalize_stack); prefix p then
    captures the cumulative sum of (q_i^T b_j)^2 over the samples j and the kept columns i < p.
    The drop rule matters: ReLU Jacobians make L_j Q exactly rank-deficient once p exceeds the
    sample's active units, and a QR that keeps every column would count rounding noise as
    captured directions.  Per-sample maps go through in sample windows (_windows), each
    window's images one flat GEMM; the squares fill one (P, n) array summed once, so the
    energies have the bits of a whole-stack pass.  The fixed map sums the same squares rather
    than q_i^T S q_i: S has entries of size ||b||^2, so a small captured energy read through S
    loses digits to cancellation.
    """
    Q = basis.columns
    B = np.asarray(residuals, dtype=float)
    L = np.asarray(downstream, dtype=float)
    if L.ndim == 2:
        q = _orthonormalize_stack((L @ Q)[None])[0]
        return np.cumsum(((B @ q) ** 2).sum(axis=0))
    n, c, r = L.shape
    squares = np.empty((Q.shape[1], n))
    for a, b in _windows(n):
        M = (L[a:b].reshape(-1, r) @ Q).reshape(b - a, c, -1)  # one flat GEMM
        np.einsum("ncp,nc->pn", _orthonormalize_stack(M), B[a:b], out=squares[:, a:b])
    return np.cumsum(np.square(squares, out=squares).sum(axis=1))


def svd_closed_form_weights(sigmas, target_index: int) -> np.ndarray:
    """Optimal shared-direction coefficients sigma_t sigma_k / sum sigma^2.

    Applies when every task's update shares one rank-1 direction sigma_k u v^T
    (orthogonal remainders allowed), the downstream map is an isometry, and
    calibration targets come from task t.  Equal strengths give 1/K each and
    a single task recovers coefficient 1 exactly.
    """
    s = np.asarray(sigmas, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("no singular values")
    if np.any(s < 0):
        raise ValueError("singular values must be non-negative")
    if not 0 <= target_index < s.size:
        raise ValueError(f"target index {target_index} outside [0, {s.size - 1}]")
    denom = float(s @ s)
    if denom == 0.0:
        raise ValueError("all singular values are zero")
    return s[target_index] * s / denom
