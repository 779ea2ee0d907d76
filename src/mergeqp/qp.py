"""Merging as a convex quadratic program over per-task residual coefficients.

Given a base network, K task residual updates at one layer, and calibration
pairs (x_j, y_j), the merged update is parameterised by coefficients d and
the calibration loss of the linearised merged model is

    J(d) = sum_j || A_j d + b_j ||^2  =  1/2 d^T H d + g^T d + const

with H = 2 sum_j A_j^T A_j (positive semidefinite) and g = 2 sum_j A_j^T b_j.
Two parameterisations are built here: a per-coordinate diagonal mask per task
(P = layer output dim, A_j blocks L_j diag(r_kj)), and a restriction of each
task's update to a shared orthonormal set of directions q_1..q_P.

Coefficients are flattened task-major: flat index of (task k, direction p)
is k * P + p.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .networks import (
    RELU,
    LinearNetwork,
    NumericalError,
    _as_float_matrix,
    _delta_matrices,
    _downstream,
    _input_columns,
    _propagate,
    forward,
)
from .subspaces import OrthonormalBasis, _windows


@dataclass
class CalibrationSet:
    """Input/target pairs the merge objective is summed over.

    inputs is (n, d) with one sample per row, targets is (n, c).  task_ids
    optionally labels each sample with the task it came from, which is only
    used for per-task reporting, never by the objective itself.

    task_groups and task_factors are computed on first use and cached:
    reassigning a field drops them, and arrays must not change in place after.
    """

    inputs: np.ndarray
    targets: np.ndarray
    task_ids: list | None = None

    def __post_init__(self):
        self.inputs = _as_float_matrix(self.inputs, "calibration inputs")
        self.targets = _as_float_matrix(self.targets, "calibration targets")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs but {self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] == 0:
            raise ValueError("calibration set is empty")
        if self.task_ids is not None:
            self.task_ids = list(self.task_ids)
            if len(self.task_ids) != self.inputs.shape[0]:
                raise ValueError("task_ids length does not match sample count")

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for view in ("task_groups", "task_factors"):  # computed from the old fields
            vars(self).pop(view, None)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @cached_property
    def task_groups(self):
        """({label: code}, codes): labels in repr order, each row's code (all 0 if unlabelled)."""
        if self.task_ids is None:
            return {}, np.zeros(len(self), dtype=np.intp)
        code = {t: i for i, t in enumerate(sorted(set(self.task_ids), key=repr))}
        return code, np.fromiter(map(code.__getitem__, self.task_ids), np.intp, len(self))

    @cached_property
    def task_factors(self):
        """(inputs, targets, counts): R of a thin QR of each group's [X_t | Y_t], stacked.

        R_t'R_t = [X_t | Y_t]'[X_t | Y_t] in d + c rows.  None unless every group has
        n_t >= 2 (d + c) rows: below that the QR saves little.
        """
        codes, d = self.task_groups[1], self.inputs.shape[1]
        counts = np.bincount(codes)
        if counts.min() < 2 * (d + self.targets.shape[1]):
            return None
        XY = np.hstack([self.inputs, self.targets])
        R = np.vstack([np.linalg.qr(XY[codes == i], mode="r") for i in range(len(counts))])
        return R[:, :d], R[:, d:], counts

    @classmethod
    def for_task(cls, task_id, inputs, targets) -> "CalibrationSet":
        """Calibration set where every sample belongs to one task."""
        return cls(inputs, targets, [task_id] * len(inputs))

    @classmethod
    def concat(cls, sets) -> "CalibrationSet":
        """Pool several calibration sets, keeping per-sample task labels."""
        sets = list(sets)  # iterated three times
        ids = [t for s in sets for t in (s.task_ids or [None] * len(s))]
        return cls(np.vstack([s.inputs for s in sets]), np.vstack([s.targets for s in sets]), ids)


@dataclass
class QuadraticObjective:
    """J(d) = 1/2 d^T H d + g^T d + constant over flattened coefficients.

    H must be symmetric to 1e-10 and is stored as the objective's own (H + H^T) / 2:
    solvers pass LAPACK H^T, and _certified shifts its diagonal in place.
    """

    H: np.ndarray
    g: np.ndarray
    constant: float
    n_tasks: int
    n_directions: int
    basis_id: str = "standard"

    def __post_init__(self):
        self._check_values()
        skew = self.H - self.H.T
        if np.abs(skew).max(initial=0.0) > 1e-10 * np.abs(self.H).max(initial=0.0):
            raise ValueError("H is not symmetric")
        self.H = 0.5 * (self.H + self.H.T) if skew.any() else self.H.copy()

    @classmethod
    def _symmetric(cls, H, g, constant, n_tasks, n_directions, basis_id):
        """Construct from a fresh H symmetric by construction: no symmetry scan, no copy."""
        qp = cls.__new__(cls)
        qp.H, qp.g, qp.constant = H, g, constant
        qp.n_tasks, qp.n_directions, qp.basis_id = n_tasks, n_directions, basis_id
        qp._check_values()
        return qp

    def _check_values(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.constant = float(self.constant)
        dim = self.dim
        if self.H.shape != (dim, dim):
            raise ValueError(f"H must be {dim}x{dim}, got {self.H.shape}")
        if self.g.shape != (dim,):
            raise ValueError(f"g must have length {dim}, got {self.g.shape}")
        if not all(np.all(np.isfinite(v)) for v in (self.H, self.g, self.constant)):
            raise NumericalError("objective contains non-finite values")

    @property
    def dim(self) -> int:
        return self.n_tasks * self.n_directions


@dataclass
class MergeCoefficients:
    """Solved coefficients, one row per task, one column per direction.

    A box solve adds its KKT residual (see solve_box_constrained) and
    whether that residual met the solver's tolerance.
    """

    values: np.ndarray
    g_range_defect: float = 0.0
    kkt_residual: float | None = None
    converged: bool | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("coefficient values must be 2-D (tasks x directions)")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("coefficients contain non-finite values")

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()


@dataclass
class MergeGeometry:
    """Stacked ingredients of the layer-N merge objective over n_samples samples.

    hidden_inputs
        (m, r_in): row j is the input entering layer N on sample j.
    downstream
        Maps layer N's output (dim r) to the model output (dim c).  With
        fixed_downstream (no ReLU above N) it is one (c, r) matrix shared by
        every sample; otherwise an (m, c, r) stack whose downstream[j] is the
        Jacobian at sample j.  Per-sample loops must branch on
        fixed_downstream: indexing a (c, r) map by sample gives a row.
    residuals
        (m, c): base model output minus target, one row per sample.
    n_samples
        n, the divisor of any mean over samples.  For a fixed map with n >= 2 (r_in + c),
        merge_geometry's m = r_in + c rows are instead R from a thin QR of [U | B], no row
        a sample: R'R = [U | B]'[U | B] prices the QP, J_lin, S and captured energy exactly.
    one_gap
        (W_top, m) if layer N's own output gap is the only ReLU above it, else None: then
        downstream[j] = W_top diag(m[j]), W_top (c, r) the weights above, m (n, r) 0/1.
    """

    layer_index: int
    hidden_inputs: np.ndarray
    downstream: np.ndarray
    residuals: np.ndarray
    n_samples: int
    one_gap: tuple | None = None

    @property
    def fixed_downstream(self) -> bool:
        return self.downstream.ndim == 2

    @property
    def default_p(self) -> int:
        """min(r, c), the directions a basis of this layer gets unless told otherwise."""
        return min(self.downstream.shape[-2:])


def merge_geometry(net: LinearNetwork, layer_index: int, calib: CalibrationSet) -> MergeGeometry:
    """Hidden inputs, downstream maps and residuals for all samples, from one forward pass.

    A fixed map gets R (see MergeGeometry) only where the QR at least halves the rows.
    """
    gaps, one_gap = net.activations[layer_index - 1 :], None
    with np.errstate(over="ignore", invalid="ignore"):  # checked here and in _downstream
        acts = _propagate(net, _input_columns(net, calib.inputs), net.depth)
        down = _downstream(net, layer_index, acts)
        if gaps[:1] == [RELU] and RELU not in gaps[1:]:
            one_gap = _downstream(net, layer_index, None), (acts[layer_index] > 0).T
        U, B = acts[layer_index - 1].T, acts[-1].T - calib.targets
    del acts  # the QR below runs without the other layers' activations
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(B))):
        raise NumericalError(f"the forward pass overflows at or above layer {layer_index}")
    if down.ndim == 2 and len(B) >= 2 * (U.shape[1] + B.shape[1]):
        U, B = np.hsplit(np.linalg.qr(np.hstack([U, B]), mode="r"), [U.shape[1]])
    return MergeGeometry(layer_index, U, down, B, len(calib), one_gap)


def _check_deltas(geometry, deltas):
    if not deltas:
        raise ValueError("no residual updates to merge")
    layer = geometry.layer_index
    shape = (geometry.downstream.shape[-1], geometry.hidden_inputs.shape[1])
    for d in deltas:
        if d.layer_index != layer:
            raise ValueError(
                f"residual update targets layer {d.layer_index} but the geometry "
                f"is layer {layer}'s; one QP merges a single layer"
            )
        if d.delta.shape != shape:
            raise ValueError(f"delta shape {d.delta.shape} does not match layer shape {shape}")


def build_diagonal_qp(geometry: MergeGeometry, deltas: list) -> QuadraticObjective:
    """QP over per-task diagonal masks D_k applied to each residual update.

    The merged update is sum_k diag(d_k) delta_k, so each task contributes a
    per-output-coordinate scaling.  This is the general-basis QP with the
    full standard basis Q = I, built without forming Q.
    """
    return _build_qp(geometry, deltas, None, "standard")


def build_general_basis_qp(
    geometry: MergeGeometry, deltas: list, basis: OrthonormalBasis
) -> QuadraticObjective:
    """QP restricting every task's update to shared orthonormal directions.

    The merged update is sum_{k,p} d_{kp} q_p q_p^T delta_k.  With the full
    standard basis this reproduces the diagonal QP exactly; with no columns
    the QP has no coefficients and its one point is the zero update.
    """
    Q = basis.columns
    r = geometry.downstream.shape[-1]
    if Q.shape[0] != r:
        raise ValueError(f"basis lives in dim {Q.shape[0]} but layer output dim is {r}")
    return _build_qp(geometry, deltas, Q, basis.origin)


def _build_qp(geometry, deltas, Q, basis_id):
    """J(d) = sum_j ||A_j d + b_j||^2 over coefficients of directions Q (None: I).

    With alpha[j, k, p] = q_p^T delta_k u_j, M_j = L_j Q and b_j the base
    residual, A_j[i, (k, p)] = M_j[i, p] alpha[j, k, p], so
    H = 2 sum_j outer(alpha_j, alpha_j) * tile(M_j^T M_j) and
    g = 2 sum_j alpha_j * (M_j^T b_j).  A fixed map takes the tile out of the
    sum: H = 2 (A^T A) * tile(M^T M) with A = alpha reshaped to (n, K P), one
    GEMM.  So does a one-gap map (MergeGeometry.one_gap) if Q is None or selects coordinates
    (each column's one nonzero is 1): L_j Q = W_top Q diag(m_j Q); H, g move by rounding.
    Other per-sample Jacobians go through in subspaces._windows: per window, the tiles M_j^T M_j
    are one batched product and rows (k, i) of H one GEMM, sum_j alpha[j, k, i] (alpha_j *
    tile_j[i]).  (H + H^T) / 2 then, like A^T A, is exactly symmetric: no symmetry scan.
    """
    _check_deltas(geometry, deltas)
    K, r = len(deltas), deltas[0].delta.shape[0]
    P = r if Q is None else Q.shape[1]
    dim = K * P
    B = geometry.residuals
    n, c = B.shape
    # overflow here surfaces as a NumericalError from the objective validation
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = (geometry.hidden_inputs @ np.vstack([d.delta for d in deltas]).T).reshape(n, K, r)
        L = geometry.downstream
        if geometry.one_gap and (Q is None or (((Q != 0).sum(0) == 1) & (Q.sum(0) == 1)).all()):
            L, alpha = geometry.one_gap[0], alpha * geometry.one_gap[1][:, None, :]  # M = W_top Q
        if Q is not None:
            alpha = alpha @ Q  # (n, K, P)
        if L.ndim == 2:
            M = L if Q is None else L @ Q  # (c, P)
            A = alpha.reshape(n, dim)
            H = A.T @ A
            # tile(M^T M) multiplied into the K x K blocks in place
            H.reshape(K, P, K, P)[...] *= (M.T @ M)[None, :, None, :]
            MB = B @ M
        else:
            H, MB = np.zeros((K, P, dim)), np.empty((n, P))
            for a, b in _windows(n):
                M = L[a:b] if Q is None else (L[a:b].reshape(-1, r) @ Q).reshape(b - a, c, P)
                G, w = M.transpose(0, 2, 1) @ M, alpha[a:b]  # (m, P, P) tiles, (m, K, P)
                for i in range(P):
                    H[:, i] += w[:, :, i].T @ (w * G[:, i, None, :]).reshape(b - a, dim)
                MB[a:b] = np.einsum("jcp,jc->jp", M, B[a:b])
            H = 0.5 * (H.reshape(dim, dim) + H.reshape(dim, dim).T)
        H *= 2.0
        g = 2.0 * np.einsum("jkp,jp->kp", alpha, MB).ravel()
        const = float(np.einsum("jc,jc->", B, B))
    return QuadraticObjective._symmetric(H, g, const, K, P, basis_id)


def _flat_coefficients(qp, d):
    flat = np.asarray(getattr(d, "values", d), dtype=float).ravel()  # MergeCoefficients or array
    if flat.shape[0] != qp.dim:
        raise ValueError(f"expected {qp.dim} coefficients, got {flat.shape[0]}")
    return flat


def objective_value(qp: QuadraticObjective, d) -> float:
    """J(d) = 1/2 d^T H d + g^T d + constant."""
    flat = _flat_coefficients(qp, d)
    return float(0.5 * flat @ qp.H @ flat + qp.g @ flat + qp.constant)


def objective_gradient(qp: QuadraticObjective, d) -> np.ndarray:
    """Gradient H d + g of the objective at d."""
    flat = _flat_coefficients(qp, d)
    return qp.H @ flat + qp.g


# The eigen cut: eigenvalues of H at or below this times the largest count as zero.
_EIGEN_CUT = 1e-10


def _eigen_cut(H, g):
    """Minimum-norm -H^+ g over the eigenvalues above _EIGEN_CUT times the largest.

    Also returns the part of g in that range and the dropped eigenvectors.
    """
    w, V = np.linalg.eigh(H.T)  # H.T: the same values, already in LAPACK's column order
    lam_max = max(float(w[-1]), 0.0) if w.size else 0.0
    keep = w > _EIGEN_CUT * lam_max
    Vk = V[:, keep]
    coeffs = Vk.T @ g
    return -Vk @ (coeffs / w[keep]), Vk @ coeffs, V[:, ~keep]


def _certified(H):
    """Whether a Cholesky factor proves every eigenvalue of H above the eigen cut.

    It factors H - 2 _EIGEN_CUT ||H||_inf I; the factor 2 covers the
    factorisation's backward error (Higham 2002, section 10.1).  H = 0 fails.
    The shift is made in place; H's diagonal is restored bit for bit however it ends.
    """
    diag = H.diagonal().copy()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing bound fails below
            tau = 2.0 * _EIGEN_CUT * np.abs(H).sum(axis=1).max(initial=0.0)
            H.flat[:: H.shape[0] + 1] -= tau
        np.linalg.cholesky(H.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        H.flat[:: H.shape[0] + 1] = diag
    return tau > 0


def _live_block(qp, g_too=False):
    """(live, H[live, live], g[live]) off the exactly zero rows of H; no copies if all live.

    A zero diagonal entry flags a row (zero if H is PSD; read anyway); g_too also needs g = 0.
    With no zero on the diagonal, live is slice(None).
    """
    dead = qp.H.diagonal() == 0
    if not dead.any():
        return slice(None), qp.H, qp.g
    dead &= (qp.g == 0) | (not g_too)
    dead[dead] = ~qp.H[dead].any(axis=1)
    return ~dead, *((qp.H, qp.g) if not dead.any() else (qp.H[np.ix_(~dead, ~dead)], qp.g[~dead]))


def solve_unconstrained(qp: QuadraticObjective) -> MergeCoefficients:
    """Minimum-norm global minimiser d* = -H^+ g.

    Dead coordinates (an exactly zero row of H) get 0.  On the live block,
    eigenvalues at or below _EIGEN_CUT (1e-10) times the largest count as
    zero; if _certified shows there are none, d* = -H^{-1} g by one solve.
    If g has a component outside the numerical range of H the objective is
    unbounded along it; the solve minimises over the range and reports the
    leftover norm, g on dead coordinates included, in g_range_defect.
    """
    live, H, g = _live_block(qp)
    d, left = np.zeros(qp.dim), qp.g.copy()  # the part of g left over
    if g.size and _certified(H):  # no live coordinate (H = 0): nothing to factor
        d[live], left[live] = np.linalg.solve(H.T, -g), 0.0
    elif g.size:
        d[live], in_range, _ = _eigen_cut(H, g)
        left[live] = g - in_range
    return MergeCoefficients(d.reshape(qp.n_tasks, -1), g_range_defect=float(np.linalg.norm(left)))


def prefix_optima(qp: QuadraticObjective) -> np.ndarray:
    """Optimum of J over the kept coordinates of directions 0..p-1, for p = 1..n_directions.

    H bordered by -g is factored direction-major (flat index i * K + k), so prefix p leads.
    A Schur pivot at or below _EIGEN_CUT times H's largest diagonal entry drops its coordinate:
    held at 0, its row and column leave the Schur complement.  The factor's last row z, 0 where
    dropped, gives prefix p const - 1/2 sum z_i^2: the exact optimum over its kept coordinates,
    nested.  With no pivot dropped that is LAPACK's factor (J >= 0 puts z^T z below 4 const + 1).
    """
    K, n = qp.n_tasks, qp.dim
    order = np.append(np.arange(n).reshape(K, -1).T.ravel(), n)
    B = np.block([[qp.H, -qp.g[:, None]], [-qp.g, 4.0 * qp.constant + 1.0]])[np.ix_(order, order)]
    cut, L = _EIGEN_CUT * qp.H.diagonal().max(initial=0.0), None
    with contextlib.suppress(np.linalg.LinAlgError):
        L = np.linalg.cholesky(B.T)
    if L is None or not (L.diagonal()[:-1] ** 2 > cut).all():
        for i in range(n):  # right-looking, in place: B[i + 1:, i + 1:] is the Schur complement
            B[i:, i] = B[i:, i] / np.sqrt(B[i, i]) if B[i, i] > cut else 0.0
            B[i + 1 :, i + 1 :] -= np.outer(B[i + 1 :, i], B[i + 1 :, i])
        L = B
    return qp.constant - 0.5 * np.cumsum(L[-1, :-1] ** 2)[K - 1 :: K]


# A box solve is certified once its KKT residual is at most this.
_KKT_TOL = 1e-12


def _newton_direction(H, grad, free, d, lo, hi, tiny):
    """Newton step of J on the free coordinates at d, zero on the others."""
    while free.any():
        p = np.zeros_like(d)
        idx = np.flatnonzero(free)
        Hf, gf = (H, grad) if free.all() else (H.take(idx, 0).take(idx, 1), grad[idx])
        probe = np.linspace(1.0, 2.0, gf.size)
        with contextlib.suppress(np.linalg.LinAlgError):
            x, back = np.linalg.solve(Hf.T, np.stack([-gf, Hf @ probe], axis=1)).T
            # a singular block solves the probe back with an arbitrary null-space part,
            # or steps far along a direction it barely curves
            curved = x @ Hf @ x > _EIGEN_CUT * np.diag(Hf).max() * (x @ x)
            if curved and np.abs(back - probe).max() <= 1e-6:
                p[free] = x
                return p
        x, _, null = _eigen_cut(Hf, gf)
        linear = null @ (null.T @ gf)  # J is linear along this part of the gradient
        reach = np.abs(linear).max(initial=0.0)
        p[free] = x - (hi - lo) / reach * linear if reach > tiny else x
        pushed = ((d <= lo) & (p < 0)) | ((d >= hi) & (p > 0))
        if not pushed.any():
            return p
        free = free & ~pushed
    return np.zeros_like(d)


def solve_box_constrained(
    qp: QuadraticObjective, lo: float = 0.0, hi: float = 1.0, steps: int = 500
) -> MergeCoefficients:
    """Minimise J over lo <= d <= hi by projected Newton steps on the free set.

    Bertsekas' projected Newton method (SIAM J. Control Optim. 1982) with
    exact free-block solves as in GPCG (Moré and Toraldo 1991), from d = 1/K.
    Coordinates at a bound whose gradient points outward are held; the rest
    take a Newton step, or on a block singular to about 1e-10 the eigen cut
    of solve_unconstrained plus a move across the box along the gradient
    part the block cannot cancel, where J is linear.  Projected Armijo
    backtracking stops at the step where a coordinate first meets its
    bound; if that fails, a projected-gradient step of length 1 / ||H||_inf.
    kkt_residual, the largest gradient entry off the held set over
    ||H||_inf max(|lo|, |hi|) + ||g||_inf, is unchanged by scaling H and g
    together.  The solve stops once it is at most 1e-12 (converged) or
    after steps iterations.  A coordinate whose row of H and g are both exactly
    zero leaves J unchanged: it is held at its start and never enters a block.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"invalid bounds: lo={lo} must be < hi={hi}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    live, H, g = _live_block(qp, g_too=True)
    d = (start := np.clip(np.full(qp.dim, 1.0 / qp.n_tasks), lo, hi))[live]
    norm = np.abs(H).sum(axis=1).max(initial=0.0)
    scale = float(norm * max(abs(lo), abs(hi)) + np.abs(g).max(initial=0.0))
    for it in range(steps + 1):
        grad = H @ d + g
        active = ((d <= lo) & (grad > 0)) | ((d >= hi) & (grad < 0))
        kkt = float(np.abs(grad[~active]).max(initial=0.0) / scale) if scale > 0 else 0.0
        if kkt <= _KKT_TOL or it == steps:
            break
        p = _newton_direction(H, grad, ~active, d, lo, hi, _KKT_TOL * scale)
        gap = np.where(p < 0, lo - d, hi - d)
        hits = np.divide(gap, p, out=np.full_like(d, np.inf), where=p != 0)  # steps to a bound
        first = hits[hits > 0].min(initial=1.0)
        for alpha in [*(a for a in 0.5 ** np.arange(30) if a > first), first]:
            trial = np.clip(d + alpha * p, lo, hi)
            s = trial - d
            if grad @ s < 0 and grad @ s + 0.5 * (s @ H @ s) <= 1e-4 * (grad @ s):
                break
        else:
            trial = np.clip(d - grad / norm, lo, hi) if norm > 0 else d
            if not grad @ (trial - d) < 0:
                break  # no descent left at this precision
        d = trial
    start[live] = d
    return MergeCoefficients(start.reshape(qp.n_tasks, -1), kkt_residual=kkt,
                             converged=kkt <= _KKT_TOL)


def solve_1d(m, beta: float) -> np.ndarray:
    """Minimiser of (d^T m + beta)^2: d* = -beta m / ||m||^2, zero when m = 0.

    This is the single-direction, single-sample special case of the QP.
    """
    m = np.asarray(m, dtype=float).ravel()
    if not np.all(np.isfinite(m)) or not np.isfinite(beta):
        raise ValueError("non-finite entries in 1-D solve")
    denom = float(m @ m)
    if denom == 0.0:
        return np.zeros_like(m)
    return -float(beta) / denom * m


@np.errstate(over="ignore", invalid="ignore")  # apply_merged_residual checks the weights
def merged_delta_from_coefficients(
    deltas: list, coeffs, basis: OrthonormalBasis | None = None
) -> np.ndarray:
    """The merged weight update that coefficients d encode, one row d_k per task.

    Diagonal parameterisation (basis None): sum_k diag(d_k) delta_k, so
    coefficient row k scales task k's rows.  With a basis Q the update is
    sum_k Q diag(d_k) Q^T delta_k.  Coefficients that are not a 2-D array
    with one row per task are a ValueError.
    """
    mats = _delta_matrices(deltas)
    values = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    if values.ndim != 2 or values.shape[0] != len(deltas):
        raise ValueError(f"expected one coefficient row per task ({len(deltas)} tasks), "
                         f"got shape {values.shape}")
    r = mats[0].shape[0]
    Q = None if basis is None else basis.columns
    if Q is not None and Q.shape[0] != r:
        raise ValueError("basis dimension does not match delta rows")
    P = r if Q is None else Q.shape[1]
    if values.shape[1] != P:
        raise ValueError(f"expected {P} coefficients per task, got {values.shape[1]}")
    merged = np.zeros(mats[0].shape)
    for k, dm in enumerate(mats):
        merged += values[k][:, None] * dm if Q is None else Q @ (values[k][:, None] * (Q.T @ dm))
    return merged


def linearized_delta_objective(geometry: MergeGeometry, merged_delta) -> float:
    """J_lin(Delta) = sum_j ||L_j Delta u_j + b_j||^2 for any merged update.

    Equals the QP objective at the corresponding coefficients whenever Delta
    is expressible in the QP's parameterisation, and the exact calibration
    loss on all-identity networks.
    """
    moved = geometry.hidden_inputs @ np.asarray(merged_delta, dtype=float).T  # (n, r)
    E = np.einsum("...cr,...r->...c", geometry.downstream, moved) + geometry.residuals
    return float(np.einsum("jc,jc->", E, E))


def calibration_mse(net: LinearNetwork, calib: CalibrationSet):
    """Pooled and per-task mean squared output error on a calibration set.

    Returns (pooled, per_task) where pooled = sum_j ||h(x_j) - y_j||^2 / n
    and per_task maps each task label to the same average over its samples.
    With no ReLU gap h(x) = W x, so a task's sum is ||[X_t | Y_t] T||_F^2 =
    ||R_t T||_F^2 with T = [W'; -I]: where calib.task_factors holds R_t, the
    model runs on those d + c rows per task instead of on every sample, and
    outputs equal to their targets read rounding (about eps^2 ||[X | Y]||^2 / n),
    not 0.  A pooled error that overflows is a NumericalError.
    """
    labels, codes = calib.task_groups
    factors = None if RELU in net.activations else calib.task_factors
    X, Y = (calib.inputs, calib.targets) if factors is None else factors[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        E = forward(net, X) - Y
        sq = np.einsum("jc,jc->j", E, E)
        if factors is None:
            pooled, means = float(sq.mean()), [sq[codes == i].mean() for i in labels.values()]
        else:
            sums = sq.reshape(len(factors[2]), -1).sum(axis=1)
            pooled, means = float(sums.sum() / len(calib)), sums / factors[2]
    if not np.isfinite(pooled):
        raise NumericalError(f"calibration mse is {pooled!r}: the forward pass overflows")
    return pooled, {t: float(m) for t, m in zip(labels, means)}
