"""Reference merging rules: uniform soup, task arithmetic, DARE, TIES, Fisher.

All of these except Fisher act row-wise on the task updates, so each exposes
its per-task row coefficients.  Evaluating the merge QP objective at those
coefficients shows every such rule as one feasible point of the same program.
"""

from __future__ import annotations

import math

import numpy as np

from .networks import NumericalError, _backward, _delta_matrices, _input_columns, _propagate
from .qp import merged_delta_from_coefficients


def soup_coefficients(n_tasks: int, n_rows: int) -> np.ndarray:
    if n_tasks < 1:
        raise ValueError("need at least one task")
    return np.full((n_tasks, n_rows), 1.0 / n_tasks)


def soup(deltas) -> np.ndarray:
    """Uniform average of the task updates."""
    return baseline_delta("soup", deltas)


def ta_coefficients(lambdas, n_rows: int) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float).ravel()
    return np.repeat(lam[:, None], n_rows, axis=1)


def dare_coefficients(n_tasks: int, n_rows: int, keep_prob: float, seed: int) -> np.ndarray:
    """Row-wise drop-and-rescale masks: Bernoulli(keep_prob) / keep_prob.

    Each kept row is rescaled by 1/keep_prob so the draw is unbiased for the
    lambda = 1 task-arithmetic sum in expectation.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must lie in (0, 1], got {keep_prob}")
    mask = np.random.default_rng(seed).random((n_tasks, n_rows)) < keep_prob
    return mask.astype(float) / keep_prob


def dare_row_uniform(deltas, keep_prob: float, seed: int) -> np.ndarray:
    """DARE with one Bernoulli draw per (task, row), then rescale and sum."""
    return baseline_delta("dare", deltas, {"keep_prob": keep_prob, "seed": seed})


def ties_coefficients(deltas, density: float) -> np.ndarray:
    """Row-wise trim / elect-sign / average weights for the TIES rule.

    Per task the ceil(density * r) rows of largest L2 norm survive trimming
    (stable order, lower index wins ties).  Per row the sign of the total
    kept mass is elected, a zero total resolving to the sign of the
    lowest-indexed task with nonzero kept mass; kept rows whose mass matches
    the elected sign are averaged, everything else is zeroed.
    """
    mats = _delta_matrices(deltas)
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    K = len(mats)
    r = mats[0].shape[0]
    norms = np.stack([np.linalg.norm(m, axis=1) for m in mats])
    order = np.argsort(-norms, axis=1, kind="stable")
    kept = np.zeros((K, r), dtype=bool)
    np.put_along_axis(kept, order[:, : math.ceil(density * r)], True, axis=1)
    mass = np.stack([m.sum(axis=1) for m in mats]) * kept
    # sum each row's masses along a contiguous axis, numpy's pairwise order;
    # mass.sum(axis=0) adds task by task and can flip an exact cancellation
    total = np.ascontiguousarray(mass.T).sum(axis=1)
    first = mass[np.argmax(mass != 0.0, axis=0), np.arange(r)]
    sign = np.sign(np.where(total != 0.0, total, first))
    survivors = (mass != 0.0) & (np.sign(mass) == sign)
    return np.where(survivors, 1.0 / np.maximum(survivors.sum(axis=0), 1), 0.0)


def fisher_merge(thetas, fishers) -> np.ndarray:
    """Precision-weighted average: theta* = (sum F_k)^-1 sum F_k theta_k.

    F_k are elementwise non-negative Fisher diagonals shaped like the
    parameters.  Coordinates where every F_k is zero fall back to the
    unweighted mean.
    """
    ths = [np.asarray(t, dtype=float) for t in thetas]
    fs = [np.asarray(f, dtype=float) for f in fishers]
    if len(ths) != len(fs) or not ths:
        raise ValueError("need matching, non-empty thetas and fishers")
    shape = ths[0].shape
    for t, f in zip(ths, fs):
        if t.shape != shape or f.shape != shape:
            raise ValueError("thetas and fishers must share one shape")
        if not np.all((f >= 0) & (f < np.inf)):  # NaN fails both
            raise ValueError("fisher weights must be finite and non-negative")
    num = sum(f * t for f, t in zip(fs, ths))
    den = sum(fs)
    mean = sum(ths) / len(ths)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), mean)


@np.errstate(over="ignore", invalid="ignore")  # every returned diagonal is checked
def fisher_diagonals(net, calib, task_ids, layers) -> dict:
    """{layer: per-task Fisher diagonals}, one per entry of task_ids.

    Surrogate for honest Fisher information: squared gradients of the squared-error loss in
    the layer's weights, summed over the task's samples.  grad_j = 2 m_j u_j^T, with m_j =
    L_j^T b_j from one networks._backward pass (no Jacobian), so the sum is 4 (M^2)^T (U^2)
    over the task's rows, picked by their label in calib.task_ids; none is a ValueError.
    A non-finite diagonal is a NumericalError naming the forward pass or else m_j and m_j^2.
    """
    code, codes = calib.task_groups
    rows = [np.flatnonzero(codes == code.get(t, -1)) for t in task_ids]
    for t, idx in zip(task_ids, rows):
        if idx.size == 0:
            raise ValueError(f"fisher: task {t!r} has no calibration samples")
    acts = [a.T for a in _propagate(net, _input_columns(net, calib.inputs), net.depth)]
    B, fishers = acts[-1] - calib.targets, {}
    for layer in layers:
        net.layer_shape(layer)  # checks the index
        M2, U = np.square(_backward(net, layer, acts, B)), acts[layer - 1]
        fishers[layer] = [4.0 * M2[idx].T @ np.square(U[idx]) for idx in rows]
        if not all(np.isfinite(f).all() for f in fishers[layer]):  # m_j^2 inf, u_j^2 0: NaN
            cause = "the pulled-back residual L_j' b_j or its square overflows at layer"
            if not (np.isfinite(U).all() and np.isfinite(B).all()):
                cause = "the forward pass overflows at or above layer"
            raise NumericalError(f"{cause} {layer}")
    return fishers


def baseline_delta(method: str, deltas, params: dict | None = None) -> np.ndarray:
    """Dispatch a baseline rule by name.

    Recognised names: soup, ta (params: lambdas, default 1.0, a scalar
    broadcasting to all tasks), dare (keep_prob default 0.5, seed default 0),
    ties (density default 0.5), fisher (params: fishers, required, as from
    fisher_diagonals).  Every rule but fisher is one row-coefficient matrix
    for merged_delta_from_coefficients; fisher merges the updates as
    theta_k = W + delta_k would merge.
    """
    params = dict(params or {})
    mats = _delta_matrices(deltas)
    K, r = len(mats), mats[0].shape[0]
    if method == "soup":
        coeffs = soup_coefficients(K, r)
    elif method == "ta":
        lam = np.asarray(params.get("lambdas", 1.0), dtype=float).ravel()
        if lam.size not in (1, K):
            raise ValueError(f"{lam.size} weights for {K} tasks")
        coeffs = ta_coefficients(np.broadcast_to(lam, K), r)
    elif method == "dare":
        coeffs = dare_coefficients(K, r, params.get("keep_prob", 0.5), params.get("seed", 0))
    elif method == "ties":
        coeffs = ties_coefficients(mats, params.get("density", 0.5))
    elif method == "fisher":
        if "fishers" not in params:
            raise ValueError("fisher baseline needs per-task fisher diagonals")
        return fisher_merge(mats, params["fishers"])
    else:
        raise ValueError(f"unknown baseline {method!r}")
    return merged_delta_from_coefficients(mats, coeffs)
