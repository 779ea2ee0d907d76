"""Reference merging rules: uniform soup, task arithmetic, DARE, TIES, Fisher.

All of these except Fisher act row-wise on the task updates, so each exposes
its per-task row coefficients.  Evaluating the merge QP objective at those
coefficients shows every such rule as one feasible point of the same program.
"""

from __future__ import annotations

import math

import numpy as np

from .networks import ResidualUpdate
from .qp import merged_delta_from_coefficients


def _delta_matrices(deltas):
    mats = [
        d.delta if isinstance(d, ResidualUpdate) else np.asarray(d, dtype=float)
        for d in deltas
    ]
    if not mats:
        raise ValueError("no residual updates")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError("residual updates have mismatched shapes")
    return mats


def combine_row_coefficients(deltas, coeffs) -> np.ndarray:
    """sum_k diag(c_k) delta_k: coefficient row k scales task k's rows."""
    mats = _delta_matrices(deltas)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(mats), mats[0].shape[0]):
        raise ValueError(
            f"expected coefficients of shape {(len(mats), mats[0].shape[0])}, "
            f"got {coeffs.shape}"
        )
    return merged_delta_from_coefficients(mats, coeffs)


def soup_coefficients(n_tasks: int, n_rows: int) -> np.ndarray:
    if n_tasks < 1:
        raise ValueError("need at least one task")
    return np.full((n_tasks, n_rows), 1.0 / n_tasks)


def soup(deltas) -> np.ndarray:
    """Uniform average of the task updates."""
    mats = _delta_matrices(deltas)
    return combine_row_coefficients(mats, soup_coefficients(len(mats), mats[0].shape[0]))


def ta_coefficients(lambdas, n_rows: int) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float).ravel()
    return np.repeat(lam[:, None], n_rows, axis=1)


def task_arithmetic(deltas, lambdas) -> np.ndarray:
    """Weighted sum of task updates; a scalar lambda broadcasts to all tasks."""
    mats = _delta_matrices(deltas)
    lam = np.asarray(lambdas, dtype=float).ravel()
    if lam.size == 1:
        lam = np.full(len(mats), float(lam[0]))
    if lam.size != len(mats):
        raise ValueError(f"{lam.size} weights for {len(mats)} tasks")
    return combine_row_coefficients(mats, ta_coefficients(lam, mats[0].shape[0]))


def dare_coefficients(n_tasks: int, n_rows: int, keep_prob: float, seed: int) -> np.ndarray:
    """Row-wise drop-and-rescale masks: Bernoulli(keep_prob) / keep_prob.

    Each kept row is rescaled by 1/keep_prob so the draw is unbiased for the
    lambda = 1 task-arithmetic sum in expectation.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must lie in (0, 1], got {keep_prob}")
    rng = np.random.default_rng(seed)
    mask = rng.random((n_tasks, n_rows)) < keep_prob
    return mask.astype(float) / keep_prob


def dare_row_uniform(deltas, keep_prob: float, seed: int) -> np.ndarray:
    """DARE with one Bernoulli draw per (task, row), then rescale and sum."""
    mats = _delta_matrices(deltas)
    coeffs = dare_coefficients(len(mats), mats[0].shape[0], keep_prob, seed)
    return combine_row_coefficients(mats, coeffs)


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
    keep_count = math.ceil(density * r)
    kept = np.zeros((K, r), dtype=bool)
    for k, m in enumerate(mats):
        norms = np.linalg.norm(m, axis=1)
        order = np.argsort(-norms, kind="stable")
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


def ties_rowwise(deltas, density: float) -> np.ndarray:
    """TIES merging at row granularity: trim, elect a row sign, average."""
    mats = _delta_matrices(deltas)
    return combine_row_coefficients(mats, ties_coefficients(mats, density))


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
        if np.any(f < 0):
            raise ValueError("fisher weights must be non-negative")
    num = sum(f * t for f, t in zip(fs, ths))
    den = sum(fs)
    mean = sum(ths) / len(ths)
    with np.errstate(invalid="ignore", divide="ignore"):
        weighted = np.where(den > 0, num / np.where(den > 0, den, 1.0), mean)
    return weighted


def fisher_delta(deltas, fishers) -> np.ndarray:
    """Fisher rule on updates: equivalent to merging theta_k = W + delta_k."""
    mats = _delta_matrices(deltas)
    return fisher_merge(mats, fishers)


def baseline_delta(method: str, deltas, params: dict | None = None) -> np.ndarray:
    """Dispatch a baseline rule by name.

    Recognised names: soup, ta (params: lambdas, default 1.0), dare
    (keep_prob default 0.5, seed default 0), ties (density default 0.5),
    fisher (params: fishers, required).
    """
    params = dict(params or {})
    if method == "soup":
        return soup(deltas)
    if method == "ta":
        return task_arithmetic(deltas, params.get("lambdas", 1.0))
    if method == "dare":
        return dare_row_uniform(
            deltas, params.get("keep_prob", 0.5), params.get("seed", 0)
        )
    if method == "ties":
        return ties_rowwise(deltas, params.get("density", 0.5))
    if method == "fisher":
        if "fishers" not in params:
            raise ValueError("fisher baseline needs per-task fisher diagonals")
        return fisher_delta(deltas, params["fishers"])
    raise ValueError(f"unknown baseline {method!r}")
