"""Checks on the outputs of the benchmarked CLI commands.

Each check returns a list of problems (empty when the output is right).  The
least-squares reference is built here from the bundle's arrays with plain
numpy, independently of the ``mergeqp`` objective builders.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def _stacked_inputs(net, layer, calib):
    """Per-sample layer-N inputs U, downstream maps L and base residuals B.

    L has shape (c, r) when every gap above layer N is identity (one map for
    all samples) and (n, c, r) otherwise, with ReLU gaps masked by the base
    pre-activation pattern (a pre-activation of exactly zero masks to 0).
    """
    acts, pre = [calib.inputs], []
    a = calib.inputs
    last = len(net.layers) - 1
    for i, W in enumerate(net.layers):
        z = a @ W.T
        pre.append(z)
        a = np.maximum(z, 0.0) if i < last and net.activations[i] == "relu" else z
        acts.append(a)
    L = np.eye(net.layers[layer - 1].shape[0])
    for i in range(layer - 1, last):
        if net.activations[i] == "relu":
            mask = (pre[i] > 0.0).astype(float)
            L = net.layers[i + 1] @ (mask[:, :, None] * L)
        else:
            L = net.layers[i + 1] @ L
    return acts[layer - 1], L, a - calib.targets


def total_energy(bundle):
    """sum_j ||b_j||^2 over the base model's residuals."""
    _, _, B = _stacked_inputs(bundle.base, 1, bundle.pooled_calibration())
    return float(np.sum(B * B))


def least_squares_reference(bundle, layer, rank_cutoff, basis=None, chunk_elems=2_000_000):
    """min_d sum_j ||A_j d + b_j||^2 for the layer's QP, by stacked least squares.

    Column (k, p) of A_j is (L_j q_p)(q_p^T delta_k u_j), with q_p the basis
    columns, or the standard basis for the diagonal QP (basis None); b_j is
    the base model's output error.  The stacked system [A | b] is reduced
    chunk by chunk to its R factor, so memory stays at one chunk; the
    minimum is R's last diagonal entry squared plus the least-squares
    residual of the leading block, which stays right when A is
    rank-deficient.

    Returns the pair (exact minimum, truncated minimum).  The truncated one
    is taken only over the right singular directions of A whose squared
    singular value exceeds rank_cutoff times the largest: the directions
    ``solve_unconstrained`` keeps, since it drops eigenvalues of H = A^T A at
    or below its ``rel_cutoff`` times the largest.
    """
    U, L, B = _stacked_inputs(bundle.base, layer, bundle.pooled_calibration())
    deltas = np.stack([u.delta for u in bundle.residuals[layer]])  # (K, r, m)
    Q = np.eye(deltas.shape[1]) if basis is None else np.asarray(basis, dtype=float)
    LQ = L @ Q
    QtD = np.einsum("rp,krm->kpm", Q, deltas)
    K, P, _ = QtD.shape
    n, c = B.shape
    cols = K * P + 1
    step = max(1, chunk_elems // (c * cols))
    R = np.zeros((0, cols))
    for s in range(0, n, step):
        V = np.einsum("kpm,nm->nkp", QtD, U[s : s + step])
        Lc = LQ if LQ.ndim == 2 else LQ[s : s + step]
        A = Lc[..., :, None, :] * V[:, None, :, :]  # (n, c, K, P)
        block = np.hstack([A.reshape(-1, K * P), B[s : s + step].reshape(-1, 1)])
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    head, tail, rho = R[:-1, :-1], R[:-1, -1], R[-1, -1]
    minima = []
    for rcond in (None, np.sqrt(rank_cutoff)):
        d = np.linalg.lstsq(head, -tail, rcond=rcond)[0]
        res = head @ d + tail
        minima.append(float(rho * rho + res @ res))
    return tuple(minima)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_compare(path, references, rel_tol=1e-9):
    """Every row ok, and each QP row's objective within its reference bracket.

    references maps a method prefix ("qp-diag", "qp-basis") to a pair: the
    exact least-squares minimum of that QP, and its minimum over the
    directions the solver's eigenvalue cutoff keeps.  The objective may not
    be below the first or above the second, each within rel_tol.  On a
    well-conditioned QP the two are equal and this is a match to rel_tol.
    """
    rows = _read_csv(path)
    problems = [f"compare row {r['method']} status {r['status']}" for r in rows if r["status"] != "ok"]
    for prefix, (exact, truncated) in references.items():
        qp = [r for r in rows if r["method"].split("(")[0] == prefix]
        if len(qp) != 1:
            problems.append(f"compare has no single {prefix} row")
            continue
        objective = float(qp[0]["objective"])
        low, high = exact - rel_tol * abs(exact), truncated + rel_tol * abs(truncated)
        if not low <= objective <= high:
            problems.append(
                f"{prefix} objective {objective!r} is outside the least-squares "
                f"references [{exact!r}, {truncated!r}] by more than {rel_tol:g} relative"
            )
    return problems


def check_diagnose(path, n_chains, p, total_energy, fixed_map, tol=1e-9):
    rows = _read_csv(path)
    problems = []
    if len(rows) != n_chains * p:
        problems.append(f"diagnose has {len(rows)} rows, expected {n_chains} x {p}")
    chains = {}
    for row in rows:
        chains.setdefault(row["basis"], []).append(row)
        fraction = float(row["fraction"])
        if not -tol <= fraction <= 1.0 + tol:
            problems.append(f"diagnose {row['basis']} p={row['p']}: fraction {fraction!r}")
        if fixed_map and float(row["gap"]) < -tol * total_energy:
            problems.append(f"diagnose {row['basis']} p={row['p']}: gap {row['gap']}")
    for label, chain in chains.items():
        mse = [float(r["qp_mse"]) for r in sorted(chain, key=lambda r: int(r["p"]))]
        scale = tol * max(abs(mse[0]), 1e-300)
        if any(b > a + scale for a, b in zip(mse, mse[1:])):
            problems.append(f"diagnose {label}: qp_mse rises along the prefixes: {mse}")
    return problems


def merge_report(path):
    with open(path) as fh:
        return json.load(fh)


def check_box_coefficients(report, lo, hi):
    problems = []
    for layer in report["layers"]:
        coeffs = np.asarray(layer["coefficients"], dtype=float)
        if coeffs.size == 0:
            problems.append(f"layer {layer['layer']}: box merge has no coefficients")
        elif not (np.all(np.isfinite(coeffs)) and coeffs.min() >= lo and coeffs.max() <= hi):
            problems.append(
                f"layer {layer['layer']}: coefficients outside [{lo}, {hi}] or not finite"
            )
    return problems


def check_eval(path, merge_mse, rel_tol=1e-12):
    with open(path) as fh:
        mse = json.load(fh)["mse"]
    if abs(mse - merge_mse) > rel_tol * abs(merge_mse):
        return [f"eval mse {mse!r} != merge final_mse {merge_mse!r}"]
    return []
