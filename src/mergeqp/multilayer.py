"""Merging several layers: baseline rules, greedy sequential QP solves, hybrids.

Layers are merged one at a time, bottom-up.  `baseline_merge`
applies one fixed rule (soup, ta, dare, ties, fisher) at each layer;
`sequential_merge` re-derives hidden inputs, downstream maps and residuals
from the current partially-merged model before each layer's QP; hybrid
refinement applies a baseline everywhere first and re-solves the QP only at
chosen layers.  `layer_params` is the one rule for turning a baseline's
parameters into one layer's: DARE seeds and Fisher diagonals vary by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import baseline_delta
from .networks import LinearNetwork, apply_merged_residual, forward
from .qp import (
    CalibrationSet,
    build_diagonal_qp,
    build_general_basis_qp,
    calibration_mse,
    linearized_delta_objective,
    merge_geometry,
    merged_delta_from_coefficients,
    objective_value,
    prefix_optima,
    solve_unconstrained,
)
from .subspaces import (
    coordinate_energy_order,
    energy_matrix,
    optimal_basis,
    prefix_captured_energy,
    pullback_basis,
    random_basis,
    standard_basis,
    svd_basis,
)


@dataclass
class LayerMergeRecord:
    """One layer's QP solve inside a multi-layer merge."""

    layer_index: int
    basis_id: str
    objective_before: float
    objective_after: float
    coefficients: np.ndarray
    captured_fraction: float | None = None
    rank_deficient: bool = False  # the basis spans fewer directions than requested


@dataclass
class MergeReport:
    """Per-layer objectives and final calibration error of a merge run."""

    method: str
    steps: list
    final_mse: float
    task_mse: dict
    baseline_mse: float | None = None


def layer_basis(kind, p, seed, deltas, geometry):
    """Construct the requested direction set from the current layer state (p None: default_p)."""
    r = deltas[0].delta.shape[0]
    p = geometry.default_p if p is None else p
    if kind == "svd":
        return svd_basis(deltas, p)
    if kind == "random":
        return random_basis(r, min(p, r), seed)
    S = energy_matrix(geometry.residuals)
    Lbar = geometry.downstream if geometry.fixed_downstream else geometry.downstream.mean(axis=0)
    if kind == "standard":
        order = coordinate_energy_order(S, Lbar)
        return standard_basis(r, min(p, r), order)
    if kind == "eigen":
        W = optimal_basis(S, min(p, S.shape[0]))
        return pullback_basis(Lbar, W.columns, origin="eigen_S")
    raise ValueError(f"unknown basis kind {kind!r}")


def basis_fraction(basis, geometry):
    """Fraction of residual energy the basis's output image captures, in [0, 1]."""
    total = float(np.trace(energy_matrix(geometry.residuals)))
    if total == 0.0:
        return 1.0
    captured = prefix_captured_energy(geometry.downstream, basis, geometry.residuals)
    return min(float(captured[-1]) / total, 1.0) if captured.size else 0.0


def prefix_sweep(geometry, deltas, basis):
    """Diagnostics of every prefix of a basis chain from one pass over the chain.

    Returns one (p, fraction, relaxed_loss, qp_mse, gap) tuple per prefix
    p = 1..basis.p: the captured-energy fraction, the relaxed loss
    total - captured, the calibration MSE of the exact QP optimum over the
    first p directions' coordinates that the chain's factor keeps (prefix_optima),
    and the gap to the relaxed loss of the best min(p, c)-dimensional output subspace.
    """
    S = energy_matrix(geometry.residuals)
    total = float(np.trace(S))
    captured = prefix_captured_energy(geometry.downstream, basis, geometry.residuals)
    # no p-dim subspace captures more than the top p eigenvalues of S
    opt_relaxed = total - np.cumsum(np.linalg.eigvalsh(S)[::-1])
    optima = prefix_optima(build_general_basis_qp(geometry, deltas, basis))
    p = np.arange(1, basis.p + 1)
    relaxed = total - captured
    gap = relaxed - opt_relaxed[np.minimum(p, opt_relaxed.shape[0]) - 1]
    # clamp rounding past the bounds; Ky Fan bounds only a fixed map's gap
    fraction = np.clip(captured / total, 0.0, 1.0) if total else np.ones(basis.p)
    gap = np.maximum(gap, 0.0) if geometry.fixed_downstream else gap
    qp_mse = np.maximum(optima / geometry.n_samples, 0.0)
    return list(zip(p.tolist(), fraction.tolist(), np.maximum(relaxed, 0.0).tolist(),
                    qp_mse.tolist(), gap.tolist()))


def layer_params(method: str, params: dict | None, layer: int) -> dict:
    """One layer's parameters for baseline rule `method`, from merge-wide ones.

    DARE draws its masks with seed + layer, so each layer gets its own draw.
    Fisher diagonals given as a {layer: per-task diagonals} dict are looked
    up at the layer; any other parameter applies to every layer as given.
    """
    params = dict(params or {})
    if method == "dare":
        params["seed"] = int(params.get("seed", 0)) + layer
    if method == "fisher" and isinstance(params.get("fishers"), dict):
        params["fishers"] = params["fishers"][layer]
    return params


def _baseline_deltas(method, deltas_by_layer, params):
    """Yield (layer, merged update) of baseline rule `method` at each layer, bottom-up."""
    if not deltas_by_layer:
        raise ValueError("no layers to merge")
    for layer in sorted(deltas_by_layer):
        yield layer, baseline_delta(
            method, list(deltas_by_layer[layer]), layer_params(method, params, layer)
        )


def baseline_merge(
    net: LinearNetwork,
    deltas_by_layer: dict,
    calib: CalibrationSet,
    method: str,
    params: dict | None = None,
):
    """Apply baseline rule `method` at each listed layer in turn, bottom-up.

    Per-layer parameters come from layer_params.  Each record holds the
    realised calibration loss (pooled MSE times the sample count) before
    and after its layer, and no coefficients.  Returns (merged_network,
    MergeReport).
    """
    n = len(calib)
    pooled, per_task = calibration_mse(net, calib)
    records = []
    for layer, delta in _baseline_deltas(method, deltas_by_layer, params):
        before = pooled
        net = apply_merged_residual(net, layer, delta)
        pooled, per_task = calibration_mse(net, calib)
        records.append(
            LayerMergeRecord(
                layer_index=layer,
                basis_id=method,
                objective_before=before * n,
                objective_after=pooled * n,
                coefficients=np.zeros((0, 0)),
            )
        )
    return net, MergeReport(method, records, pooled, per_task)


def solve_layer(geometry, deltas, basis=None, solver=None):
    """Build one layer's QP on its geometry, solve it, assemble the update.

    basis None gives the diagonal QP, otherwise the QP over that
    OrthonormalBasis.  solver maps the QuadraticObjective to
    MergeCoefficients; None looks up solve_unconstrained at call time.
    Returns (qp, coefficients, merged update).
    """
    if basis is None:
        qp = build_diagonal_qp(geometry, deltas)
    else:
        qp = build_general_basis_qp(geometry, deltas, basis)
    coeffs = (solve_unconstrained if solver is None else solver)(qp)
    return qp, coeffs, merged_delta_from_coefficients(deltas, coeffs, basis=basis)


def _solve_layers(
    current, deltas_by_layer, layers, calib, solver, name,
    basis_kind=None, basis_p=None, basis_seed=0, applied=None, baseline_mse=None,
):
    """Re-solve the QP at each of `layers` in turn, bottom-up, on the current model.

    With `applied` ({layer: update in the model}), a layer's update is removed
    first and objective_before prices it on the stripped model; otherwise
    objective_before is the QP's constant.  Returns (merged network, MergeReport).
    """
    records = []
    for layer in layers:
        deltas = list(deltas_by_layer[layer])
        if applied is not None:
            current = apply_merged_residual(current, layer, -applied[layer])
        geometry = merge_geometry(current, layer, calib)
        basis = fraction = None
        if basis_kind is not None:
            basis = layer_basis(basis_kind, basis_p, basis_seed, deltas, geometry)
            fraction = basis_fraction(basis, geometry)
        qp, coeffs, merged = solve_layer(geometry, deltas, basis, solver)
        before = (qp.constant if applied is None
                  else linearized_delta_objective(geometry, applied[layer]))
        records.append(
            LayerMergeRecord(
                layer_index=layer,
                basis_id=qp.basis_id,
                objective_before=before,
                objective_after=objective_value(qp, coeffs),
                coefficients=coeffs.values.copy(),
                captured_fraction=fraction,
                rank_deficient=basis is not None and basis.rank_deficient,
            )
        )
        current = apply_merged_residual(current, layer, merged)
    return current, MergeReport(name, records, *calibration_mse(current, calib), baseline_mse)


def sequential_merge(
    net: LinearNetwork,
    deltas_by_layer: dict,
    calib: CalibrationSet,
    solver=None,
    basis_kind: str | None = None,
    basis_p: int | None = None,
    basis_seed: int = 0,
):
    """Merge each listed layer bottom-up, re-solving the QP at the current model.

    Each layer's objective is rebuilt from the partially merged network, so
    earlier merges feed into later hidden inputs and downstream maps.
    solver is as in solve_layer.  basis_kind selects the general-basis QP
    ("eigen", "standard", "svd", "random") instead of the diagonal mask;
    basis_p defaults to each geometry's default_p.  Returns
    (merged_network, MergeReport).
    """
    if not deltas_by_layer:
        raise ValueError("no layers to merge")
    name = "qp-diag" if basis_kind is None else f"qp-basis({basis_kind})"
    return _solve_layers(
        net, deltas_by_layer, sorted(deltas_by_layer), calib, solver, name,
        basis_kind, basis_p, basis_seed,
    )


def hybrid_refine(
    net: LinearNetwork,
    deltas_by_layer: dict,
    calib: CalibrationSet,
    init_method: str = "soup",
    refine_layers=None,
    init_params: dict | None = None,
    solver=None,
):
    """Apply a baseline everywhere, then re-solve the QP at selected layers.

    The baseline rule (soup, ta, dare, ties, fisher) fixes an initial merged
    update at every layer.  At each refine layer, that layer's initial update
    is removed from the current model and the diagonal QP over the original
    task updates is solved in its place, keeping the other layers' baseline
    merges.  Per-layer baseline parameters come from layer_params; solver is
    as in solve_layer.  Returns (merged_network, MergeReport) with
    baseline_mse recording the loss before refinement.
    """
    refine_layers = sorted(set(deltas_by_layer if refine_layers is None else refine_layers))
    missing = [l for l in refine_layers if l not in deltas_by_layer]
    if missing:
        raise ValueError(f"refine layers {missing} have no residual updates")
    applied = dict(_baseline_deltas(init_method, deltas_by_layer, init_params))
    for layer, delta0 in applied.items():
        net = apply_merged_residual(net, layer, delta0)
    baseline_mse = calibration_mse(net, calib)[0]
    return _solve_layers(
        net, deltas_by_layer, refine_layers, calib, solver, f"hybrid({init_method})",
        applied=applied, baseline_mse=baseline_mse,
    )


def interaction_error(
    net: LinearNetwork,
    delta_a,
    delta_b,
    calib: CalibrationSet,
    scale: float = 1.0,
) -> float:
    """Mean norm of the cross-layer coupling two scaled updates create.

    Applies scale * delta_a and scale * delta_b at their (distinct) layers
    separately and together, and averages || h_both - h_a - h_b + h_base ||
    over the calibration inputs.  On all-identity networks this equals
    scale^2 times a fixed bilinear term, so the ratio to scale^2 is constant.
    """
    if delta_a.layer_index == delta_b.layer_index:
        raise ValueError("interaction error needs updates at two distinct layers")
    net_a = apply_merged_residual(net, delta_a.layer_index, scale * delta_a.delta)
    net_b = apply_merged_residual(net, delta_b.layer_index, scale * delta_b.delta)
    net_ab = apply_merged_residual(net_a, delta_b.layer_index, scale * delta_b.delta)
    X = calib.inputs
    coupling = forward(net_ab, X) - forward(net_a, X) - forward(net_b, X) + forward(net, X)
    return float(np.linalg.norm(coupling, axis=1).mean())
