"""Merging several layers: greedy per-layer solves and hybrid refinement.

Solving all layers jointly is nonconvex because updates at different depths
multiply, but two tractable strategies get close:

  sequential  solve layer 1 against the base network, apply it, re-derive
              the geometry, solve layer 2, and so on bottom-up
  hybrid      apply a cheap baseline (soup here) everywhere, then re-solve
              only chosen layers around that starting point

Both take the QP solver as a function: the default is the exact
solve_unconstrained, and functools.partial binds the box solver's bounds.

The cross-layer interaction both strategies ignore shrinks quadratically
with the update scale, which the last section measures directly.
"""

from functools import partial

import mergeqp as mq


def main():
    bundle = mq.gen_linear_tasks(dims=(6, 4, 3), n_layers=2, merge_layer=(1, 2),
                                 n_tasks=3, n_samples=15, seed=0)
    calib = bundle.pooled_calibration()
    base_mse, _ = mq.calibration_mse(bundle.base, calib)
    print(f"two merge layers, 3 tasks; base model mse {base_mse:.4f}\n")

    merged = bundle.base
    for layer in (1, 2):
        merged = mq.apply_merged_residual(
            merged, layer, mq.soup(bundle.residuals[layer])
        )
    soup_mse, _ = mq.calibration_mse(merged, calib)
    print(f"soup at both layers:        mse {soup_mse:.4f}")

    _, hybrid = mq.hybrid_refine(bundle.base, bundle.residuals, calib,
                                 init_method="soup", refine_layers=[1])
    print(f"soup + re-solve layer 1:    mse {hybrid.final_mse:.4f}")
    box = partial(mq.solve_box_constrained, lo=0.0, hi=1.0)
    _, boxed = mq.hybrid_refine(bundle.base, bundle.residuals, calib,
                                init_method="soup", refine_layers=[1], solver=box)
    print(f"  ... with weights in [0, 1]: mse {boxed.final_mse:.4f}")

    _, seq = mq.sequential_merge(bundle.base, bundle.residuals, calib)
    print(f"sequential bottom-up:       mse {seq.final_mse:.4f}")
    for rec in seq.steps:
        print(f"  layer {rec.layer_index}: objective "
              f"{rec.objective_before:.4f} -> {rec.objective_after:.4f}")

    print("\ncross-layer interaction against update scale (mean output norm):")
    d1, d2 = bundle.residuals[1][0], bundle.residuals[2][0]
    for eps in (1e-1, 1e-2, 1e-3):
        err = mq.interaction_error(bundle.base, d1, d2, calib, scale=eps)
        print(f"  scale {eps:>5}: interaction {err:.3e}  (/scale^2 = {err / eps**2:.4f})")
    print("the normalized column is flat, so the ignored term is second order")


if __name__ == "__main__":
    main()
