"""Merge three synthetic task updates at one layer and race the baselines.

Every classic row-wise merge (uniform soup, scaled task arithmetic, random
rescaled dropout, trim-and-elect) picks some fixed coefficient per row of
each task's weight update.  Solving a small least-squares problem over those
same coefficients can only do better on the calibration data, and this
script shows the gap concretely.
"""

import numpy as np

import mergeqp as mq


def main():
    bundle = mq.gen_linear_tasks(dims=(8, 6, 5), n_layers=2, merge_layer=1,
                                 n_tasks=3, n_samples=20, seed=0)
    calib = bundle.pooled_calibration()
    deltas = bundle.residuals[1]
    print(f"bundle: {len(deltas)} tasks, layer 1 shape {deltas[0].delta.shape}, "
          f"{len(calib)} calibration samples")

    qp = mq.build_diagonal_qp(mq.merge_geometry(bundle.base, 1, calib), deltas)
    print(f"\nquadratic objective over {qp.dim} coefficients "
          f"(3 tasks x 6 rows); loss with no update at all: {qp.constant:.4f}")

    rows = []
    rows.append(("soup", mq.soup_coefficients(3, 6)))
    for lam in (0.25, 0.5, 1.0):
        rows.append((f"ta({lam})", mq.ta_coefficients([lam] * 3, 6)))
    rows.append(("dare", mq.dare_coefficients(3, 6, keep_prob=0.5, seed=0)))
    rows.append(("ties", mq.ties_coefficients([d.delta for d in deltas], 0.5)))

    best = mq.solve_unconstrained(qp)
    boxed = mq.solve_box_constrained(qp)

    print(f"\n{'method':<12} {'objective':>12}")
    for name, coeffs in rows:
        print(f"{name:<12} {mq.objective_value(qp, coeffs.ravel()):>12.4f}")
    print(f"{'qp (box)':<12} {mq.objective_value(qp, boxed):>12.4f}")
    print(f"{'qp (exact)':<12} {mq.objective_value(qp, best):>12.4f}")
    print(f"\nbox certificate: KKT residual {boxed.kkt_residual:.1e} "
          f"(converged: {boxed.converged})")

    merged = mq.apply_merged_residual(
        bundle.base, 1, mq.merged_delta_from_coefficients(deltas, best)
    )
    mse, per_task = mq.calibration_mse(merged, calib)
    print(f"\nmerged model mse {mse:.4f}; per task:",
          {t: round(v, 4) for t, v in per_task.items()})
    print("the exact solve is the floor for every row-coefficient method above")


if __name__ == "__main__":
    main()
