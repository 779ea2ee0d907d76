"""When tasks share one direction, the optimal weights have a closed form.

Construct updates that all act along a common rank-one direction u v^T with
per-task strengths sigma_k, calibrate on task t, and the optimal coefficient
for task k comes out as sigma_t sigma_k / sum_i sigma_i^2: each task
contributes in proportion to its strength, normalized by the total power.
Two consequences worth seeing numerically: equal strengths give uniform
weights (plain soup), and a lone task gets weight exactly one.
"""

import numpy as np

import mergeqp as mq


def merge_weights(sigmas, target_task=0, seed=11):
    bundle = mq.gen_shared_direction_instance(
        sigmas=sigmas, seed=seed, target_task=target_task
    )
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    u = np.asarray(bundle.meta["u"], dtype=float)
    basis = mq.OrthonormalBasis(u[:, None], origin="shared")
    geometry = mq.merge_geometry(bundle.base, layer, calib)
    qp = mq.build_general_basis_qp(geometry, bundle.residuals[layer], basis)
    return mq.solve_unconstrained(qp).flat


def main():
    for sigmas in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0, 5.0)):
        got = merge_weights(sigmas)
        want = mq.svd_closed_form_weights(sigmas, 0)
        print(f"strengths {sigmas}")
        print(f"  solved coefficients: {np.round(got, 6)}")
        print(f"  closed form:         {np.round(want, 6)}")
        print(f"  max deviation:       {np.max(np.abs(got - want)):.2e}")

    print(f"\nsingle task (sigma=3): weight "
          f"{mq.svd_closed_form_weights((3.0,), 0)[0]} (recovers the task exactly)")
    print("equal strengths reduce to uniform averaging; "
          "stronger tasks earn more than their soup share")


if __name__ == "__main__":
    main()
