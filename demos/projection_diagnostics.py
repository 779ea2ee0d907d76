"""How much of the needed output correction fits in a p-dimensional subspace.

Restricting the merge to a few shared directions is a cheap way to cut the
coefficient count.  The right directions are not obvious, but the captured
residual energy is a computable proxy: project the per-sample correction
targets onto the reachable output subspace and sum what survives.  The sweep
below shows captured fraction climbing, and merge error falling, as the
direction count p grows, and that the eigendirections of the residual energy
matrix beat coordinate and random choices at every p.
"""

import numpy as np

import mergeqp as mq


def main():
    bundle = mq.gen_relu_tasks(seed=0)
    calib = bundle.pooled_calibration()
    layer = bundle.layers_with_updates[0]
    deltas = bundle.residuals[layer]
    geometry = mq.merge_geometry(bundle.base, layer, calib)
    n = len(calib)
    p_max = min(deltas[0].delta.shape[0], bundle.base.output_dim)

    S = mq.energy_matrix(geometry.residuals)
    print(f"relu bundle, merging layer {layer}; residual energy to explain: "
          f"{np.trace(S):.3f}")
    print(f"\n{'basis':<10} {'p':>2} {'fraction':>9} {'qp mse':>9}")

    for kind in ("eigen", "standard", "random"):
        basis = mq.layer_basis(kind, p_max, 0, deltas, geometry)
        for p in range(1, p_max + 1):
            prefix = basis.prefix(p)
            fraction = mq.basis_fraction(prefix, geometry)
            qp = mq.build_general_basis_qp(geometry, deltas, prefix)
            mse = mq.objective_value(qp, mq.solve_unconstrained(qp)) / n
            print(f"{kind:<10} {p:>2} {fraction:>9.3f} {mse:>9.4f}")

    # the full diagonal merge for reference
    qp_full = mq.build_diagonal_qp(geometry, deltas)
    full_mse = mq.objective_value(qp_full, mq.solve_unconstrained(qp_full)) / n
    print(f"\nfull diagonal merge mse for comparison: {full_mse:.4f}")
    print("higher captured fraction lines up with lower merge error")


if __name__ == "__main__":
    main()
