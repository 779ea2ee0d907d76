"""Model merging as convex quadratic programming over residual weight updates.

Fine-tuned variants of one base network differ by per-task weight updates.
Choosing how much of each update to keep, per coordinate or per direction,
is a convex least-squares problem in the networks' output space; this
package builds those programs from calibration data, solves them, relates
them to output-space projections, and compares the result against standard
merging baselines on small synthetic models.
"""

from .networks import (
    IDENTITY,
    RELU,
    LinearNetwork,
    NumericalError,
    ResidualUpdate,
    apply_merged_residual,
    forward,
    layer_input,
    linearize_downstream,
)
from .qp import (
    CalibrationSet,
    MergeCoefficients,
    MergeGeometry,
    QuadraticObjective,
    build_diagonal_qp,
    build_general_basis_qp,
    calibration_mse,
    linearized_delta_objective,
    merge_geometry,
    merged_delta_from_coefficients,
    objective_gradient,
    objective_value,
    solve_1d,
    solve_box_constrained,
    solve_unconstrained,
)
from .subspaces import (
    OrthonormalBasis,
    coordinate_energy_order,
    energy_matrix,
    optimal_basis,
    prefix_captured_energy,
    pullback_basis,
    random_basis,
    standard_basis,
    svd_basis,
    svd_closed_form_weights,
)
from .baselines import (
    baseline_delta,
    dare_coefficients,
    dare_row_uniform,
    fisher_diagonals,
    fisher_merge,
    soup,
    soup_coefficients,
    ta_coefficients,
    ties_coefficients,
)
from .multilayer import (
    LayerMergeRecord,
    MergeReport,
    basis_fraction,
    hybrid_refine,
    interaction_error,
    layer_basis,
    prefix_sweep,
    sequential_merge,
)
from .bundles import (
    BundleFormatError,
    ModelBundle,
    gen_linear_tasks,
    gen_relu_tasks,
    gen_shared_direction_instance,
    load_bundle,
    load_network,
    save_bundle,
    save_network,
    validate_shared_direction_bundle,
)

__version__ = "0.1.0"
