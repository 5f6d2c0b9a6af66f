"""Data reweighting as bilevel optimization.

Exact and warm-started mirror-descent solvers, hypergradients via implicit
differentiation, and a dynamical-systems layer that detects and certifies
sparse-weight collapse.
"""

from .datagen import (
    CorruptionSpec,
    MixtureSpec,
    gen_corrupted,
    gen_mixture,
    importance_weights,
    load_dataset,
    save_dataset,
)
from .dynamics import (
    ConstantField,
    ExactHypergradField,
    FlowConfig,
    OmegaResult,
    StationaryReport,
    constant_field_solution,
    full_flow_jacobian,
    integrate_joint_flow,
    integrate_mirror_flow,
    integrate_sparse_reference,
    is_stationary,
    linearized_trajectory,
    membership_I,
    omega_from_trace,
    omega_limit,
    sparsity_certificate,
    stability_check,
)
from .errors import (
    AbsoluteContinuityError,
    AssumptionViolationError,
    BilevelError,
    ConfigError,
    DatasetFormatError,
    NoConvergenceError,
    NumericOverflowError,
    PreconditionError,
    SingularDesignError,
    StepTooLargeError,
)
from .hypergrad import (
    FrozenField,
    closed_form_inner_quadratic,
    frozen_field,
    hypergrad,
    hypergrad_at,
    value_function_fd,
)
from .losses import (
    Dataset,
    ForwardPass,
    LossModel,
    ModelParams,
    RegularizedMultinomialLogistic,
    RidgeLeastSquares,
    accuracy,
    inner_loss,
    outer_loss,
)
from .simplex import (
    SimplexWeights,
    TangentVector,
    entropy,
    mirror_step,
    preconditioner,
    project_tangent,
    support,
)
from .solvers import (
    FlowTrace,
    SolverConfig,
    TraceRecord,
    exact_bilevel,
    soba,
    softmax_reparam,
    solve_inner,
    warm_started,
)

__version__ = "0.1.0"
