"""Finite frame analysis over complex vector spaces.

Build the synthesis/analysis/frame/Gram operator family for a finite
sequence of vectors, compute optimal frame bounds and canonical duals,
solve minimum-norm reconstruction problems, and verify the operator
identities the theory promises, with every pseudoinverse cross-checked
along two independent routes.
"""

from .errors import (
    DegenerateSpanError,
    FramekitError,
    NotTightError,
    NumericalError,
)
from .frame_ops import (
    FrameBounds,
    FrameClassification,
    FrameSequence,
    OperatorBundle,
    RestrictedOperators,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    numerical_rank,
    op_norm,
    pinv,
    pseudo_frame_operator,
    pseudo_gram,
    range_projector,
    restricted,
    scaled_deviation,
    svd,
)
from .matrix_core import (
    DEFAULT_TOLERANCE,
    SvdFactors,
    Tolerance,
    adjoint,
    as_matrix,
    as_vector,
    max_abs,
)
from .reconstruct import (
    MinNormSolution,
    min_norm_coefficients,
    min_norm_preimage,
    project_coefficients,
    project_signal,
)
from .verifier import (
    GENERATOR_KINDS,
    CheckRecord,
    GeneratorSpec,
    IdentityReport,
    bounds_vs_sampling,
    generate,
    polarization_check,
    registry_formulas,
    run_identity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCE",
    "DegenerateSpanError",
    "FrameBounds",
    "FrameClassification",
    "FrameSequence",
    "FramekitError",
    "GENERATOR_KINDS",
    "CheckRecord",
    "GeneratorSpec",
    "IdentityReport",
    "MinNormSolution",
    "NotTightError",
    "NumericalError",
    "OperatorBundle",
    "RestrictedOperators",
    "SvdFactors",
    "Tolerance",
    "adjoint",
    "as_matrix",
    "as_vector",
    "bounds_vs_sampling",
    "build_bundle",
    "canonical_dual",
    "classify",
    "frame_bounds",
    "generate",
    "max_abs",
    "min_norm_coefficients",
    "min_norm_preimage",
    "numerical_rank",
    "op_norm",
    "pinv",
    "polarization_check",
    "project_coefficients",
    "project_signal",
    "pseudo_frame_operator",
    "pseudo_gram",
    "range_projector",
    "registry_formulas",
    "restricted",
    "run_identity_suite",
    "scaled_deviation",
    "svd",
    "__version__",
]
