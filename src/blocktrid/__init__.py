"""Block tridiagonal reduction of almost normal and perturbed normal matrices.

A square complex matrix A is k-almost normal when A^H A - A A^H = C A - A C
for some rank-k matrix C.  This package certifies such perturbations, reduces
the matrices to block tridiagonal form with a block Lanczos procedure whose
block sizes obey the structural bounds of each family (two for rank-one
perturbations of Hermitian matrices, four for rank-one perturbations of
unitary matrices, six for rank-one perturbations of normal matrices with a
degree-2 spectral curve), and tracks the rank structure that the perturbation
induces under shifted QR iteration.
"""

__version__ = "0.1.0"

from .almostnormal import (
    CommutatorCertificate,
    antihermitian_rescaling,
    ConicCoefficients,
    certify,
    commutation_identity_residual,
    commutator_residual,
    conic_fit,
    leading_part_decomposition,
    perturbation_hermitian_rank_one,
    perturbation_unitary_rank_one,
    rotate_leading_form,
    starting_block_curve,
    starting_block_rank_one,
    starting_block_rank_two,
)
from .errors import (
    ConicFitError,
    ContractError,
    DimensionError,
    GenerationError,
    LinearVarietyError,
    NumericalError,
    SingularityError,
    SolverFailure,
)
from .generators import (
    CURVES,
    FAMILIES,
    GeneratedInstance,
    arrow_hermitian_plus_rank_one,
    chebyshev_colleague,
    companion,
    curve_normal_plus_rank_one,
    fourier_sum,
    random_unitary_plus_rank_one,
    solve_commutator_equation,
)
from .lanczos import (
    BlockTridiagonalization,
    block_lanczos,
    krylov_basis,
    krylov_inclusion_check,
    krylov_levels,
)
from .matcore import (
    DEFAULT_TOL,
    SvdResult,
    antihermitian_part,
    commutator,
    fro,
    hermitian_part,
    orthonormal_range,
    subspace_inclusion_residual,
    svd,
)
from .structure import (
    BlockProfile,
    QrStepRecord,
    QrTrackReport,
    block_profile,
    off_profile_residual,
    qr_iteration_tracked,
)

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "BlockProfile",
    "BlockTridiagonalization",
    "CommutatorCertificate",
    "ConicCoefficients",
    "ConicFitError",
    "ContractError",
    "CURVES",
    "DimensionError",
    "FAMILIES",
    "GeneratedInstance",
    "GenerationError",
    "LinearVarietyError",
    "NumericalError",
    "QrStepRecord",
    "QrTrackReport",
    "SingularityError",
    "SolverFailure",
    "SvdResult",
    "antihermitian_part",
    "antihermitian_rescaling",
    "arrow_hermitian_plus_rank_one",
    "block_lanczos",
    "block_profile",
    "certify",
    "chebyshev_colleague",
    "commutation_identity_residual",
    "commutator",
    "commutator_residual",
    "companion",
    "conic_fit",
    "curve_normal_plus_rank_one",
    "fourier_sum",
    "fro",
    "hermitian_part",
    "krylov_basis",
    "krylov_inclusion_check",
    "krylov_levels",
    "leading_part_decomposition",
    "off_profile_residual",
    "orthonormal_range",
    "perturbation_hermitian_rank_one",
    "perturbation_unitary_rank_one",
    "qr_iteration_tracked",
    "random_unitary_plus_rank_one",
    "rotate_leading_form",
    "solve_commutator_equation",
    "starting_block_curve",
    "starting_block_rank_one",
    "starting_block_rank_two",
    "subspace_inclusion_residual",
    "svd",
]
