"""Noise sequences of infinite structure matrices and covariant box
observables at finite truncation, with certified error brackets."""

from .errors import ContractViolationError, ResourceLimitError, UsageError
from .matrices import (
    ChessboardParams,
    IndexDomain,
    IndexWindow,
    Orientation,
    PhaseRecoveryFailure,
    PhaseSequence,
    RowModulusProfile,
    StructureMatrix,
    chessboard,
    constant_one,
    gram_from_vectors,
    matrix_from_spec,
    seeded_gram,
    seeded_torus,
    torus_from_phases,
    torus_phase_recovery,
    truncate,
    window_cap,
)
from .noise import (
    AsymptoticEstimate,
    ChessboardNoiseValue,
    NoiseClassification,
    NoiseQuery,
    NoiseValue,
    asymptotic_noise_estimate,
    chessboard_noise_closed_form,
    is_noiseless_z,
    lattice_sum_exact,
    moment,
    noise_sequence,
    noise_value,
    reference_moment,
)
from .observables import (
    IntervalSet,
    TruncatedOperator,
    angle_from_string,
    covariance_defect,
    kernel_by_difference,
    moment_kernel,
    moment_operator,
    noise_operator_diagonal,
    observable_operator,
    shift_interval,
)
from .schur_analysis import (
    BlockDiagonalReport,
    GrowthRecord,
    NormEstimate,
    NormMethod,
    block_diagonal_norm_divergence,
    modulus_growth_table,
    operator_norm,
    sylvester_hadamard,
    sylvester_hadamard_example,
)

__version__ = "0.1.0"
