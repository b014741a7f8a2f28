"""Spectral theory for first-order systems with measure coefficients.

The package builds solutions of ``J u' + (q - lam w) u = w f`` across
coefficient atoms, assembles the block Weyl matrix of the problem, extracts
its spectral measure and realizes the associated eigenfunction expansion.
See the shipped example configs under :mod:`blockweyl.configs` and the
``blockweyl`` command-line tool.
"""

from .engine import Engine
from .errors import (
    AccuracyError,
    BlockweylError,
    ConfigError,
    DegeneratePointError,
    SingularTransferError,
    StructuralError,
    TheoryViolationError,
)
from .measures import (
    DEFAULT_TOLS,
    IntervalSpec,
    MatrixMeasure,
    Segment,
    Tolerances,
    integrate_bv,
    validate_measure,
)
from .system import (
    BoundaryConditions,
    EndpointSpec,
    LambdaRecord,
    SingularitySet,
    SystemSpec,
    choose_anchors,
    jump_matrices,
    partition_points,
    singular_lambdas_at,
    subintervals,
)
from .propagation import (
    ArrayForm,
    PiecewiseSolution,
    SolutionRow,
    VectorFunction,
    forward_transform_compact,
    fundamental_matrix,
    row_integrand,
    solution_row,
    solve_ivp,
    wronskian_defect,
)
from .assembly import (
    BlockAssembly,
    assemble_blocks,
    boundary_blocks,
    deficiency_projectors,
    jump_system,
    norm_zero_space,
    transform_range_dim,
)
from .weyl import (
    NevanlinnaReport,
    WeylSample,
    m_function,
    m_function_many,
    nevanlinna_diagnostics,
    symmetry_witness,
)
from .spectral import (
    EigenPoint,
    ResolventFunction,
    SpectralAtom,
    SpectralMeasureModel,
    atom_weight,
    eigen_scan,
    spectral_measure_model,
    stieltjes_inversion,
)
from .transform import (
    TauVector,
    forward_transform,
    inverse_transform,
    multiplication_check,
    parseval_check,
    w_inner,
    w_norm,
)
from .fatou import (
    FatouScanReport,
    ScalarMeasureModel,
    ScalarSegment,
    fatou_convergence_scan,
    poisson_quotient,
)

__version__ = "0.1.0"
