"""dirac2d: Fourier-Galerkin toolkit for 2-D periodic Dirac operators.

The package assembles truncated Bloch fibers of the generalized periodic
Dirac operator at real and complex quasimomentum, computes band structure and
smallest-singular-value sweeps, constructs the gauge transforms that trade a
complex shift for a bounded matrix potential, and numerically verifies the
spectral estimates underpinning the absence-of-eigenvalues machinery.
"""

from .defaults import DEFAULTS, TOLERANCES
from .errors import (
    ConfigSchemaError,
    DegenerateCokernelError,
    Dirac2DError,
    GammaValidationError,
    GaugeOverflowError,
    GridMismatchError,
    IllConditionedError,
    InadmissibleParameterError,
    NonHermitianError,
    ResolutionError,
    SingularWeightError,
)
from .fourier import (
    CoefficientSet,
    FourierGrid,
    IndexSet,
    ModeWeights,
    PeriodicScalarField,
    convolve,
    counting_bound_holds,
    embed_coefficients,
    embed_field,
    field_from_json,
    field_from_records,
    field_to_json,
    field_to_records,
    index_set_T,
    load_field,
    mode_weights,
    project,
    sample_to_fourier,
    weighted_norm,
)
from .operators import (
    ComplexQuasimomentum,
    MatrixPotential,
    TruncatedOperator,
    assemble_dirac,
    assemble_dpm,
    gauge_conjugate,
    multiplication_operator,
    restricted_operator_distance,
)
from .gauge import (
    CanonicalGauge,
    CokernelPair,
    GaugeSolution,
    LevelSetReport,
    ZMapDiagnostics,
    cokernel_formula_fit,
    cokernel_vectors,
    level_set_diagnostics,
    quasimomentum_from_pairings,
    solve_canonical_gauge,
    solve_gauge,
    z_map,
    z_map_diagnostics,
)
from .analysis import (
    BandTable,
    CoercivityReport,
    CrossTermReport,
    LadderReport,
    PotentialProfile,
    SplitPotential,
    SweepConfig,
    SweepReport,
    WienerReport,
    admissibility_recipe,
    band_structure,
    brillouin_grid,
    coercivity_operator,
    cross_term_check,
    estimate_c1_c2,
    potential_profile,
    select_threshold_b,
    sigma_min_sweep,
    smallest_singular_value,
    split_potential,
    sweep_direction_from_gauge,
    verify_coercivity,
    wiener_average,
)
from .instances import random_gamma_instance, random_trig_field

__version__ = "0.1.0"
