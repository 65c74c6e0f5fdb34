"""Central registry of tolerances and numerical defaults.

Every hard threshold used by the library is named here so that run manifests
can record the complete numerical contract of a run.  Modules import these
values instead of burying literals in code.
"""

import math

# Tolerances: accuracy thresholds and guard levels.
TOLERANCES = {
    # Hermitian-symmetry tolerance for declaring a coefficient vector real-valued.
    "field_real_symmetry": 1e-12,
    # Relative Parseval agreement between coefficient and quadrature norms.
    "parseval_rel": 1e-10,
    # Relative agreement required between the CSR, dense and FFT-reference products.
    "matvec_agreement_rel": 1e-10,
    # Entrywise tolerance for the d_+/d_- conjugation symmetry.
    "conjugation_symmetry": 1e-12,
    # Entrywise tolerance for Hermiticity checks on assembled fibers.
    "hermitian": 1e-12,
    # Singular-value gap below which the cokernel is declared degenerate.
    "cokernel_gap": 1e-8,
    # Ceiling on s[0]/s[-2] of i d_+(0), the condition number of the zero-mean gauge solve (LU).
    "gauge_condition_limit": 1e12,
    # Tolerance on the symmetry laws of the gauge solver (real data => kappa = 0, ...).
    "gauge_symmetry": 1e-8,
    # Largest real exponent magnitude allowed inside gauge exponentials.
    "exponent_range_limit": 40.0,
    # sigma_min below this level is flagged as a potential kernel certificate failure.
    "sigma_min_flag": 1e-12,
    # Band values against closed-form oracles.
    "band_oracle": 1e-10,
    # Numerical-zero threshold for weights and denominators.
    "weight_zero": 1e-12,
}

# Defaults: grid sizes, recipe constants, and solver seeds.
DEFAULTS = {
    # Smallest admissible radius for the T-set machinery.
    "a_min": 2.0 * math.pi,
    # Fraction of the truncation radius used for conjugation-residual probes.
    "probe_radius_fraction": 0.5,
    # Required samples per oscillation when integrating e^{2 pi i nu (Psi - x2)} W.
    "phase_samples_per_oscillation": 8.0,
    # Quasimomentum representatives over which the relative-bound constant
    # C_eps(W) is maximised (corners of half the Brillouin zone).
    "quasimomentum_corners": (
        (0.0, 0.0),
        (0.0, math.pi),
        (math.pi, 0.0),
        (math.pi, math.pi),
    ),
    # Epsilon grid for relative-bound profiles; must contain 1.0 so that the
    # constant C_1(W) used by the bounded-multiplier estimates is tabulated.
    "eps_grid": (1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
    # Seed of the Lanczos start and restart vectors (smallest_singular_value,
    # the gauge solve's s[0] and s[-2]) and of the vector that replaces the
    # zero N = 0 column of i d_+(0), on the support of G + iF and H, before its banded LU.
    "lanczos_seed": 0,
    # Cap on the ladder length J when constructing separated radii a_2..a_{J+1}.
    "ladder_cap": 64,
    # Denominator in the threshold rule for splitting off the bounded part of a
    # potential: pick the smallest level b with htilde(b)^2 <= c1/192.
    "threshold_margin_denominator": 192.0,
}

SCHEMA_VERSIONS = {
    "field": "dirac2d.field/1",
    "gauge": "dirac2d.gauge/1",
    "manifest": "dirac2d.manifest/1",
}
