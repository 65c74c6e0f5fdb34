"""Cokernel vectors, gauge solvers, and the induced plane map.

At zero quasimomentum the scalar fibers d_+ and d_- annihilate constants and
have one-dimensional cokernels spanned by unit vectors chi_+ and
chi_- = conj(chi_+).  The pairings

    mu1_pm = (chi_pm, G +- iF),      mu2_pm = (chi_pm, +- iH),

control solvability of the first-order equations

    i d_pm Phi_pm = C_pm - (G +- iF)(k_1 + i kappa_1) -+ iH(k_2 + i kappa_2),

whose unique compatible shift k + i kappa is produced by a 2x2 Cramer solve
with determinant 2i Im(mu1_+ conj(mu2_+)).  The gauge functions are then
recovered by a solve on the zero-mean subspace, with the defect of the
solvability condition reported as a residual.

One banded LU serves a whole solve.  The N = 0 column of A = i d_+(0) is
zero; A' is A with that column replaced by a vector r drawn from
``DEFAULTS["lanczos_seed"]`` on the support of G + iF and H (offsets every
column reaches, so A' keeps A's band), nonsingular when the cokernel is
one-dimensional.  A'^H y = e_0 forces A^H y = 0, so chi_+ is y / |y|.  For
b orthogonal to chi_+, A' x = b gives x_0 = (chi_+, b) / (chi_+, r) = 0 and
A x = b, so A'^{-1} is the zero-mean solve on chi_+^perp and, with P the
projector onto chi_+^perp, P A'^{-H} A'^{-1} P = (A^+)^H A^+.  Seeded
Lanczos on that operator gives the smallest nonzero singular value s[-2],
Lanczos on A^H A the largest s[0], and sigma_min is |A^H chi_+|; no SVD is
taken unless ARPACK fails (no convergence or any other error).  Real
coefficients give i d_-(0) = R conj(A) R with R: N -> -N (the symmetry
behind chi_- = conj(R chi_+)), so the same factors solve the - equation.  Both residuals are
measured against the CSR forms of i d_+(0) and i d_-(0); no dense matrix
is formed unless Lanczos fails and ``svdvals`` takes over.

The canonical variant feeds C_1 = iH, C_2 = 0, yielding real zero-mean
(Phi, Psi) and a shift direction kappa_tilde with kappa_tilde_1 > 0; from it
the map Z(x) = Phi - i Psi + kappa_tilde_1 x_1 + (kappa_tilde_2 + i) x_2 is
built together with injectivity and level-set diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .defaults import DEFAULTS, TOLERANCES
from .errors import DegenerateCokernelError, Dirac2DError, IllConditionedError
from .fourier import (
    CoefficientSet,
    FourierGrid,
    PeriodicScalarField,
    sample_to_fourier,
)
from .operators import assemble_dpm, lanczos_singular_value, lu_solver


@dataclass(frozen=True)
class CokernelPair:
    """Unit cokernel vectors of d_pm at zero quasimomentum and their pairings."""

    grid: FourierGrid
    chi_plus: np.ndarray
    chi_minus: np.ndarray
    mu1_plus: complex
    mu1_minus: complex
    mu2_plus: complex
    mu2_minus: complex
    sigma_min: float
    sigma_gap: float

    @property
    def c0_lower(self) -> float:
        """|Im mu1_+ conj(mu2_+)|, the computable positivity margin."""
        return abs(float(np.imag(self.mu1_plus * np.conjugate(self.mu2_plus))))


def _phase_fix(chi: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude coefficient of the unit vector ``chi`` real
    positive (deterministic); that entry is never 0."""
    pivot = chi[np.argmax(np.abs(chi))]
    return chi * (np.conj(pivot) / abs(pivot))


class _DPlusLU:
    """A = i d_+(0) at zero quasimomentum and one banded LU of A' (see above)."""

    def __init__(self, coeffs: CoefficientSet):
        self.sparse = (1j * assemble_dpm(coeffs, (0.0, 0.0), 0.0, "+").sparse).tocsc()
        n, c0 = self.sparse.shape[0], coeffs.grid.mode_index(0, 0)
        self.adjoint = self.sparse.conj().T
        rows = np.flatnonzero((coeffs.c_plus.coeffs != 0) | (coeffs.h.coeffs != 0))
        rng = np.random.default_rng(DEFAULTS["lanczos_seed"])
        r = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        column = scipy.sparse.csc_matrix((r, (rows, np.full(rows.size, c0))), shape=(n, n))
        self.solve = lu_solver(self.sparse + column)
        if self.solve is None:
            raise DegenerateCokernelError(
                "i d_+(0) with its N = 0 column replaced is singular (exactly zero pivot); "
                "cokernel not one-dimensional")
        e0 = np.zeros(n, dtype=np.complex128)
        e0[c0] = 1.0
        y = self.solve(e0, trans="H")
        self.chi = _phase_fix(y / np.linalg.norm(y))
        self.sigma_min = float(np.linalg.norm(self.adjoint @ self.chi))

    @cached_property
    def sigma_max(self) -> float:
        """s[0], from Lanczos on A^H A."""
        return lanczos_singular_value(lambda v: self.adjoint @ (self.sparse @ v),
                                      self.sparse.shape[0], self.sparse.toarray, 0)

    @cached_property
    def sigma_second(self) -> float:
        """s[-2], the smallest nonzero singular value, from Lanczos on (A^+)^H A^+."""
        chi, solve = self.chi, self.solve

        def matvec(v):
            v = v - chi * np.vdot(chi, v)
            y = solve(solve(v), trans="H")
            return y - chi * np.vdot(chi, y)
        return lanczos_singular_value(matvec, self.sparse.shape[0], self.sparse.toarray, -2)


def _cokernel_pair(coeffs: CoefficientSet, fac: _DPlusLU) -> CokernelPair:
    gap = fac.sigma_second - fac.sigma_min
    if gap < TOLERANCES["cokernel_gap"]:
        raise DegenerateCokernelError(
            f"two smallest singular values differ by {gap:.3e} < "
            f"{TOLERANCES['cokernel_gap']:.0e}; cokernel not one-dimensional")
    chi_plus = fac.chi
    chi_minus = np.conj(chi_plus[::-1])

    cp, cm, h = coeffs.c_plus.coeffs, coeffs.c_minus.coeffs, coeffs.h.coeffs
    pair = CokernelPair(
        grid=coeffs.grid,
        chi_plus=chi_plus,
        chi_minus=chi_minus,
        mu1_plus=complex(np.vdot(chi_plus, cp)),
        mu1_minus=complex(np.vdot(chi_minus, cm)),
        mu2_plus=complex(np.vdot(chi_plus, 1j * h)),
        mu2_minus=complex(np.vdot(chi_minus, -1j * h)),
        sigma_min=fac.sigma_min,
        sigma_gap=gap,
    )
    if pair.c0_lower <= 0.0:
        raise Dirac2DError("pairing determinant vanished; gauge equations unsolvable")
    return pair


def cokernel_vectors(coeffs: CoefficientSet) -> CokernelPair:
    """Unit cokernel vectors of the truncated d_+ and d_- and their pairings.

    The smallest singular value should vanish to rounding (the cokernel is
    one-dimensional); if the two smallest singular values are closer than the
    degeneracy gap the cokernel is not numerically one-dimensional and a
    :class:`DegenerateCokernelError` is raised.
    """
    return _cokernel_pair(coeffs, _DPlusLU(coeffs))


def quasimomentum_from_pairings(pair: CokernelPair, ip_plus: complex,
                                ip_minus: complex) -> tuple[complex, complex]:
    """Cramer solve of the 2x2 solvability system for (k_1+i kappa_1, k_2+i kappa_2).

    ``ip_pm`` are the pairings (chi_pm, C_pm).  The result is invariant under
    a common phase rotation of chi_+ (and the conjugate rotation of chi_-).
    """
    det = pair.mu1_plus * pair.mu2_minus - pair.mu2_plus * pair.mu1_minus
    w1 = (ip_plus * pair.mu2_minus - pair.mu2_plus * ip_minus) / det
    w2 = (pair.mu1_plus * ip_minus - ip_plus * pair.mu1_minus) / det
    return complex(w1), complex(w2)


@dataclass(frozen=True)
class GaugeSolution:
    """Zero-mean gauge functions and the compatible quasimomentum shift."""

    phi: PeriodicScalarField
    psi: PeriodicScalarField
    k: tuple[float, float]
    kappa: tuple[float, float]
    residual_plus: float
    residual_minus: float
    condition_plus: float
    realness_flag: bool
    pair: CokernelPair


def solve_gauge(coeffs: CoefficientSet, c1: PeriodicScalarField,
                c2: PeriodicScalarField) -> GaugeSolution:
    """Solve the gauge equations for band-limited data (C_1, C_2).

    Forms C_pm = C_1 +- i C_2, determines the unique shift k + i kappa from the
    solvability system, then solves i d_pm Phi_pm = C'_pm on the zero-mean
    subspace and recombines Phi = (Phi_+ + Phi_-)/2,
    Psi = i(Phi_+ - Phi_-)/2.  Real-valued data forces kappa = 0 and real
    (Phi, Psi); the ``realness_flag`` records whether that symmetry held.
    ``condition_plus`` is s[0]/s[-2] of i d_+(0), which is also the
    condition number of the - equation (both use the same factors).
    """
    grid = coeffs.grid
    fac = _DPlusLU(coeffs)
    pair = _cokernel_pair(coeffs, fac)

    c_p = PeriodicScalarField(grid, c1.coeffs + 1j * c2.coeffs)
    c_m = PeriodicScalarField(grid, c1.coeffs - 1j * c2.coeffs)
    w1, w2 = quasimomentum_from_pairings(
        pair,
        complex(np.vdot(pair.chi_plus, c_p.coeffs)),
        complex(np.vdot(pair.chi_minus, c_m.coeffs)),
    )

    # C'_pm = C_pm - (G +- iF)(k_1 + i kappa_1) -+ iH(k_2 + i kappa_2)
    rhs_p = c_p.coeffs - w1 * coeffs.c_plus.coeffs - 1j * w2 * coeffs.h.coeffs
    rhs_m = c_m.coeffs - w1 * coeffs.c_minus.coeffs + 1j * w2 * coeffs.h.coeffs

    # Zero-mean solves through A'^{-1}, both right-hand sides at once; Phi_- = R conj(x).
    cond = float(fac.sigma_max / fac.sigma_second) if fac.sigma_second > 0 else np.inf
    if cond > TOLERANCES["gauge_condition_limit"]:
        raise IllConditionedError(
            f"zero-mean condition number s[0]/s[-2] = {cond:.3e} exceeds limit")
    x = fac.solve(np.column_stack([rhs_p, np.conj(rhs_m[::-1])]))
    x[grid.mode_index(0, 0)] = 0.0
    phi_p, phi_m = x[:, 0], np.conj(x[::-1, 1])
    a_m = 1j * assemble_dpm(coeffs, (0.0, 0.0), 0.0, "-").sparse
    res_p = float(np.linalg.norm(fac.sparse @ phi_p - rhs_p))
    res_m = float(np.linalg.norm(a_m @ phi_m - rhs_m))

    phi = PeriodicScalarField(grid, 0.5 * (phi_p + phi_m))
    psi = PeriodicScalarField(grid, 0.5j * (phi_p - phi_m))
    k = (float(w1.real), float(w2.real))
    kappa = (float(w1.imag), float(w2.imag))

    tol = TOLERANCES["gauge_symmetry"]
    realness = bool(max(abs(kappa[0]), abs(kappa[1])) <= tol
                    and phi.is_real(tol) and psi.is_real(tol))
    return GaugeSolution(phi=phi, psi=psi, k=k, kappa=kappa,
                         residual_plus=res_p, residual_minus=res_m,
                         condition_plus=cond, realness_flag=realness, pair=pair)


@dataclass(frozen=True)
class CanonicalGauge:
    """Real zero-mean gauge pair (Phi, Psi) with its shift direction kappa_tilde."""

    phi: PeriodicScalarField
    psi: PeriodicScalarField
    kappa_tilde: tuple[float, float]
    c0_lower: float
    c3_star: float
    residual: float
    imag_residual: float
    pair: CokernelPair

    @property
    def bound_chain_ok(self) -> bool:
        """kappa_tilde_1 >= c3_star = sqrt(c0_lower)/(p + F_bound) > 0."""
        return self.kappa_tilde[0] > 0.0 and self.kappa_tilde[0] >= self.c3_star - 1e-12


def solve_canonical_gauge(coeffs: CoefficientSet) -> CanonicalGauge:
    """Canonical gauge: the solve with C_1 = iH, C_2 = 0.

    For purely imaginary data the solver returns purely imaginary gauge
    functions and a purely imaginary shift; dividing by i produces the real
    pair (Phi, Psi) and the real direction kappa_tilde satisfying

        i d_+(Phi - i Psi) = -(G + iF) kt_1 - iH(kt_2 + i).
    """
    grid = coeffs.grid
    c1 = PeriodicScalarField(grid, 1j * coeffs.h.coeffs)
    c2 = PeriodicScalarField.constant(grid, 0.0)
    sol = solve_gauge(coeffs, c1, c2)

    k_leak = max(abs(sol.k[0]), abs(sol.k[1]))
    if k_leak > 1e-6:
        raise Dirac2DError(f"canonical solve produced a real shift |k| = {k_leak:.3e}")

    phi_raw = PeriodicScalarField(grid, -1j * sol.phi.coeffs)
    psi_raw = PeriodicScalarField(grid, -1j * sol.psi.coeffs)
    imag_residual = max(
        float(np.max(np.abs(phi_raw.coeffs - phi_raw.hermitian_part().coeffs))),
        float(np.max(np.abs(psi_raw.coeffs - psi_raw.hermitian_part().coeffs))),
    )
    c0 = sol.pair.c0_lower
    return CanonicalGauge(
        phi=phi_raw.hermitian_part(),
        psi=psi_raw.hermitian_part(),
        kappa_tilde=sol.kappa,
        c0_lower=c0,
        c3_star=float(np.sqrt(c0) / (coeffs.p + coeffs.f_bound)),
        residual=max(sol.residual_plus, sol.residual_minus),
        imag_residual=imag_residual,
        pair=sol.pair,
    )


def cokernel_formula_fit(coeffs: CoefficientSet,
                         canonical: CanonicalGauge) -> tuple[complex, float]:
    """Best scalar c in chi_+ ~ c (GH)^{-1}(d_+ Psi - H) and the L^2 misfit."""
    grid, chi = coeffs.grid, canonical.pair.chi_plus
    dpsi = assemble_dpm(coeffs, (0.0, 0.0), 0.0, "+").apply(canonical.psi.coeffs)
    dpsi_field = PeriodicScalarField(grid, dpsi)
    denom = coeffs.g.samples().real * coeffs.h.samples().real
    u = sample_to_fourier((dpsi_field.samples() - coeffs.h.samples()) / denom, grid).coeffs
    nu2 = float(np.vdot(u, u).real)
    if nu2 == 0.0:
        return 0.0 + 0.0j, float(np.linalg.norm(chi))
    c6 = complex(np.vdot(u, chi)) / nu2
    residual = float(np.linalg.norm(chi - c6 * u))
    return c6, residual


# ---------------------------------------------------------------------------
# The plane map Z and its diagnostics
# ---------------------------------------------------------------------------

def z_map(canonical: CanonicalGauge, points) -> np.ndarray:
    """Evaluate Z(x) = Phi - i Psi + kt_1 x_1 + (kt_2 + i) x_2 at given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    kt1, kt2 = canonical.kappa_tilde
    vals = (canonical.phi.evaluate(pts) - 1j * canonical.psi.evaluate(pts)
            + kt1 * pts[:, 0] + (kt2 + 1j) * pts[:, 1])
    return vals


@dataclass(frozen=True)
class ZMapDiagnostics:
    min_separation_ratio: float
    periodicity_error: float


def z_map_diagnostics(canonical: CanonicalGauge, resolution: int = 12) -> ZMapDiagnostics:
    """Injectivity and periodicity evidence for the map Z.

    ``min_separation_ratio`` is min |Z(x) - Z(y)| / |x - y| over a sample grid
    (positivity evidences injectivity); ``periodicity_error`` is the worst
    violation of Z(x + n) = Z(x) + kt_1 n_1 + (kt_2 + i) n_2 over the
    lattice shifts n = (1, 0), (0, 1), (1, 1).
    """
    t = np.arange(resolution) / resolution
    xx, yy = np.meshgrid(t, t, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    z = z_map(canonical, pts)

    dz = np.abs(z[:, None] - z[None, :])
    dx = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    off = dx > 0
    ratio = float(np.min(dz[off] / dx[off]))

    kt1, kt2 = canonical.kappa_tilde
    per = 0.0
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        shifted = z_map(canonical, pts + np.array([n1, n2], dtype=float))
        per = max(per, float(np.max(np.abs(shifted - z - (kt1 * n1 + (kt2 + 1j) * n2)))))
    return ZMapDiagnostics(min_separation_ratio=ratio, periodicity_error=per)


@dataclass(frozen=True)
class LevelSetReport:
    lambda_grid: tuple
    deltas: tuple
    fractions: np.ndarray  # shape (len(lambda_grid), len(deltas))
    min_gradient_quantity: float


def level_set_diagnostics(psi: PeriodicScalarField, lambda_grid,
                          deltas=(1e-2, 1e-3), resolution: int | None = None) -> LevelSetReport:
    """Sampled evidence that {x : Psi(x) - x_2 = lambda} has zero area.

    For each lambda and tolerance delta the report carries the fraction of
    sample points with |Psi(x) - x_2 - lambda| < delta (expected to shrink
    with delta), together with the sampled minimum of
    (d Psi/dx_1)^2 + (d Psi/dx_2 - 1)^2, whose positivity rules out flat
    pieces of the level sets.
    """
    res = psi.grid.sample_resolution if resolution is None else int(resolution)
    vals = psi.samples((res, res)).real
    x2 = (np.arange(res) / res)[None, :]
    t = vals - x2

    lam = tuple(float(v) for v in lambda_grid)
    dl = tuple(float(d) for d in deltas)
    fractions = np.empty((len(lam), len(dl)))
    for i, l in enumerate(lam):
        for j, d in enumerate(dl):
            fractions[i, j] = float(np.mean(np.abs(t - l) < d))

    d1 = psi.derivative(1).samples((res, res)).real
    d2 = psi.derivative(2).samples((res, res)).real
    gq = d1**2 + (d2 - 1.0) ** 2
    return LevelSetReport(lam, dl, fractions, float(np.min(gq)))
