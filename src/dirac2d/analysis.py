"""Band structure, singular-value sweeps, and estimate verification.

This layer drives the assembled fibers over the Brillouin zone 2 pi K,
sweeps the smallest singular value along a complex-quasimomentum line
(the mechanism certifying a trivial kernel), estimates the equivalence
constants between the fiber norm and the mode-distance weighted norms, and
evaluates the potential functionals

    f_W(N)  = inf_b (b + sqrt(N) ||W_b||),
    h_W(t)  = inf_eps (eps + C_eps(W)/t),
    htilde_W(b) = inf_eps min_{a >= 2 pi} (sqrt(6/pi) a ||W_b|| + eps + C_eps(W)/a),

where W_b keeps the samples with |W| > b and C_eps(W) is a relative-bound
constant computed as the top eigenvalue of a quadratic-form surrogate on the
truncated mode space.  Cesaro averages of the oscillatory integrals
I_nu = int_K e^{2 pi i nu (Psi - x2)} W and the coercivity margin checks close
the loop on the estimates used by the sweep argument.

Fiber solves follow the fiber's ``route`` (see :mod:`dirac2d.operators`).
With constant coefficients and potential (the free reference operator) each
mode is its own 2x2 block, and bands, sigma_min and the equivalence constants
are batched per-mode solves.  Else a sweep point or d_pm is factored once
(sparse or dense LU) and sigma_min read off by Lanczos on the LU solves of
(A^H A)^{-1}; a Hermitian fiber without diagonal blocks gets its bands as
+-sigma of one off-diagonal block (:func:`band_structure`).

Their quadrature needs every power moment mean_j w_j z_j^nu of the phase
samples z = e^{2 pi i (Psi - x2)}; nu = a q + b, q = ceil(sqrt(n_max)), makes
each block of points about 2 sqrt(n_max) elementwise passes and one BLAS-3
product instead of n_max passes over the grid (see :func:`power_moments`).
W and Psi are sampled in strips of columns that go straight to the kernel,
so no array of the grid's size is held (see :func:`wiener_average`).

Per-fiber work (each quasimomentum, each sweep point) runs serially, in grid
order; BLAS/LAPACK inside each solve uses its own threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .defaults import DEFAULTS, TOLERANCES
from .errors import (
    InadmissibleParameterError,
    NonHermitianError,
    ResolutionError,
    SingularWeightError,
)
from .fourier import (
    CoefficientSet,
    ModeWeights,
    PeriodicScalarField,
    TWO_PI,
    convolve,
    index_set_T,
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
    lanczos_singular_value,
    lu_solver,
    multiplication_operator,
)


def brillouin_grid(n1: int, n2: int) -> np.ndarray:
    """Uniform (n1 x n2) quasimomentum grid over [0, 2 pi)^2, row-major."""
    k1 = TWO_PI * np.arange(n1) / n1
    k2 = TWO_PI * np.arange(n2) / n2
    a, b = np.meshgrid(k1, k2, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


# ---------------------------------------------------------------------------
# Smallest singular values
# ---------------------------------------------------------------------------

def smallest_singular_value(op: TruncatedOperator) -> float:
    """sigma_min of a truncated operator on its ``route``: the least per-mode
    block singular value, else A is factored once
    (:func:`~dirac2d.operators.lu_solver`) and seeded Lanczos
    (:func:`~dirac2d.operators.lanczos_singular_value`) finds lambda_max of
    (A^H A)^{-1} through two triangular solves per step, so sigma_min =
    lambda_max^{-1/2} without an SVD.  An exactly zero pivot means A is
    singular in floating point and gives 0.0; if ARPACK fails the value comes
    from a full SVD.  Only the dense route holds the 16 dim^2-byte matrix
    (about 1 GiB at M = 32) and as much again in LU factors.
    """
    if op.route == "per-mode":
        return float(np.linalg.svd(op.mode_blocks, compute_uv=False).min())
    solve = lu_solver(op.matrix if op.route == "dense LU" else op.sparse)
    if solve is None:
        return 0.0
    # (A^H A)^{-1} v: solve A^H y = v, then A x = y.
    return lanczos_singular_value(lambda v: solve(solve(v, trans="H")), op.dim,
                                  lambda: op.matrix, -1)


# ---------------------------------------------------------------------------
# Band structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandTable:
    """Per-quasimomentum sorted spectral values of the assembled fibers."""

    kpoints: np.ndarray           # (n_k, 2)
    values: np.ndarray            # (n_k, n_sel) sorted ascending per row
    mode: str                     # "eigen" or "singular"
    hermitian_defect: float       # worst |A - A^H| entry over the grid
    route: str                    # "per-mode" or "dense LAPACK", the same for every fiber

    def rows(self):
        """(k1, k2, index, value) records in deterministic order."""
        for kp, vals in zip(self.kpoints, self.values):
            for idx, v in enumerate(vals):
                yield float(kp[0]), float(kp[1]), idx, float(v)


def band_structure(coeffs: CoefficientSet, V: MatrixPotential | None, kgrid, *,
                   n_bands: int | None = None, mode: str = "auto") -> BandTable:
    """Fiber spectra over a real quasimomentum grid.

    ``mode="eigen"`` requires a Hermitian fiber (Hermitian-flagged potential
    and an assembled matrix equal to its conjugate transpose) and returns real
    eigenvalues; ``mode="singular"`` returns singular values; ``auto`` picks
    per assembly.  Constant coefficients take one batched solve of the
    per-mode blocks.  Otherwise a fiber whose terms all map one spinor
    component to the other (no V0/V3 term) is block off-diagonal: its
    eigenvalues are +-sigma of the lower block (one half-size SVD instead of
    the full eigensolve) and its singular values are those of its two blocks
    (two half-size SVDs).  When ``n_bands`` is given, the values of smallest
    magnitude are kept per fiber and re-sorted ascending; a cut through a
    degenerate level keeps +- pairs (see :func:`_cut_bands`).
    """
    if mode not in ("auto", "eigen", "singular"):
        raise ValueError(f"unknown mode {mode!r}")
    kgrid = np.atleast_2d(np.asarray(kgrid, dtype=float))
    if mode == "eigen" and V is not None and not V.is_hermitian():
        raise NonHermitianError("self-adjoint mode requested with a non-Hermitian potential")

    values, defects, used_eigen = [], [], True
    for k in kgrid:
        op = assemble_dirac(coeffs, V, (k[0], k[1]))
        # A sparse-route fiber stays sparse until a block goes to LAPACK.
        a = op.matrix if op.route == "dense LU" else op.sparse
        defect = float(abs(a - a.conj().T).max())
        scale = max(1.0, float(abs(a).max()))
        hermitian = defect <= TOLERANCES["hermitian"] * scale
        if mode == "eigen" and not hermitian:
            raise NonHermitianError(
                f"fiber at k={tuple(k)} is not Hermitian (defect {defect:.3e})")
        use_eigen = hermitian if mode == "auto" else (mode == "eigen")
        n = coeffs.grid.n_modes
        off_diagonal = all(i != j for i, j, _, _ in op.factors[0])
        if op.route == "per-mode":
            # Constant coefficients: the 2x2 block of every mode (halved as below).
            blocks = op.mode_blocks
            vals = np.sort((np.linalg.eigvalsh(0.5 * blocks + 0.5 * blocks.conj().swapaxes(1, 2))
                            if use_eigen else np.linalg.svd(blocks, compute_uv=False)).ravel())
        elif use_eigen and off_diagonal:
            # No V0/V3 term: the Hermitian part is [[0, B^H], [B, 0]], whose
            # eigenvalues are +-sigma(B).  Here and below each term is halved
            # before the sum (exact), so entries near the float limit do not
            # overflow.
            s = scipy.linalg.svdvals(_dense(0.5 * a[n:, :n] + 0.5 * a[:n, n:].conj().T))
            vals = np.concatenate([-s, s[::-1]])
        elif use_eigen:
            vals = np.linalg.eigvalsh(0.5 * op.matrix + 0.5 * op.matrix.conj().T)
        elif off_diagonal:
            # sigma([[0, B1], [B2, 0]]) = sigma(B1) u sigma(B2): two half-size SVDs.
            vals = np.sort(np.concatenate([scipy.linalg.svdvals(_dense(a[:n, n:])),
                                           scipy.linalg.svdvals(_dense(a[n:, :n]))]))
        else:
            vals = np.sort(scipy.linalg.svdvals(op.matrix))
        values.append(vals if n_bands is None else _cut_bands(vals, n_bands))
        defects.append(defect)
        used_eigen = used_eigen and use_eigen

    return BandTable(kpoints=kgrid, values=np.array(values),
                     mode="eigen" if used_eigen else "singular", hermitian_defect=max(defects),
                     route="per-mode" if op.route == "per-mode" else "dense LAPACK")


def _dense(block) -> np.ndarray:
    """A block of a CSR or dense fiber as a dense array."""
    return block.toarray() if scipy.sparse.issparse(block) else block


def _cut_bands(vals: np.ndarray, n_bands: int) -> np.ndarray:
    """The ``n_bands`` values of smallest magnitude, sorted ascending.

    Values whose magnitudes agree within ``TOLERANCES["band_oracle"]`` (gaps
    between consecutive magnitudes) form one level.  Levels are kept in order
    of magnitude; inside a level the members alternate in sign, negative
    first, so a cut through a degenerate level keeps +- pairs instead of
    following eigensolver rounding.
    """
    v = vals[np.argsort(np.abs(vals), kind="stable")]
    level = np.concatenate(([0], np.cumsum(np.diff(np.abs(v)) > TOLERANCES["band_oracle"])))
    seen, rank = {}, []
    for lev, positive in zip(level, v >= 0):
        i = seen.get((lev, positive), 0)
        seen[(lev, positive)] = i + 1
        rank.append(2 * i + positive)
    return np.sort(v[np.lexsort((rank, level))[:n_bands]])


# ---------------------------------------------------------------------------
# The sigma_min sweep along a complex line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Complex-quasimomentum sweep line: k = (pi, k2), shift by mu_tilde * e."""

    direction: tuple[float, float] = (1.0, 0.0)
    k_prime: tuple[float, float] = (0.0, 0.0)
    kappa_prime: tuple[float, float] = (0.0, 0.0)
    mu_grid: tuple = (0.0,)
    k2_grid: tuple = (0.0,)

    def __post_init__(self):
        e = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(e) - 1.0) > 1e-9:
            raise InadmissibleParameterError(f"sweep direction {tuple(e)} is not a unit vector")


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    sigma: np.ndarray             # (n_mu, n_k2)
    min_per_mu: np.ndarray        # min over k2 for each mu_tilde
    flagged: np.ndarray           # bool, sigma_min below the certificate floor
    floor_log_intercept: float | None
    floor_log_slope: float | None
    route: str                    # TruncatedOperator.route of every point

    def rows(self):
        for i, mu in enumerate(self.config.mu_grid):
            for j, k2 in enumerate(self.config.k2_grid):
                yield float(mu), float(k2), float(self.sigma[i, j])


def sweep_direction_from_gauge(canonical) -> tuple[float, float]:
    """Unit sweep direction e = kappa_tilde / |kappa_tilde| (has e_1 > 0)."""
    kt = np.asarray(canonical.kappa_tilde, dtype=float)
    e = kt / np.linalg.norm(kt)
    if e[0] <= 0:
        raise InadmissibleParameterError("canonical gauge produced a direction with e_1 <= 0")
    return (float(e[0]), float(e[1]))


def sigma_min_sweep(coeffs: CoefficientSet, V: MatrixPotential | None,
                    sweep: SweepConfig) -> SweepReport:
    """sigma_min of D(k + k' + i(mu_tilde e + kappa')) + V over the sweep grid.

    Each point is one :func:`smallest_singular_value`.  A value below the
    certificate floor, or NaN, is flagged (a potential eigenvalue certificate
    failure), never raised; a log-linear floor is fitted to the per-mu_tilde
    minima when all are positive and there are at least two distinct mu_tilde
    values.
    """
    e = np.asarray(sweep.direction, dtype=float)
    kp = np.asarray(sweep.k_prime, dtype=float)
    cp = np.asarray(sweep.kappa_prime, dtype=float)
    sigma = np.empty((len(sweep.mu_grid), len(sweep.k2_grid)))
    for i, mu in enumerate(sweep.mu_grid):
        for j, k2 in enumerate(sweep.k2_grid):
            z = ComplexQuasimomentum(np.array([np.pi, k2]) + kp, mu * e + cp)
            op = assemble_dirac(coeffs, V, z)
            sigma[i, j] = smallest_singular_value(op)
    min_per_mu = sigma.min(axis=1)
    flagged = ~(min_per_mu >= TOLERANCES["sigma_min_flag"])

    intercept = slope = None
    if np.all(min_per_mu > 0) and len(set(sweep.mu_grid)) >= 2:
        coeffs_fit = np.polyfit(np.asarray(sweep.mu_grid, dtype=float),
                                np.log(min_per_mu), 1)
        slope, intercept = float(coeffs_fit[0]), float(coeffs_fit[1])
    return SweepReport(config=sweep, sigma=sigma, min_per_mu=min_per_mu,
                       flagged=flagged, floor_log_intercept=intercept,
                       floor_log_slope=slope, route=op.route)


# ---------------------------------------------------------------------------
# Equivalence constants for the weighted norms
# ---------------------------------------------------------------------------

def estimate_c1_c2(coeffs: CoefficientSet, k, mu: float = 0.0) -> tuple[float, float]:
    """Extreme generalized singular values of dpm(k) + i mu H against Gpm_N, both signs.

    Returns (c1_emp, c2_emp) with 0 < c1_emp <= c2_emp such that

        c1_emp ||phi||_{*,pm}^2 <= ||(dpm(k) + i mu H) phi||^2 <= c2_emp ||phi||_{*,pm}^2

    holds for every retained phi (these are the tight empirical constants).
    """
    weights = ModeWeights(coeffs.grid, (float(k[0]), float(k[1])), float(mu))
    c1, c2 = np.inf, 0.0
    for s in ("+", "-"):
        w = weights.g_plus if s == "+" else weights.g_minus
        if np.min(w) <= TOLERANCES["weight_zero"]:
            raise SingularWeightError(
                f"weight G{s}_N vanishes in the window at k={tuple(weights.k)}, mu={mu}")
        # (dpm + i mu H) diag(1/w): the same terms with each symbol divided by w.
        dpm = assemble_dpm(coeffs, (k[0], k[1]), mu, s)
        weighted = TruncatedOperator(dpm.grid, 1, [[(i, j, field, diag / w)
                                                    for i, j, field, diag in dpm.factors[0]]])
        if weighted.route == "per-mode":
            sv = np.linalg.svd(weighted.mode_blocks, compute_uv=False)
            low, high = float(sv.min()), float(sv.max())
        else:
            high = lanczos_singular_value(lambda v: weighted.adjoint_apply(weighted.apply(v)),
                                          weighted.dim, lambda: weighted.matrix, 0)
            low = smallest_singular_value(weighted)
        c1 = min(c1, low**2)
        c2 = max(c2, high**2)
    return c1, c2


# ---------------------------------------------------------------------------
# Potential functionals
# ---------------------------------------------------------------------------

def _cholesky_completes(b: np.ndarray) -> bool:
    """Whether the Cholesky factorisation of Hermitian ``b`` runs to completion.

    Left-looking, column by column, in place on the lower triangle: column j
    loses the products of the earlier columns (one matrix-vector product),
    then is divided by the square root of its diagonal entry, which must be
    positive and finite.  The products go to two preallocated vectors, so the
    loop makes no array per column.
    """
    n = b.shape[0]
    row, prod = np.empty(n, dtype=b.dtype), np.empty(n, dtype=b.dtype)
    with np.errstate(all="ignore"):
        for j in range(n):
            col = b[j:, j]
            np.conjugate(b[j, :j], out=row[:j])
            col -= np.matmul(b[j:, :j], row[:j], out=prod[j:])
            d = col[0].real
            if not 0.0 < d < np.inf:
                return False
            col /= math.sqrt(d)
    return True


def _relative_bound_constants(w_field: PeriodicScalarField, eps_grid: np.ndarray) -> np.ndarray:
    """C_eps(W) via the quadratic-form surrogate, maximised over quasimomentum corners.

    C_eps^2 = max over k' in ``DEFAULTS["quasimomentum_corners"]`` of
    lambda_max(H), H = C_W^H C_W - eps^2 diag(|k' + 2 pi N|^2), on the
    truncated space; the square root of the positive part is returned.  This
    upper-bounds the affine constant since sqrt(a^2 + b^2) <= a + b.

    Each eps takes the dense ``eigvalsh`` of the first corner's H as ``best``;
    a later corner is solved only if it might exceed ``best``, so the result
    has the bits of the plain max over all corners.  A corner is skipped when
    the Cholesky factorisation of B = (best - delta) I - H runs to completion
    (:func:`_cholesky_completes`; it and ``eigvalsh`` read the lower triangle).
    With u the unit roundoff and M = ||C_W^H C_W||_F + eps^2 max ||d2||_2,
    which bounds ||H||_2 and |best| (so tr B <= 2 n M): the computed factor has
    R^H R = B + dB with ||dB||_2 <= gamma ||R||_F^2 = gamma tr(B + dB),
    gamma ~ 2 (n+1) u in complex arithmetic, whatever the order of the inner
    products (Higham, Accuracy and Stability, Thm 10.3), so
    ||dB||_2 <= 4 n (n+1) u M.  As B + dB is positive semidefinite,
    lambda_max(H) <= best - delta + ||dB||_2.  Taking the error of
    ``eigvalsh`` to be at most n^2 u M, it would return at most
    best - delta + 5 (n+1)^2 u M, rounding of B included, and delta =
    4 (n+1)^2 eps_mach M = 8 (n+1)^2 u M puts that below ``best``, so the
    skipped value could not have raised the max.  The n^2 u M is an assumed
    constant, not a proven one: LAPACK's Hermitian eigensolvers are backward
    stable but state no constant.  The plain-max oracle tests in
    ``tests/test_analysis.py`` are what check the bits.  A factorisation that
    fails (a near tie, a non-finite entry) only sends the corner to
    ``eigvalsh``.
    The factorisation is a loop of numpy products, not LAPACK's: numpy's
    ``cholesky`` pages in about 0.5 MiB more OpenBLAS code (the benchmark's
    peak RSS read 0.28 MiB higher with it), and scipy's runs on scipy's own
    OpenBLAS, whose threads contend with numpy's when the calls alternate.
    """
    grid = w_field.grid
    c = multiplication_operator(w_field).matrix
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ctc = c.conj().T @ c
    del c
    # A Gram matrix has |ctc_ij| <= sqrt(ctc_ii ctc_jj): its diagonal decides.
    if not np.isfinite(ctc.diagonal()).all():
        raise InadmissibleParameterError("C_W^H C_W of the potential W is not finite")
    if np.max(np.abs(ctc)) == 0.0:
        return np.zeros(eps_grid.size)
    d2_list = [(k1 + TWO_PI * grid.n1) ** 2 + (k2 + TWO_PI * grid.n2) ** 2
               for k1, k2 in DEFAULTS["quasimomentum_corners"]]
    n = ctc.shape[0]
    diag = np.diag_indices(n)
    ctc_norm = np.linalg.norm(ctc)
    d2_norm = max(np.linalg.norm(d2) for d2 in d2_list)
    eps_top = float(np.max(np.abs(eps_grid)))
    if not math.isfinite(eps_top * eps_top * float(d2_norm)):
        raise InadmissibleParameterError(f"eps = {eps_top!r}: eps^2 |k' + 2 pi N|^2 is not finite")
    out = np.empty(eps_grid.size)
    for i, eps in enumerate(eps_grid):
        delta = 4 * (n + 1) ** 2 * np.finfo(float).eps * (ctc_norm + eps**2 * d2_norm)
        best = np.linalg.eigvalsh(ctc - (eps**2) * np.diag(d2_list[0]))[-1]
        for d2 in d2_list[1:]:
            b = -ctc
            b[diag] += eps**2 * d2
            b[diag] += best - delta
            below = _cholesky_completes(b)
            del b  # n x n: freed before eigvalsh allocates its own copies
            if below:
                continue
            top = np.linalg.eigvalsh(ctc - (eps**2) * np.diag(d2))[-1]
            if top > best:  # the builtin max's test, NaN included
                best = top
        out[i] = np.sqrt(max(best, 0.0))
    return out


@dataclass(frozen=True)
class PotentialProfile:
    """Tables of ||W_b||, f_W, C_eps, h_W, and htilde_W for one potential.

    Each table is its method on its grid (``wb_norms = wb_norm(b_grid)``,
    ``f_values = f_of(count_grid)``, ...); the methods take a number or an
    array and read the sorted sample magnitudes and their suffix sums.
    """

    w: PeriodicScalarField
    b_grid: np.ndarray
    count_grid: np.ndarray
    eps_grid: np.ndarray
    c_eps: np.ndarray
    t_grid: np.ndarray
    _sorted_abs: np.ndarray = field(repr=False)  # |W| at the sample points, ascending
    _suffix_sq: np.ndarray = field(repr=False)   # suffix sums of _sorted_abs**2, then 0

    @property
    def c1_w(self) -> float:
        """C_1(W), the relative-bound constant at eps = 1."""
        idx = int(np.argmin(np.abs(self.eps_grid - 1.0)))
        if abs(self.eps_grid[idx] - 1.0) > 1e-12:
            raise ValueError("eps_grid does not contain 1.0")
        return float(self.c_eps[idx])

    @property
    def c7(self) -> float:
        """1 + C_1(W)/pi, the bounded-multiplier constant on T(mu/2) supports."""
        return 1.0 + self.c1_w / np.pi

    def wb_norm(self, b):
        """||W_b||, the root mean square over the samples (L^2(K) quadrature) of W on |W| > b."""
        idx = np.searchsorted(self._sorted_abs, b, side="right")
        return np.sqrt(self._suffix_sq[idx] / self._sorted_abs.size)

    def f_of(self, n):
        """f_W(N), minimised over b = 0 and the sample levels (where ||W_b|| steps)."""
        cand = np.concatenate([[0.0], self._sorted_abs])
        root = np.sqrt(np.asarray(n, dtype=float))[..., None]
        return np.min(cand + root * self.wb_norm(cand), axis=-1)

    def h_of(self, t):
        """h_W(t), minimised over the tabulated eps."""
        return np.min(self.eps_grid + self.c_eps / np.asarray(t, dtype=float)[..., None], axis=-1)

    def htilde_of(self, b):
        """min over eps and a >= 2 pi of sqrt(6/pi) a ||W_b|| + eps + C_eps/a.

        The minimising a is max(sqrt(C_eps / (sqrt(6/pi) ||W_b||)), 2 pi);
        ||W_b|| = 0 lets a go to infinity and leaves eps.
        """
        coef = np.sqrt(6.0 / np.pi)
        wb = np.asarray(self.wb_norm(b))[..., None]
        live = wb > 0
        a = np.maximum(np.sqrt(self.c_eps / (coef * np.where(live, wb, 1.0))), TWO_PI)
        inner = np.where(live, coef * a * wb + self.c_eps / a, 0.0)
        return np.min(self.eps_grid + inner, axis=-1)

    @cached_property
    def wb_norms(self) -> np.ndarray:
        return self.wb_norm(self.b_grid)

    @cached_property
    def f_values(self) -> np.ndarray:
        return self.f_of(self.count_grid)

    @cached_property
    def h_values(self) -> np.ndarray:
        return self.h_of(self.t_grid)

    @cached_property
    def htilde_values(self) -> np.ndarray:
        return self.htilde_of(self.b_grid)


def potential_profile(w: PeriodicScalarField, *, eps_grid=None, b_grid=None,
                      count_grid=None, t_grid=None) -> PotentialProfile:
    """Threshold norms, relative-bound constants, and the derived functionals.

    All tables inherit the monotonicity of their defining infima: b -> ||W_b||
    and b -> htilde_W(b) are nonincreasing, N -> f_W(N) nondecreasing, and
    t -> h_W(t) nonincreasing.
    """
    eps_grid = np.asarray(DEFAULTS["eps_grid"] if eps_grid is None else eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise ValueError("eps_grid is empty")
    if not np.any(np.abs(eps_grid - 1.0) < 1e-12):
        eps_grid = np.sort(np.append(eps_grid, 1.0))

    absvals = np.sort(np.abs(w.samples()).ravel())
    top = float(absvals[-1])
    if not math.isfinite(top * top):
        raise InadmissibleParameterError(
            f"|W|^2 of the potential W is not finite (max |W| = {top!r})")

    b_grid = np.linspace(0.0, top * (1.0 + 1e-6), 16) if b_grid is None else np.asarray(b_grid, dtype=float)
    count_grid = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096]) \
        if count_grid is None else np.asarray(count_grid, dtype=int)
    t_grid = np.geomspace(TWO_PI, 64 * np.pi, 10) if t_grid is None else np.asarray(t_grid, dtype=float)
    for name, g in (("b_grid", b_grid), ("count_grid", count_grid), ("t_grid", t_grid)):
        if g.size == 0:
            raise ValueError(f"{name} is empty")

    sq = absvals**2
    return PotentialProfile(w=w, b_grid=b_grid, count_grid=count_grid, eps_grid=eps_grid,
                            c_eps=_relative_bound_constants(w, eps_grid), t_grid=t_grid,
                            _sorted_abs=absvals,
                            _suffix_sq=np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]]))


def select_threshold_b(profile: PotentialProfile, c1: float) -> float | None:
    """Smallest tabulated level b with htilde_W(b)^2 <= c1/192 (or None).

    The denominator is ``DEFAULTS["threshold_margin_denominator"]``.
    """
    ok = profile.htilde_values**2 <= c1 / DEFAULTS["threshold_margin_denominator"]
    if not np.any(ok):
        return None
    return float(profile.b_grid[int(np.argmax(ok))])


# ---------------------------------------------------------------------------
# Oscillatory averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WienerReport:
    """Cesaro averages A(N) of |I_nu|^2 and the threshold sets M_pm."""

    n_max: int
    theta: float
    abs_i_plus: np.ndarray     # |I_nu| for nu = 1..n_max (sign +)
    abs_i_minus: np.ndarray
    averages: np.ndarray       # A(N) for N = 1..n_max
    m_plus: tuple              # nu with |I^+_nu| >= theta
    m_minus: tuple
    resolution: tuple[int, int]
    required_resolution: tuple[int, int]

    @property
    def density_plus(self) -> float:
        return len(self.m_plus) / self.n_max

    @property
    def density_minus(self) -> float:
        return len(self.m_minus) / self.n_max

    def average_at(self, n: int) -> float:
        return float(self.averages[n - 1])


def required_resolution(psi: PeriodicScalarField, n_max: int) -> tuple[int, int]:
    """Per-axis sample counts giving >= 8 samples per oscillation at nu = n_max."""
    per = DEFAULTS["phase_samples_per_oscillation"]
    fine = 4 * psi.grid.side
    m1 = float(np.max(np.abs(psi.derivative(1).samples((fine, fine)))))
    m2 = float(np.max(np.abs(psi.derivative(2).samples((fine, fine)) - 1.0)))
    floor = max(psi.grid.side, 16)
    s1 = max(int(np.ceil(per * n_max * m1)), floor)
    s2 = max(int(np.ceil(per * n_max * m2)), floor)
    return s1, s2


# Points per block of power_moments: its q + A rows of 2048 complex values
# take 1 MiB at n_max = 256 and 2 MiB at n_max = 1024, so they stay in cache.
_MOMENT_BLOCK = 2048
# Points per strip of the quadrature grid in wiener_average, which takes
# max(1, 8192 // S1) columns at a time: 4 blocks, 128 KiB of W or Psi, and
# 16 whole columns at S1 = 512.
_STRIP_POINTS = 8192


def power_moments(w: np.ndarray, z: np.ndarray, n_max: int,
                  sums: np.ndarray | None = None) -> np.ndarray | None:
    """mean(w * z**nu) for nu = 1..n_max, as one matrix product per block of points.

    With q = ceil(sqrt(n_max)) and A = ceil(n_max/q), every nu = a q + b
    (0 <= a < A, 1 <= b <= q) and  w z^nu = (z^q)^a (w z^b).  For a block of
    points the rows V[b-1] = w z^b and U[a] = (z^q)^a are running products
    (about q + A elementwise passes over the block), and all n_max moment sums
    of the block are the entries of the (A x block)(block x q) product U V^T,
    a BLAS-3 ZGEMM.  The block is small enough that U and V stay in cache, so
    the points are read once instead of n_max times.

    The blocks are fixed and their products are added in order.  The last
    block is zero-padded, so every product has the same shape and BLAS splits
    each sum the same way at any thread count (a product with an odd-sized
    tail rounded differently at 1 and 2 OpenBLAS threads).

    A grid can be fed in pieces: pass the same zeroed (A, q) array ``sums``
    (:func:`_moment_sums`) to every call, and the blocks' products are added
    into it and None is returned; the moments are then
    ``sums.ravel()[:n_max] / points``.  Every piece but the last must hold
    whole blocks, so that only the last block is padded.
    """
    w, z, n_max = np.ravel(w), np.ravel(z), int(n_max)
    total = _moment_sums(n_max) if sums is None else sums
    n_rows, q = total.shape
    v = np.empty((q, _MOMENT_BLOCK), dtype=np.complex128)
    u = np.empty((n_rows, _MOMENT_BLOCK), dtype=np.complex128)
    zq = np.empty(_MOMENT_BLOCK, dtype=np.complex128)
    for start in range(0, z.size, _MOMENT_BLOCK):
        wb, zb = w[start:start + _MOMENT_BLOCK], z[start:start + _MOMENT_BLOCK]
        if zb.size < _MOMENT_BLOCK:
            pad = (0, _MOMENT_BLOCK - zb.size)
            wb, zb = np.pad(wb, pad), np.pad(zb, pad)
        np.multiply(wb, zb, out=v[0])
        for b in range(1, q):
            np.multiply(v[b - 1], zb, out=v[b])
        np.power(zb, q, out=zq)
        u[0] = 1.0
        for a in range(1, n_rows):
            np.multiply(u[a - 1], zq, out=u[a])
        total += u @ v.T
    if sums is None:
        return total.ravel()[:n_max] / z.size


def _moment_sums(n_max: int) -> np.ndarray:
    """The zeroed (A, q) sums of :func:`power_moments` for moments 1..n_max."""
    q = math.isqrt(int(n_max) - 1) + 1
    return np.zeros((-(-int(n_max) // q), q), dtype=np.complex128)


def quadrature_resolution(psi: PeriodicScalarField, n_max: int,
                          resolution=None) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (S1, S2) quadrature grid of :func:`wiener_average` and its requirement.

    ``resolution`` is None (use the requirement), one sample count for both
    axes, or a pair; one below the requirement of :func:`required_resolution`
    raises :class:`ResolutionError`.
    """
    req = required_resolution(psi, n_max)
    if resolution is None:
        return req, req
    s1, s2 = (int(resolution), int(resolution)) if np.isscalar(resolution) \
        else (int(resolution[0]), int(resolution[1]))
    if s1 < req[0] or s2 < req[1]:
        raise ResolutionError(
            f"resolution {(s1, s2)} below the phase-resolution requirement {req}")
    return (s1, s2), req


def wiener_average(w: PeriodicScalarField, psi: PeriodicScalarField, n_max: int,
                   theta: float, resolution=None) -> WienerReport:
    """Quadrature of I_nu = int_K e^{+- 2 pi i nu (Psi - x2)} W and its averages.

    The quadrature grid must resolve the phase 2 pi nu (Psi - x2) with at least
    8 samples per oscillation at nu = n_max along each axis; the automatic
    resolution guarantees this, an explicit one is checked and rejected with a
    :class:`ResolutionError` when too coarse (see :func:`quadrature_resolution`).

    W and Psi are sampled in strips of whole columns, about ``_STRIP_POINTS``
    points each (:meth:`PeriodicScalarField.sample_strips`), and each strip
    goes straight to :func:`power_moments`, so no array of the grid's size is
    held.  The points of a strip that do not fill a whole block are carried
    into the next strip, so the grid is cut into ceil(S1 S2 / 2048) blocks as
    if it came in one piece.  For a non-real W or Psi the minus moments are
    summed in the same walk.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    (s1, s2), req = quadrature_resolution(psi, n_max, resolution)

    real = w.is_real() and psi.is_real()
    plus, minus = _moment_sums(n_max), None if real else _moment_sums(n_max)

    def add(wb, zb):
        if not zb.size:
            return
        power_moments(wb, zb, n_max, plus)
        if minus is not None:
            power_moments(wb, np.conj(zb), n_max, minus)

    tail_w = tail_z = np.empty(0, dtype=np.complex128)
    start = 0
    width = max(1, _STRIP_POINTS // s1)
    for ws, zs in zip(w.sample_strips((s1, s2), width), psi.sample_strips((s1, s2), width)):
        # z = exp(2 pi i (Psi - x2)) is formed in the buffer of the Psi samples.
        zs -= np.arange(start, start + zs.shape[1]) / s2
        start += zs.shape[1]
        zs *= 2j * np.pi
        np.exp(zs, out=zs)
        wf, zf = ws.ravel(), zs.ravel()
        if tail_z.size:
            wf, zf = np.concatenate((tail_w, wf)), np.concatenate((tail_z, zf))
        whole = wf.size - wf.size % _MOMENT_BLOCK
        add(wf[:whole], zf[:whole])
        tail_w, tail_z = wf[whole:], zf[whole:]
    add(tail_w, tail_z)

    i_plus = plus.ravel()[:n_max] / (s1 * s2)
    i_minus = np.conj(i_plus) if real else minus.ravel()[:n_max] / (s1 * s2)

    abs_p = np.abs(i_plus)
    abs_m = np.abs(i_minus)
    averages = np.cumsum(abs_p**2) / np.arange(1, n_max + 1)
    m_plus = tuple(int(nu) for nu in np.nonzero(abs_p >= theta)[0] + 1)
    m_minus = tuple(int(nu) for nu in np.nonzero(abs_m >= theta)[0] + 1)
    return WienerReport(n_max=n_max, theta=theta, abs_i_plus=abs_p, abs_i_minus=abs_m,
                        averages=averages, m_plus=m_plus, m_minus=m_minus,
                        resolution=(s1, s2), required_resolution=req)


# ---------------------------------------------------------------------------
# Coercivity margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityReport:
    margins: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    c1: float
    c2: float
    c7: float
    c8: float
    a: float
    mu: float
    k: tuple[float, float]
    warnings: tuple


def coercivity_operator(coeffs: CoefficientSet, vtilde0: PeriodicScalarField,
                        vtilde3: PeriodicScalarField, psi: PeriodicScalarField,
                        mu: float, k) -> TruncatedOperator:
    """Assemble D(k) + i mu H sigma_1 + e^{2 i mu sigma_3 Psi}(V0~ I + V3~ sigma_3)."""
    grid = coeffs.grid
    fiber = assemble_dirac(coeffs, None, (k[0], k[1]), mu=mu)
    ps = psi.samples()
    b00 = sample_to_fourier(np.exp(2j * mu * ps) * (vtilde0 + vtilde3).samples(), grid)
    b11 = sample_to_fourier(np.exp(-2j * mu * ps) * (vtilde0 - vtilde3).samples(), grid)
    return TruncatedOperator(grid, 2, [fiber.factors[0] + ((0, 0, b00, None), (1, 1, b11, None))])


def verify_coercivity(coeffs: CoefficientSet, vtilde0: PeriodicScalarField,
                      vtilde3: PeriodicScalarField, psi: PeriodicScalarField,
                      mu: float, a: float, k, trials: int = 100, *, seed: int = 0,
                      admissibility: list[WienerReport] | None = None) -> CoercivityReport:
    """Margins LHS - RHS of the coercivity inequality on random trial spinors.

    LHS is the squared fiber norm of the rotated-potential operator; RHS is
    (c1/6) sum_pm ||P^{T_pm(a)} phi_pm||_*^2 + c8 sum_pm ||P^{off} phi_pm||_{*,pm}^2.
    c1 and c2 are the empirical equivalence constants at (k, mu); c7 is 1 when both
    rotated potentials vanish and otherwise 1 + C_1(W)/pi for the larger
    relative-bound constant C_1 of W = vtilde0 +- vtilde3 (``PotentialProfile.c7``
    without the rest of the profile); c8 = c1^2 / (6 (c1 + 4 c7^2)).  When threshold
    reports are supplied, a warning is recorded if mu/pi lands in an
    estimated excluded set.

    The trials go through the operator's CSR form, whose full-support rotated
    potential blocks hold about n_modes entries per row: 50 trials take about
    0.25 s and 70 MiB at M = 16, and 1.1 s and 340 MiB at M = 24.
    """
    grid = coeffs.grid
    if abs(k[0] - np.pi) > 1e-12:
        raise InadmissibleParameterError("the coercivity check runs on the line k1 = pi")
    if a < DEFAULTS["a_min"]:
        raise InadmissibleParameterError(f"need a >= 2 pi, got {a}")

    warnings = []
    nu = mu / np.pi
    if abs(nu - round(nu)) > 1e-9:
        warnings.append(f"mu/pi = {nu:.6f} is not an integer scaling")
    if admissibility:
        nu_int = int(round(nu))
        for rep in admissibility:
            if nu_int in rep.m_plus or nu_int in rep.m_minus:
                warnings.append(f"mu/pi = {nu_int} lies in an estimated excluded set")
                break

    c1, c2 = estimate_c1_c2(coeffs, k, mu)
    if vtilde0.l2_norm() == 0.0 and vtilde3.l2_norm() == 0.0:
        c7 = 1.0
    else:
        c7 = 1.0 + max(_relative_bound_constants(w, np.ones(1))[0]
                       for w in (vtilde0 + vtilde3, vtilde0 - vtilde3)) / np.pi
    c8 = c1**2 / (6.0 * (c1 + 4.0 * c7**2))

    weights = ModeWeights(grid, (float(k[0]), float(k[1])), float(mu))
    t_plus = index_set_T(weights, a, "+")
    t_minus = index_set_T(weights, a, "-")
    op = coercivity_operator(coeffs, vtilde0, vtilde3, psi, mu, k)

    rng = np.random.default_rng(seed)
    n = grid.n_modes
    batch = (rng.standard_normal((2 * n, trials))
             + 1j * rng.standard_normal((2 * n, trials)))
    image = op.apply(batch)
    lhs = np.sum(np.abs(image) ** 2, axis=0)

    rhs = np.empty(trials)
    for t in range(trials):
        phi_p, phi_m = batch[:n, t], batch[n:, t]
        on = (weighted_norm(project(phi_p, t_plus.mask), weights, "star") ** 2
              + weighted_norm(project(phi_m, t_minus.mask), weights, "star") ** 2)
        off = (weighted_norm(project(phi_p, ~t_plus.mask), weights, "star_plus") ** 2
               + weighted_norm(project(phi_m, ~t_minus.mask), weights, "star_minus") ** 2)
        rhs[t] = (c1 / 6.0) * on + c8 * off
    return CoercivityReport(margins=lhs - rhs, lhs=lhs, rhs=rhs, c1=float(c1), c2=float(c2),
                            c7=float(c7), c8=float(c8), a=float(a), mu=float(mu),
                            k=(float(k[0]), float(k[1])), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Cross-term bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossTermReport:
    ratios: np.ndarray
    max_ratio: float
    bound_constant: float
    tail_norm: float
    zero_bound_cases: int


def cross_term_check(w: PeriodicScalarField, weights: ModeWeights, a: float,
                     a_prime: float, n_trials: int = 100, *, seed: int = 0) -> CrossTermReport:
    """Check |(phi, W psi)| <= sqrt(6 pi) a (sum_{2 pi |N| > a'-a} |W_N|^2)^{1/2} ||phi|| ||psi||.

    Each random trial draws phi vanishing on T^pm(a') and psi vanishing
    outside T^pm(a) (same sign per pair), for both signs.  When the spectral
    tail of W is zero the inner product must vanish identically, which is
    verified against an absolute floor instead of a ratio.
    """
    mu = weights.mu
    if not (DEFAULTS["a_min"] <= a < a_prime <= mu / 2.0):
        raise InadmissibleParameterError(
            f"need 2 pi <= a < a' <= mu/2, got a={a}, a'={a_prime}, mu={mu}")
    grid = weights.grid
    radii = TWO_PI * np.hypot(grid.n1, grid.n2)
    tail = float(np.sqrt(np.sum(np.abs(w.coeffs[radii > a_prime - a]) ** 2)))
    bound_const = np.sqrt(6.0 * np.pi) * a * tail
    mult = multiplication_operator(w)

    sets = {s: (index_set_T(weights, a, s), index_set_T(weights, a_prime, s))
            for s in ("+", "-")}

    rng = np.random.default_rng(seed)
    phis, psis = [], []
    for _ in range(n_trials):
        for sign in ("+", "-"):
            t_a, t_ap = sets[sign]
            phis.append(project(rng.standard_normal(grid.n_modes)
                                + 1j * rng.standard_normal(grid.n_modes), ~t_ap.mask))
            psis.append(project(rng.standard_normal(grid.n_modes)
                                + 1j * rng.standard_normal(grid.n_modes), t_a.mask))
    images = mult.apply(np.stack(psis, axis=1))
    ratios, zero_cases = [], 0
    for phi, psi, image in zip(phis, psis, images.T):
        ip = abs(complex(np.vdot(phi, image)))
        scale = np.linalg.norm(phi) * np.linalg.norm(psi)
        if bound_const * scale > 1e-13:
            ratios.append(ip / (bound_const * scale))
        else:
            zero_cases += 1
            ratios.append(0.0 if ip <= 1e-10 * max(scale, 1.0) else np.inf)

    ratios = np.asarray(ratios)
    return CrossTermReport(ratios=ratios, max_ratio=float(np.max(ratios)),
                           bound_constant=float(bound_const), tail_norm=tail,
                           zero_bound_cases=zero_cases)


# ---------------------------------------------------------------------------
# Potential splitting and the scaling-exclusion recipe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPotential:
    """Threshold split of the sigma_1/sigma_2 components and the rotated diagonal."""

    v1_tail: PeriodicScalarField       # samples of V1 where |V1| > b
    v2_tail: PeriodicScalarField
    v1_bounded: PeriodicScalarField    # the complementary (<= b) parts
    v2_bounded: PeriodicScalarField
    vtilde0: PeriodicScalarField       # V0 cosh 2Psi' + V3 sinh 2Psi'
    vtilde3: PeriodicScalarField       # V0 sinh 2Psi' + V3 cosh 2Psi'


def split_potential(V: MatrixPotential, b: float,
                    psi_prime: PeriodicScalarField) -> SplitPotential:
    """Threshold V1, V2 at level b and hyperbolically rotate the diagonal pair.

    The thresholded parts keep the samples with |V(x)| > b; all outputs are
    re-truncated to the window, so thresholding is exact only for fields whose
    split parts are themselves band-limited (constants, or b outside the range).
    """
    grid = V.grid
    ps = psi_prime.samples()
    ch, sh = np.cosh(2.0 * ps), np.sinh(2.0 * ps)
    v0s, v3s = V.v0.samples(), V.v3.samples()

    def threshold(fld):
        s = fld.samples()
        tail = np.where(np.abs(s) > b, s, 0.0)
        return (sample_to_fourier(tail, grid), sample_to_fourier(s - tail, grid))

    v1_tail, v1_bounded = threshold(V.v1)
    v2_tail, v2_bounded = threshold(V.v2)
    return SplitPotential(
        v1_tail=v1_tail, v2_tail=v2_tail,
        v1_bounded=v1_bounded, v2_bounded=v2_bounded,
        vtilde0=sample_to_fourier(v0s * ch + v3s * sh, grid),
        vtilde3=sample_to_fourier(v0s * sh + v3s * ch, grid),
    )


@dataclass(frozen=True)
class LadderReport:
    """Separated radii a_1 < a_2 < ... < a_{J+1} with band-tail control.

    Only the head of the ladder is materialised; ``constant_gap`` records the
    step used for the closed-form remainder (the tails of band-limited
    coefficient products vanish beyond a fixed gap, so all later rungs are
    equally spaced).
    """

    a1: float
    a_j: float
    j_count: int
    delta: float
    feasible: bool
    theta: float
    tau_star: float
    radii_head: tuple
    constant_gap: float | None


def admissibility_recipe(coeffs: CoefficientSet, c1: float, c2: float, c8: float,
                         a1: float) -> LadderReport:
    """Radii ladder and threshold theta for the scaling-exclusion construction.

    J is the smallest integer with c2^2 <= J delta^2 where
    delta = min(c1/32, 3 c8/2); each step a_{j+1} - a_j is chosen so the
    spectral tails of the coefficient products G^2+F^2, (G +- iF)H, H^2 beyond
    the gap stay below delta / (4 sqrt(6 pi) a_j).  Once the gap clears the
    product bandwidth the tails are exactly zero and the remaining rungs use
    that constant gap, giving a closed form for arbitrarily long ladders.
    theta = c1 / (192 pi a_1^2 tau*) with tau* = 4 a_J^2 / pi.  At most
    ``DEFAULTS["ladder_cap"]`` rungs are built one by one.
    """
    if a1 < DEFAULTS["a_min"]:
        raise InadmissibleParameterError(f"need a1 >= 2 pi, got {a1}")
    delta = min(c1 / 32.0, 1.5 * c8)
    j_count = int(np.ceil(c2**2 / delta**2))

    grid = coeffs.grid
    products = [
        convolve(coeffs.g, coeffs.g) + convolve(coeffs.f, coeffs.f),
        convolve(coeffs.c_plus(), coeffs.h),
        convolve(coeffs.c_minus(), coeffs.h),
        convolve(coeffs.h, coeffs.h),
    ]
    # Worst suffix tail over the four products, as a step function of the gap:
    # order = sorted distinct mode radii, tail_at[i] = tail just past order[i].
    radii_modes = TWO_PI * np.hypot(grid.n1, grid.n2)
    order = np.argsort(radii_modes, kind="stable")
    sorted_radii = radii_modes[order]
    tails = np.zeros(sorted_radii.size)
    for p in products:
        sq = np.abs(p.coeffs[order]) ** 2
        suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        # tail strictly beyond radius sorted_radii[i]
        beyond = np.array([suffix[np.searchsorted(sorted_radii, r, side="right")]
                           for r in sorted_radii])
        tails = np.maximum(tails, np.sqrt(beyond))

    def smallest_gap(threshold: float) -> float | None:
        ok = np.nonzero(tails <= threshold)[0]
        if ok.size == 0:
            return None
        return float(sorted_radii[ok[0]]) + 1e-9

    # "Zero" tail up to transform rounding noise; exists because the products
    # are window-truncated (exact for inputs of degree <= M/2).
    noise_floor = 1e-13 * max(float(tails[0]), 1.0)
    zero_gap = smallest_gap(noise_floor)
    feasible = True
    radii = [float(a1)]
    head_cap = min(j_count, DEFAULTS["ladder_cap"])
    for _ in range(head_cap):
        aj = radii[-1]
        gap = smallest_gap(delta / (4.0 * np.sqrt(6.0 * np.pi) * aj))
        if gap is None:
            feasible = False
            gap = zero_gap if zero_gap is not None else TWO_PI
        radii.append(aj + gap)

    if j_count > head_cap:
        # Remaining rungs use the zero-tail gap, which satisfies every
        # threshold; a_{j} = a_{head} + (j - head) * zero_gap.
        a_j = radii[-1] + (j_count - 1 - head_cap) * zero_gap
        constant_gap = zero_gap
    else:
        a_j = radii[j_count - 1] if j_count >= 1 else radii[0]
        constant_gap = None

    tau_star = 4.0 * a_j**2 / np.pi
    theta = c1 / (3.0 * 64.0 * np.pi * a1**2 * tau_star)
    return LadderReport(a1=float(a1), a_j=float(a_j), j_count=j_count,
                        delta=float(delta), feasible=feasible, theta=float(theta),
                        tau_star=float(tau_star),
                        radii_head=tuple(radii[: min(len(radii), 10)]),
                        constant_gap=constant_gap)
