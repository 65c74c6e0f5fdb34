"""Truncated Bloch-fiber operators at real and complex quasimomentum.

The scalar building blocks are

    dpm(z) = (G +- iF)(z_1 - i d/dx_1) +- iH(z_2 - i d/dx_2) + i mu H,

acting on the retained Fourier modes, where z = k + i kappa and the optional
+ i mu H term implements the imaginary vertical shift used by the sweep
machinery.  On the mode basis the derivative symbol is exactly 2 pi N and
coefficient multiplication acts as convolution, so every operator here is a
sum of terms (multiplier field) x (diagonal symbol).

The two-component fiber is the block arrangement

    D(z) = [[0, d_-(z)], [d_+(z), 0]],

optionally augmented by a matrix potential V0*I + sum_l Vl*sigma_l, and gauge
conjugation by e^{mu sigma_3 Psi} e^{-i mu Phi} (...) e^{i mu Phi} e^{mu sigma_3 Psi}
is realised by one more multiplication factor on each side of the fiber.

Every operator is held in one form: a product of factors, each factor a sum
of terms (i, j, field, diag) that map spinor component j to component i by
multiplying with the diagonal symbol and then with the field.  Both
evaluation routes derive from those terms: the dense Galerkin matrix writes
each factor's convolution blocks into one array and multiplies the factors;
the matrix-free route applies each term by FFT (transform, multiply,
transform back), factor by factor.  The two routes share no arithmetic, so
they cross-check each other.  The FFT route transforms a batch laid out
batch-first, (B, S, S), with ``scipy.fft``.  Each term allocates and frees
its own work array, so a batched apply holds one such array at a time; at
M = 16 and B = 578 it is 38 MiB.  ``scipy.fft`` is imported on the first
matrix-free apply rather than at import time, because runs that only
assemble dense fibers never need it and would pay its import time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS, SCHEMA_VERSIONS, TOLERANCES
from .errors import GaugeOverflowError, GridMismatchError
from .fourier import (
    CoefficientSet,
    FourierGrid,
    PeriodicScalarField,
    TWO_PI,
    sample_to_fourier,
)


@dataclass(frozen=True)
class ComplexQuasimomentum:
    """A point k + i kappa in C^2."""

    k: tuple[float, float]
    kappa: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "k", (float(self.k[0]), float(self.k[1])))
        object.__setattr__(self, "kappa", (float(self.kappa[0]), float(self.kappa[1])))

    @property
    def z1(self) -> complex:
        return self.k[0] + 1j * self.kappa[0]

    @property
    def z2(self) -> complex:
        return self.k[1] + 1j * self.kappa[1]

    @classmethod
    def real(cls, k) -> "ComplexQuasimomentum":
        return cls((float(k[0]), float(k[1])))


@dataclass(frozen=True)
class MatrixPotential:
    """Components of V0*I + V1*sigma_1 + V2*sigma_2 + V3*sigma_3."""

    v0: PeriodicScalarField
    v1: PeriodicScalarField
    v2: PeriodicScalarField
    v3: PeriodicScalarField

    def __post_init__(self):
        g = self.v0.grid
        for comp in (self.v1, self.v2, self.v3):
            if comp.grid != g:
                raise GridMismatchError("potential components live on different grids")

    @property
    def grid(self) -> FourierGrid:
        return self.v0.grid

    @classmethod
    def zero(cls, grid: FourierGrid) -> "MatrixPotential":
        z = PeriodicScalarField.constant(grid, 0.0)
        return cls(z, z, z, z)

    @classmethod
    def diagonal(cls, grid: FourierGrid, v0=0.0, v3=0.0) -> "MatrixPotential":
        """Constant V0*I + V3*sigma_3 potential."""
        z = PeriodicScalarField.constant(grid, 0.0)
        return cls(PeriodicScalarField.constant(grid, v0), z, z,
                   PeriodicScalarField.constant(grid, v3))

    def is_hermitian(self, tol: float = TOLERANCES["field_real_symmetry"]) -> bool:
        """The multiplication potential is Hermitian iff all components are real."""
        return all(c.is_real(tol) for c in (self.v0, self.v1, self.v2, self.v3))


# ---------------------------------------------------------------------------
# Terms: convolution matrices and FFT application
# ---------------------------------------------------------------------------

def _convolution_matrix(field: PeriodicScalarField) -> np.ndarray:
    """Dense Galerkin matrix of multiplication by the field: C[N, M] = W_{N-M}."""
    g = field.grid
    m = g.truncation_radius
    w = np.zeros((4 * m + 1, 4 * m + 1), dtype=np.complex128)
    w[m : 3 * m + 1, m : 3 * m + 1] = field.coeffs.reshape(g.side, g.side)
    d1 = g.n1[:, None] - g.n1[None, :] + 2 * m
    d2 = g.n2[:, None] - g.n2[None, :] + 2 * m
    return w[d1, d2]


def _multiply(vec: np.ndarray, samples: np.ndarray, grid: FourierGrid) -> np.ndarray:
    """Multiply the columns of ``vec`` (n_modes, B) by a sampled field via FFT.

    The (B, S, S) work array lives only in this frame, so it is freed before
    the caller moves on to the next term and allocates another one.
    """
    import scipy.fft  # deferred to the first apply (see the module docstring)
    s = grid.sample_resolution
    flat = (grid.n1 % s) * s + grid.n2 % s
    spec = np.zeros((vec.shape[1], s * s), dtype=np.complex128)
    spec[:, flat] = vec.T
    phys = scipy.fft.ifft2(spec.reshape(-1, s, s), axes=(1, 2), overwrite_x=True)
    phys *= samples
    return scipy.fft.fft2(phys, axes=(1, 2), overwrite_x=True).reshape(-1, s * s)[:, flat].T


# ---------------------------------------------------------------------------
# The public operator type
# ---------------------------------------------------------------------------

class TruncatedOperator:
    """A linear map on (C^nc tensor retained modes) with dual evaluation routes.

    The operator is the product ``factors[0] @ factors[1] @ ...``.  Each factor
    is a tuple of terms ``(i, j, field, diag)``: the map from spinor component
    j to component i that multiplies by the diagonal symbol ``diag`` (None
    means 1) and then by ``field``; a factor is the sum of its terms.

    ``apply`` runs the matrix-free FFT route (cost O(M^2 log M) per vector);
    ``matrix`` assembles the dense Galerkin matrix from convolution matrices.
    Both describe the same truncated operator and agree to rounding.  The
    field samples the FFT route needs are computed on the first apply.
    Instances are immutable once assembled and safe to share across workers.
    """

    def __init__(self, grid: FourierGrid, n_components: int, factors,
                 meta: dict | None = None):
        self.grid = grid
        self.n_components = n_components
        self.factors = tuple(tuple(factor) for factor in factors)
        self.meta = dict(meta or {})
        self._matrix = None
        self._samples = None

    @property
    def dim(self) -> int:
        return self.n_components * self.grid.n_modes

    def _check(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape[0] != self.dim or vec.ndim > 2:
            raise GridMismatchError(f"vector shape {vec.shape} does not match dim {self.dim}")
        return vec

    def _run(self, vec: np.ndarray, adjoint: bool) -> np.ndarray:
        vec = self._check(vec)
        if self._samples is None:
            self._samples = [[field.samples() for _, _, field, _ in factor]
                             for factor in self.factors]
        pairs = list(zip(self.factors, self._samples))
        x = vec.reshape(self.n_components, self.grid.n_modes, -1)
        for factor, samples in (pairs if adjoint else pairs[::-1]):
            # Terms accumulate in the order the builder lists them (see assemble_dirac).
            out = np.zeros_like(x)
            for (i, j, _, diag), smp in zip(factor, samples):
                if adjoint:
                    # Adjoint of multiplication by W is multiplication by conj(W).
                    w = _multiply(x[i], np.conj(smp), self.grid)
                    out[j] += w if diag is None else np.conj(diag)[:, None] * w
                else:
                    out[i] += _multiply(x[j] if diag is None else diag[:, None] * x[j],
                                        smp, self.grid)
            x = out
        return x.reshape(vec.shape)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free application; accepts a vector or a (dim, B) batch."""
        return self._run(vec, adjoint=False)

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        return self._run(vec, adjoint=True)

    def _factor_matrix(self, factor) -> np.ndarray:
        n = self.grid.n_modes
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i, j, field, diag in factor:
            c = _convolution_matrix(field)
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] += c if diag is None else c * diag
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense Galerkin matrix (built lazily, cached)."""
        if self._matrix is None:
            out = self._factor_matrix(self.factors[-1])
            for factor in reversed(self.factors[:-1]):
                out = self._factor_matrix(factor) @ out
            self._matrix = out
        return self._matrix

    def _require_compatible(self, other: "TruncatedOperator"):
        if self.grid != other.grid or self.n_components != other.n_components:
            raise GridMismatchError("operators are structurally incompatible")

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_compatible(other)
        return TruncatedOperator(self.grid, self.n_components, self.factors + other.factors)

    # -- export ----------------------------------------------------------------

    def export_records(self, tol: float = 0.0):
        """(row, col, re, im) records of the dense matrix for cross-implementation diffs."""
        mat = self.matrix
        rows, cols = np.nonzero(np.abs(mat) > tol)
        for r, c in zip(rows, cols):
            v = mat[r, c]
            yield int(r), int(c), float(v.real), float(v.imag)

    def export_json(self, tol: float = 0.0) -> dict:
        return {
            "schema": SCHEMA_VERSIONS["operator"],
            "truncation_radius": self.grid.truncation_radius,
            "n_components": self.n_components,
            "entries": [list(rec) for rec in self.export_records(tol)],
        }


def multiplication_operator(field: PeriodicScalarField) -> TruncatedOperator:
    """Truncated multiplication by a scalar field."""
    return TruncatedOperator(field.grid, 1, [[(0, 0, field, None)]])


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------

def _dpm_terms(coeffs: CoefficientSet, z, mu: float, sign: str, grid: FourierGrid,
               i: int, j: int) -> list:
    """The two terms of dpm(z) + i mu H, mapping spinor component j to i."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if grid != coeffs.grid:
        raise GridMismatchError("grid does not match coefficient grid")
    if not isinstance(z, ComplexQuasimomentum):
        z = ComplexQuasimomentum.real(z)
    s = 1.0 if sign == "+" else -1.0
    d1 = z.z1 + TWO_PI * grid.n1
    d2 = z.z2 + TWO_PI * grid.n2
    first = coeffs.c_plus() if sign == "+" else coeffs.c_minus()
    return [(i, j, first, d1), (i, j, coeffs.h, 1j * (mu + s * d2))]


def assemble_dpm(coeffs: CoefficientSet, z, mu: float, sign: str,
                 grid: FourierGrid | None = None) -> TruncatedOperator:
    """Galerkin matrix of (G +- iF)(z_1 + 2 pi N_1) +- iH(z_2 + 2 pi N_2) + i mu H.

    ``sign`` selects the upper or lower combination.  mu = 0 recovers the plain
    fiber dpm(z); the multiplier fields act by convolution.
    """
    grid = coeffs.grid if grid is None else grid
    return TruncatedOperator(grid, 1, [_dpm_terms(coeffs, z, mu, sign, grid, 0, 0)])


def assemble_dirac(coeffs: CoefficientSet, V: MatrixPotential | None, z,
                   grid: FourierGrid | None = None, mu: float = 0.0) -> TruncatedOperator:
    """The two-component fiber [[0, d_-(z)], [d_+(z), 0]] + potential blocks.

    The potential adds [[V0+V3, V1-iV2], [V1+iV2, V0-V3]] as convolution
    blocks; ``mu`` adds the i mu H shift to both off-diagonal entries.
    """
    grid = coeffs.grid if grid is None else grid
    terms = _dpm_terms(coeffs, z, mu, "-", grid, 0, 1) + _dpm_terms(coeffs, z, mu, "+", grid, 1, 0)
    if V is not None:
        if V.grid != grid:
            raise GridMismatchError("potential grid does not match")
        # Off-diagonal terms come before diagonal ones, so a matrix-free row
        # sums (d_-+ + V_offdiag) + V_diag, the same rounding as adding whole
        # blocks.  An identically zero component adds no term.
        for i, j, coeffs_ij in ((0, 1, V.v1.coeffs - 1j * V.v2.coeffs),
                                (1, 0, V.v1.coeffs + 1j * V.v2.coeffs),
                                (0, 0, V.v0.coeffs + V.v3.coeffs),
                                (1, 1, V.v0.coeffs - V.v3.coeffs)):
            if np.any(coeffs_ij):
                terms.append((i, j, PeriodicScalarField(grid, coeffs_ij), None))
    return TruncatedOperator(grid, 2, [terms])


# ---------------------------------------------------------------------------
# Gauge conjugation
# ---------------------------------------------------------------------------

def _exp_field(grid: FourierGrid, exponent_samples: np.ndarray) -> tuple[PeriodicScalarField, float]:
    """Truncate exp(exponent) to the window; return the field and its relative tail."""
    limit = TOLERANCES["exponent_range_limit"]
    worst = float(np.max(np.abs(exponent_samples.real)))
    if worst > limit:
        raise GaugeOverflowError(
            f"gauge exponent reaches |Re| = {worst:.2f} > {limit}; rescale mu or Psi")
    samples = np.exp(exponent_samples)
    fld = sample_to_fourier(samples, grid)
    total = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    kept = fld.l2_norm()
    tail = float(np.sqrt(max(total**2 - kept**2, 0.0))) / max(total, 1e-300)
    return fld, tail


def gauge_conjugate(op: TruncatedOperator, phi: PeriodicScalarField,
                    psi: PeriodicScalarField, mu: complex) -> TruncatedOperator:
    """Conjugate a spinor fiber: e^{mu s3 Psi} e^{-i mu Phi} op e^{i mu Phi} e^{mu s3 Psi}.

    The exponentials are evaluated pointwise on the sample grid, truncated to
    the window, and applied as convolution blocks.  The relative spectral tail
    lost by truncating each exponential is reported in
    ``meta["gauge_truncation_residual"]``; Phi = Psi = 0 returns an operator
    identical to ``op``.
    """
    if op.n_components != 2:
        raise GridMismatchError("gauge conjugation is defined for two-component fibers")
    grid = op.grid
    if phi.grid != grid or psi.grid != grid:
        raise GridMismatchError("gauge fields live on a different grid")
    mu = complex(mu)
    ph = phi.samples()
    ps = psi.samples()

    left, right, tails = [], [], {}
    for name, i, exponent, factor in (
        ("row0", 0, mu * ps - 1j * mu * ph, left),
        ("row1", 1, -mu * ps - 1j * mu * ph, left),
        ("col0", 0, 1j * mu * ph + mu * ps, right),
        ("col1", 1, 1j * mu * ph - mu * ps, right),
    ):
        fld, tails[name] = _exp_field(grid, exponent)
        factor.append((i, i, fld, None))
    return TruncatedOperator(grid, 2, [left, *op.factors, right],
                             meta={"gauge_truncation_residual": tails})


def restricted_operator_distance(a: TruncatedOperator, b: TruncatedOperator,
                                 probe_radius: int | None = None) -> float:
    """Spectral norm of (a - b) restricted to modes |N|_inf <= probe_radius.

    The unrestricted difference of two truncated operators is dominated by
    window-boundary truncation effects, so identities between operators are
    measured on the resolved half-window by default.
    """
    a._require_compatible(b)
    grid = a.grid
    if probe_radius is None:
        probe_radius = max(1, int(grid.truncation_radius * DEFAULTS["probe_radius_fraction"]))
    sel = (np.abs(grid.n1) <= probe_radius) & (np.abs(grid.n2) <= probe_radius)
    idx = np.nonzero(np.concatenate([sel] * a.n_components))[0]
    probe = np.zeros((a.dim, idx.size), dtype=np.complex128)
    probe[idx, np.arange(idx.size)] = 1.0
    diff = a.apply(probe) - b.apply(probe)
    return float(np.linalg.norm(diff, ord=2))
