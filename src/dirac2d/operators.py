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
multiplying with the diagonal symbol and then with the field.  Each field
caches one CSR convolution matrix (the coefficient set hands out the same
G +- iF fields to every fiber), and a factor's CSR form scales its columns by
each term's ``diag`` and sums the terms in builder order.  ``apply`` and
``adjoint_apply`` multiply through these forms (a full-support factor's rows
hold up to nc * n_modes entries); the fiber solves and the gauge solve factor
a single-factor operator's form (``sparse``) by ``splu``.

The column route (``columns``) builds chosen columns of the dense Galerkin
matrix right to left: the last factor contributes only the needed columns of
its convolution blocks (read from one strided view of the coefficients), and
every earlier factor is one dense product per (i, j) block, or one sparse
product when band-limited (band radius b with 2b < M, so a row holds
(2b+1)^2 <= n_modes / 4 nonzeros).  ``matrix`` is this route over every
column, or a band-limited operator's ``sparse.toarray()``, bit for bit the
same; ``restricted_operator_distance`` uses it on the probed columns only.
Full-support fields (gauge exponentials, sampled fields) keep dense blocks
and dense LU.

A seeded Lanczos helper (:func:`lanczos_lambda_max`) serves every iterative
eigenvalue the library takes of a Hermitian positive operator: the fiber
sigma_min, the equivalence constants and the gauge solve's extreme singular
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .defaults import DEFAULTS, TOLERANCES
from .errors import GaugeOverflowError, GridMismatchError, InadmissibleParameterError
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
# Terms: convolution matrices
# ---------------------------------------------------------------------------

def _convolution_matrix(field: PeriodicScalarField, cols) -> np.ndarray:
    """Columns ``cols`` of the Galerkin matrix of multiplication by the field.

    C[N, N'] = W_{N-N'}.  With the modes in row-major (n1, n2) order C is block
    Toeplitz with Toeplitz blocks, C[(a, p), (b, q)] = w[a - b + 2m, p - q + 2m]
    for the zero-padded coefficient square w, so every entry is read from one
    strided view of w and only the requested columns are copied out.
    """
    g = field.grid
    m, s = g.truncation_radius, g.side
    w = np.zeros((4 * m + 1, 4 * m + 1), dtype=np.complex128)
    w[m : 3 * m + 1, m : 3 * m + 1] = field.coeffs.reshape(s, s)
    # view[a, p, b, q] = w[a - b + 2m, p - q + 2m]
    view = np.lib.stride_tricks.sliding_window_view(w[::-1, ::-1], (s, s))[::-1, ::-1]
    b, q = np.divmod(np.arange(g.n_modes)[cols], s)
    return view[:, :, b, q].reshape(g.n_modes, -1)


def _blocks(factor):
    """(i, j, block) for each (i, j) a factor maps, one dense block at a time.

    A block is the sum of the factor's (i, j) terms in the order the builder
    lists them.
    """
    for i, j in dict.fromkeys((i, j) for i, j, _, _ in factor):
        block = None
        for ti, tj, field, diag in factor:
            if (ti, tj) == (i, j):
                c = _convolution_matrix(field, slice(None))
                if diag is not None:
                    c *= diag
                if block is None:
                    block = c
                else:
                    block += c
        yield i, j, block


def _band_limited(factor) -> bool:
    """True when every field of the factor is band-limited (the sparse route)."""
    return all(field.band_limited for _, _, field, _ in factor)


def _factor_csr(factor, n: int, nc: int) -> scipy.sparse.csr_matrix:
    """A factor as one CSR matrix on (C^nc tensor n modes).

    Each term is its field's cached convolution matrix with the columns
    scaled by ``diag``, placed in block (i, j).  The terms are summed in the
    order the builder lists them, starting from an empty matrix, so every
    entry is the column route's 0 + t1 + t2 + ... rounded the same way.
    """
    total = scipy.sparse.csr_matrix((nc * n, nc * n), dtype=np.complex128)
    for i, j, field, diag in factor:
        c = field.convolution
        # np.multiply, not ``*``: numpy would reuse a large temporary right
        # operand as the output and swap the operands, and its complex product
        # rounds differently from the column route's coefficient * diag.
        data = c.data if diag is None else np.multiply(c.data, diag[c.indices])
        indptr = np.concatenate([np.zeros(i * n, dtype=c.indptr.dtype), c.indptr,
                                 np.full((nc - 1 - i) * n, c.nnz, dtype=c.indptr.dtype)])
        total = total + scipy.sparse.csr_matrix((data, c.indices + j * n, indptr),
                                                shape=total.shape)
    return total


# ---------------------------------------------------------------------------
# The public operator type
# ---------------------------------------------------------------------------

class TruncatedOperator:
    """A linear map on (C^nc tensor retained modes), held as a product of factors.

    The operator is the product ``factors[0] @ factors[1] @ ...``.  Each factor
    is a tuple of terms ``(i, j, field, diag)``: the map from spinor component
    j to component i that multiplies by the diagonal symbol ``diag`` (None
    means 1) and then by ``field``; a factor is the sum of its terms.

    ``apply`` multiplies by each factor's CSR form (built on first use and
    cached); ``columns`` builds chosen columns of the dense Galerkin matrix
    from convolution blocks, and ``matrix`` is all of them.  Both describe the
    same truncated operator and agree to rounding.  The factors are fixed at
    assembly; ``matrix`` too is built on first use and cached.
    """

    def __init__(self, grid: FourierGrid, n_components: int, factors,
                 meta: dict | None = None):
        self.grid = grid
        self.n_components = n_components
        self.factors = tuple(tuple(factor) for factor in factors)
        self.meta = dict(meta or {})
        self._matrix = None

    @property
    def dim(self) -> int:
        return self.n_components * self.grid.n_modes

    def _check(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape[0] != self.dim or vec.ndim > 2:
            raise GridMismatchError(f"vector shape {vec.shape} does not match dim {self.dim}")
        return vec

    @cached_property
    def _csr(self) -> list:
        """Each factor as one CSR matrix, built on first use."""
        return [_factor_csr(factor, self.grid.n_modes, self.n_components)
                for factor in self.factors]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The product with a vector or a (dim, B) batch, factor by factor right to left."""
        vec = self._check(vec)
        for a in reversed(self._csr):
            vec = a @ vec
        return vec

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        """The adjoint's product, through each factor's conjugate transpose left to right."""
        vec = self._check(vec)
        for a in self._csr:
            vec = a.conj().T @ vec
        return vec

    def columns(self, idx) -> np.ndarray:
        """Columns ``idx`` (strictly ascending) of the dense Galerkin matrix.

        The matrix is built right to left: the last factor contributes only
        the needed columns of its convolution blocks, and every earlier
        factor is one dense product per (i, j) block it has and nonzero
        block of the product so far, so the cost scales with ``len(idx)``.
        """
        n = self.grid.n_modes
        idx = np.asarray(idx)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("column indices must be strictly ascending")
        comp, mode = np.divmod(idx, n)
        bounds = np.searchsorted(comp, np.arange(self.n_components + 1))
        cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        rows = [slice(i * n, (i + 1) * n) for i in range(self.n_components)]
        out = np.zeros((self.dim, idx.size), dtype=np.complex128)
        for i, j, field, diag in self.factors[-1]:
            c = _convolution_matrix(field, mode[cols[j]])
            out[rows[i], cols[j]] += c if diag is None else c * diag[mode[cols[j]]]
        # (row component, column component) blocks of ``out`` that are not zero.
        live = {(i, j) for i, j, _, _ in self.factors[-1]}
        for factor in reversed(self.factors[:-1]):
            reached = {(i, c) for i, j, _, _ in factor for row, c in live if row == j}
            if _band_limited(factor):
                out = _factor_csr(factor, n, self.n_components) @ out
            else:
                nxt = np.zeros_like(out)
                for i, j, block in _blocks(factor):
                    for row, c in live:
                        if row == j:
                            nxt[rows[i], cols[c]] += block @ out[rows[j], cols[c]]
                out = nxt
            live = reached
        return out

    @property
    def band_limited(self) -> bool:
        """One factor whose fields are all band-limited: the sparse route applies."""
        return len(self.factors) == 1 and _band_limited(self.factors[0])

    @property
    def sparse(self) -> scipy.sparse.csr_matrix:
        """The Galerkin matrix of a single-factor operator as CSR (cached)."""
        if len(self.factors) != 1:
            raise ValueError("only a single-factor operator has a sparse form")
        return self._csr[0]

    @property
    def mode_blocks(self) -> np.ndarray | None:
        """The (n_modes, nc, nc) per-mode blocks of a band-limited operator whose
        fields are all constant (each mode then maps only to itself), read from
        ``sparse`` so the entries keep its bits; None for any other operator."""
        if not self.band_limited or any(f.band_radius for _, _, f, _ in self.factors[0]):
            return None
        return self._mode_blocks

    @cached_property
    def _mode_blocks(self) -> np.ndarray:
        a, n, nc = self.sparse.tocoo(), self.grid.n_modes, self.n_components
        blocks = np.zeros((n, nc, nc), dtype=np.complex128)
        blocks[a.row % n, a.row // n, a.col // n] = a.data
        return blocks

    @property
    def matrix(self) -> np.ndarray:
        """Dense Galerkin matrix (cached): ``sparse.toarray()`` for a band-limited
        operator, else :meth:`columns` over every column; the two agree bit for bit."""
        if self._matrix is None:
            self._matrix = (self.sparse.toarray() if self.band_limited
                            else self.columns(np.arange(self.dim)))
        return self._matrix

    def _require_compatible(self, other: "TruncatedOperator"):
        if self.grid != other.grid or self.n_components != other.n_components:
            raise GridMismatchError("operators are structurally incompatible")

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_compatible(other)
        return TruncatedOperator(self.grid, self.n_components, self.factors + other.factors)


def multiplication_operator(field: PeriodicScalarField) -> TruncatedOperator:
    """Truncated multiplication by a scalar field."""
    return TruncatedOperator(field.grid, 1, [[(0, 0, field, None)]])


def lanczos_lambda_max(matvec, dim: int) -> float:
    """Largest eigenvalue of a Hermitian positive semidefinite operator on C^dim.

    ARPACK ``eigs`` runs Lanczos to tol = 0 from a start vector drawn from
    ``DEFAULTS["lanczos_seed"]`` and draws its restart vectors from the same
    generator, so the value is the same on every run.  Raises
    ``scipy.sparse.linalg.ArpackError`` when ARPACK fails, its subclass
    ``ArpackNoConvergence`` when it does not converge.
    """
    rng = np.random.default_rng(DEFAULTS["lanczos_seed"])
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec, dtype=np.complex128)
    # eigsh would pass a complex operator on to eigs without ``rng``, and the
    # value would vary run to run.
    lam = scipy.sparse.linalg.eigs(op, k=1, which="LM", tol=0, v0=v0, rng=rng,
                                   return_eigenvectors=False)
    return float(lam[0].real)


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------

def _dpm_terms(coeffs: CoefficientSet, z, mu: float, sign: str, i: int, j: int) -> list:
    """The two terms of dpm(z) + i mu H, mapping spinor component j to i."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    grid = coeffs.grid
    if not isinstance(z, ComplexQuasimomentum):
        z = ComplexQuasimomentum.real(z)
    s = 1.0 if sign == "+" else -1.0
    d1 = z.z1 + TWO_PI * grid.n1
    d2 = z.z2 + TWO_PI * grid.n2
    first = coeffs.c_plus() if sign == "+" else coeffs.c_minus()
    return [(i, j, first, d1), (i, j, coeffs.h, 1j * (mu + s * d2))]


def assemble_dpm(coeffs: CoefficientSet, z, mu: float, sign: str) -> TruncatedOperator:
    """Galerkin matrix of (G +- iF)(z_1 + 2 pi N_1) +- iH(z_2 + 2 pi N_2) + i mu H.

    ``sign`` selects the upper or lower combination.  mu = 0 recovers the plain
    fiber dpm(z); the multiplier fields act by convolution.
    """
    return TruncatedOperator(coeffs.grid, 1, [_dpm_terms(coeffs, z, mu, sign, 0, 0)])


def assemble_dirac(coeffs: CoefficientSet, V: MatrixPotential | None, z, *,
                   mu: float = 0.0) -> TruncatedOperator:
    """The two-component fiber [[0, d_-(z)], [d_+(z), 0]] + potential blocks.

    The potential adds [[V0+V3, V1-iV2], [V1+iV2, V0-V3]] as convolution
    blocks (one that overflows is inadmissible); ``mu`` adds i mu H off-diagonal.
    """
    grid = coeffs.grid
    terms = _dpm_terms(coeffs, z, mu, "-", 0, 1) + _dpm_terms(coeffs, z, mu, "+", 1, 0)
    if V is not None:
        if V.grid != grid:
            raise GridMismatchError("potential grid does not match")
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = (("V1 - iV2", 0, 1, V.v1.coeffs - 1j * V.v2.coeffs),
                      ("V1 + iV2", 1, 0, V.v1.coeffs + 1j * V.v2.coeffs),
                      ("V0 + V3", 0, 0, V.v0.coeffs + V.v3.coeffs),
                      ("V0 - V3", 1, 1, V.v0.coeffs - V.v3.coeffs))
        # An identically zero component adds no term.
        for name, i, j, coeffs_ij in blocks:
            if not np.all(np.isfinite(coeffs_ij)):
                raise InadmissibleParameterError(f"potential block {name} overflows")
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
    diff = a.columns(idx) - b.columns(idx)
    # ||D||_2^2 is the top eigenvalue of the small Gram matrix D^H D.
    top = np.linalg.eigvalsh(diff.conj().T @ diff)[-1]
    return float(np.sqrt(max(top, 0.0)))
