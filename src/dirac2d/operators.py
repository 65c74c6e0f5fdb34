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
G +- iF fields to every fiber, and a matrix potential the same block fields),
and a factor's CSR form scales its columns by each term's ``diag`` and sums
the terms in builder order.  ``apply`` and ``adjoint_apply`` multiply through
these forms (a full-support factor's rows hold up to nc * n_modes entries).

The column route builds chosen columns of the dense Galerkin matrix right to
left as (row component, column component) spinor blocks, and only the blocks
some product reaches: the last factor contributes only the needed columns of
its convolution blocks (read from one strided view of the coefficients), and
every earlier factor is one dense product per term, or one sparse product per
spinor block when band-limited (band radius b with 2b < M, so a row holds
(2b+1)^2 <= n_modes / 4 nonzeros).  ``columns`` assembles the blocks into a
dense array, and ``matrix`` is ``columns`` over every column;
``restricted_operator_distance`` reads the blocks of the probed columns
directly.  The dense products and the distance's Gram matrices run through
``scipy.linalg`` BLAS/LAPACK: numpy loads a second OpenBLAS, and the two
thread pools contend when calls alternate with scipy's LU solves and ARPACK.

``TruncatedOperator.route`` is the one place that picks how a fiber is solved:
``per-mode`` (constant fields), ``band LU`` (one factor whose spinor-interleaved
band, :attr:`TruncatedOperator.half_bandwidths`, is narrower than the matrix:
LAPACK's banded LU of :func:`band_storage`) or ``dense LU`` (a product, or a
band as wide as the matrix, as full-support fields and gauge exponentials give).

One seeded Lanczos routine (:func:`lanczos_singular_value`) takes every
iterative singular value the library needs, with its ``svdvals`` fallback:
the fiber sigma_min, the equivalence constants and the gauge solve's s[0] and
s[-2].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .defaults import DEFAULTS, TOLERANCES
from .errors import GaugeOverflowError, GridMismatchError, InadmissibleParameterError
from .fourier import (
    CoefficientSet,
    FourierGrid,
    PeriodicScalarField,
    TWO_PI,
    require_separable,
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
        if not np.all(np.isfinite(self.kappa)):
            raise InadmissibleParameterError(f"kappa = {self.kappa} must be finite")

    @property
    def z1(self) -> complex:
        return self.k[0] + 1j * self.kappa[0]

    @property
    def z2(self) -> complex:
        return self.k[1] + 1j * self.kappa[1]


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
    def diagonal(cls, grid: FourierGrid, v0=0.0, v3=0.0) -> "MatrixPotential":
        """Constant V0*I + V3*sigma_3 potential."""
        z = PeriodicScalarField.constant(grid, 0.0)
        return cls(PeriodicScalarField.constant(grid, v0), z, z,
                   PeriodicScalarField.constant(grid, v3))

    def is_hermitian(self, tol: float = TOLERANCES["field_real_symmetry"]) -> bool:
        """The multiplication potential is Hermitian iff all components are real."""
        return all(c.is_real(tol) for c in (self.v0, self.v1, self.v2, self.v3))

    @cached_property
    def block_terms(self) -> tuple:
        """The fiber terms (i, j, field, None) of [[V0+V3, V1-iV2], [V1+iV2, V0-V3]],
        built once for every fiber; an identically zero block adds no term, and
        one whose sum overflows is inadmissible."""
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = (("V1 - iV2", 0, 1, self.v1.coeffs - 1j * self.v2.coeffs),
                      ("V1 + iV2", 1, 0, self.v1.coeffs + 1j * self.v2.coeffs),
                      ("V0 + V3", 0, 0, self.v0.coeffs + self.v3.coeffs),
                      ("V0 - V3", 1, 1, self.v0.coeffs - self.v3.coeffs))
        terms = []
        for name, i, j, coeffs_ij in blocks:
            if not np.all(np.isfinite(coeffs_ij)):
                raise InadmissibleParameterError(f"potential block {name} overflows")
            if np.any(coeffs_ij):
                terms.append((i, j, PeriodicScalarField(self.grid, coeffs_ij), None))
        return tuple(terms)


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


def _band_limited(factor) -> bool:
    """True when every field of the factor has band radius b with 2b < M.  Only the column
    route asks: a CSR product pays at a lower density than a banded LU does (a CSR middle
    factor of the gauge distance took 221 ms at M = 16, b = 8, a dense one 182 ms)."""
    return all(2 * field.band_radius < field.grid.truncation_radius for _, _, field, _ in factor)


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


def _factor_blocks(factor, n: int):
    """Yield ``(i, j, a)`` for the spinor blocks of a factor, computed one at a time.

    A band-limited factor gives one CSR matrix per block (i, j), its terms
    summed in builder order; otherwise each term gives its dense convolution
    matrix with the columns scaled by ``diag``.
    """
    if _band_limited(factor):
        terms = {}
        for i, j, field, diag in factor:
            terms.setdefault((i, j), []).append((0, 0, field, diag))
        for (i, j), block_terms in terms.items():
            yield i, j, _factor_csr(block_terms, n, 1)
        return
    for i, j, field, diag in factor:
        a = _convolution_matrix(field, slice(None))
        if diag is not None:
            a *= diag
        yield i, j, a
        del a  # so the next block is built without this one alive


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
    from their live spinor blocks, and ``matrix`` is all of them.  Both
    describe the same truncated operator and agree to rounding.  The factors
    are fixed at assembly; ``matrix`` too is built on first use and cached.
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

    @cached_property
    def _csr_adjoint(self) -> list:
        """Each factor's conjugate transpose, built on first use."""
        return [a.conj().T for a in self._csr]

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        """The adjoint's product, through each factor's conjugate transpose left to right."""
        vec = self._check(vec)
        for a in self._csr_adjoint:
            vec = a @ vec
        return vec

    def _column_blocks(self, idx: np.ndarray) -> tuple[list, dict]:
        """The live spinor blocks of columns ``idx`` (strictly ascending).

        Returns ``(cols, blocks)``: ``cols[c]`` is the slice of ``idx`` that
        falls in spinor component c, and ``blocks`` maps each (row component,
        column component) pair that the factors reach to its dense
        (n_modes, len(cols[c])) block; every other block is zero and is never
        built.  The last factor contributes the needed columns of its
        convolution blocks, each block's terms summed from zero in builder
        order; every earlier factor multiplies the live blocks, right to left.
        """
        n = self.grid.n_modes
        if np.any(np.diff(idx) <= 0):
            raise ValueError("column indices must be strictly ascending")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError(f"column indices must lie in [0, {self.dim})")
        comp, mode = np.divmod(idx, n)
        bounds = np.searchsorted(comp, np.arange(self.n_components + 1))
        cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        blocks = {}
        for i, j, field, diag in self.factors[-1]:
            c = _convolution_matrix(field, mode[cols[j]])
            if (i, j) not in blocks:
                blocks[i, j] = np.zeros_like(c)
            blocks[i, j] += c if diag is None else c * diag[mode[cols[j]]]
        for factor in reversed(self.factors[:-1]):
            reached = {}
            for i, j, a in _factor_blocks(factor, n):
                for (row, c), x in blocks.items():
                    if row != j:
                        continue
                    if scipy.sparse.issparse(a):
                        y = a @ x
                    else:
                        # (x^T a^T)^T with a as it is: a dense block is
                        # Fortran-ordered, and f2py would copy its C-ordered a.T.
                        y = scipy.linalg.blas.zgemm(1.0, x.T, a, trans_b=1).T
                    reached[i, c] = reached[i, c] + y if (i, c) in reached else y
                del a  # so the generator builds the next block without this one alive
            blocks = reached
        return cols, blocks

    def columns(self, idx) -> np.ndarray:
        """Columns ``idx`` (strictly ascending) of the dense Galerkin matrix.

        The array is assembled from the live spinor blocks of
        :meth:`_column_blocks`, so the cost scales with ``len(idx)`` and a block
        that no product reaches is neither built nor multiplied.  A product's
        dense products run through ``scipy.linalg.blas.zgemm``, the OpenBLAS
        that the LU solves and ARPACK use: numpy loads its own, and the two thread
        pools contend when a gauge computation alternates between them.
        """
        idx = np.asarray(idx)
        cols, blocks = self._column_blocks(idx)
        n = self.grid.n_modes
        out = np.zeros((self.dim, idx.size), dtype=np.complex128)
        for (i, c), block in blocks.items():
            out[i * n:(i + 1) * n, cols[c]] = block
        return out

    @property
    def route(self) -> str:
        """How a fiber solve treats the operator: ``per-mode`` for one factor of
        constant fields (see :attr:`mode_blocks`), ``band LU`` for one factor whose
        band array, 2 kl + ku + 1 rows of :attr:`half_bandwidths`, is shorter than the
        matrix (:func:`lu_solver` of ``sparse``), else ``dense LU`` (of ``matrix``)."""
        if len(self.factors) != 1:
            return "dense LU"
        if not any(f.band_radius for _, _, f, _ in self.factors[0]):
            return "per-mode"
        kl, ku = self.half_bandwidths
        return "band LU" if 2 * kl + ku + 1 < self.dim else "dense LU"

    @property
    def sparse(self) -> scipy.sparse.csr_matrix:
        """The Galerkin matrix of a single-factor operator as CSR (cached)."""
        if len(self.factors) != 1:
            raise ValueError("only a single-factor operator has a sparse form")
        return self._csr[0]

    @cached_property
    def half_bandwidths(self) -> tuple[int, int]:
        """(kl, ku) of the band :func:`band_storage` fills from ``sparse``, read from the
        supports: term (i, j) at offset d lies nc (d1 (2M + 1) + d2) + i - j below."""
        if len(self.factors) != 1:
            raise ValueError("only a single-factor operator has a band")
        shift = self.grid.mode_numbers @ (self.n_components * self.grid.side, self.n_components)
        below = np.concatenate([shift[f.coeffs != 0] + i - j for i, j, f, _ in self.factors[0]])
        return int(np.max(below, initial=0)), int(np.max(-below, initial=0))

    @cached_property
    def mode_blocks(self) -> np.ndarray:
        """The (n_modes, nc, nc) per-mode blocks of a ``per-mode`` operator (each
        mode maps only to itself), read from ``sparse`` so the entries keep its bits."""
        a, n, nc = self.sparse.tocoo(), self.grid.n_modes, self.n_components
        blocks = np.zeros((n, nc, nc), dtype=np.complex128)
        blocks[a.row % n, a.row // n, a.col // n] = a.data
        return blocks

    @property
    def matrix(self) -> np.ndarray:
        """Dense Galerkin matrix, :meth:`columns` over every column (cached)."""
        if self._matrix is None:
            self._matrix = self.columns(np.arange(self.dim))
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


def band_storage(a, nc: int = 1) -> tuple[np.ndarray, int, int]:
    """LAPACK band storage of P A P^T for a sparse A on (C^nc tensor n modes), and
    its half-bandwidths ``(kl, ku)``, read from the pattern (explicit zeros too).

    P puts index ``c n + mode`` at ``nc mode + c``, so a band-limited fiber is a
    band matrix (band radius b gives kl, ku <= nc b (2M + 2) + nc - 1).  Entry
    (i, j) goes to row kl + ku + i - j, column j of a Fortran-ordered array of
    2 kl + ku + 1 rows (the top kl hold the fill-in), for ``zgbtrf`` in place."""
    a, n = a.tocoo(), a.shape[0] // nc
    row, col = (nc * (i % n) + i // n for i in (a.row, a.col))
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    ab = np.zeros((2 * kl + ku + 1, a.shape[0]), dtype=np.complex128, order="F")
    ab[kl + ku + row - col, col] = a.data
    return ab, kl, ku


def lu_solver(a, nc: int = 1):
    """``solve(b, trans="N")`` for A x = b (A^H x = b with ``trans="H"``) from one LU
    of A; None at an exactly zero pivot (A singular in floating point).  A dense
    A takes ``zgetrf``; a sparse A on (C^nc tensor n modes) ``zgbtrf`` of its
    :func:`band_storage`, whose ``zgbtrs`` solves permute b and x by P."""
    if scipy.sparse.issparse(a):
        ab, kl, ku = band_storage(a, nc)
        lu, piv, info = scipy.linalg.lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
        inward = np.arange(a.shape[0]).reshape(nc, -1).T.ravel()  # P b = b[inward]
        outward = np.argsort(inward)

        def solve(b, trans="N"):
            y = scipy.linalg.lapack.zgbtrs(lu, kl, ku, b[inward], piv, overwrite_b=1,
                                           trans=2 if trans == "H" else 0)[0]
            return y[outward]
        return None if info > 0 else solve
    lu, piv, info = scipy.linalg.lapack.zgetrf(a)

    def solve(b, trans="N"):
        return scipy.linalg.lapack.zgetrs(lu, piv, b, trans=2 if trans == "H" else 0)[0]
    return None if info > 0 else solve


def lanczos_singular_value(matvec, dim: int, dense, index: int) -> float:
    """Singular value s[index] (descending) of an operator A on C^dim.

    ``matvec`` applies A^H A when ``index`` is 0, so s[0] = sqrt(lambda_max);
    for any other index it applies an inverse Gram whose lambda_max is
    s[index]^-2, so s[index] = 1 / sqrt(lambda_max).  ARPACK ``eigs`` runs
    Lanczos to tol = 0 from a start vector drawn from
    ``DEFAULTS["lanczos_seed"]`` and draws its restart vectors from the same
    generator, so the value is the same on every run.  If ARPACK fails (no
    convergence or any other error) the value is ``svdvals(dense())[index]``;
    ``dense`` is called only then.
    """
    rng = np.random.default_rng(DEFAULTS["lanczos_seed"])
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec, dtype=np.complex128)
    try:
        # eigsh would pass a complex operator on to eigs without ``rng``, and
        # the value would vary run to run.
        lam = scipy.sparse.linalg.eigs(op, k=1, which="LM", tol=0, v0=v0, rng=rng,
                                       return_eigenvectors=False)[0].real
    except scipy.sparse.linalg.ArpackError:
        return float(scipy.linalg.svdvals(dense())[index])
    return float(np.sqrt(lam) if index == 0 else 1.0 / np.sqrt(lam))


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------

def _dpm_terms(coeffs: CoefficientSet, z, mu: float, sign: str, i: int, j: int) -> list:
    """The two terms of dpm(z) + i mu H, mapping spinor component j to i."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    grid = coeffs.grid
    if not isinstance(z, ComplexQuasimomentum):
        z = ComplexQuasimomentum(z)
    require_separable(z.k, mu)
    s = 1.0 if sign == "+" else -1.0
    d1 = z.z1 + TWO_PI * grid.n1
    d2 = z.z2 + TWO_PI * grid.n2
    first = coeffs.c_plus if sign == "+" else coeffs.c_minus
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

    The potential adds its :attr:`MatrixPotential.block_terms` (one that
    overflows is inadmissible); ``mu`` adds i mu H off-diagonal.
    """
    grid = coeffs.grid
    terms = _dpm_terms(coeffs, z, mu, "-", 0, 1) + _dpm_terms(coeffs, z, mu, "+", 1, 0)
    if V is not None:
        if V.grid != grid:
            raise GridMismatchError("potential grid does not match")
        terms += V.block_terms
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

    ||D||_2^2 is the top eigenvalue of the Gram matrix D^H D of the probed
    columns D, and it is read from the live spinor blocks of D
    (:meth:`TruncatedOperator._column_blocks`).  Column components that share
    no live row component do not couple in D^H D, so the Gram matrix is block
    diagonal over the groups that do.  For the off-diagonal D = [[0, X],
    [Y, 0]] of a gauge identity that is Y^H Y and X^H X, two half-size
    eigenproblems; a fiber with V0/V3 blocks is one coupled group.  Each Gram
    matrix is one ``zherk`` and one ``scipy.linalg.eigvalsh`` (``zheevd``, as
    in numpy), through the OpenBLAS that the LU solves and ARPACK use, so
    a gauge computation does not alternate between numpy's and scipy's
    thread pools.  A non-finite entry raises ``ValueError`` there.
    """
    a._require_compatible(b)
    grid = a.grid
    if probe_radius is None:
        probe_radius = max(1, int(grid.truncation_radius * DEFAULTS["probe_radius_fraction"]))
    elif probe_radius < 0:
        raise ValueError(f"probe_radius must be >= 0, got {probe_radius}")
    sel = (np.abs(grid.n1) <= probe_radius) & (np.abs(grid.n2) <= probe_radius)
    idx = np.nonzero(np.concatenate([sel] * a.n_components))[0]
    _, blocks_a = a._column_blocks(idx)
    _, diff = b._column_blocks(idx)
    for key, block in diff.items():
        if key not in blocks_a:
            np.negative(block, out=block)
    for key, block in blocks_a.items():
        diff[key] = block - diff[key] if key in diff else block
    groups = []  # (row components, column components) coupled through live blocks
    for r, c in sorted(diff):
        rows, comps = {r}, {c}
        for group in [g for g in groups if r in g[0] or c in g[1]]:
            groups.remove(group)
            rows |= group[0]
            comps |= group[1]
        groups.append((rows, comps))
    width = {c: block.shape[1] for (_, c), block in diff.items()}
    top = 0.0
    for rows, comps in groups:
        if len(rows) == len(comps) == 1:
            d = diff[min(rows), min(comps)]
        else:
            d = np.block([[diff[r, c] if (r, c) in diff
                           else np.zeros((grid.n_modes, width[c]), dtype=np.complex128)
                           for c in sorted(comps)] for r in sorted(rows)])
        # zherk on the Fortran-ordered view d^T gives conj(D^H D), which has the
        # same eigenvalues, in its upper triangle.
        gram = scipy.linalg.blas.zherk(1.0, d.T)
        top = max(top, scipy.linalg.eigvalsh(gram, lower=False, driver="evd",
                                             overwrite_a=True)[-1])
    return float(np.sqrt(top))
