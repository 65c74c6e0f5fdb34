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
is realised by composing with truncated multiplication operators.

Every operator carries two independent evaluation routes: a dense Galerkin
matrix assembled from convolution matrices, and a matrix-free FFT application
(transform, multiply, transform back).  The two routes are kept separate so
they can cross-check each other.  The FFT route transforms a batch laid out
batch-first, (B, S, S), with ``scipy.fft``; that module is imported on the
first matrix-free apply rather than at import time, because runs that only
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

    @classmethod
    def from_complex(cls, z1: complex, z2: complex) -> "ComplexQuasimomentum":
        return cls((z1.real, z2.real), (z1.imag, z2.imag))


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
# Scalar kernels: convolution matrices and FFT application
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


class _MultKernel:
    """FFT-based application of a multiplication operator (batched)."""

    def __init__(self, field: PeriodicScalarField):
        g = field.grid
        self.side = g.sample_resolution
        self.flat = (g.n1 % self.side) * self.side + g.n2 % self.side
        self.samples = field.samples()

    def _run(self, vec: np.ndarray, samples: np.ndarray) -> np.ndarray:
        import scipy.fft  # deferred to the first apply (see the module docstring)
        s = self.side
        v = vec.T if vec.ndim == 2 else vec[None, :]
        spec = np.zeros((v.shape[0], s * s), dtype=np.complex128)
        spec[:, self.flat] = v
        phys = scipy.fft.ifft2(spec.reshape(-1, s, s), axes=(1, 2), overwrite_x=True)
        phys *= samples
        out = scipy.fft.fft2(phys, axes=(1, 2), overwrite_x=True).reshape(-1, s * s)[:, self.flat]
        return out.T if vec.ndim == 2 else out[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self._run(vec, self.samples)

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        # Adjoint of multiplication by W is multiplication by conj(W).
        return self._run(vec, np.conj(self.samples))


class _ScalarBlock:
    """Sum of terms  M_field . Diag(symbol)  on one spinor component."""

    def __init__(self, grid: FourierGrid, terms):
        # terms: iterable of (field | None, diag ndarray | None)
        self.grid = grid
        self.terms = []
        for field, diag in terms:
            kernel = None if field is None else _MultKernel(field)
            d = None if diag is None else np.asarray(diag, dtype=np.complex128)
            self.terms.append((field, kernel, d))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for _, kernel, diag in self.terms:
            w = vec if diag is None else (diag[:, None] * vec if vec.ndim == 2 else diag * vec)
            out += w if kernel is None else kernel.apply(w)
        return out

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for _, kernel, diag in self.terms:
            w = vec if kernel is None else kernel.adjoint_apply(vec)
            if diag is not None:
                cd = np.conj(diag)
                w = cd[:, None] * w if w.ndim == 2 else cd * w
            out += w
        return out

    def dense(self) -> np.ndarray:
        n = self.grid.n_modes
        out = np.zeros((n, n), dtype=np.complex128)
        for field, _, diag in self.terms:
            c = np.eye(n, dtype=np.complex128) if field is None else _convolution_matrix(field)
            out += c if diag is None else c * diag[None, :]
        return out


# ---------------------------------------------------------------------------
# The public operator type
# ---------------------------------------------------------------------------

class TruncatedOperator:
    """A linear map on (C^nc tensor retained modes) with dual evaluation routes.

    ``apply`` runs the matrix-free FFT route (cost O(M^2 log M) per vector);
    ``matrix`` assembles the dense Galerkin matrix from convolution matrices.
    Both describe the same truncated operator and agree to rounding.
    Instances are immutable once assembled and safe to share across workers.
    """

    def __init__(self, grid: FourierGrid, n_components: int, apply_fn, adjoint_fn,
                 dense_fn, meta: dict | None = None):
        self.grid = grid
        self.n_components = n_components
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self._dense = dense_fn
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

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free application; accepts a vector or a (dim, B) batch."""
        return self._apply(self._check(vec))

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        return self._adjoint(self._check(vec))

    @property
    def matrix(self) -> np.ndarray:
        """Dense Galerkin matrix (built lazily, cached)."""
        if self._matrix is None:
            self._matrix = self._dense()
        return self._matrix

    # -- algebra -------------------------------------------------------------

    def _require_compatible(self, other: "TruncatedOperator"):
        if self.grid != other.grid or self.n_components != other.n_components:
            raise GridMismatchError("operators are structurally incompatible")

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_compatible(other)
        return TruncatedOperator(
            self.grid, self.n_components,
            lambda v: self._apply(v) + other._apply(v),
            lambda v: self._adjoint(v) + other._adjoint(v),
            lambda: self.matrix + other.matrix,
            meta={"kind": "sum"},
        )

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "TruncatedOperator":
        c = complex(scalar)
        return TruncatedOperator(
            self.grid, self.n_components,
            lambda v: c * self._apply(v),
            lambda v: np.conj(c) * self._adjoint(v),
            lambda: c * self.matrix,
            meta={"kind": "scaled", **self.meta},
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._require_compatible(other)
        return TruncatedOperator(
            self.grid, self.n_components,
            lambda v: self._apply(other._apply(v)),
            lambda v: other._adjoint(self._adjoint(v)),
            lambda: self.matrix @ other.matrix,
            meta={"kind": "composition"},
        )

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


def _scalar_operator(grid: FourierGrid, terms, meta=None) -> TruncatedOperator:
    block = _ScalarBlock(grid, terms)
    return TruncatedOperator(grid, 1, block.apply, block.adjoint_apply, block.dense, meta)


def multiplication_operator(field: PeriodicScalarField) -> TruncatedOperator:
    """Truncated multiplication by a scalar field."""
    return _scalar_operator(field.grid, [(field, None)], meta={"kind": "mult"})


def identity_operator(grid: FourierGrid, n_components: int = 1) -> TruncatedOperator:
    eye = lambda v: v.copy()
    n = n_components * grid.n_modes
    return TruncatedOperator(grid, n_components, eye, eye,
                             lambda: np.eye(n, dtype=np.complex128), meta={"kind": "identity"})


def block_operator(blocks) -> TruncatedOperator:
    """Assemble a 2x2 spinor operator from scalar blocks (None = zero block)."""
    grid = None
    for row in blocks:
        for b in row:
            if b is not None:
                grid = b.grid
    if grid is None:
        raise ValueError("all blocks are empty")
    n = grid.n_modes

    def apply_fn(vec):
        v0, v1 = vec[:n], vec[n:]
        parts = []
        for row in blocks:
            acc = np.zeros_like(v0)
            for b, comp in zip(row, (v0, v1)):
                if b is not None:
                    acc = acc + b.apply(comp)
            parts.append(acc)
        return np.concatenate(parts, axis=0)

    def adjoint_fn(vec):
        v0, v1 = vec[:n], vec[n:]
        parts = []
        for j in range(2):
            acc = np.zeros_like(v0)
            for i, comp in zip(range(2), (v0, v1)):
                b = blocks[i][j]
                if b is not None:
                    acc = acc + b.adjoint_apply(comp)
            parts.append(acc)
        return np.concatenate(parts, axis=0)

    def dense_fn():
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                if blocks[i][j] is not None:
                    out[i * n : (i + 1) * n, j * n : (j + 1) * n] = blocks[i][j].matrix
        return out

    return TruncatedOperator(grid, 2, apply_fn, adjoint_fn, dense_fn, meta={"kind": "block"})


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------

def _as_quasimomentum(z) -> ComplexQuasimomentum:
    if isinstance(z, ComplexQuasimomentum):
        return z
    return ComplexQuasimomentum.real(z)


def assemble_dpm(coeffs: CoefficientSet, z, mu: float, sign: str,
                 grid: FourierGrid | None = None) -> TruncatedOperator:
    """Galerkin matrix of (G +- iF)(z_1 + 2 pi N_1) +- iH(z_2 + 2 pi N_2) + i mu H.

    ``sign`` selects the upper or lower combination.  mu = 0 recovers the plain
    fiber dpm(z); the multiplier fields act by convolution.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    z = _as_quasimomentum(z)
    grid = coeffs.grid if grid is None else grid
    if grid != coeffs.grid:
        raise GridMismatchError("grid does not match coefficient grid")
    s = 1.0 if sign == "+" else -1.0
    d1 = z.z1 + TWO_PI * grid.n1
    d2 = z.z2 + TWO_PI * grid.n2
    first = coeffs.c_plus() if sign == "+" else coeffs.c_minus()
    terms = [
        (first, d1),
        (coeffs.h, 1j * (mu + s * d2)),
    ]
    return _scalar_operator(grid, terms, meta={"kind": "dpm", "sign": sign,
                                               "z": (z.z1, z.z2), "mu": float(mu)})


def assemble_dirac(coeffs: CoefficientSet, V: MatrixPotential | None, z,
                   grid: FourierGrid | None = None, mu: float = 0.0) -> TruncatedOperator:
    """The two-component fiber [[0, d_-(z)], [d_+(z), 0]] + potential blocks.

    The potential adds [[V0+V3, V1-iV2], [V1+iV2, V0-V3]] as convolution
    blocks; ``mu`` adds the i mu H shift to both off-diagonal entries.
    """
    grid = coeffs.grid if grid is None else grid
    blocks = [[None, assemble_dpm(coeffs, z, mu, "-", grid)],
              [assemble_dpm(coeffs, z, mu, "+", grid), None]]
    if V is not None:
        if V.grid != grid:
            raise GridMismatchError("potential grid does not match")
        # An identically zero component adds no block (no matrix, no FFT kernel).
        for i, j, coeffs_ij in ((0, 0, V.v0.coeffs + V.v3.coeffs),
                                (1, 1, V.v0.coeffs - V.v3.coeffs),
                                (0, 1, V.v1.coeffs - 1j * V.v2.coeffs),
                                (1, 0, V.v1.coeffs + 1j * V.v2.coeffs)):
            if np.any(coeffs_ij):
                mult = multiplication_operator(PeriodicScalarField(grid, coeffs_ij))
                blocks[i][j] = mult if blocks[i][j] is None else blocks[i][j] + mult
    op = block_operator(blocks)
    op.meta.update({"kind": "dirac", "z": (_as_quasimomentum(z).z1, _as_quasimomentum(z).z2),
                    "mu": float(mu)})
    return op


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

    rows, cols, tails = [], [], {}
    for name, exponent, bucket in (
        ("row0", mu * ps - 1j * mu * ph, rows),
        ("row1", -mu * ps - 1j * mu * ph, rows),
        ("col0", 1j * mu * ph + mu * ps, cols),
        ("col1", 1j * mu * ph - mu * ps, cols),
    ):
        fld, tail = _exp_field(grid, exponent)
        bucket.append(multiplication_operator(fld))
        tails[name] = tail

    left = block_operator([[rows[0], None], [None, rows[1]]])
    right = block_operator([[cols[0], None], [None, cols[1]]])
    out = left @ (op @ right)
    out.meta.update({"kind": "gauge_conjugated", "mu": mu,
                     "gauge_truncation_residual": tails})
    return out


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
