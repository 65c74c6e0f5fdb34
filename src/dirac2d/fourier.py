"""Truncated Fourier representation of Z^2-periodic scalar fields.

A periodic function phi on the unit cell K = [0,1)^2 is stored through its
Fourier coefficients

    phi_N = integral_K phi(x) e^{-2 pi i (N, x)} d^2 x,     N in Z^2,

retained on the square window |N|_inf <= M and ordered lexicographically by
(N_1, N_2).  Sampling uses a uniform S x S grid with S >= 2(2M+1), which makes
the pointwise product of two retained fields alias-free: the product's modes
reach |N|_inf <= 2M < S/2, so transforming the sampled product and re-truncating
returns the exact Galerkin coefficients.

The module also carries the mode-distance weights

    Gpm_N(k; mu) = ((k_1 + 2 pi N_1)^2 + (k_2 + 2 pi N_2 +- mu)^2)^{1/2},
    G_N = min(G-_N, G+_N),

the weighted norms built from them, and the finite index sets
T^pm(a) = {N : Gpm_N <= a} together with their counting bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse

from .defaults import DEFAULTS, SCHEMA_VERSIONS, TOLERANCES
from .errors import GammaValidationError, GridMismatchError, InadmissibleParameterError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FourierGrid:
    """Square truncation window |N|_inf <= M with an S x S sample grid.

    Parameters
    ----------
    truncation_radius : int
        M, the largest retained mode in either direction.
    sample_resolution : int
        S, samples per axis; must satisfy S >= 2(2M+1) so that products of two
        retained fields can be formed without aliasing.
    """

    truncation_radius: int
    sample_resolution: int

    def __post_init__(self):
        m, s = self.truncation_radius, self.sample_resolution
        if m < 1:
            raise ValueError(f"truncation_radius must be a positive integer, got {m}")
        if s < 2 * (2 * m + 1):
            raise ValueError(
                f"sample_resolution {s} too small for alias-free products; "
                f"need S >= 2(2M+1) = {2 * (2 * m + 1)}"
            )

    @property
    def side(self) -> int:
        return 2 * self.truncation_radius + 1

    @property
    def n_modes(self) -> int:
        return self.side * self.side

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """(n_modes, 2) integer array of (N1, N2), lexicographic by (N1, N2)."""
        m = self.truncation_radius
        n1, n2 = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
        out = np.column_stack([n1.ravel(), n2.ravel()])
        out.flags.writeable = False
        return out

    @cached_property
    def n1(self) -> np.ndarray:
        return self.mode_numbers[:, 0]

    @cached_property
    def n2(self) -> np.ndarray:
        return self.mode_numbers[:, 1]

    def mode_index(self, n1: int, n2: int) -> int:
        m = self.truncation_radius
        if abs(n1) > m or abs(n2) > m:
            raise KeyError(f"mode ({n1}, {n2}) outside window |N|_inf <= {m}")
        return (n1 + m) * self.side + (n2 + m)

    def sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x1, x2) of the uniform sample points j/S."""
        x = np.arange(self.sample_resolution) / self.sample_resolution
        return np.meshgrid(x, x, indexing="ij")


def _resolve_resolution(grid: FourierGrid, resolution) -> tuple[int, int]:
    if resolution is None:
        return grid.sample_resolution, grid.sample_resolution
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    s1, s2 = int(resolution[0]), int(resolution[1])
    if min(s1, s2) < grid.side:
        raise ValueError(f"resolution {resolution} cannot represent modes up to {grid.truncation_radius}")
    return s1, s2


@dataclass(frozen=True)
class PeriodicScalarField:
    """A Z^2-periodic scalar field held as truncated Fourier coefficients."""

    grid: FourierGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_modes,):
            raise GridMismatchError(
                f"coefficient vector has shape {c.shape}, expected ({self.grid.n_modes},)"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, grid: FourierGrid, value: complex) -> "PeriodicScalarField":
        return cls.from_modes(grid, {(0, 0): value})

    @classmethod
    def from_modes(cls, grid: FourierGrid, modes: dict) -> "PeriodicScalarField":
        c = np.zeros(grid.n_modes, dtype=np.complex128)
        for (n1, n2), val in modes.items():
            c[grid.mode_index(n1, n2)] = val
        return cls(grid, c)

    # -- basic queries -----------------------------------------------------

    @property
    def mean(self) -> complex:
        return complex(self.coeffs[self.grid.mode_index(0, 0)])

    def l2_norm(self) -> float:
        """L^2(K) norm; by Parseval this is the l^2 norm of the coefficients."""
        return float(np.linalg.norm(self.coeffs))

    def is_real(self, tol: float = TOLERANCES["field_real_symmetry"]) -> bool:
        """True when the coefficients satisfy phi_{-N} = conj(phi_N) within tol."""
        return bool(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))) <= tol)

    def hermitian_part(self) -> "PeriodicScalarField":
        """Real part of the field as a function, (phi + conj(phi)) / 2."""
        return PeriodicScalarField(self.grid, 0.5 * (self.coeffs + np.conj(self.coeffs[::-1])))

    @cached_property
    def band_radius(self) -> int:
        """The largest |N|_inf of a nonzero coefficient (0 for a constant field)."""
        support = self.grid.mode_numbers[self.coeffs != 0]
        return int(np.max(np.abs(support), initial=0))

    @cached_property
    def convolution(self) -> scipy.sparse.csr_matrix:
        """Galerkin matrix of multiplication by the field, C[N, N'] = W_{N-N'}, as CSR.

        Built once from the nonzero coefficients: row N holds W_d at column
        N - d for every nonzero W_d with N - d in the window, in ascending
        column order.  Callers must not modify it.
        """
        g = self.grid
        m, s = g.truncation_radius, g.side
        # Descending offsets d give ascending columns N - d within a row.
        nz = np.flatnonzero(self.coeffs)[::-1]
        c1 = g.n1[:, None] - g.n1[nz]
        c2 = g.n2[:, None] - g.n2[nz]
        keep = (np.abs(c1) <= m) & (np.abs(c2) <= m)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
        data = np.broadcast_to(self.coeffs[nz], keep.shape)[keep]
        return scipy.sparse.csr_matrix((data, ((c1 + m) * s + c2 + m)[keep], indptr),
                                       shape=(g.n_modes, g.n_modes))

    def derivative(self, axis: int) -> "PeriodicScalarField":
        """Spectral partial derivative along axis 1 or 2 (symbol 2 pi i N_j)."""
        n = self.grid.n1 if axis == 1 else self.grid.n2
        return PeriodicScalarField(self.grid, self.coeffs * (2j * np.pi * n))

    # -- evaluation ---------------------------------------------------------

    def samples(self, resolution=None) -> np.ndarray:
        """Evaluate on a uniform grid; exact for the retained band.

        resolution may be an int (square grid) or a pair (S1, S2); defaults to
        the grid's sample resolution.  This is the one strip of
        :meth:`sample_strips` that spans all S2 columns.
        """
        (spec,) = self.sample_strips(resolution)
        return spec

    def sample_strips(self, resolution=None, width=None):
        """Yield the samples of :meth:`samples` in strips of ``width`` columns.

        Each strip is a new (S1, width) array, the last one narrower when
        ``width`` does not divide S2; None means one strip of all S2 columns.
        The transform runs axis by axis as ifft2 does, so every strip holds
        the same bits as the matching columns of the full grid.  The axis-1
        pass runs once, over the 2M + 1 rows n1 = -M..M that hold
        coefficients; each strip then scatters its columns of those rows and
        runs the axis-0 pass, so no array of the grid's size is held.
        """
        s1, s2 = _resolve_resolution(self.grid, resolution)
        g = self.grid
        rows = np.zeros((g.side, s2), dtype=np.complex128)
        rows[g.n1 + g.truncation_radius, g.n2 % s2] = self.coeffs
        np.fft.ifft(rows, axis=1, out=rows)
        at = np.arange(-g.truncation_radius, g.truncation_radius + 1) % s1
        width = s2 if width is None else width
        for start in range(0, s2, width):
            cols = slice(start, min(start + width, s2))
            strip = np.zeros((s1, cols.stop - start), dtype=np.complex128)
            strip[at] = rows[:, cols]
            np.fft.ifft(strip, axis=0, out=strip)
            strip *= s1 * s2
            yield strip

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate sum_N phi_N e^{2 pi i (N, x)} at arbitrary points (n, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        phase = pts @ self.grid.mode_numbers.T.astype(float)
        return np.exp(2j * np.pi * phase) @ self.coeffs

    # -- arithmetic (linear operations only; products go through convolve) --

    def __add__(self, other):
        if not isinstance(other, PeriodicScalarField):
            other = PeriodicScalarField.constant(self.grid, other)
        _require_same_grid(self.grid, other.grid)
        return PeriodicScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return PeriodicScalarField(self.grid, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicScalarField(self.grid, -self.coeffs)


def _require_same_grid(a: FourierGrid, b: FourierGrid):
    if a != b:
        raise GridMismatchError(f"grids differ: {a} vs {b}")


# ---------------------------------------------------------------------------
# Transforms and products
# ---------------------------------------------------------------------------

def sample_to_fourier(samples: np.ndarray, grid: FourierGrid) -> PeriodicScalarField:
    """Fourier coefficients of an S x S sample table.

    The samples must be taken at x = (i/S, j/S).  The returned field keeps the
    modes |N|_inf <= M.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    s = grid.sample_resolution
    if samples.shape != (s, s):
        raise GridMismatchError(f"sample table has shape {samples.shape}, expected {(s, s)}")
    spec = np.fft.fft2(samples) / (s * s)
    return PeriodicScalarField(grid, spec[grid.n1 % s, grid.n2 % s].copy())


def convolve(a: PeriodicScalarField, b: PeriodicScalarField) -> PeriodicScalarField:
    """Coefficients of the pointwise product a*b, truncated back to the window.

    Both factors are evaluated on the oversampled grid (S >= 2(2M+1)), which
    keeps the product alias-free before re-truncation, so the retained
    coefficients are exact.
    """
    _require_same_grid(a.grid, b.grid)
    return sample_to_fourier(a.samples() * b.samples(), a.grid)


def embed_field(phi: PeriodicScalarField, grid: FourierGrid) -> PeriodicScalarField:
    """The same function represented on a window at least as large."""
    src = phi.grid
    if grid.truncation_radius < src.truncation_radius:
        raise GridMismatchError("target window is smaller than the source window")
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    m = grid.truncation_radius
    idx = (src.n1 + m) * grid.side + (src.n2 + m)
    c[idx] = phi.coeffs
    return PeriodicScalarField(grid, c)


def embed_coefficients(coeffs: "CoefficientSet", grid: FourierGrid) -> "CoefficientSet":
    """Re-embed a coefficient triple on a larger window (same bounds)."""
    return CoefficientSet(
        g=embed_field(coeffs.g, grid),
        h=embed_field(coeffs.h, grid),
        f=embed_field(coeffs.f, grid),
        p=coeffs.p, q=coeffs.q, f_bound=coeffs.f_bound,
        strict=coeffs.strict,
    )


def project(phi: np.ndarray, mode_set) -> np.ndarray:
    """Zero all coefficients outside the given mode set.

    ``mode_set`` may be a boolean mask over the grid modes, an
    :class:`IndexSet`, or anything array-like convertible to a mask.
    """
    phi = np.asarray(phi)
    mask = mode_set.mask if isinstance(mode_set, IndexSet) else np.asarray(mode_set, dtype=bool)
    if mask.shape != phi.shape[:1]:
        raise GridMismatchError(f"mask shape {mask.shape} does not match vector {phi.shape}")
    out = np.zeros_like(phi)
    out[mask] = phi[mask]
    return out


# ---------------------------------------------------------------------------
# Mode weights and index sets
# ---------------------------------------------------------------------------

def require_separable(k, mu: float) -> None:
    """Refuse |k| or |mu| of 2^53 or more, where k + 2 pi N no longer separates
    modes, and NaN in any slot (every comparison with NaN is false)."""
    if not all(abs(v) < 2.0**53 for v in (k[0], k[1], mu)):
        raise InadmissibleParameterError(
            f"k = {tuple(k)}, mu = {mu}: |k| and |mu| must stay below 2^53, "
            "where k + 2 pi N no longer separates modes")


@dataclass(frozen=True)
class ModeWeights:
    """Per-mode distances Gpm_N(k; mu) and their minimum over the grid window."""

    grid: FourierGrid
    k: tuple[float, float]
    mu: float
    g_plus: np.ndarray = field(init=False, repr=False)
    g_minus: np.ndarray = field(init=False, repr=False)
    g_min: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k1, k2, mu = float(self.k[0]), float(self.k[1]), float(self.mu)
        require_separable((k1, k2), mu)
        object.__setattr__(self, "k", (k1, k2))
        object.__setattr__(self, "mu", mu)
        u = k1 + TWO_PI * self.grid.n1
        vp = k2 + TWO_PI * self.grid.n2 + mu
        vm = k2 + TWO_PI * self.grid.n2 - mu
        gp = np.hypot(u, vp)
        gm = np.hypot(u, vm)
        for name, arr in (("g_plus", gp), ("g_minus", gm), ("g_min", np.minimum(gp, gm))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def weighted_norm(phi: np.ndarray, weights: ModeWeights, variant: str = "star") -> float:
    """Weighted l^2 norm (sum_N Gpm_N^2 |phi_N|^2)^{1/2} over retained modes."""
    phi = np.asarray(phi)
    w = {"star": weights.g_min, "star_plus": weights.g_plus,
         "star_minus": weights.g_minus}.get(variant)
    if w is None:
        raise ValueError(f"unknown weight variant {variant!r}")
    if phi.shape != w.shape:
        raise GridMismatchError(f"vector shape {phi.shape} does not match weights {w.shape}")
    return float(np.linalg.norm(w * phi))


@dataclass(frozen=True)
class IndexSet:
    """A set T^pm(a) = {N : Gpm_N(k; mu) <= a} intersected with the window.

    ``mask`` selects the in-window members; ``analytic_count`` counts the full
    set over Z^2 (by enumerating its bounding box), and ``window_overflow``
    flags that part of the analytic set lies outside the truncation window, in
    which case counting statements about T^pm(a) must not use ``mask`` alone.
    """

    grid: FourierGrid
    sign: str
    a: float
    mask: np.ndarray
    analytic_count: int
    window_overflow: bool

    @property
    def in_window_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def modes(self) -> list[tuple[int, int]]:
        return [tuple(int(v) for v in nm) for nm in self.grid.mode_numbers[self.mask]]


def index_set_T(weights: ModeWeights, a: float, sign: str) -> IndexSet:
    """The finite set T^pm(a) for a >= 2 pi, with window-overflow detection."""
    if a < DEFAULTS["a_min"]:
        raise ValueError(f"radius a = {a} must be >= 2 pi")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    k1, k2 = weights.k
    shift = weights.mu if sign == "+" else -weights.mu

    # Enumerate the analytic set over its bounding box in Z^2, independent of
    # the window, so counts stay honest even when the window clips the set.
    box = np.array([-k1 - a, -k1 + a, -k2 - shift - a, -k2 - shift + a]) / TWO_PI
    if not np.all(np.abs(box) < 2.0**53):
        raise ValueError(f"T^{sign}({a}) at k = {weights.k}, shift {shift}: the mode box "
                         "reaches 2^53, where k + 2 pi N no longer separates modes")
    lo1, lo2 = int(np.ceil(box[0])), int(np.ceil(box[2]))
    hi1, hi2 = int(np.floor(box[1])), int(np.floor(box[3]))
    b1 = np.arange(lo1, hi1 + 1)
    b2 = np.arange(lo2, hi2 + 1)
    bb1, bb2 = np.meshgrid(b1, b2, indexing="ij")
    inside = np.hypot(k1 + TWO_PI * bb1, k2 + shift + TWO_PI * bb2) <= a
    analytic_count = int(np.count_nonzero(inside))

    m = weights.grid.truncation_radius
    in_window = (np.abs(bb1) <= m) & (np.abs(bb2) <= m)
    overflow = bool(np.count_nonzero(inside & ~in_window) > 0)

    g = weights.g_plus if sign == "+" else weights.g_minus
    mask = g <= a
    mask.flags.writeable = False
    return IndexSet(weights.grid, sign, float(a), mask, analytic_count, overflow)


def counting_bound_holds(ts: IndexSet) -> bool:
    """The two-sided counting bound 1 <= #T^pm(a) < 6 pi a^2."""
    return 1 <= ts.analytic_count < 6.0 * np.pi * ts.a**2


# ---------------------------------------------------------------------------
# Coefficient triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """The triple {F, G, H} with box bounds q <= G,H <= p and |F| <= F_bound.

    The pointwise conditions are certified on the sample grid only; that is the
    testable surrogate for the almost-everywhere conditions of the continuous
    problem, which a finite coefficient vector cannot decide.
    """

    g: PeriodicScalarField
    h: PeriodicScalarField
    f: PeriodicScalarField
    p: float
    q: float
    f_bound: float
    strict: bool = True

    def __post_init__(self):
        _require_same_grid(self.g.grid, self.h.grid)
        _require_same_grid(self.g.grid, self.f.grid)
        if not (0.0 < self.q <= self.p):
            raise GammaValidationError(f"need 0 < q <= p, got q={self.q}, p={self.p}")
        if self.f_bound < 0.0:
            raise GammaValidationError(f"F_bound must be >= 0, got {self.f_bound}")
        for name, fld in (("G", self.g), ("H", self.h), ("F", self.f)):
            if not fld.is_real():
                raise GammaValidationError(f"{name} is not real-valued to tolerance")
        if self.strict:
            count, worst = self._gamma_scan()
            if count:
                raise GammaValidationError(
                    f"{count} sample-grid bound violations; worst: {worst[0]}"
                )

    @property
    def grid(self) -> FourierGrid:
        return self.g.grid

    @classmethod
    def constant(cls, grid: FourierGrid, g: float = 1.0, h: float = 1.0, f: float = 0.0,
                 p: float | None = None, q: float | None = None,
                 f_bound: float | None = None) -> "CoefficientSet":
        p = max(g, h) if p is None else p
        q = min(g, h) if q is None else q
        f_bound = abs(f) if f_bound is None else f_bound
        return cls(
            PeriodicScalarField.constant(grid, g),
            PeriodicScalarField.constant(grid, h),
            PeriodicScalarField.constant(grid, f),
            p=p, q=q, f_bound=f_bound,
        )

    def gamma_violations(self) -> list[dict]:
        """The 10 worst sampled bound violations, worst first, with sample coordinates."""
        return self._gamma_scan()[1]

    def _gamma_scan(self) -> tuple[int, list[dict]]:
        """The number of sampled bound violations and the 10 worst (ties: G, H, F, row-major)."""
        s = self.grid.sample_resolution
        x = np.arange(s) / s
        vals = np.stack([self.g.samples().real, self.h.samples().real,
                         np.abs(self.f.samples().real)])
        low = np.array([self.q, self.q, -np.inf])[:, None, None]
        high = np.array([self.p, self.p, self.f_bound])[:, None, None]
        excess = np.maximum(low - vals, vals - high).ravel()
        bad = np.flatnonzero(excess > 1e-9)
        worst = bad[np.argsort(-excess[bad], kind="stable")[:10]]
        return bad.size, [{"field": "GHF"[b], "x": (float(x[i]), float(x[j])),
                           "value": float(vals[b, i, j]), "excess": float(excess[flat])}
                          for flat, b, i, j in zip(worst, *np.unravel_index(worst, vals.shape))]

    @cached_property
    def c_plus(self) -> PeriodicScalarField:
        """The field G + iF, the same object on every access (so its
        convolution matrix is built once)."""
        return PeriodicScalarField(self.grid, self.g.coeffs + 1j * self.f.coeffs)

    @cached_property
    def c_minus(self) -> PeriodicScalarField:
        """The field G - iF, the same object on every access."""
        return PeriodicScalarField(self.grid, self.g.coeffs - 1j * self.f.coeffs)


# ---------------------------------------------------------------------------
# Versioned field I/O
# ---------------------------------------------------------------------------

def field_to_records(phi: PeriodicScalarField, drop_zeros: bool = False) -> list[list]:
    """(N1, N2, re, im) coefficient records in lexicographic mode order."""
    recs = []
    for (n1, n2), c in zip(phi.grid.mode_numbers, phi.coeffs):
        if drop_zeros and c == 0:
            continue
        recs.append([int(n1), int(n2), float(c.real), float(c.imag)])
    return recs


def field_from_records(grid: FourierGrid, records) -> PeriodicScalarField:
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    for n1, n2, re, im in records:
        c[grid.mode_index(int(n1), int(n2))] = complex(float(re), float(im))
    return PeriodicScalarField(grid, c)


def field_to_json(phi: PeriodicScalarField) -> dict:
    return {
        "schema": SCHEMA_VERSIONS["field"],
        "kind": "coefficients",
        "truncation_radius": phi.grid.truncation_radius,
        "entries": field_to_records(phi, drop_zeros=True),
    }


def field_from_json(payload: dict, grid: FourierGrid) -> PeriodicScalarField:
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA_VERSIONS["field"]:
        raise ValueError(f"unsupported field schema {schema!r}")
    kind = payload.get("kind")
    required = {"coefficients": "entries", "samples": "real"}.get(kind)
    if required is not None and required not in payload:
        raise ValueError(f"field of kind {kind!r} has no {required!r} key")
    if kind == "coefficients":
        return field_from_records(grid, payload["entries"])
    if kind == "samples":
        data = np.asarray(payload["real"], dtype=float)
        if "imag" in payload:
            data = data + 1j * np.asarray(payload["imag"], dtype=float)
        return sample_to_fourier(data, grid)
    raise ValueError(f"unsupported field kind {kind!r}")


def load_field(path, grid: FourierGrid) -> PeriodicScalarField:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return field_from_json(payload, grid)
