"""Random band-limited test instances.

Coefficient triples are built as a constant base plus a low-degree real
trigonometric polynomial whose sup-norm is controlled exactly on the sample
grid, so membership in the (p, q, F) box can be guaranteed by construction
with a safety margin.
"""

from __future__ import annotations

import numpy as np

from .fourier import CoefficientSet, FourierGrid, PeriodicScalarField


def random_trig_field(grid: FourierGrid, rng: np.random.Generator, degree: int = 2,
                      amplitude: float = 1.0, zero_mean: bool = True,
                      real: bool = True) -> PeriodicScalarField:
    """Random trigonometric polynomial with |N|_inf <= degree and sup-norm <= amplitude."""
    if degree > grid.truncation_radius:
        raise ValueError(f"degree {degree} exceeds the window radius {grid.truncation_radius}")
    coeffs = np.zeros(grid.n_modes, dtype=np.complex128)
    in_band = (np.abs(grid.n1) <= degree) & (np.abs(grid.n2) <= degree)
    raw = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    coeffs[in_band] = raw[in_band]
    if zero_mean:
        coeffs[grid.mode_index(0, 0)] = 0.0
    fld = PeriodicScalarField(grid, coeffs)
    if real:
        fld = fld.hermitian_part()
    sup = float(np.max(np.abs(fld.samples())))
    if sup > 0:
        fld = fld * (amplitude / sup)
    return fld


def random_gamma_instance(grid: FourierGrid, rng: np.random.Generator, p: float = 2.0,
                          q: float = 0.5, f_bound: float = 1.0, degree: int = 2,
                          variation: float = 0.3) -> CoefficientSet:
    """A random triple {F, G, H} strictly inside the (p, q, F) box.

    G and H oscillate around independent base levels drawn from the middle of
    [q, p]; the oscillation amplitude is ``variation`` times the distance to
    the nearest box wall, so the sampled bounds hold with margin.
    """
    if not 0.0 <= variation < 1.0:
        raise ValueError("variation must lie in [0, 1)")

    def banded(base_low, base_high, bound_low, bound_high):
        base = rng.uniform(base_low, base_high)
        room = min(base - bound_low, bound_high - base)
        osc = random_trig_field(grid, rng, degree, variation * room)
        return osc + base

    third = (p - q) / 3.0
    g = banded(q + third, p - third, q, p)
    h = banded(q + third, p - third, q, p)
    f_base = rng.uniform(-0.3 * f_bound, 0.3 * f_bound)
    f = random_trig_field(grid, rng, degree, variation * (f_bound - abs(f_base))) + f_base
    return CoefficientSet(g=g, h=h, f=f, p=p, q=q, f_bound=f_bound)

