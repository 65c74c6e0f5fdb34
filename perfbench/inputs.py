"""Seeded input generation for the benchmark workloads.

Every random input is a band-limited real trigonometric polynomial given as
``[[n1, n2, re, im], ...]`` mode records, the format the dirac2d configs and
``field_from_records`` accept.  The generator is self-contained (numpy only),
so the inputs for a seed stay the same when the program's own instance
helpers change.
"""

from __future__ import annotations

import numpy as np

# Evaluation grid for sup-norm control; finer than any sample grid the
# program checks coefficient bounds on.
_SUP_GRID = 64


def trig_records(rng: np.random.Generator, degree: int, amplitude: float,
                 zero_mean: bool = True) -> list[list[float]]:
    """Real trigonometric polynomial with |N|_inf <= degree and sup-norm ``amplitude``."""
    modes = [(n1, n2) for n1 in range(-degree, degree + 1)
             for n2 in range(-degree, degree + 1)]
    raw = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    coeffs = dict(zip(modes, raw))
    # Hermitian symmetry c_{-N} = conj(c_N) makes the function real.
    sym = {n: 0.5 * (c + np.conj(coeffs[(-n[0], -n[1])])) for n, c in coeffs.items()}
    if zero_mean:
        sym[(0, 0)] = 0.0
    sup = float(np.max(np.abs(evaluate(sym, _SUP_GRID))))
    scale = amplitude / sup if sup > 0 else 0.0
    return [[n1, n2, float(c.real) * scale, float(c.imag) * scale]
            for (n1, n2), c in sorted(sym.items()) if c != 0.0]


def evaluate(coeffs: dict, resolution: int) -> np.ndarray:
    """Samples of sum_N c_N e^{2 pi i N.x} on a resolution x resolution grid."""
    t = np.arange(resolution) / resolution
    out = np.zeros((resolution, resolution), dtype=np.complex128)
    for (n1, n2), c in coeffs.items():
        out += c * np.exp(2j * np.pi * (n1 * t[:, None] + n2 * t[None, :]))
    return out


def shifted(records: list[list[float]], constant: float) -> list[list[float]]:
    """Add a constant to a record list (adjusting or adding the (0, 0) mode)."""
    out = [list(r) for r in records if (r[0], r[1]) != (0, 0)]
    base = sum(r[2] for r in records if (r[0], r[1]) == (0, 0))
    return [[0, 0, float(base + constant), 0.0]] + out


def gamma_instance(rng: np.random.Generator, p: float = 2.0, q: float = 0.5,
                   f_bound: float = 1.0, degree: int = 2,
                   variation: float = 0.3) -> dict:
    """Coefficient section {p, q, f_bound, G, H, F} strictly inside the (p, q, F) box.

    G and H oscillate around base levels drawn from the middle third of
    [q, p]; each oscillation is ``variation`` times the distance to the
    nearest wall, so the bounds hold with margin on any sample grid.
    """
    def banded():
        third = (p - q) / 3.0
        base = float(rng.uniform(q + third, p - third))
        room = min(base - q, p - base)
        return shifted(trig_records(rng, degree, variation * room), base)

    g = banded()
    h = banded()
    f_base = float(rng.uniform(-0.3 * f_bound, 0.3 * f_bound))
    f = shifted(trig_records(rng, degree, variation * (f_bound - abs(f_base))), f_base)
    return {"p": p, "q": q, "f_bound": f_bound,
            "G": {"modes": g}, "H": {"modes": h}, "F": {"modes": f}}
