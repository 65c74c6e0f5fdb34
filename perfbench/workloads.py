"""The three benchmark workloads: seeded inputs, operations and output checks.

A workload is built once per process (its set-up: generating the inputs from
the seed and loading them) and then run pass after pass.  A pass is a list of
operations; each operation calls dirac2d through the CLI or the public
library API, checks its outputs and returns a digest of them, so passes of
one run can be compared byte for byte.

Sizes come in two flavours: ``full`` for measurement and ``tiny`` for the
self-test and the warm-up that runs before the first timed pass.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np
import yaml

import inputs

# Accuracy gates (the same numbers the acceptance suite pins).
BAND_ORACLE = 1e-10         # free bands against +-|k + 2 pi N|
RESONANT_ORACLE = 1e-12     # A(N) = 1/N for the resonant pair
SIGMA_MIN_FLAG = 1e-12      # sweep points below this are flagged

SIZES = {
    "full": {
        "fiber_spectra": {"m": 8, "n_k": 16, "n_mu": 21},
        "gauge_identity": {"m": (8, 16)},
        "oscillatory": {"m": 8, "n_max": 256, "resonant_m": 4, "resonant_n_max": 256},
    },
    "tiny": {
        "fiber_spectra": {"m": 3, "n_k": 2, "n_mu": 3},
        "gauge_identity": {"m": (3, 6)},
        "oscillatory": {"m": 3, "n_max": 16, "resonant_m": 3, "resonant_n_max": 16},
    },
}

# Fixed quadrature resolution per moment for the oscillatory workload, as
# multiples of n_max.  A fixed resolution keeps the work independent of the
# seed; instances whose Psi needs more are redrawn at set-up.
_RESOLUTION_PER_MOMENT = (2.0, 9.75)


class CheckFailed(Exception):
    """An operation ran but its output failed a correctness check."""


def _grid_section(m: int) -> dict:
    return {"truncation_radius": m, "sample_resolution": 2 * (2 * m + 1)}


def _free_coefficients() -> dict:
    return {"p": 1.0, "q": 1.0, "f_bound": 0.0,
            "G": {"constant": 1.0}, "H": {"constant": 1.0}, "F": {"constant": 0.0}}


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    return path


def _read_csv(path: Path) -> dict:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Base class: ``operations()`` lists (name, callable(pass_dir) -> digest)."""

    name = ""

    def __init__(self, d, seed: int, workdir: Path, size: str):
        self.d = d
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        # Independent streams per workload, all derived from the one seed.
        tag = sum(self.name.encode())
        self.rng = np.random.default_rng([int(seed), tag])

    def operations(self):
        raise NotImplementedError

    def cli(self, subcommand: str, config: Path, out: Path) -> Path:
        import dirac2d.cli
        rc = dirac2d.cli.main([subcommand, "--config", str(config), "--out", str(out),
                               "--workers", "1"])
        _require(rc == 0, f"dirac2d {subcommand} exited with code {rc}")
        return out


class FiberSpectra(Workload):
    """CLI ``bands`` on the free fiber (oracle) and ``sweep`` on a Gamma instance."""

    name = "fiber_spectra"

    def __init__(self, d, seed, workdir, size):
        super().__init__(d, seed, workdir, size)
        m = self.size["m"]
        two_pi = 2.0 * math.pi
        self.kpoints = self.rng.uniform(0.0, two_pi, size=(self.size["n_k"], 2))
        self.bands_cfg = _write_config(workdir / "bands.yaml", {
            "schema": "dirac2d.config/1", "seed": int(seed), "workers": 1,
            "grid": _grid_section(m),
            "coefficients": _free_coefficients(),
            "bands": {"k_grid": self.kpoints.tolist(), "n_bands": "all", "mode": "eigen"},
        })
        k2 = float(self.rng.uniform(0.0, two_pi))
        self.sweep_cfg = _write_config(workdir / "sweep.yaml", {
            "schema": "dirac2d.config/1", "seed": int(seed), "workers": 1,
            "grid": _grid_section(m),
            "coefficients": inputs.gamma_instance(self.rng),
            "potential": {"V3": {"constant": 0.3}},
            "sweep": {"k1": math.pi, "k2_grid": [k2],
                      "mu_grid": {"start": 0.0, "stop": 20 * math.pi,
                                  "count": self.size["n_mu"]},
                      "direction": [1.0, 0.0]},
        })
        n = np.arange(-m, m + 1)
        self.modes = np.array([(a, b) for a in n for b in n], dtype=float)

    def operations(self):
        return [("bands", self.bands), ("sweep", self.sweep)]

    def bands(self, pass_dir: Path) -> str:
        out = self.cli("bands", self.bands_cfg, pass_dir / "bands")
        table = _read_csv(out / "bands.csv")
        worst = 0.0
        per_fiber = 2 * len(self.modes)
        _require(table["value"].size == per_fiber * len(self.kpoints),
                 f"bands.csv has {table['value'].size} values")
        for i, k in enumerate(self.kpoints):
            mags = np.hypot(k[0] + 2 * np.pi * self.modes[:, 0],
                            k[1] + 2 * np.pi * self.modes[:, 1])
            oracle = np.sort(np.concatenate([mags, -mags]))
            vals = table["value"][i * per_fiber:(i + 1) * per_fiber]
            worst = max(worst, float(np.max(np.abs(vals - oracle))))
        _require(worst <= BAND_ORACLE, f"free bands off the oracle by {worst:.3e}")
        return _digest_dir(out)

    def sweep(self, pass_dir: Path) -> str:
        out = self.cli("sweep", self.sweep_cfg, pass_dir / "sweep")
        sigma = _read_csv(out / "sweep.csv")["sigma_min"]
        _require(sigma.size == self.size["n_mu"], f"sweep.csv has {sigma.size} points")
        _require(bool(np.all(np.isfinite(sigma))), "non-finite sigma_min")
        flagged = int(np.count_nonzero(sigma < SIGMA_MIN_FLAG))
        _require(flagged == 0, f"{flagged} sweep points flagged")
        return _digest_dir(out)


class GaugeIdentity(Workload):
    """Gauge solve and the conjugation identity at M and 2M (library API)."""

    name = "gauge_identity"

    def __init__(self, d, seed, workdir, size):
        super().__init__(d, seed, workdir, size)
        coeffs = inputs.gamma_instance(self.rng)
        c1 = inputs.trig_records(self.rng, 2, 0.5)
        c2 = inputs.trig_records(self.rng, 2, 0.5)
        self.cases = []
        for m in self.size["m"]:
            grid = d.FourierGrid(m, 2 * (2 * m + 1))
            inst = d.CoefficientSet(
                g=d.field_from_records(grid, coeffs["G"]["modes"]),
                h=d.field_from_records(grid, coeffs["H"]["modes"]),
                f=d.field_from_records(grid, coeffs["F"]["modes"]),
                p=coeffs["p"], q=coeffs["q"], f_bound=coeffs["f_bound"])
            self.cases.append((m, grid, inst, d.field_from_records(grid, c1),
                               d.field_from_records(grid, c2)))
        self.residuals = {}

    def operations(self):
        return [(f"identity_m{case[0]}", lambda pass_dir, case=case: self.identity(case))
                for case in self.cases]

    def identity(self, case) -> str:
        d = self.d
        m, grid, inst, c1, c2 = case
        sol = d.solve_gauge(inst, c1, c2)
        mu = 1.0
        z = d.ComplexQuasimomentum((mu * sol.k[0], mu * sol.k[1]),
                                   (mu * sol.kappa[0], mu * sol.kappa[1]))
        lhs = d.gauge_conjugate(d.assemble_dirac(inst, None, z), sol.phi, sol.psi, mu)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        rhs = d.assemble_dirac(
            inst, d.MatrixPotential(v0=zero, v1=mu * c1, v2=mu * c2, v3=zero), (0.0, 0.0))
        r = d.restricted_operator_distance(lhs, rhs)
        _require(math.isfinite(r), f"non-finite conjugation residual at M = {m}")
        self.residuals[m] = r
        m_lo, m_hi = self.size["m"]
        if m == m_hi:
            r_lo = self.residuals[m_lo]
            _require(r <= max(0.5 * r_lo, 1e-12),
                     f"residual {r:.3e} at M = {m_hi} does not halve {r_lo:.3e} at M = {m_lo}")
        h = hashlib.sha256()
        for arr in (sol.phi.coeffs, sol.psi.coeffs, np.array(sol.k + sol.kappa + (r,))):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


class Oscillatory(Workload):
    """CLI ``wiener`` with the canonical Psi, ``profile`` on its W, and the resonant oracle."""

    name = "oscillatory"

    def __init__(self, d, seed, workdir, size):
        super().__init__(d, seed, workdir, size)
        m, n_max = self.size["m"], self.size["n_max"]
        resolution = [int(math.ceil(f * n_max)) for f in _RESOLUTION_PER_MOMENT]
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        # Redraw until the canonical Psi is resolved by the fixed quadrature grid.
        for _ in range(100):
            coeffs = inputs.gamma_instance(self.rng)
            w = inputs.trig_records(self.rng, 2, 1.0, zero_mean=False)
            psi = d.solve_canonical_gauge(d.CoefficientSet(
                g=d.field_from_records(grid, coeffs["G"]["modes"]),
                h=d.field_from_records(grid, coeffs["H"]["modes"]),
                f=d.field_from_records(grid, coeffs["F"]["modes"]),
                p=coeffs["p"], q=coeffs["q"], f_bound=coeffs["f_bound"])).psi
            need = required_resolution(d, psi, n_max)
            if need[0] <= resolution[0] and need[1] <= resolution[1]:
                break
        else:
            raise RuntimeError("no instance fits the fixed quadrature resolution")
        self.wiener_cfg = _write_config(workdir / "wiener.yaml", {
            "schema": "dirac2d.config/1", "seed": int(seed), "workers": 1,
            "grid": _grid_section(m),
            "coefficients": coeffs,
            "wiener": {"n_max": n_max, "theta": 0.5, "w": {"modes": w},
                       "psi": "canonical", "resolution": resolution},
            "profile": {"w": {"modes": w}},
        })
        mr = self.size["resonant_m"]
        self.resonant_cfg = _write_config(workdir / "resonant.yaml", {
            "schema": "dirac2d.config/1", "seed": int(seed), "workers": 1,
            "grid": _grid_section(mr),
            "coefficients": _free_coefficients(),
            "wiener": {"n_max": self.size["resonant_n_max"], "theta": 0.5,
                       "w": {"modes": [[0, 1, 1.0, 0.0]]}, "psi": {"constant": 0.0}},
        })

    def operations(self):
        return [("wiener", self.wiener), ("profile", self.profile),
                ("resonant", self.resonant)]

    def wiener(self, pass_dir: Path) -> str:
        out = self.cli("wiener", self.wiener_cfg, pass_dir / "wiener")
        avg = _read_csv(out / "wiener_avg.csv")["average"]
        n_max = self.size["n_max"]
        _require(avg.size == n_max and bool(np.all(np.isfinite(avg))),
                 "wiener_avg.csv is incomplete or non-finite")
        early = min(64, n_max // 2)
        _require(avg[-1] < avg[early - 1],
                 f"no Cesaro decay: A({n_max}) = {avg[-1]:.3e} >= A({early}) = {avg[early - 1]:.3e}")
        return _digest_dir(out)

    def profile(self, pass_dir: Path) -> str:
        out = self.cli("profile", self.wiener_cfg, pass_dir / "profile")
        wb = _read_csv(out / "profile_wb.csv")["wb_norm"]
        f = _read_csv(out / "profile_f.csv")["f_value"]
        ceps = _read_csv(out / "profile_ceps.csv")["c_eps"]
        for name, arr in (("wb_norm", wb), ("f_value", f), ("c_eps", ceps)):
            _require(arr.size > 0 and bool(np.all(np.isfinite(arr))), f"{name} non-finite")
        _require(bool(np.all(np.diff(wb) <= 0.0)), "||W_b|| is not nonincreasing in b")
        _require(bool(np.all(np.diff(f) >= 0.0)), "f_W is not nondecreasing in N")
        return _digest_dir(out)

    def resonant(self, pass_dir: Path) -> str:
        out = self.cli("wiener", self.resonant_cfg, pass_dir / "resonant")
        avg = _read_csv(out / "wiener_avg.csv")["average"]
        n = np.arange(1, self.size["resonant_n_max"] + 1)
        _require(avg.size == n.size, "resonant wiener_avg.csv is incomplete")
        err = float(np.max(np.abs(avg - 1.0 / n)))
        _require(err <= RESONANT_ORACLE, f"resonant |A(N) - 1/N| = {err:.3e}")
        return _digest_dir(out)


def required_resolution(d, psi, n_max: int) -> tuple[int, int]:
    """Per-axis samples the program requires to resolve the phase at nu = n_max."""
    per = d.DEFAULTS["phase_samples_per_oscillation"]
    fine = 4 * psi.grid.side
    m1 = float(np.max(np.abs(psi.derivative(1).samples((fine, fine)))))
    m2 = float(np.max(np.abs(psi.derivative(2).samples((fine, fine)) - 1.0)))
    floor = max(psi.grid.side, 16)
    return (max(int(math.ceil(per * n_max * m1)), floor),
            max(int(math.ceil(per * n_max * m2)), floor))


WORKLOADS = {cls.name: cls for cls in (FiberSpectra, GaugeIdentity, Oscillatory)}
