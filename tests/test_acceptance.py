"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them as they complete).  Random instances are generated from frozen seeds
so the suite is reproducible bit for bit.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import dirac2d as d
from dirac2d.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" :: {detail}" if detail else ""))
    assert passed, f"{criterion} failed: {detail}"


def grid_for(m: int) -> d.FourierGrid:
    return d.FourierGrid(m, 2 * (2 * m + 1))


def gamma_instance(m: int, seed: int, variation=0.3) -> d.CoefficientSet:
    return d.random_gamma_instance(grid_for(m), np.random.default_rng(seed),
                                   p=2.0, q=0.5, f_bound=1.0, degree=2,
                                   variation=variation)


def test_c01_free_fiber_band_oracle():
    """Criterion 1: free bands match +-|k + 2 pi N| to 1e-10 at 64 k-points, < 10 s."""
    t0 = time.perf_counter()
    grid = grid_for(8)
    cs = d.CoefficientSet.constant(grid)
    table = d.band_structure(cs, None, d.brillouin_grid(8, 8))
    worst = 0.0
    for kp, vals in zip(table.kpoints, table.values):
        mags = np.hypot(kp[0] + 2 * np.pi * grid.n1, kp[1] + 2 * np.pi * grid.n2)
        oracle = np.sort(np.concatenate([mags, -mags]))
        worst = max(worst, float(np.max(np.abs(vals - oracle))))
    elapsed = time.perf_counter() - t0
    report("C1 free-fiber band oracle", worst <= 1e-10 and elapsed < 10.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_c02_equivalence_constants():
    """Criterion 2: c1 = c2 = 1 for constants; stability under M -> 2M on 20 instances."""
    k = (np.pi, 0.3)
    c1c, c2c = d.estimate_c1_c2(d.CoefficientSet.constant(grid_for(6)), k, 0.0)
    ok = abs(c1c - 1.0) <= 1e-10 and abs(c2c - 1.0) <= 1e-10
    worst_drift = 0.0
    big = grid_for(12)
    for i in range(20):
        inst6 = gamma_instance(6, 1000 + i)
        inst12 = d.embed_coefficients(inst6, big)
        a1, a2 = d.estimate_c1_c2(inst6, k, 0.0)
        b1, b2 = d.estimate_c1_c2(inst12, k, 0.0)
        ok = ok and 0 < a1 <= a2 and 0 < b1 <= b2
        worst_drift = max(worst_drift, abs(b1 - a1) / a1, abs(b2 - a2) / a2)
    ok = ok and worst_drift < 0.10
    report("C2 equivalence constants (1.3)", ok,
           f"constant case ({c1c:.2e},{c2c:.2e}); worst M-doubling drift {worst_drift:.2%}")


def _conjugation_residual(m: int, inst8, c1_8, c2_8) -> float:
    grid = grid_for(m)
    inst = d.embed_coefficients(inst8, grid) if m != 8 else inst8
    c1 = d.embed_field(c1_8, grid) if m != 8 else c1_8
    c2 = d.embed_field(c2_8, grid) if m != 8 else c2_8
    sol = d.solve_gauge(inst, c1, c2)
    mu = 1.0
    z = d.ComplexQuasimomentum((mu * sol.k[0], mu * sol.k[1]),
                               (mu * sol.kappa[0], mu * sol.kappa[1]))
    lhs = d.gauge_conjugate(d.assemble_dirac(inst, None, z), sol.phi, sol.psi, mu)
    zero = d.PeriodicScalarField.constant(grid, 0.0)
    rhs = d.assemble_dirac(
        inst, d.MatrixPotential(v0=zero, v1=mu * c1, v2=mu * c2, v3=zero), (0.0, 0.0))
    return d.restricted_operator_distance(lhs, rhs)


def test_c03_gauge_identity_convergence():
    """Criterion 3: conjugation residual halves (at least) from M = 8 to M = 16."""
    worst_ratio = 0.0
    ok = True
    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        grid8 = grid_for(8)
        inst8 = d.random_gamma_instance(grid8, rng, degree=2, variation=0.3)
        c1 = d.random_trig_field(grid8, rng, 2, 0.5)
        c2 = d.random_trig_field(grid8, rng, 2, 0.5)
        r8 = _conjugation_residual(8, inst8, c1, c2)
        r16 = _conjugation_residual(16, inst8, c1, c2)
        worst_ratio = max(worst_ratio, r16 / max(r8, 1e-300))
        # the rounding floor only matters if both residuals are at noise level
        ok = ok and r16 <= max(0.5 * r8, 1e-12)
    report("C3 gauge identity (3.1) convergence", ok,
           f"worst residual ratio {worst_ratio:.3f}")


def test_c04_symmetry_laws():
    """Criterion 4: real data => kappa = 0 and real gauge; range data => zero shift."""
    worst_real, worst_range = 0.0, 0.0
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        grid = grid_for(8)
        inst = d.random_gamma_instance(grid, rng, degree=2, variation=0.3)
        c1 = d.random_trig_field(grid, rng, 2, 0.7)
        c2 = d.random_trig_field(grid, rng, 2, 0.7)
        sol = d.solve_gauge(inst, c1, c2)
        imag = max(
            float(np.max(np.abs(sol.phi.coeffs - sol.phi.hermitian_part().coeffs))),
            float(np.max(np.abs(sol.psi.coeffs - sol.psi.hermitian_part().coeffs))),
        )
        worst_real = max(worst_real, abs(sol.kappa[0]), abs(sol.kappa[1]), imag)

        om_p = d.random_trig_field(grid, rng, 2, 1.0, real=False)
        om_m = d.random_trig_field(grid, rng, 2, 1.0, real=False)
        cp = 1j * d.assemble_dpm(inst, (0, 0), 0.0, "+").apply(om_p.coeffs)
        cm = 1j * d.assemble_dpm(inst, (0, 0), 0.0, "-").apply(om_m.coeffs)
        r1 = d.PeriodicScalarField(grid, 0.5 * (cp + cm))
        r2 = d.PeriodicScalarField(grid, (cp - cm) / 2j)
        sol2 = d.solve_gauge(inst, r1, r2)
        worst_range = max(worst_range,
                          sum(map(abs, sol2.k)) + sum(map(abs, sol2.kappa)))
    ok = worst_real < 1e-8 and worst_range < 1e-8
    report("C4 gauge symmetry laws", ok,
           f"real-data defect {worst_real:.2e}; range-data shift {worst_range:.2e}")


def test_c05_canonical_gauge():
    """Criterion 5: constant case exact; bound chain kt1 >= sqrt(c0)/(p+F) > 0."""
    can = d.solve_canonical_gauge(d.CoefficientSet.constant(grid_for(6)))
    ok = (abs(can.kappa_tilde[0] - 1.0) <= 1e-10
          and abs(can.kappa_tilde[1]) <= 1e-10
          and float(np.max(np.abs(can.phi.coeffs))) <= 1e-10
          and float(np.max(np.abs(can.psi.coeffs))) <= 1e-10)
    min_margin = np.inf
    for i in range(20):
        inst = gamma_instance(6, 4000 + i)
        c = d.solve_canonical_gauge(inst)
        ok = ok and c.kappa_tilde[0] >= c.c3_star > 0
        min_margin = min(min_margin, c.kappa_tilde[0] - c.c3_star)
    report("C5 canonical gauge", ok,
           f"constant case exact; min (kt1 - c3*) = {min_margin:.3f}")


def test_c06_pairing_positivity():
    """Criterion 6: c0_lower > 0 on 100 instances; constant case c0 = 1."""
    pair = d.cokernel_vectors(d.CoefficientSet.constant(grid_for(5)))
    ok = abs(pair.c0_lower - 1.0) <= 1e-10
    smallest = np.inf
    for i in range(100):
        inst = gamma_instance(5, 5000 + i)
        c0 = d.cokernel_vectors(inst).c0_lower
        smallest = min(smallest, c0)
        ok = ok and c0 > 0.0
    report("C6 pairing positivity (Lemma 3.1)", ok, f"min c0_lower {smallest:.4f}")


def test_c07_counting_bound():
    """Criterion 7: 1 <= #T(a) < 6 pi a^2, exhaustively, zero violations."""
    grid = grid_for(12)
    violations = 0
    for k2 in (0.0, 0.3, np.pi):
        for mu in (0.0, 4 * np.pi, 12 * np.pi):
            weights = d.ModeWeights(grid, (np.pi, k2), mu)
            for a in (2 * np.pi, 4 * np.pi, 8 * np.pi):
                for sign in ("+", "-"):
                    ts = d.index_set_T(weights, a, sign)
                    if ts.window_overflow or not d.counting_bound_holds(ts):
                        violations += 1
    report("C7 counting bound (4.1)", violations == 0, f"{violations} violations")


def test_c08_cross_term_bound():
    """Criterion 8: |(phi, W psi)| / bound <= 1 over 100 random trials."""
    grid = grid_for(12)
    rng = np.random.default_rng(6000)
    w = d.random_trig_field(grid, rng, 3, 1.0, zero_mean=False)
    weights = d.ModeWeights(grid, (np.pi, 0.0), 16 * np.pi)
    rep = d.cross_term_check(w, weights, 2.5 * np.pi, 4.5 * np.pi,
                             n_trials=100, seed=6001)
    report("C8 cross-term bound (Lemma 4.5)", rep.max_ratio <= 1.0,
           f"max ratio {rep.max_ratio:.4f} over {rep.ratios.size} checks")


def test_c09_wiener_decay():
    """Criterion 9: A(N) = 1/N exactly for the resonant pair; decay for gauge Psi."""
    grid = grid_for(4)
    w = d.PeriodicScalarField.from_modes(grid, {(0, 1): 1.0})
    psi0 = d.PeriodicScalarField.constant(grid, 0.0)
    rep = d.wiener_average(w, psi0, 1024, 0.5)
    exact_err = float(np.max(np.abs(rep.averages - 1.0 / np.arange(1, 1025))))

    grid8 = grid_for(8)
    rng = np.random.default_rng(7000)
    inst = d.random_gamma_instance(grid8, rng, degree=2, variation=0.3)
    can = d.solve_canonical_gauge(inst)
    # the decay statement applies to gauge functions passing the level-set
    # positivity diagnostic
    gradient_ok = d.level_set_diagnostics(can.psi, [0.0],
                                          resolution=128).min_gradient_quantity > 0
    wr = d.random_trig_field(grid8, rng, 2, 1.0, zero_mean=False)
    rep2 = d.wiener_average(wr, can.psi, 1024, 0.5)
    decayed = rep2.average_at(1024) < rep2.average_at(64)
    report("C9 oscillatory-average decay (Lemma 6.1)",
           exact_err <= 1e-12 and decayed and gradient_ok,
           f"resonant |A - 1/N| {exact_err:.1e}; "
           f"A(64) {rep2.average_at(64):.2e} -> A(1024) {rep2.average_at(1024):.2e}")


def test_c10_thomas_sweep():
    """Criterion 10: sigma_min >= pi - 1e-10 free; > 0 with the sigma_3 mass; < 60 s."""
    t0 = time.perf_counter()
    grid = grid_for(8)
    cs = d.CoefficientSet.constant(grid)
    sweep = d.SweepConfig(mu_grid=tuple(np.linspace(0.0, 20 * np.pi, 81)),
                          k2_grid=(0.0,))
    free = d.sigma_min_sweep(cs, None, sweep)
    massive = d.sigma_min_sweep(cs, d.MatrixPotential.diagonal(grid, v3=0.3), sweep)
    elapsed = time.perf_counter() - t0
    ok = (float(np.min(free.min_per_mu)) >= np.pi - 1e-10
          and float(np.min(massive.min_per_mu)) > 0.0
          and not massive.flagged.any()
          and elapsed < 60.0)
    report("C10 Thomas sweep sanity", ok,
           f"free floor {np.min(free.min_per_mu):.6f}, "
           f"massive floor {np.min(massive.min_per_mu):.6f}, {elapsed:.1f}s")


def test_c11_coercivity_margins():
    """Criterion 11: margins nonnegative for 100 trials at mu = 16 pi, a = 4 pi."""
    grid = grid_for(11)
    cs = d.CoefficientSet.constant(grid)
    zero = d.PeriodicScalarField.constant(grid, 0.0)
    rep = d.verify_coercivity(cs, zero, zero, zero, 16 * np.pi, 4 * np.pi,
                              (np.pi, 0.0), trials=100, seed=8000)
    min_margin = float(rep.margins.min())
    report("C11 coercivity margins (5.3)", min_margin >= 0.0,
           f"min margin {min_margin:.4e} over 100 trials")


def test_c12_cli_determinism(tmp_path):
    """Criterion 12: repeated CLI runs with a fixed seed emit identical CSV bytes."""
    cfg = yaml.safe_load((REPO / "configs" / "constant_free.yaml").read_text())
    cfg["grid"] = {"truncation_radius": 4, "sample_resolution": 18}
    cfg["bands"] = {"k_grid": {"n1": 4, "n2": 4}, "n_bands": "all", "mode": "eigen"}
    cfg["sweep"] = {"k2_grid": [0.0],
                    "mu_grid": {"start": 0.0, "stop": 12.0, "count": 5},
                    "direction": [1.0, 0.0]}
    cfg["verify"] = {"trials": 10, "mu": 16 * np.pi, "a": 4 * np.pi, "k2": 0.0}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))

    identical = True
    for sub in ("bands", "sweep", "verify"):
        outs = []
        for run_id in (1, 2):
            out = tmp_path / f"{sub}{run_id}"
            code = cli_main([sub, "--config", str(path), "--out", str(out),
                             "--seed", "99"])
            assert code == 0, f"{sub} exited {code}"
            outs.append(out)
        for name in sorted(p.name for p in outs[0].glob("*.csv")):
            identical = identical and (
                (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes())
    report("C12 CLI determinism", identical, "bands/sweep/verify CSV bytes match")
