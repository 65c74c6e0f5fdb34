"""Cokernel vectors, gauge solvers, the plane map, and level-set diagnostics."""

import numpy as np
import pytest

import dirac2d as d


def constant_set(m=5):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    return grid, d.CoefficientSet.constant(grid)


def random_set(m=5, seed=0, **kw):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    rng = np.random.default_rng(seed)
    return grid, d.random_gamma_instance(grid, rng, **kw), rng


class TestCokernel:
    def test_constant_case(self):
        grid, cs = constant_set()
        pair = d.cokernel_vectors(cs)
        assert abs(pair.chi_plus[grid.mode_index(0, 0)] - 1.0) < 1e-12
        assert pair.mu1_plus == pytest.approx(1.0)
        assert pair.mu2_plus == pytest.approx(1j)
        assert pair.c0_lower == pytest.approx(1.0, abs=1e-12)
        assert pair.sigma_min < 1e-12

    def test_structural_invariants(self):
        _, cs, _ = random_set(seed=1)
        pair = d.cokernel_vectors(cs)
        assert np.linalg.norm(pair.chi_plus) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(pair.chi_minus) == pytest.approx(1.0, abs=1e-10)
        # chi_- is the conjugate function of chi_+.
        assert np.max(np.abs(pair.chi_minus - np.conj(pair.chi_plus[::-1]))) < 1e-14
        assert pair.mu1_minus == pytest.approx(np.conj(pair.mu1_plus), abs=1e-12)
        assert pair.mu2_minus == pytest.approx(np.conj(pair.mu2_plus), abs=1e-12)
        assert abs(pair.mu1_plus) <= cs.p + cs.f_bound + 1e-9
        assert abs(pair.mu2_plus) <= cs.p + 1e-9

    def test_c0_positive_on_random_instances(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = d.random_gamma_instance(grid, rng)
            assert d.cokernel_vectors(inst).c0_lower > 0.0

    def test_phase_covariance_of_shift(self):
        # A common phase rotation of chi_+ leaves k + i kappa unchanged.
        grid, cs, rng = random_set(seed=3)
        pair = d.cokernel_vectors(cs)
        c1 = d.random_trig_field(grid, rng, 2, 0.5, real=False)
        c2 = d.random_trig_field(grid, rng, 2, 0.5, real=False)
        cp = d.PeriodicScalarField(grid, c1.coeffs + 1j * c2.coeffs)
        cm = d.PeriodicScalarField(grid, c1.coeffs - 1j * c2.coeffs)

        def shift(p):
            return d.quasimomentum_from_pairings(
                p,
                complex(np.vdot(p.chi_plus, cp.coeffs)),
                complex(np.vdot(p.chi_minus, cm.coeffs)),
            )

        w_ref = shift(pair)
        # chi_+ -> e^{i t} chi_+ forces chi_- -> e^{-i t} chi_-, and every
        # pairing against chi_pm picks up the opposite phase.
        phase = np.exp(1j * 0.813)
        rotated = d.CokernelPair(
            grid=pair.grid,
            chi_plus=pair.chi_plus * phase,
            chi_minus=pair.chi_minus * np.conj(phase),
            mu1_plus=pair.mu1_plus * np.conj(phase),
            mu1_minus=pair.mu1_minus * phase,
            mu2_plus=pair.mu2_plus * np.conj(phase),
            mu2_minus=pair.mu2_minus * phase,
            sigma_min=pair.sigma_min, sigma_gap=pair.sigma_gap,
        )
        w_rot = shift(rotated)
        assert w_rot[0] == pytest.approx(w_ref[0], abs=1e-12)
        assert w_rot[1] == pytest.approx(w_ref[1], abs=1e-12)


class TestSolveGauge:
    def test_zero_data(self):
        grid, cs, _ = random_set(seed=4)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        sol = d.solve_gauge(cs, zero, zero)
        assert max(map(abs, sol.k)) < 1e-14
        assert max(map(abs, sol.kappa)) < 1e-14
        assert np.max(np.abs(sol.phi.coeffs)) < 1e-12
        assert np.max(np.abs(sol.psi.coeffs)) < 1e-12

    def test_real_data_symmetry(self):
        grid, cs, rng = random_set(seed=5)
        for _ in range(5):
            c1 = d.random_trig_field(grid, rng, 2, 0.7)
            c2 = d.random_trig_field(grid, rng, 2, 0.7)
            sol = d.solve_gauge(cs, c1, c2)
            assert max(map(abs, sol.kappa)) < 1e-8
            assert sol.phi.is_real(1e-8) and sol.psi.is_real(1e-8)
            assert sol.realness_flag

    def test_range_data_zero_shift(self):
        grid, cs, rng = random_set(seed=6)
        for _ in range(5):
            om_p = d.random_trig_field(grid, rng, 2, 1.0, real=False)
            om_m = d.random_trig_field(grid, rng, 2, 1.0, real=False)
            cp = 1j * d.assemble_dpm(cs, (0, 0), 0.0, "+").apply(om_p.coeffs)
            cm = 1j * d.assemble_dpm(cs, (0, 0), 0.0, "-").apply(om_m.coeffs)
            c1 = d.PeriodicScalarField(grid, 0.5 * (cp + cm))
            c2 = d.PeriodicScalarField(grid, (cp - cm) / 2j)
            sol = d.solve_gauge(cs, c1, c2)
            assert sum(map(abs, sol.k)) + sum(map(abs, sol.kappa)) < 1e-8
            # The recovered gauge functions reproduce the generators.
            phi_p = sol.phi.coeffs - 1j * sol.psi.coeffs
            assert np.linalg.norm(phi_p - om_p.coeffs) < 1e-8

    def test_zero_mean_output(self):
        grid, cs, rng = random_set(seed=7)
        c1 = d.random_trig_field(grid, rng, 2, 0.5, zero_mean=False)
        c2 = d.random_trig_field(grid, rng, 2, 0.5, zero_mean=False)
        sol = d.solve_gauge(cs, c1, c2)
        assert abs(sol.phi.mean) == 0.0
        assert abs(sol.psi.mean) == 0.0

    def test_rerun_determinism(self):
        # The solver is a direct SVD least squares: a re-run reproduces the
        # solution exactly (the uniqueness surrogate).
        grid, cs, rng = random_set(seed=8)
        c1 = d.random_trig_field(grid, rng, 2, 0.5)
        c2 = d.random_trig_field(grid, rng, 2, 0.5)
        a = d.solve_gauge(cs, c1, c2)
        b = d.solve_gauge(cs, c1, c2)
        assert a.k == b.k and a.kappa == b.kappa
        assert np.array_equal(a.phi.coeffs, b.phi.coeffs)
        assert np.array_equal(a.psi.coeffs, b.psi.coeffs)

    def test_export_json(self):
        grid, cs, rng = random_set(seed=9)
        sol = d.solve_gauge(cs, d.random_trig_field(grid, rng, 1, 0.3),
                            d.random_trig_field(grid, rng, 1, 0.3))
        payload = sol.to_json()
        assert payload["schema"] == "dirac2d.gauge/1"
        back = d.field_from_records(grid, payload["phi"])
        assert np.max(np.abs(back.coeffs - sol.phi.coeffs)) < 1e-15


def reference_zero_mean_lstsq(a, rhs, grid):
    """Least squares for a x = rhs over zero-mean x, straight from LAPACK's lstsq."""
    keep = np.arange(grid.n_modes) != grid.mode_index(0, 0)
    x = np.zeros(grid.n_modes, dtype=complex)
    x[keep] = np.linalg.lstsq(a[:, keep], rhs, rcond=None)[0]
    return x


def gauge_rhs_minus(cs, c1, c2, sol):
    """C'_- = C_- - (G - iF)(k_1 + i kappa_1) + iH(k_2 + i kappa_2)."""
    w1 = complex(sol.k[0], sol.kappa[0])
    w2 = complex(sol.k[1], sol.kappa[1])
    return c1.coeffs - 1j * c2.coeffs - w1 * cs.c_minus().coeffs + 1j * w2 * cs.h.coeffs


class TestSingleFactorization:
    def test_phi_minus_matches_reference_solve(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(21)
        for _ in range(5):
            cs = d.random_gamma_instance(grid, rng)
            c1 = d.random_trig_field(grid, rng, 2, 0.5, real=False)
            c2 = d.random_trig_field(grid, rng, 2, 0.5, real=False)
            a_m = 1j * d.assemble_dpm(cs, (0.0, 0.0), 0.0, "-").matrix
            for pair in (None, d.cokernel_vectors(cs)):
                sol = d.solve_gauge(cs, c1, c2, pair=pair)
                ref = reference_zero_mean_lstsq(a_m, gauge_rhs_minus(cs, c1, c2, sol), grid)
                phi_minus = sol.phi.coeffs + 1j * sol.psi.coeffs
                assert np.max(np.abs(phi_minus - ref)) < 1e-12

    def test_residual_minus_measured_on_assembled_dminus(self):
        # A non-real F breaks i d_-(0) = R conj(i d_+(0)) R; the minus residual
        # must show it, while the plus equation is still solved to rounding.
        grid, cs, rng = random_set(m=4, seed=22)
        f = cs.f.coeffs.copy()
        f[grid.mode_index(1, 0)] += 0.05
        object.__setattr__(cs, "f", d.PeriodicScalarField(grid, f))
        c1 = d.random_trig_field(grid, rng, 2, 0.5)
        c2 = d.random_trig_field(grid, rng, 2, 0.5)
        sol = d.solve_gauge(cs, c1, c2)
        a_m = 1j * d.assemble_dpm(cs, (0.0, 0.0), 0.0, "-").matrix
        phi_minus = sol.phi.coeffs + 1j * sol.psi.coeffs
        measured = np.linalg.norm(a_m @ phi_minus - gauge_rhs_minus(cs, c1, c2, sol))
        assert sol.residual_plus < 1e-12
        assert sol.residual_minus > 1e-4
        assert sol.residual_minus == pytest.approx(measured, rel=1e-8)

    @pytest.mark.parametrize("with_pair", [False, True])
    def test_one_svd_per_solve(self, monkeypatch, with_pair):
        grid, cs, rng = random_set(m=4, seed=23)
        pair = d.cokernel_vectors(cs) if with_pair else None
        c1 = d.random_trig_field(grid, rng, 2, 0.5)
        c2 = d.random_trig_field(grid, rng, 2, 0.5)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)
        monkeypatch.setattr(d.gauge.np.linalg, "svd", counting_svd)
        d.solve_gauge(cs, c1, c2, pair=pair)
        assert len(calls) == 1


class TestCanonicalGauge:
    def test_constant_case(self):
        _, cs = constant_set()
        can = d.solve_canonical_gauge(cs)
        assert can.kappa_tilde[0] == pytest.approx(1.0, abs=1e-12)
        assert can.kappa_tilde[1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(can.phi.coeffs)) < 1e-12
        assert np.max(np.abs(can.psi.coeffs)) < 1e-12
        assert can.c3_star == pytest.approx(1.0, abs=1e-12)
        assert can.bound_chain_ok

    def test_random_instances_chain(self):
        grid = d.FourierGrid(5, 22)
        rng = np.random.default_rng(10)
        for _ in range(10):
            inst = d.random_gamma_instance(grid, rng)
            can = d.solve_canonical_gauge(inst)
            assert can.kappa_tilde[0] > 0.0
            assert can.c3_star > 0.0
            assert can.bound_chain_ok
            assert can.imag_residual < 1e-10
            assert abs(can.phi.mean) == 0.0 and abs(can.psi.mean) == 0.0

    def test_canonical_solves_defining_equation(self):
        # i d_+(Phi - i Psi) = -(G + iF) kt1 - iH(kt2 + i), checked directly.
        grid, cs, _ = random_set(seed=11)
        can = d.solve_canonical_gauge(cs)
        kt1, kt2 = can.kappa_tilde
        lhs = 1j * d.assemble_dpm(cs, (0, 0), 0.0, "+").apply(
            can.phi.coeffs - 1j * can.psi.coeffs)
        rhs = -kt1 * cs.c_plus().coeffs - 1j * (kt2 + 1j) * cs.h.coeffs
        assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_spinor_conjugation_identity(self):
        # The canonical pair turns the shift i mu kappa_tilde into + i mu H s1:
        # conjugating with (i Phi, i Psi) in the reference convention.
        grid, cs, _ = random_set(m=8, seed=12)
        can = d.solve_canonical_gauge(cs)
        mu = 1.0
        z = d.ComplexQuasimomentum((0.0, 0.0), (mu * can.kappa_tilde[0], mu * can.kappa_tilde[1]))
        lhs = d.gauge_conjugate(d.assemble_dirac(cs, None, z),
                                d.PeriodicScalarField(grid, 1j * can.phi.coeffs),
                                d.PeriodicScalarField(grid, 1j * can.psi.coeffs), mu)
        ih = d.PeriodicScalarField(grid, 1j * mu * cs.h.coeffs)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        rhs = d.assemble_dirac(cs, d.MatrixPotential(v0=zero, v1=ih, v2=zero, v3=zero),
                               (0.0, 0.0))
        assert d.restricted_operator_distance(lhs, rhs) < 1e-3

    def test_projection_stability(self):
        # Perturbing the coefficients by eps in sup norm moves chi_+ by O(eps):
        # the response at eps and eps/10 scales linearly within a factor 4.
        grid, cs, rng = random_set(seed=13)
        base = d.cokernel_vectors(cs)
        bump = d.random_trig_field(grid, rng, 2, 1.0)
        deltas = {}
        for eps in (1e-2, 1e-3):
            pert = d.CoefficientSet(
                g=cs.g + eps * bump, h=cs.h, f=cs.f,
                p=cs.p + eps, q=cs.q - eps, f_bound=cs.f_bound)
            deltas[eps] = np.linalg.norm(
                d.cokernel_vectors(pert).chi_plus - base.chi_plus)
        ratio = deltas[1e-2] / deltas[1e-3]
        assert 10.0 / 4.0 <= ratio <= 10.0 * 4.0


class TestCokernelFormula:
    def test_constant_case(self):
        _, cs = constant_set()
        can = d.solve_canonical_gauge(cs)
        c6, residual = d.cokernel_formula_fit(cs, can)
        assert residual < 1e-10
        assert c6 == pytest.approx(-1.0, abs=1e-10)

    def test_residual_decay(self):
        residuals = {}
        for m in (8, 16):
            grid = d.FourierGrid(m, 2 * (2 * m + 1))
            rng = np.random.default_rng(14)
            inst = d.random_gamma_instance(grid, rng, degree=2, variation=0.3)
            can = d.solve_canonical_gauge(inst)
            residuals[m] = d.cokernel_formula_fit(inst, can)[1]
        assert residuals[16] <= residuals[8]


class TestZMap:
    def test_constant_case_identity(self):
        _, cs = constant_set()
        can = d.solve_canonical_gauge(cs)
        pts = np.array([[0.2, 0.7], [0.9, 0.1]])
        vals = d.z_map(can, pts)
        assert np.max(np.abs(vals - (pts[:, 0] + 1j * pts[:, 1]))) < 1e-12
        diag = d.z_map_diagnostics(can, resolution=8)
        assert diag.min_separation_ratio == pytest.approx(1.0, abs=1e-10)
        assert diag.periodicity_error < 1e-10

    def test_origin_value(self):
        _, cs, _ = random_set(seed=15)
        can = d.solve_canonical_gauge(cs)
        z0 = d.z_map(can, [[0.0, 0.0]])[0]
        expected = (can.phi.evaluate([[0.0, 0.0]])[0]
                    - 1j * can.psi.evaluate([[0.0, 0.0]])[0])
        assert z0 == pytest.approx(expected, abs=1e-13)

    def test_periodicity_and_injectivity_random(self):
        _, cs, _ = random_set(seed=16)
        can = d.solve_canonical_gauge(cs)
        diag = d.z_map_diagnostics(can, resolution=10)
        assert diag.periodicity_error < 1e-10
        assert diag.min_separation_ratio > 0.0


class TestLevelSets:
    def test_psi_zero_analytic_lines(self):
        # For Psi = 0 the level set {x2 = -lambda} is a line: the sampled
        # fraction at delta = 1e-3 stays below 2 delta once lambda avoids the
        # sample rows, and the gradient quantity is identically 1.
        grid = d.FourierGrid(4, 18)
        psi = d.PeriodicScalarField.constant(grid, 0.0)
        rep = d.level_set_diagnostics(psi, [-0.123456], deltas=(1e-3,), resolution=64)
        assert rep.fractions[0, 0] <= 2e-3
        assert rep.min_gradient_quantity == pytest.approx(1.0, abs=1e-12)

    def test_fraction_shrinks_with_delta(self):
        grid, cs, _ = random_set(seed=17)
        can = d.solve_canonical_gauge(cs)
        rep = d.level_set_diagnostics(can.psi, [0.0, -0.37], deltas=(1e-1, 1e-2, 1e-3),
                                      resolution=128)
        for i in range(rep.fractions.shape[0]):
            row = rep.fractions[i]
            assert row[0] >= row[1] >= row[2]

    def test_gradient_quantity_positive_on_gauge_psi(self):
        _, cs, _ = random_set(seed=18)
        can = d.solve_canonical_gauge(cs)
        rep = d.level_set_diagnostics(can.psi, [0.0], resolution=96)
        assert rep.min_gradient_quantity > 0.0
