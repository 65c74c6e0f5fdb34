"""Operator assembly, the CSR and column routes against an FFT oracle, gauge conjugation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dirac2d as d

MATVEC_REL = d.TOLERANCES["matvec_agreement_rel"]


def constant_set(m=4):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    return grid, d.CoefficientSet.constant(grid)


def random_set(m=4, seed=0, **kw):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    rng = np.random.default_rng(seed)
    return grid, d.random_gamma_instance(grid, rng, **kw), rng


def fft_apply(op, x, adjoint=False):
    """The product with ``op`` (or its adjoint) by FFT, term by term.

    Each term transforms to samples, multiplies by the field's samples and
    transforms back, so it shares no arithmetic with the library's CSR and
    column routes and serves as their reference.
    """
    grid = op.grid
    s = grid.sample_resolution
    flat = (grid.n1 % s) * s + grid.n2 % s

    def multiply(v, samples):  # v is (n_modes, B)
        spec = np.zeros((v.shape[1], s * s), dtype=complex)
        spec[:, flat] = v.T
        phys = np.fft.ifft2(spec.reshape(-1, s, s)) * samples
        return np.fft.fft2(phys).reshape(-1, s * s)[:, flat].T

    x = np.asarray(x, dtype=complex)
    y = x.reshape(op.n_components, grid.n_modes, -1)
    for factor in (op.factors if adjoint else op.factors[::-1]):
        out = np.zeros_like(y)
        for i, j, field, diag in factor:
            if adjoint:  # the adjoint of multiplication by W multiplies by conj(W)
                w = multiply(y[i], np.conj(field.samples()))
                out[j] += w if diag is None else np.conj(diag)[:, None] * w
            else:
                out[i] += multiply(y[j] if diag is None else diag[:, None] * y[j],
                                   field.samples())
        y = out
    return y.reshape(x.shape)



def scipy_fft_loaded_after(body):
    """Whether ``scipy.fft`` is in ``sys.modules`` after a fresh interpreter runs ``body``.

    ``body`` runs after ``import numpy as np`` and ``import dirac2d as d``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys\nimport numpy as np\nimport dirac2d as d\n"
            + textwrap.dedent(body) + "\nprint('scipy.fft' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"

class TestScalarFibers:
    def test_constant_coefficients_diagonalize(self):
        grid, cs = constant_set()
        k = (0.4, -1.2)
        for sign, s in (("+", 1.0), ("-", -1.0)):
            op = d.assemble_dpm(cs, k, 0.0, sign)
            symbol = (k[0] + 2 * np.pi * grid.n1) + 1j * s * (k[1] + 2 * np.pi * grid.n2)
            assert np.max(np.abs(op.matrix - np.diag(symbol))) < 1e-12

    def test_smallest_singular_value_pi(self):
        _, cs = constant_set()
        op = d.assemble_dpm(cs, (np.pi, 0.0), 0.0, "+")
        smin = scipy.linalg.svdvals(op.matrix)[-1]
        assert smin == pytest.approx(np.pi, abs=1e-12)

    def test_constants_in_kernel(self):
        grid, cs, _ = random_set(seed=1)
        e0 = np.zeros(grid.n_modes, dtype=complex)
        e0[grid.mode_index(0, 0)] = 1.0
        for sign in ("+", "-"):
            op = d.assemble_dpm(cs, (0.0, 0.0), 0.0, sign)
            assert np.linalg.norm(op.apply(e0)) < 1e-13

    def test_mu_shift_term(self):
        grid, cs = constant_set()
        mu = 3.0
        op = d.assemble_dpm(cs, (0.5, 0.7), mu, "+")
        symbol = (0.5 + 2 * np.pi * grid.n1) + 1j * (0.7 + 2 * np.pi * grid.n2 + mu)
        assert np.max(np.abs(op.matrix - np.diag(symbol))) < 1e-12

    def test_complex_quasimomentum(self):
        grid, cs = constant_set()
        z = d.ComplexQuasimomentum((0.3, 0.1), (1.5, -0.2))
        op = d.assemble_dpm(cs, z, 0.0, "-")
        symbol = (z.z1 + 2 * np.pi * grid.n1) - 1j * (z.z2 + 2 * np.pi * grid.n2)
        assert np.max(np.abs(op.matrix - np.diag(symbol))) < 1e-12


class TestDiracBlocks:
    def test_block_layout_matches_dpm(self):
        grid, cs, _ = random_set(seed=2)
        z = d.ComplexQuasimomentum((0.9, 0.2), (0.1, 0.0))
        full = d.assemble_dirac(cs, None, z).matrix
        n = grid.n_modes
        dp = d.assemble_dpm(cs, z, 0.0, "+").matrix
        dm = d.assemble_dpm(cs, z, 0.0, "-").matrix
        assert np.max(np.abs(full[:n, :n])) == 0.0
        assert np.max(np.abs(full[n:, n:])) == 0.0
        assert np.max(np.abs(full[:n, n:] - dm)) < 1e-13
        assert np.max(np.abs(full[n:, :n] - dp)) < 1e-13

    def test_free_singular_values_paired(self):
        grid, cs = constant_set(3)
        k = (0.8, 0.3)
        svals = np.sort(scipy.linalg.svdvals(d.assemble_dirac(cs, None, k).matrix))
        mags = np.sort(np.concatenate([
            np.hypot(k[0] + 2 * np.pi * grid.n1, k[1] + 2 * np.pi * grid.n2)] * 2))
        assert np.max(np.abs(svals - mags)) < 1e-11

    def test_constant_scalar_potential_eigenvalues(self):
        # V = c I with constant coefficients: per-mode eigenvalues c +- |k + 2 pi N|.
        grid, cs = constant_set(3)
        c = 0.7
        k = (0.8, 0.3)
        V = d.MatrixPotential.diagonal(grid, v0=c)
        evals = np.sort(np.linalg.eigvals(d.assemble_dirac(cs, V, k).matrix).real)
        mags = np.hypot(k[0] + 2 * np.pi * grid.n1, k[1] + 2 * np.pi * grid.n2)
        oracle = np.sort(np.concatenate([c + mags, c - mags]))
        assert np.max(np.abs(evals - oracle)) < 1e-9

    def test_zero_quasimomentum_kernel_dimension_two(self):
        _, cs, _ = random_set(seed=3)
        svals = scipy.linalg.svdvals(d.assemble_dirac(cs, None, (0.0, 0.0)).matrix)
        assert svals[-1] < 1e-12 and svals[-2] < 1e-12
        assert svals[-3] > 1e-3

    def test_overflowing_potential_block_is_inadmissible(self):
        grid, cs = constant_set(2)
        big = d.PeriodicScalarField.constant(grid, 1e308)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        with np.errstate(all="raise"):
            d.assemble_dirac(cs, d.MatrixPotential(big, big, big, zero), (0.3, 0.1))
            with pytest.raises(d.InadmissibleParameterError, match="V0 \\+ V3"):
                d.assemble_dirac(cs, d.MatrixPotential(big, zero, zero, big), (0.3, 0.1))
            with pytest.raises(d.InadmissibleParameterError, match="V1 - iV2"):
                imaginary = d.PeriodicScalarField.constant(grid, 1e308j)
                d.assemble_dirac(cs, d.MatrixPotential(zero, big, imaginary, zero), (0.3, 0.1))

    def test_hermitian_constant_fiber(self):
        # Multiplication potentials are Hermitian for real components, and with
        # constant first-order coefficients the full fiber is self-adjoint.
        grid, cs = constant_set(3)
        rng = np.random.default_rng(4)
        V = d.MatrixPotential(
            v0=d.random_trig_field(grid, rng, 2, 0.5),
            v1=d.random_trig_field(grid, rng, 2, 0.5),
            v2=d.random_trig_field(grid, rng, 2, 0.5),
            v3=d.random_trig_field(grid, rng, 2, 0.5),
        )
        assert V.is_hermitian()
        a = d.assemble_dirac(cs, V, (1.1, 0.4)).matrix
        assert np.max(np.abs(a - a.conj().T)) < 1e-12

    def test_non_real_potential_not_hermitian_flagged(self):
        grid, _ = constant_set(2)
        z = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(v0=d.PeriodicScalarField.constant(grid, 1j),
                              v1=z, v2=z, v3=z)
        assert not V.is_hermitian()


class TestApplication:
    def test_identity_like_on_constant_spinor(self):
        grid, cs = constant_set(3)
        op = d.assemble_dirac(cs, None, (1.0, 0.0))
        vec = np.zeros(2 * grid.n_modes, dtype=complex)
        vec[grid.mode_index(0, 0)] = 1.0
        vec[grid.n_modes + grid.mode_index(0, 0)] = 1.0
        out = op.apply(vec)
        # D(k) swaps components with symbol k1 +- i k2 at the zero mode.
        assert out[grid.mode_index(0, 0)] == pytest.approx(1.0)
        assert out[grid.n_modes + grid.mode_index(0, 0)] == pytest.approx(1.0)

    def test_zero_vector(self):
        grid, cs, _ = random_set(seed=5)
        op = d.assemble_dirac(cs, None, (0.3, 0.4))
        assert np.linalg.norm(op.apply(np.zeros(op.dim, dtype=complex))) == 0.0

    def test_matrix_free_matches_dense(self):
        grid, cs, rng = random_set(m=4, seed=6)
        V = d.MatrixPotential(
            v0=d.random_trig_field(grid, rng, 2, 0.4),
            v1=d.random_trig_field(grid, rng, 2, 0.4),
            v2=d.random_trig_field(grid, rng, 2, 0.4),
            v3=d.random_trig_field(grid, rng, 2, 0.4),
        )
        z = d.ComplexQuasimomentum((0.9, 0.2), (0.4, -0.1))
        op = d.assemble_dirac(cs, V, z, mu=2.5)
        for _ in range(5):
            v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            ref = fft_apply(op, v)
            for got in (op.apply(v), op.matrix @ v):
                assert np.linalg.norm(got - ref) < MATVEC_REL * np.linalg.norm(ref)

    def test_batched_apply(self):
        grid, cs, rng = random_set(seed=7)
        op = d.assemble_dpm(cs, (0.2, 0.5), 1.0, "+")
        batch = rng.standard_normal((op.dim, 6)) + 1j * rng.standard_normal((op.dim, 6))
        out = op.apply(batch)
        for j in range(6):
            assert np.allclose(out[:, j], op.apply(batch[:, j]))

    def test_adjoint_pairing(self):
        grid, cs, rng = random_set(seed=8)
        op = d.assemble_dirac(cs, None, (0.3, 0.7), mu=1.5)
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        w = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        lhs = np.vdot(w, op.apply(v))
        rhs = np.vdot(op.adjoint_apply(w), v)
        assert abs(lhs - rhs) < MATVEC_REL * abs(lhs)

    def test_gauge_conjugated_composition_batched(self):
        # Zero V0/V3 leaves the diagonal potential blocks out of the operator.
        grid, cs, rng = random_set(m=4, seed=12)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(v0=zero, v1=d.random_trig_field(grid, rng, 2, 0.4),
                              v2=d.random_trig_field(grid, rng, 2, 0.4), v3=zero)
        phi = d.random_trig_field(grid, rng, 2, 0.3)
        psi = d.random_trig_field(grid, rng, 2, 0.3)
        z = d.ComplexQuasimomentum((0.6, -0.3), (0.2, 0.5))
        op = d.gauge_conjugate(d.assemble_dirac(cs, V, z), phi, psi, 0.8)
        op = op @ d.assemble_dirac(cs, None, (0.1, 0.2))
        x = rng.standard_normal((op.dim, 6)) + 1j * rng.standard_normal((op.dim, 6))
        for got, ref in ((op.apply(x), fft_apply(op, x)),
                         (op.matrix @ x, fft_apply(op, x)),
                         (op.adjoint_apply(x), fft_apply(op, x, adjoint=True)),
                         (op.matrix.conj().T @ x, fft_apply(op, x, adjoint=True))):
            assert np.linalg.norm(got - ref) < MATVEC_REL * np.linalg.norm(ref)

    def test_zero_potential_components_add_no_kernel(self):
        grid, cs, rng = random_set(m=4, seed=13)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        v1 = d.random_trig_field(grid, rng, 2, 0.4)
        v2 = d.random_trig_field(grid, rng, 2, 0.4)
        op = d.assemble_dirac(cs, d.MatrixPotential(zero, v1, v2, zero), (0.3, 0.4))
        assert len(op.factors[0]) == 6  # two terms in each of d_pm, plus V1 -+ iV2
        # The dense matrix equals the layout with explicit (zero) diagonal blocks.
        n = grid.n_modes
        ref = np.zeros((2 * n, 2 * n), dtype=complex)
        ref[:n, n:] = (d.assemble_dpm(cs, (0.3, 0.4), 0.0, "-").matrix
                       + d.multiplication_operator(v1 - 1j * v2).matrix)
        ref[n:, :n] = (d.assemble_dpm(cs, (0.3, 0.4), 0.0, "+").matrix
                       + d.multiplication_operator(v1 + 1j * v2).matrix)
        assert np.max(np.abs(op.matrix - ref)) < 1e-13

    def test_batched_apply_peak_memory(self):
        # A single-factor product allocates its output and, for the adjoint,
        # the conjugated CSR form: nothing scales with the sample grid.
        import tracemalloc

        grid, cs, rng = random_set(m=8, seed=16)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(zero, d.random_trig_field(grid, rng, 2, 0.4),
                              d.random_trig_field(grid, rng, 2, 0.4), zero)
        op = d.assemble_dirac(cs, V, (0.3, 0.4))
        x = rng.standard_normal((op.dim, 162)) + 1j * rng.standard_normal((op.dim, 162))
        op.apply(x[:, :1])  # first apply builds the cached CSR form
        bound = 1.5 * x.nbytes
        for fn in (op.apply, op.adjoint_apply):
            tracemalloc.start()
            try:
                fn(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (fn.__name__, peak, bound)

    def test_dense_route_takes_no_samples(self, monkeypatch):
        # No route samples a field: products, columns and the dense matrix all
        # read the coefficients.
        grid, cs, rng = random_set(m=4, seed=17)
        V = d.MatrixPotential(*(d.random_trig_field(grid, rng, 2, 0.4) for _ in range(4)))
        calls = []
        samples = d.PeriodicScalarField.samples

        def counting_samples(self, resolution=None):
            calls.append(resolution)
            return samples(self, resolution)
        monkeypatch.setattr(d.PeriodicScalarField, "samples", counting_samples)
        op = d.assemble_dirac(cs, V, (0.3, 0.4), mu=0.5)
        op.matrix
        op.columns(np.arange(0, op.dim, 7))
        op.apply(np.ones(op.dim))
        op.adjoint_apply(np.ones((op.dim, 2)))
        assert calls == []

    def test_import_leaves_scipy_fft_unloaded(self):
        assert not scipy_fft_loaded_after("import dirac2d")

    def test_library_routes_leave_scipy_fft_unloaded(self):
        # Both product routes, the coercivity and cross-term checks and the
        # formula fit never import scipy.fft.
        assert not scipy_fft_loaded_after("""
            grid = d.FourierGrid(3, 14)
            rng = np.random.default_rng(44)
            cs = d.random_gamma_instance(grid, rng)
            c1, phi, psi = (d.random_trig_field(grid, rng, 2, 0.5) for _ in range(3))
            op = d.gauge_conjugate(d.assemble_dirac(cs, None, (0.3, 0.4)), phi, psi, 1.0)
            op.adjoint_apply(op.apply(np.ones(op.dim)))
            can = d.solve_canonical_gauge(cs)
            d.cokernel_formula_fit(cs, can)
            zero = d.PeriodicScalarField.constant(grid, 0.0)
            d.verify_coercivity(cs, c1, zero, can.psi, 8 * np.pi, 2 * np.pi, (np.pi, 0.0),
                                trials=2)
            weights = d.mode_weights(grid, (np.pi, 0.0), 8 * np.pi)
            d.cross_term_check(c1, weights, 2 * np.pi, 3 * np.pi, n_trials=2)""")

    def test_dimension_mismatch(self):
        _, cs = constant_set(2)
        op = d.assemble_dpm(cs, (0.1, 0.1), 0.0, "+")
        with pytest.raises(d.GridMismatchError):
            op.apply(np.zeros(op.dim + 1, dtype=complex))


class TestIdentities:
    def test_conjugation_symmetry(self):
        # conj(d_+ phi) = -d_- conj(phi): the matrix of d_- equals minus the
        # coefficientwise-conjugated image of d_+ under N -> -N, entrywise.
        _, cs, _ = random_set(m=4, seed=10)
        dp = d.assemble_dpm(cs, (0.0, 0.0), 0.0, "+").matrix
        dm = d.assemble_dpm(cs, (0.0, 0.0), 0.0, "-").matrix
        tol = d.TOLERANCES["conjugation_symmetry"]
        assert np.max(np.abs(dm + np.conj(dp[::-1, ::-1]))) <= tol

    def test_two_sided_bound_with_empirical_constants(self):
        grid, cs, rng = random_set(m=4, seed=11)
        k = (1.0, 0.4)
        c1, c2 = d.estimate_c1_c2(cs, k, 0.0)
        assert 0 < c1 <= c2
        w = d.mode_weights(grid, k, 0.0)
        for sign in ("+", "-"):
            op = d.assemble_dpm(cs, k, 0.0, sign)
            variant = "star_plus" if sign == "+" else "star_minus"
            for _ in range(10):
                v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
                lhs = np.linalg.norm(op.apply(v)) ** 2
                grad = d.weighted_norm(v, w, variant) ** 2
                assert c1 * grad <= lhs * (1 + 1e-10) + 1e-12
                assert lhs <= c2 * grad * (1 + 1e-10) + 1e-12

    def test_leibniz_identity_decay(self):
        # d_+(e^{i Phi} psi) = e^{i Phi}(i (d_+ Phi) psi + d_+ psi), with the
        # truncation defect dropping as the window doubles.
        defects = {}
        for m in (6, 12):
            grid = d.FourierGrid(m, 2 * (2 * m + 1))
            rng = np.random.default_rng(12)
            cs = d.random_gamma_instance(grid, rng, degree=2, variation=0.3)
            phi = d.random_trig_field(grid, rng, 2, 0.6)
            psi = d.random_trig_field(grid, rng, 2, 1.0, real=False, zero_mean=False)
            exp_phi = d.sample_to_fourier(np.exp(1j * phi.samples()), grid)
            dp = d.assemble_dpm(cs, (0.0, 0.0), 0.0, "+")
            lhs = dp.apply(d.convolve(exp_phi, psi).coeffs)
            dphi = d.PeriodicScalarField(grid, dp.apply(phi.coeffs))
            inner = 1j * d.convolve(dphi, psi).coeffs + dp.apply(psi.coeffs)
            rhs = d.convolve(exp_phi, d.PeriodicScalarField(grid, inner)).coeffs
            defects[m] = np.linalg.norm(lhs - rhs)
        assert defects[12] <= 0.5 * defects[6]


class TestGaugeConjugation:
    def test_identity_gauge(self):
        grid, cs, rng = random_set(seed=13)
        z = d.ComplexQuasimomentum((0.4, 0.1), (0.2, 0.0))
        op = d.assemble_dirac(cs, None, z)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        conj = d.gauge_conjugate(op, zero, zero, 1.0)
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.linalg.norm(conj.apply(v) - op.apply(v)) < 1e-12 * np.linalg.norm(v)
        assert max(conj.meta["gauge_truncation_residual"].values()) < 1e-14

    def test_constant_shift_matches_direct_assembly(self):
        grid, cs = constant_set(4)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        mu = 2.0
        z = d.ComplexQuasimomentum((mu * 0.3, mu * 0.1), (mu * 0.5, mu * 0.2))
        conj = d.gauge_conjugate(d.assemble_dirac(cs, None, z), zero, zero, mu)
        direct = d.assemble_dirac(cs, None, z)
        assert np.max(np.abs(conj.matrix - direct.matrix)) < 1e-11

    def test_overflow_guard(self):
        grid, cs = constant_set(3)
        op = d.assemble_dirac(cs, None, (0.0, 0.0))
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        big_psi = d.PeriodicScalarField.constant(grid, 1.0)
        with pytest.raises(d.GaugeOverflowError):
            d.gauge_conjugate(op, zero, big_psi, 50.0)

    def test_restricted_distance_zero_for_equal_ops(self):
        grid, cs, _ = random_set(seed=14)
        a = d.assemble_dirac(cs, None, (0.5, 0.5))
        b = d.assemble_dirac(cs, None, (0.5, 0.5))
        assert d.restricted_operator_distance(a, b) < 1e-13


def conjugated_pair(m, seed):
    """A gauge-conjugated fiber and the potential fiber it is compared with (as in C3)."""
    grid, cs, rng = random_set(m=m, seed=seed)
    c1 = d.random_trig_field(grid, rng, 2, 0.5)
    c2 = d.random_trig_field(grid, rng, 2, 0.5)
    sol = d.solve_gauge(cs, c1, c2)
    z = d.ComplexQuasimomentum(sol.k, sol.kappa)
    lhs = d.gauge_conjugate(d.assemble_dirac(cs, None, z), sol.phi, sol.psi, 1.0)
    zero = d.PeriodicScalarField.constant(grid, 0.0)
    rhs = d.assemble_dirac(cs, d.MatrixPotential(zero, c1, c2, zero), (0.0, 0.0))
    return lhs, rhs


def fft_probe_distance(a, b, probe_radius=None):
    """The restricted distance by FFT products on identity probes and an ord=2 SVD norm."""
    grid = a.grid
    if probe_radius is None:
        probe_radius = max(1, int(grid.truncation_radius * d.DEFAULTS["probe_radius_fraction"]))
    sel = (np.abs(grid.n1) <= probe_radius) & (np.abs(grid.n2) <= probe_radius)
    idx = np.nonzero(np.concatenate([sel] * a.n_components))[0]
    probe = np.zeros((a.dim, idx.size), dtype=np.complex128)
    probe[idx, np.arange(idx.size)] = 1.0
    return float(np.linalg.norm(fft_apply(a, probe) - fft_apply(b, probe), ord=2))


class TestColumnRoute:
    def test_columns_match_matrix_and_fft_probes(self):
        lhs, _ = conjugated_pair(6, seed=41)
        idx = np.sort(np.random.default_rng(42).permutation(lhs.dim)[:40])
        cols = lhs.columns(idx)
        probe = np.zeros((lhs.dim, idx.size), dtype=complex)
        probe[idx, np.arange(idx.size)] = 1.0
        assert np.max(np.abs(cols - lhs.matrix[:, idx])) < 1e-12
        assert np.max(np.abs(cols - fft_apply(lhs, probe))) < 1e-12

    @pytest.mark.parametrize("probe_radius", [None, 2])
    def test_distance_matches_fft_probe_formula(self, probe_radius):
        lhs, rhs = conjugated_pair(6, seed=43)
        got = d.restricted_operator_distance(lhs, rhs, probe_radius)
        assert got > 1e-8
        assert abs(got - fft_probe_distance(lhs, rhs, probe_radius)) < 1e-12


    def test_gauge_solve_and_distance_leave_scipy_fft_unloaded(self):
        assert not scipy_fft_loaded_after("""
            grid = d.FourierGrid(3, 14)
            rng = np.random.default_rng(44)
            cs = d.random_gamma_instance(grid, rng)
            c1, c2 = (d.random_trig_field(grid, rng, 2, 0.5) for _ in range(2))
            sol = d.solve_gauge(cs, c1, c2)
            op = d.assemble_dirac(cs, None, d.ComplexQuasimomentum(sol.k, sol.kappa))
            op = d.gauge_conjugate(op, sol.phi, sol.psi, 1.0)
            d.restricted_operator_distance(op, d.assemble_dirac(cs, None, (0.0, 0.0)))""")

def band_limited_fiber(m, seed, degree):
    """A variable fiber plus a four-component potential, all of band radius ``degree``."""
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    rng = np.random.default_rng(seed)
    cs = d.random_gamma_instance(grid, rng, degree=degree)
    V = d.MatrixPotential(*(d.random_trig_field(grid, rng, degree, 0.5, zero_mean=False,
                                                real=bool(i % 2)) for i in range(4)))
    z = d.ComplexQuasimomentum(rng.uniform(0, 2 * np.pi, 2), rng.uniform(-3, 3, 2))
    return d.assemble_dirac(cs, V, z, mu=1.7)


class TestSparseForm:
    @pytest.mark.parametrize("m,degree", [(4, 1), (8, 2)])
    def test_matrix_is_the_column_route_bit_for_bit(self, m, degree):
        for seed in range(3):
            op = band_limited_fiber(m, seed, degree)
            assert op.band_limited and len(op.factors[0]) == 8
            cols = op.columns(np.arange(op.dim))
            assert np.array_equal(op.matrix, cols)
            assert op.matrix.tobytes() == cols.tobytes()

    def test_convolution_matches_the_strided_columns(self):
        from dirac2d.operators import _convolution_matrix
        grid = d.FourierGrid(5, 22)
        rng = np.random.default_rng(51)
        smooth = d.sample_to_fourier(np.exp(np.cos(2 * np.pi * grid.sample_points()[0])), grid)
        for field, radius in ((d.random_trig_field(grid, rng, 2, 1.0, real=False), 2),
                              (d.PeriodicScalarField.constant(grid, 0.7), 0),
                              (d.PeriodicScalarField.constant(grid, 0.0), 0),
                              (smooth, 5)):
            assert field.band_radius == radius
            assert field.band_limited == (2 * radius < 5)
            csr = field.convolution
            assert csr.has_canonical_format and csr.nnz == np.count_nonzero(csr.data)
            assert np.array_equal(csr.toarray(), _convolution_matrix(field, slice(None)))

    def test_coefficient_fields_are_built_once(self):
        _, cs, _ = random_set(m=6, seed=52)
        assert cs.c_plus() is cs.c_plus() and cs.c_minus() is cs.c_minus()
        a = d.assemble_dirac(cs, None, (0.1, 0.2))
        b = d.assemble_dirac(cs, None, (0.3, 0.4))
        assert [t[2] for t in a.factors[0]] == [t[2] for t in b.factors[0]]
        assert all(ta[2].convolution is tb[2].convolution
                   for ta, tb in zip(a.factors[0], b.factors[0]))

    def test_only_single_band_limited_factors_are_band_limited(self):
        lhs, rhs = conjugated_pair(6, seed=53)
        assert rhs.band_limited and not lhs.band_limited
        with pytest.raises(ValueError):
            _ = lhs.sparse

    def test_sparse_middle_factor_matches_the_dense_blocks(self, monkeypatch):
        lhs, _ = conjugated_pair(8, seed=54)
        assert [d.operators._band_limited(f) for f in lhs.factors] == [False, True, False]
        idx = np.sort(np.random.default_rng(55).permutation(lhs.dim)[:60])
        sparse = lhs.columns(idx)
        monkeypatch.setattr(d.operators, "_band_limited", lambda factor: False)
        dense = lhs.columns(idx)
        assert np.max(np.abs(sparse - dense)) <= 1e-12 * np.max(np.abs(dense))
