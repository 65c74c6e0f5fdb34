"""Fourier core: transforms, products, weights, index sets, and field I/O."""

import json

import numpy as np
import pytest

import dirac2d as d


def direct_quadrature_coefficient(samples, n1, n2):
    """Independent O(S^2) quadrature oracle for one Fourier coefficient."""
    s = samples.shape[0]
    acc = 0.0 + 0.0j
    for i in range(s):
        for j in range(s):
            acc += samples[i, j] * np.exp(-2j * np.pi * (n1 * i + n2 * j) / s)
    return acc / (s * s)


class TestTransforms:
    def test_constant_field(self):
        grid = d.FourierGrid(3, 16)
        fld = d.sample_to_fourier(np.ones((16, 16)), grid)
        assert fld.coeffs[grid.mode_index(0, 0)] == pytest.approx(1.0)
        others = np.delete(fld.coeffs, grid.mode_index(0, 0))
        assert np.max(np.abs(others)) < 1e-14

    def test_single_mode(self):
        grid = d.FourierGrid(3, 16)
        x1, _ = grid.sample_points()
        fld = d.sample_to_fourier(np.exp(2j * np.pi * x1), grid)
        assert fld.coeffs[grid.mode_index(1, 0)] == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(fld.coeffs) > 1e-13) == 1

    def test_cosine_against_quadrature_oracle(self):
        # cos(2 pi x2) at S = 16: the two half-coefficients, checked both
        # against the independent double-sum quadrature and the closed form.
        grid = d.FourierGrid(3, 16)
        _, x2 = grid.sample_points()
        samples = np.cos(2 * np.pi * x2)
        fld = d.sample_to_fourier(samples, grid)
        for n2 in (1, -1):
            oracle = direct_quadrature_coefficient(samples, 0, n2)
            assert oracle == pytest.approx(0.5, abs=1e-13)
            assert fld.coeffs[grid.mode_index(0, n2)] == pytest.approx(oracle, abs=1e-12)

    def test_roundtrip_band_limited(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(0)
        fld = d.random_trig_field(grid, rng, degree=4, amplitude=2.0, real=False)
        back = d.sample_to_fourier(fld.samples(), grid)
        assert np.max(np.abs(back.coeffs - fld.coeffs)) < 1e-13

    def test_parseval(self):
        grid = d.FourierGrid(5, 22)
        rng = np.random.default_rng(1)
        fld = d.random_trig_field(grid, rng, degree=5, amplitude=1.5, real=False)
        quad = np.sqrt(np.mean(np.abs(fld.samples()) ** 2))
        assert abs(fld.l2_norm() - quad) <= d.TOLERANCES["parseval_rel"] * quad

    @pytest.mark.parametrize("m,resolution", [(3, (15, 23)), (4, (27, 19)), (5, 33)])
    def test_samples_match_ifft2_bit_for_bit(self, m, resolution):
        # samples() transforms only the rows that hold coefficients; the
        # result is the full two-dimensional inverse FFT to the last bit.
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        rng = np.random.default_rng(m)
        fld = d.random_trig_field(grid, rng, degree=m, amplitude=1.0, real=False)
        s1, s2 = (resolution, resolution) if np.isscalar(resolution) else resolution
        spec = np.zeros((s1, s2), dtype=complex)
        spec[grid.n1 % s1, grid.n2 % s2] = fld.coeffs
        assert np.array_equal(fld.samples(resolution), np.fft.ifft2(spec) * (s1 * s2))

    @pytest.mark.parametrize("m,resolution", [(3, (15, 23)), (4, (27, 19)), (8, (17, 33))])
    @pytest.mark.parametrize("width", [1, 4, 7, 16, 100])
    def test_strips_are_the_columns_of_samples_bit_for_bit(self, m, resolution, width):
        # Widths 4 and 7 divide none of the S2 here, so the last strip is narrower.
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        fld = d.random_trig_field(grid, np.random.default_rng(m), degree=m, amplitude=1.0,
                                  real=False)
        strips = list(fld.sample_strips(resolution, width))
        assert [s.shape[1] for s in strips[:-1]] == [width] * (len(strips) - 1)
        assert np.array_equal(np.concatenate(strips, axis=1), fld.samples(resolution))

    def test_dimension_mismatch(self):
        grid = d.FourierGrid(3, 16)
        with pytest.raises(d.GridMismatchError):
            d.sample_to_fourier(np.ones((8, 8)), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            d.FourierGrid(0, 16)
        with pytest.raises(ValueError):
            d.FourierGrid(4, 17)  # needs S >= 18

    def test_evaluate_matches_samples(self):
        grid = d.FourierGrid(3, 16)
        rng = np.random.default_rng(2)
        fld = d.random_trig_field(grid, rng, degree=2, amplitude=1.0, real=False)
        pts = rng.random((7, 2))
        direct = np.array([
            sum(c * np.exp(2j * np.pi * (n1 * p[0] + n2 * p[1]))
                for (n1, n2), c in zip(grid.mode_numbers, fld.coeffs))
            for p in pts
        ])
        assert np.max(np.abs(fld.evaluate(pts) - direct)) < 1e-12


class TestConvolve:
    def test_identity_element(self):
        grid = d.FourierGrid(3, 16)
        rng = np.random.default_rng(3)
        one = d.PeriodicScalarField.constant(grid, 1.0)
        b = d.random_trig_field(grid, rng, degree=3, amplitude=1.0, real=False)
        assert np.max(np.abs(d.convolve(one, b).coeffs - b.coeffs)) < 1e-13

    def test_inverse_modes(self):
        grid = d.FourierGrid(2, 10)
        a = d.PeriodicScalarField.from_modes(grid, {(1, 0): 1.0})
        b = d.PeriodicScalarField.from_modes(grid, {(-1, 0): 1.0})
        prod = d.convolve(a, b)
        assert prod.coeffs[grid.mode_index(0, 0)] == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(prod.coeffs) > 1e-13) == 1

    @pytest.mark.parametrize("m,keeps_mode", [(1, False), (2, True), (3, True)])
    def test_double_angle(self, m, keeps_mode):
        # cos^2(2 pi x1) = 1/2 + 1/2 cos(4 pi x1); the (2,0) mode survives iff M >= 2.
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        x1, _ = grid.sample_points()
        c = d.sample_to_fourier(np.cos(2 * np.pi * x1), grid)
        prod = d.convolve(c, c)
        assert prod.coeffs[grid.mode_index(0, 0)] == pytest.approx(0.5, abs=1e-13)
        if keeps_mode:
            assert prod.coeffs[grid.mode_index(2, 0)] == pytest.approx(0.25, abs=1e-13)
        else:
            assert np.max(np.abs(np.delete(prod.coeffs, grid.mode_index(0, 0)))) < 1e-13

    def test_bilinear_and_commutative(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(4)
        a = d.random_trig_field(grid, rng, 3, 1.0, real=False)
        b = d.random_trig_field(grid, rng, 3, 1.0, real=False)
        c = d.random_trig_field(grid, rng, 3, 1.0, real=False)
        ab = d.convolve(a, b)
        ba = d.convolve(b, a)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) < 1e-13
        lin = d.convolve(a + 2.0 * b, c)
        split = d.convolve(a, c) + 2.0 * d.convolve(b, c)
        assert np.max(np.abs(lin.coeffs - split.coeffs)) < 1e-12

    def test_associativity_truncation_decay(self):
        # (a*b)*c vs a*(b*c) differ only through re-truncation; the defect must
        # drop by at least 2x when the window radius doubles.
        defects = {}
        for m in (4, 8):
            grid = d.FourierGrid(m, 2 * (2 * m + 1))
            rng = np.random.default_rng(5)
            a = d.random_trig_field(grid, rng, 3, 1.0)
            b = d.random_trig_field(grid, rng, 3, 1.0)
            c = d.random_trig_field(grid, rng, 3, 1.0)
            left = d.convolve(d.convolve(a, b), c)
            right = d.convolve(a, d.convolve(b, c))
            defects[m] = np.linalg.norm(left.coeffs - right.coeffs)
        assert defects[8] <= 0.5 * defects[4]

    def test_grid_mismatch(self):
        a = d.PeriodicScalarField.constant(d.FourierGrid(2, 10), 1.0)
        b = d.PeriodicScalarField.constant(d.FourierGrid(3, 16), 1.0)
        with pytest.raises(d.GridMismatchError):
            d.convolve(a, b)


class TestWeightsAndSets:
    def test_center_mode_star_norm(self):
        grid = d.FourierGrid(4, 18)
        w = d.ModeWeights(grid, (np.pi, 0.0), 0.0)
        e0 = np.zeros(grid.n_modes)
        e0[grid.mode_index(0, 0)] = 1.0
        assert d.weighted_norm(e0, w, "star") == pytest.approx(np.pi, abs=1e-12)

    def test_zero_vector(self):
        grid = d.FourierGrid(4, 18)
        w = d.ModeWeights(grid, (np.pi, 0.0), 0.0)
        assert d.weighted_norm(np.zeros(grid.n_modes), w, "star") == 0.0

    def test_center_mode_star_plus(self):
        grid = d.FourierGrid(4, 18)
        w = d.ModeWeights(grid, (np.pi, 0.0), 2 * np.pi)
        e0 = np.zeros(grid.n_modes)
        e0[grid.mode_index(0, 0)] = 1.0
        assert d.weighted_norm(e0, w, "star_plus") == pytest.approx(np.pi * np.sqrt(5), abs=1e-12)

    def test_star_below_signed_variants(self):
        grid = d.FourierGrid(5, 22)
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = rng.uniform(0, 2 * np.pi, 2)
            mu = rng.uniform(0, 10 * np.pi)
            w = d.ModeWeights(grid, k, mu)
            v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
            star = d.weighted_norm(v, w, "star")
            assert star <= d.weighted_norm(v, w, "star_plus") + 1e-12
            assert star <= d.weighted_norm(v, w, "star_minus") + 1e-12

    def test_k1_pi_floor(self):
        grid = d.FourierGrid(6, 26)
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = d.ModeWeights(grid, (np.pi, rng.uniform(0, 2 * np.pi)),
                               rng.uniform(0, 12 * np.pi))
            assert np.min(w.g_min) >= np.pi - 1e-12

    def test_index_set_mu0_example(self):
        # Exhaustive check of (pi + 2 pi N1)^2 + (2 pi N2)^2 <= (2 pi)^2.
        grid = d.FourierGrid(4, 18)
        w = d.ModeWeights(grid, (np.pi, 0.0), 0.0)
        ts = d.index_set_T(w, 2 * np.pi, "+")
        assert sorted(ts.modes()) == [(-1, 0), (0, 0)]
        assert ts.analytic_count == 2
        assert not ts.window_overflow

    def test_index_set_shifted_example(self):
        grid = d.FourierGrid(4, 18)
        w = d.ModeWeights(grid, (np.pi, 0.0), 4 * np.pi)
        ts = d.index_set_T(w, 2 * np.pi, "+")
        assert sorted(ts.modes()) == [(-1, -2), (0, -2)]

    def test_counting_bound_grid(self):
        grid = d.FourierGrid(12, 50)
        for k2 in (0.0, 0.3, np.pi):
            for mu in (0.0, 4 * np.pi, 12 * np.pi):
                w = d.ModeWeights(grid, (np.pi, k2), mu)
                for a in (2 * np.pi, 4 * np.pi, 8 * np.pi):
                    for sign in ("+", "-"):
                        ts = d.index_set_T(w, a, sign)
                        assert not ts.window_overflow
                        assert d.counting_bound_holds(ts)

    def test_window_overflow_flag(self):
        grid = d.FourierGrid(2, 10)
        w = d.ModeWeights(grid, (np.pi, 0.0), 12 * np.pi)
        ts = d.index_set_T(w, 2 * np.pi, "+")
        assert ts.window_overflow
        assert ts.in_window_count < ts.analytic_count

    def test_one_guard_refuses_inseparable_k_and_mu(self):
        # Past 2^53, k + 2 pi N no longer separates modes: the weights and the
        # fiber refuse such k or mu with the same error, and NaN in any slot.
        grid = d.FourierGrid(2, 10)
        cs = d.CoefficientSet.constant(grid)
        for k, mu in (((2.0**53, 0.0), 0.0), ((0.0, -2.0**53), 0.0), ((0.0, 0.0), 1e300),
                      ((np.nan, 0.0), 0.0), ((0.0, np.nan), 0.0), ((0.0, 0.0), np.nan)):
            with pytest.raises(d.InadmissibleParameterError, match="must stay below 2\\^53"):
                d.ModeWeights(grid, k, mu)
            with pytest.raises(d.InadmissibleParameterError, match="must stay below 2\\^53"):
                d.assemble_dpm(cs, k, mu, "+")

    def test_radius_precondition(self):
        grid = d.FourierGrid(2, 10)
        w = d.ModeWeights(grid, (np.pi, 0.0), 0.0)
        with pytest.raises(ValueError):
            d.index_set_T(w, np.pi, "+")

    def test_project(self):
        grid = d.FourierGrid(3, 16)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
        full = np.ones(grid.n_modes, dtype=bool)
        assert np.array_equal(d.project(v, full), v)
        assert np.count_nonzero(d.project(v, ~full)) == 0
        two = np.zeros(grid.n_modes, dtype=bool)
        two[[3, 11]] = True
        picked = d.project(v, two)
        assert picked[3] == v[3] and picked[11] == v[11]
        assert np.count_nonzero(picked) == 2
        assert np.array_equal(d.project(picked, two), picked)  # idempotent
        assert np.linalg.norm(picked) <= np.linalg.norm(v)


class TestCoefficientSet:
    def test_valid_constant(self):
        grid = d.FourierGrid(3, 16)
        cs = d.CoefficientSet.constant(grid, g=1.0, h=1.5, f=0.2, p=2.0, q=0.5, f_bound=1.0)
        assert cs.gamma_violations() == []

    def test_bound_violation_reported_with_coordinates(self):
        grid = d.FourierGrid(3, 16)
        g = d.PeriodicScalarField.from_modes(grid, {(0, 0): 1.0, (1, 0): 0.4, (-1, 0): 0.4})
        h = d.PeriodicScalarField.constant(grid, 1.0)
        f = d.PeriodicScalarField.constant(grid, 0.0)
        with pytest.raises(d.GammaValidationError):
            d.CoefficientSet(g=g, h=h, f=f, p=1.5, q=0.5, f_bound=0.1)
        cs = d.CoefficientSet(g=g, h=h, f=f, p=1.5, q=0.5, f_bound=0.1, strict=False)
        violations = cs.gamma_violations()
        assert violations and violations[0]["field"] == "G"
        assert "x" in violations[0]

    def test_every_sample_violating_keeps_count_and_worst(self):
        # G, H and F leave the box at every sample: 3 S^2 violations, but only
        # the 10 worst become dicts, in the order of a full sort (F first, ties
        # row-major), and the strict error names the full count.
        grid = d.FourierGrid(2, 12)
        fields = [d.PeriodicScalarField.constant(grid, v) for v in (3.0, 0.25, 2.5)]
        cs = d.CoefficientSet(*fields, p=2.0, q=0.5, f_bound=1.0, strict=False)
        x = np.arange(12) / 12
        full = []
        for name, vals, low, high in (("G", fields[0].samples().real, 0.5, 2.0),
                                      ("H", fields[1].samples().real, 0.5, 2.0),
                                      ("F", np.abs(fields[2].samples().real), -np.inf, 1.0)):
            excess = np.maximum(low - vals, vals - high)
            full += [{"field": name, "x": (float(x[i]), float(x[j])),
                      "value": float(vals[i, j]), "excess": float(excess[i, j])}
                     for i, j in np.argwhere(excess > 1e-9)]
        full.sort(key=lambda v: -v["excess"])
        assert len(full) == 3 * 12 * 12
        assert cs.gamma_violations() == full[:10]
        assert [v["x"] for v in full[:10]] == [(0.0, float(x[j])) for j in range(10)]
        with pytest.raises(d.GammaValidationError) as err:
            d.CoefficientSet(*fields, p=2.0, q=0.5, f_bound=1.0)
        assert str(err.value) == f"432 sample-grid bound violations; worst: {full[0]}"

    def test_real_field_required(self):
        grid = d.FourierGrid(3, 16)
        complex_g = d.PeriodicScalarField.from_modes(grid, {(0, 0): 1.0, (1, 0): 0.1j})
        one = d.PeriodicScalarField.constant(grid, 1.0)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        with pytest.raises(d.GammaValidationError):
            d.CoefficientSet(g=complex_g, h=one, f=zero, p=2.0, q=0.5, f_bound=1.0)

    def test_random_instances_in_box(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = d.random_gamma_instance(grid, rng)
            assert inst.gamma_violations() == []


class TestFieldIO:
    def test_records_roundtrip(self):
        grid = d.FourierGrid(3, 16)
        rng = np.random.default_rng(10)
        fld = d.random_trig_field(grid, rng, 2, 1.0, real=False)
        back = d.field_from_records(grid, d.field_to_records(fld))
        assert np.array_equal(back.coeffs, fld.coeffs)

    def test_json_schema_roundtrip(self, tmp_path):
        grid = d.FourierGrid(3, 16)
        rng = np.random.default_rng(11)
        fld = d.random_trig_field(grid, rng, 2, 1.0)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(d.field_to_json(fld)))
        back = d.load_field(path, grid)
        assert np.max(np.abs(back.coeffs - fld.coeffs)) < 1e-15

    def test_samples_kind(self):
        grid = d.FourierGrid(2, 10)
        x1, _ = grid.sample_points()
        payload = {"schema": "dirac2d.field/1", "kind": "samples",
                   "real": np.cos(2 * np.pi * x1).tolist()}
        fld = d.field_from_json(payload, grid)
        assert fld.coeffs[grid.mode_index(1, 0)] == pytest.approx(0.5, abs=1e-13)

    def test_unsupported_schema(self):
        grid = d.FourierGrid(2, 10)
        with pytest.raises(ValueError):
            d.field_from_json({"schema": "nope/9", "kind": "coefficients", "entries": []}, grid)

    def test_embed_field(self):
        small = d.FourierGrid(2, 10)
        big = d.FourierGrid(5, 22)
        rng = np.random.default_rng(12)
        fld = d.random_trig_field(small, rng, 2, 1.0)
        emb = d.embed_field(fld, big)
        pts = rng.random((5, 2))
        assert np.max(np.abs(emb.evaluate(pts) - fld.evaluate(pts))) < 1e-12
        with pytest.raises(d.GridMismatchError):
            d.embed_field(emb, small)
