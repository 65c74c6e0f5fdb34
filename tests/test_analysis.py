"""Band structure, sweeps, equivalence constants, potential functionals, averages."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import dirac2d as d
from dirac2d.analysis import power_moments


def constant_set(m=4):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    return grid, d.CoefficientSet.constant(grid)


def random_set(m=4, seed=0, **kw):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    rng = np.random.default_rng(seed)
    return grid, d.random_gamma_instance(grid, rng, **kw), rng


def forbid_full_size_solves(monkeypatch):
    """Make any eigvalsh, svdvals, zgbtrf or zgetrf of a matrix fail; batched
    calls on a stack of per-mode blocks (ndim 3) pass through."""
    for owner, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "svdvals"),
                        (scipy.linalg.lapack, "zgbtrf"), (scipy.linalg.lapack, "zgetrf")):
        def guarded(a, *args, _name=name, _original=getattr(owner, name), **kwargs):
            if np.ndim(a) == 2:
                raise AssertionError(f"full-size {_name} of shape {a.shape}")
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, guarded)


def force_route(monkeypatch, route):
    """Send every fiber down ``route`` (constant ones too)."""
    monkeypatch.setattr(d.TruncatedOperator, "route", property(lambda op: route))


def free_oracle(grid, k):
    mags = np.hypot(k[0] + 2 * np.pi * grid.n1, k[1] + 2 * np.pi * grid.n2)
    return np.sort(np.concatenate([mags, -mags]))


def test_stale_positional_grid_is_a_type_error():
    # The grid comes from the coefficients; the defaulted parameters after it
    # are keyword-only, so an old positional grid cannot land in one of them.
    grid, cs = constant_set(2)
    with pytest.raises(TypeError):
        d.band_structure(cs, None, [[0.0, 0.0]], grid)
    with pytest.raises(TypeError):
        d.sigma_min_sweep(cs, None, d.SweepConfig(), grid)
    with pytest.raises(TypeError):
        d.assemble_dirac(cs, None, (0.0, 0.0), grid)


class TestBandStructure:
    @pytest.mark.parametrize("kgrid", [[], np.empty((0, 2))])
    def test_empty_kgrid_is_inadmissible(self, kgrid):
        _, cs = constant_set(2)
        with pytest.raises(d.InadmissibleParameterError, match="kgrid"):
            d.band_structure(cs, None, kgrid)

    def test_free_oracle(self):
        grid, cs = constant_set()
        kgrid = d.brillouin_grid(4, 4)
        table = d.band_structure(cs, None, kgrid)
        assert table.mode == "eigen"
        for kp, vals in zip(table.kpoints, table.values):
            assert np.max(np.abs(vals - free_oracle(grid, kp))) < 1e-10

    def test_mass_term_gap(self):
        # V = m sigma_3: eigenvalues +-sqrt(|k + 2 pi N|^2 + m^2).
        grid, cs = constant_set(3)
        m = 0.4
        V = d.MatrixPotential.diagonal(grid, v3=m)
        kgrid = np.array([[0.0, 0.0], [0.5, 0.2]])
        table = d.band_structure(cs, V, kgrid)
        for kp, vals in zip(table.kpoints, table.values):
            mags = np.hypot(kp[0] + 2 * np.pi * grid.n1, kp[1] + 2 * np.pi * grid.n2)
            branch = np.sqrt(mags**2 + m**2)
            oracle = np.sort(np.concatenate([branch, -branch]))
            assert np.max(np.abs(vals - oracle)) < 1e-10
        # relativistic gap 2|m| at the band edge
        edge = table.values[0]
        positive = edge[edge > 0]
        negative = edge[edge < 0]
        assert positive.min() - negative.max() == pytest.approx(2 * m, abs=1e-10)

    def test_k0_zero_eigenvalue_multiplicity_two(self):
        _, cs = constant_set(3)
        table = d.band_structure(cs, None, [[0.0, 0.0]], n_bands=4)
        zeros = np.sum(np.abs(table.values[0]) < 1e-12)
        assert zeros == 2

    def test_band_selection_reproducible(self):
        grid, cs = constant_set(3)
        t1 = d.band_structure(cs, None, [[0.3, 0.4]], n_bands=6)
        t2 = d.band_structure(cs, None, [[0.3, 0.4]], n_bands=6)
        assert np.array_equal(t1.values, t2.values)
        assert np.all(np.diff(t1.values[0]) >= 0)

    def test_band_cut_keeps_pm_pairs(self):
        # The sigma_3 mass spectrum is exactly +- symmetric; at these corners
        # n_bands = 6 cuts through a degenerate |value| level.
        grid, cs = constant_set(4)
        V = d.MatrixPotential.diagonal(grid, v3=0.7)
        kgrid = [[np.pi, 0.0], [0.0, np.pi], [np.pi, np.pi]]
        table = d.band_structure(cs, V, kgrid, n_bands=6)
        for vals in table.values:
            np.testing.assert_allclose(vals, -vals[::-1], rtol=0,
                                       atol=d.TOLERANCES["band_oracle"])

    def test_weyl_continuity(self):
        # Full sorted Hermitian spectra: adjacent-k jumps are bounded by the
        # operator-norm difference of the fibers.
        grid, cs = constant_set(3)
        rng = np.random.default_rng(1)
        V = d.MatrixPotential(
            v0=d.random_trig_field(grid, rng, 1, 0.3),
            v1=d.random_trig_field(grid, rng, 1, 0.3),
            v2=d.random_trig_field(grid, rng, 1, 0.3),
            v3=d.random_trig_field(grid, rng, 1, 0.3),
        )
        ks = np.column_stack([np.linspace(0.1, 0.9, 5), np.full(5, 0.2)])
        table = d.band_structure(cs, V, ks)
        for i in range(len(ks) - 1):
            a = d.assemble_dirac(cs, V, ks[i]).matrix
            b = d.assemble_dirac(cs, V, ks[i + 1]).matrix
            gap = np.max(np.abs(table.values[i + 1] - table.values[i]))
            assert gap <= np.linalg.norm(b - a, ord=2) + 1e-10

    def test_eigen_mode_rejects_nonhermitian_fiber(self):
        _, cs, _ = random_set(seed=2)
        with pytest.raises(d.NonHermitianError):
            d.band_structure(cs, None, [[0.3, 0.3]], mode="eigen")

    def test_eigen_mode_rejects_nonhermitian_potential(self):
        grid, cs = constant_set(2)
        z = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(v0=d.PeriodicScalarField.constant(grid, 1j), v1=z, v2=z, v3=z)
        with pytest.raises(d.NonHermitianError):
            d.band_structure(cs, V, [[0.3, 0.3]], mode="eigen")

    def test_auto_falls_back_to_singular(self):
        _, cs, _ = random_set(seed=3)
        table = d.band_structure(cs, None, [[0.3, 0.3]], mode="auto")
        assert table.mode == "singular"
        assert np.all(table.values >= 0)

    def test_singular_mode_with_a_diagonal_block_takes_one_full_svdvals(self, monkeypatch):
        # Variable coefficients and a V3 mass: neither per-mode nor off-diagonal.
        grid, cs, rng = random_set(m=4, seed=13)
        V = d.MatrixPotential.diagonal(grid, v3=0.4)
        kgrid = rng.uniform(0.0, 2 * np.pi, size=(2, 2))
        svdvals = scipy.linalg.svdvals
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return svdvals(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "svdvals", counting)
        table = d.band_structure(cs, V, kgrid, mode="singular")
        assert table.mode == "singular" and table.route == "dense LAPACK"
        assert shapes == [(2 * grid.n_modes, 2 * grid.n_modes)] * len(kgrid)
        for kp, vals in zip(kgrid, table.values):
            ref = np.linalg.svd(d.assemble_dirac(cs, V, kp).matrix, compute_uv=False)[::-1]
            assert np.max(np.abs(vals - ref)) <= 1e-12 * ref[-1]

    @staticmethod
    def count_eigvalsh(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_off_diagonal_route_matches_eigvalsh(self, monkeypatch):
        # Constant coefficients plus real V1/V2: Hermitian, no diagonal blocks,
        # so the bands come from the half-size SVD, not from eigvalsh.
        grid, cs = constant_set(6)
        rng = np.random.default_rng(11)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(v0=zero, v1=d.random_trig_field(grid, rng, 2, 0.7),
                              v2=d.random_trig_field(grid, rng, 2, 0.7), v3=zero)
        kgrid = rng.uniform(0.0, 2 * np.pi, size=(4, 2))
        calls = self.count_eigvalsh(monkeypatch)
        table = d.band_structure(cs, V, kgrid)
        assert calls == [] and table.mode == "eigen"
        for kp, vals in zip(kgrid, table.values):
            a = d.assemble_dirac(cs, V, kp).matrix
            full = scipy.linalg.eigvalsh(0.5 * (a + a.conj().T))
            assert np.max(np.abs(vals - full)) <= 1e-12

    def test_singular_off_diagonal_route_matches_full_svdvals(self, monkeypatch):
        # Variable coefficients and complex V1/V2: no diagonal blocks, so the
        # singular values come from two half-size SVDs, not one full-size one.
        grid, cs, rng = random_set(m=4, seed=12)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(zero, d.random_trig_field(grid, rng, 2, 0.5, real=False),
                              d.random_trig_field(grid, rng, 2, 0.5, real=False), zero)
        kgrid = rng.uniform(0.0, 2 * np.pi, size=(3, 2))
        svdvals = scipy.linalg.svdvals
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return svdvals(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "svdvals", counting)
        table = d.band_structure(cs, V, kgrid, mode="singular")
        assert shapes == [(grid.n_modes, grid.n_modes)] * 2 * len(kgrid)
        for kp, vals in zip(kgrid, table.values):
            full = np.sort(svdvals(d.assemble_dirac(cs, V, kp).matrix))
            assert np.max(np.abs(vals - full)) <= 1e-12

    def test_diagonal_potential_keeps_eigvalsh(self, monkeypatch):
        # Constant coefficients and potential: the bands are still eigvalsh
        # values, from one batched call on the per-mode 2x2 blocks per fiber
        # and never from a full-size eigvalsh, svdvals, zgbtrf or zgetrf.
        grid, cs = constant_set(3)
        kgrid = [[0.0, 0.0], [0.5, 0.2], [1.0, 2.0]]
        potentials = (d.MatrixPotential.diagonal(grid, v0=0.2),
                      d.MatrixPotential.diagonal(grid, v3=0.3), None)
        refs = []
        for V in potentials:
            mats = [d.assemble_dirac(cs, V, k).matrix for k in kgrid]
            refs.append([scipy.linalg.eigvalsh(0.5 * (a + a.conj().T)) for a in mats])
        forbid_full_size_solves(monkeypatch)
        calls = self.count_eigvalsh(monkeypatch)
        for V, ref in zip(potentials, refs):
            table = d.band_structure(cs, V, kgrid)
            assert table.mode == "eigen"
            assert table.route == "per-mode"
            assert np.max(np.abs(table.values - np.array(ref))) <= 1e-12
        assert calls == [(grid.n_modes, 2, 2)] * 9


class TestSweep:
    def test_constant_floor_pi(self):
        _, cs = constant_set()
        sweep = d.SweepConfig(mu_grid=tuple(np.linspace(0, 6 * np.pi, 7)),
                              k2_grid=(0.0, 0.8))
        rep = d.sigma_min_sweep(cs, None, sweep)
        assert np.min(rep.min_per_mu) >= np.pi - 1e-10
        assert not rep.flagged.any()

    def test_lattice_point_kernel(self):
        # At k in 2 pi Z^2 with no shift the fiber annihilates constants: the
        # constant mode's column is exactly zero, so its per-mode block is zero
        # (and LU would meet a zero pivot) and sigma_min is exactly 0, with no
        # warning.
        _, cs = constant_set(3)
        op = d.assemble_dirac(cs, None, (0.0, 0.0))
        assert scipy.linalg.lapack.zgetrf(op.matrix)[2] > 0
        assert op.route == "per-mode"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.smallest_singular_value(op) == 0.0

    @pytest.mark.parametrize("route", ["band LU", "dense LU"])
    def test_lattice_point_kernel_zero_pivot(self, monkeypatch, route):
        # The same fiber forced through LU: zgbtrf or zgetrf meets the zero pivot.
        _, cs = constant_set(3)
        op = d.assemble_dirac(cs, None, (0.0, 0.0))
        force_route(monkeypatch, route)
        assert op.route == route
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.smallest_singular_value(op) == 0.0

    def test_lanczos_failure_falls_back_to_svd(self, monkeypatch):
        _, cs, _ = random_set(seed=4)
        op = d.assemble_dirac(cs, None, d.ComplexQuasimomentum((np.pi, 0.3), (2.0, 0.0)))

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        assert d.smallest_singular_value(op) == scipy.linalg.svdvals(op.matrix)[-1]

    @pytest.mark.parametrize("m", [3, 6, 8])
    def test_sigma_min_matches_svdvals(self, m):
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        mass = d.MatrixPotential.diagonal(grid, v3=0.3)
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            cs = d.random_gamma_instance(grid, rng)
            z = d.ComplexQuasimomentum(rng.uniform(0, 2 * np.pi, 2),
                                       (rng.uniform(0, 6 * np.pi), rng.uniform(-1, 1)))
            for V in (None, mass):
                op = d.assemble_dirac(cs, V, z)
                ref = scipy.linalg.svdvals(op.matrix)[-1]
                worst = max(worst, abs(d.smallest_singular_value(op) - ref) / max(1.0, ref))
        assert worst <= 1e-12

    def test_sigma_min_near_lattice_and_degenerate(self):
        # The free fibers take the per-mode route (see the Lanczos variant below).
        _, free = constant_set(8)
        _, gamma, _ = random_set(6, seed=9)
        cases = [(cs, (t, 0.5 * t)) for cs in (free, gamma) for t in (1e-9, 1e-6)]
        # sigma_min = pi is 4-fold at k1 = pi: modes N1 = 0, -1 in both d_+ and d_-.
        cases.append((free, (np.pi, 0.0)))
        for cs, k in cases:
            op = d.assemble_dirac(cs, None, k)
            ref = scipy.linalg.svdvals(op.matrix)[-1]
            assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * max(1.0, ref)
        assert ref == pytest.approx(np.pi, abs=1e-12)

    @pytest.mark.parametrize("route", ["band LU", "dense LU"])
    def test_free_sigma_min_on_lanczos_routes(self, monkeypatch, route):
        # The free fibers of the test above forced through LU + Lanczos, the
        # 4-fold degenerate sigma_min = pi at k1 = pi included.
        _, free = constant_set(8)
        ops = [d.assemble_dirac(free, None, k)
               for k in ((1e-9, 5e-10), (1e-6, 5e-7), (np.pi, 0.0))]
        refs = [scipy.linalg.svdvals(op.matrix)[-1] for op in ops]
        force_route(monkeypatch, route)
        for op, ref in zip(ops, refs):
            assert op.route == route
            assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * max(1.0, ref)
        assert refs[-1] == pytest.approx(np.pi, abs=1e-12)

    def test_nan_sigma_min_is_flagged(self, monkeypatch):
        # A NaN minimum compares false with the floor; it must still be flagged.
        _, cs = constant_set(3)
        monkeypatch.setattr(d.analysis, "smallest_singular_value",
                            lambda op, **kwargs: float("nan"))
        rep = d.sigma_min_sweep(cs, None, d.SweepConfig(mu_grid=(0.0, 1.0), k2_grid=(0.0,)))
        assert np.all(np.isnan(rep.min_per_mu)) and rep.flagged.tolist() == [True, True]
        assert rep.floor_log_intercept is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("variable", [False, True])
    def test_non_finite_kappa_is_inadmissible(self, bad, variable):
        # Else a band-LU fiber gives sigma_min 0.0, a false certificate
        # failure, and a per-mode one a bare LinAlgError.
        cs = random_set(4, seed=5)[1] if variable else constant_set(4)[1]
        op = d.assemble_dirac(cs, None, (np.pi, 0.3))
        assert op.route == ("band LU" if variable else "per-mode")
        for kappa in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(d.InadmissibleParameterError, match="kappa"):
                d.smallest_singular_value(d.assemble_dirac(
                    cs, None, d.ComplexQuasimomentum((np.pi, 0.3), kappa)))

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_reused_column_order_keeps_the_bits(self, monkeypatch, m):
        # A sweep takes one banded LU per point and keeps nothing between
        # points; every sigma has the bits of a fresh smallest_singular_value
        # of the same fiber.  The k2 = 0 line has exact zeros on the diagonal
        # of its symbols.
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        rng = np.random.default_rng(60 + m)
        cs = d.random_gamma_instance(grid, rng, degree=1 if m == 4 else 2)
        sweep = d.SweepConfig(mu_grid=(0.0, 3.0, 11.0), k2_grid=(0.0, rng.uniform(0, 2 * np.pi)))
        for V in (None, d.MatrixPotential.diagonal(grid, v3=0.3)):
            refs = [d.smallest_singular_value(d.assemble_dirac(
                cs, V, d.ComplexQuasimomentum((np.pi, k2), (mu, 0.0))))
                for mu in sweep.mu_grid for k2 in sweep.k2_grid]
            with monkeypatch.context() as mp:
                calls = count_band_lu(mp)
                rep = d.sigma_min_sweep(cs, V, sweep)
            assert rep.route == "band LU"
            assert len(calls) == len(refs)
            assert rep.sigma.tobytes() == np.array(refs).reshape(rep.sigma.shape).tobytes()

    def test_one_colamd_order_per_sweep(self, monkeypatch):
        # One banded LU per point, of the interleaved fiber's band (M = 6,
        # degree 2: kl = ku = 2 (2 * 14) + 1); a second sweep repeats them.
        grid, cs, rng = random_set(6, seed=21)
        mass = d.MatrixPotential.diagonal(grid, v3=0.3)
        sweep = d.SweepConfig(mu_grid=tuple(np.linspace(0, 20 * np.pi, 7)),
                              k2_grid=(rng.uniform(0, 2 * np.pi),))
        calls = count_band_lu(monkeypatch)
        rep = d.sigma_min_sweep(cs, mass, sweep)
        assert rep.route == "band LU" and rep.half_bandwidths == (57, 57)
        assert calls == [(2 * grid.n_modes, 57, 57)] * 7
        d.sigma_min_sweep(cs, mass, sweep)
        assert calls[7:] == calls[:7]

    def test_one_band_array_per_point(self, monkeypatch):
        # The report reads the operator's half-bandwidths: n points build n
        # band arrays, none after the last.
        grid, cs, _ = random_set(6, seed=23)
        calls = []
        band_storage = d.operators.band_storage

        def counting(*args):
            calls.append(1)
            return band_storage(*args)
        for module in (d.operators, d.analysis):  # wherever a caller looks it up
            monkeypatch.setattr(module, "band_storage", counting, raising=False)
        sweep = d.SweepConfig(mu_grid=(0.0, 2.0, 4.0), k2_grid=(0.3, 1.1))
        rep = d.sigma_min_sweep(cs, None, sweep)
        assert rep.route == "band LU" and rep.half_bandwidths == (57, 57)
        assert len(calls) == 6

    def test_zero_pivot_on_a_reused_order(self, monkeypatch):
        # A zero pivot (info > 0) at the middle point gives 0.0, flagged; its
        # neighbours keep their bits.
        grid, cs, rng = random_set(6, seed=22)
        mass = d.MatrixPotential.diagonal(grid, v3=0.3)
        sweep = d.SweepConfig(mu_grid=(0.0, 2.0, 4.0), k2_grid=(rng.uniform(0, 2 * np.pi),))
        ref = d.sigma_min_sweep(cs, mass, sweep)
        calls = []
        zgbtrf = scipy.linalg.lapack.zgbtrf

        def failing_once(*args, **kwargs):
            calls.append(1)
            lu, piv, info = zgbtrf(*args, **kwargs)
            return lu, piv, 1 if len(calls) == 2 else info
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", failing_once)
        rep = d.sigma_min_sweep(cs, mass, sweep)
        assert len(calls) == 3
        assert rep.sigma[1, 0] == 0.0 and rep.flagged.tolist() == [False, True, False]
        assert rep.sigma[[0, 2]].tobytes() == ref.sigma[[0, 2]].tobytes()

    @pytest.mark.parametrize("name, value", [
        ("mu_grid", ()), ("k2_grid", ()), ("mu_grid", (0.0, float("nan"))),
        ("k2_grid", (float("nan"),)), ("k_prime", (float("nan"), 0.0)),
        ("kappa_prime", (0.0, float("nan"))), ("mu_grid", (float("inf"),))])
    def test_config_refuses_empty_or_nan(self, name, value):
        with pytest.raises(d.InadmissibleParameterError, match=name):
            d.SweepConfig(**{name: value})

    def test_sweep_repeats_bytes(self):
        _, cs, _ = random_set(seed=6)
        sweep = d.SweepConfig(mu_grid=(0.0, np.pi, 3.0), k2_grid=(0.0, 0.4))
        mass = d.MatrixPotential.diagonal(cs.grid, v3=0.3)
        a = d.sigma_min_sweep(cs, mass, sweep)
        b = d.sigma_min_sweep(cs, mass, sweep)
        assert np.array_equal(a.sigma, b.sigma)

    def test_positive_off_lattice(self):
        _, cs, _ = random_set(seed=4)
        op = d.assemble_dirac(cs, None, (1.0, 0.7))
        assert d.smallest_singular_value(op) > 1e-6

    def test_direction_must_be_unit(self):
        with pytest.raises(d.InadmissibleParameterError):
            d.SweepConfig(direction=(2.0, 0.0))

    def test_rows_and_floor_fit(self):
        _, cs = constant_set(3)
        sweep = d.SweepConfig(mu_grid=(0.0, np.pi, 2 * np.pi), k2_grid=(0.0,))
        rep = d.sigma_min_sweep(cs, None, sweep)
        rows = list(rep.rows())
        assert len(rows) == 3
        assert rep.floor_log_intercept is not None

    def test_drivers_take_no_workers(self):
        # Per-fiber work runs serially; the thread-pool parameter is gone.
        _, cs = constant_set(3)
        with pytest.raises(TypeError):
            d.band_structure(cs, None, [[0.0, 0.0]], workers=2)
        with pytest.raises(TypeError):
            d.sigma_min_sweep(cs, None, d.SweepConfig(), workers=2)


class TestEquivalenceConstants:
    def test_constant_case_unity(self):
        _, cs = constant_set()
        c1, c2 = d.estimate_c1_c2(cs, (np.pi, 0.3), 0.0)
        assert c1 == pytest.approx(1.0, abs=1e-10)
        assert c2 == pytest.approx(1.0, abs=1e-10)

    def test_scaling_homogeneity(self):
        grid = d.FourierGrid(4, 18)
        s = 1.7
        cs = d.CoefficientSet.constant(grid, g=s, h=s)
        c1, c2 = d.estimate_c1_c2(cs, (0.9, 0.4), 0.0)
        assert c1 == pytest.approx(s**2, abs=1e-9)
        assert c2 == pytest.approx(s**2, abs=1e-9)

    def test_ordering_and_positivity(self):
        _, cs, _ = random_set(seed=6)
        c1, c2 = d.estimate_c1_c2(cs, (np.pi, 0.3), 2 * np.pi)
        assert 0 < c1 <= c2

    def test_lanczos_failure_falls_back_to_svdvals(self, monkeypatch):
        # Both extremes of each weighted d_pm come from svdvals when ARPACK fails.
        grid, cs, _ = random_set(seed=14)
        k, mu = (np.pi, 0.3), 2 * np.pi
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(1)
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        c1, c2 = d.estimate_c1_c2(cs, k, mu)
        assert len(calls) == 4
        weights = d.ModeWeights(grid, k, mu)
        ref = [scipy.linalg.svdvals(d.assemble_dpm(cs, k, mu, s).matrix / w[None, :])
               for s, w in (("+", weights.g_plus), ("-", weights.g_minus))]
        assert c1 == pytest.approx(min(r[-1] ** 2 for r in ref), rel=1e-12)
        assert c2 == pytest.approx(max(r[0] ** 2 for r in ref), rel=1e-12)

    def test_singular_weight_error(self):
        _, cs = constant_set(2)
        with pytest.raises(d.SingularWeightError):
            d.estimate_c1_c2(cs, (0.0, 0.0), 0.0)


    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_sparse_route_matches_svdvals_oracle(self, monkeypatch, m):
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        rng = np.random.default_rng(80 + m)
        cs = d.random_gamma_instance(grid, rng, degree=1 if m == 4 else 2)
        calls = count_band_lu(monkeypatch)
        for k, mu in (((np.pi, 0.3), 2 * np.pi), ((0.9, 0.4), 0.0), ((np.pi, 0.0), 16 * np.pi)):
            c1, c2 = d.estimate_c1_c2(cs, k, mu)
            weights = d.ModeWeights(grid, k, mu)
            ref = [scipy.linalg.svdvals(d.assemble_dpm(cs, k, mu, s).matrix / w[None, :])
                   for s, w in (("+", weights.g_plus), ("-", weights.g_minus))]
            assert c1 == pytest.approx(min(r[-1] ** 2 for r in ref), rel=1e-10)
            assert c2 == pytest.approx(max(r[0] ** 2 for r in ref), rel=1e-10)
        assert len(calls) == 6


def count_band_lu(monkeypatch):
    """Record (n, kl, ku) of every banded LU taken; each must factor a
    Fortran-ordered band array in place."""
    calls = []
    zgbtrf = scipy.linalg.lapack.zgbtrf

    def counting(ab, kl, ku, **kwargs):
        assert ab.flags.f_contiguous and kwargs.get("overwrite_ab") == 1
        calls.append((ab.shape[1], kl, ku))
        return zgbtrf(ab, kl, ku, **kwargs)
    monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", counting)
    return calls


class TestSparseRoute:
    @pytest.mark.parametrize("m", [3, 6, 12])
    def test_sigma_min_matches_dense_lu_and_svdvals(self, monkeypatch, m):
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        rng = np.random.default_rng(90 + m)
        mass = d.MatrixPotential.diagonal(grid, v3=0.3)
        ops = [d.assemble_dirac(d.CoefficientSet.constant(grid), mass,
                                d.ComplexQuasimomentum((np.pi, 0.4), (2.0, 0.0)))]
        cs = d.random_gamma_instance(grid, rng, degree=1)
        z = d.ComplexQuasimomentum(rng.uniform(0, 2 * np.pi, 2),
                                   (rng.uniform(0, 6 * np.pi), rng.uniform(-1, 1)))
        ops += [d.assemble_dirac(cs, None, z), d.assemble_dirac(cs, mass, z)]
        # The constant fiber reads its per-mode blocks: no full-size solve.
        with monkeypatch.context() as mp:
            forbid_full_size_solves(mp)
            sparse = [d.smallest_singular_value(ops[0])]
        calls = count_band_lu(monkeypatch)
        sparse += [d.smallest_singular_value(op) for op in ops[1:]]
        assert [op.route for op in ops] == ["per-mode", "band LU", "band LU"]
        assert len(calls) == 2
        # Forced to dense LU, every fiber, the constant one too, takes zgetrf.
        force_route(monkeypatch, "dense LU")
        assert [op.route for op in ops] == ["dense LU"] * 3
        dense = [d.smallest_singular_value(op) for op in ops]
        assert len(calls) == 2
        for op, s, lu in zip(ops, sparse, dense):
            ref = scipy.linalg.svdvals(op.matrix)[-1]
            assert abs(s - lu) <= 1e-12 * lu
            assert abs(s - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("m, b", [(5, 2), (6, 2), (4, 2), (6, 3), (8, 4)],
                             ids=["5", "6", "4-2", "6-3", "8-4"])
    def test_degree_two_below_m8_takes_band_lu(self, monkeypatch, m, b):
        # A band of 2 kl + ku + 1 < dim rows takes one banded LU per fiber; at
        # b = M/2 that is 0.75 dim (kl = ku = 2b(2M + 2) + 1).
        grid, cs, rng = random_set(m, seed=100 + m, degree=b)
        z = d.ComplexQuasimomentum(rng.uniform(0, 2 * np.pi, 2),
                                   (rng.uniform(0, 6 * np.pi), rng.uniform(-1, 1)))
        ops = [d.assemble_dirac(cs, V, z)
               for V in (None, d.MatrixPotential.diagonal(grid, v3=0.3))]
        calls = count_band_lu(monkeypatch)
        for op in ops:
            assert op.route == "band LU"
            ref = scipy.linalg.svdvals(op.matrix)[-1]
            assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * ref
        kl = 2 * b * (2 * m + 2) + 1
        assert calls == [(ops[0].dim, kl, kl)] * 2

    def test_band_wider_than_the_fiber_takes_dense_lu(self, monkeypatch):
        # M = 3, b = 2: kl = ku = 33, so the band array would hold 100 rows
        # against the fiber's 98; zgetrf factors it.
        grid, cs, rng = random_set(3, seed=103)
        op = d.assemble_dirac(cs, d.MatrixPotential.diagonal(grid, v3=0.3),
                              d.ComplexQuasimomentum((np.pi, 0.4), (2.0, 0.0)))
        assert op.half_bandwidths == (33, 33) and op.dim == 98
        assert op.route == "dense LU"
        calls = count_band_lu(monkeypatch)
        ref = scipy.linalg.svdvals(op.matrix)[-1]
        assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * ref
        assert calls == []

    def test_m16_sweep_point_stays_banded_in_memory(self):
        # One dense M = 16 fiber takes 2178^2 x 16 B (72 MiB); the band
        # storage of its interleaved form, 2 kl + ku + 1 = 412 rows, 14 MiB.
        grid, cs, _ = random_set(16, seed=26)
        mass = d.MatrixPotential.diagonal(grid, v3=0.3)
        sweep = d.SweepConfig(mu_grid=(3.0,), k2_grid=(0.7,))
        _, small, _ = random_set(3, seed=26, degree=1)
        d.sigma_min_sweep(small, None, sweep)  # first-call imports stay out of the trace
        tracemalloc.start()
        try:
            rep = d.sigma_min_sweep(cs, mass, sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.route == "band LU" and rep.half_bandwidths == (137, 137)
        assert peak < (2 * grid.n_modes) ** 2 * 16 / 4

    def test_full_support_field_never_reaches_splu(self, monkeypatch):
        # Nor the banded LU: such a fiber's band would be the whole matrix.
        # G sampled on the grid: rounding leaves every coefficient nonzero.
        grid = d.FourierGrid(6, 26)
        x1, x2 = grid.sample_points()
        g = d.sample_to_fourier(1.2 + 0.2 * np.cos(2 * np.pi * x1), grid)
        cs = d.CoefficientSet(g=g, h=d.PeriodicScalarField.constant(grid, 1.0),
                              f=d.PeriodicScalarField.constant(grid, 0.0),
                              p=2.0, q=0.5, f_bound=1.0)
        assert g.band_radius == 6 and not d.operators._band_limited([(0, 0, g, None)])

        def no_band_lu(*args, **kwargs):
            raise AssertionError("a full-support fiber reached zgbtrf")
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf", no_band_lu)
        op = d.assemble_dirac(cs, None, d.ComplexQuasimomentum((np.pi, 0.3), (2.0, 0.0)))
        assert op.route == "dense LU"
        assert d.smallest_singular_value(op) == pytest.approx(
            scipy.linalg.svdvals(op.matrix)[-1], rel=1e-12)
        d.estimate_c1_c2(cs, (np.pi, 0.3), 2 * np.pi)
        d.band_structure(cs, None, [[0.3, 0.2]])


class TestPerModeRoute:
    """Constant coefficients and potential: every mode is its own 2x2 block."""

    @pytest.mark.parametrize("v0", [0.0, 0.2])
    def test_mass_bands_match_closed_form(self, monkeypatch, v0):
        # V0 + m sigma_3: eigenvalues V0 +- sqrt(|k + 2 pi N|^2 + m^2).
        grid, cs = constant_set(8)
        m = 0.3
        kgrid = d.brillouin_grid(8, 8)
        forbid_full_size_solves(monkeypatch)
        table = d.band_structure(cs, d.MatrixPotential.diagonal(grid, v0=v0, v3=m), kgrid)
        assert table.mode == "eigen" and table.route == "per-mode"
        for kp, vals in zip(table.kpoints, table.values):
            mags = np.hypot(kp[0] + 2 * np.pi * grid.n1, kp[1] + 2 * np.pi * grid.n2)
            branch = np.sqrt(mags**2 + m**2)
            oracle = np.sort(np.concatenate([v0 - branch, v0 + branch]))
            assert np.max(np.abs(vals - oracle)) <= 1e-13

    def test_singular_mode_with_complex_v1_v2(self, monkeypatch):
        grid = d.FourierGrid(4, 18)
        cs = d.CoefficientSet.constant(grid, g=1.3, h=0.8, f=0.2)
        const = lambda v: d.PeriodicScalarField.constant(grid, v)  # noqa: E731
        V = d.MatrixPotential(const(0.1 - 0.2j), const(0.3 + 0.2j), const(-0.1 + 0.4j),
                              const(0.05j))
        kgrid = np.random.default_rng(5).uniform(0.0, 2 * np.pi, size=(3, 2))
        refs = [np.sort(scipy.linalg.svdvals(d.assemble_dirac(cs, V, k).matrix)) for k in kgrid]
        forbid_full_size_solves(monkeypatch)
        table = d.band_structure(cs, V, kgrid, mode="singular")
        assert table.route == "per-mode"
        assert np.max(np.abs(table.values - np.array(refs))) <= 1e-12

    @pytest.mark.parametrize("m", [3, 6])
    def test_sigma_min_at_complex_k(self, monkeypatch, m):
        grid = d.FourierGrid(m, 2 * (2 * m + 1))
        rng = np.random.default_rng(40 + m)
        cs = d.CoefficientSet.constant(grid, g=1.1, h=0.9, f=0.3)
        mass = d.MatrixPotential.diagonal(grid, v0=0.1, v3=0.3)
        ops = [d.assemble_dirac(cs, V, d.ComplexQuasimomentum(
                   rng.uniform(0, 2 * np.pi, 2), (rng.uniform(0, 6 * np.pi), rng.uniform(-1, 1))))
               for V in (None, mass) for _ in range(3)]
        refs = [scipy.linalg.svdvals(op.matrix)[-1] for op in ops]
        forbid_full_size_solves(monkeypatch)
        for op, ref in zip(ops, refs):
            assert op.route == "per-mode"
            assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * max(1.0, ref)

    def test_equivalence_constants_are_one(self, monkeypatch):
        _, cs = constant_set(6)
        forbid_full_size_solves(monkeypatch)
        for k, mu in (((np.pi, 0.3), 0.0), ((0.9, 0.4), 2 * np.pi), ((np.pi, 0.0), 16 * np.pi)):
            c1, c2 = d.estimate_c1_c2(cs, k, mu)
            assert abs(c1 - 1.0) <= 1e-12 and abs(c2 - 1.0) <= 1e-12

    def test_one_nonconstant_field_keeps_splu_and_eigvalsh(self, monkeypatch):
        # A band-limited V3 of band radius 1: the fiber keeps the banded LU.
        grid, cs = constant_set(4)
        rng = np.random.default_rng(3)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        V = d.MatrixPotential(zero, zero, zero, d.random_trig_field(grid, rng, 1, 0.3))
        op = d.assemble_dirac(cs, V, d.ComplexQuasimomentum((np.pi, 0.4), (2.0, 0.0)))
        assert op.route == "band LU"
        ref = scipy.linalg.svdvals(op.matrix)[-1]
        band_calls = count_band_lu(monkeypatch)
        eigvalsh_calls = TestBandStructure.count_eigvalsh(monkeypatch)
        assert abs(d.smallest_singular_value(op) - ref) <= 1e-12 * ref
        table = d.band_structure(cs, V, [[0.3, 0.2]])
        assert table.route == "dense LAPACK"
        # V3's mode offsets reach 1 * 9 + 1 on side 9, interleaved 2 * 10 = 20.
        assert band_calls == [(op.dim, 20, 20)]
        assert eigvalsh_calls == [(op.dim, op.dim)]


class TestPotentialProfile:
    def test_constant_closed_forms(self):
        grid = d.FourierGrid(3, 16)
        c = 0.8
        w = d.PeriodicScalarField.constant(grid, c)
        prof = d.potential_profile(w, b_grid=[0.0, 0.4, 0.8, 1.0],
                                   count_grid=[1, 4, 16], t_grid=[2 * np.pi, 8 * np.pi])
        # ||W_b|| = c for b < c and 0 at or above it (strict threshold).
        assert np.allclose(prof.wb_norm(prof.b_grid), [c, c, 0.0, 0.0], atol=1e-12)
        # f_W(N) = c for N >= 1.
        assert np.allclose(prof.f_of(prof.count_grid), c, atol=1e-12)
        # C_eps = c for every eps, so h_W(t) = c/t up to the smallest grid eps.
        assert np.allclose(prof.c_eps, c, atol=1e-9)
        for t, h in zip(prof.t_grid, prof.h_of(prof.t_grid)):
            assert h == pytest.approx(c / t, abs=2e-8)

    def test_zero_potential(self):
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.constant(grid, 0.0)
        prof = d.potential_profile(w, b_grid=[0.0, 1.0], count_grid=[1, 4],
                                   t_grid=[2 * np.pi])
        assert np.allclose(prof.wb_norm(prof.b_grid), 0.0)
        assert np.allclose(prof.f_of(prof.count_grid), 0.0, atol=1e-12)
        assert np.allclose(prof.c_eps, 0.0, atol=1e-12)

    def test_monotonicity_tables(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(7)
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
        prof = d.potential_profile(w)
        assert np.all(np.diff(prof.wb_norm(prof.b_grid)) <= 1e-12)
        assert np.all(np.diff(prof.f_of(prof.count_grid)) >= -1e-12)
        assert np.all(np.diff(prof.h_of(prof.t_grid)) <= 1e-12)
        assert np.all(np.diff(prof.htilde_of(prof.b_grid)) <= 1e-12)
        assert np.all(np.diff(prof.c_eps) <= 1e-12)
        # f_W(N)/sqrt(N) is nonincreasing over the whole count grid.
        ratio = prof.f_of(prof.count_grid) / np.sqrt(prof.count_grid)
        assert np.all(np.diff(ratio) <= 1e-12)

    def test_tables_are_the_methods_on_their_grids(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(7)
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
        prof = d.potential_profile(w, b_grid=[0.0, 0.3, 0.9, 5.0])
        for method, points in ((prof.wb_norm, prof.b_grid), (prof.f_of, prof.count_grid),
                               (prof.h_of, prof.t_grid), (prof.htilde_of, prof.b_grid)):
            assert np.array_equal(method(points), [method(x) for x in points])
        # ||W_b|| = 0 above the largest sample: htilde falls back to the smallest eps.
        assert prof.wb_norm(prof.b_grid[-1]) == 0.0
        assert prof.htilde_of(prof.b_grid[-1]) == prof.eps_grid.min()

    def test_empty_grid_rejected(self):
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.constant(grid, 1.0)
        with pytest.raises(ValueError):
            d.potential_profile(w, b_grid=[])

    def test_projection_norm_bound(self):
        # ||W P^O|| <= f_W(#O) for random finite mode sets; the sampled
        # threshold norms carry a small quadrature slack.
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(8)
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
        prof = d.potential_profile(w)
        conv = d.multiplication_operator(w).matrix
        for size in (1, 4, 16):
            cols = rng.choice(grid.n_modes, size=size, replace=False)
            opnorm = scipy.linalg.svdvals(conv[:, cols])[0]
            assert opnorm <= prof.f_of(size) * (1 + 2e-2)

    def test_select_threshold_b(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(9)
        w = d.random_trig_field(grid, rng, 2, 0.5, zero_mean=False)
        prof = d.potential_profile(w)
        b = d.select_threshold_b(prof, c1=1.0)
        assert b is not None
        assert prof.htilde_of(b) ** 2 <= 1.0 / 192.0 + 1e-12
        assert d.select_threshold_b(prof, c1=1e-20) is None


def plain_relative_bound_constants(w, eps_grid):
    """C_eps(W) from a dense eigvalsh at every corner and eps: the plain max."""
    grid = w.grid
    c = d.multiplication_operator(w).matrix
    ctc = c.conj().T @ c
    if np.max(np.abs(ctc)) == 0.0:
        return np.zeros(eps_grid.size)
    d2_list = [(k1 + 2 * np.pi * grid.n1) ** 2 + (k2 + 2 * np.pi * grid.n2) ** 2
               for k1, k2 in d.DEFAULTS["quasimomentum_corners"]]
    out = np.empty(eps_grid.size)
    for i, eps in enumerate(eps_grid):
        best = max(np.linalg.eigvalsh(ctc - (eps**2) * np.diag(d2))[-1] for d2 in d2_list)
        out[i] = np.sqrt(max(best, 0.0))
    return out


# Unsorted, with a repeated value, from 1e-12 (the corners all but tie) to 30.
FUZZ_EPS = np.array([1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 30.0,
                     0.5, 1e-3, 1.0])


def fuzz_w(kind, m, amplitude, seed):
    grid = d.FourierGrid(m, 2 * (2 * m + 1))
    if kind == "constant":
        return d.PeriodicScalarField.constant(grid, amplitude)
    if kind == "zero":
        return d.PeriodicScalarField.constant(grid, 0.0)
    rng = np.random.default_rng(seed)
    return d.random_trig_field(grid, rng, int(rng.integers(1, m + 1)), amplitude,
                               zero_mean=False, real=kind == "real")


FUZZ_CASES = [(kind, m, amp) for kind in ("real", "complex", "constant")
              for m, amp in ((1, 1e-3), (2, 0.7), (3, 1e3), (4, 5.0), (5, 0.05), (6, 30.0))] \
    + [("zero", 2, 0.0)]


class TestRelativeBoundConstants:
    @pytest.mark.parametrize("kind,m,amplitude", FUZZ_CASES)
    def test_same_bits_as_plain_max(self, kind, m, amplitude):
        w = fuzz_w(kind, m, amplitude, seed=m)
        assert np.array_equal(d.analysis._relative_bound_constants(w, FUZZ_EPS),
                              plain_relative_bound_constants(w, FUZZ_EPS))

    @pytest.mark.parametrize("kind,m,amplitude", FUZZ_CASES[::3])
    def test_coercivity_c7_same_bits(self, kind, m, amplitude):
        v0 = fuzz_w(kind, m, amplitude, seed=m)
        v3 = fuzz_w("real", m, 0.5 * amplitude, seed=m + 100)
        rep = d.verify_coercivity(d.CoefficientSet.constant(v0.grid), v0, v3, v0 * 0.0,
                                  16 * np.pi, 4 * np.pi, (np.pi, 0.0), trials=1)
        c7 = 1.0 + max(plain_relative_bound_constants(w, np.ones(1))[0]
                       for w in (v0 + v3, v0 - v3)) / np.pi
        assert rep.c7 == c7

    def test_cholesky_completes_only_on_positive_definite(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        gram = a @ a.conj().T
        assert d.analysis._cholesky_completes(gram + np.eye(40))
        shift = np.linalg.eigvalsh(gram)[1]  # one negative eigenvalue left
        for bad in (gram - shift * np.eye(40), -np.eye(3)):
            assert not d.analysis._cholesky_completes(bad)
        for value in (np.nan, np.inf):
            b = np.eye(3, dtype=complex)
            b[2, 2] = value
            assert not d.analysis._cholesky_completes(b)
        b = np.eye(3, dtype=complex)
        b[2, 0] = np.nan
        assert not d.analysis._cholesky_completes(b)

    def test_overflowing_potential_raises(self):
        # Refused before any eigvalsh, so no overflow warning is raised
        # (the suite turns RuntimeWarnings into errors).
        w = d.PeriodicScalarField.constant(d.FourierGrid(2, 12), 1e160)
        with pytest.raises(d.InadmissibleParameterError, match=r"\|W\|\^2"):
            d.potential_profile(w)
        with pytest.raises(d.InadmissibleParameterError, match=r"C_W\^H C_W"):
            d.analysis._relative_bound_constants(w, np.ones(1))

    def test_overflowing_eps_raises(self):
        w = d.PeriodicScalarField.constant(d.FourierGrid(2, 12), 1.0)
        with pytest.raises(d.InadmissibleParameterError, match="eps = 1e"):
            d.potential_profile(w, eps_grid=[1e-2, 1e160])

    def test_shipped_profile_solves_one_corner_per_eps(self, monkeypatch, tmp_path):
        # Three of the four corners are certified below the first one's top
        # eigenvalue by numpy's Cholesky factorisation, except at eps = 1e-8,
        # where they tie.  Not scipy's: it would alternate with eigvalsh
        # between two OpenBLAS copies, whose threads contend.
        from dirac2d import cli
        config = Path(__file__).resolve().parents[1] / "configs" / "variable_smooth.yaml"
        w = cli.RunContext(cli.load_config(config), "profile", config,
                           tmp_path / "o").field("profile.w")
        for owner, name in ((scipy.linalg, "cho_factor"), (scipy.linalg.lapack, "zpotrf")):
            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")
            monkeypatch.setattr(owner, name, forbidden)
        factored = []
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            factored.append(a.shape)
            return cholesky(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        calls = TestBandStructure.count_eigvalsh(monkeypatch)
        prof = d.potential_profile(w)
        n = w.grid.n_modes
        assert prof.eps_grid.size == 9 and n == 289
        assert calls == [(n, n)] * 12
        assert factored == [(n, n)] * 27


@pytest.fixture(scope="module")
def multiplier_setup():
    grid = d.FourierGrid(10, 42)
    rng = np.random.default_rng(10)
    w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
    return {
        "grid": grid,
        "w": w,
        "prof": d.potential_profile(w),
        "mu": 8 * np.pi,
        "weights": d.ModeWeights(grid, (np.pi, 0.0), 8 * np.pi),
        "mult": d.multiplication_operator(w),
        "rng": rng,
    }


class TestMultiplierBounds:
    """Numerical consequences of the relative-bound machinery."""

    @pytest.fixture(autouse=True)
    def _bind(self, multiplier_setup):
        s = multiplier_setup
        self.grid, self.w, self.prof = s["grid"], s["w"], s["prof"]
        self.mu, self.weights, self.mult = s["mu"], s["weights"], s["mult"]
        self.rng = s["rng"]

    def _random_on(self, mask):
        v = self.rng.standard_normal(self.grid.n_modes) \
            + 1j * self.rng.standard_normal(self.grid.n_modes)
        return d.project(v, mask)

    def test_c7_bound_on_inner_supports(self):
        # ||W phi|| <= (1 + C_1(W)/pi) ||phi||_* for phi supported in T(mu/2).
        for sign, variant in (("+", "star_plus"), ("-", "star_minus")):
            ts = d.index_set_T(self.weights, self.mu / 2, sign)
            assert not ts.window_overflow
            for _ in range(10):
                phi = self._random_on(ts.mask)
                lhs = np.linalg.norm(self.mult.apply(phi))
                star = d.weighted_norm(phi, self.weights, "star")
                assert lhs <= self.prof.c7 * star * (1 + 1e-9)
                # on these supports the star and signed norms coincide
                assert star == pytest.approx(
                    d.weighted_norm(phi, self.weights, variant), rel=1e-12)

    def test_h_bound_on_annulus(self):
        # ||W phi|| <= h_W(a) ||phi||_* for phi supported in T(mu/2) \ T(a).
        a = 4 * np.pi
        for sign in ("+", "-"):
            outer = d.index_set_T(self.weights, self.mu / 2, sign)
            inner = d.index_set_T(self.weights, a, sign)
            annulus = outer.mask & ~inner.mask
            bound = self.prof.h_of(a)
            for _ in range(10):
                phi = self._random_on(annulus)
                lhs = np.linalg.norm(self.mult.apply(phi))
                assert lhs <= bound * d.weighted_norm(phi, self.weights, "star") * (1 + 1e-9)

    def test_3h_bound_off_both_sets(self):
        # ||W phi|| <= 3 h_W(mu) ||phi||_* off T^+(mu/2) union T^-(mu/2).
        tp = d.index_set_T(self.weights, self.mu / 2, "+")
        tm = d.index_set_T(self.weights, self.mu / 2, "-")
        outside = ~(tp.mask | tm.mask)
        bound = 3 * self.prof.h_of(self.mu)
        for _ in range(10):
            phi = self._random_on(outside)
            lhs = np.linalg.norm(self.mult.apply(phi))
            assert lhs <= bound * d.weighted_norm(phi, self.weights, "star") * (1 + 1e-9)

    def test_htilde_bound_at_b0(self):
        # W_0 = W wherever W is nonzero, so ||W phi|| <= htilde(0) ||phi||_{*,pm}.
        bound = self.prof.htilde_of(0.0)
        for variant in ("star_plus", "star_minus"):
            for _ in range(5):
                v = self.rng.standard_normal(self.grid.n_modes) \
                    + 1j * self.rng.standard_normal(self.grid.n_modes)
                lhs = np.linalg.norm(self.mult.apply(v))
                assert lhs <= bound * d.weighted_norm(v, self.weights, variant) * (1 + 1e-9)


class TestWiener:
    def test_orthogonality_trivial(self):
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.constant(grid, 1.0)
        psi = d.PeriodicScalarField.constant(grid, 0.0)
        rep = d.wiener_average(w, psi, 64, 0.5)
        assert np.max(rep.averages) < 1e-24

    def test_single_resonance(self):
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.from_modes(grid, {(0, 1): 1.0})
        psi = d.PeriodicScalarField.constant(grid, 0.0)
        rep = d.wiener_average(w, psi, 128, 0.5)
        n = np.arange(1, 129)
        assert np.max(np.abs(rep.averages - 1.0 / n)) < 1e-12
        assert rep.m_plus == (1,)
        assert rep.density_plus == pytest.approx(1.0 / 128)

    def test_resolution_error(self):
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.constant(grid, 1.0)
        psi = d.PeriodicScalarField.constant(grid, 0.0)
        with pytest.raises(d.ResolutionError):
            d.wiener_average(w, psi, 256, 0.5, resolution=(16, 64))

    def test_gauge_psi_decay(self):
        grid = d.FourierGrid(6, 26)
        rng = np.random.default_rng(11)
        inst = d.random_gamma_instance(grid, rng, degree=2, variation=0.3)
        can = d.solve_canonical_gauge(inst)
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
        rep = d.wiener_average(w, can.psi, 256, 0.1)
        assert rep.average_at(256) < rep.average_at(64)

    # 300 points fill part of one block of the kernel; 4999 are two full
    # blocks and a zero-padded tail.
    @pytest.mark.parametrize("n_max", [1, 2, 15, 16, 17, 50, 257, 1024])
    @pytest.mark.parametrize("radius", [1.0, 1.0 - 1e-3, 1.0 + 1e-3])
    @pytest.mark.parametrize("points", [300, 4999])
    def test_power_moments_match_running_product(self, n_max, radius, points):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        z = radius * np.exp(1j * rng.standard_normal(points))
        fast = power_moments(w, z, n_max)
        assert fast.shape == (n_max,)
        p, slow = w.copy(), np.empty(n_max, dtype=complex)
        for nu in range(n_max):
            p *= z
            slow[nu] = p.mean()
        assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(w))

    def test_power_moments_blas_threads_do_not_change_bytes(self):
        # At n_max = 1024 each block product is large enough for OpenBLAS to
        # split it over threads; 300001 points end in a partial block.
        script = ("import hashlib, numpy as np; from dirac2d.analysis import power_moments; "
                  "r = np.random.default_rng(5); w = r.standard_normal(300001) + 0j; "
                  "z = np.exp(1j * r.standard_normal(300001)); "
                  "print(hashlib.sha256(power_moments(w, z, 1024).tobytes()).hexdigest())")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_power_moments_peak_memory(self):
        # The kernel works block by block; a whole-grid running product
        # would peak at 2 w.nbytes.
        rng = np.random.default_rng(13)
        w = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)
        z = np.exp(1j * rng.standard_normal(1 << 20))
        tracemalloc.start()
        try:
            power_moments(w, z, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= w.nbytes / 4

    @staticmethod
    def whole_grid_moments(w, psi, n_max, resolution):
        """I^+ and I^- from both fields sampled on the whole grid, one kernel call each."""
        s1, s2 = resolution
        e_plus = psi.samples(resolution)
        e_plus -= (np.arange(s2) / s2)[None, :]
        e_plus *= 2j * np.pi
        np.exp(e_plus, out=e_plus)
        ws = w.samples(resolution)
        return power_moments(ws, e_plus, n_max), power_moments(ws, np.conj(e_plus), n_max)

    # The required grids hold partial blocks (neither S1 S2 nor a strip's
    # points are a multiple of 2048), so the walk carries points across
    # strips; at S1 = 128 every strip is 64 columns, 4 whole blocks.
    @pytest.mark.parametrize("seed,real,resolution", [
        (21, True, None), (22, True, None), (23, False, None), (21, True, (128, 640))])
    def test_strips_match_the_whole_grid_formula(self, seed, real, resolution):
        grid, inst, rng = random_set(m=4, seed=seed)
        psi = d.solve_canonical_gauge(inst).psi
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False, real=real)
        assert w.is_real() == real
        rep = d.wiener_average(w, psi, 64, 0.1, resolution=resolution)
        s1, s2 = rep.resolution
        assert (s1 * s2 % 2048 != 0) == (resolution is None)
        i_plus, i_minus = self.whole_grid_moments(w, psi, 64, rep.resolution)
        tol = 1e-15 * np.max(np.abs(w.samples()))
        assert np.max(np.abs(rep.abs_i_plus - np.abs(i_plus))) <= tol
        assert np.max(np.abs(rep.abs_i_minus - np.abs(i_minus))) <= tol
        averages = np.cumsum(np.abs(i_plus) ** 2) / np.arange(1, 65)
        assert np.max(np.abs(rep.averages - averages)) <= tol

    def test_matches_direct_quadrature(self):
        # An oracle independent of the power-moment kernel: the quadrature
        # mean(W exp(+-2 pi i nu (Psi - x2))) formed directly, on the same grid.
        grid, inst, rng = random_set(m=4, seed=24)
        psi = d.solve_canonical_gauge(inst).psi
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False, real=False)
        rep = d.wiener_average(w, psi, 8, 0.1)
        s2 = rep.resolution[1]
        ws = w.samples(rep.resolution)
        phase = 2j * np.pi * (psi.samples(rep.resolution).real - np.arange(s2)[None, :] / s2)
        nu = np.arange(1, 9)
        i_plus = np.array([np.mean(ws * np.exp(n * phase)) for n in nu])
        i_minus = np.array([np.mean(ws * np.exp(-n * phase)) for n in nu])
        assert np.max(np.abs(i_minus)) > 0.01 and not np.allclose(np.abs(i_plus), np.abs(i_minus))
        tol = 1e-13 * np.max(np.abs(ws))
        assert np.max(np.abs(rep.abs_i_plus - np.abs(i_plus))) <= tol
        assert np.max(np.abs(rep.abs_i_minus - np.abs(i_minus))) <= tol

    def test_non_real_psi_is_refused(self):
        # The minus moments are those of conj(z), which is 1/z only for a real Psi.
        grid = d.FourierGrid(3, 16)
        w = d.PeriodicScalarField.constant(grid, 1.0)
        psi = d.PeriodicScalarField.from_modes(grid, {(0, 1): 0.05j})
        assert not psi.is_real()
        with pytest.raises(d.InadmissibleParameterError, match="Psi must be real"):
            d.wiener_average(w, psi, 8, 0.1)

    def test_overflowing_averages_are_refused(self):
        # (sum |W_N|)^2 = 1.34e154^2 is finite, so W passes the check before
        # sampling.  Psi - x2 is nearly constant (Psi is the truncated series
        # of x2 - 1/2), so |I_nu| is near |W| for the first few nu and the
        # running sum of |I_nu|^2 overflows; it is refused without a warning.
        grid = d.FourierGrid(6, 26)
        psi = d.PeriodicScalarField.from_modes(grid, {(0, s * n): s * 1j / (2 * np.pi * n)
                                                     for n in range(1, 7) for s in (1, -1)})
        w = d.PeriodicScalarField.constant(grid, 1.34e154)
        with pytest.raises(d.InadmissibleParameterError, match=r"A\(N\)"):
            d.wiener_average(w, psi, 8, 0.1)

    def test_wiener_peak_memory(self):
        # W and Psi are sampled in strips; the whole-grid formula holds two
        # complex arrays of the grid.
        grid = d.FourierGrid(6, 26)
        rng = np.random.default_rng(11)
        psi = d.solve_canonical_gauge(d.random_gamma_instance(grid, rng, degree=2,
                                                              variation=0.3)).psi
        w = d.random_trig_field(grid, rng, 2, 1.0, zero_mean=False)
        tracemalloc.start()
        try:
            d.wiener_average(w, psi, 256, 0.1, resolution=(512, 2496))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 2496 * 16 / 4


class TestCoercivity:
    def test_margins_nonnegative_free_case(self):
        grid = d.FourierGrid(10, 42)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        rep = d.verify_coercivity(cs, zero, zero, zero, 16 * np.pi, 4 * np.pi,
                                  (np.pi, 0.0), trials=40, seed=0)
        assert rep.margins.min() >= 0.0
        assert rep.c1 == pytest.approx(1.0, abs=1e-9)
        assert rep.c8 <= rep.c1 / 6 + 1e-12

    def test_single_mode_margin(self):
        grid = d.FourierGrid(10, 42)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        mu, a, k = 16 * np.pi, 4 * np.pi, (np.pi, 0.0)
        weights = d.ModeWeights(grid, k, mu)
        ts = d.index_set_T(weights, a, "+")
        idx = int(np.nonzero(ts.mask)[0][0])
        phi = np.zeros(2 * grid.n_modes, dtype=complex)
        phi[idx] = 1.0
        op = d.coercivity_operator(cs, zero, zero, zero, mu, k)
        lhs = float(np.sum(np.abs(op.apply(phi)) ** 2))
        rhs = (1.0 / 6.0) * weights.g_min[idx] ** 2
        margin = lhs - rhs
        expected = (1 - 1 / 6) * weights.g_plus[idx] ** 2
        assert margin == pytest.approx(expected, rel=1e-10)

    def test_operator_matches_block_layout(self):
        grid, rng = d.FourierGrid(4, 18), np.random.default_rng(21)
        cs = d.random_gamma_instance(grid, rng)
        vt0 = d.random_trig_field(grid, rng, 2, 0.4)
        vt3 = d.random_trig_field(grid, rng, 2, 0.4)
        psi = d.random_trig_field(grid, rng, 2, 0.3)
        mu, k = 1.5, (np.pi, 0.3)
        op = d.coercivity_operator(cs, vt0, vt3, psi, mu, k)
        ps = psi.samples()
        b00 = d.sample_to_fourier(np.exp(2j * mu * ps) * (vt0 + vt3).samples(), grid)
        b11 = d.sample_to_fourier(np.exp(-2j * mu * ps) * (vt0 - vt3).samples(), grid)
        n = grid.n_modes
        ref = np.zeros((2 * n, 2 * n), dtype=complex)
        ref[:n, :n] = d.multiplication_operator(b00).matrix
        ref[:n, n:] = d.assemble_dpm(cs, k, mu, "-").matrix
        ref[n:, :n] = d.assemble_dpm(cs, k, mu, "+").matrix
        ref[n:, n:] = d.multiplication_operator(b11).matrix
        assert np.max(np.abs(op.matrix - ref)) < 1e-13
        x = rng.standard_normal((op.dim, 6)) + 1j * rng.standard_normal((op.dim, 6))
        tol = d.TOLERANCES["matvec_agreement_rel"]
        for got, want in ((op.apply(x), op.matrix @ x),
                          (op.adjoint_apply(x), op.matrix.conj().T @ x)):
            assert np.linalg.norm(got - want) < tol * np.linalg.norm(want)

    def test_zero_trial_margin_zero(self):
        grid = d.FourierGrid(10, 42)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        op = d.coercivity_operator(cs, zero, zero, zero, 16 * np.pi, (np.pi, 0.0))
        phi = np.zeros(2 * grid.n_modes, dtype=complex)
        assert np.sum(np.abs(op.apply(phi)) ** 2) == 0.0

    def test_k1_precondition(self):
        grid = d.FourierGrid(10, 42)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        with pytest.raises(d.InadmissibleParameterError):
            d.verify_coercivity(cs, zero, zero, zero, 16 * np.pi, 4 * np.pi,
                                (0.5, 0.0), trials=2)

    def test_excluded_scaling_warning(self):
        grid = d.FourierGrid(10, 42)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        w = d.PeriodicScalarField.from_modes(grid, {(0, 1): 1.0})
        psi0 = d.PeriodicScalarField.constant(grid, 0.0)
        wrep = d.wiener_average(w, psi0, 64, 1e-9)
        mu = np.pi * wrep.m_plus[0]
        with pytest.raises(d.InadmissibleParameterError):
            # mu = pi is below 2 pi for the radius precondition; use a valid a
            # but an excluded nu by scaling the report artificially.
            d.verify_coercivity(cs, zero, zero, zero, mu, np.pi, (np.pi, 0.0), trials=1)
        rep = d.verify_coercivity(cs, zero, zero, zero, 16 * np.pi, 4 * np.pi,
                                  (np.pi, 0.0), trials=2,
                                  admissibility=[wrep] if 16 in wrep.m_plus else None)
        assert isinstance(rep.warnings, tuple)

    def test_scaling_warnings(self):
        grid = d.FourierGrid(4, 18)
        cs = d.CoefficientSet.constant(grid)
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        w = d.PeriodicScalarField.from_modes(grid, {(0, 1): 1.0})
        wrep = d.wiener_average(w, zero, 64, 0.5)
        assert wrep.m_plus == (1,)
        args = (cs, zero, zero, zero)
        rep = d.verify_coercivity(*args, np.pi, 4 * np.pi, (np.pi, 0.0), trials=2,
                                  admissibility=[wrep])
        assert rep.warnings == ("mu/pi = 1 lies in an estimated excluded set",)
        rep = d.verify_coercivity(*args, 1.5 * np.pi, 4 * np.pi, (np.pi, 0.0), trials=2)
        assert rep.warnings == ("mu/pi = 1.500000 is not an integer scaling",)
        assert 0 < rep.c1 <= rep.c2


class TestCrossTerm:
    def test_random_trials_below_one(self):
        grid = d.FourierGrid(9, 38)
        rng = np.random.default_rng(13)
        w = d.random_trig_field(grid, rng, 3, 1.0, zero_mean=False)
        weights = d.ModeWeights(grid, (np.pi, 0.0), 12 * np.pi)
        rep = d.cross_term_check(w, weights, 2.2 * np.pi, 4.4 * np.pi, n_trials=50, seed=1)
        assert rep.max_ratio <= 1.0

    def test_disjoint_frequency_supports(self):
        grid = d.FourierGrid(9, 38)
        rng = np.random.default_rng(14)
        w = d.random_trig_field(grid, rng, 1, 1.0)
        weights = d.ModeWeights(grid, (np.pi, 0.0), 12 * np.pi)
        rep = d.cross_term_check(w, weights, 2.2 * np.pi, 2.2 * np.pi + 3.1 * np.pi,
                                 n_trials=10, seed=2)
        assert rep.bound_constant == 0.0
        assert rep.zero_bound_cases == 20
        assert rep.max_ratio == 0.0

    def test_zero_potential(self):
        grid = d.FourierGrid(9, 38)
        w = d.PeriodicScalarField.constant(grid, 0.0)
        weights = d.ModeWeights(grid, (np.pi, 0.0), 12 * np.pi)
        rep = d.cross_term_check(w, weights, 2.2 * np.pi, 4.4 * np.pi, n_trials=5, seed=3)
        assert rep.max_ratio == 0.0

    def test_radius_preconditions(self):
        grid = d.FourierGrid(9, 38)
        w = d.PeriodicScalarField.constant(grid, 1.0)
        weights = d.ModeWeights(grid, (np.pi, 0.0), 12 * np.pi)
        with pytest.raises(d.InadmissibleParameterError):
            d.cross_term_check(w, weights, np.pi, 4 * np.pi)
        with pytest.raises(d.InadmissibleParameterError):
            d.cross_term_check(w, weights, 2.5 * np.pi, 7 * np.pi)


class TestSplitPotential:
    def test_identity_at_zero_rotation(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(16)
        V = d.MatrixPotential(
            v0=d.random_trig_field(grid, rng, 2, 0.5),
            v1=d.random_trig_field(grid, rng, 2, 0.5),
            v2=d.random_trig_field(grid, rng, 2, 0.5),
            v3=d.random_trig_field(grid, rng, 2, 0.5),
        )
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        sp = d.split_potential(V, b=10.0, psi_prime=zero)
        assert np.max(np.abs(sp.vtilde0.coeffs - V.v0.coeffs)) < 1e-12
        assert np.max(np.abs(sp.vtilde3.coeffs - V.v3.coeffs)) < 1e-12

    def test_threshold_above_range(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(17)
        V = d.MatrixPotential(
            v0=d.PeriodicScalarField.constant(grid, 0.0),
            v1=d.random_trig_field(grid, rng, 2, 0.5),
            v2=d.random_trig_field(grid, rng, 2, 0.5),
            v3=d.PeriodicScalarField.constant(grid, 0.0),
        )
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        sp = d.split_potential(V, b=1.0, psi_prime=zero)
        assert np.max(np.abs(sp.v1_tail.coeffs)) < 1e-13
        assert np.max(np.abs(sp.v2_tail.coeffs)) < 1e-13
        assert np.max(np.abs(sp.v1_bounded.coeffs - V.v1.coeffs)) < 1e-13

    def test_split_parts_sum_back(self):
        grid = d.FourierGrid(4, 18)
        rng = np.random.default_rng(18)
        V = d.MatrixPotential(
            v0=d.PeriodicScalarField.constant(grid, 0.0),
            v1=d.random_trig_field(grid, rng, 2, 1.0),
            v2=d.random_trig_field(grid, rng, 2, 1.0),
            v3=d.PeriodicScalarField.constant(grid, 0.0),
        )
        zero = d.PeriodicScalarField.constant(grid, 0.0)
        sp = d.split_potential(V, b=0.5, psi_prime=zero)
        assert np.max(np.abs((sp.v1_tail.coeffs + sp.v1_bounded.coeffs)
                             - V.v1.coeffs)) < 1e-12

    def test_hyperbolic_identity(self):
        grid = d.FourierGrid(4, 18)
        c = 0.35
        V = d.MatrixPotential.diagonal(grid, v0=1.0, v3=0.0)
        psi_prime = d.PeriodicScalarField.constant(grid, c)
        sp = d.split_potential(V, b=0.0, psi_prime=psi_prime)
        i0 = grid.mode_index(0, 0)
        assert sp.vtilde0.coeffs[i0] == pytest.approx(np.cosh(2 * c), abs=1e-12)
        assert sp.vtilde3.coeffs[i0] == pytest.approx(np.sinh(2 * c), abs=1e-12)
        diff = sp.vtilde0.coeffs[i0] ** 2 - sp.vtilde3.coeffs[i0] ** 2
        assert diff == pytest.approx(1.0, abs=1e-12)


class TestAdmissibilityRecipe:
    def test_band_limited_ladder(self):
        _, cs, _ = random_set(m=8, seed=19)
        c1, c2 = d.estimate_c1_c2(cs, (np.pi, 0.3), 4 * np.pi)
        c8 = c1**2 / (6 * (c1 + 4.0))
        rep = d.admissibility_recipe(cs, c1, c2, c8, a1=4 * np.pi)
        assert rep.feasible
        assert rep.theta > 0
        assert all(b > a for a, b in zip(rep.radii_head, rep.radii_head[1:]))
        assert rep.a_j >= rep.a1
        # degree-2 coefficients: products are band-limited to radius 4, so the
        # zero-tail gap never exceeds 2 pi * |(4, 4)|
        if rep.constant_gap is not None:
            assert rep.constant_gap <= 2 * np.pi * np.hypot(4, 4) + 1e-6

    def test_a1_precondition(self):
        _, cs, _ = random_set(m=4, seed=20)
        with pytest.raises(d.InadmissibleParameterError):
            d.admissibility_recipe(cs, 1.0, 2.0, 0.1, a1=np.pi)

    @pytest.mark.parametrize("c1", [0.0, 1e-200])
    def test_vanishing_delta_is_inadmissible(self, c1):
        # delta = c1/32 squares to 0: J = c2^2 / delta^2 once divided by zero.
        cs = d.CoefficientSet.constant(d.FourierGrid(3, 14))
        with pytest.raises(d.InadmissibleParameterError, match="delta"):
            d.admissibility_recipe(cs, c1, 1.0, 1.0, a1=4 * np.pi)

    def test_overflowing_c2_squared_is_inadmissible(self):
        # A Python float's ``**`` raises OverflowError at c2^2 = 1e400.
        cs = d.CoefficientSet.constant(d.FourierGrid(3, 14))
        with pytest.raises(d.InadmissibleParameterError, match=r"c2\^2"):
            d.admissibility_recipe(cs, 1.0, 1e200, 1.0, a1=12.6)

    def test_overflowing_tau_star_is_inadmissible(self):
        # c1 = 1e-140 passes the delta check with J about 1e283, so a_J is
        # about 1e274 and a_J^2 in tau* overflows.
        cs = d.CoefficientSet.constant(d.FourierGrid(3, 14))
        with pytest.raises(d.InadmissibleParameterError, match=r"tau\*"):
            d.admissibility_recipe(cs, 1e-140, 1.0, 1.0, a1=12.6)
