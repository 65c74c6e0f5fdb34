"""Command-line front end: subcommands, persistence, determinism, exit codes."""

import contextlib
import copy
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml
from hypothesis import given, settings, strategies as st

import dirac2d as d
from dirac2d import cli
from dirac2d.cli import SCHEMA, main

REPO = Path(__file__).resolve().parents[1]
FREE_CONFIG = REPO / "configs" / "constant_free.yaml"
SIGMA3_CONFIG = REPO / "configs" / "constant_sigma3.yaml"
VARIABLE_CONFIG = REPO / "configs" / "variable_smooth.yaml"


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def small_free_config(tmp_path, **updates):
    cfg = yaml.safe_load(FREE_CONFIG.read_text())
    cfg["grid"] = {"truncation_radius": 4, "sample_resolution": 18}
    cfg["bands"] = {"k_grid": {"n1": 4, "n2": 4}, "n_bands": "all", "mode": "eigen"}
    cfg["sweep"] = {"k2_grid": [0.0],
                    "mu_grid": {"start": 0.0, "stop": 6.0, "count": 4},
                    "direction": [1.0, 0.0]}
    cfg["verify"] = {"trials": 10, "mu": 16 * np.pi, "a": 4 * np.pi, "k2": 0.0}
    cfg.update(updates)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestBands:
    def test_free_csv_matches_oracle(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("bands", "--config", cfg, "--out", out) == 0
        header, rows = read_csv(out / "bands.csv")
        assert header == ["k1", "k2", "index", "value"]
        grid = d.FourierGrid(4, 18)
        by_k = {}
        for k1, k2, idx, val in rows:
            by_k.setdefault((float(k1), float(k2)), []).append(float(val))
        assert len(by_k) == 16
        for (k1, k2), vals in by_k.items():
            mags = np.hypot(k1 + 2 * np.pi * grid.n1, k2 + 2 * np.pi * grid.n2)
            oracle = np.sort(np.concatenate([mags, -mags]))
            assert np.max(np.abs(np.array(vals) - oracle)) < 1e-10

    def test_manifest_lists_tolerances_and_hashes(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("bands", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "dirac2d.manifest/1"
        assert set(d.TOLERANCES) <= set(manifest["tolerances"])
        assert set(manifest["defaults"]) >= set(map(str, d.DEFAULTS))
        assert "bands.csv" in manifest["outputs"]
        assert manifest["seed"] == 1234


    @pytest.mark.parametrize("config,sub,route", [(SIGMA3_CONFIG, "bands", "per-mode"),
                                                  (SIGMA3_CONFIG, "sweep", "per-mode"),
                                                  (VARIABLE_CONFIG, "bands", "dense LAPACK"),
                                                  (VARIABLE_CONFIG, "sweep", "band LU")])
    def test_summary_names_the_fiber_route(self, tmp_path, config, sub, route):
        out = tmp_path / "out"
        assert run(sub, "--config", config, "--out", out,
                   "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
                   "--set", "bands.k_grid={n1: 2, n2: 2}",
                   "--set", "sweep.mu_grid={start: 0.0, stop: 6.0, count: 2}",
                   "--set", "sweep.k2_grid=[0.0]") == 0
        assert f"fiber route: {route}\n" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("config,bandwidths", [(SIGMA3_CONFIG, None),
                                                   (VARIABLE_CONFIG, [17, 17])])
    def test_sweep_records_the_half_bandwidths(self, tmp_path, config, bandwidths):
        # Band radius 1 at M = 3 (side 7), interleaved: 2 * 1 * 8 + 1 = 17.
        out = tmp_path / "out"
        assert run("sweep", "--config", config, "--out", out,
                   "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
                   "--set", "sweep.mu_grid={start: 0.0, stop: 6.0, count: 2}",
                   "--set", "sweep.k2_grid=[0.0]") == 0
        results = json.loads((out / "manifest.json").read_text())["results"]["sweep"]
        assert results["half_bandwidths"] == bandwidths
        value = None if bandwidths is None else tuple(bandwidths)
        assert f"band half-bandwidths (kl, ku): {value}\n" in (out / "summary.txt").read_text()


class TestGauge:
    def test_constant_case_manifest(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("gauge", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["results"]["gauge"]
        assert abs(res["kappa_tilde"][0] - 1.0) < 1e-10
        assert abs(res["kappa_tilde"][1]) < 1e-10
        assert res["max_abs_phi"] < 1e-10
        assert res["max_abs_psi"] < 1e-10
        payload = json.loads((out / "gauge.json").read_text())
        assert payload["schema"] == "dirac2d.gauge/1"


class TestVerify:
    def test_empty_potential_all_pass(self, tmp_path, capsys):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", out) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert "overall: PASS" in text
        _, rows = read_csv(out / "verify.csv")
        assert rows and [row[-1] for row in rows] == ["1"] * len(rows)

    def test_failing_floor_exits_3(self, tmp_path, capsys):
        # V0 = -pi makes the fiber at (pi, 0) exactly singular at the zero
        # mode, so the certificate-floor suite fails: a numerical failure -> 3.
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        code = run("verify", "--config", cfg, "--out", out,
                   "--set", "potential.V0={constant: -3.141592653589793}",
                   "--set", "verify.trials=5")
        assert code == 3
        assert "FAIL  sweep_floor" in capsys.readouterr().out
        _, rows = read_csv(out / "verify.csv")
        passed = {row[0]: row[-1] for row in rows}
        assert passed["sweep_floor"] == "0" and set(passed.values()) <= {"0", "1"}

    def test_equivalence_constants_estimated_once(self, tmp_path, monkeypatch):
        # The two_sided row reads c1 and c2 from the coercivity report.  The
        # name is patched in cli too, so a direct call from the CLI is counted.
        calls = []
        original = d.analysis.estimate_c1_c2

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)
        monkeypatch.setattr(d.analysis, "estimate_c1_c2", counting)
        monkeypatch.setattr(cli, "estimate_c1_c2", counting, raising=False)
        out = tmp_path / "out"
        assert run("verify", "--config", small_free_config(tmp_path), "--out", out,
                   "--set", "verify.trials=5") == 0
        assert len(calls) == 1
        _, rows = read_csv(out / "verify.csv")
        assert [row[0] for row in rows] == ["counting_bound", "weighted_norms", "two_sided",
                                            "cross_term", "coercivity", "gauge_chain",
                                            "sweep_floor"]


def test_manifest_booleans_are_json_booleans(tmp_path, capsys):
    # bool is a subclass of int: the manifest must still write True as true.
    # A numeric YAML key, which no run reads, reaches the manifest as text.
    cfg = small_free_config(tmp_path)
    cfg.write_text(cfg.read_text() + "1: numeric key\n")
    assert run("gauge", "--config", cfg, "--out", tmp_path / "gauge") == 0
    manifest = json.loads((tmp_path / "gauge" / "manifest.json").read_text())
    assert manifest["results"]["gauge"]["bound_chain_ok"] is True
    assert manifest["config"]["1"] == "numeric key"
    assert run("verify", "--config", cfg, "--out", tmp_path / "verify",
               "--set", "verify.trials=5") == 0
    suites = json.loads((tmp_path / "verify" / "manifest.json").read_text())["results"]["verify"]
    assert suites and all(passed is True for passed in suites.values())


def test_write_csv_cells_are_shortest_reprs(tmp_path):
    # Floats, Python's or numpy's, as repr(float(v)), so each parses back bit
    # for bit; integers of any width as str(int(v)).
    floats = [-0.0, 0.0, 1e-5, 0.1, 1e16, 9999999999999998.0, 5e-324, float("nan"),
              float("inf"), -float("inf")]
    row = floats + [np.float64(x) for x in floats] + [0, -7, 2**70, np.int64(-3), np.int32(9)]
    path = tmp_path / "t.csv"
    cli.write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    _, (cells,) = read_csv(path)
    is_float = [isinstance(v, float) for v in row]  # np.float64 subclasses float
    assert cells == [repr(float(v)) if f else str(int(v)) for v, f in zip(row, is_float)]
    back = np.array([float(c) for c, f in zip(cells, is_float) if f])
    assert back.tobytes() == np.array([v for v, f in zip(row, is_float) if f]).tobytes()


class TestValidate:
    def test_gamma_violation_named_with_coordinates(self, tmp_path, capsys):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        code = run("validate", "--config", cfg, "--out", out,
                   "--set", "coefficients.G={constant: 0.4}",
                   "--set", "coefficients.q=0.5", "--set", "coefficients.p=2.0")
        assert code == 0  # diagnostics only
        diags = json.loads((out / "diagnostics.json").read_text())
        assert any(v["name"] == "gamma_bound_G" for v in diags)
        assert "G(0.000000" in capsys.readouterr().out

    def test_grid_adequacy_diagnostic(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        code = run("validate", "--config", cfg, "--out", out,
                   "--set", "grid.sample_resolution=10")
        assert code == 0
        diags = json.loads((out / "diagnostics.json").read_text())
        assert any(v["name"] == "grid_adequacy" for v in diags)

    def test_well_formed_config_empty_diagnostics(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("validate", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "diagnostics.json").read_text()) == []


class TestExitCodes:
    def test_schema_violation(self, tmp_path):
        cfg = yaml.safe_load(FREE_CONFIG.read_text())
        del cfg["grid"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run("bands", "--config", path, "--out", tmp_path / "o") == 2

    def test_inadmissible_grid(self, tmp_path):
        cfg = small_free_config(tmp_path)
        code = run("bands", "--config", cfg, "--out", tmp_path / "o",
                   "--set", "grid.sample_resolution=12")
        assert code == 4

    def test_sweep_requires_k1_pi(self, tmp_path):
        cfg = small_free_config(tmp_path)
        code = run("sweep", "--config", cfg, "--out", tmp_path / "o",
                   "--set", "sweep.k1=1.0")
        assert code == 4

    def test_gamma_violation_at_run_is_inadmissible(self, tmp_path):
        cfg = small_free_config(tmp_path)
        code = run("bands", "--config", cfg, "--out", tmp_path / "o",
                   "--set", "coefficients.G={constant: 0.1}",
                   "--set", "coefficients.q=0.5")
        assert code == 4


    @pytest.mark.parametrize("kind,key", [("coefficients", "entries"), ("samples", "real")])
    def test_field_file_without_data_key(self, tmp_path, capsys, kind, key):
        (tmp_path / "g.json").write_text(json.dumps({"schema": "dirac2d.field/1", "kind": kind}))
        cfg = yaml.safe_load(FREE_CONFIG.read_text())
        cfg["coefficients"]["G"] = {"file": "g.json"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert run("bands", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "coefficients.G.file" in err and repr(key) in err

    def test_sweep_with_one_distinct_mu_skips_the_fit(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("sweep", "--config", FREE_CONFIG, "--out", out,
                   "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
                   "--set", "sweep.mu_grid=[0.0, 0.0]")
        assert code == 0 and capsys.readouterr().err == ""
        results = json.loads((out / "manifest.json").read_text())["results"]["sweep"]
        assert results["floor_log_intercept"] is None and results["floor_log_slope"] is None
        _, rows = read_csv(out / "sweep.csv")
        assert [row[0] for row in rows] == ["0.0", "0.0"]


# Edge configs that once escaped as a traceback (exit 1) or ran a wrong sweep line.
EDGE_CONFIGS = [
    ("verify", "verify.counting.a_values=[1.0]"),
    ("verify", "verify.trials=0"),
    ("sweep", "sweep.mu_grid.count=0"),
    ("sweep", "sweep.k2_grid=[]"),
    ("bands", "bands.k_grid.n1=0"),
    ("wiener", "wiener.n_max=0"),
    ("profile", "profile.eps_grid=[]"),
    ("wiener", "wiener.theta=nan"),
    ("sweep", "sweep.k2_grid=[.nan]"),
    ("sweep", "sweep.mu_grid=[1.0, .inf]"),
    ("bands", "bands.k_grid=[[0.5, .nan]]"),
    ("wiener", "wiener.resolution=[.nan, 64]"),
    ("wiener", "wiener.resolution=0"),
    ("bands", "potential=5"),
    ("bands", "potential.V1.modes=5"),
    ("bands", "potential.V1.file=nope.json"),
    ("verify", "verify.counting=5"),
    ("verify", "verify.cross_term=[1]"),
    ("bands", "bands.k_grid=[[1]]"),
    ("sweep", "sweep.direction=[1]"),
    ("sweep", "sweep.k_prime=[1]"),
    ("profile", "profile.count_grid=[-4]"),
    ("profile", "profile.t_grid=[0.0]"),
    ("profile", "profile.eps_grid=[-1.0]"),
    ("bands", "bands.mode=bogus"),
    ("profile", "profile.count_grid=[2.5, 3.9]"),
    ("bands", "bands.n_bands=2.7"),
    ("wiener", "wiener.n_max=8.5"),
    ("wiener", "wiener.n_max='8.5'"),
    ("wiener", "wiener.n_max=[1"),
    ("verify", "verify.trials=2.5"),
    ("bands", 'coefficients.p="2.0"'),
    ("bands", "grid.truncation_radius=3.0"),
    pytest.param("sweep", f"sweep.k2_grid=[{10**400}]", id="sweep-int-past-float-range"),
    ("verify", "verify.counting.k2_values=[1e308]"),
    ("verify", "verify.mu=1e300"),
    ("bands", "workers=3"),
    ("bands", "workers=true"),
    ("profile", "profile.eps_grid=[1e160]"),
    ("bands", "bands.k_grid=[[1e308, 1e308]]"),
    ("sweep", "sweep.k2_grid=[1e308]"),
    ("wiener", "wiener.psi={modes: [[0, 1, 0.0, 0.05]]}"),
    ("profile", "profile.count_grid=[1e30]"),
    ("profile", "profile.count_grid=[10000000000000000000]"),
    ("wiener", "wiener.w={constant: 1e200}"),
    ("wiener", "wiener.w={constant: 1.7e308}"),
    ("bands", "profile.w={bogus: 1}"),
]
# Rejected up front by the schema check, whose message names the dotted key.
SCHEMA_REJECTED = {"verify.trials=0", "sweep.mu_grid.count=0", "sweep.k2_grid=[]",
                   "bands.k_grid.n1=0", "wiener.n_max=0", "wiener.theta=nan",
                   "sweep.k2_grid=[.nan]", "sweep.mu_grid=[1.0, .inf]",
                   "bands.k_grid=[[0.5, .nan]]", "wiener.resolution=[.nan, 64]",
                   "wiener.resolution=0", "profile.eps_grid=[]", "potential=5",
                   "potential.V1.modes=5", "potential.V1.file=nope.json", "verify.counting=5",
                   "verify.cross_term=[1]", "bands.k_grid=[[1]]", "sweep.direction=[1]",
                   "sweep.k_prime=[1]", "profile.count_grid=[-4]", "profile.t_grid=[0.0]",
                   "profile.eps_grid=[-1.0]", "bands.mode=bogus", "profile.count_grid=[2.5, 3.9]",
                   "bands.n_bands=2.7", "wiener.n_max=8.5", "wiener.n_max='8.5'",
                   "wiener.n_max=[1", "verify.trials=2.5",
                   'coefficients.p="2.0"', "grid.truncation_radius=3.0",
                   f"sweep.k2_grid=[{10**400}]", "workers=3", "workers=true",
                   "profile.w={bogus: 1}"}


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
@pytest.mark.parametrize("old,new,args,reason", [
    pytest.param("seed: 1234", "extra: !!set {a, b}", (), "type set is not JSON", id="set"),
    pytest.param("seed: 1234", "extra: 2020-01-01", (), "type date is not JSON", id="date"),
    pytest.param("seed: 1234", "extra: !!binary aGVsbG8=", (), "type bytes is not JSON",
                 id="binary"),
    pytest.param("seed: 1234", "extra: &x [1, *x]", (), "Circular reference detected",
                 id="alias"),
    pytest.param("seed: 1234", "extra: " + "[" * 1500 + "]" * 1500, (),
                 "maximum recursion depth exceeded", id="deep-nesting"),
    pytest.param("G: {constant: 1.0}", "G: {constant: 1.0, note: 2020-01-01}", (),
                 "type date is not JSON", id="date-in-field-spec"),
    pytest.param("seed: 1234", "seed: -5", (), "seed: expected an integer >= 0, got -5",
                 id="negative-seed"),
    pytest.param("seed: 1234", "seed: 1234", ("--seed", "-1"),
                 "seed: expected an integer >= 0, got -1", id="negative-seed-flag"),
])
def test_config_rejected_before_any_work(tmp_path, capsys, sub, old, new, args, reason):
    # The manifest records the config as JSON: a value JSON cannot hold once
    # failed only after the work was done and its outputs written.  A negative
    # seed once reached numpy's default_rng.
    text = FREE_CONFIG.read_text()
    assert old in text
    path = tmp_path / "config.yaml"
    path.write_text(text.replace(old, new))
    code = run(sub, "--config", path, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14", *args)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config schema error:") and reason in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["config", "--set"])
def test_nesting_past_the_c_stack_exits_2(tmp_path, where):
    # libyaml composes nested nodes on the C stack: 50,000 levels once killed
    # the process with a segmentation fault, so this runs in a subprocess.
    deep = "[" * 50_000 + "]" * 50_000
    path = tmp_path / "config.yaml"
    text = FREE_CONFIG.read_text()
    path.write_text(text + f"extra: {deep}\n" if where == "config" else text)
    extra = ("--set", f"extra={deep}") if where == "--set" else ()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "dirac2d.cli", "validate", "--config", str(path),
                           "--out", str(tmp_path / "o"), *extra],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config schema error:")
    assert f"nested deeper than {cli.MAX_YAML_DEPTH} levels" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_load_yaml_depth_limit():
    # The limit itself loads and one level more does not; a long list nested
    # one level deep loads.
    limit = cli.MAX_YAML_DEPTH
    assert isinstance(cli.load_yaml("[" * limit + "]" * limit), list)
    with pytest.raises(yaml.YAMLError, match=f"nested deeper than {limit} levels"):
        cli.load_yaml("[" * (limit + 1) + "]" * (limit + 1))
    assert cli.load_yaml("extra: [" + ", ".join(["-1"] * 3000) + "]") == {"extra": [-1] * 3000}


def test_overflowing_profile_potential_exits_4(tmp_path, capsys):
    # |W|^2 overflows to inf: refused before any eigvalsh, without a warning.
    code = run("profile", "--config", VARIABLE_CONFIG, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=2", "--set", "grid.sample_resolution=12",
               "--set", "profile.w={constant: 1e160}")
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("inadmissible parameters:")
    assert "Traceback" not in err


def test_huge_profile_potential_runs_without_overflow(tmp_path, capsys):
    # max |W| = 1e100: C_W^H C_W is finite, but the squares in its Frobenius
    # norm are not, so the norm is taken after scaling (the suite turns
    # numpy's overflow warning into an error).
    out = tmp_path / "o"
    code = run("profile", "--config", VARIABLE_CONFIG, "--out", out,
               "--set", "grid.truncation_radius=2", "--set", "grid.sample_resolution=12",
               "--set", "profile.w={constant: 1e100}")
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads((out / "manifest.json").read_text())["results"]["profile"]["c1_w"] == 1e100


def test_verify_prints_coercivity_warnings(tmp_path, capsys):
    # mu/pi = 15.9...: the coercivity check's warning reaches stdout and
    # summary.txt, just before the overall line.
    out = tmp_path / "o"
    code = run("verify", "--config", VARIABLE_CONFIG, "--out", out,
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", "verify.mu=50.0")
    assert code in (0, 3)
    warning = "warning: mu/pi = 15.915494 is not an integer scaling"
    for lines in (capsys.readouterr().out.splitlines(),
                  (out / "summary.txt").read_text().splitlines()):
        assert lines[-2] == warning and lines[-1].startswith("overall:")
        assert sum(line.startswith("warning:") for line in lines) == 1


def check_edge_config(config, tmp_path, capsys, sub, assignment):
    code = run(sub, "--config", config, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", assignment)
    err = capsys.readouterr().err
    assert code in (2, 4)
    assert "Traceback" not in err
    assert err.startswith(("config schema error:", "inadmissible parameters:"))
    if assignment in SCHEMA_REJECTED:
        assert code == 2
        assert assignment.split("=")[0] in err


@pytest.mark.parametrize("sub,assignment", EDGE_CONFIGS)
def test_edge_config_exits_cleanly(tmp_path, capsys, sub, assignment):
    check_edge_config(VARIABLE_CONFIG, tmp_path, capsys, sub, assignment)


@pytest.mark.parametrize("sub,assignment", EDGE_CONFIGS)
def test_edge_config_exits_cleanly_on_constant_fibers(tmp_path, capsys, sub, assignment):
    # Constant coefficients and potential take the per-mode route.
    check_edge_config(SIGMA3_CONFIG, tmp_path, capsys, sub, assignment)


@pytest.mark.parametrize("assignment", ["potential.V1={constant: 1e308}",
                                        "sweep.k_prime=[1e308, 0]"])
def test_arpack_failure_exits_cleanly(tmp_path, capsys, monkeypatch, assignment):
    # ARPACK rejects the overflowing potential ("starting vector is zero"); the
    # sweep falls back to svdvals like on non-convergence instead of crashing.
    # A real part of k at 1e308 is refused when the fiber is assembled (exit 4),
    # before ARPACK runs.
    fallbacks = []
    svdvals = scipy.linalg.svdvals

    def counting(a, *args, **kwargs):
        fallbacks.append(a.shape)
        return svdvals(a, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "svdvals", counting)
    code = run("sweep", "--config", VARIABLE_CONFIG, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", assignment)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if assignment.startswith("potential"):
        assert fallbacks
    else:
        assert code == 4 and not fallbacks


@pytest.mark.parametrize("component", ["V0", "V1"])
def test_bands_near_the_float_limit_exit_cleanly(tmp_path, capsys, component):
    # The Hermitian part halves each term before the sum (V1: the off-diagonal
    # block route; V0: the full eigvalsh route).
    code = run("bands", "--config", VARIABLE_CONFIG, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", f"potential.{component}={{constant: 1e308}}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["bands", "sweep"])
@pytest.mark.parametrize("component", ["V0", "V1", "V2", "V3"])
def test_constant_fibers_near_the_float_limit_stay_finite(tmp_path, capsys, sub, component):
    # The per-mode route halves the Hermitian part like the full-size routes.
    out = tmp_path / "o"
    code = run(sub, "--config", SIGMA3_CONFIG, "--out", out,
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", f"potential.{component}={{constant: 1e308}}")
    assert code == 0 and capsys.readouterr().err == ""
    _, rows = read_csv(out / f"{sub}.csv")
    values = np.array([float(r[-1]) for r in rows])
    assert np.all(np.isfinite(values)) and np.max(np.abs(values)) > 1e307


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", [SIGMA3_CONFIG, VARIABLE_CONFIG])
@pytest.mark.parametrize("sub", ["bands", "sweep"])
@pytest.mark.parametrize("v3,block", [("1e308", "V0 + V3"), ("-1e308", "V0 - V3")])
def test_overflowing_potential_block_is_inadmissible(tmp_path, capsys, config, sub, v3, block):
    # V0 +- V3 overflows to inf: exit 4 naming the block, not an inf fiber whose
    # per-mode SVD gives an unflagged NaN sigma_min.
    code = run(sub, "--config", config, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", "potential.V0={constant: 1e308}",
               "--set", f"potential.V3={{constant: {v3}}}")
    err = capsys.readouterr().err
    assert code == 4 and f"potential block {block} overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_max", ["'8.0'", "8.0", "'8'"])
def test_whole_number_counts_run_in_any_spelling(tmp_path, capsys, n_max):
    # Every value the schema check accepts as a count runs, text included.
    code = run("wiener", "--config", VARIABLE_CONFIG, "--out", tmp_path / "o",
               "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
               "--set", f"wiener.n_max={n_max}")
    assert code == 0 and capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "o" / "wiener.csv")
    assert len(rows) == 8


@pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_parse_the_same_under_both_loaders(config):
    text = config.read_text(encoding="utf-8")
    if yaml.__with_libyaml__:
        assert cli.YAML_LOADER is yaml.CSafeLoader
    assert cli.load_config(config) == yaml.load(text, Loader=yaml.SafeLoader)


def test_profile_grid_entry_is_named_with_its_index(tmp_path, capsys):
    for assignment, message in (("profile.eps_grid=[0.5, -1.0]",
                                 "profile.eps_grid[1]: expected a finite number > 0"),
                                ("profile.count_grid=[4, 2.5]",
                                 "profile.count_grid[1]: expected a whole number >= 1")):
        code = run("profile", "--config", VARIABLE_CONFIG, "--out", tmp_path / "o",
                   "--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
                   "--set", assignment)
        assert code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("resolution,too_coarse", [("64", True), ("[4096, 64]", True),
                                                   ("[64, 128]", False)])
def test_validate_and_wiener_agree_on_the_phase_resolution(tmp_path, capsys, resolution,
                                                           too_coarse):
    # psi = 0 at n_max = 16 requires (16, 128) samples: 8 per oscillation along x2.
    args = ("--config", VARIABLE_CONFIG, "--set", "grid.truncation_radius=3",
            "--set", "grid.sample_resolution=14", "--set", "wiener.psi={constant: 0.0}",
            "--set", "wiener.n_max=16", "--set", f"wiener.resolution={resolution}")
    assert run("validate", "--out", tmp_path / "v", *args) == 0
    names = [v["name"] for v in json.loads((tmp_path / "v" / "diagnostics.json").read_text())]
    assert ("phase_resolution" in names) == too_coarse
    assert run("wiener", "--out", tmp_path / "w", *args) == (4 if too_coarse else 0)


def _shrunk(path):
    """A shipped config at M = 3 with small grids: no case allocates more than a few MB."""
    cfg = yaml.safe_load(path.read_text())
    cfg["grid"] = {"truncation_radius": 3, "sample_resolution": 14}
    cfg.setdefault("bands", {})["k_grid"] = {"n1": 2, "n2": 2}
    cfg.setdefault("sweep", {})["mu_grid"] = {"start": 0.0, "stop": 6.0, "count": 3}
    cfg.setdefault("verify", {}).update(trials=3, counting={"k2_values": [0.0]})
    if "wiener" in cfg:
        cfg["wiener"].update(n_max=8, psi={"constant": 0.0})
    return cfg


SHIPPED = {p.stem: _shrunk(p) for p in sorted((REPO / "configs").glob("*.yaml"))}
DELETE = object()
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                    st.sampled_from([0.5, -2.0, 1e-300, float("nan"), float("inf"), 2.5,
                                     "", "all", "canonical", "eigen", "singular", "x"]),
                    st.dates(), st.sets(st.integers(0, 3), max_size=2), st.binary(max_size=3))
VALUES = st.one_of(SCALARS, st.just(DELETE), st.lists(SCALARS, max_size=3),
                   st.lists(st.lists(SCALARS, max_size=4), min_size=1, max_size=2),
                   st.dictionaries(st.sampled_from(["constant", "modes", "file", "start",
                                                    "count", "n1", "a"]), SCALARS, max_size=2))


def _paths(node, prefix=()):
    """Every key path of a config tree, lists included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# Keys a mutation may add to any mapping: every key the shipped configs or the
# schema use, so optional keys absent from the shipped files are reached too,
# and one key that no schema has.
KEYS = sorted({p[-1] for c in SHIPPED.values() for p in _paths(c) if isinstance(p[-1], str)}
              | {part for key in SCHEMA for part in key.split(".")} | {"extra"})


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 2))):
        mappings = [()] + [p for p in _paths(cfg) if isinstance(_at(cfg, p), dict)]
        path = draw(st.one_of(
            st.sampled_from(list(_paths(cfg))),
            st.tuples(st.sampled_from(mappings), st.sampled_from(KEYS)).map(
                lambda t: t[0] + (t[1],))))
        node, value = _at(cfg, path[:-1]), draw(VALUES)
        if value is not DELETE:
            node[path[-1]] = value
        elif isinstance(node, list) or path[-1] in node:
            del node[path[-1]]
    return cfg


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(sub=st.sampled_from(["bands", "sweep", "gauge", "verify", "wiener", "profile",
                            "validate"]),
       cfg=mutated_configs())
def test_fuzzed_configs_keep_the_exit_code_contract(sub, cfg):
    # In process, an exception escaping main() fails the test as a traceback would.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(sub, "--config", path, "--out", Path(tmp) / "o")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_runs_read_only_schema_keys(tmp_path, monkeypatch):
    read = set()
    getitem = cli.RunContext.__getitem__

    def recording(ctx, key):
        read.add(key)
        return getitem(ctx, key)

    monkeypatch.setattr(cli.RunContext, "__getitem__", recording)
    for name, cfg in SHIPPED.items():
        for sub in cli.SUBCOMMANDS:
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(dict(cfg, output_dir=str(tmp_path / name / sub))))
            with contextlib.redirect_stdout(io.StringIO()):
                run(sub, "--config", path)
    # Sections are checked as mappings but read only through their keys;
    # workers is checked (it takes only 1) but no run reads it.
    assert read == {key for key, (kind, *_) in SCHEMA.items() if kind != "map"} - {"workers"}
    ctx = cli.RunContext(SHIPPED["constant_free"], "bands", path, tmp_path / "o")
    with pytest.raises(KeyError):
        ctx["bands.colour"]


def test_each_key_is_parsed_once(tmp_path):
    ctx = cli.RunContext(SHIPPED["variable_smooth"], "bands", VARIABLE_CONFIG, tmp_path / "o")
    assert ctx["bands.k_grid"] is ctx["bands.k_grid"]
    assert ctx["sweep.mu_grid"] is ctx["sweep.mu_grid"]


def test_every_schema_default_parses():
    # A bad default fails here, not in the first run that reads it.
    for key, (kind, default, *words) in SCHEMA.items():
        if default is not cli.REQUIRED and default is not None:
            cli._parse(default, key, kind, words)


def test_every_default_is_read():
    # A manifest records every default; one that no module reads is a dead setting.
    package = Path(d.__file__).parent
    text = "".join(p.read_text(encoding="utf-8") for p in package.glob("*.py")
                   if p.name != "defaults.py")
    assert [key for key in d.DEFAULTS if f'"{key}"' not in text and f"'{key}'" not in text] == []


def test_memory_error_exits_4(tmp_path, capsys, monkeypatch):
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")
    monkeypatch.setattr("dirac2d.cli.wiener_average", oversized)
    code = run("wiener", "--config", small_free_config(tmp_path), "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("inadmissible parameters:") and "149. GiB" in err


def test_unallocatable_wiener_grid_exits_4():
    # n_max = 10^8 needs a 110810813 x 898273900 grid; the first large
    # allocation, the 17 x 898273900 rows of the strip transform (228 GiB),
    # fails at once.  The child's address space is capped at 4 GiB, so a host
    # that overcommits memory refuses it too instead of paging it in.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "dirac2d.cli", "wiener",
                               "--config", str(VARIABLE_CONFIG), "--out", out,
                               "--set", "wiener.n_max=100000000"],
                              env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=cap)
    assert proc.returncode == 4
    assert proc.stderr.startswith("inadmissible parameters:")
    assert "Traceback" not in proc.stderr


WIENER_M3 = ("--set", "grid.truncation_radius=3", "--set", "grid.sample_resolution=14",
             "--set", "wiener.n_max=64")


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for sub in ("bands", "sweep", "verify"):
            code1 = run(sub, "--config", cfg, "--out", out1 / sub)
            code2 = run(sub, "--config", cfg, "--out", out2 / sub)
            assert code1 == code2
            csvs = sorted(p.name for p in (out1 / sub).glob("*.csv"))
            assert csvs
            for name in csvs:
                assert (out1 / sub / name).read_bytes() == (out2 / sub / name).read_bytes()
            m1 = (out1 / sub / "manifest.json").read_bytes()
            m2 = (out2 / sub / "manifest.json").read_bytes()
            assert m1 == m2

    def test_wiener_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("wiener", "--config", VARIABLE_CONFIG, "--out", out, *WIENER_M3) == 0
        for name in ("wiener.csv", "wiener_avg.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_wiener_blas_threads_do_not_change_results(self, tmp_path):
        src = str(REPO / "src")
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run([sys.executable, "-m", "dirac2d.cli", "wiener",
                            "--config", str(VARIABLE_CONFIG), "--out", str(tmp_path / threads),
                            *WIENER_M3], env=env, check=True, capture_output=True)
        for name in ("wiener.csv", "wiener_avg.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_seed_changes_random_suites(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run("verify", "--config", cfg, "--out", out1, "--seed", "1")
        run("verify", "--config", cfg, "--out", out2, "--seed", "2")
        r1 = (out1 / "verify.csv").read_bytes()
        r2 = (out2 / "verify.csv").read_bytes()
        assert r1 != r2  # trial statistics move with the seed

    def test_workers_1_matches_no_workers_key(self, tmp_path):
        cfg = yaml.safe_load(small_free_config(tmp_path).read_text())
        del cfg["workers"]
        path = tmp_path / "no_workers.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run("bands", "--config", path, "--out", out1, "--workers", "1") == 0
        assert run("bands", "--config", path, "--out", out2) == 0
        assert (out1 / "bands.csv").read_bytes() == (out2 / "bands.csv").read_bytes()


class TestOtherSubcommands:
    def test_wiener_resonant_csv(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("wiener", "--config", cfg, "--out", out,
                   "--set", "wiener.n_max=64") == 0
        _, rows = read_csv(out / "wiener_avg.csv")
        averages = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(averages - 1.0 / np.arange(1, 65))) < 1e-12

    def test_profile_tables(self, tmp_path):
        cfg = small_free_config(tmp_path)
        out = tmp_path / "out"
        assert run("profile", "--config", cfg, "--out", out) == 0
        for name in ("profile_wb.csv", "profile_f.csv", "profile_ceps.csv",
                     "profile_h.csv", "profile_htilde.csv"):
            assert (out / name).exists()
        _, rows = read_csv(out / "profile_wb.csv")
        norms = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_variable_config_bands(self, tmp_path):
        out = tmp_path / "out"
        assert run("bands", "--config", VARIABLE_CONFIG, "--out", out,
                   "--set", "bands.k_grid={n1: 2, n2: 2}",
                   "--set", "grid.truncation_radius=4",
                   "--set", "grid.sample_resolution=18") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["bands"]["mode"] == "singular"
