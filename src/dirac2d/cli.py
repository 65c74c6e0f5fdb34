"""Command-line front end: config ingestion, subcommand dispatch, persistence.

Runs are described by a single YAML document (nested key/value sections); a
few scalar flags (--seed, --out, --workers, --set key=value) override config
scalars.  Every run writes a JSON manifest carrying the full configuration,
every tolerance and default in force, content hashes of the inputs and
outputs, and the seed policy, plus CSV data files and a plain-text summary.
Identical config + seed produces byte-identical outputs.

Exit codes: 0 success, 2 config schema violation, 3 numerical failure
(including failed verification suites), 4 inadmissible parameter combination.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (
    SweepConfig,
    band_structure,
    brillouin_grid,
    cross_term_check,
    estimate_c1_c2,
    potential_profile,
    required_resolution,
    sigma_min_sweep,
    sweep_direction_from_gauge,
    verify_coercivity,
    wiener_average,
)
from .defaults import DEFAULTS, SCHEMA_VERSIONS, TOLERANCES
from .errors import (
    ConfigSchemaError,
    Dirac2DError,
    GammaValidationError,
    InadmissibleParameterError,
    ResolutionError,
)
from .fourier import (
    CoefficientSet,
    FourierGrid,
    ModeWeights,
    PeriodicScalarField,
    counting_bound_holds,
    field_from_records,
    field_to_records,
    index_set_T,
    load_field,
    weighted_norm,
)
from .gauge import solve_canonical_gauge
from .operators import MatrixPotential

SUBCOMMANDS = ("bands", "sweep", "gauge", "verify", "wiener", "profile", "validate")


# ---------------------------------------------------------------------------
# Config loading and schema checks
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        cfg = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigSchemaError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigSchemaError("config root must be a mapping")
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply --set a.b.c=value overrides (values parsed as YAML scalars)."""
    for item in assignments or ():
        if "=" not in item:
            raise ConfigSchemaError(f"--set expects key.path=value, got {item!r}")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigSchemaError(f"--set path {path!r} crosses a non-mapping node")
        node[keys[-1]] = yaml.safe_load(raw)
    return cfg


def _require(cfg: dict, key: str, types, where: str = "config"):
    if key not in cfg:
        raise ConfigSchemaError(f"{where}: missing required key {key!r}")
    if not isinstance(cfg[key], types):
        raise ConfigSchemaError(
            f"{where}.{key}: expected {types}, got {type(cfg[key]).__name__}")
    return cfg[key]


# What a run reads, by dotted key, and what each kind of value must be.  A
# mapping is listed before the keys inside it.  Field specs are checked where
# they are built (build_field).
EXPECTED = {"num": "a finite number", "count": "a finite number >= 1",
            "pos": "a finite number > 0", "pair": "a list of two numbers",
            "nums": "a non-empty list of numbers",
            "counts": "a non-empty list of numbers >= 1",
            "posnums": "a non-empty list of numbers > 0",
            "line": "{start, stop, count} or a non-empty list of numbers",
            "kgrid": "{n1, n2} or a non-empty list of [k1, k2] pairs",
            "map": "a mapping", "res": "a positive integer or a pair of them"}
SCHEMA = {
    "potential": "map", "bands": "map", "sweep": "map", "verify": "map", "wiener": "map",
    "profile": "map", "bands.k_grid": "kgrid", "bands.n_bands": "count", "sweep.k1": "num",
    "sweep.direction": "pair", "sweep.k_prime": "pair", "sweep.kappa_prime": "pair",
    "sweep.mu_grid": "line", "sweep.k2_grid": "line", "verify.trials": "count",
    "verify.mu": "num", "verify.a": "num", "verify.k2": "num", "verify.counting": "map",
    "verify.counting.k2_values": "nums", "verify.counting.mu_values": "nums",
    "verify.counting.a_values": "nums", "verify.cross_term": "map",
    "verify.cross_term.a": "num", "verify.cross_term.a_prime": "num",
    "wiener.n_max": "count", "wiener.theta": "num", "wiener.resolution": "res",
    "profile.eps_grid": "posnums", "profile.b_grid": "nums", "profile.count_grid": "counts",
    "profile.t_grid": "posnums",
}
# Words a key accepts in place of its kind.
KEYWORDS = {"potential": (None,), "bands.n_bands": ("all", None),
            "sweep.direction": ("canonical",)}
_PARTS = {"line": {"start": "num", "stop": "num", "count": "count"},
          "kgrid": {"n1": "count", "n2": "count"}}
_ENTRY = {"pair": "num", "nums": "num", "counts": "count", "posnums": "pos",
          "line": "num", "kgrid": "pair"}


def check_schema(cfg: dict, subcommand: str) -> None:
    """Reject a malformed config, naming the dotted key, before any work starts."""
    grid = _require(cfg, "grid", dict)
    _require(grid, "truncation_radius", int, "grid")
    _require(grid, "sample_resolution", int, "grid")
    coeff = _require(cfg, "coefficients", dict)
    for key in ("p", "q", "f_bound"):
        _check_value(_require(coeff, key, (int, float), "coefficients"),
                     f"coefficients.{key}", "num")
    for key, kind in (("seed", int), ("workers", int), ("output_dir", str)):
        if key in cfg and not isinstance(cfg[key], kind):
            raise ConfigSchemaError(f"config.{key}: expected {kind.__name__}, got {cfg[key]!r}")
    if subcommand in ("bands", "sweep", "wiener", "profile"):
        _require(cfg, subcommand, dict)
    for dotted, kind in SCHEMA.items():
        node = cfg
        for part in dotted.split("."):
            if part not in node:
                break
            node = node[part]
        else:
            if node not in KEYWORDS.get(dotted, ()):
                _check_value(node, dotted, kind)


def _check_value(value, key: str, kind: str) -> None:
    if kind in _PARTS and isinstance(value, dict):
        for part, sub in _PARTS[kind].items():
            _check_value(value.get(part), f"{key}.{part}", sub)
        return
    if kind in ("num", "count", "pos"):
        try:
            x = float(value)  # YAML reads ``nan`` as text; bools are numbers
        except (TypeError, ValueError):
            x = np.nan
        ok = np.isfinite(x) and {"num": True, "count": x >= 1, "pos": x > 0}[kind]
    elif kind == "map":
        ok = isinstance(value, dict)
    elif kind == "res":
        pair = value if isinstance(value, list) and len(value) == 2 else [value]
        ok = all(type(r) is int and r >= 1 for r in pair)
    else:
        ok = isinstance(value, list) and (len(value) == 2 if kind == "pair" else len(value) > 0)
        for i, entry in enumerate(value if ok else ()):
            _check_value(entry, f"{key}[{i}]", _ENTRY[kind])
    if not ok:
        raise ConfigSchemaError(f"{key}: expected {EXPECTED[kind]}, got {value!r}")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

class RunContext:
    """Resolved configuration plus bookkeeping for the manifest."""

    def __init__(self, cfg: dict, config_path: Path, out_dir: Path,
                 seed: int, workers: int):
        self.cfg = cfg
        self.config_path = config_path
        self.out_dir = out_dir
        self.seed = seed
        self.workers = workers
        self.input_hashes = {str(config_path): _sha256_file(config_path)}
        self.results = {}

    def rng(self, offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_grid(cfg: dict) -> FourierGrid:
    g = cfg["grid"]
    try:
        return FourierGrid(int(g["truncation_radius"]), int(g["sample_resolution"]))
    except ValueError as exc:
        raise InadmissibleParameterError(str(exc)) from exc


def build_field(spec, grid: FourierGrid, ctx: RunContext, key: str) -> PeriodicScalarField:
    """The field a config spec describes; a malformed spec fails naming its dotted key."""
    part = next((p for p in ("constant", "modes", "file") if p in spec), None) \
        if isinstance(spec, dict) else None
    if part is None:
        raise ConfigSchemaError(f"{key}: expected a mapping with one of constant/modes/file, "
                                f"got {spec!r}")
    key, value = f"{key}.{part}", spec[part]
    try:
        if part == "constant":
            phi = PeriodicScalarField.constant(grid, complex(value))
        elif part == "modes":
            phi = field_from_records(grid, value)
        else:
            path = (ctx.config_path.parent / value).resolve()
            ctx.input_hashes[str(path)] = _sha256_file(path)
            phi = load_field(path, grid)
    except KeyError as exc:  # a mode outside the truncation window
        raise InadmissibleParameterError(f"{key}: {exc}") from exc
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigSchemaError(f"{key}: {exc}") from exc
    if not np.all(np.isfinite(phi.coeffs)):
        raise ConfigSchemaError(f"{key}: non-finite coefficients in {value!r}")
    return phi


def build_coefficients(cfg: dict, grid: FourierGrid, ctx: RunContext,
                       strict: bool = True) -> CoefficientSet:
    c = cfg["coefficients"]
    g, h, f = (build_field(c.get(name), grid, ctx, f"coefficients.{name}") for name in "GHF")
    return CoefficientSet(g=g, h=h, f=f, p=float(c["p"]), q=float(c["q"]),
                          f_bound=float(c["f_bound"]), strict=strict)


def build_potential(cfg: dict, grid: FourierGrid, ctx: RunContext) -> MatrixPotential:
    pot = cfg.get("potential") or {}
    return MatrixPotential(*(build_field(pot.get(name, {"constant": 0.0}), grid, ctx,
                                         f"potential.{name}")
                             for name in ("V0", "V1", "V2", "V3")))


def _linear_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        return np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["count"]))
    return np.asarray([float(v) for v in spec])


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_manifest(ctx: RunContext, subcommand: str, outputs: list[Path]) -> Path:
    manifest = {
        "schema": SCHEMA_VERSIONS["manifest"],
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": _jsonable(ctx.cfg),
        "seed": ctx.seed,
        "seed_policy": "numpy.default_rng(seed [+ fixed per-suite offsets])",
        "workers": ctx.workers,
        "tolerances": _jsonable(TOLERANCES),
        "defaults": _jsonable(DEFAULTS),
        "input_hashes": ctx.input_hashes,
        "outputs": {p.name: _sha256_file(p) for p in outputs},
        "results": _jsonable(ctx.results),
    }
    path = ctx.out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_summary(ctx: RunContext, subcommand: str, lines: list[str]) -> Path:
    path = ctx.out_dir / "summary.txt"
    body = [f"dirac2d {subcommand}", f"seed: {ctx.seed}"] + lines
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_bands(ctx: RunContext) -> int:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid, ctx)
    potential = build_potential(cfg, grid, ctx)
    section = cfg.get("bands", {})
    kspec = section.get("k_grid", {"n1": 8, "n2": 8})
    if isinstance(kspec, dict):
        kgrid = brillouin_grid(int(kspec["n1"]), int(kspec["n2"]))
    else:
        kgrid = np.asarray(kspec, dtype=float)
    n_bands = section.get("n_bands", "all")
    n_bands = None if n_bands in ("all", None) else int(n_bands)
    table = band_structure(coeffs, potential, kgrid, n_bands=n_bands,
                           mode=section.get("mode", "auto"), workers=ctx.workers)

    out = ctx.out_dir / "bands.csv"
    write_csv(out, ["k1", "k2", "index", "value"], table.rows())
    ctx.results["bands"] = {
        "mode": table.mode,
        "hermitian_defect": table.hermitian_defect,
        "n_fibers": len(table.kpoints),
        "values_per_fiber": int(table.values.shape[1]),
    }
    write_manifest(ctx, "bands", [out])
    write_summary(ctx, "bands", [
        f"fibers: {len(table.kpoints)}; values per fiber: {table.values.shape[1]}",
        f"spectral mode: {table.mode} (hermitian defect {table.hermitian_defect:.3e})",
        "outputs: bands.csv",
    ])
    return 0


def run_sweep(ctx: RunContext) -> int:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid, ctx)
    potential = build_potential(cfg, grid, ctx)
    section = cfg.get("sweep", {})
    k1 = float(section.get("k1", np.pi))
    if abs(k1 - np.pi) > 1e-12:
        raise InadmissibleParameterError("the sweep line is pinned to k1 = pi")
    direction = section.get("direction", [1.0, 0.0])
    if direction == "canonical":
        direction = sweep_direction_from_gauge(solve_canonical_gauge(coeffs))
    sweep = SweepConfig(
        direction=tuple(float(v) for v in direction),
        k_prime=tuple(float(v) for v in section.get("k_prime", (0.0, 0.0))),
        kappa_prime=tuple(float(v) for v in section.get("kappa_prime", (0.0, 0.0))),
        mu_grid=tuple(_linear_grid(section.get("mu_grid", {"start": 0.0, "stop": 20 * np.pi, "count": 41}))),
        k2_grid=tuple(_linear_grid(section.get("k2_grid", [0.0]))),
        k1=k1,
    )
    report = sigma_min_sweep(coeffs, potential, sweep, workers=ctx.workers)

    out = ctx.out_dir / "sweep.csv"
    write_csv(out, ["mu_tilde", "k2", "sigma_min"], report.rows())
    out_min = ctx.out_dir / "sweep_min.csv"
    write_csv(out_min, ["mu_tilde", "sigma_min_over_k2"],
              zip(sweep.mu_grid, report.min_per_mu))
    ctx.results["sweep"] = {
        "direction": list(sweep.direction),
        "min_sigma": float(report.min_per_mu.min()),
        "flagged_points": int(np.count_nonzero(report.flagged)),
        "floor_log_intercept": report.floor_log_intercept,
        "floor_log_slope": report.floor_log_slope,
    }
    write_manifest(ctx, "sweep", [out, out_min])
    write_summary(ctx, "sweep", [
        f"direction e = {sweep.direction}",
        f"global sigma_min = {report.min_per_mu.min():.6e}",
        f"flagged points (< {TOLERANCES['sigma_min_flag']:g}): {int(np.count_nonzero(report.flagged))}",
        "outputs: sweep.csv sweep_min.csv",
    ])
    return 0


def run_gauge(ctx: RunContext) -> int:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid, ctx)
    canonical = solve_canonical_gauge(coeffs)

    out_phi = ctx.out_dir / "gauge_phi.csv"
    out_psi = ctx.out_dir / "gauge_psi.csv"
    write_csv(out_phi, ["n1", "n2", "re", "im"], field_to_records(canonical.phi))
    write_csv(out_psi, ["n1", "n2", "re", "im"], field_to_records(canonical.psi))
    out_json = ctx.out_dir / "gauge.json"
    payload = {
        "schema": SCHEMA_VERSIONS["gauge"],
        "kappa_tilde": list(canonical.kappa_tilde),
        "c0_lower": canonical.c0_lower,
        "c3_star": canonical.c3_star,
        "residual": canonical.residual,
        "imag_residual": canonical.imag_residual,
        "phi": field_to_records(canonical.phi, drop_zeros=True),
        "psi": field_to_records(canonical.psi, drop_zeros=True),
    }
    out_json.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    ctx.results["gauge"] = {
        "kappa_tilde": list(canonical.kappa_tilde),
        "c0_lower": canonical.c0_lower,
        "c3_star": canonical.c3_star,
        "residual": canonical.residual,
        "bound_chain_ok": canonical.bound_chain_ok,
        "max_abs_phi": float(np.max(np.abs(canonical.phi.coeffs))),
        "max_abs_psi": float(np.max(np.abs(canonical.psi.coeffs))),
    }
    write_manifest(ctx, "gauge", [out_phi, out_psi, out_json])
    write_summary(ctx, "gauge", [
        f"kappa_tilde = ({canonical.kappa_tilde[0]!r}, {canonical.kappa_tilde[1]!r})",
        f"c0_lower = {canonical.c0_lower!r}; c3_star = {canonical.c3_star!r}",
        f"solver residual = {canonical.residual:.3e}",
        f"bound chain kappa_tilde_1 >= c3_star: {'ok' if canonical.bound_chain_ok else 'VIOLATED'}",
        "outputs: gauge_phi.csv gauge_psi.csv gauge.json",
    ])
    return 0


def run_wiener(ctx: RunContext) -> int:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid, ctx)
    section = cfg["wiener"]
    w = build_field(section.get("w"), grid, ctx, "wiener.w")
    psi_spec = section.get("psi", {"constant": 0.0})
    if psi_spec == "canonical":
        psi = solve_canonical_gauge(coeffs).psi
    else:
        psi = build_field(psi_spec, grid, ctx, "wiener.psi")
    n_max = int(section.get("n_max", 256))
    theta = float(section.get("theta", 0.5))
    resolution = section.get("resolution")
    report = wiener_average(w, psi, n_max, theta, resolution=resolution)

    out = ctx.out_dir / "wiener.csv"
    write_csv(out, ["nu", "abs_i_plus", "abs_i_minus"],
              zip(range(1, n_max + 1), report.abs_i_plus, report.abs_i_minus))
    out_avg = ctx.out_dir / "wiener_avg.csv"
    write_csv(out_avg, ["n", "average"], zip(range(1, n_max + 1), report.averages))
    ctx.results["wiener"] = {
        "n_max": n_max,
        "theta": theta,
        "resolution": list(report.resolution),
        "required_resolution": list(report.required_resolution),
        "density_plus": report.density_plus,
        "density_minus": report.density_minus,
        "final_average": float(report.averages[-1]),
    }
    write_manifest(ctx, "wiener", [out, out_avg])
    write_summary(ctx, "wiener", [
        f"n_max = {n_max}, theta = {theta!r}",
        f"quadrature resolution {report.resolution} (required {report.required_resolution})",
        f"A({n_max}) = {report.averages[-1]:.6e}",
        f"excluded-set densities: +{report.density_plus!r} / -{report.density_minus!r}",
        "outputs: wiener.csv wiener_avg.csv",
    ])
    return 0


def run_profile(ctx: RunContext) -> int:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    section = cfg["profile"]
    w = build_field(section.get("w"), grid, ctx, "profile.w")
    kwargs = {}
    for name in ("eps_grid", "b_grid", "count_grid", "t_grid"):
        if name in section:
            kwargs[name] = np.asarray(section[name], dtype=float)
    profile = potential_profile(w, **kwargs)

    outs = []
    for fname, header, rows in (
        ("profile_wb.csv", ["b", "wb_norm"], zip(profile.b_grid, profile.wb_norms)),
        ("profile_f.csv", ["count", "f_value"], zip(profile.count_grid, profile.f_values)),
        ("profile_ceps.csv", ["eps", "c_eps"], zip(profile.eps_grid, profile.c_eps)),
        ("profile_h.csv", ["t", "h_value"], zip(profile.t_grid, profile.h_values)),
        ("profile_htilde.csv", ["b", "htilde_value"], zip(profile.b_grid, profile.htilde_values)),
    ):
        path = ctx.out_dir / fname
        write_csv(path, header, rows)
        outs.append(path)
    ctx.results["profile"] = {"c1_w": profile.c1_w, "c7": profile.c7}
    write_manifest(ctx, "profile", outs)
    write_summary(ctx, "profile", [
        f"C_1(W) = {profile.c1_w!r}; c7 = {profile.c7!r}",
        "outputs: " + " ".join(p.name for p in outs),
    ])
    return 0


def _verify_checks(ctx: RunContext) -> list[dict]:
    cfg = ctx.cfg
    grid = build_grid(cfg)
    coeffs = build_coefficients(cfg, grid, ctx)
    potential = build_potential(cfg, grid, ctx)
    section = cfg.get("verify", {})
    trials = int(section.get("trials", 50))
    mu = float(section.get("mu", 16 * np.pi))
    a = float(section.get("a", 4 * np.pi))
    k2 = float(section.get("k2", 0.0))
    k = (float(np.pi), k2)
    checks = []

    # Counting bound over the configured (k2, mu, a) grid.
    counting = section.get("counting", {})
    k2_values = counting.get("k2_values", [0.0, 0.3, float(np.pi)])
    mu_values = counting.get("mu_values", [0.0, 4 * np.pi, 12 * np.pi])
    a_values = counting.get("a_values", [2 * np.pi, 4 * np.pi, 8 * np.pi])
    violations = 0
    for k2v in k2_values:
        for muv in mu_values:
            weights = ModeWeights(grid, (float(np.pi), float(k2v)), float(muv))
            for av in a_values:
                for sign in ("+", "-"):
                    if not counting_bound_holds(index_set_T(weights, float(av), sign)):
                        violations += 1
    checks.append({"suite": "counting_bound", "name": "1 <= #T(a) < 6 pi a^2",
                   "value": violations, "bound": 0, "passed": violations == 0})

    # Weighted-norm ordering on random vectors.
    rng = ctx.rng(1)
    weights = ModeWeights(grid, k, mu)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
        star = weighted_norm(v, weights, "star")
        worst = max(worst,
                    star - weighted_norm(v, weights, "star_plus"),
                    star - weighted_norm(v, weights, "star_minus"))
    checks.append({"suite": "weighted_norms", "name": "||.||_* <= ||.||_{*,pm}",
                   "value": worst, "bound": 1e-9, "passed": worst <= 1e-9})

    # Two-sided equivalence constants.
    c1, c2 = estimate_c1_c2(coeffs, k, mu)
    checks.append({"suite": "two_sided", "name": "0 < c1_emp <= c2_emp",
                   "value": [c1, c2], "bound": None, "passed": 0 < c1 <= c2})

    # Cross-term bound.
    ct_cfg = section.get("cross_term", {})
    ct_a = float(ct_cfg.get("a", 2.5 * np.pi))
    ct_ap = float(ct_cfg.get("a_prime", 4.5 * np.pi))
    w_field = potential.v1 if potential.v1.l2_norm() > 0 else coeffs.g
    ct = cross_term_check(w_field, weights, ct_a, ct_ap, n_trials=trials,
                          seed=ctx.seed + 2)
    checks.append({"suite": "cross_term", "name": "|(phi, W psi)| / bound <= 1",
                   "value": ct.max_ratio, "bound": 1.0, "passed": ct.max_ratio <= 1.0})

    # Coercivity margins with the configured diagonal potential.
    canonical = solve_canonical_gauge(coeffs)
    rep = verify_coercivity(coeffs, potential.v0, potential.v3, canonical.psi,
                            mu, a, k, trials=trials, seed=ctx.seed + 3)
    min_margin = float(rep.margins.min())
    checks.append({"suite": "coercivity", "name": "LHS - RHS >= 0",
                   "value": min_margin, "bound": 0.0, "passed": min_margin >= 0.0})

    # Gauge bound chain.
    checks.append({"suite": "gauge_chain",
                   "name": "kappa_tilde_1 >= sqrt(c0)/(p+F) > 0",
                   "value": [canonical.kappa_tilde[0], canonical.c3_star],
                   "bound": None, "passed": canonical.bound_chain_ok})

    # Certificate floor on a short sweep line: no sigma_min below the flag level.
    sweep = SweepConfig(mu_grid=(0.0, float(np.pi), 2 * float(np.pi)), k2_grid=(k2,))
    srep = sigma_min_sweep(coeffs, potential, sweep, workers=ctx.workers)
    flags = int(np.count_nonzero(srep.flagged))
    checks.append({"suite": "sweep_floor",
                   "name": "sigma_min above the certificate floor on k1 = pi",
                   "value": flags, "bound": 0, "passed": flags == 0})
    return checks


def run_verify(ctx: RunContext) -> int:
    checks = _verify_checks(ctx)
    out = ctx.out_dir / "verify.csv"
    write_csv(out, ["suite", "name", "value", "bound", "passed"],
              [[c["suite"], c["name"], json.dumps(_jsonable(c["value"])),
                json.dumps(_jsonable(c["bound"])), c["passed"]] for c in checks])
    ctx.results["verify"] = {c["suite"]: bool(c["passed"]) for c in checks}
    write_manifest(ctx, "verify", [out])
    lines = [f"{'PASS' if c['passed'] else 'FAIL'}  {c['suite']}: {c['name']}"
             for c in checks]
    all_ok = all(c["passed"] for c in checks)
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    write_summary(ctx, "verify", lines)
    for line in lines:
        print(line)
    return 0 if all_ok else 3


def run_validate(ctx: RunContext) -> int:
    cfg = ctx.cfg
    diagnostics = []
    m, s = cfg["grid"]["truncation_radius"], cfg["grid"]["sample_resolution"]
    if m < 1:
        diagnostics.append({"name": "grid", "message": "truncation_radius must be >= 1"})
    if s < 2 * (2 * m + 1):
        diagnostics.append({"name": "grid_adequacy",
                            "message": f"sample_resolution {s} < 2(2M+1) = {2 * (2 * m + 1)}"})
    grid = None
    if not diagnostics:
        grid = FourierGrid(m, s)
        coeffs = build_coefficients(cfg, grid, ctx, strict=False)
        for v in coeffs.gamma_violations()[:10]:
            diagnostics.append({
                "name": f"gamma_bound_{v['field']}",
                "message": (f"{v['field']}({v['x'][0]:.6f}, {v['x'][1]:.6f}) = "
                            f"{v['value']:.6f} violates its bound by {v['excess']:.3e}"),
            })
        wiener_cfg = cfg.get("wiener")
        if wiener_cfg and "resolution" in wiener_cfg:
            psi_spec = wiener_cfg.get("psi", {"constant": 0.0})
            if psi_spec != "canonical":
                psi = build_field(psi_spec, grid, ctx, "wiener.psi")
                req = required_resolution(psi, int(wiener_cfg.get("n_max", 256)))
                res = wiener_cfg["resolution"]
                res = (res, res) if np.isscalar(res) else tuple(res)
                if res[0] < req[0] or res[1] < req[1]:
                    diagnostics.append({
                        "name": "phase_resolution",
                        "message": f"wiener resolution {res} below requirement {req}",
                    })

    path = ctx.out_dir / "diagnostics.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(diagnostics), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    ctx.results["validate"] = {"diagnostics": len(diagnostics)}
    write_manifest(ctx, "validate", [path])
    lines = ([d["name"] + ": " + d["message"] for d in diagnostics]
             or ["no diagnostics; configuration is well-formed"])
    write_summary(ctx, "validate", lines)
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "bands": run_bands,
    "sweep": run_sweep,
    "gauge": run_gauge,
    "verify": run_verify,
    "wiener": run_wiener,
    "profile": run_profile,
    "validate": run_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac2d",
        description="Fourier-Galerkin toolkit for 2-D periodic Dirac operators.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, metavar="YAML")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (overrides config output_dir)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None, help="override config workers")
        p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                       help="override a config scalar (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.workers is not None:
            cfg["workers"] = args.workers
        check_schema(cfg, args.subcommand)
        out_dir = Path(args.out or cfg.get("output_dir", "runs/" + args.subcommand))
        out_dir.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(cfg, Path(args.config), out_dir,
                         seed=int(cfg.get("seed", 0)),
                         workers=int(cfg.get("workers", DEFAULTS["workers"])))
        return _RUNNERS[args.subcommand](ctx)
    except ConfigSchemaError as exc:
        print(f"config schema error: {exc}", file=sys.stderr)
        return 2
    except (InadmissibleParameterError, GammaValidationError, ResolutionError) as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return 4
    except Dirac2DError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
