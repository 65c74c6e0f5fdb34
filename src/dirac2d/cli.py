"""Command-line front end: config ingestion, subcommand dispatch, persistence.

Runs are described by a single YAML document (nested key/value sections); a
few scalar flags (--seed, --out, --set key=value) override config scalars.
``SCHEMA`` lists every key a run reads with its kind and default.  Per-fiber
work runs serially: ``--workers`` and the ``workers`` key are still accepted,
but only with the value 1.
Every run writes a JSON manifest carrying the full configuration, every
tolerance and default in force, content hashes of the inputs and outputs, and
the seed policy, plus CSV data files and a plain-text summary; ``write_csv``
and ``write_json`` write every CSV and JSON file.  The config's JSON record is
made before any work or output, so a value JSON cannot hold (a YAML set, date,
binary, recursive alias or too deep nesting) is a schema violation.
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
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (
    SweepConfig,
    band_structure,
    brillouin_grid,
    cross_term_check,
    potential_profile,
    quadrature_resolution,
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

# libyaml's parser when PyYAML ships it (about 8x faster on a large config);
# both build the same Python objects through the safe constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# libyaml composes nested nodes recursively on the C stack and dies with a
# segmentation fault some 25,000 levels deep (8 MiB stack).  The depth is
# counted over the parser's events, which are not recursive, before anything is
# composed.  A config nested past about 1,000 levels is rejected later anyway,
# when it is made JSON; this limit only has to sit between the two.
MAX_YAML_DEPTH = 2000


def load_yaml(text: str):
    """``yaml.load`` with YAML_LOADER, refusing input nested past MAX_YAML_DEPTH."""
    depth = 0
    for event in yaml.parse(text, Loader=YAML_LOADER):
        if isinstance(event, (yaml.MappingStartEvent, yaml.SequenceStartEvent)):
            depth += 1
            if depth > MAX_YAML_DEPTH:
                raise yaml.YAMLError(f"nested deeper than {MAX_YAML_DEPTH} levels")
        elif isinstance(event, (yaml.MappingEndEvent, yaml.SequenceEndEvent)):
            depth -= 1
    return yaml.load(text, Loader=YAML_LOADER)


def load_config(path) -> dict:
    try:
        cfg = load_yaml(Path(path).read_text(encoding="utf-8"))
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
        try:
            node[keys[-1]] = load_yaml(raw)
        except yaml.YAMLError as exc:
            reason = " ".join(str(exc).split())
            raise ConfigSchemaError(f"{path.strip()}: cannot parse {raw!r} ({reason})") from exc
    return cfg


# What a run reads, by dotted key: (kind, default, words the key accepts in
# place of its kind...).  A mapping is listed before the keys inside it.  A key
# whose default is REQUIRED must be set, except that a section named after a
# subcommand is required only by that subcommand.  Field specs are checked where
# they are built (RunContext.field); a "word" key takes only its words.
REQUIRED = object()
SCHEMA = {
    "grid": ("map", REQUIRED), "grid.truncation_radius": ("int", REQUIRED),
    "grid.sample_resolution": ("int", REQUIRED),
    "coefficients": ("map", REQUIRED), "coefficients.p": ("real", REQUIRED),
    "coefficients.q": ("real", REQUIRED), "coefficients.f_bound": ("real", REQUIRED),
    "coefficients.G": ("field", REQUIRED), "coefficients.H": ("field", REQUIRED),
    "coefficients.F": ("field", REQUIRED),
    "seed": ("seed", 0), "workers": ("word", 1, 1),  # per-fiber work runs serially
    "output_dir": ("str", None),  # None: runs/<subcommand>
    "potential": ("map", None, None),  # null: no potential
    "potential.V0": ("field", {"constant": 0.0}),
    "potential.V1": ("field", {"constant": 0.0}), "potential.V2": ("field", {"constant": 0.0}),
    "potential.V3": ("field", {"constant": 0.0}),
    "bands": ("map", REQUIRED), "bands.k_grid": ("kgrid", {"n1": 8, "n2": 8}),
    "bands.n_bands": ("count", "all", "all", None),
    "bands.mode": ("word", "auto", "auto", "eigen", "singular"),
    "sweep": ("map", REQUIRED), "sweep.k1": ("num", np.pi),
    "sweep.direction": ("pair", [1.0, 0.0], "canonical"),
    "sweep.k_prime": ("pair", [0.0, 0.0]), "sweep.kappa_prime": ("pair", [0.0, 0.0]),
    "sweep.mu_grid": ("line", {"start": 0.0, "stop": 20 * np.pi, "count": 41}),
    "sweep.k2_grid": ("line", [0.0]),
    "verify": ("map", None), "verify.trials": ("count", 50), "verify.mu": ("num", 16 * np.pi),
    "verify.a": ("num", 4 * np.pi), "verify.k2": ("num", 0.0), "verify.counting": ("map", None),
    "verify.counting.k2_values": ("nums", [0.0, 0.3, np.pi]),
    "verify.counting.mu_values": ("nums", [0.0, 4 * np.pi, 12 * np.pi]),
    "verify.counting.a_values": ("nums", [2 * np.pi, 4 * np.pi, 8 * np.pi]),
    "verify.cross_term": ("map", None), "verify.cross_term.a": ("num", 2.5 * np.pi),
    "verify.cross_term.a_prime": ("num", 4.5 * np.pi),
    "wiener": ("map", REQUIRED), "wiener.w": ("field", REQUIRED),
    "wiener.psi": ("field", {"constant": 0.0}, "canonical"), "wiener.n_max": ("count", 256),
    "wiener.theta": ("num", 0.5), "wiener.resolution": ("res", None),  # None: as required
    "profile": ("map", REQUIRED), "profile.w": ("field", REQUIRED),  # grids None: the library's
    "profile.eps_grid": ("posnums", None), "profile.b_grid": ("nums", None),
    "profile.count_grid": ("counts", None), "profile.t_grid": ("posnums", None),
}
EXPECTED = {"num": "a finite number", "real": "a finite number, not text",
            "count": "a whole number >= 1", "pos": "a finite number > 0",
            "int": "an integer", "seed": "an integer >= 0", "str": "a string", "map": "a mapping",
            "pair": "a list of two numbers", "nums": "a non-empty list of numbers",
            "counts": "a non-empty list of whole numbers >= 1",
            "posnums": "a non-empty list of numbers > 0",
            "line": "{start, stop, count} or a non-empty list of numbers",
            "kgrid": "{n1, n2} or a non-empty list of [k1, k2] pairs",
            "res": "a positive integer or a pair of them"}
_TYPES = {"int": int, "seed": int, "str": str, "map": dict}
_PARTS = {"line": {"start": "num", "stop": "num", "count": "count"},
          "kgrid": {"n1": "count", "n2": "count"}}
_ENTRY = {"pair": "num", "nums": "num", "counts": "count", "posnums": "pos",
          "line": "num", "kgrid": "pair"}
_ABSENT = object()


def check_schema(cfg: dict, subcommand: str) -> None:
    """Reject a malformed config, naming the dotted key, before any work starts.

    Every key present is checked, whichever subcommand reads it.
    """
    others = set(SUBCOMMANDS) - {subcommand}
    for key, (kind, default, *words) in SCHEMA.items():
        if kind == "field":
            continue
        value = _lookup(cfg, key)
        if value is not _ABSENT:
            _check_value(value, key, kind, words)
        elif default is REQUIRED and key not in others:
            raise _missing(key)


def _lookup(cfg: dict, key: str):
    node = cfg
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            return _ABSENT
        node = node[part]
    return node


def _missing(key: str) -> ConfigSchemaError:
    section, _, name = key.rpartition(".")
    return ConfigSchemaError(f"{section or 'config'}: missing required key {name!r}")


def _check_value(value, key: str, kind: str, words=()) -> None:
    if any(type(value) is type(w) and value == w for w in words):  # workers: true is not 1
        return
    if kind in _PARTS and isinstance(value, dict):
        for part, sub in _PARTS[kind].items():
            _check_value(value.get(part), f"{key}.{part}", sub)
        return
    if kind == "real" and not isinstance(value, (int, float)):
        ok = False  # no text, unlike "num"
    elif kind in ("num", "real", "count", "pos"):
        try:
            x = float(value)  # YAML reads ``nan`` as text; bools are numbers
        except (TypeError, ValueError, OverflowError):
            x = np.nan
        ok = np.isfinite(x) and {"num": True, "real": True, "pos": x > 0,
                                 "count": x >= 1 and x.is_integer()}[kind]
    elif kind in _TYPES:
        ok = isinstance(value, _TYPES[kind]) and not (kind == "seed" and value < 0)
    elif kind == "res":
        pair = value if isinstance(value, list) and len(value) == 2 else [value]
        ok = all(type(r) is int and r >= 1 for r in pair)
    elif kind == "word":
        raise ConfigSchemaError(f"{key}: expected one of {', '.join(map(str, words))}, "
                                f"got {value!r}")
    else:
        ok = isinstance(value, list) and (len(value) == 2 if kind == "pair" else len(value) > 0)
        for i, entry in enumerate(value if ok else ()):
            _check_value(entry, f"{key}[{i}]", _ENTRY[kind])
    if not ok:
        raise ConfigSchemaError(f"{key}: expected {EXPECTED[kind]}, got {value!r}")


def _convert(value, kind: str):
    """A checked config value as a run uses it."""
    if kind in _PARTS and isinstance(value, dict):
        parts = [_convert(value[part], sub) for part, sub in _PARTS[kind].items()]
        return np.linspace(*parts) if kind == "line" else brillouin_grid(*parts)
    if kind in ("nums", "counts", "posnums", "line", "kgrid"):
        return np.asarray(value, dtype=float)
    if kind == "pair":
        return tuple(float(v) for v in value)
    if kind == "count":
        return int(float(value))  # the check accepts any whole number, also as text
    if kind in ("int", "seed"):
        return int(value)
    return float(value) if kind in ("num", "real", "pos") else value


# ---------------------------------------------------------------------------
# The run context
# ---------------------------------------------------------------------------

class RunContext:
    """A checked configuration, the inputs built from it, and the manifest they feed."""

    def __init__(self, cfg: dict, subcommand: str, config_path, out=None):
        check_schema(cfg, subcommand)
        try:
            # Round trip: YAML's number keys become text that sort_keys can order;
            # a set, date, bytes, recursive alias or too deep nesting fails here.
            self.config_record = json.loads(json.dumps(cfg, default=_json_default))
        except (TypeError, ValueError, RecursionError) as exc:
            raise ConfigSchemaError(f"config is not JSON-serializable: {exc}") from exc
        self.cfg = cfg
        self.subcommand = subcommand
        self.config_path = Path(config_path)
        self.seed = self["seed"]
        out = out or self["output_dir"]
        self.out_dir = Path(f"runs/{subcommand}" if out is None else out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.input_hashes = {str(self.config_path): _sha256_file(self.config_path)}

    def __getitem__(self, key: str):
        """The value at a dotted SCHEMA key, converted by its kind, or the key's default."""
        kind, default, *words = SCHEMA[key]
        value = _lookup(self.cfg, key)
        if value is _ABSENT:
            if default is REQUIRED:
                raise _missing(key)
            value = default
        return value if value is None or value in words else _convert(value, kind)

    def rng(self, offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)

    @cached_property
    def grid(self) -> FourierGrid:
        try:
            return FourierGrid(self["grid.truncation_radius"], self["grid.sample_resolution"])
        except ValueError as exc:
            raise InadmissibleParameterError(str(exc)) from exc

    @cached_property
    def coefficients(self) -> CoefficientSet:
        # validate lists bound violations where other runs stop at them.
        return CoefficientSet(*(self.field(f"coefficients.{name}") for name in "GHF"),
                              p=self["coefficients.p"], q=self["coefficients.q"],
                              f_bound=self["coefficients.f_bound"],
                              strict=self.subcommand != "validate")

    @cached_property
    def potential(self) -> MatrixPotential:
        return MatrixPotential(*(self.field(f"potential.{name}")
                                 for name in ("V0", "V1", "V2", "V3")))

    def field(self, key: str) -> PeriodicScalarField:
        """The field the spec at ``key`` describes; a malformed spec fails naming its key."""
        grid, spec = self.grid, self[key]
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
                path = (self.config_path.parent / value).resolve()
                self.input_hashes[str(path)] = _sha256_file(path)
                phi = load_field(path, grid)
        except KeyError as exc:  # a mode outside the truncation window
            raise InadmissibleParameterError(f"{key}: {exc}") from exc
        except (TypeError, ValueError, OverflowError, OSError) as exc:
            raise ConfigSchemaError(f"{key}: {exc}") from exc
        if not np.all(np.isfinite(phi.coeffs)):
            raise ConfigSchemaError(f"{key}: non-finite coefficients in {value!r}")
        return phi

    def finish(self, outputs: list[Path], results: dict, lines: list[str]) -> None:
        """Write manifest.json (config, contract, hashes, ``results``) and summary.txt."""
        manifest = {
            "schema": SCHEMA_VERSIONS["manifest"],
            "tool_version": __version__,
            "subcommand": self.subcommand,
            "config": self.config_record,
            "seed": self.seed,
            "seed_policy": "numpy.default_rng(seed [+ fixed per-suite offsets])",
            "tolerances": TOLERANCES,
            "defaults": DEFAULTS,
            "input_hashes": self.input_hashes,
            "outputs": {p.name: _sha256_file(p) for p in outputs},
            "results": {self.subcommand: results},
        }
        write_json(self.out_dir / "manifest.json", manifest)
        body = [f"dirac2d {self.subcommand}", f"seed: {self.seed}"] + lines
        (self.out_dir / "summary.txt").write_text("\n".join(body) + "\n", encoding="utf-8")


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_csv(path: Path, header, rows) -> None:
    """A header and rows; csv writes a float (numpy float64 too) as its shortest repr."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n",
                    encoding="utf-8")


def _json_default(obj):
    """``json.dumps`` hook: numpy scalars and arrays as Python values, complex as {re, im}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_bands(ctx: RunContext) -> int:
    coeffs, potential, kgrid = ctx.coefficients, ctx.potential, ctx["bands.k_grid"]
    n_bands = ctx["bands.n_bands"]
    table = band_structure(coeffs, potential, kgrid,
                           n_bands=None if n_bands == "all" else n_bands,
                           mode=ctx["bands.mode"])

    out = ctx.out_dir / "bands.csv"
    write_csv(out, ["k1", "k2", "index", "value"], table.rows())
    ctx.finish([out], {
        "mode": table.mode,
        "hermitian_defect": table.hermitian_defect,
        "n_fibers": len(table.kpoints),
        "values_per_fiber": int(table.values.shape[1]),
    }, [
        f"fibers: {len(table.kpoints)}; values per fiber: {table.values.shape[1]}",
        f"spectral mode: {table.mode} (hermitian defect {table.hermitian_defect:.3e})",
        f"fiber route: {table.route}",
        "outputs: bands.csv",
    ])
    return 0


def run_sweep(ctx: RunContext) -> int:
    coeffs, potential = ctx.coefficients, ctx.potential
    if abs(ctx["sweep.k1"] - np.pi) > 1e-12:
        raise InadmissibleParameterError("the sweep line is pinned to k1 = pi")
    direction = ctx["sweep.direction"]
    if direction == "canonical":
        direction = sweep_direction_from_gauge(solve_canonical_gauge(coeffs))
    sweep = SweepConfig(
        direction=direction,
        k_prime=ctx["sweep.k_prime"],
        kappa_prime=ctx["sweep.kappa_prime"],
        mu_grid=tuple(ctx["sweep.mu_grid"]),
        k2_grid=tuple(ctx["sweep.k2_grid"]),
    )
    report = sigma_min_sweep(coeffs, potential, sweep)

    out = ctx.out_dir / "sweep.csv"
    write_csv(out, ["mu_tilde", "k2", "sigma_min"], report.rows())
    out_min = ctx.out_dir / "sweep_min.csv"
    write_csv(out_min, ["mu_tilde", "sigma_min_over_k2"],
              zip(sweep.mu_grid, report.min_per_mu))
    ctx.finish([out, out_min], {
        "direction": list(sweep.direction),
        "min_sigma": float(report.min_per_mu.min()),
        "flagged_points": int(np.count_nonzero(report.flagged)),
        "floor_log_intercept": report.floor_log_intercept,
        "floor_log_slope": report.floor_log_slope,
    }, [
        f"direction e = {sweep.direction}",
        f"global sigma_min = {report.min_per_mu.min():.6e}",
        f"flagged points (< {TOLERANCES['sigma_min_flag']:g}): {int(np.count_nonzero(report.flagged))}",
        f"fiber route: {report.route}",
        "outputs: sweep.csv sweep_min.csv",
    ])
    return 0


def run_gauge(ctx: RunContext) -> int:
    canonical = solve_canonical_gauge(ctx.coefficients)

    out_phi = ctx.out_dir / "gauge_phi.csv"
    out_psi = ctx.out_dir / "gauge_psi.csv"
    write_csv(out_phi, ["n1", "n2", "re", "im"], field_to_records(canonical.phi))
    write_csv(out_psi, ["n1", "n2", "re", "im"], field_to_records(canonical.psi))
    out_json = ctx.out_dir / "gauge.json"
    write_json(out_json, {
        "schema": SCHEMA_VERSIONS["gauge"],
        "kappa_tilde": list(canonical.kappa_tilde),
        "c0_lower": canonical.c0_lower,
        "c3_star": canonical.c3_star,
        "residual": canonical.residual,
        "imag_residual": canonical.imag_residual,
        "phi": field_to_records(canonical.phi, drop_zeros=True),
        "psi": field_to_records(canonical.psi, drop_zeros=True),
    })
    ctx.finish([out_phi, out_psi, out_json], {
        "kappa_tilde": list(canonical.kappa_tilde),
        "c0_lower": canonical.c0_lower,
        "c3_star": canonical.c3_star,
        "residual": canonical.residual,
        "bound_chain_ok": canonical.bound_chain_ok,
        "max_abs_phi": float(np.max(np.abs(canonical.phi.coeffs))),
        "max_abs_psi": float(np.max(np.abs(canonical.psi.coeffs))),
    }, [
        f"kappa_tilde = ({canonical.kappa_tilde[0]!r}, {canonical.kappa_tilde[1]!r})",
        f"c0_lower = {canonical.c0_lower!r}; c3_star = {canonical.c3_star!r}",
        f"solver residual = {canonical.residual:.3e}",
        f"bound chain kappa_tilde_1 >= c3_star: {'ok' if canonical.bound_chain_ok else 'VIOLATED'}",
        "outputs: gauge_phi.csv gauge_psi.csv gauge.json",
    ])
    return 0


def run_wiener(ctx: RunContext) -> int:
    coeffs = ctx.coefficients
    w = ctx.field("wiener.w")
    if ctx["wiener.psi"] == "canonical":
        psi = solve_canonical_gauge(coeffs).psi
    else:
        psi = ctx.field("wiener.psi")
    n_max, theta = ctx["wiener.n_max"], ctx["wiener.theta"]
    report = wiener_average(w, psi, n_max, theta, resolution=ctx["wiener.resolution"])

    out = ctx.out_dir / "wiener.csv"
    write_csv(out, ["nu", "abs_i_plus", "abs_i_minus"],
              zip(range(1, n_max + 1), report.abs_i_plus, report.abs_i_minus))
    out_avg = ctx.out_dir / "wiener_avg.csv"
    write_csv(out_avg, ["n", "average"], zip(range(1, n_max + 1), report.averages))
    ctx.finish([out, out_avg], {
        "n_max": n_max,
        "theta": theta,
        "resolution": list(report.resolution),
        "required_resolution": list(report.required_resolution),
        "density_plus": report.density_plus,
        "density_minus": report.density_minus,
        "final_average": float(report.averages[-1]),
    }, [
        f"n_max = {n_max}, theta = {theta!r}",
        f"quadrature resolution {report.resolution} (required {report.required_resolution})",
        f"A({n_max}) = {report.averages[-1]:.6e}",
        f"excluded-set densities: +{report.density_plus!r} / -{report.density_minus!r}",
        "outputs: wiener.csv wiener_avg.csv",
    ])
    return 0


def run_profile(ctx: RunContext) -> int:
    profile = potential_profile(ctx.field("profile.w"), eps_grid=ctx["profile.eps_grid"],
                                b_grid=ctx["profile.b_grid"],
                                count_grid=ctx["profile.count_grid"],
                                t_grid=ctx["profile.t_grid"])

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
    ctx.finish(outs, {"c1_w": profile.c1_w, "c7": profile.c7}, [
        f"C_1(W) = {profile.c1_w!r}; c7 = {profile.c7!r}",
        "outputs: " + " ".join(p.name for p in outs),
    ])
    return 0


def _verify_checks(ctx: RunContext) -> list[dict]:
    grid, coeffs, potential = ctx.grid, ctx.coefficients, ctx.potential
    trials, mu, a, k2 = (ctx[f"verify.{name}"] for name in ("trials", "mu", "a", "k2"))
    k = (float(np.pi), k2)
    checks = []

    # Counting bound over the configured (k2, mu, a) grid.
    k2_values, mu_values, a_values = (ctx[f"verify.counting.{name}_values"]
                                      for name in ("k2", "mu", "a"))
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

    # Two-sided equivalence constants, from the coercivity check below.
    canonical = solve_canonical_gauge(coeffs)
    rep = verify_coercivity(coeffs, potential.v0, potential.v3, canonical.psi,
                            mu, a, k, trials=trials, seed=ctx.seed + 3)
    checks.append({"suite": "two_sided", "name": "0 < c1_emp <= c2_emp",
                   "value": [rep.c1, rep.c2], "bound": None, "passed": 0 < rep.c1 <= rep.c2})

    # Cross-term bound.
    w_field = potential.v1 if potential.v1.l2_norm() > 0 else coeffs.g
    ct = cross_term_check(w_field, weights, ctx["verify.cross_term.a"],
                          ctx["verify.cross_term.a_prime"], n_trials=trials,
                          seed=ctx.seed + 2)
    checks.append({"suite": "cross_term", "name": "|(phi, W psi)| / bound <= 1",
                   "value": ct.max_ratio, "bound": 1.0, "passed": ct.max_ratio <= 1.0})

    # Coercivity margins with the configured diagonal potential.
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
    srep = sigma_min_sweep(coeffs, potential, sweep)
    flags = int(np.count_nonzero(srep.flagged))
    checks.append({"suite": "sweep_floor",
                   "name": "sigma_min above the certificate floor on k1 = pi",
                   "value": flags, "bound": 0, "passed": flags == 0})
    return checks


def run_verify(ctx: RunContext) -> int:
    checks = _verify_checks(ctx)
    out = ctx.out_dir / "verify.csv"
    write_csv(out, ["suite", "name", "value", "bound", "passed"],
              [[c["suite"], c["name"], json.dumps(c["value"], default=_json_default),
                json.dumps(c["bound"], default=_json_default), int(c["passed"])] for c in checks])
    lines = [f"{'PASS' if c['passed'] else 'FAIL'}  {c['suite']}: {c['name']}"
             for c in checks]
    all_ok = all(c["passed"] for c in checks)
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    ctx.finish([out], {c["suite"]: bool(c["passed"]) for c in checks}, lines)
    for line in lines:
        print(line)
    return 0 if all_ok else 3


def run_validate(ctx: RunContext) -> int:
    diagnostics = []
    try:
        ctx.grid
    except InadmissibleParameterError as exc:
        diagnostics.append({"name": "grid_adequacy", "message": str(exc)})
    else:
        for v in ctx.coefficients.gamma_violations()[:10]:
            diagnostics.append({
                "name": f"gamma_bound_{v['field']}",
                "message": (f"{v['field']}({v['x'][0]:.6f}, {v['x'][1]:.6f}) = "
                            f"{v['value']:.6f} violates its bound by {v['excess']:.3e}"),
            })
        resolution = ctx["wiener.resolution"]
        if resolution is not None and ctx["wiener.psi"] != "canonical":
            try:
                quadrature_resolution(ctx.field("wiener.psi"), ctx["wiener.n_max"], resolution)
            except ResolutionError as exc:
                diagnostics.append({"name": "phase_resolution", "message": str(exc)})

    path = ctx.out_dir / "diagnostics.json"
    write_json(path, diagnostics)
    lines = ([d["name"] + ": " + d["message"] for d in diagnostics]
             or ["no diagnostics; configuration is well-formed"])
    ctx.finish([path], {"diagnostics": len(diagnostics)}, lines)
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
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for old configs; only 1 (per-fiber work runs serially)")
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
        ctx = RunContext(cfg, args.subcommand, args.config, args.out)
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
