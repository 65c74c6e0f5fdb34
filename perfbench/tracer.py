"""Span tracer that instruments dirac2d from the outside.

The tracer replaces module-global names that a calling module looks up (for
example ``dirac2d.cli.band_structure`` or the ``np`` seen by
``dirac2d.operators``) with wrappers that record a span around each call.
A span has a name ``<layer>.<boundary>``, a start, an end, a parent and the
id of the benchmark operation it belongs to.  Spans stay in memory until the
run ends.  Nothing inside ``src/`` is modified: ``restore`` puts every
original object back.

A boundary that no longer exists in the program (renamed or deleted by a
refactor) is skipped and listed in ``missing``; its metrics then read 0.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("bench", "cli", "operators", "analysis", "gauge", "fourier", "kernels")

_COMPLEX_BYTES = 16


class _Proxy:
    """Stands in for a module: overridden attributes first, the module otherwise."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


def _dense_flops(fn_name: str, a) -> float:
    """Leading-order LAPACK flop counts (Golub & Van Loan), complex = 4 real flops."""
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    factor = 4.0 if getattr(a, "dtype", None) is not None and a.dtype.kind == "c" else 1.0
    if fn_name == "eigvalsh":
        return factor * (4.0 / 3.0) * n**3
    # Singular values only: bidiagonal reduction 4mn^2 - 4n^3/3.
    return factor * (4.0 * m * n * n - (4.0 / 3.0) * n**3)


class Tracer:
    def __init__(self):
        self.spans = []            # [id, parent, name, start_ns, end_ns, op_id]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing = []
        self._stack = []
        self._undo = []
        self._op_id = None

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter_ns(), None, self._op_id]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: str):
        """Root span of one benchmark operation; its descendants share ``op_id``."""
        self._op_id = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op_id = None

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, hook=None):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.missing.append(label)
            return
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def patch_namespace(self, module, name: str, sub: str, wrappers: dict):
        """Replace ``module.<name>`` by a proxy whose ``<sub>.<fn>`` calls are traced.

        ``wrappers`` maps a function name to (span name, hook); this traces, for
        example, ``np.fft.fft2`` as seen from one module and nowhere else.
        """
        if not hasattr(module, name):
            self.missing.append(f"{module.__name__}.{name}")
            return
        outer = getattr(module, name)
        inner = getattr(outer, sub)
        overrides = {}
        for fn_name, (span_name, hook) in wrappers.items():
            if hasattr(inner, fn_name):
                overrides[fn_name] = self.wrap(span_name, getattr(inner, fn_name), hook)
            else:
                self.missing.append(f"{module.__name__}.{name}.{sub}.{fn_name}")
        self._set(module, name, _Proxy(outer, {sub: _Proxy(inner, overrides)}))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- instrumentation of dirac2d -------------------------------------------

    def install(self, d):
        """Wrap the layer boundaries of the ``dirac2d`` package ``d``."""
        import dirac2d.analysis as analysis
        import dirac2d.cli as cli
        import dirac2d.fourier as fourier
        import dirac2d.gauge as gauge
        import dirac2d.operators as operators

        c = self.counters

        def count(key):
            def hook(args, kwargs, result):
                c[key] += 1
            return hook

        # cli: the benchmark calls cli.main; bytes are the files left in --out.
        if hasattr(cli, "main"):
            main = cli.main

            def cli_main(argv):
                with self.span(f"cli.{argv[0]}"):
                    rc = main(argv)
                out = Path(argv[argv.index("--out") + 1])
                c["cli.bytes_written"] += sum(p.stat().st_size for p in out.rglob("*")
                                              if p.is_file())
                return rc
            self._set(cli, "main", cli_main)
        else:
            self.missing.append("dirac2d.cli.main")

        # analysis: entry points as the CLI looks them up.
        def fibers_bands(args, kwargs, result):
            kgrid = args[2] if len(args) > 2 else kwargs.get("kgrid")
            c["analysis.fibers"] += len(kgrid)

        def fibers_sweep(args, kwargs, result):
            sweep = args[2] if len(args) > 2 else kwargs.get("sweep")
            c["analysis.fibers"] += len(sweep.mu_grid) * len(sweep.k2_grid)

        self.patch(cli, "band_structure", "analysis.band_structure", fibers_bands)
        self.patch(cli, "sigma_min_sweep", "analysis.sigma_min_sweep", fibers_sweep)
        self.patch(cli, "wiener_average", "analysis.wiener_average")
        self.patch(cli, "potential_profile", "analysis.potential_profile")
        self.patch(analysis, "smallest_singular_value", "analysis.smallest_singular_value",
                   count("analysis.sigma_min_calls"))

        def lapack_hook(fn_name):
            def hook(args, kwargs, result):
                c["analysis.dense_solve_calls"] += 1
                c["analysis.dense_solve_flops"] += _dense_flops(fn_name, args[0])
            return hook

        self.patch_namespace(analysis, "np", "linalg", {
            "eigvalsh": ("analysis.lapack", lapack_hook("eigvalsh")),
        })
        self.patch_namespace(analysis, "scipy", "linalg", {
            "svdvals": ("analysis.lapack", lapack_hook("svdvals")),
        })

        # kernels: the power-moment kernel as analysis calls it.
        def moments_hook(args, kwargs, result):
            z, n_max = args[1], int(args[2])
            c["kernels.power_moments_calls"] += 1
            c["kernels.power_moments_work"] += z.size * n_max
            c["kernels.power_moments_bytes"] += _moment_bytes(z.size, n_max)
        self.patch(analysis, "power_moments", "kernels.power_moments", moments_hook)

        # operators: assembly wherever another layer (or the benchmark) asks for it.
        for owner in (analysis, d):
            self.patch(owner, "assemble_dirac", "operators.assemble",
                       count("operators.assemble_calls"))
        for owner in (analysis, gauge):
            self.patch(owner, "assemble_dpm", "operators.assemble",
                       count("operators.assemble_calls"))
        self.patch(d, "gauge_conjugate", "operators.gauge_conjugate")
        self.patch(d, "restricted_operator_distance", "operators.distance")

        op_cls = getattr(operators, "TruncatedOperator", None)
        if op_cls is None:
            self.missing.append("dirac2d.operators.TruncatedOperator")
        else:
            self._trace_truncated_operator(op_cls)

        def fft_hook(args, kwargs, result):
            c["operators.fft_calls"] += 1
            c["operators.fft_bytes"] += args[0].nbytes + result.nbytes
        self.patch_namespace(operators, "np", "fft", {
            "fft2": ("operators.fft", fft_hook),
            "ifft2": ("operators.fft", fft_hook),
        })

        # gauge
        def residual_hook(args, kwargs, result):
            for attr in ("residual_plus", "residual_minus", "residual"):
                value = getattr(result, attr, None)
                if value is not None:
                    self.maxima["gauge.residual_max"] = max(
                        self.maxima["gauge.residual_max"], float(value))

        def solve_hook(args, kwargs, result):
            c["gauge.solve_calls"] += 1
            residual_hook(args, kwargs, result)

        for owner in (d, gauge):
            self.patch(owner, "solve_gauge", "gauge.solve", solve_hook)
        self.patch(cli, "solve_canonical_gauge", "gauge.solve", residual_hook)
        self.patch(gauge, "cokernel_vectors", "gauge.cokernel")

        def svd_hook(args, kwargs, result):
            c["gauge.svd_calls"] += 1
        self.patch_namespace(gauge, "np", "linalg", {"svd": ("gauge.svd", svd_hook)})

        # fourier
        field_cls = getattr(fourier, "PeriodicScalarField", None)
        if field_cls is None or "samples" not in field_cls.__dict__:
            self.missing.append("dirac2d.fourier.PeriodicScalarField.samples")
        else:
            def samples_hook(args, kwargs, result):
                c["fourier.samples_calls"] += 1
                c["fourier.samples_points"] += result.size
            self._set(field_cls, "samples",
                      self.wrap("fourier.samples", field_cls.__dict__["samples"], samples_hook))
        for owner in (fourier, operators, analysis, gauge, d):
            self.patch(owner, "sample_to_fourier", "fourier.to_fourier",
                       count("fourier.to_fourier_calls"))

    def _trace_truncated_operator(self, cls):
        c = self.counters

        def vectors(vec):
            shape = getattr(vec, "shape", ())
            return shape[1] if len(shape) == 2 else 1

        for attr in ("apply", "adjoint_apply"):
            if attr not in cls.__dict__:
                self.missing.append(f"TruncatedOperator.{attr}")
                continue

            def hook(args, kwargs, result):
                c["operators.apply_calls"] += 1
                c["operators.apply_vectors"] += vectors(args[1])
            self._set(cls, attr, self.wrap("operators.apply", cls.__dict__[attr], hook))

        prop = cls.__dict__.get("matrix")
        if not isinstance(prop, property):
            self.missing.append("TruncatedOperator.matrix")
            return
        getter = prop.fget
        tracer = self

        def matrix(op):
            # Only the first access builds the dense matrix; later ones hit the cache.
            if getattr(op, "_matrix", True) is not None:
                return getter(op)
            with tracer.span("operators.dense"):
                out = getter(op)
            c["operators.dense_calls"] += 1
            return out
        self._set(cls, "matrix", property(matrix, doc=prop.__doc__))

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children (seconds)."""
        child = [0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start - child[sid]) * 1e-9
                for sid, _, _, start, end, _ in self.spans]

    def inclusive(self, prefix: str) -> float:
        """Total time of spans named ``prefix*`` that have no such ancestor (seconds)."""
        names = [s[2] for s in self.spans]
        parents = [s[1] for s in self.spans]
        total = 0
        for sid, parent, name, start, end, _ in self.spans:
            if not name.startswith(prefix):
                continue
            p = parent
            while p is not None and not names[p].startswith(prefix):
                p = parents[p]
            if p is None:
                total += end - start
        return total * 1e-9

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for span, t in zip(self.spans, self.self_times()):
            layer = span[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def dump(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start_ns": start,
                 "end_ns": end, "op": op}
                for sid, parent, name, start, end, op in self.spans]


def _moment_bytes(points: int, n_max: int) -> float:
    """Bytes the power-moment kernel streams, computed from array sizes.

    The numpy recurrence reads and writes the running power p and reads z for
    each moment (p *= z), then reads p again for the mean: 4 complex arrays
    of ``points`` per moment.  A compiled kernel keeping p in a register
    reads w and z once.
    """
    try:
        from dirac2d._kernels import HAVE_NUMBA
    except ImportError:
        HAVE_NUMBA = False
    if HAVE_NUMBA:
        return 2.0 * _COMPLEX_BYTES * points
    return 4.0 * _COMPLEX_BYTES * points * n_max
