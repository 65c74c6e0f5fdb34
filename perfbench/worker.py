"""One benchmark process: set up a workload, then run timed or traced passes.

Started by run.py as a fresh interpreter so that set-up time and peak
resident memory belong to the process that does the work::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --result PATH

Modes:
  setup   import dirac2d, generate and load the inputs, warm up; report set-up time
  timed   set up, then run untraced passes for --seconds (at least MIN_PASSES)
  traced  set up, then an untraced pass, a traced pass and another untraced pass
  single  set up, then one untraced pass (run.py starts it with BLAS pinned to 1 thread)

The result is written as JSON to --result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# Stop starting passes once another one could overrun the run's time limit.
PASS_DEADLINE_S = 140.0


def import_dirac2d():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dirac2d
    import dirac2d.cli  # noqa: F401  (the CLI is part of what users import)
    if Path(dirac2d.__file__).resolve().parent != (src / "dirac2d").resolve():
        raise ImportError(f"dirac2d imported from {dirac2d.__file__}, not from {src}")
    return dirac2d


def run_pass(workload, pass_dir: Path, tracer=None) -> dict:
    """Run every operation once; return wall time and per-operation outcomes."""
    from workloads import CheckFailed

    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    outcomes = []
    start = time.perf_counter()
    for name, op in workload.operations():
        ok, digest, error = False, None, ""
        t0 = time.perf_counter()
        with tracer.operation(name) if tracer is not None else nullcontext():
            try:
                digest = op(pass_dir)
                ok = True
            except CheckFailed as exc:
                error = str(exc)
            except Exception:  # an operation that crashes counts as failed
                error = traceback.format_exc(limit=3)
        outcomes.append({"op": name, "ok": ok, "digest": digest, "error": error,
                         "wall_s": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    shutil.rmtree(pass_dir)
    return {"wall_s": wall, "ops": outcomes}


def set_up(name: str, seed: int, size: str, workdir: Path):
    """Import dirac2d, build the workload's inputs and run it once at tiny size."""
    d = import_dirac2d()
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(d, seed, workdir / "inputs", size)
    # Warm-up: first-call costs (lazy imports, BLAS start-up) land in set-up.
    warm = cls(d, seed, workdir / "warmup-inputs", "tiny")
    run_pass(warm, workdir / "warmup")
    return d, workload


def check_determinism(passes: list) -> None:
    """Mark an operation failed when its digest differs from the first pass."""
    first = {o["op"]: o["digest"] for o in passes[0]["ops"]}
    for p in passes[1:]:
        for o in p["ops"]:
            if o["ok"] and o["digest"] != first.get(o["op"]):
                o["ok"] = False
                o["error"] = "outputs differ from the first pass of this run"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced", "single"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    d, workload = set_up(args.workload, args.seed, args.size, workdir)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "passes": []}

    if args.mode == "timed":
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            done = len(result["passes"])
            if done >= MIN_PASSES and elapsed >= args.seconds:
                break
            if done and elapsed + result["passes"][-1]["wall_s"] > PASS_DEADLINE_S:
                break
            result["passes"].append(run_pass(workload, workdir / f"pass{done}"))
    elif args.mode == "single":
        result["passes"].append(run_pass(workload, workdir / "pass0"))
    elif args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        result["passes"].append(run_pass(workload, workdir / "pass0"))
        tracer.install(d)
        try:
            with tracer.span("bench.pass"):
                traced = run_pass(workload, workdir / "pass1", tracer)
        finally:
            tracer.restore()
        result["passes"].append(traced)
        result["passes"].append(run_pass(workload, workdir / "pass2"))
        result["trace"] = summarize(tracer)
        result["spans"] = tracer.dump()

    if len(result["passes"]) > 1:
        check_determinism(result["passes"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment(d)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def summarize(tracer) -> dict:
    """Per-layer metrics of the traced pass (see README.md for definitions)."""
    c, inc = tracer.counters, tracer.inclusive
    selfs = tracer.layer_self()
    m = {
        "cli.bands_s": inc("cli.bands"),
        "cli.sweep_s": inc("cli.sweep"),
        "cli.wiener_s": inc("cli.wiener"),
        "cli.profile_s": inc("cli.profile"),
        "cli.bytes_written": c["cli.bytes_written"],
        "operators.assemble_calls": c["operators.assemble_calls"],
        "operators.assemble_s": inc("operators.assemble"),
        "operators.dense_calls": c["operators.dense_calls"],
        "operators.dense_s": inc("operators.dense"),
        "operators.apply_calls": c["operators.apply_calls"],
        "operators.apply_vectors": c["operators.apply_vectors"],
        "operators.apply_s": inc("operators.apply"),
        "operators.fft_calls": c["operators.fft_calls"],
        "operators.fft_bytes": c["operators.fft_bytes"],
        "analysis.fibers": c["analysis.fibers"],
        "analysis.band_structure_s": inc("analysis.band_structure"),
        "analysis.sigma_min_calls": c["analysis.sigma_min_calls"],
        "analysis.sigma_min_s": inc("analysis.sigma_min_sweep"),
        "analysis.dense_solve_calls": c["analysis.dense_solve_calls"],
        "analysis.dense_solve_flops": c["analysis.dense_solve_flops"],
        "analysis.wiener_s": inc("analysis.wiener_average"),
        "analysis.profile_s": inc("analysis.potential_profile"),
        "gauge.solve_calls": c["gauge.solve_calls"],
        "gauge.solve_s": inc("gauge.solve"),
        "gauge.svd_calls": c["gauge.svd_calls"],
        "gauge.svd_s": inc("gauge.svd"),
        "gauge.residual_max": tracer.maxima["gauge.residual_max"],
        "fourier.samples_calls": c["fourier.samples_calls"],
        "fourier.samples_points": c["fourier.samples_points"],
        "fourier.samples_s": inc("fourier.samples"),
        "fourier.to_fourier_calls": c["fourier.to_fourier_calls"],
        "fourier.to_fourier_s": inc("fourier.to_fourier"),
        "kernels.power_moments_calls": c["kernels.power_moments_calls"],
        "kernels.power_moments_work": c["kernels.power_moments_work"],
        "kernels.power_moments_bytes": c["kernels.power_moments_bytes"],
        "kernels.power_moments_s": inc("kernels.power_moments"),
    }
    for layer, t in selfs.items():
        m[f"{layer}.self_s"] = t
    m["trace.spans"] = float(len(tracer.spans))
    m["trace.wall_s"] = inc("bench.pass")
    return {"metrics": m, "missing": tracer.missing}


def environment(d) -> dict:
    import numpy
    import scipy

    try:
        from dirac2d._kernels import HAVE_NUMBA
    except ImportError:
        HAVE_NUMBA = "numba" in sys.modules
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dirac2d": getattr(d, "__version__", "unknown"),
        "numba_loaded": bool(HAVE_NUMBA),
        "power_moment_backend": "numba" if HAVE_NUMBA else "numpy",
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": 1,
    }


def blas_threads() -> dict:
    """Thread count of each OpenBLAS copy loaded by numpy and scipy."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


if __name__ == "__main__":
    sys.exit(main())
