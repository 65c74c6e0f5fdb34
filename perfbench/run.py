"""dirac2d benchmark: seeded workloads through the CLI and the library API.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fiber_spectra --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics of a separately traced
pass, the tracing overhead and an informational pass with BLAS pinned to one
thread.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give failed_frac and the environment.  Full results, including every span of
a traced run, are written under ``.perfbench_out/``.

Load shape: a closed loop with one client.  One process runs the operations
back to back, each waiting for the previous one; dirac2d runs with
workers = 1 and BLAS at its default thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("fiber_spectra", "gauge_identity", "oscillatory")
# Seed 2 is the holdout seed (see README.md).
DEFAULT_SEED = 1
# Set-up is measured in this many fresh interpreters besides the timed one.
SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    if name == "gauge.residual_max":
        return "norm"
    if name == "blas1.slowdown":
        return "ratio"
    return "count"


def source_digest() -> str:
    """sha256 over the package sources (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Runner:
    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tag = f"{workload}-seed{seed}-{size}"

    def worker(self, mode: str, seconds: float = 0.0, env: dict | None = None) -> dict:
        workdir = OUT / "work" / f"{self.tag}-{mode}"
        result = OUT / "work" / f"{self.tag}-{mode}.json"
        result.parent.mkdir(parents=True, exist_ok=True)
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds),
               "--size", self.size, "--workdir", str(workdir), "--result", str(result)]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **(env or {})},
                              capture_output=True, text=True, timeout=timeout)
        sys.stderr.write(proc.stdout + proc.stderr)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8"))


def outcomes(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for res in results:
        for p in res["passes"]:
            for o in p["ops"]:
                attempted += 1
                if not o["ok"]:
                    failed += 1
                    errors.append(f"{o['op']}: {o['error']}")
    return attempted, failed, errors


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    timed = runner.worker("timed", seconds)
    setups.append(timed["setup_s"])
    walls = [p["wall_s"] for p in timed["passes"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    detail = {"pass_wall_s": walls, "setup_samples_s": setups}
    return metrics, [timed], detail


def traced_run(runner: Runner) -> tuple[dict, list[dict], dict]:
    traced = runner.worker("traced")
    pinned = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    single = runner.worker("single", env=pinned)
    metrics = dict(traced["trace"]["metrics"])
    untraced = min(traced["passes"][0]["wall_s"], traced["passes"][2]["wall_s"])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") and not k.startswith("bench."))
    metrics["trace.layers_self_s"] = layers
    metrics["blas1.wall_s"] = single["passes"][0]["wall_s"]
    metrics["blas1.slowdown"] = metrics["blas1.wall_s"] / untraced
    detail = {"missing_boundaries": traced["trace"]["missing"],
              "pass_wall_s": [p["wall_s"] for p in traced["passes"]],
              "blas1_environment": single["environment"]}
    spans_path = OUT / f"trace-{runner.tag}.json"
    spans_path.write_text(json.dumps({"spans": traced["spans"]}), encoding="utf-8")
    return metrics, [traced, single], detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the self-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dirac2d" / "__init__.py").is_file():
        print(f"no dirac2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.size)
    try:
        if args.trace:
            values, results, detail = traced_run(runner)
            units = {k: per_layer_units(k) for k in values}
        else:
            values, results, detail = timed_run(runner, args.seconds)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors = outcomes(results)
    env = dict(results[0]["environment"], commit=commit_id(), source_sha256=source_digest())
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "attempted": attempted, "failed": failed, "errors": errors, **detail,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{runner.tag}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2), encoding="utf-8")

    for e in errors:
        print(f"FAILED {e}")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for k, v in values.items():
        print(f"{k}: {v:.6g} {units[k]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
