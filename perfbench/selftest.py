"""Fast self-test of the benchmark at tiny sizes (M = 3..6, a few points).

    python3 perfbench/selftest.py

Runs every workload through run.py untraced and traced, and checks that each
run is correct and emits exactly the metric names and units BENCHMARK.json
declares.  It also checks that a pass whose outputs change is marked failed,
and that the benchmark refuses to run without the program's sources.
Everything it writes stays under .perfbench_out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"], ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics differ: {set(got) ^ set(want)}"
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), (name, value)
    if trace:
        detail = json.loads((ROOT / ".perfbench_out" /
                             f"result-{workload}-seed3-tiny-trace1.json").read_text())
        assert not detail["missing_boundaries"], detail["missing_boundaries"]
        assert detail["blas1_environment"]["blas_threads"].get("numpy") in (None, 1)
    print(f"ok  {workload} trace={trace}")


def check_determinism_gate() -> None:
    sys.path.insert(0, str(HERE))
    from worker import check_determinism

    passes = [{"ops": [{"op": "a", "ok": True, "digest": "x", "error": ""}]},
              {"ops": [{"op": "a", "ok": True, "digest": "y", "error": ""}]}]
    check_determinism(passes)
    assert not passes[1]["ops"][0]["ok"], "changed outputs were not flagged"
    print("ok  determinism gate")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "oscillatory", "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_determinism_gate()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
