"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    # From a temporary directory: a demo that saves a figure writes it under
    # demos/ relative to the working directory, not into the checkout.
    (tmp_path / "demos").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(REPO / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
