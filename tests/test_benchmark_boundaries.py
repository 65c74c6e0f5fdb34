"""The benchmark tracer (perfbench/tracer.py) finds every boundary it wraps.

The tracer patches names in ``dirac2d`` from the outside and reports a renamed
or deleted one in ``missing``; its metrics would then read 0.
"""

import importlib.util
from pathlib import Path

import dirac2d as d

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_boundary():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install(d)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
