"""The README's library example, and the names and call shapes that the
benchmark in ``perfbench/`` reaches into the package by."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from lbmf import dispatch, ode, stationary, systemtime
from lbmf.model import Policy

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch):
    """The README's Python block runs as written, from the repository root."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["density"].density.shape == scope["t_grid"].shape
    assert scope["mean"] > 0 and scope["result"].arrivals > 0


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_exist():
    """Every entry point the benchmark's tracer wraps by name is there."""
    tracer = _tracer()
    for mod, attr in tracer.SPANNED:
        assert callable(getattr(importlib.import_module(f"lbmf.{mod}"), attr)), (mod, attr)
    assert callable(dispatch.field)
    # the tracer reads the step arguments of these two off their signatures
    integrate = inspect.signature(ode.integrate).parameters
    assert {"horizon", "dt", "sample_interval"} <= integrate.keys()
    assert {"dt", "check_interval"} <= inspect.signature(ode.solve_to_stationarity).parameters.keys()


def test_workload_call_shapes(hom_spec):
    """The benchmark's analytic workload unpacks ``mean_sojourn`` and
    ``little`` as pairs, reads a float JSQ(d) balance residual and the
    types' rate curves."""
    policy = Policy("jsqd", d=2)
    report = stationary.solve(hom_spec, policy)
    mean, _ = systemtime.mean_sojourn(hom_spec, policy, report)
    per_type, overall = stationary.little(hom_spec, policy, report)
    assert len(per_type) == hom_spec.k and overall == pytest.approx(mean, rel=1e-6)
    residual = stationary.jsqd_balance_residual(hom_spec, 2, report.nu)
    assert isinstance(residual, float) and residual < 1e-9
    assert hom_spec.types[0].curve.rates[hom_spec.types[0].buffer] > 0
