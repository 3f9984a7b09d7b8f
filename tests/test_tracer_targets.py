"""The benchmark's tracer wraps gfbs functions by name, and its workloads
and checks import and call them, so a deleted or renamed name must fail
here, not only in a benchmark run."""

import importlib
import inspect
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "pipebench" / "tracer.py"


def _resolve(module: str, attr: str):
    """``module.attr`` with ``attr`` possibly ``Class.method``; None if gone."""
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name, None)
    return obj


def test_every_tracer_target_resolves():
    targets = runpy.run_path(str(TRACER))["TARGETS"]  # compiled from source, nothing cached
    missing = [f"{module}.{attr}" for module, attrs in targets.items() for attr in attrs
               if not callable(_resolve(module, attr))]
    assert not missing, f"tracer targets gone from gfbs: {missing}"


def test_benchmark_imports_and_calls_bind(monkeypatch):
    """The benchmark's modules import, every workload's train settings build
    a TrainConfig, and the forward_full call its checks make still binds."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    for wl in workloads.WORKLOADS.values():
        workloads.TrainConfig(**wl.base)
        workloads.TrainConfig(**wl.tune)
    inspect.signature(checks.forward_full).bind(None, None, "eval", update_stats=False)
