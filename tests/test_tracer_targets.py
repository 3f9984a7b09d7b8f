"""The benchmark's tracer wraps gfbs functions by name, so a deleted or
renamed function must fail here, not only in a traced benchmark run."""

import importlib
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
