"""The benchmark's per-layer tracing patches named functions of ncpoly.

A hook whose target was renamed or removed is skipped at run time, and
its layer silently reads zero; this check fails instead."""

import importlib
import importlib.util
from pathlib import Path

from ncpoly.families import FamilyInstance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    hooks = load_tracing()._hooks()
    missing = [
        f"{module}.{attr}"
        for module, attr, _metric, _counter in hooks
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing
    assert hooks
    assert isinstance(FamilyInstance.__dict__["poly"], property)
