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


def test_exact_rank_hook_reads_the_field_of_span_ranks(capsys):
    # the hook picks its metric from rows[0][0], so the span route hands
    # exact_rank indexable rows whose first row holds column 0
    from ncpoly.cli import main

    tracer = load_tracing().Tracer()
    with tracer.installed():
        for field, metric in (("q", "algebra.exact_rank_s.q"), ("p=5", "algebra.exact_rank_s.p")):
            tracer.spans.clear()
            for spec in ("dyck:k=2,d=6", "per:n=4"):
                assert main(["--field", field, "rank", spec, "--cut", "3"]) == 0
            assert [span[0] for span in tracer.spans] == [metric, metric]
    assert not tracer.errors and not tracer.missing
    capsys.readouterr()
