"""Per-layer tracing for the traced run.

Each hook replaces one public ncpoly function at the name its caller looks
up (`ncpoly.cli.verify_reduction`, `ncpoly.reductions.base.apply_to_instance`,
the `FamilyInstance.poly` property, ...) with a wrapper that records a span
(metric, start, end, parent span, job) and adds counts read from the
returned object.  A layer's self time is its spans' duration minus the time
their child spans cover; the job's root span `cli.self_s` keeps whatever no
hook claims, so the self times of a job sum to its wall time.  Spans stay in
memory and are written out when the run ends.

Everything runs in one thread and no layer queues or retries work, so there
is no waiting time to report.  Counters only the program can see (paths
explored, memo entries) are not available from outside and are not traced.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "reductions", "circuits", "automata", "families", "abp", "algebra")

TIME_METRICS = (
    "cli.self_s",
    "reductions.build_s",
    "reductions.serialize_s",
    "reductions.apply_s.structured",
    "reductions.apply_s.termwise",
    "reductions.compare_s",
    "reductions.compose_s",
    "circuits.parse_s",
    "circuits.expand_s",
    "circuits.transform_s",
    "automata.compile_s",
    "automata.hadamard_s.circuit",
    "automata.hadamard_s.poly",
    "families.realize_s",
    "abp.parse_s",
    "abp.hankel_block_s",
    "algebra.exact_rank_s.q",
    "algebra.exact_rank_s.p",
    "algebra.parse_poly_s",
    "algebra.format_poly_s",
)

COUNT_METRICS = {
    "reductions.result_terms": "count",
    "reductions.dim": "count",
    "reductions.cells": "count",
    "reductions.file_bytes": "bytes",
    "circuits.expand_terms": "count",
    "automata.states": "count",
    "automata.hadamard_terms": "count",
    "families.terms": "count",
    "abp.hankel_cells": "count",
    "algebra.parse_poly_terms": "count",
    "algebra.format_poly_terms": "count",
}

STRUCTURED = "reductions.apply_s.structured"
TERMWISE = "reductions.apply_s.termwise"

BUILDERS = (
    "dyck_completeness_reduction",
    "pal_vsk_reduction",
    "pal_to_d2_reduction",
    "palsq_to_d2_reduction",
    "dk_to_d2_reduction",
    "dyck_depth_reduction",
    "per_to_idstar_reduction",
    "per_to_perstar_chi_reduction",
    "hierarchy_iproj",
    "iproj_to_abp",
    "vbp_trivial_reduction",
)


def _result_terms(name):
    return lambda args, result: {name: len(result.terms)}


def _reduction_size(args, r):
    sub = getattr(r, "substitution", None)  # hierarchy_iproj returns an indexed projection
    if sub is None:
        return {}
    return {"reductions.dim": sub.dim, "reductions.cells": sum(map(len, sub.entries.values()))}


def _hooks():
    """(module, attribute, metric or metric-from-arguments, counter)."""
    from ncpoly.circuits import Circuit
    from ncpoly.fields import ModInt

    def rank_field(args, kwargs):
        rows = args[0]
        modular = bool(rows) and bool(rows[0]) and isinstance(rows[0][0], ModInt)
        return "algebra.exact_rank_s.p" if modular else "algebra.exact_rank_s.q"

    def hadamard_input(args, kwargs):
        circuit = isinstance(args[0], Circuit)
        return "automata.hadamard_s.circuit" if circuit else "automata.hadamard_s.poly"

    parse_poly = ("algebra.parse_poly_s", _result_terms("algebra.parse_poly_terms"))
    format_poly = (
        "algebra.format_poly_s",
        lambda args, result: {"algebra.format_poly_terms": len(args[0].terms)},
    )
    hooks = [
        ("ncpoly.cli", "parse_circuit", "circuits.parse_s", None),
        ("ncpoly.cli", "expand", "circuits.expand_s", _result_terms("circuits.expand_terms")),
        ("ncpoly.reductions.completeness", "to_bracketed", "circuits.transform_s", None),
        ("ncpoly.reductions.completeness", "to_skew_bracketed", "circuits.transform_s", None),
        ("ncpoly.reductions.completeness", "homogenize", "circuits.transform_s", None),
        ("ncpoly.cli", "format_reduction", "reductions.serialize_s",
         lambda args, text: {"reductions.file_bytes": len(text)}),
        ("ncpoly.cli", "parse_reduction", "reductions.serialize_s",
         lambda args, result: {"reductions.file_bytes": len(args[0])}),
        ("ncpoly.cli", "verify_reduction", "reductions.compare_s", None),
        ("ncpoly.reductions.base", "apply_to_instance", STRUCTURED,
         _result_terms("reductions.result_terms")),
        ("ncpoly.reductions.base", "apply_abp_reduction", TERMWISE, None),
        ("ncpoly.cli", "compose_abp", "reductions.compose_s", None),
        ("ncpoly.cli", "hadamard_via_matrices", hadamard_input,
         _result_terms("automata.hadamard_terms")),
        ("ncpoly.cli", "parse_abp", "abp.parse_s", None),
        ("ncpoly.abp", "hankel_block", "abp.hankel_block_s",
         lambda args, b: {"abp.hankel_cells": len(b.rows) * len(b.cols)}),
        ("ncpoly.abp", "exact_rank", rank_field, None),
        ("ncpoly.cli", "parse_poly", *parse_poly),
        ("ncpoly.cli", "format_poly", *format_poly),
        ("ncpoly.reductions.serialize", "parse_poly", *parse_poly),
        ("ncpoly.reductions.serialize", "format_poly", *format_poly),
    ]
    hooks += [("ncpoly.cli", name, "reductions.build_s", _reduction_size) for name in BUILDERS]
    for module in ("base", "completeness", "dyck", "vnp"):
        hooks.append((f"ncpoly.reductions.{module}", "automaton_to_substitution",
                      "automata.compile_s", lambda args, sub: {"automata.states": sub.dim}))
    return hooks


class Tracer:
    """Spans as [metric, start, end, parent index, job] lists, plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.job = None
        self.missing: list = []
        self._stack: list = []

    def call(self, metric, fn, args, kwargs, counter=None):
        span = [metric, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[metric.split(".", 1)[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            for name, amount in counter(args, result).items():
                self.counts[name] += amount
        return result

    def wrap(self, fn, metric, counter=None):
        choose = metric if callable(metric) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = choose(args, kwargs) if choose else metric
            return self.call(name, fn, args, kwargs, counter)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block.  A hook whose
        target no longer exists is skipped and listed in `missing`."""
        from ncpoly.families import FamilyInstance

        self.missing = []
        undo = []
        try:
            for module_name, attr, metric, counter in _hooks():
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, metric, counter))
                undo.append((module, attr, original))
            prop = FamilyInstance.__dict__["poly"]

            def realize(inst):
                if inst._poly is not None:  # already realized: a cached read, not work
                    return prop.fget(inst)
                return self.call("families.realize_s", prop.fget, (inst,), {},
                                 lambda args, poly: {"families.terms": len(poly.terms)})

            FamilyInstance.poly = property(realize)
            undo.append((FamilyInstance, "poly", prop))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def self_times(spans: list):
    """Per span: (metric, self seconds, counts as a call).  An apply span
    whose work went to the termwise route is booked as termwise, and its
    call is counted once, by the termwise child."""
    covered = [0.0] * len(spans)
    termwise_parent = set()
    for metric, start, end, parent, _job in spans:
        if parent is not None:
            covered[parent] += end - start
            if metric == TERMWISE:
                termwise_parent.add(parent)
    out = []
    for i, (metric, start, end, _parent, _job) in enumerate(spans):
        call = True
        if metric == STRUCTURED and i in termwise_parent:
            metric, call = TERMWISE, False
        out.append((metric, end - start - covered[i], call))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, zero where a layer had no work."""
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    calls = dict.fromkeys(TIME_METRICS, 0)
    for metric, seconds, call in self_times(tracer.spans):
        totals[metric] += seconds
        calls[metric] += call
    out = {}
    for metric in TIME_METRICS:
        out[metric] = (totals[metric], "s")
        out[f"{metric}.calls"] = (calls[metric], "count")
    for name, unit in COUNT_METRICS.items():
        out[name] = (tracer.counts[name], unit)
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tracer.errors[layer], "count")
    return out


def job_self_sums(tracer: Tracer) -> dict:
    """Per job: {metric: self seconds}."""
    per_job: dict = defaultdict(lambda: defaultdict(float))
    for (metric, seconds, _call), span in zip(self_times(tracer.spans), tracer.spans):
        per_job[span[4]][metric] += seconds
    return per_job


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "cli.self_s")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(time.perf_counter() - t0 - plain, 0.0) / samples
