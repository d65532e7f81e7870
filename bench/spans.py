"""Per-layer spans for the traced benchmark run.

`install` wraps, from outside the package, every public function that one
rank2verma module imports from another, under the name the caller looks it
up by, plus `GradedQuotient.__init__`, `GradedQuotient.reduce` and the few
calls inside one module listed in WITHIN_LAYER.  Each call becomes a span with a
parent; a layer's self time is its spans' durations minus their children's.
Spans stay in memory; `summary` folds them into per-name self times and
counters, which `layer_metrics` turns into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("cartan", "gamma", "freealg", "verma", "pbw", "products")
CALLERS = LAYERS + ("cli",)

BUILD = "freealg.GradedQuotient.__init__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(tracer, args, result,
        index)` runs once the span has closed, so its cost is not the span's."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.clock(), None, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = self.clock()
            if after is not None:
                after(self, args, result, index)
            return result

        return traced

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def summary(self) -> dict:
        return {
            "self_s": self_times(self.spans),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans": len(self.spans),
        }


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children, summed over spans of that name."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def merge(summaries) -> dict:
    """Fold the summaries of several processes into one."""
    total = {"self_s": Counter(), "counts": Counter(), "maxima": {}, "spans": 0}
    for s in summaries:
        total["self_s"].update(s["self_s"])
        total["counts"].update(s["counts"])
        for k, v in s["maxima"].items():
            total["maxima"][k] = max(total["maxima"].get(k, 0), v)
        total["spans"] += s["spans"]
    return total


# --- hooks that count work at the boundaries --------------------------------


def _after_build(tr, args, result, index):
    tr.counts["quotient_builds"] += 1
    tr.counts["quotient_words"] += len(args[0].words)


def _after_graded_quotient(tr, args, result, index):
    tr.counts["quotient_calls"] += 1
    nxt = index + 1
    built = nxt < len(tr.spans) and tr.spans[nxt][0] == BUILD and tr.spans[nxt][3] == index
    if not built:
        tr.counts["quotient_hits"] += 1


def _after_kernel(tr, args, result, index):
    rows, ncols = args
    tr.counts["kernel_calls"] += 1
    tr.counts["kernel_cells"] += len(rows) * ncols


def _after_singular(tr, args, result, index):
    tr.counts["singular_vectors_calls"] += 1
    tr.counts["kernel_dim1"] += result.kernel_dim == 1
    for vec in result.vectors:
        for c in vec.coeffs.values():
            tr.note_max("coeff_bits", max(c.numerator.bit_length(), c.denominator.bit_length()))


def _counter(key, size=None):
    def after(tr, args, result, index):
        tr.counts[key] += 1 if size is None else size(args, result)

    return after


HOOKS = {
    BUILD: _after_build,
    "freealg.graded_quotient": _after_graded_quotient,
    "freealg.kernel_basis": _after_kernel,
    "freealg.GradedQuotient.reduce": _counter("reduce_calls"),
    "verma.singular_vectors": _after_singular,
    "verma.e_action": _counter("e_action_calls"),
    "pbw.project": _counter("project_words", lambda a, r: len(a[0].coeffs)),
    "pbw.factor_shift_identities": _counter("identity_checks", lambda a, r: len(r)),
    "products.expand_product": _counter("factors_expanded", lambda a, r: a[0].factor_count()),
}


# calls inside one module that still mark a stage: the e-action inside
# singular_vectors, the product and comparison inside end_to_end, and
# end_to_end itself, which the warm worker calls
WITHIN_LAYER = (
    ("verma", "e_action"),
    ("products", "expand_product"),
    ("products", "proportionality"),
    ("products", "end_to_end"),
)


def install(tracer: Tracer) -> None:
    """Patch the package in this process so that every call across a layer
    boundary records a span.  Call before any work is done."""
    import rank2verma.cli  # noqa: F401  (imports every layer)

    # the package attribute rank2verma.gamma is the gamma() function, so the
    # modules are taken from sys.modules
    mods = {name: sys.modules[f"rank2verma.{name}"] for name in CALLERS}
    for layer in LAYERS:
        source = mods[layer].__name__
        for caller in mods.values():
            if caller.__name__ == source:
                continue
            for attr, obj in list(vars(caller).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == source
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{obj.__name__}"
                    setattr(caller, attr, tracer.wrap(name, obj, HOOKS.get(name)))
    quotient = mods["freealg"].GradedQuotient
    for method in ("__init__", "reduce"):
        name = f"freealg.GradedQuotient.{method}"
        setattr(quotient, method, tracer.wrap(name, getattr(quotient, method), HOOKS[name]))
    for layer, attr in WITHIN_LAYER:
        name = f"{layer}.{attr}"
        setattr(mods[layer], attr, tracer.wrap(name, getattr(mods[layer], attr), HOOKS.get(name)))


# --- per-layer metrics -------------------------------------------------------

_SELF = {
    "freealg.quotient_build_s": BUILD,
    "freealg.kernel_s": "freealg.kernel_basis",
    "freealg.reduce_s": "freealg.GradedQuotient.reduce",
    "verma.singular_vectors_self_s": "verma.singular_vectors",
    "verma.e_action_s": "verma.e_action",
    "pbw.project_s": "pbw.project",
    "pbw.identities_s": "pbw.factor_shift_identities",
    "products.expand_product_s": "products.expand_product",
    "products.proportionality_s": "products.proportionality",
    "products.end_to_end_self_s": "products.end_to_end",
    "cli.self_s": "cli.main",
}

_COUNTS = {
    "freealg.quotient_builds": "quotient_builds",
    "freealg.quotient_words": "quotient_words",
    "freealg.kernel_calls": "kernel_calls",
    "freealg.kernel_cells": "kernel_cells",
    "freealg.reduce_calls": "reduce_calls",
    "verma.singular_vectors_calls": "singular_vectors_calls",
    "verma.e_action_calls": "e_action_calls",
    "pbw.project_words": "project_words",
    "pbw.identity_checks": "identity_checks",
    "products.factors_expanded": "factors_expanded",
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, report_bytes: int, job_s_p50: float) -> dict[str, float]:
    """Per-layer metric values from a merged summary; a layer the workload
    never reaches reads 0."""
    self_s, counts = summary["self_s"], summary["counts"]
    values: dict[str, float] = {k: self_s.get(v, 0.0) for k, v in _SELF.items()}
    values.update({k: counts.get(v, 0) for k, v in _COUNTS.items()})
    for layer in ("gamma", "cartan"):
        values[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
    values["freealg.quotient_hit_ratio"] = _ratio(counts.get("quotient_hits", 0), counts.get("quotient_calls", 0))
    values["verma.kernel_dim1_ratio"] = _ratio(counts.get("kernel_dim1", 0), counts.get("singular_vectors_calls", 0))
    values["verma.coeff_bits_max"] = summary["maxima"].get("coeff_bits", 0)
    values["cli.report_bytes"] = report_bytes
    values["trace.job_s_p50"] = job_s_p50
    values["trace.spans"] = summary["spans"]
    return values
