"""Outside-in spans around blochlab's layers.

A traced pass replaces each layer's entry functions, in the modules that
call them, with wrappers that record a span (name, parent, start, end,
exception, sizes), and puts the originals back afterwards.  Nothing in the
program itself is changed.  A span is named "<layer>.<function>", where the
layer is the module that defines the function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

LAYERS = ("cli", "serialize", "pipeline", "universality", "approximation",
          "blochnorm", "expressions", "inner", "numerics")

# (module holding the reference, attribute, span name).  ``arcs`` has no
# span: its calls take microseconds and land in the caller's self time.
PATCHES = (
    ("blochlab.cli", "run_scenario", "cli.run_scenario"),
    ("blochlab.cli", "hyperbolic_quotient", "inner.hyperbolic_quotient"),
    ("blochlab.cli", "simul_approx_disc", "pipeline.simul_approx_disc"),
    ("blochlab.cli", "simul_approx_polydisc", "pipeline.simul_approx_polydisc"),
    ("blochlab.cli", "universal_build", "universality.universal_build"),
    ("blochlab.pipeline", "simul_approx_disc", "pipeline.simul_approx_disc"),
    ("blochlab.pipeline", "plateau_polynomial", "pipeline.plateau_polynomial"),
    ("blochlab.pipeline", "uniform_fit", "approximation.uniform_fit"),
    ("blochlab.pipeline", "runge_pair", "approximation.runge_pair"),
    ("blochlab.pipeline", "product_decompose", "approximation.product_decompose"),
    ("blochlab.pipeline", "bloch_norm", "blochnorm.bloch_norm"),
    ("blochlab.pipeline", "taylor_truncate", "expressions.taylor_truncate"),
    ("blochlab.pipeline", "compose_shrink", "inner.compose_shrink"),
    ("blochlab.pipeline", "hyperbolic_quotient", "inner.hyperbolic_quotient"),
    ("blochlab.pipeline", "indicator_measure", "numerics.indicator_measure"),
    ("blochlab.universality", "certify", "universality.certify"),
    ("blochlab.universality", "uniform_fit", "approximation.uniform_fit"),
    ("blochlab.universality", "bloch_norm", "blochnorm.bloch_norm"),
    ("blochlab.universality", "measure_metric", "numerics.measure_metric"),
    ("blochlab.universality", "indicator_measure", "numerics.indicator_measure"),
    # inner-function chains evaluated inside expression trees (truncation)
    ("blochlab.expressions", "_chain_eval", "inner.chain_eval"),
    ("blochlab.serialize", "to_document", "serialize.to_document"),
    ("blochlab.serialize", "from_document", "serialize.from_document"),
    ("blochlab.serialize", "save", "serialize.save"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _degree(poly) -> int:
    degree = getattr(poly, "degree", None)
    return int(degree if degree is not None else getattr(poly, "total_degree", 0))


def _fit_sizes(args, kwargs, result, exc):
    report = result if result is not None else getattr(exc, "best", None)
    return {"success": int(bool(result is not None and result.achieved)),
            "degree": report.degree if report is not None else 0}


# span name -> sizes(args, kwargs, result, exception) recorded on the span
SIZES = {
    "inner.hyperbolic_quotient": lambda a, k, r, e: {"points": int(getattr(_arg(a, k, 1, "z"),
                                                                           "size", 1))},
    "expressions.taylor_truncate": lambda a, k, r, e: {"samples": r.sample_count if r else 0},
    "blochnorm.bloch_norm": lambda a, k, r, e: {"degree": _degree(_arg(a, k, 0, "f"))},
    "approximation.uniform_fit": _fit_sizes,
    "numerics.indicator_measure": lambda a, k, r, e: {"samples": int(_arg(a, k, 1, "count"))},
    "serialize.save": lambda a, k, r, e: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))
                                          if e is None else 0},
}


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, error, sizes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None,
                    time.perf_counter(), None, None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
                if sizes is not None:
                    span[5] = sizes(args, kwargs, result, error)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every PATCHES entry; restore the originals on exit, even on error."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _size_total(spans, name, key):
    return sum(s[5][key] for s in spans if s[0] == name and s[5])


def _size_max(spans, name, key):
    return max((s[5][key] for s in spans if s[0] == name and s[5]), default=0)


def layer_metrics(spans, pass_wall: float) -> dict:
    """Per-layer numbers of one traced pass (values in s, counts or ratios).

    A span's self time is its duration minus that of its direct children;
    a function's time counts only its outermost span when it recurses.
    ``trace.unattributed_s`` is the pass time no span covers.
    """
    duration = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] is not None:
            child[s[1]] += duration[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive, calls = {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name.split(".")[0]] += duration[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        parent = s[1]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent is None:
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]

    def seconds(name):
        return inclusive.get(name, 0.0)

    fits = calls.get("approximation.uniform_fit", 0)
    plateaus = calls.get("pipeline.plateau_polynomial", 0)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "inner.hyperbolic_quotient.s": seconds("inner.hyperbolic_quotient"),
        "inner.hyperbolic_quotient.points": _size_total(spans, "inner.hyperbolic_quotient", "points"),
        # counted once, at the outermost inner span the error leaves
        "inner.quadrature_errors": sum(
            1 for s in spans if s[4] == "QuadratureError" and s[0].startswith("inner.")
            and (s[1] is None or not spans[s[1]][0].startswith("inner."))),
        "inner.compose_shrink.s": seconds("inner.compose_shrink"),
        "inner.compose_shrink.calls": calls.get("inner.compose_shrink", 0),
        "inner.chain_eval.s": seconds("inner.chain_eval"),
        "expressions.taylor_truncate.s": seconds("expressions.taylor_truncate"),
        "expressions.taylor_truncate.calls": calls.get("expressions.taylor_truncate", 0),
        "expressions.taylor_truncate.samples": _size_total(spans, "expressions.taylor_truncate", "samples"),
        "blochnorm.bloch_norm.s": seconds("blochnorm.bloch_norm"),
        "blochnorm.bloch_norm.calls": calls.get("blochnorm.bloch_norm", 0),
        "blochnorm.bloch_norm.degree_max": _size_max(spans, "blochnorm.bloch_norm", "degree"),
        "approximation.uniform_fit.s": seconds("approximation.uniform_fit"),
        "approximation.uniform_fit.calls": fits,
        "approximation.uniform_fit.success_ratio":
            _size_total(spans, "approximation.uniform_fit", "success") / fits if fits else 0.0,
        "approximation.uniform_fit.degree_max": _size_max(spans, "approximation.uniform_fit", "degree"),
        "approximation.product_decompose.s": seconds("approximation.product_decompose"),
        "pipeline.plateau_polynomial.s": seconds("pipeline.plateau_polynomial"),
        "pipeline.plateau_polynomial.calls": plateaus,
        # one ladder center is kept per disc run: disc runs / plateau syntheses
        "pipeline.ladder_kept_ratio":
            calls.get("pipeline.simul_approx_disc", 0) / plateaus if plateaus else 0.0,
        "numerics.indicator_measure.s": seconds("numerics.indicator_measure"),
        "numerics.indicator_measure.samples": _size_total(spans, "numerics.indicator_measure", "samples"),
        "numerics.measure_metric.s": seconds("numerics.measure_metric"),
        "numerics.measure_metric.calls": calls.get("numerics.measure_metric", 0),
        "universality.certify.s": seconds("universality.certify"),
        "universality.certify.calls": calls.get("universality.certify", 0),
        "serialize.s": sum(seconds(n) for n in
                           ("serialize.to_document", "serialize.from_document", "serialize.save")),
        "serialize.bytes": _size_total(spans, "serialize.save", "bytes"),
        "trace.unattributed_s": pass_wall - sum(d for d, s in zip(duration, spans) if s[1] is None),
    })
    return out
