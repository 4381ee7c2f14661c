"""Span tracer that wraps zetawalk's public functions from outside the package.

`install` replaces every public function of the package's modules, and the
Poly and RatMatrix methods named below, with a wrapper that records a span:
name, layer, start, end and the index of the span that caused it. The
wrapper is put wherever a caller looks the function up, which includes the
names that one module imported from another. Spans stay in memory until
the run ends; `layer_metrics` reduces the spans of one pass to the per-layer
metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "zetawalk"
LAYERS = ("graphs", "operators", "rational", "polynomials", "zeta", "limits", "cli")

POLY_ARITH = ("__mul__", "__rmul__", "__pow__", "__eq__", "__add__", "__sub__", "__neg__")
POLY_METHODS = POLY_ARITH + ("eval_exact",)

# per-layer metrics, with their units, in the order they are printed
METRICS = {
    "graphs.load_s": "s",
    "graphs.arc_space_s": "s",
    "graphs.arcs": "arcs",
    "graphs.self_s": "s",
    "operators.assembly_s": "s",
    "rational.det_s": "s",
    "rational.det_calls": "count",
    "rational.det_dim_max": "rows",
    "rational.det_bits_max": "bits",
    "rational.matmul_s": "s",
    "rational.matmul_calls": "count",
    "rational.self_s": "s",
    "polynomials.reconstruct_s": "s",
    "polynomials.poly_arith_s": "s",
    "polynomials.eval_exact_s": "s",
    "polynomials.log_series_s": "s",
    "polynomials.coeff_bits_max": "bits",
    "polynomials.self_s": "s",
    "zeta.self_s": "s",
    "limits.spectrum_s": "s",
    "limits.quadrature_s": "s",
    "limits.finite_torus_s": "s",
    "limits.self_s": "s",
    "cli.self_s": "s",
}

# spans whose inclusive time is a metric
INCLUSIVE = {
    "graphs.load_graph": "graphs.load_s",
    "graphs.arc_space": "graphs.arc_space_s",
    "rational.det_bareiss_int": "rational.det_s",
    "rational.RatMatrix.__matmul__": "rational.matmul_s",
    "limits.graph_spectrum": "limits.spectrum_s",
    "limits.torus_limit_log_mean": "limits.quadrature_s",
    "limits.finite_torus_zeta_reciprocal": "limits.finite_torus_s",
}
# spans whose self time is a metric
OWN = {
    "polynomials.det_matrix_polynomial": "polynomials.reconstruct_s",
    "polynomials.Poly.eval_exact": "polynomials.eval_exact_s",
    "polynomials.log_series": "polynomials.log_series_s",
    **{f"polynomials.Poly.{attr}": "polynomials.poly_arith_s" for attr in POLY_ARITH},
}
# spans whose calls are counted
CALLS = {
    "rational.det_bareiss_int": "rational.det_calls",
    "rational.RatMatrix.__matmul__": "rational.matmul_calls",
}

# spans whose result is a polynomial the coefficient height is taken from
POLY_RESULTS = (
    "polynomials.det_matrix_polynomial",
    "zeta.grover_zeta_reciprocal",
    "zeta.ihara_reciprocal_edge",
    "zeta.ihara_reciprocal_bass",
)


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _size_of(name: str):
    if name == "rational.det_bareiss_int":
        return lambda args, result: (len(args[0]), abs(result).bit_length())
    if name == "graphs.arc_space":
        return lambda args, result: result.num_arcs
    if name in POLY_RESULTS:
        return lambda args, result: _coeff_bits(result)
    return None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "size")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.size = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = _size_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if size is not None:
                span.size = size(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        # every namespace that holds a wrapped function, under any name
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        polynomials = sys.modules[f"{PACKAGE}.polynomials"]
        rational = sys.modules[f"{PACKAGE}.rational"]
        for attr in POLY_METHODS:
            fn = vars(polynomials.Poly)[attr]
            self._patch(polynomials.Poly, attr, self._wrap(fn, f"polynomials.Poly.{attr}", "polynomials"))
        fn = vars(rational.RatMatrix)["__matmul__"]
        self._patch(rational.RatMatrix, "__matmul__", self._wrap(fn, "rational.RatMatrix.__matmul__", "rational"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans first..last-1 (one pass).

        A span's self time is its duration minus the durations of the spans
        it caused; spans of a pass only have parents inside the same pass.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent - first] += span.end - span.start
        m = {name: 0.0 if unit == "s" else 0 for name, unit in METRICS.items()}
        for span, below in zip(spans, child):
            total = span.end - span.start
            own = total - below
            name = span.name
            m["operators.assembly_s" if span.layer == "operators" else f"{span.layer}.self_s"] += own
            if name in INCLUSIVE:
                m[INCLUSIVE[name]] += total
            if name in OWN:
                m[OWN[name]] += own
            if name in CALLS:
                m[CALLS[name]] += 1
            if name == "graphs.arc_space":
                m["graphs.arcs"] += span.size
            elif name == "rational.det_bareiss_int":
                m["rational.det_dim_max"] = max(m["rational.det_dim_max"], span.size[0])
                m["rational.det_bits_max"] = max(m["rational.det_bits_max"], span.size[1])
            elif name in POLY_RESULTS:
                m["polynomials.coeff_bits_max"] = max(m["polynomials.coeff_bits_max"], span.size)
        return m
