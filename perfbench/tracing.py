"""Span recorder that wraps the public entry points of each covnoise layer.

Nothing inside ``src/`` is changed: the tracer replaces functions at the
module attributes where callers look them up (``observables`` imports
``truncate`` by name, ``cli`` imports ``noise_value`` and the builders by
name, so those bindings are replaced too) and replaces ``entry`` on every
matrix a builder returns.  All bindings are restored by :meth:`close`.

Spans are kept in memory as ``[layer, name, start_ns, end_ns, parent,
item, attrs]`` and written out once at the end.  Times are integer
nanoseconds, so a span's self time (its duration minus its children's)
is computed exactly and can never come out negative.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

# (layer, defining module, function name).  A name missing from its module
# is skipped, so later refactors of the program cannot break tracing.
TRACED_FUNCTIONS = (
    ("matrices", "covnoise.matrices", "truncate"),
    ("noise", "covnoise.noise", "noise_value"),
    ("observables", "covnoise.observables", "observable_operator"),
    ("observables", "covnoise.observables", "moment_operator"),
    ("observables", "covnoise.observables", "covariance_defect"),
    ("observables", "covnoise.observables", "noise_operator_diagonal"),
    ("observables", "covnoise.observables", "kernel_by_difference"),
    ("observables", "covnoise.observables", "moment_kernel"),
    ("schur_analysis", "covnoise.schur_analysis", "operator_norm"),
    ("schur_analysis", "covnoise.schur_analysis", "half_circle_modulus_section"),
    ("schur_analysis", "covnoise.schur_analysis", "modulus_growth_table"),
    ("schur_analysis", "covnoise.schur_analysis", "sylvester_hadamard_example"),
    ("schur_analysis", "covnoise.schur_analysis", "block_diagonal_norm_divergence"),
    ("cli", "covnoise.cli", "main"),
)

# Builders whose returned matrix gets a traced entry oracle.
MATRIX_BUILDERS = ("constant_one", "chessboard", "torus_from_phases", "gram_from_vectors",
                   "seeded_torus", "seeded_gram", "matrix_from_spec")

LAYERS = ("matrices", "noise", "observables", "schur_analysis", "cli")

LAYER, NAME, START, END, PARENT, ITEM, ATTRS = range(7)


def _noise_attrs(args, result) -> dict:
    A, q = args[0], args[1]
    naturals = getattr(A.domain, "value", "N") == "N"
    cutoff = int(result.cutoff)
    terms = cutoff + max(int(q.n), 0) if naturals else 2 * cutoff
    return {"terms": terms, "tol": float(q.tol), "width": float(result.upper - result.lower)}


def _norm_attrs(args, result) -> dict:
    method = getattr(result, "method", None)
    return {"method": str(getattr(method, "value", method)),
            "iterations": int(getattr(result, "iterations", 0) or 0)}


def _bytes_attrs(args, result) -> dict:
    return {"bytes": int(np.asarray(result).nbytes)}


ATTRS_FOR = {
    "noise_value": _noise_attrs,
    "operator_norm": _norm_attrs,
    "truncate": _bytes_attrs,
    "half_circle_modulus_section": _bytes_attrs,
}


class Tracer:
    """Records nested spans for calls into the covnoise layers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter_ns(), 0, parent, self.item, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs: dict | None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[ATTRS] = attrs
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer, name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, result)
                return result
            finally:
                self._close(index, attrs)

        traced.__perfbench_original__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every covnoise module attribute bound to ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "covnoise" or mod_name.startswith("covnoise.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def instrument_matrix(self, A):
        """Replace ``A.entry`` with a traced oracle (idempotent)."""
        entry = A.entry
        if getattr(entry, "__perfbench_original__", None) is not None:
            return A

        def values(args, result) -> dict:
            return {"values": int(np.size(result))}

        object.__setattr__(A, "entry", self.wrap("matrices", "entry", entry, values))
        return A

    def install(self) -> "Tracer":
        for layer, mod_name, name in TRACED_FUNCTIONS:
            module = sys.modules.get(mod_name)
            original = getattr(module, name, None) if module is not None else None
            if original is None:
                continue
            self._rebind(original, self.wrap(layer, name, original, ATTRS_FOR.get(name)))
        matrices = sys.modules.get("covnoise.matrices")
        for name in MATRIX_BUILDERS:
            original = getattr(matrices, name, None)
            if original is None:
                continue

            @functools.wraps(original)
            def build(*args, _build=original, **kwargs):
                return self.instrument_matrix(_build(*args, **kwargs))

            self._rebind(original, build)
        cache = getattr(matrices, "_BlockCache", None)
        if cache is not None and hasattr(cache, "ensure"):
            self._set(cache, "ensure", self._regrow_recorder(cache.ensure))
        return self

    def _regrow_recorder(self, ensure):
        """Record a span only for the ensure calls that regrow the cache."""
        tracer = self

        @functools.wraps(ensure)
        def traced_ensure(cache, size):
            before = len(cache.values)
            start = time.perf_counter_ns()
            result = ensure(cache, size)
            if len(cache.values) != before:
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append(["matrices", "regrow", start, time.perf_counter_ns(),
                                     parent, tracer.item, {"values": len(cache.values)}])
            return result

        return traced_ensure

    def close(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], passes: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and times are per pass of the item list, so counts repeat
    exactly for a given seed whatever the run length.
    """

    own = self_times_ns(spans)
    per_pass = 1.0 / passes
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
    widths: list[float] = []
    over_tol = 0
    sums: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    for span, span_self in zip(spans, own):
        layer, name, attrs = span[LAYER], span[NAME], span[ATTRS] or {}
        duration = (span[END] - span[START]) * 1e-9
        total[name] = total.get(name, 0.0) + duration
        count[name] = count.get(name, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0) + span_self
        if name == "entry":
            add("entry_values", attrs.get("values", 0))
        elif name == "truncate":
            add("truncate_bytes", attrs.get("bytes", 0))
        elif name == "half_circle_modulus_section":
            add("section_bytes", attrs.get("bytes", 0))
        elif name == "noise_value":
            add("terms", attrs.get("terms", 0))
            add("sum_self_ns", span_self)
            widths.append(attrs["width"] / attrs["tol"])
            over_tol += attrs["width"] > attrs["tol"]
        elif name == "operator_norm":
            add("power_iterations", attrs.get("iterations", 0))
            add("eigen_calls", attrs.get("method") == "hermitian_eigen")
        elif name == "main":
            add("main_self_ns", span_self)

    def t(name: str) -> float:
        return total.get(name, 0.0) * per_pass

    def c(name: str) -> float:
        return count.get(name, 0) * per_pass

    def s(key: str) -> float:
        return sums.get(key, 0.0) * per_pass

    return {
        "matrices.entry_calls": c("entry"),
        "matrices.entry_values": s("entry_values"),
        "matrices.entry_s": t("entry"),
        "matrices.truncate_calls": c("truncate"),
        "matrices.truncate_s": t("truncate"),
        "matrices.truncate_bytes": s("truncate_bytes"),
        "matrices.regrow_calls": c("regrow"),
        "matrices.regrow_s": t("regrow"),
        "matrices.self_s": self_ns["matrices"] * 1e-9 * per_pass,
        "noise.brackets": c("noise_value"),
        "noise.terms": s("terms"),
        "noise.bracket_s": t("noise_value"),
        "noise.sum_self_s": s("sum_self_ns") * 1e-9,
        "noise.width_per_tol": statistics.median(widths) if widths else 0.0,
        "noise.width_over_tol_count": over_tol * per_pass,
        "observables.operator_s": t("observable_operator") + t("moment_operator"),
        "observables.kernel_s": t("kernel_by_difference") + t("moment_kernel"),
        "observables.covariance_s": t("covariance_defect"),
        "observables.diagonal_s": t("noise_operator_diagonal"),
        "observables.self_s": self_ns["observables"] * 1e-9 * per_pass,
        "schur_analysis.norm_calls": c("operator_norm"),
        "schur_analysis.eigen_calls": s("eigen_calls"),
        "schur_analysis.power_iterations": s("power_iterations"),
        "schur_analysis.norm_s": t("operator_norm"),
        "schur_analysis.section_s": t("half_circle_modulus_section"),
        "schur_analysis.section_bytes": s("section_bytes"),
        "schur_analysis.self_s": self_ns["schur_analysis"] * 1e-9 * per_pass,
        "cli.commands": c("main"),
        "cli.main_s": t("main"),
        "cli.serialize_s": s("main_self_ns") * 1e-9,
    }
