"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper, in the
module that defines it and under every other name that binds the same
object (`from .seqs import lccs` in `almost_planar` binds
`almost_planar.lccs` once, at import, so patching `seqs.lccs` alone would
miss those calls).  A wrapper installed under a consumer's binding records
its span as `<layer>@<consumer>`, which is how calls made *from* a module
are told apart, e.g. `seqs.lccs@almost_planar` counts the targets scored by
the minimum untangler.

Spans are kept in memory as (name, start, end, parent, request id) and are
aggregated, and written out, only after the traced phase ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function) pairs that get a span; the layer name is "module.function".
TARGETS = (
    ("seqs", "lccs"),
    ("seqs", "lics"),
    ("almost_planar", "min_untangle"),
    ("almost_planar", "unwrap_linearizations"),
    ("almost_planar", "one_side_untangle"),
    ("almost_planar", "edge_fixed_untangle"),
    ("blocks", "block_decomposition"),
    ("blocks", "planar_circular_order"),
    ("model", "classify"),
    ("model", "crossings"),
    ("model", "verify_untangling"),
    ("model", "moves_to_reach"),
    ("model", "is_crossing_free"),
    ("general", "untangle_general"),
    ("oracle", "enumerate_planar_orders"),
    ("oracle", "exact_min_untangle"),
    ("oracle", "exact_min_untangle_edge_fixed"),
    ("generators", "enumerate_almost_planar_instances"),
    ("reductions", "reduce_3p_to_disticor"),
    ("reductions", "chunk_property_check"),
    ("reductions", "reduce_disticor_to_cu"),
    ("io_formats", "parse_drawing"),
    ("io_formats", "format_moves"),
)

# Per-layer metric -> the end-to-end metric(s) it is expected to move.  The
# prediction is written down before any optimisation is measured against it.
LAYER_MAP = {
    "seqs.lccs.calls": "ap-service throughput_rps, latency_tail_ms; barely research-batch",
    "seqs.lccs.busy_s": "ap-service throughput_rps, latency_tail_ms; barely research-batch",
    "seqs.lics.calls": "ap-service throughput_rps; general-large latency_p50_ms",
    "seqs.lics.busy_s": "ap-service throughput_rps; general-large latency_p50_ms",
    "seqs.lics.items": "ap-service throughput_rps; general-large latency_p50_ms",
    "almost_planar.min_untangle.self_s": "ap-service latency_tail_ms; no change on general-large",
    "almost_planar.targets_scored": "ap-service latency_tail_ms; no change on general-large",
    "almost_planar.targets_scored_max": "ap-service latency_tail_ms (largest single request)",
    "almost_planar.target_yield": "ap-service latency_tail_ms; no change on general-large",
    "almost_planar.unwrap_linearizations.busy_s": "ap-service latency_tail_ms",
    "almost_planar.one_side_untangle.busy_s": "ap-service latency_tail_ms",
    "almost_planar.edge_fixed_untangle.busy_s": "ap-service latency_tail_ms",
    "almost_planar.assertion_failures": "ap-service failed_ratio",
    "blocks.block_decomposition.calls": "general-large latency_p50_ms; slightly ap-service",
    "blocks.block_decomposition.busy_s": "general-large latency_p50_ms; slightly ap-service",
    "blocks.planar_circular_order.busy_s": "general-large latency_p50_ms; slightly ap-service",
    "model.classify.busy_s": "ap-service latency_p50_ms (check, verify); general-large latency_p50_ms",
    "model.crossings.busy_s": "ap-service latency_p50_ms (check, verify); general-large latency_p50_ms",
    "model.verify_untangling.busy_s": "ap-service latency_p50_ms; general-large latency_p50_ms",
    "model.moves_to_reach.busy_s": "ap-service latency_p50_ms; general-large latency_p50_ms",
    "model.is_crossing_free.calls": "ap-service latency_p50_ms; general-large latency_p50_ms",
    "general.untangle_general.self_s": "general-large latency_p50_ms",
    "oracle.enumerate_planar_orders.calls": "research-batch throughput_rps only",
    "oracle.enumerate_planar_orders.busy_s": "research-batch throughput_rps only",
    "oracle.planar_orders": "research-batch throughput_rps only",
    "oracle.distinct_graph_ratio": "research-batch throughput_rps only (reuse open to a cache)",
    "oracle.exact_min_untangle.busy_s": "research-batch throughput_rps only",
    "oracle.exact_min_untangle_edge_fixed.busy_s": "research-batch throughput_rps only",
    "generators.enumerate_almost_planar_instances.busy_s": "research-batch throughput_rps",
    "reductions.reduce_3p_to_disticor.busy_s": "research-batch throughput_rps",
    "reductions.chunk_property_check.busy_s": "research-batch throughput_rps",
    "reductions.reduce_disticor_to_cu.busy_s": "research-batch throughput_rps",
    "reductions.chunk_items": "research-batch throughput_rps",
    "io_formats.parse_drawing.busy_s": "ap-service latency_p50_ms",
    "io_formats.format_moves.busy_s": "ap-service latency_p50_ms",
    "io_formats.bytes_in": "ap-service latency_p50_ms",
    "trace.overhead_ratio": "none (cost of tracing itself)",
}

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "items": "count"}
SPECIAL_UNITS = {
    "almost_planar.targets_scored": "count",
    "almost_planar.targets_scored_max": "count",
    "almost_planar.target_yield": "ratio",
    "almost_planar.assertion_failures": "count",
    "oracle.planar_orders": "count",
    "oracle.distinct_graph_ratio": "ratio",
    "reductions.chunk_items": "count",
    "io_formats.bytes_in": "bytes",
    "trace.overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return SPECIAL_UNITS.get(metric) or UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Span recorder; one per traced phase, single-threaded.  `clock` gives
    the span times (the speed meter's clock, which leaves its samples out)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []          # (name id, start, end, parent index, request id)
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.graphs: set = set()
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named `name` (used for the request root span)."""
        return self._wrap(name, name, fn)(*args, **kwargs)

    def _wrap(self, name: str, layer: str, fn):
        nid, spans, stack, clock = self._nid(name), self.spans, self._stack, self.clock
        observe = _OBSERVERS.get(layer)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans[idx] = (nid, t0, t1, parent, tracer.request)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.request)
            if observe is not None:
                observe(tracer, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target inside the `untangling` package."""
        pkg_modules = {
            name.split(".", 1)[1] if "." in name else name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "untangling" or name.startswith("untangling."))
        }
        for mod_name, fn_name in TARGETS:
            layer = f"{mod_name}.{fn_name}"
            original = getattr(pkg_modules[mod_name], fn_name)
            for where, mod in pkg_modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    consumer = where not in (mod_name, "untangling")
                    name = f"{layer}@{where}" if consumer else layer
                    setattr(mod, attr, self._wrap(name, layer, original))
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self, assertion_delta: int, overhead_ratio: float) -> dict[str, float]:
        """Totals over the traced pass of every per-layer metric in LAYER_MAP."""
        layer_of = [n.split("@", 1)[0] for n in self.names]
        calls: Counter = Counter()
        busy: Counter = Counter()
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        targets_per_req: Counter = Counter()
        scoring = self._name_ids.get("seqs.lccs@almost_planar", -1)
        for i, (nid, t0, t1, parent, req) in enumerate(self.spans):
            layer = layer_of[nid]
            calls[layer] += 1
            busy[layer] += t1 - t0
            self_s[layer] += (t1 - t0) - child[i]
            if nid == scoring:
                targets_per_req[req] += 1

        targets = sum(targets_per_req.values())
        solves = calls["almost_planar.min_untangle"]
        enum_calls = calls["oracle.enumerate_planar_orders"]
        out = {}
        for metric in LAYER_MAP:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "busy_s":
                out[metric] = busy[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
        out["seqs.lics.items"] = self.counts["seqs.lics.items"]
        out["almost_planar.targets_scored"] = targets
        out["almost_planar.targets_scored_max"] = max(targets_per_req.values(), default=0)
        out["almost_planar.target_yield"] = solves / targets if targets else 0.0
        out["almost_planar.assertion_failures"] = assertion_delta
        out["oracle.planar_orders"] = self.counts["oracle.planar_orders"]
        out["oracle.distinct_graph_ratio"] = len(self.graphs) / enum_calls if enum_calls else 0.0
        out["reductions.chunk_items"] = self.counts["reductions.chunk_items"]
        out["io_formats.bytes_in"] = self.counts["io_formats.bytes_in"]
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: out[k] for k in LAYER_MAP}

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start_s, end_s, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            for nid, t0, t1, parent, req in self.spans:
                fh.write(f"{names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{req}\n")


def _observe_lics(tracer: Tracer, args, result) -> None:
    tracer.counts["seqs.lics.items"] += len(getattr(args[0], "items", args[0]))


def _observe_planar_orders(tracer: Tracer, args, result) -> None:
    tracer.counts["oracle.planar_orders"] += len(result)
    tracer.graphs.add(args[0])


def _observe_reduce(tracer: Tracer, args, result) -> None:
    tracer.counts["reductions.chunk_items"] += result.instance.total


def _observe_parse(tracer: Tracer, args, result) -> None:
    tracer.counts["io_formats.bytes_in"] += len(args[0].encode("utf-8"))


_OBSERVERS = {
    "seqs.lics": _observe_lics,
    "oracle.enumerate_planar_orders": _observe_planar_orders,
    "reductions.reduce_3p_to_disticor": _observe_reduce,
    "io_formats.parse_drawing": _observe_parse,
}
