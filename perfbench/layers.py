"""Layer tracing for the traced benchmark run, installed from outside ``repro``.

The benchmark's traced pass wraps the public functions at each layer
boundary of the append -> interface path and records one span per call:
name, start, end, parent span and request id.  Spans stay in memory
(flat arrays) and are written out when the pass ends.  A layer's *self
time* is its span's duration minus the time covered by its child spans,
accumulated online as spans close.

Nothing here is imported by the untraced pass, so the end-to-end timings
run on the unmodified program.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter


class Tracer:
    """Single-threaded span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        #: Request id stamped on every span opened until the next change.
        self.request = -1
        #: Open spans: [span index, seconds covered by closed children].
        self._stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Boundary counters (hits/misses, carried/invalidated nodes, ...).
        self.counters: Dict[str, int] = defaultdict(int)
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, name: str) -> list:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        frame = [index, 0.0, name]
        self._stack.append(frame)
        self.span_start.append(_clock())
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        index, children_s, name = frame
        self.span_end[index] = end
        duration = end - self.span_start[index]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self.calls[name] += 1
        self.self_s[name] += duration - children_s
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span (the benchmark's own request roots)."""
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_pause_s += _clock() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": list(self.gc_collections),
            "spans": len(self.span_start),
        }

    def write(self, path) -> None:
        """Write every span as flat arrays (numpy ``.npz``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
        )


def _traced(tracer: Tracer, name: str, fn: Callable, observe=None) -> Callable:
    """``fn`` wrapped in a span; ``observe(args, result)`` counts outcomes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _patch_method(cls, attr: str, make: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_function(fn: Callable, wrapped: Callable) -> None:
    """Replace ``fn`` in every loaded ``repro`` module that holds it.

    Functions imported by name (``from ..cost import sampled_evaluation``)
    live on in the importing module's namespace, so patching only the
    defining module would miss those call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function for the rest of the process."""
    from repro.cost import evaluate
    from repro.cost.kernel import CompiledSequence, CostKernel
    from repro.cost.model import CostModel
    from repro.difftree import builder
    from repro.engine.report import GenerationReport
    from repro.interface import render
    from repro.rules.base import RuleEngine
    from repro.search.carry import CarriedTree
    from repro.search.common import SearchTask
    from repro.search.mcts import MCTS
    from repro.serve.cache import InterfaceCache
    from repro.serve.incremental import IncrementalGenerator, PendingSearch
    from repro.serve.stream import SessionRouter

    counters = tracer.counters

    def span(name: str, observe=None) -> Callable[[Callable], Callable]:
        return lambda fn: _traced(tracer, name, fn, observe)

    def traced_function(fn: Callable, name: str) -> None:
        _patch_function(fn, _traced(tracer, name, fn))

    # cost: a kernel_for hit is a call that compiled nothing new.
    raw_kernel_for = CostModel.kernel_for

    @functools.wraps(raw_kernel_for)
    def kernel_for(model, tree):
        before = model.kernel_stats.kernels_compiled
        frame = tracer.enter("cost.kernel_for")
        try:
            return raw_kernel_for(model, tree)
        finally:
            tracer.exit(frame)
            compiled = model.kernel_stats.kernels_compiled != before
            counters["cost.kernel_for.misses" if compiled else "cost.kernel_for.hits"] += 1

    CostModel.kernel_for = kernel_for
    for attr in ("compile", "extend", "without"):
        _patch_method(CompiledSequence, attr, span("cost.sequence"))
    _patch_method(CostKernel, "materialize", span("widgets.materialize"))

    # rules
    for attr in ("random_move", "moves", "apply"):
        _patch_method(RuleEngine, attr, span(f"rules.{attr}"))

    # cost scoring (module functions imported by name into search.common)
    traced_function(evaluate.sampled_evaluation, "cost.sampled_evaluation")
    traced_function(evaluate.exhaustive_evaluation, "cost.exhaustive_evaluation")

    # search
    _patch_method(SearchTask, "step", span("search.step"))
    _patch_method(MCTS, "open", span("search.open"))

    def observe_rebase(args, result) -> None:
        provenance = result[1]
        counters["search.carry.nodes_carried"] += provenance["nodes_carried"]
        counters["search.carry.nodes_invalidated"] += provenance["nodes_invalidated"]

    _patch_method(CarriedTree, "rebase", span("search.carry.rebase", observe_rebase))
    _patch_method(CarriedTree, "harvest", span("search.carry.harvest"))

    # serve.incremental and difftree
    _patch_method(IncrementalGenerator, "open_search", span("serve.open_search"))
    _patch_method(PendingSearch, "finish", span("serve.finish"))
    traced_function(builder.extend_difftree, "difftree.extend_difftree")
    traced_function(builder.initial_difftree, "difftree.initial_difftree")

    # serve.stream
    for attr in ("append", "retain"):
        _patch_method(SessionRouter, attr, span(f"serve.stream.{attr}"))

    # serve.cache, engine.report, interface
    def observe_get(args, result) -> None:
        counters["serve.cache.hits" if result is not None else "serve.cache.misses"] += 1

    _patch_method(InterfaceCache, "get", span("serve.cache.get", observe_get))
    _patch_method(GenerationReport, "to_dict", span("engine.report.to_dict"))
    traced_function(render.render_ascii, "interface.render_ascii")

    tracer.start_gc()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summaries: List[dict], reports: dict) -> Dict[str, float]:
    """Per-layer metrics from the traced units' summaries and report counters."""
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counters: Dict[str, int] = defaultdict(int)
    gc_pause = 0.0
    gen2 = 0
    for summary in summaries:
        for name, value in summary["calls"].items():
            calls[name] += value
        for name, value in summary["self_s"].items():
            self_s[name] += value
        for name, value in summary["counters"].items():
            counters[name] += value
        gc_pause += summary["gc_pause_s"]
        gen2 += summary["gc_collections"][2]

    metrics: Dict[str, float] = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    metrics["cost.kernel_for.hit_ratio"] = _ratio(
        counters["cost.kernel_for.hits"], calls.get("cost.kernel_for", 0)
    )
    metrics["serve.cache.hit_ratio"] = _ratio(
        counters["serve.cache.hits"], calls.get("serve.cache.get", 0)
    )
    carried = counters["search.carry.nodes_carried"]
    metrics["search.carry.survival_ratio"] = _ratio(
        carried, carried + counters["search.carry.nodes_invalidated"]
    )
    metrics["cost.candidates.batched"] = reports["kernel_batched_evals"]
    metrics["cost.candidates.scalar"] = (
        reports["kernel_full_evals"] + reports["kernel_delta_evals"]
    )
    metrics["search.iterations"] = reports["iterations"]
    metrics["search.states_evaluated"] = reports["states_evaluated"]
    metrics["search.walk_steps"] = reports["walk_steps"]
    metrics["gc.pause_s"] = gc_pause
    metrics["gc.gen2_collections"] = gen2
    return metrics


#: Spans whose self time is a per-layer metric (``<name>.self_s``).
SELF_TIMED = (
    "cost.kernel_for",
    "cost.sequence",
    "rules.random_move",
    "rules.moves",
    "rules.apply",
    "widgets.materialize",
    "cost.sampled_evaluation",
    "cost.exhaustive_evaluation",
    "search.step",
    "search.open",
    "search.carry.rebase",
    "search.carry.harvest",
    "serve.open_search",
    "serve.finish",
    "difftree.extend_difftree",
    "difftree.initial_difftree",
    "serve.stream.append",
    "serve.stream.retain",
    "serve.cache.get",
    "engine.report.to_dict",
    "interface.render_ascii",
    "request.write",
    "request.read",
)

#: Spans whose call count is a per-layer metric (``<name>.calls``).
CALL_COUNTED = (
    "cost.kernel_for",
    "rules.random_move",
    "rules.apply",
    "widgets.materialize",
)

#: Every per-layer metric as ``(name, unit, better)``, in report order.
PER_LAYER = (
    tuple((f"{name}.self_s", "s", "lower") for name in SELF_TIMED)
    + tuple((f"{name}.calls", "count", "lower") for name in CALL_COUNTED)
    + (
        ("cost.kernel_for.hit_ratio", "ratio", "higher"),
        ("serve.cache.hit_ratio", "ratio", "higher"),
        ("search.carry.survival_ratio", "ratio", "higher"),
        ("cost.candidates.batched", "count", "lower"),
        ("cost.candidates.scalar", "count", "lower"),
        ("search.iterations", "count", "lower"),
        ("search.states_evaluated", "count", "lower"),
        ("search.walk_steps", "count", "lower"),
        ("gc.pause_s", "s", "lower"),
        ("gc.gen2_collections", "count", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    )
)
