"""Traced run: timing shims around each layer's public boundary calls.

The ledger measures every layer from outside.  :func:`tracing` replaces the
public entry points listed in :data:`SHIMS` -- class attributes and
module-level functions of ``repro`` -- with thin wrappers that record one
span per call into a :class:`Recorder`, and restores the originals on exit.
Nothing under ``src/`` knows about it.

A span is ``(id, name, start_ns, end_ns, parent id, rep)``; its layer is
``Recorder.layers[name]`` and its workload ``Recorder.workload``.  A DES
repetition crosses these boundaries millions of times, so the recorder keeps
per-``(name, parent name)`` aggregates -- count, inclusive ns and **self ns =
inclusive - children** -- for every crossing and the raw tuple only for the
first :data:`RAW_SPAN_CAP` spans.  Everything stays in memory until
:meth:`Recorder.to_dict` is written out by the caller.

A shim's own cost lands partly inside its two clock reads (in the span's
self time) and partly outside (in the *parent's* self time);
:func:`calibrate` measures both so ``budget.py`` can subtract them.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["RAW_SPAN_CAP", "SHIMS", "Recorder", "tracing", "calibrate",
           "shim_targets"]

RAW_SPAN_CAP = 20_000
"""Raw spans kept per workload; aggregates cover every span regardless."""

ROOT = ""
"""Parent name of a span opened with no enclosing span (an event callback
dispatched straight from the event queue, or a harness call)."""


class _Frames(threading.local):
    """Open-span stack, one per thread: the results service answers each
    request on its own handler thread."""

    def __init__(self) -> None:
        self.stack: List[list] = []


class Recorder:
    """In-memory span store for one workload's traced repetitions."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rep = 0
        self.layers: Dict[str, str] = {}
        self.aggregates: Dict[Tuple[str, str], List[int]] = {}
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.captured: Dict[str, List[Any]] = {}
        self._frames = _Frames()
        self._new_id = itertools.count().__next__

    # ------------------------------------------------------------ recording

    def wrap(self, fn: Callable[..., Any], name: str, layer: str,
             capture: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call.  ``capture`` names a
        :attr:`captured` list that also receives each return value."""
        self.layers[name] = layer
        frames = self._frames
        clock = perf_counter_ns
        close = self._close
        new_id = self._new_id

        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = frames.stack
            frame = [name, 0, 0, new_id()]  # name, start, children ns, id
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end, stack)
            if capture is not None:
                self.captured.setdefault(capture, []).append(result)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _close(self, frame: list, end: int, stack: List[list]) -> None:
        name, start, children, span_id = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_name, parent_id = parent[0], parent[3]
        else:
            parent_name, parent_id = ROOT, -1
        aggregate = self.aggregates.get((name, parent_name))
        if aggregate is None:
            self.aggregates[(name, parent_name)] = [
                1, duration, duration - children]
        else:
            aggregate[0] += 1
            aggregate[1] += duration
            aggregate[2] += duration - children
        if span_id < RAW_SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent_id, self.rep))

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span opened by the harness itself (the repetition root)."""
        self.layers[name] = layer
        stack = self._frames.stack
        frame = [name, 0, 0, self._new_id()]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self._close(frame, end, stack)

    # -------------------------------------------------------------- reading

    def total(self, name: str) -> Tuple[int, int, int]:
        """``(count, inclusive ns, self ns)`` of ``name`` over all parents."""
        count = inclusive = own = 0
        for (span_name, _), (c, i, s) in self.aggregates.items():
            if span_name == name:
                count += c
                inclusive += i
                own += s
        return count, inclusive, own

    def layer_total(self, layer: str) -> Tuple[int, int, int]:
        """``(count, inclusive ns, self ns)`` summed over a layer's names.
        Inclusive time double-counts same-layer nesting; self time never
        does."""
        count = inclusive = own = 0
        for (span_name, _), (c, i, s) in self.aggregates.items():
            if self.layers.get(span_name) == layer:
                count += c
                inclusive += i
                own += s
        return count, inclusive, own

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "layers": dict(sorted(self.layers.items())),
            "aggregates": [
                {"name": name, "layer": self.layers.get(name, ""),
                 "parent": parent, "parent_layer": self.layers.get(parent, ""),
                 "count": count, "inclusive_ns": inclusive, "self_ns": own}
                for (name, parent), (count, inclusive, own)
                in sorted(self.aggregates.items())
            ],
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent",
                            "rep"],
            "spans": [list(span) for span in self.spans],
            "spans_total": sum(a[0] for a in self.aggregates.values()),
        }


# ------------------------------------------------------------------ targets

# (span name, layer, [(module, owner class or None, attribute), ...], capture)
# A module-level function is patched in every namespace that imported it by
# name, because ``from x import f`` callers never look at ``x.f`` again.
SHIMS: List[Tuple[str, str, List[Tuple[str, Optional[str], str]],
                  Optional[str]]] = [
    # --- packet path
    ("EventQueue.schedule", "sim.eventq", [
        ("repro.sim.eventq", "CalendarEventQueue", "schedule"),
        ("repro.sim.eventq", "CalendarEventQueue", "schedule_at"),
        ("repro.sim.eventq", "HeapEventQueue", "schedule"),
        ("repro.sim.eventq", "HeapEventQueue", "schedule_at"),
    ], None),
    ("Timer.restart", "sim.engine", [
        ("repro.sim.engine", "Timer", "restart")], None),
    ("Port.send", "sim.port", [("repro.sim.port", "Port", "send")], None),
    ("Switch.receive", "sim.network", [
        ("repro.sim.network", "Switch", "receive")], None),
    ("Host.receive", "sim.network", [
        ("repro.sim.network", "Host", "receive")], None),
    ("Host.transmit", "sim.network", [
        ("repro.sim.network", "Host", "transmit")], None),
    ("FlowDelayStage.delay_for", "netem.delay", [
        ("repro.netem.delay", "FlowDelayStage", "delay_for"),
        ("repro.netem.delay", "FlowDelayStage", "__call__"),
    ], None),
    ("TcpSender.receive", "tcp.sender", [
        ("repro.tcp.base", "TcpSender", "receive")], None),
    ("TcpSink.receive", "tcp.sink", [
        ("repro.tcp.sink", "TcpSink", "receive")], None),
    ("open_flow", "workloads", [
        ("repro.tcp.factory", None, "open_flow"),
        ("repro.workloads.arrivals", None, "open_flow"),
        ("repro.workloads.incast", None, "open_flow"),
    ], "flows"),
    ("build_star", "topology", [
        ("repro.experiments.runner", None, "build_star")], "topologies"),
    ("build_leafspine", "topology", [
        ("repro.experiments.runner", None, "build_leafspine")], "topologies"),
    ("build_incast", "topology", [
        ("repro.experiments.figures.fig10", None, "build_incast")],
     "topologies"),
    ("run_star_fct", "experiments.runner", [
        ("repro.experiments.runner", None, "run_star_fct")], None),
    ("run_leafspine_fct", "experiments.runner", [
        ("repro.experiments.runner", None, "run_leafspine_fct")], None),
    ("run_microscopic", "experiments.runner", [
        ("repro.experiments.figures.fig10", None, "run_microscopic")], None),
    # --- fluid engine
    ("run_fluid_star_fct", "fluid.runner", [
        ("repro.fluid.runner", None, "run_fluid_star_fct")], None),
    ("run_fluid_leafspine_fct", "fluid.runner", [
        ("repro.fluid.runner", None, "run_fluid_leafspine_fct")], None),
    ("FluidEngine.run", "fluid.engine", [
        ("repro.fluid.engine", "FluidEngine", "run")], None),
    ("star_population", "fluid.population", [
        ("repro.fluid.runner", None, "star_population")], None),
    ("leafspine_population", "fluid.population", [
        ("repro.fluid.runner", None, "leafspine_population")], None),
    # --- executor / cache / campaign store
    ("RunSpec.token", "experiments.specs", [
        ("repro.experiments.specs", "RunSpec", "token")], None),
    ("execute_spec", "experiments.executor", [
        ("repro.experiments.executor", None, "execute_spec")], None),
    ("Executor.run", "experiments.executor", [
        ("repro.experiments.executor", "Executor", "run")], None),
    ("ResultCache.load", "experiments.executor", [
        ("repro.experiments.executor", "ResultCache", "load")], None),
    ("ResultCache.store", "experiments.executor", [
        ("repro.experiments.executor", "ResultCache", "store")], None),
    ("load_scenario", "scenarios.schema", [
        ("repro.scenarios.schema", None, "load_scenario")], None),
    ("compile_scenario", "scenarios.compile", [
        ("repro.scenarios.compile", None, "compile_scenario"),
        ("repro.scenarios.campaign", None, "compile_scenario"),
    ], None),
    ("run_campaign", "scenarios.campaign", [
        ("repro.scenarios.campaign", None, "run_campaign")], None),
    ("CampaignStore.load", "scenarios.campaign", [
        ("repro.scenarios.campaign", "CampaignStore", "load")], None),
    ("CampaignStore.append", "scenarios.campaign", [
        ("repro.scenarios.campaign", "CampaignStore", "append")], None),
    ("store_fingerprint", "scenarios.coordination", [
        ("repro.scenarios.coordination", None, "store_fingerprint")], None),
    ("merge_stores", "scenarios.coordination", [
        ("repro.scenarios.coordination", None, "merge_stores")], None),
    # --- results service
    ("ResultsService.dispatch", "service.daemon", [
        ("repro.service.daemon", "ResultsService", "dispatch")], None),
    ("StoreIndex.get", "service.index", [
        ("repro.service.index", "StoreIndex", "get")], None),
    ("run_query", "service.query", [
        ("repro.service.daemon", None, "run_query")], None),
    ("render", "service.query", [
        ("repro.service.daemon", None, "render")], None),
    ("SummaryCache.get", "service.cache", [
        ("repro.service.cache", "SummaryCache", "get")], None),
    ("SummaryCache.put", "service.cache", [
        ("repro.service.cache", "SummaryCache", "put")], None),
]

# Class families whose concrete subclasses override the hook: every class in
# the family that defines the method itself gets its own shim.
_FAMILIES: List[Tuple[str, str, str, str, str, List[str]]] = [
    # (span name, layer, base module, base class, method, modules to import)
    ("Aqm.on_enqueue", "core.aqm", "repro.core.base", "Aqm", "on_enqueue",
     ["repro.core"]),
    ("Aqm.on_dequeue", "core.aqm", "repro.core.base", "Aqm", "on_dequeue",
     ["repro.core"]),
    ("MarkerBank.step", "fluid.marking", "repro.fluid.marking", "MarkerBank",
     "step", []),
]


def _family(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_family(sub))
    return found


def shim_targets() -> List[Tuple[str, str, Any, str, Optional[str]]]:
    """Every ``(span name, layer, owner object, attribute, capture)`` the
    tracer patches, with the owners imported and resolved."""
    targets: List[Tuple[str, str, Any, str, Optional[str]]] = []
    for name, layer, places, capture in SHIMS:
        for module_name, class_name, attribute in places:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            targets.append((name, layer, owner, attribute, capture))
    for name, layer, module_name, class_name, method, imports in _FAMILIES:
        for extra in imports:
            importlib.import_module(extra)
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _family(base):
            if method in vars(cls):
                targets.append((name, layer, cls, method, None))
    return targets


@contextmanager
def tracing(recorder: Recorder) -> Iterator[Recorder]:
    """Install every shim for the enclosed block, then restore the
    originals -- also when the block raises."""
    installed: List[Tuple[Any, str, Any]] = []
    wrapped: Dict[int, Callable[..., Any]] = {}
    try:
        for name, layer, owner, attribute, capture in shim_targets():
            original = vars(owner)[attribute]
            # One shim per original function: a function imported into
            # several namespaces must not nest inside itself.
            shim = wrapped.get(id(original))
            if shim is None:
                shim = recorder.wrap(original, name, layer, capture)
                wrapped[id(original)] = shim
            installed.append((owner, attribute, original))
            setattr(owner, attribute, shim)
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


def calibrate(calls: int = 200_000) -> Tuple[float, float]:
    """What one shim costs one call of a no-op function, in ns:
    ``(added wall, of which recorded as the span's own self time)``.  The
    difference is what each child span adds to its *parent's* self time."""

    def noop() -> None:
        return None

    recorder = Recorder("calibration")
    shimmed = recorder.wrap(noop, "noop", "calibration")

    def loop(fn: Callable[[], None]) -> int:
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        return perf_counter_ns() - start

    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(shimmed) for _ in range(3))
    count, _, own = recorder.total("noop")
    return max(0.0, (traced - bare) / calls), own / count
