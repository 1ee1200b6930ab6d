"""Telemetry: metrics registry, flight-recorder tracing, profiling, and
run provenance for the whole reproduction stack.

Quick start::

    from repro.telemetry import Telemetry, activate

    with activate(Telemetry(trace=True)) as tel:
        result = run_star_fct(...)          # instruments itself
    tel.recorder.export_jsonl("trace.jsonl")
    snapshot = tel.snapshot()               # metrics + ports + profile

See DESIGN.md ("Telemetry & instrumentation") for the architecture and
the zero-overhead-when-disabled contract.
"""

from .events import CATEGORIES, FlightRecorder, TraceEvent
from .hub import Telemetry
from .profiler import RunProfiler
from .progress import (
    JsonlHeartbeat,
    ProgressReporter,
    ProgressTracker,
    TtyProgress,
    make_progress,
)
from .provenance import RunManifest, git_sha
from .spans import Span, SpanTracer, maybe_span
from .registry import (
    FCT_US_BUCKETS,
    QUEUE_PKT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    Snapshotter,
)
from .runtime import activate, dataplane_telemetry, get_active, set_active

__all__ = [
    "CATEGORIES",
    "FlightRecorder",
    "TraceEvent",
    "Telemetry",
    "RunProfiler",
    "RunManifest",
    "git_sha",
    "Span",
    "SpanTracer",
    "maybe_span",
    "ProgressTracker",
    "ProgressReporter",
    "TtyProgress",
    "JsonlHeartbeat",
    "make_progress",
    "FCT_US_BUCKETS",
    "QUEUE_PKT_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Snapshotter",
    "activate",
    "dataplane_telemetry",
    "get_active",
    "set_active",
]
