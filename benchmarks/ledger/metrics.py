"""The ledger's metric vocabulary: names, units, directions, bounds.

``BENCHMARK.json`` at the repo root is the one table: the six workloads with
their reasons, the end-to-end metrics every workload emits (with the bound
the benchmark driver gates them at) and the per-layer metrics.  This module
reads it and adds only what that file has no place for -- the end-to-end
metrics that exist on a single workload (:data:`LEDGER_ONLY`), which go into
the ledger and are gated by ``compare.py``.

Every per-layer metric is emitted by every workload: a layer the workload
never enters reports 0, which is the prediction "this must not move here".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, NamedTuple, Sequence

__all__ = ["EndToEnd", "END_TO_END", "LEDGER_ONLY", "LEDGER_END_TO_END",
           "PER_LAYER", "WORKLOADS", "RUN_SECONDS", "from_trace", "fill"]

_SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"))

RUN_SECONDS: int = _SPEC["run_seconds"]
"""Time box of one run's timed repetitions (``--seconds`` default)."""

WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in _SPEC["workloads"]}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    """Share of the baseline's median the metric may worsen by; 0 = exact."""


END_TO_END: Dict[str, EndToEnd] = {
    m["name"]: EndToEnd(m["unit"], m["better"], m["bound"])
    for m in _SPEC["end_to_end"]
}
"""What every workload emits and the driver gates: ``setup_s``, ``run_s``,
``peak_rss_mb`` (README.md, "End-to-end metrics", says what each means)."""

LEDGER_ONLY: Dict[str, EndToEnd] = {
    # all workloads; the driver reads it as failed / attempted
    "fail_share": EndToEnd("share", "lower", 0.0),
    # fluid_sweep
    "fluid_fct_err_pct": EndToEnd("%", "lower", 0.0),
    # campaign_replay
    "cells_per_s": EndToEnd("1/s", "higher", 0.10),
    # service_query
    "query_cold_p50_ms": EndToEnd("ms", "lower", 0.10),
    "query_warm_p50_ms": EndToEnd("ms", "lower", 0.10),
    "query_reload_p50_ms": EndToEnd("ms", "lower", 0.10),
}
"""End-to-end metrics one workload defines (or that rest at 0): the driver
takes only metrics every workload emits and that are never 0, so these are
written to the ledger and gated by ``compare.py``."""

PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
"""name -> unit.  "count" metrics repeat exactly and are compared exactly."""


LEDGER_END_TO_END: Dict[str, EndToEnd] = {**END_TO_END, **LEDGER_ONLY}
"""Every end-to-end name a ledger can hold."""


def from_trace(recorder: Any, traced_reps: Sequence[Any]) -> Dict[str, float]:
    """Per-layer metrics every workload derives the same way from the span
    aggregates: crossings per repetition and time per crossing."""
    reps = max(1, len(traced_reps))

    def count(*names: str) -> int:
        return sum(recorder.total(name)[0] for name in names)

    def inclusive(*names: str) -> int:
        return sum(recorder.total(name)[1] for name in names)

    def own(*names: str) -> int:
        return sum(recorder.total(name)[2] for name in names)

    def per(total: float, calls: float) -> float:
        return total / calls if calls else 0.0

    hooks = ("Aqm.on_enqueue", "Aqm.on_dequeue")
    rigs = ("run_star_fct", "run_leafspine_fct", "run_microscopic")
    return {
        "sim.eventq.schedule_calls": count("EventQueue.schedule") / reps,
        "sim.eventq.self_ns_per_schedule": per(
            own("EventQueue.schedule"), count("EventQueue.schedule")),
        "sim.eventq.unattributed_s": own(*rigs) / reps / 1e9,
        "sim.port.sends": count("Port.send") / reps,
        "sim.port.self_ns_per_send": per(own("Port.send"), count("Port.send")),
        "core.aqm.dequeue_calls": count("Aqm.on_dequeue") / reps,
        "core.aqm.self_ns_per_call": per(own(*hooks), count(*hooks)),
        "sim.network.switch_receives": count("Switch.receive") / reps,
        "sim.network.host_receives": count("Host.receive") / reps,
        "sim.network.self_ns_per_receive": per(
            own("Switch.receive", "Host.receive", "Host.transmit"),
            count("Switch.receive", "Host.receive")),
        "netem.delay.self_ns_per_call": per(
            own("FlowDelayStage.delay_for"),
            count("FlowDelayStage.delay_for")),
        "tcp.sender.acks": count("TcpSender.receive") / reps,
        "tcp.sender.self_ns_per_ack": per(
            own("TcpSender.receive"), count("TcpSender.receive")),
        "tcp.sender.timer_restarts": count("Timer.restart") / reps,
        "tcp.sink.segments": count("TcpSink.receive") / reps,
        "tcp.sink.self_ns_per_segment": per(
            own("TcpSink.receive"), count("TcpSink.receive")),
        "topology.build_ms.star": inclusive("build_star") / reps / 1e6,
        "topology.build_ms.leafspine":
            inclusive("build_leafspine") / reps / 1e6,
        "topology.build_ms.incast": inclusive("build_incast") / reps / 1e6,
        "workloads.generate_ms": own("open_flow") / reps / 1e6,
        "experiments.specs.token_us": per(
            inclusive("RunSpec.token"), count("RunSpec.token")) / 1e3,
        "experiments.executor.cache_hit_us_per_spec": per(
            inclusive("ResultCache.load"), count("ResultCache.load")) / 1e3,
        "scenarios.campaign.append_calls":
            count("CampaignStore.append") / reps,
        "fluid.marking.us_per_step": per(
            inclusive("MarkerBank.step"), count("MarkerBank.step")) / 1e3,
    }


def fill(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer name with its unit; names a workload did not produce
    report 0 (the layer was never entered)."""
    unknown = sorted(k for k in values if k not in PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
