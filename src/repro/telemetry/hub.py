"""The :class:`Telemetry` facade: one object wiring registry + recorder +
profiler + provenance together.

Instrumented code (ports, AQMs, senders) holds either ``None`` or a
``Telemetry`` and calls the ``on_*`` hooks below.  Each hook updates the
metrics registry and, when the corresponding trace category is enabled,
appends a flight-recorder event.  The contract with the hot paths is:

* attachment happens once, at object construction, via
  :func:`repro.telemetry.runtime.dataplane_telemetry`;
* a disabled run attaches ``None``, so the per-packet cost is one load
  and one ``is not None`` check -- no event objects are ever built.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .events import FlightRecorder
from .profiler import RunProfiler
from .registry import (
    FCT_US_BUCKETS,
    QUEUE_PKT_BUCKETS,
    MetricsRegistry,
    Snapshotter,
)
from .spans import SpanTracer

__all__ = ["Telemetry"]


class Telemetry:
    """Aggregation point for one observed run (or batch of runs).

    Args:
        trace: enable the flight recorder.
        trace_categories: categories to record (implies ``trace``); ``None``
            with ``trace=True`` records everything.
        ring_capacity: flight-recorder ring size.
        metrics: instrument the data plane / transports for the registry.
            With ``metrics=False`` and ``trace=False`` only the engine
            profiler runs (the CLI's default, zero per-packet cost).
        snapshot_interval: if set, sample per-port queue depth time series
            every this many *virtual* seconds.
        profile: attach a :class:`RunProfiler` to simulators.
        spans: attach a :class:`~repro.telemetry.spans.SpanTracer` so the
            campaign/grid/cell/engine-phase layers record a hierarchical
            span tree (near-free when off: instrumented code checks for a
            ``None`` tracer and allocates nothing).
    """

    def __init__(
        self,
        trace: bool = False,
        trace_categories: Optional[list] = None,
        ring_capacity: int = 65_536,
        metrics: bool = True,
        snapshot_interval: Optional[float] = None,
        snapshot_max_sims: int = 4,
        profile: bool = True,
        spans: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(ring_capacity, trace_categories)
            if trace or trace_categories is not None
            else None
        )
        self.profiler: Optional[RunProfiler] = RunProfiler() if profile else None
        self.spans: Optional[SpanTracer] = SpanTracer() if spans else None
        self.metrics_enabled = metrics
        self.snapshot_interval = snapshot_interval
        self.snapshot_max_sims = snapshot_max_sims
        self._ports: List = []
        self._snapshotters: Dict[int, Snapshotter] = {}
        self._sim_ports: Dict[int, List] = {}
        self.manifests: List = []
        self.failures: List = []  # RunFailure records from the executor

    @property
    def instruments_dataplane(self) -> bool:
        """Whether ports/AQMs/senders should attach to this telemetry."""
        return self.metrics_enabled or self.recorder is not None

    # -------------------------------------------------------------- wiring

    def register_port(self, port) -> None:
        """Called by Port.__init__ when this telemetry is active."""
        self._ports.append(port)
        if self.snapshot_interval is None:
            return
        sim_key = id(port.sim)
        snapshotter = self._snapshotters.get(sim_key)
        if snapshotter is None:
            if len(self._snapshotters) >= self.snapshot_max_sims:
                return
            snapshotter = Snapshotter(port.sim, self.snapshot_interval)
            self._snapshotters[sim_key] = snapshotter
            sim_ports: List = []
            self._sim_ports[sim_key] = sim_ports
            registry = self.registry

            def _sample(ports=sim_ports, registry=registry):
                row = {}
                for sampled in ports:
                    depth = sampled.queue_packets
                    row[f"q_pkts[{sampled.name}]"] = depth
                    registry.histogram(
                        "queue_depth_pkts", QUEUE_PKT_BUCKETS, port=sampled.name
                    ).observe(depth)
                return row

            snapshotter.add_sampler(_sample)
        self._sim_ports[sim_key].append(port)

    def add_manifest(self, manifest) -> None:
        self.manifests.append(manifest)

    # ------------------------------------------------------- executor hooks

    def on_run_failure(self, failure) -> None:
        """Record one terminal run failure (an executor ``RunFailure``):
        provenance for the manifest, a counter by failure kind, and a
        flight-recorder event when the ``failure`` category is enabled."""
        self.failures.append(failure)
        self.registry.counter("run_failures_total", kind=failure.kind).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("failure"):
            recorder.emit(
                0.0, "failure", failure.kind,
                spec=failure.spec_key, exc=failure.exc_type,
                message=failure.message, attempts=failure.attempts,
            )

    # ------------------------------------------------------ validation hooks

    def on_validation_verdict(
        self,
        kind: str,
        name: str,
        status: str,
        figure: str = "",
        detail: str = "",
    ) -> None:
        """Record one fidelity-gate verdict (``kind`` is ``"baseline"`` for a
        cell-vs-golden comparison or ``"invariant"`` for a paper-trend
        assertion; ``status`` is pass/warn/fail/skip)."""
        self.registry.counter(
            "validation_verdicts_total", kind=kind, status=status
        ).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("validation"):
            recorder.emit(
                0.0, "validation", status,
                check=kind, name=name, figure=figure, detail=detail,
            )

    # -------------------------------------------------------- campaign hooks

    def on_campaign_cell(
        self, scenario: str, cell_key: str, status: str
    ) -> None:
        """Record one campaign cell settling (``status`` is ``"ok"`` for an
        executed cell, ``"skipped"`` for a store replay, ``"failed"`` for a
        cell whose every seed run died)."""
        self.registry.counter("campaign_cells_total", status=status).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("scenario"):
            recorder.emit(
                0.0, "scenario", status, scenario=scenario, cell=cell_key,
            )

    # ------------------------------------------------------ resilience hooks

    def on_lease_reclaim(self, previous_worker: str) -> None:
        """Record one stale campaign lease reclaimed from a dead worker
        (its cell re-runs on the reclaiming worker)."""
        self.registry.counter("campaign_lease_reclaims_total").inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("resilience"):
            recorder.emit(
                0.0, "resilience", "lease_reclaim", worker=previous_worker,
            )

    def on_cache_corrupt(self, entry: str) -> None:
        """Record one result-cache entry failing its checksum and being
        quarantined to ``*.corrupt``."""
        self.registry.counter("cache_corrupt_total").inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("resilience"):
            recorder.emit(0.0, "resilience", "cache_corrupt", entry=entry)

    def on_chaos_injection(self, mode: str) -> None:
        """Record one fired counted ``REPRO_FAULT_INJECT`` directive
        (testing only)."""
        self.registry.counter("chaos_injections_total", mode=mode).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("resilience"):
            recorder.emit(0.0, "resilience", "chaos_injection", mode=mode)

    # --------------------------------------------------------- service hooks

    def on_service_request(
        self,
        endpoint: str,
        status: int,
        cache: str,
        wall_seconds: float,
    ) -> None:
        """Record one results-service request: ``endpoint`` is the route
        (``query``, ``stores``, ``healthz``, ``metricz``), ``cache`` is how
        it was answered (``hit``, ``miss``, ``not_modified``, ``none``)."""
        self.registry.counter(
            "service_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("service"):
            recorder.emit(
                0.0, "service", endpoint,
                status=status, cache=cache, wall_seconds=wall_seconds,
            )

    # ----------------------------------------------------------- fluid hooks

    def on_fluid_run(
        self,
        kind: str,
        steps: int,
        flows: int,
        sim_duration: float,
        wall_seconds: float,
    ) -> None:
        """Record one completed fluid-engine run: total step count (the
        fluid analogue of events dispatched) and a trace event when the
        ``fluid`` category is enabled."""
        self.registry.counter("fluid_steps_total", kind=kind).inc(steps)
        self.registry.counter("fluid_runs_total", kind=kind).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("fluid"):
            recorder.emit(
                sim_duration, "fluid", "run",
                rig=kind, steps=steps, flows=flows,
                wall_seconds=wall_seconds,
            )

    # ------------------------------------------------------ data-plane hooks

    def on_enqueue(self, port, packet, now: float) -> None:
        recorder = self.recorder
        if recorder is not None and recorder.wants("queue"):
            recorder.emit(
                now, "queue", "enqueue",
                port=port.name, flow=packet.flow_id, seq=packet.seq,
                size=packet.size, depth_pkts=port.queue_packets,
            )

    def on_dequeue(self, port, packet, now: float) -> None:
        recorder = self.recorder
        if recorder is not None and recorder.wants("queue"):
            recorder.emit(
                now, "queue", "dequeue",
                port=port.name, flow=packet.flow_id, seq=packet.seq,
                sojourn=now - packet.enqueue_time,
                depth_pkts=port.queue_packets,
            )

    def on_drop(self, port, packet, reason: str, now: float) -> None:
        self.registry.counter("drops_total", port=port.name, reason=reason).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("drop"):
            recorder.emit(
                now, "drop", reason,
                port=port.name, flow=packet.flow_id, seq=packet.seq,
                size=packet.size, depth_pkts=port.queue_packets,
            )

    def on_mark(self, scheme: str, packet, kind: str, now: float) -> None:
        self.registry.counter("marks_total", scheme=scheme, kind=kind).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("mark"):
            recorder.emit(
                now, "mark", kind, scheme=scheme,
                flow=packet.flow_id, seq=packet.seq,
            )

    # ------------------------------------------------------- transport hooks

    def on_cwnd(self, sender, old: float, new: float, reason: str) -> None:
        self.registry.counter(
            "cwnd_cuts_total", cc=type(sender).__name__, reason=reason
        ).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("cwnd"):
            recorder.emit(
                sender.sim.now, "cwnd", reason,
                flow=sender.flow_id, old=old, new=new,
            )

    def on_retransmit(self, sender, seq: int, kind: str) -> None:
        self.registry.counter(
            "retransmits_total", cc=type(sender).__name__, kind=kind
        ).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("retx"):
            recorder.emit(
                sender.sim.now, "retx", kind, flow=sender.flow_id, seq=seq
            )

    def on_timer(self, sender, rto: float) -> None:
        self.registry.counter("rto_fires_total", cc=type(sender).__name__).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("timer"):
            recorder.emit(
                sender.sim.now, "timer", "rto", flow=sender.flow_id, rto=rto
            )

    def on_rate(self, sender, old_bps: float, new_bps: float, reason: str) -> None:
        self.registry.counter("rate_updates_total", reason=reason).inc()
        recorder = self.recorder
        if recorder is not None and recorder.wants("rate"):
            recorder.emit(
                sender.sim.now, "rate", reason,
                flow=sender.flow_id, old_bps=old_bps, new_bps=new_bps,
            )

    def on_flow_complete(self, sender, fct_seconds: float) -> None:
        self.registry.histogram(
            "fct_us", FCT_US_BUCKETS, cc=type(sender).__name__
        ).observe(fct_seconds * 1e6)
        recorder = self.recorder
        if recorder is not None and recorder.wants("flow"):
            recorder.emit(
                sender.sim.now, "flow", "complete",
                flow=sender.flow_id, fct=fct_seconds, size=sender.size_bytes,
            )

    # -------------------------------------------------------------- exports

    def _port_summaries(self) -> dict:
        summaries = {}
        for index, port in enumerate(self._ports):
            stats = port.stats
            summaries[f"{port.name}#{index}"] = {
                "enqueued_packets": stats.enqueued_packets,
                "tx_packets": stats.tx_packets,
                "tx_bytes": stats.tx_bytes,
                "dropped_overflow": stats.dropped_overflow,
                "dropped_aqm": stats.dropped_aqm,
                "buffer_peak_bytes": port.buffer_peak_bytes,
                "final_queue_packets": port.queue_packets,
            }
        return summaries

    def snapshot(self) -> dict:
        """Full JSON-serializable dump: metrics, ports, series, profile,
        trace stats, and any collected manifests."""
        data = {
            "metrics": self.registry.snapshot(),
            "ports": self._port_summaries(),
        }
        if self._snapshotters:
            data["series"] = [s.rows for s in self._snapshotters.values()]
        if self.profiler is not None:
            data["profile"] = self.profiler.to_dict()
        if self.recorder is not None:
            data["trace"] = {
                "emitted": self.recorder.emitted,
                "buffered": len(self.recorder),
                "evicted": self.recorder.evicted,
                "by_category": self.recorder.counts_by_category(),
            }
        if self.manifests:
            data["manifests"] = [m.to_dict() for m in self.manifests]
        if self.failures:
            data["failures"] = [f.to_dict() for f in self.failures]
        if self.spans is not None and self.spans.roots:
            data["spans"] = self.spans.to_list()
        return data
