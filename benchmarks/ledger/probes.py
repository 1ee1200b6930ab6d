"""Isolated probes: one layer at a time, nothing else on the path.

They bound the per-layer self times of the traced pass from the other side:
a traced self time includes the shim's own cost, a probe includes the
event-loop work a layer cannot run without.  Each probe reports the median
of :data:`ROUNDS` rounds.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import Callable, Dict

from repro.core.base import NullAqm
from repro.experiments import runner
from repro.experiments.schemes import (
    simulation_scheme_specs,
    testbed_scheme_specs,
)
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import Port
from repro.sim.units import gbps, mb, us
from repro.telemetry.hub import Telemetry
from repro.telemetry.runtime import activate
from repro.workloads import WEB_SEARCH

ROUNDS = 3
EVENT_SOURCES = 64
"""Concurrent event sources, so the queue holds a realistic depth."""


def _median_wall(run: Callable[[], None]) -> float:
    walls = []
    for _ in range(ROUNDS):
        start = perf_counter()
        run()
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def eventq(quick: bool) -> Dict[str, float]:
    """Bare dispatch: 64 self-rescheduling sources through
    ``Simulator.schedule``/``run`` on each queue implementation."""
    events = 20_000 if quick else 200_000

    def dispatch(scheduler: str) -> None:
        sim = Simulator(scheduler=scheduler)

        def tick(delay: float) -> None:
            sim.schedule(delay, tick, delay)

        for index in range(EVENT_SOURCES):
            sim.schedule(index * 1e-7 + 1e-6, tick, 1e-6 + index * 1e-9)
        sim.run(max_events=events)

    return {
        f"sim.eventq.probe_ns_per_event.{scheduler}":
            _median_wall(lambda s=scheduler: dispatch(s)) / events * 1e9
        for scheduler in ("calendar", "heap")
    }


class _Sink:
    """Stub peer: the far end of the probed port."""

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1


def port(quick: bool) -> Dict[str, float]:
    """One ``Port`` fed at line rate, ``send`` to delivery at a stub peer
    (three events per packet: feed, serialization, propagation)."""
    packets = 2_000 if quick else 20_000
    schemes = simulation_scheme_specs()
    aqms = {
        "null": NullAqm,
        "ecn-sharp": schemes["ECN#"].build,
        "sojourn-red": schemes["DCTCP-RED-Tail"].build,
        "codel": schemes["CoDel"].build,
        "tcn": schemes["TCN"].build,
    }

    def carry(build_aqm: Callable[[], object]) -> None:
        sim = Simulator()
        sink = _Sink()
        egress = Port(sim, "probe", gbps(10), us(2), mb(1), aqm=build_aqm())
        egress.peer = sink  # type: ignore[assignment]
        gap = 1500 * 8 / gbps(10)
        remaining = [packets]

        def feed() -> None:
            egress.send(Packet(0, "a", "b", remaining[0], 1500))
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(gap, feed)

        sim.schedule(0.0, feed)
        sim.run()
        if sink.received != packets:
            raise RuntimeError(
                f"port probe delivered {sink.received}/{packets} packets")

    return {
        f"sim.port.probe_ns_per_pkt.{name}":
            _median_wall(lambda b=build: carry(b)) / packets * 1e9
        for name, build in aqms.items()
    }


def telemetry(quick: bool) -> Dict[str, float]:
    """A small star cell with telemetry off, metrics-only and full trace,
    interleaved so host drift hits all three alike."""
    n_flows = 10 if quick else 40
    aqm = testbed_scheme_specs()["ECN#"]

    modes = {
        "off": lambda: None,
        "metrics": lambda: Telemetry(metrics=True, profile=False),
        "full": lambda: Telemetry(trace=True, metrics=True, profile=True),
    }

    def cell(mode: str) -> float:
        telemetry = modes[mode]()
        gc.collect()  # the previous cell's recorder must not be this one's
        start = perf_counter()
        if telemetry is None:
            runner.run_star_fct(aqm.build, WEB_SEARCH, 0.7, n_flows, 7)
        else:
            with activate(telemetry):
                runner.run_star_fct(aqm.build, WEB_SEARCH, 0.7, n_flows, 7)
        return perf_counter() - start

    # Ratios within a round, not medians across rounds: the three runs of a
    # round share one host phase, two rounds may not.  The order rotates so
    # no mode always runs first.
    order = list(modes)
    metrics_ratio, full_ratio = [], []
    for _ in range(ROUNDS):
        walls = {mode: cell(mode) for mode in order}
        metrics_ratio.append(walls["metrics"] / walls["off"])
        full_ratio.append(walls["full"] / walls["off"])
        order.append(order.pop(0))
    return {
        "telemetry.metrics_only_overhead_pct":
            (statistics.median(metrics_ratio) - 1.0) * 100.0,
        "telemetry.full_trace_overhead_pct":
            (statistics.median(full_ratio) - 1.0) * 100.0,
    }
