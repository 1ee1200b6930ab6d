"""Figure 10: microscopic queue occupancy (16-to-1, query burst).

Long-lived background flows (data-mining-sized, small-ish base RTTs) build
whatever standing queue the AQM tolerates; at the burst time 100 query flows
arrive at once.  The paper's observations, which this module measures:

* DCTCP-RED-Tail keeps a persistent queue near its threshold (~182 pkt at a
  220 us threshold on 10 Gbps) and absorbs the burst without drops;
* ECN# collapses the standing queue to ~pst_target (~8 pkt) and still
  absorbs the burst;
* CoDel has a small standing queue but overflows on the burst (drops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...netem.profiles import RttProfile
from ...sim.monitor import QueueMonitor
from ...sim.packet import PacketFactory
from ...sim.units import gbps, mb, ms, us
from ...topology.star import build_incast
from ...workloads.arrivals import TransportConfig
from ...workloads.incast import launch_query
from ..faults import is_failure
from ..fct import FctCollector
from ..report import format_table
from ..runner import estimate_star_network_rtt
from ..schemes import simulation_scheme_specs
from ..specs import Cell, RunSpec

__all__ = [
    "Fig10Result",
    "MicroscopicRun",
    "run_microscopic",
    "cells",
    "assemble",
    "derived",
    "render",
]

DEFAULT_SCHEMES: Tuple[str, ...] = ("DCTCP-RED-Tail", "CoDel", "ECN#")


@dataclass
class MicroscopicRun:
    """One scheme's microscopic trace.

    ``standing_queue_pkts`` is the pre-burst long-window average;
    ``floor_queue_pkts`` is the best (lowest-average) 5 ms window before the
    burst -- the converged state the paper's single 5 ms snapshot captures.
    ECN#'s persistent control converges along a sawtooth (Algorithm 1 resets
    its escalation count whenever one packet dips below pst_target), so the
    long-window average sits above the converged floor.
    """

    scheme: str
    samples: Tuple[List[float], List[int]]  # (times, queue packets)
    standing_queue_pkts: float  # average before the burst
    floor_queue_pkts: float  # best 5ms-window average before the burst
    peak_queue_pkts: int
    drops: int
    marks: int
    query_fcts: List[float] = field(default_factory=list)
    query_timeouts: int = 0
    queries_completed: int = 0
    events: int = 0
    """Simulator events dispatched by this run (resource attribution)."""

    def metrics(self) -> Dict[str, float]:
        """The validation-gated microscopic statistics as a flat
        name -> value map (query-FCT entries omitted when no query
        completed)."""
        values: Dict[str, float] = {
            "standing_queue_pkts": float(self.standing_queue_pkts),
            "floor_queue_pkts": float(self.floor_queue_pkts),
            "peak_queue_pkts": float(self.peak_queue_pkts),
            "drops": float(self.drops),
            "query_timeouts": float(self.query_timeouts),
        }
        if self.query_fcts:
            values["avg_query_fct"] = float(np.mean(self.query_fcts))
            values["p99_query_fct"] = float(np.percentile(self.query_fcts, 99))
        return values


@dataclass
class Fig10Result:
    runs: Dict[str, MicroscopicRun]
    fanout: int
    burst_time: float


def run_microscopic(
    aqm_factory,
    scheme_name: str,
    fanout: int = 100,
    seed: int = 51,
    n_background: int = 4,
    background_bytes: int = 80_000_000,
    warmup: float = ms(5),
    burst_time: float = ms(20),
    end_time: float = ms(45),
    sample_interval: float = us(5),
    rtt_min: float = us(80),
    variation: float = 3.0,
    init_cwnd: float = 2.0,
    jitter: float = us(300),
) -> MicroscopicRun:
    """One scheme's run: background long flows + one query burst."""
    from ...telemetry.spans import maybe_span

    with maybe_span("setup", kind="engine"):
        topo = build_incast(aqm_factory=aqm_factory, buffer_bytes=mb(1))
        rng = np.random.default_rng(seed)
        factory = PacketFactory()
        profile = RttProfile.from_variation(rtt_min, variation)
        network_rtt = estimate_star_network_rtt()
        transport = TransportConfig(init_cwnd=init_cwnd)

        # Long-lived background flows from the first senders, base RTTs
        # drawn from the variation profile (the small-RTT ones create the
        # standing queue under a tail-RTT threshold).
        from ...tcp.factory import open_flow

        for index in range(n_background):
            sender = topo.senders[index]
            handle = open_flow(
                topo.network,
                factory,
                sender,
                topo.receiver,
                background_bytes,
                cc=transport.cc,
                init_cwnd=transport.init_cwnd,
                min_rto=transport.min_rto,
            )
            base_rtt = profile.sample_one(rng)
            topo.stage_for(sender).set_flow_delay(
                handle.flow_id, max(0.0, base_rtt - network_rtt)
            )

        monitor = QueueMonitor(
            topo.sim, topo.bottleneck, interval=sample_interval, start=warmup,
            stop=end_time,
        )

        collector = FctCollector()
        launch_query(
            topo.network,
            factory,
            topo.senders,
            topo.receiver,
            fanout=fanout,
            start_time=burst_time,
            rng=rng,
            transport=transport,
            on_flow_complete=collector.record,
            jitter=jitter,
        )

    with maybe_span("drain", kind="engine", clock=topo.sim):
        topo.network.run(until=end_time)

    pre_burst = [
        (s.time, s.packets) for s in monitor.samples if s.time < burst_time
    ]
    standing = float(np.mean([p for _, p in pre_burst])) if pre_burst else 0.0
    floor = _best_window_average(pre_burst, window=ms(5))
    return MicroscopicRun(
        scheme=scheme_name,
        samples=monitor.series(),
        standing_queue_pkts=standing,
        floor_queue_pkts=floor,
        peak_queue_pkts=monitor.max_packets(),
        drops=topo.bottleneck.stats.dropped_total,
        marks=topo.bottleneck.aqm.stats.marks,
        query_fcts=[r.fct for r in collector.records],
        query_timeouts=collector.total_timeouts(),
        queries_completed=len(collector.records),
        events=topo.sim.events_processed,
    )


def _best_window_average(
    samples: List[Tuple[float, int]], window: float
) -> float:
    """Lowest mean queue over any ``window``-long span of the samples."""
    if not samples:
        return 0.0
    best = float("inf")
    start_index = 0
    total = 0.0
    count = 0
    for index, (time, packets) in enumerate(samples):
        total += packets
        count += 1
        while samples[start_index][0] < time - window:
            total -= samples[start_index][1]
            count -= 1
            start_index += 1
        if count > 0 and time - samples[start_index][0] >= window * 0.9:
            best = min(best, total / count)
    return best if best != float("inf") else float(np.mean([p for _, p in samples]))


def cells(
    fanout: int = 100,
    seed: int = 51,
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES,
) -> Dict[Tuple[int, str], Cell]:
    """One single-run cell per ``(fanout, scheme)`` coordinate."""
    scheme_specs = simulation_scheme_specs()
    return {
        (fanout, name): Cell.single(
            "fig10",
            f"scheme={name}",
            RunSpec.microscopic(
                scheme_specs[name], seed=seed, label=name, fanout=fanout
            ),
        )
        for name in schemes
    }


def assemble(
    cells: Dict[Tuple[int, str], Cell], runs: Sequence[Sequence[Any]]
) -> Fig10Result:
    return Fig10Result(
        runs={
            name: cell.pool(cell_runs)
            for ((_, name), cell), cell_runs in zip(cells.items(), runs)
        },
        fanout=next(fanout for fanout, _ in cells),
        burst_time=ms(20),
    )


def derived(result: Fig10Result) -> Dict[str, Union[float, str]]:
    """RED-Tail's standing queue, ECN#'s converged floor, ECN#'s and CoDel's
    standing queues as fractions of RED-Tail's, the packets RED-Tail and
    ECN# drop between them under the burst, and the smallest share of the
    burst's queries any scheme completed.  A scheme whose run is missing or
    failed contributes nothing."""
    runs = {
        name: run
        for name, run in result.runs.items()
        if run is not None and not is_failure(run)
    }
    numbers: Dict[str, Union[float, str]] = {}
    red, sharp = runs.get("DCTCP-RED-Tail"), runs.get("ECN#")
    if sharp is not None:
        numbers["ecn_sharp_floor_pkts"] = float(sharp.floor_queue_pkts)
    if red is not None:
        numbers["red_tail_standing_pkts"] = float(red.standing_queue_pkts)
        for key, scheme in (
            ("ecn_sharp_standing_ratio", "ECN#"), ("codel_standing_ratio", "CoDel")
        ):
            if scheme in runs:
                numbers[key] = (
                    runs[scheme].standing_queue_pkts / red.standing_queue_pkts
                    if red.standing_queue_pkts > 0
                    else "RED-Tail built no standing queue"
                )
        if sharp is not None:
            numbers["burst_drops"] = float(red.drops + sharp.drops)
    if runs:
        numbers["min_queries_done_share"] = min(
            run.queries_completed / result.fanout for run in runs.values()
        )
    return numbers


def render(result: Fig10Result) -> str:
    """Render the standing-queue / burst table."""
    rows: List[List[str]] = []
    for name, run in result.runs.items():
        if run is None or is_failure(run):
            kind = getattr(run, "kind", "failed")
            rows.append([name, "-", "-", "-", "-", "-", f"({kind})"])
            continue
        rows.append(
            [
                name,
                f"{run.standing_queue_pkts:.1f}",
                f"{run.floor_queue_pkts:.1f}",
                str(run.peak_queue_pkts),
                str(run.drops),
                str(run.query_timeouts),
                f"{run.queries_completed}/{result.fanout}",
            ]
        )
    return format_table(
        ["scheme", "standing q (pkt)", "floor q (5ms)", "peak q", "drops", "query timeouts", "queries done"],
        rows,
        title=(
            "Figure 10: queue occupancy with a "
            f"{result.fanout}-flow query burst (paper: RED-Tail ~182 pkt "
            "standing, ECN# ~8 pkt, CoDel drops)"
        ),
    )
