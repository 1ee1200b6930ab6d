"""Figure 13: ECN# under a DWRR packet scheduler, versus TCN.

Three long-lived flows are classified into three DWRR services with weights
2:1:1 and started in sequence; short probe flows sample queueing delay
across all services.  Two properties are measured per scheme:

* scheduling preservation -- phase-by-phase goodputs should follow the
  staircase 9.6 -> (6.4, 3.2) -> (4.8, 2.4, 2.4) Gbps;
* short-flow FCT -- ECN# should beat TCN (paper: ~19.6% lower average)
  because it removes the per-queue standing queues TCN's static
  instantaneous threshold leaves behind.

Sojourn-time marking is what makes both schemes scheduler-compatible at
all; queue-length DCTCP-RED has no meaningful threshold per DWRR queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...sim.packet import PacketFactory
from ...sim.scheduler import DwrrScheduler
from ...sim.units import gbps, ms, us
from ...tcp.factory import FlowHandle, open_flow
from ...topology.star import build_star
from ...workloads.arrivals import TransportConfig
from ..faults import is_failure
from ..fct import FctCollector
from ..report import fmt_opt, format_table
from ..schemes import simulation_scheme_specs
from ..specs import Cell, RunSpec

__all__ = [
    "SchedulerRun",
    "Fig13Result",
    "run_scheduler_experiment",
    "cells",
    "assemble",
    "derived",
    "render",
]

WEIGHTS: Tuple[float, ...] = (2.0, 1.0, 1.0)
SCHEMES: Tuple[str, ...] = ("ECN#", "TCN")


@dataclass
class SchedulerRun:
    """One scheme's DWRR run."""

    scheme: str
    # goodputs[phase][flow_index] in bits/s; phases are 0 (flow 1 alone),
    # 1 (flows 1-2), 2 (flows 1-3).
    goodputs: List[List[float]]
    probe_fcts: List[float] = field(default_factory=list)

    def avg_probe_fct(self) -> Optional[float]:
        return float(np.mean(self.probe_fcts)) if self.probe_fcts else None

    def phase3_share_ratios(self) -> Optional[Tuple[float, float]]:
        """(flow1/flow2, flow1/flow3) goodput ratios in the last phase;
        both should approach weight ratio 2.0."""
        phase = self.goodputs[2]
        if len(phase) < 3 or phase[1] <= 0 or phase[2] <= 0:
            return None
        return phase[0] / phase[1], phase[0] / phase[2]

    def metrics(self) -> Dict[str, float]:
        """The run's statistics as a flat name -> value map (an entry is
        omitted when no probe completed / a phase-3 flow starved)."""
        values: Dict[str, float] = {}
        avg_probe = self.avg_probe_fct()
        if avg_probe is not None:
            values["avg_probe_fct"] = avg_probe
        shares = self.phase3_share_ratios()
        if shares is not None:
            values["phase3_share_f1_f2"], values["phase3_share_f1_f3"] = shares
        return values


@dataclass
class Fig13Result:
    runs: Dict[str, SchedulerRun]

    def probe_fct_ratio(self) -> Optional[float]:
        """ECN# average probe FCT over TCN's (paper: ~0.80); ``None`` when
        either side's run failed."""
        ecn_sharp = self.runs.get("ECN#")
        tcn = self.runs.get("TCN")
        if ecn_sharp is None or tcn is None:
            return None
        if is_failure(ecn_sharp) or is_failure(tcn):
            return None
        mine = ecn_sharp.avg_probe_fct()
        theirs = tcn.avg_probe_fct()
        if mine is None or theirs is None or theirs == 0:
            return None
        return mine / theirs


class _GoodputMeter:
    """Samples a sink's cumulative in-order segments at window edges."""

    def __init__(self, sim, handle: FlowHandle) -> None:
        self._sim = sim
        self._handle = handle
        self._marks: Dict[str, int] = {}

    def mark(self, label: str) -> None:
        self._marks[label] = self._handle.sink.expected

    def goodput(self, start_label: str, end_label: str, window: float) -> float:
        delta = self._marks[end_label] - self._marks[start_label]
        return delta * self._handle.sender.mss * 8.0 / window


def run_scheduler_experiment(
    aqm_factory: Callable,
    scheme_name: str,
    phase: float = ms(60),
    link_rate_bps: float = gbps(10),
    seed: int = 81,
    probe_load: float = 0.10,
    long_flow_bytes: int = 400_000_000,
) -> SchedulerRun:
    """Run the 3-service DWRR experiment for one scheme."""
    topo = build_star(
        n_senders=16,
        link_rate_bps=link_rate_bps,
        aqm_factory=aqm_factory,
        bottleneck_scheduler_factory=lambda: DwrrScheduler(WEIGHTS),
    )
    sim = topo.sim
    rng = np.random.default_rng(seed)
    factory = PacketFactory()
    transport = TransportConfig()

    # Three long-lived flows, one per service, staggered one phase apart.
    meters: List[_GoodputMeter] = []
    for index in range(3):
        handle = open_flow(
            topo.network,
            factory,
            topo.senders[index],
            topo.receiver,
            long_flow_bytes,
            cc=transport.cc,
            start_time=index * phase,
            service=index,
        )
        meters.append(_GoodputMeter(sim, handle))

    # Measurement windows: the second half of each phase (lets DWRR shares
    # converge after each new flow joins).
    windows: List[Tuple[str, float, str, float]] = []
    for phase_index in range(3):
        start = phase_index * phase + phase / 2.0
        end = (phase_index + 1) * phase
        start_label, end_label = f"s{phase_index}", f"e{phase_index}"
        windows.append((start_label, start, end_label, end))
        for meter in meters:
            sim.schedule_at(start, meter.mark, start_label)
            sim.schedule_at(end, meter.mark, end_label)

    # Probe short flows across all services from the remaining senders.
    collector = FctCollector()
    probe_rate = probe_load * link_rate_bps / (8.0 * 31_500)  # mean 3-60KB

    def launch_probe() -> None:
        if sim.now >= 3 * phase:
            return
        sender = topo.senders[3 + int(rng.integers(13))]
        size = int(rng.integers(3_000, 60_001))
        open_flow(
            topo.network,
            factory,
            sender,
            topo.receiver,
            size,
            cc=transport.cc,
            service=int(rng.integers(3)),
            min_rto=transport.min_rto,
            on_complete=collector.record,
        )
        sim.schedule(float(rng.exponential(1.0 / probe_rate)), launch_probe)

    sim.schedule(float(rng.exponential(1.0 / probe_rate)), launch_probe)

    topo.network.run(until=3 * phase)

    goodputs: List[List[float]] = []
    for phase_index, (start_label, start, end_label, end) in enumerate(windows):
        window = end - start
        goodputs.append(
            [m.goodput(start_label, end_label, window) for m in meters]
        )
    return SchedulerRun(
        scheme=scheme_name,
        goodputs=goodputs,
        probe_fcts=[r.fct for r in collector.records],
    )


def cells(seed: int = 81, phase: float = ms(60)) -> Dict[str, Cell]:
    """One single-run DWRR cell per scheme."""
    scheme_specs = simulation_scheme_specs()
    return {
        name: Cell.single(
            "fig13",
            f"scheme={name}",
            RunSpec.scheduler(
                scheme_specs[name], seed=seed, label=name, phase=phase
            ),
        )
        for name in SCHEMES
    }


def assemble(
    cells: Dict[str, Cell], runs: Sequence[Sequence[Any]]
) -> Fig13Result:
    return Fig13Result(
        runs={
            name: cell.pool(cell_runs)
            for (name, cell), cell_runs in zip(cells.items(), runs)
        }
    )


def derived(result: Fig13Result) -> Dict[str, float]:
    """ECN#'s probe FCT over TCN's, and across every surviving scheme: the
    lowest goodput of flow 1 alone, the highest of a flow not yet started,
    and the worst relative error of a phase-2 / phase-3 share ratio against
    the 2:1 weight ratio (absent when a started flow starved)."""
    numbers = {}
    ratio = result.probe_fct_ratio()
    if ratio is not None:
        numbers["probe_fct_ratio"] = ratio
    runs = [run for run in result.runs.values() if not is_failure(run)]
    if runs:
        numbers["min_solo_goodput_gbps"] = min(run.goodputs[0][0] for run in runs) / 1e9
        numbers["max_unstarted_goodput_gbps"] = (
            max(max(run.goodputs[0][1:]) for run in runs) / 1e9
        )
        shares = [run.phase3_share_ratios() for run in runs]
        if None not in shares and all(run.goodputs[1][1] > 0 for run in runs):
            ratios = [run.goodputs[1][0] / run.goodputs[1][1] for run in runs]
            ratios += [share for pair in shares for share in pair]
            numbers["worst_dwrr_share_error"] = max(
                abs(share / (WEIGHTS[0] / WEIGHTS[1]) - 1.0) for share in ratios
            )
    return numbers


def render(result: Fig13Result) -> str:
    """Render the goodput staircase plus the probe-FCT comparison."""
    rows: List[List[str]] = []
    for name, run in result.runs.items():
        if is_failure(run):
            kind = getattr(run, "kind", "failed")
            rows.append([name, f"({kind})", "-", "-", "-"])
            continue
        for phase_index, phase_goodputs in enumerate(run.goodputs):
            rows.append(
                [
                    name,
                    f"phase {phase_index + 1}",
                    *(f"{g / 1e9:.2f}" for g in phase_goodputs),
                ]
            )
    table = format_table(
        ["scheme", "phase", "flow1 Gbps", "flow2 Gbps", "flow3 Gbps"],
        rows,
        title=(
            "Figure 13a: DWRR goodput staircase "
            "(expect ~9.6 -> 6.4/3.2 -> 4.8/2.4/2.4)"
        ),
    )
    fct_lines = [
        f"{name}: avg probe FCT = "
        + fmt_opt(
            None
            if is_failure(run) or not run.avg_probe_fct()
            else run.avg_probe_fct() * 1e6,
            ".0f",
        )
        + "us"
        for name, run in result.runs.items()
    ]
    ratio = result.probe_fct_ratio()
    ratio_line = (
        f"ECN#/TCN probe FCT ratio: {ratio:.2f} (paper: ~0.80)"
        if ratio is not None
        else "ECN#/TCN probe FCT ratio: -"
    )
    return "\n".join([table, *fct_lines, ratio_line])
