"""The three packet-engine workloads: star, leaf-spine, incast burst.

FCT workloads draw heavy-tailed flow sizes, so another rig seed is another
amount of simulated work (measured here, 250-flow star cell, seeds 7-16:
0.9-3.2 s a repetition, 2.3-3.9 us an event, 60-160 simulated ms per host
second) -- a different workload, not noise.  The timed cell of
``star_websearch`` and ``leafspine_datamining`` is therefore pinned;
``--seed`` drives a check after the timed repetitions that runs the same rig
on a seed-derived population and expects it to complete.  The incast rig's
work is set by its fixed simulated span, so its seed follows ``--seed``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.base import NullAqm
from repro.experiments import runner
from repro.experiments.figures import fig10
from repro.experiments.schemes import (
    simulation_scheme_specs,
    testbed_scheme_specs,
)
from repro.sim.units import ms
from repro.workloads import DATA_MINING, WEB_SEARCH
from repro.workloads.distributions import EmpiricalCdf

from .. import probes, trace
from ..harness import Checks, Rep, Workload

SRC = Path(runner.__file__).resolve().parents[2]

SEEDED_ELEPHANT_CAP = 4_000_000
DATA_MINING_CAPPED = EmpiricalCdf(
    name="data-mining, capped",
    points=tuple(point for point in DATA_MINING.points
                 if point[0] <= SEEDED_ELEPHANT_CAP)
    + ((SEEDED_ELEPHANT_CAP + 1, 1.0),))
"""The data-mining curve with its last decile folded onto 4 MB, for the
leaf-spine seeded check: one 100 MB elephant on an unlucky seed would
outlast the whole run."""


def cold_import(modules: Sequence[str]) -> None:
    """What every CLI invocation pays before it can simulate: a fresh
    interpreter importing the rig."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], check=True)


def queue_health(sim: Any) -> Tuple[int, int]:
    """``(stragglers, heap_fallback)`` of a finished simulator's calendar
    queue.  The ledger's only private read: replace it when the event queue
    grows a public counter."""
    queue = sim._q
    return (getattr(queue, "_stragglers", 0),
            int(getattr(queue, "_heap", None) is not None))


def fct_signature(result: Any) -> Tuple[Any, ...]:
    return (result.events, result.marks, result.instant_marks,
            result.persistent_marks, result.drops, result.timeouts,
            sum(record.fct for record in result.collector.records))


class PacketWorkload(Workload):
    """Shared per-layer accounting for the DES rigs."""

    rig_modules: Tuple[str, ...] = ()

    def setup(self) -> None:
        cold_import(self.rig_modules)

    def per_layer(self, reps: Sequence[Rep], traced: Sequence[Rep],
                  recorder: trace.Recorder, checks: Checks) -> Dict[str, float]:
        counts = reps[0].counts
        wall = statistics.median(rep.wall for rep in reps)
        segments = recorder.total("TcpSink.receive")[0] / len(traced)
        dequeues = recorder.total("Aqm.on_dequeue")[0] / len(traced)
        ports = [port
                 for topology in recorder.captured.get("topologies", [])
                 for node in topology.network.nodes.values()
                 for port in node.ports]
        # Packets offered to each port.  The AQMs these workloads attach
        # (ECN#, CoDel) act at dequeue only, so every AQM drop was enqueued
        # first and only overflow drops were turned away at ``send``.
        offered = {True: 0, False: 0}
        for port in ports:
            offered[type(port.aqm) is NullAqm] += (
                port.stats.enqueued_packets + port.stats.dropped_overflow)
        sends = offered[True] + offered[False]
        stragglers = fallback = 0
        for topology in recorder.captured.get("topologies", []):
            s, f = queue_health(topology.network.sim)
            stragglers += s
            fallback = max(fallback, f)
        flows = recorder.captured.get("flows", [])
        marks = sum(port.aqm.stats.marks for port in ports)
        checks.expect(marks == counts["marks"],
                      f"ports marked {marks}, the rig reported {counts['marks']}")
        checks.expect(marks <= dequeues,
                      f"marks {marks} exceed AQM dequeues {dequeues}")
        checks.expect(sends == recorder.total("Port.send")[0] / len(traced),
                      "Port.send span count disagrees with the ports' counters")
        return {
            "sim.eventq.events": counts["events"],
            "sim.eventq.events_per_pkt": (
                counts["events"] / segments if segments else 0.0),
            "sim.eventq.stragglers": stragglers,
            "sim.eventq.straggler_share": stragglers / counts["events"],
            "sim.eventq.heap_fallback": fallback,
            "sim.port.drops": sum(p.stats.dropped_total for p in ports),
            "sim.port.nic_share": offered[True] / sends if sends else 0.0,
            "core.aqm.marks": marks,
            "core.aqm.instant_marks": sum(
                port.aqm.stats.instant_marks for port in ports),
            "core.aqm.persistent_marks": sum(
                port.aqm.stats.persistent_marks for port in ports),
            "tcp.sender.retransmits": sum(
                f.sender.stats.retransmissions for f in flows),
            "tcp.sender.timeouts": sum(f.sender.stats.timeouts for f in flows),
            "experiments.runner.host_s_per_sim_s": (
                wall / (counts["sim_ms"] / 1e3)),
            "experiments.runner.events_per_s": counts["events"] / wall,
        }


class FctWorkload(PacketWorkload):
    """One pinned FCT cell per repetition."""

    rig_modules = ("repro.experiments.runner", "repro.experiments.schemes",
                   "repro.workloads")
    rig_seed = 7
    load = 0.0
    flows = (0, 0)          # (full, --quick)
    seeded_flows = (0, 0)

    def rig(self, n_flows: int, seed: int, seeded: bool) -> Any:
        raise NotImplementedError

    def seeded_check(self, checks: Checks) -> None:
        n_flows = self.seeded_flows[self.quick]
        result = self.rig(n_flows, self.rig_seed + 1 + self.seed, seeded=True)
        checks.expect(result.n_flows == n_flows,
                      f"seeded check: {result.n_flows}/{n_flows} flows done")

    def body(self, checks: Checks) -> Rep:
        n_flows = self.flows[self.quick]
        result = self.rig(n_flows, self.rig_seed, seeded=False)
        return Rep(
            signature=fct_signature(result),
            attempted=n_flows,
            failed=n_flows - result.n_flows,
            counts={"events": result.events, "marks": result.marks,
                    "sim_ms": result.sim_duration * 1e3},
        )


class StarWebsearch(FctWorkload):
    name = "star_websearch"
    follows_host_clock = True
    load = 0.7
    flows = (250, 30)
    seeded_flows = (40, 10)

    def rig(self, n_flows: int, seed: int, seeded: bool) -> Any:
        return runner.run_star_fct(
            testbed_scheme_specs()["ECN#"].build, WEB_SEARCH, self.load,
            n_flows, seed)

    def probes(self, reps: Sequence[Rep]) -> Dict[str, float]:
        values = probes.eventq(self.quick)
        values.update(probes.port(self.quick))
        values.update(probes.telemetry(self.quick))
        return values


class LeafspineDatamining(FctWorkload):
    name = "leafspine_datamining"
    load = 0.5
    flows = (100, 5)
    seeded_flows = (30, 5)

    def rig(self, n_flows: int, seed: int, seeded: bool) -> Any:
        return runner.run_leafspine_fct(
            simulation_scheme_specs()["ECN#"].build,
            DATA_MINING_CAPPED if seeded else DATA_MINING, self.load,
            n_flows, seed, dims=(4, 4, 4))


class IncastBurst(PacketWorkload):
    """One CoDel run (overflows, times out) and one ECN# run (absorbs the
    burst) of the Fig. 10/11 rig per repetition."""

    name = "incast_burst"
    follows_host_clock = True
    rig_modules = ("repro.experiments.figures.fig10",
                   "repro.experiments.schemes")
    schemes = ("CoDel", "ECN#")
    fanout = (200, 40)
    # warm-up, burst and end of the simulated span: the rig's defaults, and
    # a --quick span just long enough for every query to finish after an RTO.
    span_ms = ((5, 20, 45), (1, 3, 10))

    def run_pair(self, seed: int) -> List[Any]:
        warmup, burst, end = self.span_ms[self.quick]
        specs = simulation_scheme_specs()
        return [
            fig10.run_microscopic(
                specs[scheme].build, scheme, fanout=self.fanout[self.quick],
                seed=seed, warmup=ms(warmup), burst_time=ms(burst),
                end_time=ms(end))
            for scheme in self.schemes
        ]

    def body(self, checks: Checks) -> Rep:
        fanout = self.fanout[self.quick]
        runs = self.run_pair(61 + self.seed)
        return Rep(
            signature=tuple(
                (run.events, run.marks, run.drops, run.query_timeouts,
                 run.queries_completed, sum(run.query_fcts))
                for run in runs),
            attempted=fanout * len(runs),
            failed=sum(fanout - run.queries_completed for run in runs),
            counts={"events": sum(run.events for run in runs),
                    "marks": sum(run.marks for run in runs),
                    "sim_ms": len(runs) * self.span_ms[self.quick][2]},
        )
