"""Experiment runners: single FCT runs over the paper's topologies, and
:func:`pool_results`, which merges one cell's seed runs (called through
:meth:`Cell.pool <repro.experiments.specs.Cell.pool>` only).

The paper's experiments run seconds of 10 Gbps traffic; a pure-Python DES
cannot, so figures default to reduced flow counts and load grids
(``figures.PAPER_SCALE`` has the ``--full`` values).  Normalized FCT
comparisons survive the reduction because every scheme sees the identical
arrival process (same seed -> same flow sizes, arrival times, endpoints and
base RTTs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.base import Aqm
from ..netem.profiles import RttProfile
from ..telemetry.provenance import RunManifest
from ..telemetry.spans import maybe_span
from ..sim.packet import PacketFactory
from ..sim.units import HEADER_SIZE, MTU, gbps, mb, us
from ..topology.leafspine import build_leafspine
from ..topology.star import build_star
from ..workloads.arrivals import (
    PoissonTrafficGenerator,
    TransportConfig,
    any_to_any_pair_picker,
    star_pair_picker,
)
from ..workloads.distributions import EmpiricalCdf
from .faults import FailedCell, RunFailure
from .fct import FctCollector, FctSummary

__all__ = [
    "ExperimentResult",
    "estimate_star_network_rtt",
    "run_star_fct",
    "run_leafspine_fct",
    "pool_results",
]

AqmFactory = Callable[[], Aqm]

MAX_EVENTS_PER_RUN = 200_000_000
"""Hard stop against runaway runs; far above any configured experiment."""


@dataclass
class ExperimentResult:
    """Everything one FCT run produces."""

    summary: FctSummary
    collector: FctCollector
    marks: int
    instant_marks: int
    persistent_marks: int
    drops: int
    timeouts: int
    sim_duration: float
    events: int
    manifest: Optional[RunManifest] = None
    failures: List[RunFailure] = field(default_factory=list)
    """Failure records carried by a pooled result whose cell lost some (but
    not all) of its seed runs; empty for a clean single run."""

    @property
    def n_flows(self) -> int:
        return self.summary.n_flows


def estimate_star_network_rtt(
    link_rate_bps: float = gbps(10), link_delay: float = us(2)
) -> float:
    """Uncongested physical RTT of the star: four propagation hops plus
    data and ACK serialization on both links."""
    data_tx = MTU * 8.0 / link_rate_bps
    ack_tx = HEADER_SIZE * 8.0 / link_rate_bps
    return 4.0 * link_delay + 2.0 * data_tx + 2.0 * ack_tx


def _drain(network, collector: FctCollector, expected: int) -> None:
    """Run the event loop to completion and verify every flow finished.

    ``run_until_idle`` raises :class:`~repro.sim.SimulationStalled` if the
    dispatch budget runs out with events still pending, so a wedged run
    surfaces as a typed failure record instead of a silently truncated
    result.  A drained loop with incomplete flows (events exhausted
    *cleanly* -- e.g. every remaining flow lost its retransmission timer)
    is still an error."""
    network.sim.run_until_idle(max_events=MAX_EVENTS_PER_RUN)
    if len(collector) < expected:
        raise RuntimeError(
            f"only {len(collector)}/{expected} flows completed; "
            "simulation stalled (check buffer/timeout settings)"
        )


def _result(
    topology_ports,
    network,
    collector: FctCollector,
    manifest: Optional[RunManifest] = None,
) -> ExperimentResult:
    marks = instant = persistent = drops = 0
    for port in topology_ports:
        stats = port.aqm.stats
        marks += stats.marks
        instant += stats.instant_marks
        persistent += stats.persistent_marks
        drops += port.stats.dropped_total
    if manifest is not None:
        manifest.events = network.sim.events_processed
        manifest.scheduler = network.sim.scheduler
    return ExperimentResult(
        summary=collector.summary(),
        collector=collector,
        marks=marks,
        instant_marks=instant,
        persistent_marks=persistent,
        drops=drops,
        timeouts=collector.total_timeouts(),
        sim_duration=network.sim.now,
        events=network.sim.events_processed,
        manifest=manifest,
    )


def run_star_fct(
    aqm_factory: AqmFactory,
    workload: EmpiricalCdf,
    load: float,
    n_flows: int,
    seed: int,
    n_senders: int = 7,
    variation: float = 3.0,
    rtt_min: float = us(70),
    link_rate_bps: float = gbps(10),
    link_delay: float = us(2),
    buffer_bytes: int = mb(2),
    transport: TransportConfig = TransportConfig(),
    rtt_shape: str = "testbed",
) -> ExperimentResult:
    """One testbed-style run: Poisson flows from N senders to one receiver
    through a single switch running the AQM under test.

    The identical ``seed`` produces the identical arrival process across
    schemes, so normalized FCT comparisons are paired (lower variance than
    independent sampling -- the paper averages three runs instead).
    """
    wall_start = perf_counter()
    with maybe_span("setup", kind="engine"):
        topo = build_star(
            n_senders=n_senders,
            link_rate_bps=link_rate_bps,
            link_delay=link_delay,
            buffer_bytes=buffer_bytes,
            aqm_factory=aqm_factory,
        )
        manifest = RunManifest.collect(
            "run_star_fct",
            seed=seed,
            scheme=type(topo.switch.ports[0].aqm).__name__,
            load=load,
            n_flows=n_flows,
            n_senders=n_senders,
            variation=variation,
            rtt_min=rtt_min,
            link_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            rtt_shape=rtt_shape,
        )
        rng = np.random.default_rng(seed)
        factory = PacketFactory()
        collector = FctCollector()
        profile = RttProfile.from_variation(rtt_min, variation, shape=rtt_shape)
        generator = PoissonTrafficGenerator(
            network=topo.network,
            factory=factory,
            pair_picker=star_pair_picker(topo.senders, topo.receiver),
            workload=workload,
            load=load,
            capacity_bps=link_rate_bps,
            n_flows=n_flows,
            rng=rng,
            rtt_profile=profile,
            network_rtt=estimate_star_network_rtt(link_rate_bps, link_delay),
            delay_stage_of=topo.stage_for,
            transport=transport,
            on_flow_complete=collector.record,
        )
        generator.start()
    with maybe_span("drain", kind="engine", clock=topo.network.sim):
        _drain(topo.network, collector, n_flows)
    manifest.wall_seconds = perf_counter() - wall_start
    switch_ports = list(topo.switch.ports)
    return _result(switch_ports, topo.network, collector, manifest=manifest)


def pool_results(
    results: Sequence[Union[ExperimentResult, RunFailure]],
) -> Union[ExperimentResult, FailedCell]:
    """Merge independent runs of the same configuration (different seeds)
    into one result, pooling flow records -- the reproduction's equivalent
    of the paper's average-of-three-runs methodology.

    Failure isolation: :class:`RunFailure` entries (from the executor's
    fault-tolerance layer) are pooled *around*.  The surviving seeds merge
    exactly as if the dead ones had never been requested, and the failure
    records ride along on the pooled result's ``failures`` list.  A cell
    with no survivors degrades to a :class:`FailedCell`, which renders as
    gaps downstream instead of crashing the figure."""
    if not results:
        raise ValueError("need at least one result to pool")
    failures = [r for r in results if isinstance(r, RunFailure)]
    usable = [r for r in results if not isinstance(r, RunFailure)]
    if not usable:
        return FailedCell(failures)
    merged = FctCollector()
    for result in usable:
        merged.records.extend(result.collector.records)
    return ExperimentResult(
        summary=merged.summary(),
        collector=merged,
        marks=sum(r.marks for r in usable),
        instant_marks=sum(r.instant_marks for r in usable),
        persistent_marks=sum(r.persistent_marks for r in usable),
        drops=sum(r.drops for r in usable),
        timeouts=sum(r.timeouts for r in usable),
        sim_duration=max(r.sim_duration for r in usable),
        events=sum(r.events for r in usable),
        manifest=_pooled_manifest(usable),
        failures=failures,
    )


def _pooled_manifest(results: Sequence[ExperimentResult]) -> Optional[RunManifest]:
    """A manifest for the pool: the first run's configuration, with the
    seed list and the *summed* wall time and event count of all members."""
    first = results[0].manifest
    if first is None:
        return None
    walls = [
        r.manifest.wall_seconds
        for r in results
        if r.manifest is not None and r.manifest.wall_seconds is not None
    ]
    seeds = [r.manifest.seed for r in results if r.manifest is not None]
    return replace(
        first,
        params={**first.params, "n_seeds": len(results), "seeds": seeds},
        wall_seconds=sum(walls) if walls else None,
        events=sum(r.events for r in results),
    )


def run_leafspine_fct(
    aqm_factory: AqmFactory,
    workload: EmpiricalCdf,
    load: float,
    n_flows: int,
    seed: int,
    dims: Tuple[int, int, int] = (4, 4, 4),
    variation: float = 3.0,
    rtt_min: float = us(80),
    link_rate_bps: float = gbps(10),
    buffer_bytes: int = mb(1),
    transport: TransportConfig = TransportConfig(),
    rtt_shape: str = "fabric",
    oversubscription: float = 1.0,
) -> ExperimentResult:
    """One large-scale run: any-to-any Poisson traffic over a leaf-spine
    fabric with ECMP (Section 5.3's setup, possibly reduced dims).

    ``oversubscription`` derates the leaf-spine uplinks (see
    :func:`~repro.topology.leafspine.build_leafspine`); 1.0 is the paper's
    non-blocking fabric.
    """
    spines, leaves, hosts_per_leaf = dims
    wall_start = perf_counter()
    with maybe_span("setup", kind="engine"):
        topo = build_leafspine(
            n_spines=spines,
            n_leaves=leaves,
            hosts_per_leaf=hosts_per_leaf,
            link_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            aqm_factory=aqm_factory,
            oversubscription=oversubscription,
        )
        manifest = RunManifest.collect(
            "run_leafspine_fct",
            seed=seed,
            scheme=type(topo.spines[0].ports[0].aqm).__name__,
            load=load,
            n_flows=n_flows,
            dims=dims,
            variation=variation,
            rtt_min=rtt_min,
            link_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            rtt_shape=rtt_shape,
            oversubscription=oversubscription,
        )
        rng = np.random.default_rng(seed)
        factory = PacketFactory()
        collector = FctCollector()
        profile = RttProfile.from_variation(rtt_min, variation, shape=rtt_shape)
        generator = PoissonTrafficGenerator(
            network=topo.network,
            factory=factory,
            pair_picker=any_to_any_pair_picker(topo.hosts),
            workload=workload,
            load=load,
            capacity_bps=link_rate_bps * len(topo.hosts),
            n_flows=n_flows,
            rng=rng,
            rtt_profile=profile,
            network_rtt=estimate_star_network_rtt(link_rate_bps, us(2)) * 2.0,
            delay_stage_of=topo.stage_for,
            transport=transport,
            on_flow_complete=collector.record,
        )
        generator.start()
    with maybe_span("drain", kind="engine", clock=topo.network.sim):
        _drain(topo.network, collector, n_flows)
    manifest.wall_seconds = perf_counter() - wall_start
    fabric_ports = [
        port for switch in (topo.spines + topo.leaves) for port in switch.ports
    ]
    return _result(fabric_ports, topo.network, collector, manifest=manifest)
