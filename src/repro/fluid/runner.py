"""Fluid-fidelity runners mirroring the packet runners' contracts.

Each ``run_fluid_*`` function accepts the same experiment parameters as its
packet twin in :mod:`repro.experiments.runner` / ``figures.fig10`` (taking
an :class:`~repro.experiments.specs.AqmSpec` instead of a built AQM -- the
fluid model needs the scheme's *parameters*, not a packet-marking object)
and returns the same result shape (:class:`ExperimentResult` with a
populated :class:`FctCollector`, or :class:`MicroscopicRun`), so figures,
validation grids, campaign stores and the cache treat both fidelities
identically.

Fidelity caveats (see DESIGN.md section 11 for the certified domain):

* no retransmission timers -- ``timeouts`` is always 0; losses feed back as
  full marking on the overflowing port's traffic instead;
* marks/drops are packet-equivalent *rates* integrated over time, rounded
  to integers at the end;
* sub-RTT burst dynamics are smoothed over the fluid step, so incast onset
  at packet granularity (fig11) is outside the certified domain.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from ..experiments.fct import FctCollector, FlowRecord
from ..experiments.runner import estimate_star_network_rtt, ExperimentResult
from ..experiments.specs import AqmSpec
from ..netem.profiles import RttProfile
from ..sim.units import gbps, mb, ms, us
from ..telemetry.provenance import RunManifest
from ..telemetry.runtime import get_active
from ..telemetry.spans import maybe_span
from ..topology.star import HOST_QDISC_BYTES
from ..workloads.arrivals import TransportConfig
from ..workloads.distributions import EmpiricalCdf
from ..workloads.incast import QUERY_MAX_BYTES, QUERY_MIN_BYTES
from .engine import FluidEngine, FluidFabric, FluidRunResult, choose_dt
from .marking import build_marker_bank
from .population import FlowPopulation, leafspine_population, star_population

__all__ = [
    "run_fluid_star_fct",
    "run_fluid_leafspine_fct",
    "run_fluid_microscopic",
]


def _require_dctcp(transport: TransportConfig) -> None:
    if transport.cc != "dctcp":
        raise ValueError(
            f"fluid fidelity models DCTCP only (transport.cc={transport.cc!r}); "
            "run this spec at packet fidelity"
        )


def _notify(kind: str, result: FluidRunResult, flows: int, wall: float) -> None:
    telemetry = get_active()
    if telemetry is not None:
        telemetry.on_fluid_run(
            kind=kind,
            steps=result.steps,
            flows=flows,
            sim_duration=result.duration,
            wall_seconds=wall,
        )


def _collector_from(
    population: FlowPopulation, result: FluidRunResult
) -> FctCollector:
    collector = FctCollector()
    for index in np.flatnonzero(result.completed):
        collector.records.append(
            FlowRecord(
                flow_id=int(index),
                size_bytes=int(population.size[index]),
                fct=float(result.fct[index]),
                start_time=float(population.start[index]),
                timeouts=0,
                retransmissions=0,
            )
        )
    return collector


def _experiment_result(
    population: FlowPopulation,
    result: FluidRunResult,
    manifest: RunManifest,
) -> ExperimentResult:
    collector = _collector_from(population, result)
    if len(collector) < len(population):
        raise RuntimeError(
            f"only {len(collector)}/{len(population)} flows completed; "
            "fluid run truncated (check step budget / buffer settings)"
        )
    manifest.events = result.steps
    return ExperimentResult(
        summary=collector.summary(),
        collector=collector,
        marks=int(round(result.marks)),
        instant_marks=int(round(result.instant_marks)),
        persistent_marks=int(round(result.persistent_marks)),
        drops=int(round(result.drops)),
        timeouts=0,
        sim_duration=result.duration,
        events=result.steps,
        manifest=manifest,
    )


def run_fluid_star_fct(
    aqm: AqmSpec,
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
    """Fluid twin of :func:`~repro.experiments.runner.run_star_fct`.

    Same seed => the identical flow population (arrival times, sizes,
    senders, base RTTs) the packet run would generate.
    """
    _require_dctcp(transport)
    wall_start = perf_counter()
    with maybe_span("setup", kind="engine"):
        rng = np.random.default_rng(seed)
        profile = RttProfile.from_variation(rtt_min, variation, shape=rtt_shape)
        network_rtt = estimate_star_network_rtt(link_rate_bps, link_delay)
        population = star_population(
            workload, load, link_rate_bps, n_flows, rng,
            n_senders, profile, network_rtt,
        )
        manifest = RunManifest.collect(
            "run_fluid_star_fct",
            seed=seed,
            scheme=aqm.kind,
            load=load,
            n_flows=n_flows,
            n_senders=n_senders,
            variation=variation,
            rtt_min=rtt_min,
            link_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            rtt_shape=rtt_shape,
            fidelity="fluid",
        )
        # Ports 0..n_senders-1: sender NICs (deep qdisc, unmarked);
        # port n_senders: the switch-to-receiver bottleneck with the AQM.
        bottleneck = n_senders
        capacity = np.full(n_senders + 1, float(link_rate_bps))
        buffers = np.full(n_senders + 1, float(HOST_QDISC_BYTES))
        buffers[bottleneck] = float(buffer_bytes)
        fabric = FluidFabric(
            capacity_bps=capacity,
            buffer_bytes=buffers,
            marked_ports=np.array([bottleneck]),
            marker=build_marker_bank(aqm.kind, dict(aqm.params), 1),
            paths=np.column_stack(
                [population.src, np.full(n_flows, bottleneck, dtype=np.int64)]
            ),
        )
        engine = FluidEngine(
            population, fabric,
            init_cwnd=transport.init_cwnd, dt=choose_dt(rtt_min),
        )
    with maybe_span("fluid", kind="engine"):
        result = engine.run()
    wall = perf_counter() - wall_start
    manifest.wall_seconds = wall
    _notify("star", result, n_flows, wall)
    return _experiment_result(population, result, manifest)


def run_fluid_leafspine_fct(
    aqm: AqmSpec,
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
    """Fluid twin of :func:`~repro.experiments.runner.run_leafspine_fct`.

    The fabric's equal-cost spine paths are aggregated into one uplink and
    one downlink *trunk* per leaf (capacity ``n_spines`` ports' worth),
    which is exactly the mean-field limit of per-flow ECMP.
    """
    _require_dctcp(transport)
    spines, leaves, hosts_per_leaf = dims
    n_hosts = leaves * hosts_per_leaf
    wall_start = perf_counter()
    with maybe_span("setup", kind="engine"):
        rng = np.random.default_rng(seed)
        profile = RttProfile.from_variation(rtt_min, variation, shape=rtt_shape)
        network_rtt = estimate_star_network_rtt(link_rate_bps, us(2)) * 2.0
        population = leafspine_population(
            workload, load, link_rate_bps * n_hosts, n_flows, rng,
            n_hosts, profile, network_rtt,
        )
        manifest = RunManifest.collect(
            "run_fluid_leafspine_fct",
            seed=seed,
            scheme=aqm.kind,
            load=load,
            n_flows=n_flows,
            dims=dims,
            variation=variation,
            rtt_min=rtt_min,
            link_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            rtt_shape=rtt_shape,
            oversubscription=oversubscription,
            fidelity="fluid",
        )
        # Port layout: [0, H) host NICs; [H, 2H) leaf->host downlinks;
        # [2H, 2H+L) leaf->spine uplink trunks; [2H+L, 2H+2L) spine->leaf
        # downlink trunks.  AQM on every switch egress, as in the fabric.
        trunk_rate = spines * link_rate_bps / oversubscription
        trunk_buffer = spines * float(buffer_bytes)
        capacity = np.concatenate([
            np.full(n_hosts, float(link_rate_bps)),        # NICs
            np.full(n_hosts, float(link_rate_bps)),        # downlinks
            np.full(2 * leaves, trunk_rate),               # trunks
        ])
        buffers = np.concatenate([
            np.full(n_hosts, float(HOST_QDISC_BYTES)),
            np.full(n_hosts, float(buffer_bytes)),
            np.full(2 * leaves, trunk_buffer),
        ])
        marked = np.arange(n_hosts, 2 * n_hosts + 2 * leaves)
        src_leaf = population.src // hosts_per_leaf
        dst_leaf = population.dst // hosts_per_leaf
        inter = src_leaf != dst_leaf
        up_trunk = np.where(inter, 2 * n_hosts + src_leaf, -1)
        down_trunk = np.where(inter, 2 * n_hosts + leaves + dst_leaf, -1)
        paths = np.column_stack([
            population.src,                 # access NIC
            up_trunk,
            down_trunk,
            n_hosts + population.dst,       # last-hop downlink
        ])
        fabric = FluidFabric(
            capacity_bps=capacity,
            buffer_bytes=buffers,
            marked_ports=marked,
            marker=build_marker_bank(aqm.kind, dict(aqm.params), len(marked)),
            paths=paths,
        )
        engine = FluidEngine(
            population, fabric,
            init_cwnd=transport.init_cwnd, dt=choose_dt(rtt_min),
        )
    with maybe_span("fluid", kind="engine"):
        result = engine.run()
    wall = perf_counter() - wall_start
    manifest.wall_seconds = wall
    _notify("leafspine", result, n_flows, wall)
    return _experiment_result(population, result, manifest)


def run_fluid_microscopic(
    aqm: AqmSpec,
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
):
    """Fluid twin of ``figures.fig10.run_microscopic``: long background
    flows building the standing queue, then a query burst at
    ``burst_time``.  ``query_timeouts`` is always 0 (no RTOs in the fluid
    model); burst overload shows up in ``drops`` instead.
    """
    from ..experiments.figures.fig10 import MicroscopicRun, _best_window_average

    n_senders = 16  # build_incast's rig
    link_rate_bps = gbps(10)
    wall_start = perf_counter()
    with maybe_span("setup", kind="engine"):
        rng = np.random.default_rng(seed)
        profile = RttProfile.from_variation(rtt_min, variation)
        network_rtt = estimate_star_network_rtt()
        # Replays fig10's exact draw order: one base RTT per background
        # flow, then (size, jitter offset) per query worker.
        n = n_background + fanout
        start = np.zeros(n)
        size = np.empty(n)
        base_rtt = np.empty(n)
        src = np.empty(n, dtype=np.int64)
        for index in range(n_background):
            size[index] = background_bytes
            src[index] = index
            base_rtt[index] = max(profile.sample_one(rng), network_rtt)
        for worker in range(fanout):
            index = n_background + worker
            src[index] = worker % n_senders
            size[index] = int(rng.integers(QUERY_MIN_BYTES, QUERY_MAX_BYTES + 1))
            offset = float(rng.uniform(0.0, jitter)) if jitter > 0 else 0.0
            start[index] = burst_time + offset
            base_rtt[index] = network_rtt
        bottleneck = n_senders
        population = FlowPopulation(
            start=start,
            size=size,
            base_rtt=base_rtt,
            src=src,
            dst=np.full(n, bottleneck, dtype=np.int64),
        )
        capacity = np.full(n_senders + 1, float(link_rate_bps))
        buffers = np.full(n_senders + 1, float(HOST_QDISC_BYTES))
        buffers[bottleneck] = float(mb(1))
        fabric = FluidFabric(
            capacity_bps=capacity,
            buffer_bytes=buffers,
            marked_ports=np.array([bottleneck]),
            marker=build_marker_bank(aqm.kind, dict(aqm.params), 1),
            paths=np.column_stack(
                [src, np.full(n, bottleneck, dtype=np.int64)]
            ),
        )
        # dt follows the configured rtt_min (the paper's RTT-group floor),
        # not the queries' bare network RTT: during the burst, query RTTs
        # are sojourn-dominated, so the coarser step still resolves them.
        engine = FluidEngine(population, fabric, init_cwnd=init_cwnd, dt=choose_dt(rtt_min))
    with maybe_span("fluid", kind="engine"):
        result = engine.run(
            end_time=end_time,
            sample_port=bottleneck,
            sample_interval=sample_interval,
            sample_start=warmup,
            sample_end=end_time,
        )
    wall = perf_counter() - wall_start
    _notify("microscopic", result, n, wall)

    pre_burst = [(t, p) for t, p in result.queue_samples if t < burst_time]
    standing = float(np.mean([p for _, p in pre_burst])) if pre_burst else 0.0
    floor = _best_window_average(pre_burst, window=ms(5))
    peak = max((p for _, p in result.queue_samples), default=0.0)
    query_slice = slice(n_background, n)
    query_done = result.completed[query_slice]
    query_fcts = [
        float(f) for f in result.fct[query_slice][query_done]
    ]
    times = [t for t, _ in result.queue_samples]
    packets = [int(round(p)) for _, p in result.queue_samples]
    return MicroscopicRun(
        scheme=scheme_name,
        samples=(times, packets),
        standing_queue_pkts=standing,
        floor_queue_pkts=floor,
        peak_queue_pkts=int(round(peak)),
        drops=int(round(result.drops)),
        marks=int(round(result.marks)),
        query_fcts=query_fcts,
        query_timeouts=0,
        queries_completed=int(query_done.sum()),
        events=result.steps,
    )
