"""Discrete-time flow-level (fluid) simulator of DCTCP over an AQM fabric.

Instead of dispatching per-packet events, the fluid engine advances a fixed
time step ``dt`` and updates *rates*: every flow injects at its
window-determined rate ``cwnd * MSS * 8 / RTT`` (capped by its access
link), port queues integrate the excess of aggregate arrival rate over
capacity, and the analytic marker banks of :mod:`repro.fluid.marking`
convert each port's sojourn time into a marking fraction.  Congestion
windows follow the DCTCP fluid equations on a per-RTT cadence:

* ``F`` = fraction of the last window's packets marked,
* ``alpha = (1 - g) * alpha + g * F`` with ``g = 1/16``,
* marked RTT: exit slow start and ``cwnd *= 1 - alpha / 2``,
* clean RTT: ``cwnd *= 2`` in slow start, else ``cwnd += 1``.

Self-clocking is implicit: the RTT used for a flow's rate includes the
current sojourn of every port on its path, so growing queues throttle
injection exactly as ACK clocking does in the packet engine.

Cost: a step touches only the *active* flows (arrived, unfinished) and the
*live* ports (on an active flow's path, or still holding backlog), so it
costs a fixed number of small numpy calls -- 37 when nothing marks, no
window is due and no flow starts or finishes, 85 when a port marks --
plus work proportional to those two sets, not to the population or the
fabric.  The index arrays, the per-set constants and the active flows'
state (compact rows in active-set order) are rebuilt only when a flow
starts or finishes.  That is what buys the 100x-plus speedup over
per-packet simulation at 1000+ hosts.  ``tests/fluid_reference.py`` keeps
the loop that visits everything as the oracle; the two must agree bit for
bit, which constrains how the arithmetic below may be rearranged
(DESIGN.md section 11.4).

Determinism: the engine draws no randomness at all -- the flow population
carries every sampled quantity -- and the step count is a pure function of
the input, so identical specs produce bit-identical results across
processes and cache replays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf
from typing import List, Optional, Tuple

import numpy as np

from ..sim.units import MSS, MTU, us
from .marking import MarkerBank
from .population import FlowPopulation

__all__ = ["FluidFabric", "FluidRunResult", "FluidEngine", "choose_dt"]

DCTCP_G = 1.0 / 16.0
CWND_CAP_PKTS = 10_000.0
MAX_FLUID_STEPS = 5_000_000
_EPS = 1e-12


def choose_dt(rtt_min: float) -> float:
    """The fluid step size: an eighth of the smallest base RTT, clamped to
    [1 us, 20 us].  Deterministic in the spec, so cache replays agree."""
    return float(min(max(rtt_min / 8.0, us(1)), us(20)))


def _admit(arrivals, order, arrived, act, t):
    """Start every flow that has arrived by ``t``: the new count of started
    flows and the active set with them merged in, still ascending."""
    upto = bisect_right(arrivals, t, arrived)
    return upto, np.sort(np.concatenate((act, order[arrived:upto])))


def _bank_sum(layout: np.ndarray, slots: np.ndarray, values: np.ndarray) -> float:
    """Sum ``values`` where the marker bank's full array would hold them
    (``layout`` is zero elsewhere): numpy's pairwise sum depends on where
    the terms sit, so summing the short array could differ in the last
    bit from the reference's sum over every AQM port."""
    layout[slots] = values
    return float(layout.sum())


@dataclass
class FluidFabric:
    """The static port-level description of a fluid topology.

    ``paths`` maps each flow to the ordered port indices it traverses,
    padded with ``-1`` for flows with shorter paths.  The first entry of a
    path must be the flow's access (source uplink) port -- its capacity
    caps the flow's injection rate.
    """

    capacity_bps: np.ndarray      # (P,) port service rates
    buffer_bytes: np.ndarray      # (P,) port buffer limits
    marked_ports: np.ndarray      # indices of ports running the AQM
    marker: MarkerBank            # bank sized len(marked_ports)
    paths: np.ndarray             # (n_flows, K) int, -1 padded

    def __post_init__(self) -> None:
        self.capacity_bps = np.asarray(self.capacity_bps, dtype=float)
        self.buffer_bytes = np.asarray(self.buffer_bytes, dtype=float)
        self.marked_ports = np.asarray(self.marked_ports, dtype=np.int64)
        self.paths = np.asarray(self.paths, dtype=np.int64)
        n_ports = len(self.capacity_bps)
        if len(self.buffer_bytes) != n_ports:
            raise ValueError("capacity_bps and buffer_bytes must be the same length")
        if not ((self.capacity_bps > 0).all() and (self.buffer_bytes > 0).all()):
            raise ValueError("capacity_bps and buffer_bytes must be positive")
        if self.marker.n_ports != len(self.marked_ports):
            raise ValueError("marker bank size must match marked_ports")
        if ((self.marked_ports < 0) | (self.marked_ports >= n_ports)).any():
            raise ValueError("marked_ports must be port indices below n_ports")
        if len(np.unique(self.marked_ports)) != len(self.marked_ports):
            raise ValueError("marked_ports must not repeat a port")
        if self.paths.ndim != 2:
            raise ValueError("paths must be a 2-D array")
        if ((self.paths < -1) | (self.paths >= n_ports)).any():
            raise ValueError(
                "path entries must be -1 (padding) or port indices below n_ports"
            )
        if (self.paths[:, 0] < 0).any():
            raise ValueError("every flow needs an access port")


@dataclass
class FluidRunResult:
    """Everything the runners need to shape fluid output like packet output."""

    finish: np.ndarray            # completion time per flow (nan if unfinished)
    fct: np.ndarray               # flow completion time (nan if unfinished)
    completed: np.ndarray         # bool per flow
    marks: float                  # packet-equivalent CE marks (fractional)
    instant_marks: float
    persistent_marks: float
    drops: float                  # packet-equivalent buffer overflows
    steps: int
    duration: float               # simulated end time
    queue_samples: List[Tuple[float, float]] = field(default_factory=list)
    """(time, queue packets) samples of the designated port, if requested."""


class FluidEngine:
    """Steps a :class:`FlowPopulation` over a :class:`FluidFabric`."""

    def __init__(
        self,
        population: FlowPopulation,
        fabric: FluidFabric,
        init_cwnd: float = 10.0,
        dt: Optional[float] = None,
        max_steps: int = MAX_FLUID_STEPS,
    ) -> None:
        if len(population) != fabric.paths.shape[0]:
            raise ValueError("population and fabric paths disagree on flow count")
        self.population = population
        self.fabric = fabric
        self.dt = float(dt) if dt is not None else choose_dt(float(population.base_rtt.min()))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.max_steps = max_steps

        n = len(population)
        p = len(fabric.capacity_bps)
        self._access = fabric.capacity_bps[fabric.paths[:, 0]]

        # Per-flow transport state: the float rows of one block, so that a
        # run gathers (and writes back) the active flows' state in one call.
        self._state = np.zeros((6, n))
        (self.cwnd, self.alpha, self.remaining, self.next_update,
         self._sent_window,     # packets injected this RTT epoch
         self._marked_window,   # marked packets this RTT epoch
         ) = self._state
        self.cwnd[:] = float(init_cwnd)
        self.alpha[:] = 1.0  # DCTCP's init_alpha=1: conservative first cut
        self.remaining[:] = population.size
        self.next_update[:] = population.start + population.base_rtt
        self.slow_start = np.ones(n, dtype=bool)

        # Per-port state.
        self.queue = np.zeros(p)            # bytes

        # Outputs.
        self.finish = np.full(n, np.nan)
        self.fct = np.full(n, np.nan)
        self.marks = 0.0
        self.instant_marks = 0.0
        self.persistent_marks = 0.0
        self.drops = 0.0
        self.steps = 0

    # ------------------------------------------------------------------ run

    def run(
        self,
        end_time: Optional[float] = None,
        sample_port: Optional[int] = None,
        sample_interval: Optional[float] = None,
        sample_start: float = 0.0,
        sample_end: Optional[float] = None,
    ) -> FluidRunResult:
        """Advance until every flow completes (or until ``end_time``).

        When ``sample_port`` is set, the port's queue occupancy (packets)
        is recorded every ``sample_interval`` seconds inside
        ``[sample_start, sample_end]`` -- the fluid analogue of fig10's
        queue monitor.
        """
        if sample_port is not None:
            if sample_interval is None:
                raise ValueError("sample_port requires sample_interval")
            if sample_interval <= 0:
                raise ValueError("sampling interval must be positive")
        pop = self.population
        fabric = self.fabric
        marker = fabric.marker
        dt = self.dt
        mss_bits = MSS * 8.0
        capacity = fabric.capacity_bps
        buffers = fabric.buffer_bytes
        paths = fabric.paths
        width = paths.shape[1]
        n_ports = len(capacity)
        queue = self.queue
        state = self._state
        queue_samples: List[Tuple[float, float]] = []

        # Flows with bytes left, in start order.  ``order[:arrived]`` have
        # started; the trailing inf means "no further arrival".
        order = np.argsort(pop.start, kind="stable")
        order = order[self.remaining[order] > _EPS]
        arrivals = pop.start[order].tolist() + [inf]
        arrived = 0
        unfinished = len(order)

        # The two sets a step works on, both kept in ascending index order
        # (bincount and the drop sum accumulate in input order).  Every port
        # starts live; the first rebuild keeps those with backlog.
        act = np.empty(0, dtype=np.int64)
        live = np.arange(n_ports)
        stale = True
        clamped = False

        # The active flows' state in ``act`` order, gathered from ``state``
        # and ``self.slow_start`` for the set ``held`` and written back there
        # when the set changes and when the run ends.  In between, a step
        # reads and writes only these compact rows.
        held = act
        block = state[:, held]
        slow_start = self.slow_start[held]
        next_due = inf      # the earliest next_update among the active flows

        # Rebuild scratch.  Index n_ports stands for the -1 path padding.
        slot_of = np.full(n_ports, -1, dtype=np.int64)  # port -> bank slot
        slot_of[fabric.marked_ports] = np.arange(marker.n_ports)
        member = np.zeros(n_ports + 1, dtype=bool)
        local = np.zeros(n_ports + 1, dtype=np.int64)   # port -> index in live
        slots = np.empty(0, dtype=np.int64)
        bank_layout = np.zeros(marker.n_ports)

        t = 0.0
        next_sample = sample_start
        try:
            while True:
                if end_time is not None and t >= end_time:
                    break
                if not unfinished:
                    break
                if arrivals[arrived] <= t:
                    arrived, act = _admit(arrivals, order, arrived, act, t)
                    stale = True
                if not len(act) and float(queue.sum()) <= 1.0:
                    # Idle gap: jump straight to the next arrival (no queue to
                    # drain, nothing in flight, marker state already reset).
                    t = arrivals[arrived]
                    if end_time is not None and t >= end_time:
                        break
                    arrived, act = _admit(arrivals, order, arrived, act, t)
                    stale = True
                if self.steps >= self.max_steps:
                    raise RuntimeError(
                        f"fluid step budget exceeded ({self.max_steps} steps at t={t:.6f}s)"
                    )
                self.steps += 1

                if stale:
                    # --- a flow started or finished: new sets, new constants
                    stale = False
                    state[:, held] = block
                    self.slow_start[held] = slow_start
                    held = act
                    block = state[:, act]
                    slow_start = self.slow_start[act]
                    cwnd, _, remaining, next_update, sent_window, marked_window = block
                    next_due = float(next_update.min()) if len(act) else inf
                    act_paths = paths[act]
                    member[act_paths] = True
                    member[live[queue[live] > 0.0]] = True
                    member[n_ports] = False
                    drained = live[~member[live]]
                    if len(drained):
                        gone = slot_of[drained]
                        marker.forget(gone[gone >= 0])
                    live = np.flatnonzero(member)
                    member[live] = False
                    n_live = len(live)
                    local[live] = np.arange(n_live)
                    local[n_ports] = n_live     # padding reads soj_pad's last 0.0
                    hops = local[act_paths]     # (active flows, width)
                    hop_port = hops.ravel()
                    hop_flow = np.repeat(np.arange(len(act)), width)
                    base_rtt = pop.base_rtt[act]
                    access = self._access[act]
                    cap = capacity[live]
                    cap_dt = cap * dt
                    buf = buffers[live]
                    bank_layout[slots] = 0.0
                    slot = slot_of[live]
                    aqm = np.flatnonzero(slot >= 0)     # live ports with a marker
                    slots = slot[aqm]                   # ...and their bank slots
                    soj_pad = np.zeros(n_live + 1)
                    sojourn = soj_pad[:n_live]

                # --- rates: window/RTT, capped by the access link ---------
                q = queue[live]
                q_bits = q * 8.0
                np.divide(q_bits, cap, out=sojourn)
                rtt = base_rtt + soj_pad[hops].sum(axis=1)
                rate = np.minimum(cwnd * mss_bits / rtt, access)

                # --- queues: integrate excess arrival rate ----------------
                arrival = np.bincount(
                    hop_port, weights=rate[hop_flow], minlength=n_live + 1
                )[:n_live]
                serviced_bytes = np.minimum(arrival * dt, cap_dt + q_bits) / 8.0
                q += (arrival - cap) * dt / 8.0
                np.maximum(q, 0.0, out=q)
                over = q > buf
                spilled = np.count_nonzero(over)
                if spilled:
                    full = buf[over]
                    self.drops += float((q[over] - full).sum()) / MTU
                    q[over] = full
                queue[live] = q

                # --- marking ----------------------------------------------
                pkts = serviced_bytes / MSS
                marked_pkts = pkts[aqm]
                step_marks = marker.step(slots, sojourn[aqm], t, dt, marked_pkts)
                marking = step_marks is not None and np.count_nonzero(
                    step_marks.fraction)
                if marking:
                    self.marks += _bank_sum(
                        bank_layout, slots, marked_pkts * step_marks.fraction)
                    self.instant_marks += _bank_sum(
                        bank_layout, slots, marked_pkts * step_marks.instant)
                    self.persistent_marks += _bank_sum(
                        bank_layout, slots, marked_pkts * step_marks.persistent)

                # --- per-flow delivery and DCTCP window accounting --------
                delivered = rate * dt / 8.0
                sent_pkts = delivered / MSS
                sent_window += sent_pkts
                if marking or spilled:
                    frac = np.zeros(n_live + 1)
                    if marking:
                        frac[aqm] = step_marks.fraction
                    # A full buffer is loss feedback: treat the step's traffic
                    # through an overflowing port as marked so senders back off.
                    if spilled:
                        frac[:n_live][over] = 1.0
                    flow_marked = 1.0 - (1.0 - frac[hops]).prod(axis=1)
                    marked_window += sent_pkts * flow_marked
                left = remaining - delivered
                finishing = left <= _EPS
                n_done = np.count_nonzero(finishing)
                if n_done:
                    done = act[finishing]
                    fraction_of_step = (
                        remaining[finishing] / np.maximum(delivered[finishing], _EPS))
                    done_at = t + np.clip(fraction_of_step, 0.0, 1.0) * dt
                    self.finish[done] = done_at
                    # The fluid injection rate cwnd/RTT already spreads each
                    # window over one RTT, but the *last* window's ACK wait is
                    # real wall time the rate model doesn't cover: the final
                    # ACK returns one RTT after the last byte is clocked out.
                    self.fct[done] = done_at - pop.start[done] + rtt[finishing]
                    left[finishing] = 0.0
                    unfinished -= n_done
                remaining[:] = left

                if t >= next_due:
                    due = t >= next_update
                    if n_done:
                        due &= ~finishing
                    updating = due.nonzero()[0]
                    if len(updating):
                        update = block.take(updating, axis=1)
                        window, alpha, _, _, epoch_sent, epoch_marked = update
                        observed = epoch_marked / np.maximum(epoch_sent, _EPS)
                        observed[epoch_sent <= _EPS] = 0.0
                        alpha = (1.0 - DCTCP_G) * alpha + DCTCP_G * observed
                        marked_rtt = epoch_marked > 1e-9
                        still_slow = slow_start[updating] & ~marked_rtt
                        slow_start[updating] = still_slow
                        window = np.where(
                            marked_rtt,
                            window * (1.0 - alpha / 2.0),
                            np.where(still_slow, window * 2.0, window + 1.0),
                        )
                        if not clamped:
                            # The reference clamps every window, due or not, so
                            # the first update also pulls an out-of-range
                            # init_cwnd of flows yet to start into range; later
                            # ones find it so.  (The active flows' entries of
                            # ``self.cwnd`` are stale until the write-back.)
                            np.clip(self.cwnd, 1.0, CWND_CAP_PKTS, out=self.cwnd)
                            np.clip(cwnd, 1.0, CWND_CAP_PKTS, out=cwnd)
                            clamped = True
                        update[0] = np.minimum(np.maximum(window, 1.0), CWND_CAP_PKTS)
                        update[1] = alpha
                        update[3] = t + rtt[updating]
                        update[4:] = 0.0            # a new epoch's windows
                        block[:, updating] = update
                        next_due = float(next_update.min())

                if n_done:
                    act = act[~finishing]
                    stale = True

                # --- queue sampling ---------------------------------------
                if sample_port is not None:
                    while next_sample <= t and (
                        sample_end is None or next_sample <= sample_end
                    ):
                        queue_samples.append(
                            (next_sample, float(queue[sample_port]) / MTU)
                        )
                        next_sample += float(sample_interval)

                t += dt
        finally:
            state[:, held] = block
            self.slow_start[held] = slow_start

        completed = self.remaining <= _EPS
        finished = self.finish[np.isfinite(self.finish)]
        duration = float(finished.max()) if finished.size else t
        if end_time is not None:
            duration = max(duration, min(t, end_time))
        return FluidRunResult(
            finish=self.finish,
            fct=self.fct,
            completed=completed,
            marks=self.marks,
            instant_marks=self.instant_marks,
            persistent_marks=self.persistent_marks,
            drops=self.drops,
            steps=self.steps,
            duration=duration,
            queue_samples=queue_samples,
        )
