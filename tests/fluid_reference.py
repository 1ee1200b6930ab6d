"""Reference implementation of the fluid engine that tests compare against.

This is the stepping loop and the marker banks as they stood before the
engine learned to touch only active flows and live ports: every step runs
over *all* flows and *all* ports.  It is slow and obviously right, which is
its job -- ``tests/test_fluid.py`` requires the production engine to match
it bit for bit (the calendar queue plays the same part for the heap in
``tests/test_eventq.py``).  Nothing here is imported by ``src/``; do not
optimise it, and change its arithmetic only together with the engine's.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.fluid.engine import (
    CWND_CAP_PKTS,
    DCTCP_G,
    MAX_FLUID_STEPS,
    FluidEngine,
    FluidFabric,
    FluidRunResult,
    choose_dt,
)
from repro.fluid.marking import (
    CodelMarkerBank,
    EcnSharpMarkerBank,
    MarkerBank,
    StepMarkerBank,
    StepMarks,
)
from repro.fluid.population import FlowPopulation
from repro.sim.units import MSS, MTU

_EPS = 1e-12


class DenseMarkerBank:
    """Base class: one AQM marking state machine per port, vectorized."""

    def __init__(self, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError("need at least one port")
        self.n_ports = n_ports

    def step(
        self, sojourn: np.ndarray, now: float, dt: float, pkts: np.ndarray
    ) -> StepMarks:
        """Marking fractions for the interval ``[now, now + dt)``.

        ``sojourn`` is each port's current queueing delay (seconds) and
        ``pkts`` the packet-equivalents that traverse each port during the
        step (used to turn discrete mark events into fractions).
        """
        raise NotImplementedError


class DenseStepMarkerBank(DenseMarkerBank):
    """Threshold step marking (``sojourn-red`` and ``tcn``): every packet
    whose sojourn exceeds the threshold is marked."""

    def __init__(self, threshold: float, n_ports: int) -> None:
        super().__init__(n_ports)
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold

    def step(self, sojourn, now, dt, pkts) -> StepMarks:
        fraction = np.where(sojourn > self.threshold, 1.0, 0.0)
        return StepMarks(
            fraction=fraction,
            instant=fraction,
            persistent=np.zeros_like(fraction),
        )


class _DensePersistentLaw:
    """Shared continuous-time form of the CoDel / ECN#-persistent control
    law: declare persistent buildup after ``interval`` above ``target``,
    then mark at intensity ``sqrt(count) / interval``; reset when the
    sojourn falls below ``target``."""

    def __init__(self, target: float, interval: float, n_ports: int) -> None:
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        self.target = target
        self.interval = interval
        self.first_above = np.full(n_ports, np.nan)
        self.marking = np.zeros(n_ports, dtype=bool)
        self.count = np.zeros(n_ports)

    def marks(self, sojourn: np.ndarray, now: float, dt: float) -> np.ndarray:
        """Fractional mark events per port in ``[now, now + dt)``."""
        below = sojourn < self.target
        self.first_above[below] = np.nan
        self.marking[below] = False
        self.count[below] = 0.0
        above = ~below
        fresh = above & np.isnan(self.first_above)
        self.first_above[fresh] = now
        entering = (
            above & ~self.marking
            & (now + dt - self.first_above >= self.interval)
        )
        self.marking[entering] = True
        self.count[entering] = 1.0
        marks = np.zeros_like(sojourn)
        # The first mark of an episode is discrete (Algorithm 1 marks the
        # packet that trips the detector); afterwards the shrinking
        # inter-mark gap interval/sqrt(count) becomes a rate.
        marks[entering] = 1.0
        steady = self.marking & above & ~entering
        marks[steady] = dt * np.sqrt(self.count[steady]) / self.interval
        self.count[steady] += marks[steady]
        return marks


class DenseCodelMarkerBank(DenseMarkerBank):
    """CoDel's control law in fluid time (all marks are persistent)."""

    def __init__(self, target: float, interval: float, n_ports: int) -> None:
        super().__init__(n_ports)
        self.law = _DensePersistentLaw(target, interval, n_ports)

    def step(self, sojourn, now, dt, pkts) -> StepMarks:
        marks = self.law.marks(sojourn, now, dt)
        fraction = np.clip(marks / np.maximum(pkts, _EPS), 0.0, 1.0)
        return StepMarks(
            fraction=fraction,
            instant=np.zeros_like(fraction),
            persistent=fraction,
        )


class DenseEcnSharpMarkerBank(DenseMarkerBank):
    """ECN#: instantaneous cut-off marking plus persistent marking."""

    def __init__(
        self,
        ins_target: float,
        pst_target: float,
        pst_interval: float,
        n_ports: int,
    ) -> None:
        super().__init__(n_ports)
        if ins_target <= 0:
            raise ValueError("ins_target must be positive")
        if pst_target > ins_target:
            raise ValueError("pst_target must not exceed ins_target")
        self.ins_target = ins_target
        self.law = _DensePersistentLaw(pst_target, pst_interval, n_ports)

    def step(self, sojourn, now, dt, pkts) -> StepMarks:
        instant = np.where(sojourn > self.ins_target, 1.0, 0.0)
        marks = self.law.marks(sojourn, now, dt)
        persistent = np.clip(marks / np.maximum(pkts, _EPS), 0.0, 1.0)
        # Instantaneous marking takes precedence packet-by-packet (the
        # persistent machine still observes, matching the packet AQM).
        persistent = np.where(instant >= 1.0, 0.0, persistent)
        fraction = instant + (1.0 - instant) * persistent
        return StepMarks(
            fraction=fraction, instant=instant, persistent=persistent
        )


class DenseFluidEngine:
    """The dense stepping loop: every flow and every port, every step."""

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
        self._n_ports = p
        # Flattened static path indices for per-port rate aggregation.
        flat = fabric.paths.ravel()
        self._path_valid = flat >= 0
        self._flat_paths = flat[self._path_valid]
        self._path_width = fabric.paths.shape[1]
        self._access = fabric.capacity_bps[fabric.paths[:, 0]]

        # Per-flow transport state.
        self.cwnd = np.full(n, float(init_cwnd))
        self.alpha = np.ones(n)  # DCTCP's init_alpha=1: conservative first cut
        self.slow_start = np.ones(n, dtype=bool)
        self.remaining = population.size.astype(float).copy()
        self.next_update = population.start + population.base_rtt
        self._sent_window = np.zeros(n)     # packets injected this RTT epoch
        self._marked_window = np.zeros(n)   # marked packets this RTT epoch

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
        if sample_port is not None and sample_interval is None:
            raise ValueError("sample_port requires sample_interval")
        pop = self.population
        fabric = self.fabric
        dt = self.dt
        mss_bits = MSS * 8.0
        capacity = fabric.capacity_bps
        buffers = fabric.buffer_bytes
        marked_ports = fabric.marked_ports
        paths = fabric.paths
        width = self._path_width
        queue_samples: List[Tuple[float, float]] = []

        t = 0.0
        next_sample = sample_start
        while True:
            incomplete = self.remaining > _EPS
            if end_time is not None and t >= end_time:
                break
            if not incomplete.any():
                break
            active = incomplete & (pop.start <= t)
            if not active.any() and float(self.queue.sum()) <= 1.0:
                # Idle gap: jump straight to the next arrival (no queue to
                # drain, nothing in flight, marker state resets below).
                t = float(pop.start[incomplete].min())
                if end_time is not None and t >= end_time:
                    break
                active = incomplete & (pop.start <= t)
            if self.steps >= self.max_steps:
                raise RuntimeError(
                    f"fluid step budget exceeded ({self.max_steps} steps at t={t:.6f}s)"
                )
            self.steps += 1

            # --- rates: window/RTT, capped by the access link -------------
            sojourn = self.queue * 8.0 / capacity
            soj_pad = np.append(sojourn, 0.0)
            rtt = pop.base_rtt + soj_pad[paths].sum(axis=1)
            rate = np.minimum(self.cwnd * mss_bits / rtt, self._access)
            rate = np.where(active, rate, 0.0)

            # --- queues: integrate excess arrival rate --------------------
            weights = np.repeat(rate, width)[self._path_valid]
            arrival = np.bincount(
                self._flat_paths, weights=weights, minlength=self._n_ports
            )
            serviced_bytes = np.minimum(arrival * dt, capacity * dt + self.queue * 8.0) / 8.0
            self.queue += (arrival - capacity) * dt / 8.0
            np.clip(self.queue, 0.0, None, out=self.queue)
            overflow = self.queue - buffers
            over = overflow > 0.0
            if over.any():
                self.drops += float(overflow[over].sum()) / MTU
                self.queue[over] = buffers[over]

            # --- marking --------------------------------------------------
            pkts = serviced_bytes / MSS
            step_marks = fabric.marker.step(
                sojourn[marked_ports], t, dt, pkts[marked_ports]
            )
            marked_pkts = pkts[marked_ports]
            self.marks += float((marked_pkts * step_marks.fraction).sum())
            self.instant_marks += float((marked_pkts * step_marks.instant).sum())
            self.persistent_marks += float((marked_pkts * step_marks.persistent).sum())
            frac = np.zeros(self._n_ports + 1)
            frac[marked_ports] = step_marks.fraction
            # A full buffer is loss feedback: treat the step's traffic
            # through an overflowing port as marked so senders back off.
            frac[: self._n_ports][over] = 1.0
            flow_marked = 1.0 - np.prod(1.0 - frac[paths], axis=1)

            # --- per-flow delivery and DCTCP window accounting ------------
            delivered = rate * dt / 8.0
            sent_pkts = delivered / MSS
            self._sent_window += sent_pkts
            self._marked_window += sent_pkts * flow_marked
            before = self.remaining.copy()
            self.remaining -= delivered
            finishing = active & (self.remaining <= _EPS) & (before > _EPS)
            if finishing.any():
                fraction_of_step = before[finishing] / np.maximum(delivered[finishing], _EPS)
                done_at = t + np.clip(fraction_of_step, 0.0, 1.0) * dt
                self.finish[finishing] = done_at
                # The fluid injection rate cwnd/RTT already spreads each
                # window over one RTT, but the *last* window's ACK wait is
                # real wall time the rate model doesn't cover: the final
                # ACK returns one RTT after the last byte is clocked out.
                self.fct[finishing] = (
                    done_at - pop.start[finishing] + rtt[finishing]
                )
                self.remaining[finishing] = 0.0

            due = active & ~finishing & (t >= self.next_update)
            if due.any():
                observed = np.where(
                    self._sent_window > _EPS,
                    self._marked_window / np.maximum(self._sent_window, _EPS),
                    0.0,
                )
                self.alpha[due] = (1.0 - DCTCP_G) * self.alpha[due] + DCTCP_G * observed[due]
                marked_rtt = due & (self._marked_window > 1e-9)
                clean_rtt = due & ~marked_rtt
                self.slow_start[marked_rtt] = False
                self.cwnd[marked_rtt] *= 1.0 - self.alpha[marked_rtt] / 2.0
                ss = clean_rtt & self.slow_start
                self.cwnd[ss] *= 2.0
                ca = clean_rtt & ~self.slow_start
                self.cwnd[ca] += 1.0
                np.clip(self.cwnd, 1.0, CWND_CAP_PKTS, out=self.cwnd)
                self.next_update[due] = t + rtt[due]
                self._sent_window[due] = 0.0
                self._marked_window[due] = 0.0

            # --- queue sampling -------------------------------------------
            if sample_port is not None:
                while next_sample <= t and (
                    sample_end is None or next_sample <= sample_end
                ):
                    queue_samples.append(
                        (next_sample, float(self.queue[sample_port]) / MTU)
                    )
                    next_sample += float(sample_interval)

            t += dt

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


def dense_bank_like(bank: MarkerBank) -> DenseMarkerBank:
    """The dense bank with a production bank's parameters (fresh state)."""
    if isinstance(bank, StepMarkerBank):
        return DenseStepMarkerBank(bank.threshold, bank.n_ports)
    if isinstance(bank, CodelMarkerBank):
        return DenseCodelMarkerBank(
            bank.law.target, bank.law.interval, bank.n_ports
        )
    if isinstance(bank, EcnSharpMarkerBank):
        return DenseEcnSharpMarkerBank(
            bank.ins_target, bank.law.target, bank.law.interval, bank.n_ports
        )
    raise TypeError(f"no dense twin for {type(bank).__name__}")


def dense_twin(engine: FluidEngine) -> DenseFluidEngine:
    """A dense engine over a not-yet-run production engine's population,
    fabric and settings, with its own marker bank and its own state."""
    fabric = engine.fabric
    twin = DenseFluidEngine(
        engine.population,
        FluidFabric(
            capacity_bps=fabric.capacity_bps,
            buffer_bytes=fabric.buffer_bytes,
            marked_ports=fabric.marked_ports,
            marker=dense_bank_like(fabric.marker),
            paths=fabric.paths,
        ),
        dt=engine.dt,
        max_steps=engine.max_steps,
    )
    twin.cwnd[:] = engine.cwnd
    twin.queue[:] = engine.queue
    return twin
