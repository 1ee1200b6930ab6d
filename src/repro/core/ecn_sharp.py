"""ECN# -- the paper's contribution (Section 3).

ECN# marks a packet when EITHER of two conditions holds at dequeue:

1. **Instantaneous marking** (burst tolerance, throughput): the packet's
   sojourn time exceeds ``ins_target``, a cut-off threshold derived from a
   high-percentile base RTT via Equation 2 (``T = lambda * RTT``).

2. **Persistent marking** (queueing-delay elimination): Algorithm 1 of the
   paper -- if the sojourn time has stayed above ``pst_target`` for at least
   one ``pst_interval``, a persistent queue buildup is declared and ECN#
   conservatively marks one packet per (shrinking) interval:
   ``marking_next += pst_interval / sqrt(marking_count)``.

The persistent component removes the standing queue created by flows whose
base RTT is far below the high percentile used for ``ins_target``; the
instantaneous component keeps the burst tolerance CoDel lacks.

State variables follow Table 2 of the paper: ``first_above_time``,
``marking_state``, ``marking_count``, ``marking_next``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.packet import Packet
from .base import Aqm

__all__ = ["EcnSharp", "EcnSharpConfig"]


@dataclass(frozen=True)
class EcnSharpConfig:
    """Configuration parameters of ECN# (Table 2, top half).

    Attributes:
        ins_target: instantaneous sojourn-time marking threshold, derived
            from a high-percentile RTT (Equation 2).
        pst_target: persistent queueing target the sojourn time is compared
            against (rule of thumb: >= lambda * average RTT, Section 3.4).
        pst_interval: observation interval before persistent queueing is
            declared, and the base spacing of conservative marks (rule of
            thumb: around the high-percentile RTT).
    """

    ins_target: float
    pst_target: float
    pst_interval: float

    def __post_init__(self) -> None:
        if self.ins_target <= 0:
            raise ValueError("ins_target must be positive")
        if self.pst_target <= 0:
            raise ValueError("pst_target must be positive")
        if self.pst_interval <= 0:
            raise ValueError("pst_interval must be positive")
        if self.pst_target > self.ins_target:
            raise ValueError(
                "pst_target above ins_target would make persistent marking "
                "unreachable before instantaneous marking"
            )


class EcnSharp(Aqm):
    """ECN# AQM (Algorithm 1 + instantaneous cut-off marking)."""

    def __init__(self, config: EcnSharpConfig) -> None:
        super().__init__()
        self.config = config
        self.reset()

    @classmethod
    def from_targets(
        cls, ins_target: float, pst_target: float, pst_interval: float
    ) -> "EcnSharp":
        """Convenience constructor mirroring the paper's parameter list."""
        return cls(EcnSharpConfig(ins_target, pst_target, pst_interval))

    def reset(self) -> None:
        super().reset()
        # Variables of Table 2 (bottom half).  The paper's pseudocode uses
        # 0 as the "unset" sentinel for first_above_time (a register cannot
        # hold None); simulated time genuinely starts at 0, so the reference
        # implementation uses None instead.  The dataplane model keeps the
        # 0-sentinel, matching the hardware semantics.
        self._first_above_time = None
        self._marking_state = False
        self._marking_count = 0
        self._marking_next = 0.0

    # ------------------------------------------------------- Algorithm 1

    def _should_persistent_mark(self, sojourn: float, now: float) -> bool:
        """``ShouldPersistentMark`` with ``IsPersistentQueueBuildups``
        folded in (Algorithm 1), on a sojourn time the caller read once."""
        config = self.config
        # IsPersistentQueueBuildups (lines 21-33).
        if sojourn < config.pst_target:
            self._first_above_time = None
            detected = False
        elif self._first_above_time is None:
            self._first_above_time = now
            detected = False
        else:
            detected = now > self._first_above_time + config.pst_interval
        # ShouldPersistentMark (lines 1-20).
        if self._marking_state:
            if not detected:
                self._marking_state = False
                return False
            if now > self._marking_next:
                self._marking_count += 1
                self._marking_next += (
                    config.pst_interval / math.sqrt(self._marking_count)
                )
                return True
            return False
        if detected:
            self._marking_state = True
            self._marking_count = 1
            self._marking_next = now + config.pst_interval
            return True
        return False

    # ------------------------------------------------------------ AQM hook

    def on_dequeue(self, packet: Packet, now: float) -> bool:
        self.stats.packets_seen += 1
        sojourn = packet.sojourn_time(now)
        # The persistent state machine observes every packet, also those
        # the instantaneous cut-off marks, so that first_above_time and
        # marking_state track the queue continuously.
        persistent = self._should_persistent_mark(sojourn, now)
        # Instantaneous marking: aggressive cut-off for burst tolerance.
        if sojourn > self.config.ins_target:
            return self._congestion_signal(packet, kind="instant", now=now)
        if persistent:
            return self._congestion_signal(packet, kind="persistent", now=now)
        return True
