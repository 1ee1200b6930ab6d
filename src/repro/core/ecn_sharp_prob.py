"""ECN# with probabilistic instantaneous marking (Section 3.5 extension).

Rate-based transports such as DCQCN need a RED-style probability ramp
between two thresholds (Kmin/Kmax) rather than cut-off marking, or their
rate convergence breaks.  The paper sketches the extension: "change the
original cut-off marking into probabilistic marking, and keep the marking
based on persistent congestion unchanged since it is conducted in a
probabilistic way".

:class:`EcnSharpProbabilistic` implements exactly that: the instantaneous
component marks with probability 0 below ``ins_min``, ramping linearly to
``pmax`` at ``ins_max`` (sojourn-time equivalents of Kmin/Kmax through
Equation 2), while Algorithm 1's persistent component is inherited verbatim
from :class:`~repro.core.ecn_sharp.EcnSharp`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..sim.packet import Packet
from .ecn_sharp import EcnSharp, EcnSharpConfig

__all__ = ["EcnSharpProbabilistic", "ProbabilisticConfig"]


@dataclass(frozen=True)
class ProbabilisticConfig:
    """The instantaneous ramp: Kmin/Kmax in sojourn-time terms.

    Attributes:
        ins_min: sojourn time at which instantaneous marking begins.
        ins_max: sojourn time at which the marking probability reaches
            ``pmax`` (marks with probability 1 above it).
        pmax: probability at ``ins_max`` (DCQCN deployments commonly use
            small values like 0.01-0.1; 1.0 recovers near-cut-off marking).
    """

    ins_min: float
    ins_max: float
    pmax: float = 1.0

    def __post_init__(self) -> None:
        if self.ins_min <= 0 or self.ins_max <= 0:
            raise ValueError("thresholds must be positive")
        if self.ins_max < self.ins_min:
            raise ValueError("ins_max must be >= ins_min")
        if not 0.0 < self.pmax <= 1.0:
            raise ValueError("pmax must be in (0, 1]")


class EcnSharpProbabilistic(EcnSharp):
    """ECN# whose instantaneous component is a RED-style probability ramp.

    The persistent component (Algorithm 1) is unchanged; ``ins_target`` of
    the base config doubles as the hard cut-off above which every packet is
    marked (set it to ``ramp.ins_max`` for a pure ramp).
    """

    def __init__(
        self,
        config: EcnSharpConfig,
        ramp: ProbabilisticConfig,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        if ramp.ins_max > config.ins_target:
            raise ValueError(
                "the ramp must saturate at or below the hard cut-off "
                "(ramp.ins_max <= config.ins_target)"
            )
        self.ramp = ramp
        self._rng = random.Random(seed)

    def marking_probability(self, sojourn: float) -> float:
        """Instantaneous marking probability at a given sojourn time."""
        ramp = self.ramp
        if sojourn < ramp.ins_min:
            return 0.0
        if sojourn >= ramp.ins_max:
            return 1.0 if sojourn > self.config.ins_target else ramp.pmax
        span = ramp.ins_max - ramp.ins_min
        if span == 0:
            return ramp.pmax
        return ramp.pmax * (sojourn - ramp.ins_min) / span

    def on_dequeue(self, packet: Packet, now: float) -> bool:
        self.stats.packets_seen += 1
        sojourn = packet.sojourn_time(now)
        persistent = self._should_persistent_mark(sojourn, now)
        probability = self.marking_probability(sojourn)
        if probability >= 1.0 or (
            probability > 0.0 and self._rng.random() < probability
        ):
            return self._congestion_signal(packet, kind="instant", now=now)
        if persistent:
            return self._congestion_signal(packet, kind="persistent", now=now)
        return True
