"""Per-flow base-RTT profiles with n-times variation (Section 2.3, 5.2, 5.3).

The evaluation emulates RTT variation by giving each flow a base RTT drawn
from a long-tailed distribution spanning ``[rtt_min, rtt_min * variation]``
("the RTTs generated are based on the distribution in Figure 1, which is a
long-tail distribution").

Figure 1's distribution is a *mixture*: flows traverse different component
combinations (stack only / +SLB / +hypervisor / both), each adding a roughly
lognormal delay.  :class:`RttProfile` reproduces that: a weighted mixture of
lognormal clusters positioned across the span, truncated to the range.  With
the default clustering, a 3x 80-240 us profile yields an average of ~135 us
and a 90th percentile of ~220 us, matching the leaf-spine setup quoted in
Section 5.3 (average ~137 us, 90th percentile ~220 us).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

__all__ = ["RttProfile", "RttStatistics", "CLUSTER_SHAPES"]

# Relative cluster positions/weights emulating Figure 1's component mixture:
# (fraction of the span above rtt_min, mixture weight, relative std).
#
# Two calibrations are provided because the paper's two setups quote
# different distribution statistics for the same min/max band:
#
# * "fabric" matches Section 5.3's leaf-spine quote (80-240 us band with
#   average ~137 us and 90th percentile ~220 us);
# * "testbed" matches the Section 2.3/5.2 testbed configuration, where the
#   average-RTT threshold is 80 KB (~65-80 us worth of RTT in a 70-210 us
#   band) while the 90th-percentile threshold is 250 KB (~205 us): a far
#   more bottom-heavy mixture (most flows are intra-service).
_FABRIC_CLUSTERS: Tuple[Tuple[float, float, float], ...] = (
    (0.05, 0.40, 0.06),  # intra-service, stack only
    (0.40, 0.30, 0.06),  # one extra component (SLB or hypervisor)
    (0.85, 0.30, 0.06),  # several components / loaded path
)
_TESTBED_CLUSTERS: Tuple[Tuple[float, float, float], ...] = (
    (0.04, 0.72, 0.05),  # the bulk of flows: intra-service
    (0.35, 0.16, 0.05),  # one extra component
    (0.95, 0.12, 0.04),  # heavily processed tail
)
_DEFAULT_CLUSTERS = _FABRIC_CLUSTERS
CLUSTER_SHAPES = {"fabric": _FABRIC_CLUSTERS, "testbed": _TESTBED_CLUSTERS}


@dataclass(frozen=True)
class RttProfile:
    """A long-tailed per-flow base RTT distribution.

    Attributes:
        rtt_min: minimum base RTT in seconds.
        rtt_max: maximum base RTT in seconds.
        clusters: mixture components as ``(position, weight, std)`` with
            position/std relative to the span ``rtt_max - rtt_min``.
    """

    rtt_min: float
    rtt_max: float
    clusters: Tuple[Tuple[float, float, float], ...] = _DEFAULT_CLUSTERS

    def __post_init__(self) -> None:
        if self.rtt_min <= 0:
            raise ValueError("rtt_min must be positive")
        if self.rtt_max < self.rtt_min:
            raise ValueError("rtt_max must be >= rtt_min")
        if not self.clusters:
            raise ValueError("profile needs at least one cluster")
        weights = [w for _, w, _ in self.clusters]
        if any(w <= 0 for w in weights):
            raise ValueError("cluster weights must be positive")

    @classmethod
    def from_variation(
        cls, rtt_min: float, variation: float, shape: str = "fabric"
    ) -> "RttProfile":
        """Build a profile with ``rtt_max = rtt_min * variation``.

        ``variation`` is the paper's RTTmax/RTTmin ratio (2x-5x in the
        evaluation).  ``variation == 1`` yields a constant-RTT profile.
        ``shape`` selects the mixture calibration: ``"fabric"`` (Section
        5.3's leaf-spine statistics) or ``"testbed"`` (the bottom-heavy
        Section 2.3/5.2 testbed distribution).
        """
        if variation < 1.0:
            raise ValueError("variation must be >= 1")
        try:
            clusters = CLUSTER_SHAPES[shape]
        except KeyError:
            raise ValueError(
                f"unknown profile shape {shape!r}; choose from {sorted(CLUSTER_SHAPES)}"
            ) from None
        return cls(rtt_min=rtt_min, rtt_max=rtt_min * variation, clusters=clusters)

    @property
    def variation(self) -> float:
        """RTTmax / RTTmin."""
        return self.rtt_max / self.rtt_min

    @property
    def span(self) -> float:
        return self.rtt_max - self.rtt_min

    @cached_property
    def _mixture(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[float]]:
        """``(positions, weights, stds, cdf)`` of the clusters: the weights
        normalised, and the cdf ``Generator.choice(p=weights)`` builds from
        them (``cumsum``, then divided by its last entry) as a list."""
        positions = np.array([c[0] for c in self.clusters], dtype=float)
        weights = np.array([c[1] for c in self.clusters], dtype=float)
        weights /= weights.sum()
        stds = np.array([c[2] for c in self.clusters], dtype=float)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return positions, weights, stds, cdf.tolist()

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` base RTTs (seconds), clipped to [rtt_min, rtt_max]."""
        if size <= 0:
            raise ValueError("size must be positive")
        span = self.span
        if span == 0.0:
            return np.full(size, self.rtt_min)
        positions, weights, stds, _ = self._mixture
        choice = rng.choice(len(self.clusters), size=size, p=weights)
        values = self.rtt_min + span * (
            positions[choice] + rng.standard_normal(size) * stds[choice]
        )
        return np.clip(values, self.rtt_min, self.rtt_max)

    def sample_one(self, rng: np.random.Generator) -> float:
        """Draw a single base RTT (seconds): ``sample(rng, 1)[0]``, the same
        generator draws in the same order, without the array round trip."""
        span = self.span
        if span == 0.0:
            return self.rtt_min
        # choice(p=...) is one uniform bisected into its cdf (side="right").
        position, _, std = self.clusters[bisect_right(self._mixture[3], rng.random())]
        value = self.rtt_min + span * (
            float(position) + rng.standard_normal() * float(std)
        )
        return min(max(value, self.rtt_min), self.rtt_max)

    # -------------------------------------------------------- statistics

    def percentile(self, q: float, rng: np.random.Generator, n: int = 200_000) -> float:
        """Monte-Carlo estimate of the q-th percentile of the profile."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        return float(np.percentile(self.sample(rng, n), q))

    def statistics(
        self, rng: np.random.Generator, n: int = 200_000
    ) -> "RttStatistics":
        """Mean / 90th / 99th percentile estimates for threshold derivation."""
        samples = self.sample(rng, n)
        return RttStatistics(
            mean=float(np.mean(samples)),
            p50=float(np.percentile(samples, 50)),
            p90=float(np.percentile(samples, 90)),
            p99=float(np.percentile(samples, 99)),
        )


@dataclass(frozen=True)
class RttStatistics:
    """Summary statistics of a base-RTT profile (seconds)."""

    mean: float
    p50: float
    p90: float
    p99: float
