"""Empirical flow-size distributions (Figure 5).

Flow sizes are sampled from piecewise-linear empirical CDFs -- the same
format (and the same published curves) as the traffic generator used by the
paper's testbed experiments [HKUST-SING/TrafficGenerator].  The two
production workloads, web search [DCTCP, SIGCOMM'10] and data mining
[VL2, SIGCOMM'09], are both heavy-tailed: most flows are small while most
bytes live in multi-megabyte flows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

__all__ = ["EmpiricalCdf"]


@dataclass(frozen=True)
class EmpiricalCdf:
    """A piecewise-linear CDF over flow sizes in bytes.

    Args:
        points: ``(size_bytes, cumulative_probability)`` pairs, sizes
            strictly increasing, probabilities non-decreasing from ~0 to 1.
        name: label used in reports.
    """

    points: Tuple[Tuple[float, float], ...]
    name: str = "empirical"

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("CDF needs at least two points")
        sizes = [p[0] for p in self.points]
        probs = [p[1] for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("CDF sizes must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("CDF probabilities must be non-decreasing")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1")
        if probs[0] < 0:
            raise ValueError("CDF probabilities must be non-negative")

    # -------------------------------------------------------------- sampling

    @cached_property
    def _probs(self) -> List[float]:
        return [p[1] for p in self.points]

    def quantile(self, u: float) -> float:
        """Inverse CDF by linear interpolation (u in [0, 1])."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be within [0, 1]")
        index = bisect.bisect_left(self._probs, u)
        if index == 0:
            return self.points[0][0]
        if index >= len(self.points):
            return self.points[-1][0]
        (x0, p0), (x1, p1) = self.points[index - 1], self.points[index]
        if p1 == p0:
            return x1
        fraction = (u - p0) / (p1 - p0)
        return x0 + fraction * (x1 - x0)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` flow sizes in bytes (always >= 1 byte)."""
        uniforms = rng.random(size)
        values = np.array([self.quantile(u) for u in uniforms])
        return np.maximum(values, 1.0)

    def sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single flow size in bytes."""
        return max(1, int(round(self.quantile(rng.random()))))

    # ------------------------------------------------------------ statistics

    def mean(self) -> float:
        """Analytic mean of the piecewise-linear distribution (bytes)."""
        total = self.points[0][0] * self.points[0][1]  # mass at the first point
        for (x0, p0), (x1, p1) in zip(self.points, self.points[1:]):
            total += (p1 - p0) * (x0 + x1) / 2.0
        return total

    def cdf_at(self, size_bytes: float) -> float:
        """Cumulative probability at a given size (for plotting Figure 5)."""
        sizes = [p[0] for p in self.points]
        if size_bytes <= sizes[0]:
            return self.points[0][1] if size_bytes >= sizes[0] else 0.0
        if size_bytes >= sizes[-1]:
            return 1.0
        index = bisect.bisect_right(sizes, size_bytes)
        (x0, p0), (x1, p1) = self.points[index - 1], self.points[index]
        return p0 + (p1 - p0) * (size_bytes - x0) / (x1 - x0)

    def curve(self, n_points: int = 200) -> Tuple[List[float], List[float]]:
        """(sizes, cdf values) on a log grid, for Figure 5 reproduction."""
        lo, hi = self.points[0][0], self.points[-1][0]
        grid = np.logspace(np.log10(max(lo, 1.0)), np.log10(hi), n_points)
        return list(grid), [self.cdf_at(x) for x in grid]
