"""Analytic (fluid) marking models of the packet-level AQMs.

The packet engine marks individual packets at dequeue time; the fluid
engine instead needs, per port and per time step, the *fraction* of the
traffic that each AQM would have CE-marked.  This module provides
vectorized "marker banks" -- one state machine per port, stepped together
for whichever ports carry traffic or backlog -- that mirror the decision
logic of the packet-level classes in :mod:`repro.core`:

* ``sojourn-red`` / ``tcn``: step marking -- fraction 1 while the
  instantaneous sojourn time exceeds the threshold, else 0.
* ``codel``: the CoDel control law in continuous time -- after the sojourn
  stays above ``target`` for one ``interval``, marks arrive at the
  escalating rate ``sqrt(count) / interval`` (the fluid limit of
  ``next_mark += interval / sqrt(count)``).
* ``ecn-sharp``: the instantaneous cut-off of
  :class:`~repro.core.ecn_sharp.EcnSharp` (fraction 1 above
  ``ins_target``) plus the fluid limit of Algorithm 1's persistent
  marking on ``pst_target`` / ``pst_interval``, including the reset
  whenever the sojourn dips below ``pst_target``.

Marks are *fractional* in the fluid model (one mark per shrinking
interval becomes a marking intensity); the engine converts fractions back
into packet-equivalent counts for the run's summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["StepMarks", "MarkerBank", "build_marker_bank"]

_EPS = 1e-12


@dataclass
class StepMarks:
    """Per-port marking outcome of one fluid step (fractions in [0, 1]),
    aligned with the ``ports`` the bank was stepped on.  ``fraction`` is
    zero wherever ``instant`` and ``persistent`` both are."""

    fraction: np.ndarray
    instant: np.ndarray
    persistent: np.ndarray


class MarkerBank:
    """Base class: one AQM marking state machine per port, vectorized.

    A bank is stepped on the subset of its ports that carry traffic or
    backlog.  A port outside that subset has zero sojourn, which every law
    here answers with "no mark, state reset" -- so the caller skips such
    ports and calls :meth:`forget` once when a port leaves the subset.
    """

    def __init__(self, n_ports: int) -> None:
        if n_ports <= 0:
            raise ValueError("need at least one port")
        self.n_ports = n_ports

    def step(
        self,
        ports: np.ndarray,
        sojourn: np.ndarray,
        now: float,
        dt: float,
        pkts: np.ndarray,
    ) -> Optional[StepMarks]:
        """Marking fractions of ``ports`` for the interval ``[now, now + dt)``.

        ``ports`` indexes the bank; ``sojourn`` is each of those ports'
        current queueing delay (seconds) and ``pkts`` the
        packet-equivalents that traverse it during the step (used to turn
        discrete mark events into fractions).  ``None`` means every
        fraction is zero: no port could mark in this step.
        """
        raise NotImplementedError

    def forget(self, ports: np.ndarray) -> None:
        """``ports`` drained and left the stepped subset: reset them, as
        stepping them at zero sojourn would have."""


class StepMarkerBank(MarkerBank):
    """Threshold step marking (``sojourn-red`` and ``tcn``): every packet
    whose sojourn exceeds the threshold is marked.  Stateless."""

    def __init__(self, threshold: float, n_ports: int) -> None:
        super().__init__(n_ports)
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold

    def step(self, ports, sojourn, now, dt, pkts) -> Optional[StepMarks]:
        above = sojourn > self.threshold
        if not np.count_nonzero(above):
            return None
        fraction = above.astype(float)
        return StepMarks(
            fraction=fraction,
            instant=fraction,
            persistent=np.zeros(len(fraction)),
        )


def _fraction(marks: np.ndarray, pkts: np.ndarray) -> np.ndarray:
    """Mark events per packet-equivalent, clamped to [0, 1]."""
    return np.minimum(np.maximum(marks / np.maximum(pkts, _EPS), 0.0), 1.0)


class _PersistentLaw:
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
        # Whether any port may hold non-reset state.  A step leaves state
        # only on the ports it saw above target, so while this is False
        # and nobody is above target there is nothing to read or write.
        self.tracking = False

    def marks(
        self, ports: np.ndarray, sojourn: np.ndarray, now: float, dt: float
    ) -> Optional[np.ndarray]:
        """Fractional mark events of ``ports`` in ``[now, now + dt)``;
        None when no port is above target or tracked (no marks at all)."""
        below = sojourn < self.target
        any_above = np.count_nonzero(below) < len(below)
        if not (any_above or self.tracking):
            return None
        first_above = self.first_above[ports]
        marking = self.marking[ports]
        count = self.count[ports]
        # Above target a fresh episode starts its clock now; below it
        # everything resets.  A reset port's NaN clock compares false, so it
        # cannot be entering, and it is never steady.
        first_above[np.isnan(first_above)] = now
        first_above[below] = np.nan
        steady = marking & ~below
        entering = ~marking & (now + dt - first_above >= self.interval)
        # The first mark of an episode is discrete (Algorithm 1 marks the
        # packet that trips the detector); afterwards the shrinking
        # inter-mark gap interval/sqrt(count) becomes a rate.  ``count`` is
        # zero wherever ``marking`` is false, so the last branch of each
        # chain (``entering`` as 1.0 / 0.0) also resets below target.
        marks = np.where(steady, dt * np.sqrt(count) / self.interval, entering)
        self.first_above[ports] = first_above
        self.marking[ports] = steady | entering
        self.count[ports] = np.where(steady, count + marks, entering)
        self.tracking = any_above
        return marks

    def forget(self, ports: np.ndarray) -> None:
        self.first_above[ports] = np.nan
        self.marking[ports] = False
        self.count[ports] = 0.0


class CodelMarkerBank(MarkerBank):
    """CoDel's control law in fluid time (all marks are persistent)."""

    def __init__(self, target: float, interval: float, n_ports: int) -> None:
        super().__init__(n_ports)
        self.law = _PersistentLaw(target, interval, n_ports)

    def step(self, ports, sojourn, now, dt, pkts) -> Optional[StepMarks]:
        marks = self.law.marks(ports, sojourn, now, dt)
        if marks is None:
            return None
        fraction = _fraction(marks, pkts)
        return StepMarks(
            fraction=fraction,
            instant=np.zeros(len(fraction)),
            persistent=fraction,
        )

    def forget(self, ports) -> None:
        self.law.forget(ports)


class EcnSharpMarkerBank(MarkerBank):
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
        self.law = _PersistentLaw(pst_target, pst_interval, n_ports)

    def step(self, ports, sojourn, now, dt, pkts) -> Optional[StepMarks]:
        marks = self.law.marks(ports, sojourn, now, dt)
        if marks is None:
            # Nobody reaches pst_target, so nobody exceeds ins_target.
            return None
        over = sojourn > self.ins_target
        instant = over.astype(float)
        # Instantaneous marking takes precedence packet-by-packet (the
        # persistent machine still observes, matching the packet AQM), so
        # the two parts never overlap and the total is their sum.
        persistent = _fraction(marks, pkts)
        persistent[over] = 0.0
        fraction = instant + persistent
        return StepMarks(
            fraction=fraction, instant=instant, persistent=persistent
        )

    def forget(self, ports) -> None:
        self.law.forget(ports)


def build_marker_bank(
    kind: str, params: Dict[str, Any], n_ports: int
) -> MarkerBank:
    """The fluid marking model for a registered AQM kind.

    ``REPRO_AQM_PERTURB`` applies here exactly as it does to the packet
    AQMs (via :func:`~repro.experiments.schemes.perturbed_params`), so the
    validation canary also catches regressions in fluid campaigns.
    """
    from ..experiments.schemes import perturbed_params

    params = dict(perturbed_params(kind, dict(params)))
    if kind == "sojourn-red":
        return StepMarkerBank(params["sojourn"], n_ports)
    if kind == "tcn":
        return StepMarkerBank(params["threshold"], n_ports)
    if kind == "codel":
        return CodelMarkerBank(params["target"], params["interval"], n_ports)
    if kind == "ecn-sharp":
        return EcnSharpMarkerBank(
            params["ins_target"],
            params["pst_target"],
            params["pst_interval"],
            n_ports,
        )
    raise ValueError(f"no fluid marking model for AQM kind {kind!r}")
