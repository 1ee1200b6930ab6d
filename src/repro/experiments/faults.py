"""Fault-tolerance primitives for the experiment pipeline.

The paper's figures are grids of hundreds of independent DES cells; at that
scale one crashed, hung or OOM-killed worker must degrade to a *recorded*
failure, not abort the sweep.  This module provides the pieces the executor
and the downstream pooling/figure/CLI layers share:

* :class:`RunFailure` -- a typed, picklable record of one cell's death
  (spec identity, exception type/message, traceback text, how many runs
  it took: 1, or 2 when its worker was lost and the parent re-ran it),
  safe to ship across the spawn process boundary and into telemetry
  snapshots;
* :class:`FailedCell` -- the stand-in for a pooled cell whose every seed
  failed; it duck-types the parts of ``ExperimentResult`` the figure
  modules consume (empty summary/collector, zeroed counters) so tables
  render with gaps instead of crashing;
* deterministic fault injection -- :func:`maybe_inject_fault` acts on
  ``REPRO_FAULT_INJECT``'s ``raise``/``hang``/``exit`` directives at the top
  of :func:`repro.experiments.executor.execute_spec`, so every recovery path
  (exception, hang+timeout, lost worker) is testable without flaky timing,
  and :func:`counted_fault` counts the store and cache calls its
  kill/tear/corrupt directives fire at.

The grammar and its one parser are :class:`repro.settings.Fault` and
:func:`repro.settings.fault_directives`.  ``<substr>`` is substring-matched
against :meth:`RunSpec.token` (``kind|label|seed=N|hash16``); an empty
substring matches every spec.  ``raise`` throws :class:`InjectedFault`;
``hang`` sleeps forever (pair it with the executor's ``spec_timeout``);
``exit`` models a lost worker: it kills the worker process with
``os._exit``, and in the main process, where there is no worker to lose,
it does nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback as traceback_module
from collections import Counter
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from .. import settings
from ..sim.engine import SimulationStalled
from ..telemetry.runtime import get_active
from .fct import FctCollector, FctSummary
from .specs import RunSpec

__all__ = [
    "FAULT_EXIT_CODE",
    "InjectedFault",
    "RunFailure",
    "FailedCell",
    "is_failure",
    "counted_fault",
    "gather_failures",
    "maybe_inject_fault",
]

FAULT_EXIT_CODE = 137
"""Exit status of the kill/tear directives (the SIGKILL convention)."""


class InjectedFault(RuntimeError):
    """The exception thrown by ``raise`` fault-injection directives."""


# ----------------------------------------------------------------- records


@dataclass(frozen=True)
class RunFailure:
    """One cell's terminal failure, in picklable plain-data form.

    ``kind`` is the recovery path that produced it:

    * ``"exception"`` -- the run raised; ``exc_type``/``message``/
      ``traceback`` carry the worker-side details as text.
    * ``"stall"`` -- the engine raised :class:`SimulationStalled`.
    * ``"timeout"`` -- the spec exceeded the executor's per-spec
      wall-clock budget and its worker was abandoned.

    ``attempts`` is how many times the spec ran: 1, or 2 when a lost
    worker bought it an in-process run.
    """

    spec_key: str  # RunSpec.token(): kind|label|seed=N|hash16
    kind: str
    label: str = ""
    seed: Optional[int] = None
    exc_type: str = ""
    message: str = ""
    traceback: str = ""
    attempts: int = 1

    @classmethod
    def from_exception(cls, spec: RunSpec, exc: BaseException) -> "RunFailure":
        kind = "stall" if isinstance(exc, SimulationStalled) else "exception"
        return cls(
            spec_key=spec.token(),
            kind=kind,
            label=spec.label or spec.aqm.kind,
            seed=spec.seed,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    @classmethod
    def timeout(cls, spec: RunSpec, timeout_seconds: float) -> "RunFailure":
        return cls(
            spec_key=spec.token(),
            kind="timeout",
            label=spec.label or spec.aqm.kind,
            seed=spec.seed,
            exc_type="TimeoutError",
            message=(
                f"spec exceeded the {timeout_seconds:g}s wall-clock budget; "
                "worker abandoned"
            ),
        )

    def to_dict(self) -> dict:
        return {
            "spec_key": self.spec_key,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "exc_type": self.exc_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    def summary_line(self) -> str:
        detail = f"{self.exc_type}: {self.message}" if self.exc_type else self.message
        return f"{self.spec_key} [{self.kind} after {self.attempts} attempt(s)] {detail}"


class FailedCell:
    """Pooled stand-in for a cell whose every seed run failed.

    Duck-types the slice of ``ExperimentResult`` the figure modules read
    (``summary``/``collector`` empty, counters zero, no manifest), so a
    grid with dead cells still renders -- with "-" gaps where the paper's
    numbers would be -- instead of crashing the whole figure.
    """

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures: List[RunFailure] = list(failures)
        self.collector = FctCollector()
        self.manifest = None
        self.marks = 0
        self.instant_marks = 0
        self.persistent_marks = 0
        self.drops = 0
        self.timeouts = 0
        self.sim_duration = 0.0
        self.events = 0

    @property
    def summary(self) -> FctSummary:
        return FctSummary.from_records([])

    @property
    def n_flows(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailedCell {len(self.failures)} failure(s)>"


def is_failure(obj: Any) -> bool:
    """Whether ``obj`` is a failure marker rather than a usable result."""
    return isinstance(obj, (RunFailure, FailedCell))


def gather_failures(results: Sequence[Any]) -> List[RunFailure]:
    """Flatten the failure records out of a mixed result/failure sequence
    (``FailedCell`` entries contribute their member failures)."""
    failures: List[RunFailure] = []
    for result in results:
        if isinstance(result, RunFailure):
            failures.append(result)
        elif isinstance(result, FailedCell):
            failures.extend(result.failures)
        else:
            failures.extend(getattr(result, "failures", ()))
    return failures


# --------------------------------------------------------- fault injection


def _in_worker_process() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def maybe_inject_fault(spec: RunSpec) -> None:
    """Fire any ``REPRO_FAULT_INJECT`` directive matching ``spec``.

    Called at the top of ``execute_spec`` in whichever process runs the
    spec (workers inherit the environment at spawn).
    """
    directives = settings.fault_directives()
    if not directives:
        return
    token = spec.token()
    for fault in directives:
        if fault.mode not in settings.SPEC_FAULTS or fault.match not in token:
            continue
        if fault.mode == "raise":
            raise InjectedFault(f"injected fault for {token}")
        if fault.mode == "hang":
            while True:  # parent-side spec_timeout is the only way out
                time.sleep(3600.0)
        if _in_worker_process():  # exit: only a worker can be lost
            os._exit(17)


# Per-process call counts of the counted points.  Workers inherit
# REPRO_FAULT_INJECT through the environment but never these counts, so
# every process counts its own calls from one.
_COUNTS: Counter = Counter()


def counted_fault(point: str, modes: Tuple[str, ...]) -> Optional[str]:
    """The first of ``modes`` whose directive names this call -- the n-th
    call at ``point`` in this process -- or None.  A fired mode is counted
    on the active telemetry before the caller acts on it (it may be about
    to exit)."""
    directives = settings.fault_directives()
    if not directives:
        return None
    _COUNTS[point] += 1
    for fault in directives:
        if fault.mode in modes and fault.n == _COUNTS[point]:
            telemetry = get_active()
            if telemetry is not None:
                telemetry.on_chaos_injection(fault.mode)
            return fault.mode
    return None
