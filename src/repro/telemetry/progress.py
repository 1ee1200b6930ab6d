"""Live campaign/grid progress: counts, an events/sec EWMA, and an ETA.

A long campaign used to be a black box between "started" and the final
summary line.  This module provides the reporting half of the executor's
progress hooks:

* :class:`ProgressTracker` -- pure accounting (no I/O): cells done /
  failed / cache-hit / store-skipped, an exponentially-weighted
  moving average of simulated events per wall second, and an ETA derived
  from the observed completion rate.  Fully deterministic given its
  inputs, so it is unit-testable without a terminal.
* :class:`TtyProgress` -- a single self-overwriting status line for
  interactive runs (carriage-return repaint, final newline on close).
* :class:`JsonlHeartbeat` -- one JSON object per update for CI and
  non-TTY consumers; machine-parseable, append-only, safe to ``tail -f``.

The executor and the campaign orchestrator call the reporter interface
(``add_total`` / ``cell_done`` / ``close``); when no reporter
is attached they pay a single ``is not None`` check per settled cell.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Dict, Optional, TextIO

__all__ = [
    "ProgressTracker",
    "ProgressReporter",
    "TtyProgress",
    "JsonlHeartbeat",
    "make_progress",
    "STATUSES",
]

STATUSES = ("ok", "failed", "cache", "skipped")
"""Terminal states a work unit can settle in: executed successfully,
failed terminally, replayed from the result cache, or skipped because the
campaign store already holds it."""

EWMA_ALPHA = 0.3
"""Weight of the newest events/sec sample in the moving average."""


class ProgressTracker:
    """Counts + rate estimation for one grid/campaign pass (no I/O)."""

    __slots__ = (
        "total",
        "ok",
        "failed",
        "cache_hits",
        "skipped",
        "started",
        "events_total",
        "_eps_ewma",
    )

    def __init__(self) -> None:
        self.total = 0
        self.ok = 0
        self.failed = 0
        self.cache_hits = 0
        self.skipped = 0
        self.started = perf_counter()
        self.events_total = 0
        self._eps_ewma: Optional[float] = None

    # -------------------------------------------------------------- inputs

    def add_total(self, n: int) -> None:
        self.total += n

    def record(
        self,
        status: str,
        wall_seconds: Optional[float] = None,
        events: Optional[int] = None,
    ) -> None:
        """Fold one settled unit in.  ``wall_seconds``/``events`` (when the
        unit actually simulated) feed the events/sec EWMA."""
        if status == "ok":
            self.ok += 1
        elif status == "failed":
            self.failed += 1
        elif status == "cache":
            self.cache_hits += 1
        elif status == "skipped":
            self.skipped += 1
        else:
            raise ValueError(f"unknown progress status {status!r}")
        if events:
            self.events_total += events
        if events and wall_seconds and wall_seconds > 0:
            sample = events / wall_seconds
            if self._eps_ewma is None:
                self._eps_ewma = sample
            else:
                self._eps_ewma = (
                    EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * self._eps_ewma
                )

    # ------------------------------------------------------------- derived

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.cache_hits + self.skipped

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    @property
    def elapsed(self) -> float:
        return perf_counter() - self.started

    @property
    def events_per_sec(self) -> Optional[float]:
        return self._eps_ewma

    def eta_seconds(self) -> Optional[float]:
        """Remaining units / observed completion rate; None before the
        first settled unit (no rate yet) or once everything is done."""
        if self.remaining == 0:
            return 0.0
        completed = self.done
        elapsed = self.elapsed
        if completed == 0 or elapsed <= 0:
            return None
        return self.remaining / (completed / elapsed)

    def snapshot(self) -> Dict[str, Any]:
        eta = self.eta_seconds()
        eps = self.events_per_sec
        return {
            "done": self.done,
            "total": self.total,
            "ok": self.ok,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "skipped": self.skipped,
            "events": self.events_total,
            "events_per_sec": round(eps, 1) if eps is not None else None,
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _fmt_rate(eps: Optional[float]) -> str:
    if eps is None:
        return "-"
    if eps >= 1e6:
        return f"{eps / 1e6:.1f}M ev/s"
    if eps >= 1e3:
        return f"{eps / 1e3:.0f}k ev/s"
    return f"{eps:.0f} ev/s"


def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "-"
    if eta >= 3600:
        return f"{eta / 3600:.1f}h"
    if eta >= 60:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


class ProgressReporter:
    """Reporter base: a tracker plus throttled emission.

    ``min_interval`` rate-limits repaints/heartbeats (the first and the
    closing update always emit); subclasses implement :meth:`emit`.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, min_interval: float = 0.0
    ) -> None:
        self.tracker = ProgressTracker()
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_emit: Optional[float] = None
        self._closed = False

    # ---------------------------------------------------- executor interface

    def add_total(self, n: int) -> None:
        self.tracker.add_total(n)
        self._maybe_emit()

    def cell_done(
        self,
        status: str,
        wall_seconds: Optional[float] = None,
        events: Optional[int] = None,
    ) -> None:
        self.tracker.record(status, wall_seconds=wall_seconds, events=events)
        self._maybe_emit()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.emit(final=True)

    # ----------------------------------------------------------- emission

    def _maybe_emit(self) -> None:
        now = perf_counter()
        if (
            self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        self.emit(final=False)

    def emit(self, final: bool) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class TtyProgress(ProgressReporter):
    """Self-overwriting one-line renderer for interactive terminals."""

    def __init__(
        self, stream: Optional[TextIO] = None, min_interval: float = 0.1
    ) -> None:
        super().__init__(stream=stream, min_interval=min_interval)

    def render_line(self) -> str:
        t = self.tracker
        parts = [
            f"# progress: {t.done}/{t.total}",
            f"ok={t.ok} failed={t.failed} cache={t.cache_hits}",
        ]
        if t.skipped:
            parts.append(f"skipped={t.skipped}")
        parts.append(f"| {_fmt_rate(t.events_per_sec)}")
        parts.append(f"| eta {_fmt_eta(t.eta_seconds())}")
        return " ".join(parts)

    def emit(self, final: bool) -> None:
        line = self.render_line()
        # Pad over any longer previous repaint, then rewind.
        self.stream.write("\r" + line.ljust(79))
        if final:
            self.stream.write("\n")
        self.stream.flush()


class JsonlHeartbeat(ProgressReporter):
    """One JSON object per update -- the non-TTY / CI heartbeat mode.

    Every line carries ``kind`` (``"progress"`` while running,
    ``"summary"`` for the single closing line) plus the tracker snapshot,
    so a consumer can both follow along and trust the last line as the
    final accounting.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, min_interval: float = 0.0
    ) -> None:
        super().__init__(stream=stream, min_interval=min_interval)

    def emit(self, final: bool) -> None:
        payload = {"kind": "summary" if final else "progress"}
        payload.update(self.tracker.snapshot())
        self.stream.write(json.dumps(payload, sort_keys=True) + "\n")
        self.stream.flush()


def make_progress(
    mode: str = "auto",
    stream: Optional[TextIO] = None,
    min_interval: Optional[float] = None,
) -> ProgressReporter:
    """Build a reporter: ``"tty"``, ``"jsonl"``, or ``"auto"`` (TTY
    renderer when the stream is an interactive terminal, JSONL heartbeat
    otherwise -- so CI logs get parseable lines without any flag)."""
    stream = stream if stream is not None else sys.stderr
    if mode == "auto":
        mode = "tty" if getattr(stream, "isatty", lambda: False)() else "jsonl"
    if mode == "tty":
        return TtyProgress(
            stream, min_interval=0.1 if min_interval is None else min_interval
        )
    if mode == "jsonl":
        return JsonlHeartbeat(
            stream, min_interval=1.0 if min_interval is None else min_interval
        )
    raise ValueError(f"unknown progress mode {mode!r}")
