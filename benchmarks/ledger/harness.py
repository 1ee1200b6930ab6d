"""Repetition loop, statistics and result assembly shared by every workload.

One call of :func:`run_workload` is one benchmark run of one workload in the
current interpreter: set-up (repeated, median reported), one discarded
warm-up repetition, then timed repetitions of a deterministic body until the
time box is spent.  With ``traced=True`` every untraced repetition is paired
with a traced one in the same process, so ``trace.overhead_ratio`` is a
same-process A/B and the traced simulation can be checked against the
untraced one.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from . import metrics, trace

__all__ = ["Rep", "Workload", "Checks", "quartiles", "run_workload"]

SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 1.0
"""Set-up runs at least 3 times per run and ``setup_s`` is the median; a
set-up of milliseconds repeats (up to 9 times) until a second is spent."""

MIN_REPS = 3
MIN_REPS_QUICK = 2


@dataclass
class Rep:
    """What one repetition of a workload body reports back.

    ``signature`` is everything about the repetition's *outputs* that must
    repeat exactly (event counts, marks, fingerprints, status tallies); the
    harness compares it across repetitions and between the traced and the
    untraced pass.  ``timings`` carries named inner measurements in seconds
    -- a float, or a list of per-operation samples."""

    signature: Tuple[Any, ...]
    attempted: int
    failed: int = 0
    timings: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    wall: float = 0.0


class Checks:
    """Correctness checks; each one is an attempted operation that fails
    loudly in the result line instead of raising."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class Workload:
    """One named workload.  Subclasses fill in the four phases; the
    harness owns timing, repetition and bookkeeping."""

    name = ""
    follows_host_clock = False
    """Report ``run_s`` at the reference host speed (see :func:`host_clock`).
    Set only where that was measured to narrow the run-to-run spread: pure
    computation whose time moves with the reference loop's."""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    def prepare(self) -> None:
        """Generate the workload's *inputs* from the seed: once, untimed.
        Input files are the benchmark's to make, not the program's."""

    def setup(self) -> None:
        """The program-side set-up (called several times, each from a
        torn-down state)."""
        raise NotImplementedError

    def warmup(self, checks: Checks) -> None:
        """One discarded repetition; defaults to the body itself."""
        self.body(checks)

    def seeded_check(self, checks: Checks) -> None:
        """For workloads whose timed cell is pinned: run the same rig once
        on a population drawn from ``--seed`` and check it completes.  Runs
        after the timed repetitions and after peak RSS is read, so the seed
        cannot leak into any reported number."""

    def body(self, checks: Checks) -> Rep:
        """One deterministic repetition."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop and remove whatever :meth:`setup` made (untimed; called
        between set-ups and at the end)."""

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, List[float]]:
        """Samples of the end-to-end metrics only this workload has."""
        return {}

    def probes(self, reps: Sequence[Rep]) -> Dict[str, float]:
        """Isolated per-layer probes, run once in the traced pass while the
        fixtures are still up."""
        return {}

    def per_layer(self, reps: Sequence[Rep], traced: Sequence[Rep],
                  recorder: trace.Recorder,
                  checks: Checks) -> Dict[str, float]:
        """Workload-specific per-layer metrics of the traced pass (and the
        checks only a traced pass can make)."""
        return {}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _stat(values: Sequence[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


HOST_CLOCK_REF_S = 0.017
"""What :func:`host_clock` reads on the builder's host in its usual phase."""


class _Cell:
    __slots__ = ("hits", "scale")

    def __init__(self) -> None:
        self.hits = 0
        self.scale = 1.0


def _clock_loop() -> float:
    table: Dict[int, int] = {}
    cell = _Cell()
    kept: List[Tuple[int, _Cell]] = []
    total = 0
    start = perf_counter()
    for i in range(100_000):
        table[i & 1023] = i
        total += table[i & 511] ^ i
        cell.hits += 1
        cell.scale *= 1.0000001
        if not i & 7:
            kept.append((total, cell))
            if len(kept) > 500:
                kept.clear()
    return perf_counter() - start


def host_clock() -> float:
    """Seconds this host takes *right now* for a fixed pure-Python loop
    (dict, list, slot and float traffic; no code of the repository): the
    fastest of three passes, so caches the workload left cold do not count.

    The hosts this runs on change speed by +-20 % for minutes at a time,
    whole guest at once.  The loop is timed next to every repetition; on a
    workload that sets ``follows_host_clock``, ``run_s`` is reported at the
    reference host speed, ``wall x HOST_CLOCK_REF_S / median(readings)``
    (see README, Noise).  The constant only fixes the unit: it cancels in
    any comparison of two runs.
    """
    return min(_clock_loop() for _ in range(3))


def _time_box_spent(elapsed: float, last_cycle: float, seconds: float,
                    done: int, min_reps: int) -> bool:
    # Stop at the repetition boundary nearest the box, never short of the
    # minimum count the medians need.
    return done >= min_reps and elapsed + 0.5 * last_cycle >= seconds


@dataclass
class _Measured:
    """Everything one run observed, before any arithmetic."""

    setup_walls: List[float] = field(default_factory=list)
    reps: List[Rep] = field(default_factory=list)
    traced_reps: List[Rep] = field(default_factory=list)
    clocks: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    probes: Dict[str, float] = field(default_factory=dict)


def _measure(workload: Workload, seconds: float, traced: bool,
             checks: Checks, recorder: trace.Recorder) -> _Measured:
    seen = _Measured()
    try:
        workload.prepare()
        while (len(seen.setup_walls) < SETUP_REPEATS[0]
               or (sum(seen.setup_walls) < SETUP_SECONDS
                   and len(seen.setup_walls) < SETUP_REPEATS[1])):
            if seen.setup_walls:
                workload.teardown()
            start = perf_counter()
            workload.setup()
            seen.setup_walls.append(perf_counter() - start)
        workload.warmup(checks)

        min_reps = MIN_REPS_QUICK if workload.quick else MIN_REPS
        if traced:
            min_reps = 1
        box_start = perf_counter()
        seen.clocks.append(host_clock())
        while True:
            cycle_start = perf_counter()
            seen.reps.append(_timed(workload, checks))
            seen.clocks.append(host_clock())
            if traced:
                recorder.rep = len(seen.traced_reps)
                recorder.captured.clear()
                with trace.tracing(recorder):
                    with recorder.span("body", "bench"):
                        seen.traced_reps.append(_timed(workload, checks))
            now = perf_counter()
            if _time_box_spent(now - box_start, now - cycle_start, seconds,
                               len(seen.reps), min_reps):
                break
        seen.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        workload.seeded_check(checks)
        if traced:
            seen.probes = workload.probes(seen.reps)
    finally:
        workload.teardown()
        shutil.rmtree(workload.workdir, ignore_errors=True)
    return seen


def run_workload(workload: Workload, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    """Run one workload once; returns the full result dict: identity,
    ``correct``/``attempted``/``failed``, ``end_to_end`` (name -> median,
    quartiles, n, unit) and, when traced, ``per_layer`` and ``trace``."""
    checks = Checks()
    recorder = trace.Recorder(workload.name)
    seen = _measure(workload, seconds, traced, checks, recorder)
    reps, traced_reps = seen.reps, seen.traced_reps

    first = reps[0].signature
    for index, rep in enumerate(reps[1:], start=1):
        checks.expect(rep.signature == first,
                      f"repetition {index} diverged: {rep.signature} != {first}")
    for index, rep in enumerate(traced_reps):
        checks.expect(rep.signature == first,
                      f"traced repetition {index} perturbed the outputs: "
                      f"{rep.signature} != {first}")

    walls = [r.wall for r in reps]
    # < 1 while the host runs slower than the reference, > 1 while faster.
    speed = HOST_CLOCK_REF_S / statistics.median(seen.clocks)
    scale = speed if workload.follows_host_clock else 1.0

    per_layer = None
    if traced:
        values = metrics.from_trace(recorder, traced_reps)
        values.update(
            workload.per_layer(reps, traced_reps, recorder, checks))
        values.update(seen.probes)
        values["trace.overhead_ratio"] = (
            statistics.median(r.wall for r in traced_reps)
            / statistics.median(walls))
        values["bench.host_speed"] = speed
        (values["trace.shim_ns_per_call"],
         values["trace.shim_self_ns_per_call"]) = trace.calibrate()
        per_layer = metrics.fill(values)

    attempted = checks.attempted + sum(r.attempted for r in reps + traced_reps)
    failed = len(checks.failures) + sum(r.failed for r in reps + traced_reps)
    samples = {
        "setup_s": seen.setup_walls,
        "run_s": [wall * scale for wall in walls],
        "peak_rss_mb": [seen.peak_rss_mb],
        "fail_share": [failed / attempted],
        **workload.end_to_end(reps),
    }
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "quick": workload.quick,
        "traced": traced,
        "reps": len(reps),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": checks.failures[:20],
        "signature": repr(first),
        "host_speed": speed,
        "end_to_end": {
            name: _stat(values, metrics.LEDGER_END_TO_END[name].unit)
            for name, values in samples.items()
        },
    }
    if per_layer is not None:
        result["per_layer"] = per_layer
        result["trace"] = recorder.to_dict()
    return result


def _timed(workload: Workload, checks: Checks) -> Rep:
    gc.collect()  # every repetition starts from a collected heap
    start = perf_counter()
    rep = workload.body(checks)
    rep.wall = perf_counter() - start
    return rep
