"""Parallel experiment executor with an on-disk result cache and a
fault-tolerance layer.

The paper's figures are grids of independent, seed-deterministic DES runs
(scheme x load/threshold/fanout x seed).  This module fans a list of
:class:`~repro.experiments.specs.RunSpec` cells across worker processes and
memoizes each cell's result on disk, so that

* a sweep saturates the machine instead of one core (``jobs``),
* re-rendering a figure replays completed cells from the cache instead of
  re-simulating them (``cache_dir``), and
* one crashed, hung or OOM-killed cell degrades to a recorded
  :class:`~repro.experiments.faults.RunFailure` instead of aborting the
  grid.  A spec runs once: it is deterministic, so its own exception,
  stall or timeout (``spec_timeout``, a per-spec wall-clock budget that
  abandons hung workers) is its verdict.  A worker lost under a spec
  (``BrokenProcessPool``) is not the spec's verdict: every spec in flight on
  the broken pool gets one in-process run, and the pool is rebuilt for the
  rest.  (``jobs``, ``spec_timeout`` and ``cache_dir`` are
  :mod:`repro.settings` rows, resolved by :meth:`Executor.from_env`.)

Determinism guarantee: every run owns its own
:class:`~repro.sim.engine.Simulator` and ``numpy.random.default_rng(seed)``,
so the same spec produces bit-identical results with ``jobs=1``, ``jobs=N``
or from a warm cache -- and surviving cells of a partially-failed grid are
bit-identical to a clean run.  Workers are started with the *spawn* method
and the worker entry point is a module-level function, so no closure,
simulator or telemetry state leaks across the process boundary.

``jobs=1`` (the default) executes in-process -- tests and library callers
stay single-process unless parallelism is requested explicitly.  Setting a
``spec_timeout`` forces pool execution even at ``jobs=1``: a wall-clock
budget is only enforceable across a process boundary.  No worker outlives
:meth:`Executor.run`: settled pools are waited for, hung workers are
terminated and reaped.

The grid helpers at the bottom (:func:`run_grid`, :func:`split_by_cell`,
:func:`cell_metrics`) are what the figure table
(:mod:`repro.experiments.figures`), validation and the campaign runner share
to turn a list of :class:`~repro.experiments.specs.Cell` into one executor
pass and back into per-cell runs and metrics.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import tempfile
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import settings
from ..telemetry.runtime import get_active, set_active
from ..telemetry.spans import maybe_span
from .faults import RunFailure, counted_fault, is_failure, maybe_inject_fault
from .schemes import check_fault_directives
from .specs import Cell, RunSpec, resolve_workload

try:  # per-process peak RSS; stdlib on Unix, absent on Windows
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix fallback
    _resource = None

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheGcStats",
    "ExecutorStats",
    "Executor",
    "ResultCache",
    "SpecAttribution",
    "default_cache_dir",
    "execute_spec",
    "get_default_executor",
    "set_default_executor",
    "split_by_cell",
    "run_grid",
    "cell_metrics",
]

CACHE_SCHEMA_VERSION = 2
"""Bump when simulation semantics change in a way that invalidates cached
results without changing the spec encoding (part of every cache key).
v2: entries carry a sha256 checksum footer (corruption detection)."""


def _code_tag() -> str:
    """Code-relevant version tag mixed into every cache key."""
    return _tag_for(CACHE_SCHEMA_VERSION)


@lru_cache(maxsize=None)
def _tag_for(schema: int) -> str:
    """The tag under one schema version, built once per process."""
    from .. import __version__  # deferred: the package imports this module

    return f"{__version__}/schema{schema}"


def default_cache_dir(explicit: Optional[str] = None) -> Path:
    """Where the CLI caches: ``--cache-dir`` > ``REPRO_CACHE_DIR`` >
    ``~/.cache/repro``."""
    named = settings.resolve("cache_dir", explicit)
    return Path(named) if named else Path.home() / ".cache" / "repro"


# --------------------------------------------------------------- execution


def execute_spec(spec: RunSpec) -> Any:
    """Run one spec to completion and return its result.

    Module-level (spawn-safe) dispatch over the spec's topology kind.  The
    rig modules are imported lazily: this module is imported by every figure
    module, and the microscopic/scheduler rigs live in figure modules.
    Deterministic fault injection (``REPRO_FAULT_INJECT``) is checked here,
    before the rig runs.
    """
    maybe_inject_fault(spec)
    aqm_factory = spec.aqm.build
    kwargs: Dict[str, Any] = dict(spec.extras)
    # The fidelity is part of the spec (and therefore of the cache key);
    # REPRO_FIDELITY is deliberately *not* consulted here -- env-dependent
    # results under an env-independent key would poison the cache.  The
    # CLI and the scenario compiler resolve the env var at spec-build time.
    fidelity = kwargs.pop("fidelity", "packet")
    if spec.kind in ("star", "leafspine"):
        from .runner import run_leafspine_fct, run_star_fct
        from ..workloads.arrivals import TransportConfig

        for name, value in (
            ("variation", spec.variation),
            ("rtt_min", spec.rtt_min),
            ("rtt_shape", spec.rtt_shape),
        ):
            if value is not None:
                kwargs[name] = value
        if spec.transport:
            kwargs["transport"] = TransportConfig(**dict(spec.transport))
        if fidelity == "fluid":
            from ..fluid.runner import run_fluid_leafspine_fct, run_fluid_star_fct

            run = (
                run_fluid_star_fct if spec.kind == "star"
                else run_fluid_leafspine_fct
            )
            first_arg = spec.aqm  # the fluid model needs kind+params
        else:
            run = run_star_fct if spec.kind == "star" else run_leafspine_fct
            first_arg = aqm_factory
        return run(
            first_arg,
            workload=resolve_workload(spec.workload),
            load=spec.load,
            n_flows=spec.n_flows,
            seed=spec.seed,
            **kwargs,
        )
    if spec.kind == "microscopic":
        if fidelity == "fluid":
            from ..fluid.runner import run_fluid_microscopic

            return run_fluid_microscopic(
                spec.aqm,
                scheme_name=spec.label or spec.aqm.kind,
                seed=spec.seed,
                **kwargs,
            )
        from .figures.fig10 import run_microscopic

        return run_microscopic(
            aqm_factory,
            scheme_name=spec.label or spec.aqm.kind,
            seed=spec.seed,
            **kwargs,
        )
    if spec.kind == "scheduler":
        from .figures.fig13 import run_scheduler_experiment

        return run_scheduler_experiment(
            aqm_factory,
            scheme_name=spec.label or spec.aqm.kind,
            seed=spec.seed,
            **kwargs,
        )
    raise ValueError(f"unknown RunSpec kind {spec.kind!r}")


def _max_rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB (Linux units), or None off-Unix."""
    if _resource is None:
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def _guarded_execute(spec: RunSpec, observe_spans: bool = False) -> Any:
    """Worker entry point: run a spec, converting any exception into a
    picklable :class:`RunFailure` so nothing propagates (or fails to
    pickle) across the process boundary.

    Observability: the run is wrapped in a ``cell`` span and every outcome
    that can carry attributes gets an ``_obs`` payload (wall seconds, peak
    RSS, event count) which the parent pops at settle time -- so resource
    attribution works identically in-process and across the spawn
    boundary.  ``observe_spans`` activates a spans-only telemetry in a
    worker process (which inherits none) so its span subtree can be
    serialized into the payload and stitched into the parent's tree.
    """
    local_telemetry = None
    if observe_spans and get_active() is None:
        from ..telemetry.hub import Telemetry

        local_telemetry = Telemetry(metrics=False, profile=False, spans=True)
        set_active(local_telemetry)
    wall_start = perf_counter()
    try:
        with maybe_span("cell", kind="cell", token=spec.token()):
            outcome = execute_spec(spec)
    except Exception as exc:
        outcome = RunFailure.from_exception(spec, exc)
    finally:
        if local_telemetry is not None:
            set_active(None)
    obs: Dict[str, Any] = {
        "wall_seconds": perf_counter() - wall_start,
        "max_rss_kb": _max_rss_kb(),
        "events": getattr(outcome, "events", None),
    }
    if local_telemetry is not None and local_telemetry.spans.roots:
        obs["spans"] = local_telemetry.spans.to_list()
    try:
        outcome._obs = obs
    except (AttributeError, TypeError):
        pass  # frozen outcome (RunFailure): attribution degrades gracefully
    return outcome


# ------------------------------------------------------------------ cache

_CHECKSUM_MAGIC = b"RPROSUM1"
"""Footer marker preceding the sha256 digest at the end of every cache
entry.  Eight bytes so the footer is ``magic + 32-byte digest``."""

_DIGEST_LEN = hashlib.sha256().digest_size

_FOOTER_LEN = len(_CHECKSUM_MAGIC) + _DIGEST_LEN

CORRUPT_SUFFIX = ".corrupt"


@dataclass
class CacheGcStats:
    """What one :meth:`ResultCache.gc` pass did."""

    scanned: int = 0
    removed: int = 0
    removed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    corrupt_removed: int = 0
    corrupt_kept: int = 0

    def summary_line(self) -> str:
        return (
            f"scanned={self.scanned} removed={self.removed} "
            f"removed_bytes={self.removed_bytes} kept={self.kept} "
            f"kept_bytes={self.kept_bytes} "
            f"corrupt_removed={self.corrupt_removed} "
            f"corrupt_kept={self.corrupt_kept}"
        )


class ResultCache:
    """Pickle-per-cell result store keyed by spec hash + code version tag.

    Layout: ``<dir>/<key>.pkl`` where ``key`` hashes the spec's canonical
    JSON together with the package version and cache schema version, so a
    release or an explicit :data:`CACHE_SCHEMA_VERSION` bump invalidates
    every stale entry at once.  Writes are atomic (temp file + rename).

    Integrity: every entry is ``pickle || magic || sha256(pickle)``.  An
    entry whose footer is missing or whose digest mismatches was corrupted
    on disk (truncation, bit rot, a torn non-atomic copy); it is
    *quarantined* -- renamed to ``<key>.pkl.corrupt``, counted on
    :attr:`corrupt_quarantined` and the ``cache_corrupt_total`` telemetry
    counter -- so corruption is observable and the poisoned bytes can
    never be re-read as a result.  A checksum-valid entry that still fails
    to unpickle (e.g. an ImportError for a class this environment lacks)
    is an environment mismatch, not corruption: it degrades to a plain
    miss and the entry stays for environments that can read it.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.corrupt_quarantined = 0
        # Entry paths are this prefix + key + ".pkl": a string join per
        # probe, no ``Path`` per spec.
        self._prefix = os.path.join(self.directory, "")

    def key(self, spec: RunSpec) -> str:
        """``stable_hash({"spec": spec.to_dict(), "code": _code_tag()})``,
        from the spec's one serialisation (:meth:`RunSpec.cache_key`)."""
        return spec.cache_key(_code_tag())

    def path(self, spec: RunSpec) -> Path:
        return Path(self._file(spec))

    def _file(self, spec: RunSpec) -> str:
        """The entry's path as the string every probe and read opens."""
        return f"{self._prefix}{self.key(spec)}.pkl"

    def has(self, spec: RunSpec) -> bool:
        """Whether an entry file for ``spec`` is present: one ``os.stat``
        of a string path, no read, no ``Path`` built.  This is what
        ``--dry-run`` prints as "hit" and what lets a campaign cell ride
        along in a replay shard (:meth:`Executor.cached`).  It promises
        nothing about the bytes: a corrupt entry is present until a
        :meth:`load` quarantines it."""
        try:
            os.stat(self._file(spec))
        except (FileNotFoundError, NotADirectoryError):
            return False
        return True

    def load(self, spec: RunSpec) -> Tuple[bool, Optional[Any]]:
        """``(hit, result)`` -- presence-tagged so a legitimately-``None``
        cached result replays instead of registering as a miss.  One
        ``open`` of the string path; a missing entry is a miss."""
        path = self._file(spec)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return False, None
        payload = self._verified_payload(path, blob)
        if payload is None:
            return False, None
        try:
            entry = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            return False, None  # checksum ok: environment mismatch, not rot
        if not isinstance(entry, dict) or entry.get("spec") != spec.to_dict():
            return False, None  # hash collision
        return True, entry.get("result")

    def _verified_payload(self, path: str, blob: bytes) -> Optional[bytes]:
        """The pickle payload if the checksum footer verifies, else None
        after quarantining the corrupt entry."""
        if len(blob) > _FOOTER_LEN:
            magic_start = len(blob) - _FOOTER_LEN
            digest_start = len(blob) - _DIGEST_LEN
            if blob[magic_start:digest_start] == _CHECKSUM_MAGIC:
                payload = blob[:magic_start]
                if hashlib.sha256(payload).digest() == blob[digest_start:]:
                    return payload
        self._quarantine(path)
        return None

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (never silently re-readable) and
        count it."""
        self.corrupt_quarantined += 1
        try:
            os.replace(path, path + CORRUPT_SUFFIX)
        except OSError:
            pass  # a racing quarantine/gc won; the count still stands
        name = os.path.basename(path)
        warnings.warn(
            f"cache entry {name} failed its checksum and was "
            f"quarantined to {name}{CORRUPT_SUFFIX}",
            stacklevel=3,
        )
        telemetry = get_active()
        if telemetry is not None:
            telemetry.on_cache_corrupt(name)

    def store(self, spec: RunSpec, result: Any) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"spec": spec.to_dict(), "code": _code_tag(), "result": result}
        path = self._file(spec)  # the one key hash of a store
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.write(_CHECKSUM_MAGIC)
                handle.write(hashlib.sha256(payload).digest())
            os.replace(tmp, path)
        except OSError:
            self._unlink_tmp(tmp)
            return
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # An unpicklable result must not poison the sweep (or leak the
            # temp file): skip the store, keep the in-memory result.
            self._unlink_tmp(tmp)
            warnings.warn(
                f"result for {spec.token()} is not picklable and was not "
                f"cached: {type(exc).__name__}: {exc}",
                stacklevel=2,
            )
            return
        if counted_fault("cache_store", ("corrupt_cache",)):
            # REPRO_FAULT_INJECT: truncate the entry in place, so a later
            # load fails its checksum and must quarantine it.
            with open(path, "r+b") as handle:
                handle.truncate(max(1, os.path.getsize(path) // 2))

    @staticmethod
    def _unlink_tmp(tmp: str) -> None:
        try:
            os.unlink(tmp)
        except OSError:
            pass

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        remove_corrupt: bool = True,
        now: Optional[float] = None,
    ) -> CacheGcStats:
        """Evict cache entries: quarantined ``*.corrupt`` files and stray
        write temps always go (unless ``remove_corrupt=False`` keeps the
        quarantine for inspection), entries older than ``max_age_seconds``
        go, then newest-first retention keeps the cache under
        ``max_bytes``.  Everything is best-effort against concurrent
        writers -- a vanished file is simply skipped.
        """
        stats = CacheGcStats()
        if not self.directory.exists():
            return stats
        if now is None:
            now = time.time()
        live: List[Tuple[Path, float, int]] = []
        for path in sorted(self.directory.iterdir()):
            name = path.name
            is_corrupt = name.endswith(CORRUPT_SUFFIX)
            is_tmp = name.endswith(".tmp")
            if not (is_corrupt or is_tmp or name.endswith(".pkl")):
                continue  # not ours
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.scanned += 1
            if is_corrupt or is_tmp:
                if is_corrupt and not remove_corrupt:
                    stats.kept += 1
                    stats.kept_bytes += stat.st_size
                    stats.corrupt_kept += 1
                    continue
                if self._gc_remove(path, stat.st_size, stats):
                    if is_corrupt:
                        stats.corrupt_removed += 1
                continue
            if (
                max_age_seconds is not None
                and now - stat.st_mtime > max_age_seconds
            ):
                self._gc_remove(path, stat.st_size, stats)
                continue
            live.append((path, stat.st_mtime, stat.st_size))
        if max_bytes is not None:
            live.sort(key=lambda item: item[1], reverse=True)  # newest first
            kept_bytes = 0
            for path, _mtime, size in live:
                if kept_bytes + size > max_bytes:
                    self._gc_remove(path, size, stats)
                else:
                    kept_bytes += size
                    stats.kept += 1
                    stats.kept_bytes += size
        else:
            for _path, _mtime, size in live:
                stats.kept += 1
                stats.kept_bytes += size
        return stats

    @staticmethod
    def _gc_remove(path: Path, size: int, stats: CacheGcStats) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        stats.removed += 1
        stats.removed_bytes += size
        return True


# --------------------------------------------------------------- executor


@dataclass
class SpecAttribution:
    """Where one spec's resources went: the per-cell attribution record.

    ``source`` is ``"run"`` (simulated this pass), ``"cache"`` (replayed
    from the on-disk result cache) or ``"failed"`` (terminal failure).
    ``wall_seconds``/``max_rss_kb`` come from the process that executed
    the spec (worker or parent); ``events`` is the simulated event count.
    ``attempts`` is 1, or 2 when a lost worker bought an in-process run.
    """

    token: str
    source: str  # "run" | "cache" | "failed"
    wall_seconds: Optional[float] = None
    events: Optional[int] = None
    max_rss_kb: Optional[int] = None
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "token": self.token,
            "source": self.source,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "max_rss_kb": self.max_rss_kb,
            "attempts": self.attempts,
        }


def _take_obs(outcome: Any) -> Optional[Dict[str, Any]]:
    """Pop a worker/inline ``_obs`` payload off an outcome (so it never
    leaks into the result cache or figure code)."""
    obs = getattr(outcome, "_obs", None)
    if obs is not None:
        try:
            del outcome._obs
        except (AttributeError, TypeError):
            pass
    return obs


@dataclass
class ExecutorStats:
    """Work accounting for one :class:`Executor` (cumulative)."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    inline_fallbacks: int = 0

    def merge_line(self) -> str:
        line = (
            f"specs={self.submitted} executed={self.executed} "
            f"cache_hits={self.cache_hits}"
        )
        if self.failed or self.inline_fallbacks or self.pool_rebuilds:
            line += (
                f" failed={self.failed} "
                f"inline_fallbacks={self.inline_fallbacks} "
                f"pool_rebuilds={self.pool_rebuilds}"
            )
        return line


class Executor:
    """Fans run specs across processes, memoizing results on disk.

    ``jobs=1`` executes in-process (no pool, no pickling); ``jobs>1`` uses a
    spawn-context :class:`ProcessPoolExecutor`.  Results always come back in
    submission order; a spec that fails terminally comes back as a
    :class:`RunFailure` in its slot rather than raising.

    Args:
        spec_timeout: per-spec wall-clock budget in seconds; a spec still
            running past it is abandoned (its worker killed, the pool
            rebuilt) and recorded as a ``RunFailure(kind="timeout")``.
            Requires process isolation, so setting it forces pool
            execution even at ``jobs=1``.  ``None`` (default) disables it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = False,
        cache_dir: Optional[Path] = None,
        spec_timeout: Optional[float] = None,
        progress: Optional[Any] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if spec_timeout is not None and spec_timeout <= 0:
            raise ValueError("spec_timeout must be positive (or None)")
        self.jobs = jobs
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache else None
        )
        self.spec_timeout = spec_timeout
        self.stats = ExecutorStats()
        self.failures: List[RunFailure] = []
        self.progress: Optional[Any] = progress
        """A :class:`~repro.telemetry.progress.ProgressReporter` (or any
        object with ``add_total``/``cell_done``), or None."""
        self.last_run_attribution: List[Optional[SpecAttribution]] = []
        """Per-spec :class:`SpecAttribution` of the most recent
        :meth:`run` call, in submission order (None for a slot the run
        never settled, which cannot happen on a normal return)."""
        self._spans_requested = False
        self._attribution: List[Optional[SpecAttribution]] = []

    SETTINGS = ("jobs", "spec_timeout", "cache_dir")
    """The constructor arguments that are :mod:`repro.settings` rows."""

    @classmethod
    def from_env(cls, cache: Optional[bool] = None, **explicit: Any) -> "Executor":
        """The only constructor from settings: each :attr:`SETTINGS` keyword
        left out (or ``None``) falls back to its ``REPRO_*`` variable, then
        its default.  With ``cache=None`` the cache activates only when a
        directory is named, so plain test runs never touch ``~/.cache``."""
        unknown = set(explicit) - set(cls.SETTINGS)
        if unknown:
            raise TypeError(f"not executor settings: {sorted(unknown)}")
        values = {
            name: settings.resolve(name, explicit.get(name))
            for name in cls.SETTINGS
        }
        if cache is None:
            cache = values["cache_dir"] is not None
        return cls(cache=cache, **values)

    def cached(self, spec: RunSpec) -> bool:
        """Whether :meth:`run` should find ``spec`` in the result cache: the
        cache is on and the entry file exists (:meth:`ResultCache.has`).  A
        probe that goes stale -- the entry vanishes or fails its checksum
        before the load -- only means ``run`` simulates the spec."""
        return self.cache is not None and self.cache.has(spec)

    def run(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Execute every spec (cache, then workers) in submission order.

        Each slot of the returned list holds the spec's result, or a
        :class:`RunFailure` if the spec failed (a spec whose worker was
        lost gets one in-process run first).
        """
        check_fault_directives()  # a malformed hook fails here, not in each cell
        specs = list(specs)
        self.stats.submitted += len(specs)
        telemetry = get_active()
        self._spans_requested = (
            telemetry is not None and getattr(telemetry, "spans", None) is not None
        )
        self._attribution = [None] * len(specs)
        self.last_run_attribution = self._attribution
        if self.progress is not None:
            self.progress.add_total(len(specs))
        with maybe_span("grid", kind="grid", specs=len(specs), jobs=self.jobs):
            results: List[Any] = [None] * len(specs)
            pending: List[int] = []
            for index, spec in enumerate(specs):
                if self.cache is not None:
                    hit, cached = self.cache.load(spec)
                    if hit:
                        results[index] = cached
                        self.stats.cache_hits += 1
                        self._register_manifest(cached)
                        events = getattr(cached, "events", None)
                        self._attribution[index] = SpecAttribution(
                            token=spec.token(), source="cache",
                            wall_seconds=0.0, events=events,
                        )
                        if self.progress is not None:
                            self.progress.cell_done("cache", events=None)
                        continue
                pending.append(index)

            if not pending:
                return results
            self.stats.executed += len(pending)
            # A wall-clock budget needs a process boundary to enforce, so a
            # spec_timeout routes even jobs=1 through the pool.
            use_pool = self.spec_timeout is not None or (
                self.jobs > 1 and len(pending) > 1
            )
            if use_pool:
                self._run_pool(specs, pending, results)
            else:
                for index in pending:
                    outcome = _guarded_execute(specs[index],
                                               self._spans_requested)
                    self._settle(specs, index, outcome, results)
        return results

    # ----------------------------------------------------------------- pool

    def _run_pool(
        self, specs: Sequence[RunSpec], pending: List[int], results: List[Any]
    ) -> None:
        """Pool execution with failure isolation.

        At most ``workers`` futures are in flight at once so that a
        submitted future is (almost immediately) a *running* future --
        that's what makes the per-spec wall-clock deadline meaningful.
        Worker exceptions come back as :class:`RunFailure` values (never
        raised); a lost worker and an expired deadline kill and rebuild the
        pool.
        """
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(pending))
        queue: deque = deque(pending)
        futures: Dict[Any, Tuple[int, float]] = {}  # future -> (index, started)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        settled = False
        try:
            while queue or futures:
                pool = self._fill(pool, context, workers, queue, futures,
                                  specs, results)
                if not futures:
                    continue
                wait_timeout = None
                if self.spec_timeout is not None:
                    now = time.monotonic()
                    next_deadline = min(
                        started + self.spec_timeout
                        for _, started in futures.values()
                    )
                    wait_timeout = max(0.0, next_deadline - now) + 0.05
                done, _ = wait(
                    set(futures), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if done:
                    pool = self._collect(pool, context, workers, done,
                                         futures, specs, results)
                else:
                    pool = self._expire(pool, context, workers, queue,
                                        futures, specs, results)
            settled = True
        finally:
            # With every future settled the workers are idle, so waiting
            # costs only their exit and no child outlives ``run``; on an
            # exception a worker may be mid-spec, and nothing waits for it.
            pool.shutdown(wait=settled, cancel_futures=True)

    def _fill(self, pool, context, workers, queue, futures, specs, results):
        """Top the pool up to one in-flight future per worker."""
        while queue and len(futures) < workers:
            index = queue.popleft()
            try:
                future = pool.submit(_guarded_execute, specs[index],
                                     self._spans_requested)
            except (BrokenProcessPool, RuntimeError):
                # The pool broke before we noticed (a worker died between
                # batches).  This submission never ran: requeue it at the
                # front.
                queue.appendleft(index)
                return self._worker_lost(pool, context, workers, futures,
                                         specs, results)
            futures[future] = (index, time.monotonic())
        return pool

    def _collect(self, pool, context, workers, done, futures, specs, results):
        """Settle completed futures; recover if a worker was lost."""
        lost = False
        for future in done:
            index, _started = futures[future]
            try:
                outcome = future.result()
            except BrokenProcessPool:
                lost = True  # stays in ``futures`` for ``_worker_lost``
                continue
            except Exception as exc:
                # Pool-structural failure that is not a broken pool, e.g.
                # the result failed to unpickle in this process.
                outcome = RunFailure.from_exception(specs[index], exc)
            del futures[future]
            self._settle(specs, index, outcome, results)
        if lost:
            return self._worker_lost(pool, context, workers, futures, specs,
                                     results)
        return pool

    def _expire(self, pool, context, workers, queue, futures, specs, results):
        """Handle a wait() timeout: abandon overdue futures.

        A hung worker cannot be cancelled, so the pool's processes are
        killed and the pool rebuilt; in-flight specs that were *not*
        overdue are requeued.
        """
        now = time.monotonic()
        overdue = [
            (future, index, started)
            for future, (index, started) in futures.items()
            if now - started >= self.spec_timeout
        ]
        if not overdue:
            return pool  # spurious wakeup; the next wait() re-arms
        for future, index, _started in overdue:
            futures.pop(future)
            if future.done():  # finished between wait() and the check
                try:
                    outcome = future.result()
                except Exception as exc:
                    outcome = RunFailure.from_exception(specs[index], exc)
                self._settle(specs, index, outcome, results)
                continue
            self.stats.timeouts += 1
            self._record_failure(
                RunFailure.timeout(specs[index], self.spec_timeout),
                index,
                results,
            )
        for index, _started in futures.values():
            queue.appendleft(index)  # innocent bystanders
        futures.clear()
        return self._rebuild(pool, context, workers, kill=True)

    # ------------------------------------------------------------- plumbing

    def _worker_lost(self, pool, context, workers, futures, specs, results):
        """A worker died under the pool (``BrokenProcessPool``).  That is
        not a spec's own outcome, and the pool cannot say which spec killed
        it, so every spec in flight (``futures``) gets one in-process run,
        where the parent has the last word.  The pool is then rebuilt for
        the rest of the queue."""
        for index, _started in futures.values():
            self.stats.inline_fallbacks += 1
            outcome = _guarded_execute(specs[index], self._spans_requested)
            if isinstance(outcome, RunFailure):  # the worker's run counts
                outcome = replace(outcome, attempts=2)
            self._settle(specs, index, outcome, results)
            self._attribution[index].attempts = 2
        futures.clear()
        return self._rebuild(pool, context, workers)

    def _settle(self, specs, index, outcome, results):
        """Record a final outcome (success or failure) for one spec.

        The observability payload is popped off the outcome *before* it is
        cached or handed to figure code; worker span subtrees are stitched
        into the parent tracer here."""
        if isinstance(outcome, RunFailure):
            self._record_failure(outcome, index, results)
            return
        obs = _take_obs(outcome)
        results[index] = outcome
        if self.cache is not None:
            self.cache.store(specs[index], outcome)
        self._register_manifest(outcome)
        wall = obs.get("wall_seconds") if obs else None
        events = (obs.get("events") if obs else None) or getattr(
            outcome, "events", None
        )
        if 0 <= index < len(self._attribution):
            self._attribution[index] = SpecAttribution(
                token=specs[index].token(), source="run",
                wall_seconds=wall, events=events,
                max_rss_kb=obs.get("max_rss_kb") if obs else None,
            )
        if obs and obs.get("spans"):
            telemetry = get_active()
            tracer = getattr(telemetry, "spans", None) if telemetry else None
            if tracer is not None:
                tracer.adopt(obs["spans"])
        if self.progress is not None:
            self.progress.cell_done("ok", wall_seconds=wall, events=events)

    def _record_failure(self, failure: RunFailure, index, results) -> None:
        results[index] = failure
        self.failures.append(failure)
        self.stats.failed += 1
        if 0 <= index < len(self._attribution):
            self._attribution[index] = SpecAttribution(
                token=failure.spec_key, source="failed",
                attempts=failure.attempts,
            )
        if self.progress is not None:
            self.progress.cell_done("failed")
        telemetry = get_active()
        if telemetry is not None:
            telemetry.on_run_failure(failure)

    def _rebuild(self, pool, context, workers, kill: bool = False):
        """Replace a broken/poisoned pool; ``kill`` terminates workers that
        will never exit on their own (hung ones).  Either way the old pool's
        workers are dead or dying, so its manager thread is waited for: it
        reaps them, and no child outlives ``run``."""
        self.stats.pool_rebuilds += 1
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    if process.is_alive():
                        process.terminate()
                except (OSError, ValueError):
                    pass
        pool.shutdown(wait=True, cancel_futures=True)
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )

    @staticmethod
    def _register_manifest(result: Any) -> None:
        """Attach a settled result's manifest to the active telemetry.  The
        one registration point, so an in-process, worker or cache result
        is listed exactly once."""
        manifest = getattr(result, "manifest", None)
        if manifest is None:
            return
        telemetry = get_active()
        if telemetry is not None:
            telemetry.add_manifest(manifest)


# ------------------------------------------------------- process default

_default_executor: Optional[Executor] = None


def get_default_executor() -> Executor:
    """The executor used when a figure/runner is not handed one explicitly.

    Lazily built by :meth:`Executor.from_env` on first use; the CLI and the
    benchmark harness install their own via :func:`set_default_executor`.
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = Executor.from_env()
    return _default_executor


def set_default_executor(executor: Optional[Executor]) -> Optional[Executor]:
    """Install ``executor`` as the process default; returns the previous
    one (pass it back to restore)."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


# ------------------------------------------------------------ grid helpers


def split_by_cell(
    cells: Sequence[Sequence[RunSpec]], flat: Sequence[Any]
) -> List[Sequence[Any]]:
    """Regroup a flat per-spec sequence (results, attribution rows) into
    one slice per cell, in submission order.  ``cells`` are spec lists or
    :class:`~repro.experiments.specs.Cell` objects."""
    per_cell: List[Sequence[Any]] = []
    cursor = 0
    for cell in cells:
        per_cell.append(flat[cursor:cursor + len(cell)])
        cursor += len(cell)
    return per_cell


def run_grid(
    cells: Sequence[Sequence[RunSpec]],
    executor: Optional[Executor] = None,
    pool: Optional[Callable[[Sequence[Any]], Any]] = None,
) -> List[Any]:
    """Flatten a grid of per-cell spec lists, execute everything through
    one executor pass (maximal parallelism), and pool each cell's results.

    ``pool`` defaults to :func:`repro.experiments.runner.pool_results`, the
    paper's average-of-N-seeds methodology.  The default pool carries any
    :class:`RunFailure` entries on the pooled result's ``failures`` list
    and degrades a fully-failed cell to a
    :class:`~repro.experiments.faults.FailedCell` (renders as gaps);
    custom ``pool`` callables receive the raw result/failure mix, so
    ``pool=list`` returns each cell's raw runs.
    """
    executor = executor or get_default_executor()
    if pool is None:
        from .runner import pool_results

        pool = pool_results
    flat: List[RunSpec] = [spec for cell in cells for spec in cell]
    return [pool(runs) for runs in split_by_cell(cells, executor.run(flat))]


def cell_metrics(cell: Cell, result: Any) -> Optional[Dict[str, float]]:
    """Flat metric map of one of ``cell``'s results -- a single seed run or
    the cell's pooled result -- or ``None`` when it failed."""
    if result is None or is_failure(result):
        return None
    if cell.metric_source == "fct":
        return result.summary.metrics()
    return result.metrics()
