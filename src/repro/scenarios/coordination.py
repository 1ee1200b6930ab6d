"""Multi-writer campaign coordination: store locks, cell leases, merging.

The campaign store is crash-safe for one writer: append-only JSONL, fsync
per shard, torn trailing lines skipped on load.  This module adds what a
fleet of ``repro scenario run --shared`` workers on one store needs:

* :class:`StoreLock` -- the advisory ``<store>.lock`` around each round's
  load-and-claim and append-and-release; a dead or stale holder's lock is
  broken, so a SIGKILLed writer can never wedge the campaign.
* :class:`LeaseBoard` -- the ``<stem>.leases.jsonl`` ledger partitioning
  pending cells across workers; a killed worker's stale leases are
  reclaimed, so its cells re-run exactly once.
* :class:`GracefulShutdown` -- the SIGINT/SIGTERM latch that lets an
  interrupted worker append its shard and exit ``128 + signum``.
* :func:`merge_stores` -- the idempotent N-store merge, which refuses two
  ``ok`` records that disagree (a determinism bug, never papered over).
* :func:`store_fingerprint` -- canonical bytes of a store's settled cells:
  N writers under kills and tears converge to a single writer's.

Lock and lease files are coordination state only: a lone ``--shared``
worker writes a single writer's store bytes, and deleting them never loses
campaign results.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .campaign import (
    CampaignStore,
    CellRecord,
    JsonlTail,
    RecordKey,
    as_store,
    canonical_json,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_LOCK_TIMEOUT",
    "GracefulShutdown",
    "LOCK_POLL_INTERVAL",
    "LOCK_STALE_AFTER",
    "Lease",
    "LeaseBoard",
    "LockTimeout",
    "MergeConflictError",
    "MergeResult",
    "StoreLock",
    "canonical_sort_key",
    "default_worker_id",
    "fingerprint_records",
    "merge_stores",
    "store_fingerprint",
]

DEFAULT_LEASE_TTL = 60.0
"""Seconds a claimed lease stays exclusive without being released.  Tuned
for "worker died", not "worker is slow": a worker holds its lease only
while executing one shard, and re-running a cell is merely wasted work
(results are deterministic), never a correctness problem."""

DEFAULT_LOCK_TIMEOUT = 60.0

LOCK_STALE_AFTER = 30.0
"""Age in seconds past which a lock whose holder cannot be checked (it
lives on another host, or its body is unreadable) is stale.  A holder keeps
the lock only for one round's load-and-claim or append-and-release --
milliseconds, never a shard's execution -- so a lock this old was
abandoned."""

LOCK_POLL_INTERVAL = 0.05
"""Seconds a waiting worker sleeps between attempts to take the lock."""


def default_worker_id() -> str:
    """``host:pid`` -- unique per concurrently live worker process."""
    return f"{socket.gethostname()}:{os.getpid()}"


# ------------------------------------------------------------------- lock


class LockTimeout(RuntimeError):
    """Raised when the store lock cannot be acquired within the timeout."""


class StoreLock:
    """Advisory exclusive lockfile around campaign-store appends.

    Creation is ``O_CREAT|O_EXCL`` (atomic on every filesystem that
    matters here); the file body is ``pid host``.  Liveness has two
    tiers: a dead owner pid on the same host is detected immediately via
    ``kill(pid, 0)``, and a cross-host (or unreadable) lock falls back to
    its mtime -- the lock is held only for one round's load-and-claim or
    append-and-release, so an mtime older than :data:`LOCK_STALE_AFTER`
    marks an abandoned lock.  Breaking is rename-based: racing breakers
    rename the stale file aside, and only the winner of that atomic rename
    unlinks it; everyone then races the normal O_EXCL create.
    """

    def __init__(
        self, path: "Path | str", timeout: Optional[float] = None
    ) -> None:
        self.path = Path(path)
        self.timeout = DEFAULT_LOCK_TIMEOUT if timeout is None else timeout
        self.broken_stale = 0
        """Stale locks this instance has broken (observability)."""
        self._held = False

    def acquire(self) -> "StoreLock":
        deadline = time.monotonic() + self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if self._break_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not acquire {self.path} within "
                        f"{self.timeout:g}s (held by {self._describe_holder()})"
                    )
                time.sleep(LOCK_POLL_INTERVAL)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {socket.gethostname()}\n")
            self._held = True
            return self

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------ staleness

    def _read_holder(self) -> Tuple[Optional[int], Optional[str], Optional[float]]:
        """``(pid, host, mtime)`` of the current lock, or Nones if it
        vanished or is unreadable (a lock mid-creation has no body yet)."""
        try:
            mtime = self.path.stat().st_mtime
            body = self.path.read_text(encoding="utf-8").split()
        except OSError:
            return None, None, None
        try:
            pid = int(body[0]) if body else None
        except ValueError:
            pid = None
        return pid, body[1] if len(body) > 1 else None, mtime

    def _describe_holder(self) -> str:
        pid, host, _ = self._read_holder()
        if pid is None:
            return "unknown holder"
        return f"pid {pid} on {host or 'unknown host'}"

    def _is_stale(self) -> bool:
        pid, host, mtime = self._read_holder()
        if mtime is None:
            return False  # lock vanished; retry the create immediately
        if (
            pid is not None
            and host == socket.gethostname()
            and not _pid_alive(pid)
        ):
            return True
        return (time.time() - mtime) > LOCK_STALE_AFTER

    def _break_if_stale(self) -> bool:
        """Atomically take a stale lock aside; True if this process won
        the break (or the lock vanished) and should retry the create."""
        if not self._is_stale():
            return False
        aside = self.path.with_name(
            f"{self.path.name}.stale.{os.getpid()}"
        )
        try:
            os.replace(self.path, aside)
        except OSError:
            return True  # another breaker won; the path is free to race
        try:
            os.unlink(aside)
        except OSError:
            pass
        self.broken_stale += 1
        return True


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - platform oddity: assume alive
        return True
    return True


# ------------------------------------------------------------------ leases


@dataclass(frozen=True)
class Lease:
    """Latest lease state for one cell key."""

    worker: str
    state: str  # "claimed" | "released"
    acquired_at: float


class LeaseBoard:
    """Append-only lease ledger in the store's ``.leases.jsonl`` sidecar.

    One JSON object per line (``key``, ``worker``, ``state``, ``t``);
    the latest line per key wins.  All mutation happens under the
    :class:`StoreLock`, so appends never interleave; torn lines from a
    crash are skipped on load exactly like the main store's, and like the
    main store a reused board reads only the rows appended since its last
    load.  The file is coordination state, not campaign state: deleting it
    merely releases every lease.
    """

    def __init__(
        self, path: "Path | str", ttl: Optional[float] = None
    ) -> None:
        self.path = Path(path)
        self.ttl = DEFAULT_LEASE_TTL if ttl is None else ttl
        if self.ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.log = JsonlTail(self.path)

    def load(self) -> Dict[RecordKey, Lease]:
        return self.log.fold(dict, _fold_lease)

    def partition(
        self,
        pending: Iterable[RecordKey],
        worker: str,
        limit: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Tuple[List[RecordKey], List[Tuple[RecordKey, str]]]:
        """Select up to ``limit`` claimable keys from ``pending`` in order.

        Returns ``(claimable, reclaimed)`` where ``reclaimed`` pairs each
        key taken over from a stale lease with the worker that abandoned
        it.  Keys under a live lease held by *another* worker are skipped;
        this worker's own live leases are re-claimable (it is resuming its
        own work, e.g. after a lock-released retry).
        """
        if now is None:
            now = time.time()
        index = self.load()
        claimable: List[RecordKey] = []
        reclaimed: List[Tuple[RecordKey, str]] = []
        for key in pending:
            if limit is not None and len(claimable) >= limit:
                break
            lease = index.get(key)
            if lease is not None and lease.state == "claimed":
                if now - lease.acquired_at >= self.ttl:
                    reclaimed.append((key, lease.worker))
                elif lease.worker != worker:
                    continue
            claimable.append(key)
        return claimable, reclaimed

    def claim(self, keys: Iterable[RecordKey], worker: str,
              now: Optional[float] = None) -> None:
        self._append(keys, worker, "claimed", now)

    def release(self, keys: Iterable[RecordKey], worker: str,
                now: Optional[float] = None) -> None:
        self._append(keys, worker, "released", now)

    def _append(self, keys: Iterable[RecordKey], worker: str, state: str,
                now: Optional[float]) -> None:
        t = now if now is not None else time.time()
        self.log.append("".join(
            canonical_json({"key": [key[0], list(key[1])], "worker": worker,
                            "state": state, "t": t}) + "\n"
            for key in keys
        ), durable=True)


def _fold_lease(index: Dict[RecordKey, Lease], line_no: int, row) -> None:
    """One ledger row into the latest-lease-per-key index; a row that is
    not a lease (torn, foreign, a malformed key) is skipped."""
    try:
        scenario_hash, tokens = row["key"]
        key = (str(scenario_hash), tuple(str(t) for t in tokens))
        index[key] = Lease(worker=str(row["worker"]), state=str(row["state"]),
                           acquired_at=float(row["t"]))
    except (KeyError, TypeError, ValueError):
        pass


# ------------------------------------------------------------- shutdown


class GracefulShutdown:
    """Latch SIGINT/SIGTERM instead of dying mid-shard.

    Inside the context the default handlers are replaced (main thread
    only; elsewhere the latch simply never fires) by one that records the
    signal.  The campaign loop polls :attr:`requested` between shards,
    finishes + appends the in-flight shard, releases its leases, and the
    CLI exits ``128 + signum`` -- 130 for SIGINT, the interrupted-but-
    resumable convention.
    """

    SIGNALS = ("SIGINT", "SIGTERM")

    def __init__(self) -> None:
        self.requested = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    @property
    def exit_code(self) -> int:
        return 128 + (self.signum or 2)

    def _handler(self, signum, frame) -> None:
        self.requested = True
        self.signum = signum

    def __enter__(self) -> "GracefulShutdown":
        import signal as signal_module
        import threading

        if threading.current_thread() is not threading.main_thread():
            return self  # signals only deliver to the main thread
        for name in self.SIGNALS:
            signum = getattr(signal_module, name, None)
            if signum is None:  # pragma: no cover - platform-dependent
                continue
            try:
                self._previous[signum] = signal_module.signal(
                    signum, self._handler
                )
            except (ValueError, OSError):  # pragma: no cover - embedded use
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        import signal as signal_module

        for signum, previous in self._previous.items():
            try:
                signal_module.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


# --------------------------------------------------------------- merging


class MergeConflictError(RuntimeError):
    """Two ``ok`` records for the same key disagree on result content.

    This is never a coordination race -- cell execution is deterministic
    by construction -- so a true ok/ok conflict means the stores were
    produced by semantically different code or inputs and must not be
    silently merged.  ``conflicts`` lists ``(key, details)`` pairs.
    """

    def __init__(self, conflicts: List[Tuple[RecordKey, str]]) -> None:
        self.conflicts = conflicts
        preview = "; ".join(detail for _, detail in conflicts[:3])
        more = "" if len(conflicts) <= 3 else f" (+{len(conflicts) - 3} more)"
        super().__init__(
            f"{len(conflicts)} ok/ok content conflict(s): {preview}{more}"
        )


@dataclass
class MergeResult:
    """Accounting for one :func:`merge_stores` pass."""

    records: List[CellRecord] = field(default_factory=list)
    input_records: int = 0
    ok_cells: int = 0
    failed_cells: int = 0
    duplicates_collapsed: int = 0
    resource_rows: int = 0
    resource_rows_collapsed: int = 0

    def summary_line(self) -> str:
        line = (
            f"cells={len(self.records)} ok={self.ok_cells} "
            f"failed={self.failed_cells} inputs={self.input_records} "
            f"collapsed={self.duplicates_collapsed}"
        )
        # Suffix only when sidecars were actually merged: the base five
        # tokens are a stable grep surface for tests and CI.
        if self.resource_rows:
            line += (
                f" resources={self.resource_rows}"
                f" resources_collapsed={self.resource_rows_collapsed}"
            )
        return line


def _record_content(record: CellRecord) -> tuple:
    """The comparable payload of a record: everything except provenance
    (git sha / package version legitimately differ across workers that
    ran the same code state on different checkouts of the same commit --
    but metrics, status and failures must agree).  ``fidelity`` is also
    excluded: it is denormalized from the spec tokens (which embed the
    fidelity-bearing spec hash), so a legacy record written before the
    field existed and a fresh one for the same tokens are the same cell.
    The fields themselves, not a serialisation or a ``to_dict``: equal
    exactly when the two records' dicts minus those keys are.
    """
    return (record.scenario, record.scenario_hash, record.cell_key,
            record.component, record.tokens, record.status, record.metrics,
            record.failures)


def canonical_sort_key(record: CellRecord):
    """The canonical record order -- merged stores, fingerprints and the
    results service's record lists all sort by it."""
    return (record.scenario, record.scenario_hash, record.cell_key,
            record.tokens)


def merge_stores(
    inputs: Sequence["CampaignStore | Path | str"],
    output: "CampaignStore | Path | str | None" = None,
) -> MergeResult:
    """Merge N campaign stores into one canonical store.

    Semantics per key: the latest record of each input store is a
    candidate; any ``ok`` candidate beats every non-ok one (latest-ok-
    wins); multiple ``ok`` candidates must agree on content (provenance
    fields aside) or the merge raises :class:`MergeConflictError`; with
    no ``ok`` candidate, the last input's record wins.  Candidates are
    compared field by field (:func:`_record_content`), never by their
    serialised lines: a record read from a store has not serialised its
    line, and doing so costs more than the comparison it would spare.
    The output is written atomically in canonical sorted order, which makes the merge
    idempotent: ``merge(merge(A, B), B) == merge(A, B)`` byte-for-byte.

    ``output`` may be one of the inputs (everything is read before the
    atomic replace) or ``None`` to merge without writing.

    Resource sidecars (``<stem>.resources.jsonl``) merge alongside the main
    store: all input sidecar rows are concatenated, deduped by
    ``(scenario, cell_key)`` with the latest (last input, last row) winning,
    and written sorted to the output's sidecar -- so per-cell attribution
    survives a multi-host merge.  Sidecar loss never blocks the merge.
    """
    # Each store's latest record per key; the latest sidecar row overall.
    per_key: Dict[RecordKey, List[CellRecord]] = {}
    resources: Dict[Tuple[object, object], Dict[str, object]] = {}
    result, input_rows = MergeResult(), 0
    for store in map(as_store, inputs):
        for key, record in store.load().items():
            per_key.setdefault(key, []).append(record)
        result.input_records += store.load_stats.records
        rows = store.load_resources()
        input_rows += len(rows)
        for row in rows:
            resources[(row.get("scenario"), row.get("cell_key"))] = row
    conflicts: List[Tuple[RecordKey, str]] = []
    for key in sorted(per_key):
        candidates = per_key[key]
        ok = [r for r in candidates if r.status == "ok"]
        if ok:
            baseline = _record_content(ok[0])
            for other in ok[1:]:
                if _record_content(other) != baseline:
                    conflicts.append((
                        key,
                        f"{other.scenario}/{other.cell_key}: two ok records "
                        "disagree on content",
                    ))
                    break
            winner = ok[0]
            result.ok_cells += 1
        else:
            winner = candidates[-1]
            result.failed_cells += 1
        result.duplicates_collapsed += len(candidates) - 1
        result.records.append(winner)
    if conflicts:
        raise MergeConflictError(conflicts)
    result.records.sort(key=canonical_sort_key)
    result.resource_rows = len(resources)
    result.resource_rows_collapsed = input_rows - len(resources)
    if output is not None:
        out_store = as_store(output)
        out_store.log.rewrite(record.line for record in result.records)
        if resources:
            out_store.resources_log.rewrite(
                canonical_json(resources[key]) for key in
                sorted(resources, key=lambda k: (str(k[0]), str(k[1]))))
    return result


def fingerprint_records(records: Sequence[CellRecord]) -> bytes:
    """Canonical bytes of a set of settled cells already in canonical
    order (:func:`canonical_sort_key`), serialized exactly as the store
    writes them.  The service's store index calls this on the sorted
    records it keeps anyway, avoiding a second disk read and a second sort
    per revalidation -- and, each record keeping its line once serialised,
    a second ``json.dumps`` per record too."""
    lines = [record.line for record in records]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def store_fingerprint(store: "CampaignStore | Path | str") -> bytes:
    """Canonical bytes of a store's settled cells: latest record per key,
    sorted, serialized exactly as the store writes them.  Two stores with
    equal fingerprints settled every cell identically, regardless of
    append interleaving -- the equality chaos/convergence tests assert.
    """
    return fingerprint_records(
        sorted(as_store(store).load().values(), key=canonical_sort_key)
    )
