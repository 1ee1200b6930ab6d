"""Campaign resilience and cross-store bookkeeping: shutdown, merging,
fingerprints.

The campaign store is crash-safe for its one writer: append-only JSONL,
fsync per shard, torn trailing lines skipped on load.  This module holds
what a campaign needs around that store:

* :class:`GracefulShutdown` -- the SIGINT/SIGTERM latch that lets an
  interrupted campaign append its shard and exit ``128 + signum``.
* :func:`merge_stores` -- the idempotent N-store merge, which refuses two
  ``ok`` records that disagree (a determinism bug, never papered over).
  Independent stores written on several hosts become one this way.
* :func:`store_fingerprint` -- canonical bytes of a store's settled cells:
  a campaign resumed after kills and tears converges to an uninterrupted
  run's, and merged stores to the single store that ran every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .campaign import (
    CampaignStore,
    CellRecord,
    RecordKey,
    as_store,
    canonical_json,
)

__all__ = [
    "GracefulShutdown",
    "MergeConflictError",
    "MergeResult",
    "canonical_sort_key",
    "fingerprint_records",
    "merge_stores",
    "store_fingerprint",
]


# ------------------------------------------------------------- shutdown


class GracefulShutdown:
    """Latch SIGINT/SIGTERM instead of dying mid-shard.

    Inside the context the default handlers are replaced (main thread
    only; elsewhere the latch simply never fires) by one that records the
    signal.  The campaign loop polls :attr:`requested` between shards,
    finishes + appends the in-flight shard, and the CLI exits ``128 + signum`` -- 130 for SIGINT, the interrupted-but-
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
    (git sha / package version legitimately differ across hosts that
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
    append order -- the equality chaos/convergence tests assert.
    """
    return fingerprint_records(
        sorted(as_store(store).load().values(), key=canonical_sort_key)
    )
