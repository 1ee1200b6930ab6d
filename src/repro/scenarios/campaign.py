"""Campaign orchestration: run a directory of scenarios as one resumable job.

A *campaign* executes every cell of every compiled scenario through the
shared :class:`~repro.experiments.executor.Executor` and appends each
finished cell to a crash-safe JSONL store.  Records are keyed by
``(scenario content-hash, the cell's RunSpec tokens)``: the content hash
pins the scenario semantics (any edit changes it) and the tokens embed each
spec's hash (any parameter change changes them), so stale records can never
be replayed for changed work.

Resume semantics: a rerun loads the store first and only executes cells
with no ``"ok"`` record -- gaps (never ran, e.g. the process was killed)
and failures (every failed cell re-executes until it succeeds).  Because
cell summaries contain no timestamps and records are appended in the
deterministic scenario-order x cell-order, an interrupted-then-resumed
campaign's store is byte-identical to an uninterrupted one.

Crash safety: the store is append-only, one JSON object per line, flushed
and fsynced per shard; a torn trailing line (the process died mid-write) is
skipped with a warning on load and its cell simply re-executes.  The store
and its sidecar are each one :class:`JsonlTail`: the one append, atomic
rewrite, incremental read and "changed?" check, so a reused store (the
results daemon revalidating while a campaign appends) parses only the
lines appended since its last load.

A store has one writer (:func:`_run`): the campaign loads it once, then
executes and appends the remaining cells shard by shard.  Parallelism on
one host is the executor's ``--jobs``; several hosts write independent
stores and join them with :func:`~repro.scenarios.coordination.merge_stores`.
"""

from __future__ import annotations

import json
import os
import warnings
from copy import copy as shallow_copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..experiments.executor import (
    Executor,
    get_default_executor,
    split_by_cell,
)
from ..experiments.faults import FAULT_EXIT_CODE, counted_fault
from ..experiments.specs import Cell, canonical_json
from ..telemetry.provenance import git_sha
from ..telemetry.runtime import get_active
from ..telemetry.spans import maybe_span
from .compile import CompiledScenario, compile_scenario, summarize_cell
from .schema import Scenario

__all__ = [
    "CellRecord",
    "CampaignStore",
    "CampaignResult",
    "StoreLoadStats",
    "JsonlTail",
    "canonical_json",
    "as_store",
    "run_campaign",
    "outcome_tallies",
    "render_store_report",
    "DEFAULT_STORE",
]

DEFAULT_STORE = "campaign.jsonl"

RecordKey = Tuple[str, Tuple[str, ...]]  # (scenario content hash, spec tokens)

_NUMBER_TYPES = frozenset((int, float))  # exactly: a bool is no metric value


@dataclass(frozen=True)
class CellRecord:
    """One settled campaign cell (one JSONL line).

    ``fidelity`` follows the same elision rule as
    :meth:`~repro.experiments.specs.RunSpec.with_fidelity`: ``"packet"`` is
    the implicit default and is omitted from the serialized record, so
    packet-fidelity stores stay byte-identical to pre-fidelity ones (same
    fingerprints, same resume behavior); only fluid cells carry the field.
    """

    scenario: str
    scenario_hash: str
    cell_key: str
    component: str
    tokens: Tuple[str, ...]
    status: str  # "ok" | "failed"
    metrics: Dict[str, float]
    failures: Tuple[Dict[str, str], ...]
    git_sha: Optional[str]
    version: str
    fidelity: str = "packet"

    @property
    def key(self) -> RecordKey:
        return (self.scenario_hash, self.tokens)

    @cached_property
    def line(self) -> str:
        """The record's canonical store line (no newline), serialised once
        per object: fingerprinting a store that was already fingerprinted
        is a sort and a join."""
        return canonical_json(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "cell_key": self.cell_key,
            "component": self.component,
            "tokens": list(self.tokens),
            "status": self.status,
            "metrics": self.metrics,
            "failures": list(self.failures),
            "git_sha": self.git_sha,
            "version": self.version,
        }
        if self.fidelity != "packet":
            data["fidelity"] = self.fidelity
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellRecord":
        """The record a store line holds.  Raises ``KeyError`` or
        ``TypeError`` for a line that is not one -- a missing field, or a
        metric value that is not a number (``null``, a string, a bool), which
        would otherwise break every summary over its store.  Every reader of
        :meth:`CampaignStore.load` treats such a line as torn: queries skip
        it, ``scenario merge`` drops it, the store fingerprint leaves it out
        and a resumed campaign runs its cell again."""
        record = cls(
            scenario=data["scenario"],
            scenario_hash=data["scenario_hash"],
            cell_key=data["cell_key"],
            component=data.get("component", ""),
            tokens=tuple(data["tokens"]),
            status=data["status"],
            metrics=data.get("metrics", {}),
            failures=tuple(data.get("failures", [])),
            git_sha=data.get("git_sha"),
            version=data.get("version", ""),
            fidelity=data.get("fidelity", "packet"),
        )
        metrics = record.metrics
        if not (isinstance(metrics, dict) and _NUMBER_TYPES.issuperset(
                map(type, metrics.values()))):
            raise TypeError("metric values must be numbers")
        return record


@dataclass
class StoreLoadStats:
    """What the last :meth:`CampaignStore.load` actually read.

    ``torn_lines`` counts unparseable lines skipped during the load --
    normally 0 or 1 (a single torn trailing write from a crash); more than
    one means the store took damage beyond a clean kill and deserves a
    look.  Surfaced by ``repro scenario report`` and the obs dashboard.
    """

    lines: int = 0
    records: int = 0
    torn_lines: int = 0


class JsonlTail:
    """One append-only JSONL file: the store and its sidecar append,
    atomically rewrite, read and ask "changed?" only here.

    :meth:`fold` parses the whole file the first time and, on the same
    instance later, only what was appended since.  It remembers the file's
    ``(st_dev, st_ino, st_size, st_mtime_ns)`` as its last read began, the
    offset it consumed -- newline-terminated lines only: an unterminated
    tail (a crash mid-write, a writer caught mid-append) is folded into
    that call's result alone and read again next time -- and the ``GUARD``
    bytes before it.  A missing, shrunken or replaced file, or a guard that
    no longer matches, means the whole file is folded again.
    :meth:`changed` compares that identity with one ``stat``.  Neither sees
    an in-place rewrite that keeps inode, length, timestamp and guard:
    writers append or atomically replace, they never edit.

    After each fold, :attr:`grew` says whether its result can differ from
    the previous fold's (it rewound, consumed a line, or its unsettled tail
    changed).
    """

    GUARD = 64

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.grew = True
        self._tail: Optional[bytes] = None  # the last fold's unsettled line
        self._forget()

    def _forget(self) -> None:
        self._seen: Optional[Tuple[int, ...]] = None  # () for no file
        self._offset = 0
        self._guard = b""
        self._lines = 0  # physical lines consumed, for line numbers

    def changed(self) -> bool:
        """Whether the file may differ from what the last :meth:`fold`
        read: one ``stat``, no read."""
        try:
            return _identity(os.stat(self.path)) != self._seen
        except FileNotFoundError:
            return self._seen != ()

    def fold(self, start: Callable[[], Any],
             step: Callable[[Any, int, Optional[Dict[str, Any]]], None],
             copy: Callable[[Any], Any] = shallow_copy) -> Any:
        """``step(state, line number, row)`` for every non-blank line, on
        the state ``start()`` made at the last rewind; returns ``copy`` of
        it, which the caller owns.  ``row`` is ``None`` for a line that is
        not a JSON object (a torn or foreign write)."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            self.grew = self._seen != ()
            self._forget()
            self._seen, self._state, self._tail = (), start(), None
            return copy(self._state)
        unsettled = tail = None
        with handle:
            seen = _identity(os.fstat(handle.fileno()))
            # A file that was missing last time is read on from offset 0
            # of the empty state that stood for it.
            rewound = not (self._seen == () or (
                self._seen and self._seen[:2] == seen[:2]
                and seen[2] >= self._offset
                and self._read_guard(handle) == self._guard))
            if rewound:
                self._forget()
                self._state = start()
            self._seen, offset, lines = seen, self._offset, self._lines
            handle.seek(offset)
            try:
                for raw in handle:
                    settled = raw.endswith(b"\n")
                    if settled:
                        offset += len(raw)
                        lines += 1
                    else:
                        tail = raw
                    if raw.isspace():
                        continue
                    try:
                        row = json.loads(raw.decode("utf-8"))
                    except ValueError:  # not JSON, or not UTF-8
                        row = None
                    if not isinstance(row, dict):
                        row = None
                    if settled:
                        step(self._state, lines, row)
                    else:  # may yet be completed: this call's view only
                        unsettled = (lines + 1, row)
            except BaseException:
                self._forget()
                raise
            self.grew = rewound or offset != self._offset or tail != self._tail
            self._offset, self._lines, self._tail = offset, lines, tail
            self._guard = self._read_guard(handle)
        state = copy(self._state)
        if unsettled is not None:
            step(state, *unsettled)
        return state

    def _read_guard(self, handle: BinaryIO) -> bytes:
        start = max(0, self._offset - self.GUARD)
        handle.seek(start)
        return handle.read(self._offset - start)

    def rows(self) -> List[Dict[str, Any]]:
        """The readable object rows, in append order; torn and foreign
        lines are skipped and a missing file has none."""
        return self.fold(list, _keep_row)

    def append(self, text: str, durable: bool) -> None:
        """Append ``text`` -- whole, newline-terminated lines.  A crash
        mid-write can leave a torn last line with no newline; it is
        terminated first, so ``text`` cannot glue onto it and make both
        unreadable.  ``durable`` flushes and fsyncs before returning, so a
        crash after return cannot lose the lines."""
        if not text:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    text = "\n" + text
            handle.write(text.encode("utf-8"))
            if durable:
                handle.flush()
                os.fsync(handle.fileno())

    def rewrite(self, lines: Iterable[str]) -> None:
        """Atomically and durably replace the file, one line per item."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".merge-tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


def _identity(stat: os.stat_result) -> Tuple[int, ...]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _keep_row(rows: List[Dict[str, Any]], line_no: int,
              row: Optional[Dict[str, Any]]) -> None:
    if row is not None:
        rows.append(row)


class CampaignStore:
    """Append-only JSONL store of :class:`CellRecord` lines.

    Resource attribution lives in a *sidecar* file next to the main store
    (``campaign.resources.jsonl`` for ``campaign.jsonl``): cell records are
    deliberately timestamp-free so a resumed campaign's store is
    byte-identical to an uninterrupted one, and wall time / peak RSS are
    exactly the nondeterminism that invariant excludes.  The sidecar is
    append-only observability data -- consumers take the latest row per
    ``(scenario, cell_key)`` -- and losing it never affects resume.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.load_stats = StoreLoadStats()
        self.log = JsonlTail(self.path)
        self.resources_log = JsonlTail(self.resources_path)

    @property
    def resources_path(self) -> Path:
        return self.path.with_name(self.path.stem + ".resources.jsonl")

    def append_resources(self, rows: Sequence[Dict[str, Any]]) -> None:
        """Append per-cell resource rows to the sidecar (not fsynced: the
        sidecar is observability data, not campaign state)."""
        self.resources_log.append(
            "".join(canonical_json(row) + "\n" for row in rows),
            durable=False,
        )

    def load_resources(self) -> List[Dict[str, Any]]:
        """All readable sidecar rows, in append order (torn lines skipped).
        Like :meth:`load`, a reused instance parses only the rows appended
        since its last call; each call returns its own list."""
        return self.resources_log.rows()

    def load(self) -> Dict[RecordKey, CellRecord]:
        """Record index, latest record per key winning.  The first call on
        an instance parses the whole file, later ones only what was
        appended since (:class:`JsonlTail`); each returns its own dict.
        Unparseable lines (torn trailing write from a crash) are skipped,
        warned about when first parsed, and counted in :attr:`load_stats`,
        which always describes the whole file."""
        index, self.load_stats = self.log.fold(
            self._fresh, self._fold_line,
            lambda state: (dict(state[0]), replace(state[1])))
        return index

    def _fresh(self) -> Tuple[Dict[RecordKey, CellRecord], StoreLoadStats]:
        self._warned = 0  # last line number warned about
        return {}, StoreLoadStats()

    def _fold_line(self, state, line_no: int,
                   row: Optional[Dict[str, Any]]) -> None:
        index, stats = state
        stats.lines += 1
        try:
            record = CellRecord.from_dict(row)
        except (KeyError, TypeError):
            stats.torn_lines += 1
            if line_no > self._warned:
                self._warned = line_no
                warnings.warn(
                    f"{self.path}:{line_no}: skipping unreadable record "
                    "(torn write from an interrupted campaign?)",
                    stacklevel=4,
                )
            return
        stats.records += 1
        index[record.key] = record

    def append(self, records: Sequence[CellRecord]) -> None:
        """Append one shard's records, fsynced so a crash after return
        cannot lose them (a crash *during* leaves at most one torn line)."""
        if not records:
            return
        payload = "".join(record.line + "\n" for record in records)
        # REPRO_FAULT_INJECT's crash points: exit before writing, after a
        # durable append (records kept, cleanup lost), or after a torn one --
        # half the first record, no newline, as a crash mid-write leaves.
        fault = counted_fault("store_append",
                              ("kill_after", "kill_before", "torn_write"))
        if fault == "kill_before":
            os._exit(FAULT_EXIT_CODE)
        if fault == "torn_write":
            first = payload.split("\n", 1)[0]
            payload = first[: max(1, len(first) // 2)]
        self.log.append(payload, durable=True)
        if fault is not None:
            os._exit(FAULT_EXIT_CODE)


def as_store(store: "CampaignStore | Path | str") -> CampaignStore:
    """``store`` itself, or a fresh :class:`CampaignStore` at that path."""
    return store if isinstance(store, CampaignStore) else CampaignStore(store)


@dataclass
class CampaignResult:
    """Accounting for one campaign pass."""

    compiled: List[CompiledScenario]
    records: List[CellRecord] = field(default_factory=list)
    executed_cells: int = 0
    skipped_cells: int = 0
    failed_cells: int = 0
    interrupted: bool = False
    interrupt_signum: Optional[int] = None

    @property
    def total_cells(self) -> int:
        return sum(len(c.cells) for c in self.compiled)

    def summary_line(self) -> str:
        line = (
            f"cells={self.total_cells} executed={self.executed_cells} "
            f"skipped={self.skipped_cells} failed={self.failed_cells}"
        )
        # A suffix only when relevant: the base four tokens are a stable
        # grep surface for tests and CI.
        if self.interrupted:
            line += " interrupted"
        return line


def _settle(
    compiled: CompiledScenario,
    cell: Cell,
    key: RecordKey,
    runs: Sequence[Any],
    provenance: Tuple[Optional[str], str],
) -> CellRecord:
    summary = summarize_cell(cell, runs)
    sha, version = provenance
    return CellRecord(
        scenario=compiled.scenario.name,
        scenario_hash=key[0],
        cell_key=cell.key,
        component=cell.group,
        tokens=key[1],
        status=summary["status"],
        metrics=summary["metrics"],
        failures=tuple(summary["failures"]),
        git_sha=sha,
        version=version,
        fidelity=cell.specs[0].fidelity if cell.specs else "packet",
    )


def _notify(scenario_name: str, cell_key: str, status: str) -> None:
    telemetry = get_active()
    if telemetry is not None:
        telemetry.on_campaign_cell(scenario_name, cell_key, status)


def _cell_resources(
    record: CellRecord, attribution: Sequence[Any], sha: Optional[str]
) -> Dict[str, Any]:
    """Aggregate one cell's per-spec attribution into a sidecar row."""
    attrs = [a for a in attribution if a is not None]
    wall = sum(a.wall_seconds for a in attrs if a.wall_seconds is not None)
    events = sum(a.events for a in attrs if a.events is not None)
    rss_values = [a.max_rss_kb for a in attrs if a.max_rss_kb is not None]
    return {
        "scenario": record.scenario,
        "cell_key": record.cell_key,
        "status": record.status,
        "wall_seconds": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "max_rss_kb": max(rss_values) if rss_values else None,
        "cache_hits": sum(1 for a in attrs if a.source == "cache"),
        "executed_specs": sum(1 for a in attrs if a.source == "run"),
        "failed_specs": sum(1 for a in attrs if a.source == "failed"),
        "git_sha": sha,
    }


PendingCell = Tuple[CompiledScenario, Cell, RecordKey]


def _iter_cells(compiled: Sequence[CompiledScenario]) -> Iterator[PendingCell]:
    """Cells in deterministic scenario-order x cell-order, each with its
    record key; a scenario's content hash is computed once, here, and
    travels in the key from then on."""
    for comp in compiled:
        scenario_hash = comp.scenario.content_hash()
        for cell in comp.cells:
            yield comp, cell, (scenario_hash, tuple(cell.tokens()))


REPLAY_SHARD_SPECS = 256
"""Most specs a shard holds once cached cells ride along in it.  It bounds
the results held at once (about 2.7x a ``jobs=8``, three-seed shard), and
at 256 specs an append is already under 3 % of the shard's replay time, so
no caller needs another value."""


def _shards(
    pending: Iterable[PendingCell], executor: Executor,
) -> Iterator[List[PendingCell]]:
    """Cut ``pending`` into shards, in order, by the work a kill would
    forfeit rather than by a cell count.

    A shard closes after ``jobs x 4`` cells that need simulating: enough to
    keep the pool saturated, few enough that a kill before the append
    forfeits little.  A cell whose every spec is already in the result
    cache (:meth:`Executor.cached`) costs a fraction of a millisecond to
    redo, so it rides along in the open shard until that holds
    :data:`REPLAY_SHARD_SPECS` specs.  With the cache off or cold every
    cell needs simulating and the shards are ``pending`` in slices of
    ``jobs x 4``.

    Cells are probed as their shard is built, just before it runs: one
    ``stat`` per cached spec (:meth:`ResultCache.has`), never a read.  A
    probe that goes stale only means the cell simulates inside a larger
    shard.  The cached cell that closes a shard opens the next one.
    """
    at_risk_limit = max(1, executor.jobs) * 4
    shard: List[PendingCell] = []
    at_risk = n_specs = 0
    for item in pending:
        specs = item[1].specs
        rides_along = all(executor.cached(spec) for spec in specs)
        if rides_along and shard and n_specs + len(specs) > REPLAY_SHARD_SPECS:
            yield shard
            shard, at_risk, n_specs = [], 0, 0
        shard.append(item)
        n_specs += len(specs)
        if not rides_along:
            at_risk += 1
            if at_risk == at_risk_limit:
                yield shard
                shard, at_risk, n_specs = [], 0, 0
    if shard:
        yield shard


def _execute_shard(
    executor: Executor,
    shard: Sequence[PendingCell],
    provenance: Tuple[Optional[str], str],
    result: CampaignResult,
    progress: Optional[Any],
) -> Tuple[List[CellRecord], List[Dict[str, Any]]]:
    """Execute one shard through the executor and settle its records
    (store appends are the caller's job)."""
    cells = [cell for _, cell, _ in shard]
    outcomes = executor.run([spec for cell in cells for spec in cell.specs])
    shard_records: List[CellRecord] = []
    shard_resources: List[Dict[str, Any]] = []
    for (comp, cell, key), runs, cell_attrs in zip(
        shard,
        split_by_cell(cells, outcomes),
        split_by_cell(cells, executor.last_run_attribution),
    ):
        record = _settle(comp, cell, key, runs, provenance)
        shard_records.append(record)
        result.records.append(record)
        result.executed_cells += 1
        if record.status == "failed":
            result.failed_cells += 1
        resources = _cell_resources(record, cell_attrs, provenance[0])
        shard_resources.append(resources)
        if progress is not None:
            progress.cell_done(
                "ok" if record.status == "ok" else "failed",
                wall_seconds=resources["wall_seconds"] or None,
                events=resources["events"] or None,
            )
        _notify(comp.scenario.name, cell.key, record.status)
    return shard_records, shard_resources


def _run(
    result: CampaignResult,
    store: CampaignStore,
    executor: Executor,
    max_cells: Optional[int],
    progress: Optional[Any],
    shutdown: Optional[Any],
) -> None:
    """The campaign loop.  It loads the store once and accounts the cells
    already ``ok`` there as skipped; then it cuts the first ``max_cells``
    remaining cells into shards (:func:`_shards`) and executes and appends
    each in turn.  The shutdown latch is polled before each shard, so an
    interrupted pass stops with every shard it started appended.
    """
    from .. import __version__

    provenance = (git_sha(), __version__)
    index = store.load()
    pending: List[PendingCell] = []
    skipped: List[Tuple[str, str]] = []
    for item in _iter_cells(result.compiled):
        record = index.get(item[2])
        if record is not None and record.status == "ok":
            result.records.append(record)
            result.skipped_cells += 1
            skipped.append((item[0].scenario.name, item[1].key))
        else:
            pending.append(item)
    if max_cells is not None:
        del pending[max_cells:]
    if progress is not None:
        progress.add_total(len(skipped) + len(pending))
        for _ in skipped:
            progress.cell_done("skipped")
    for name, cell_key in skipped:
        _notify(name, cell_key, "skipped")
    shards = _shards(pending, executor)
    while True:
        if shutdown is not None and shutdown.requested:
            # Records the interruption so the CLI can exit 128 + signum.
            result.interrupted = True
            result.interrupt_signum = shutdown.signum
            return
        shard = next(shards, None)
        if shard is None:
            return
        shard_records, shard_resources = _execute_shard(
            executor, shard, provenance, result, progress
        )
        store.append(shard_records)
        store.append_resources(shard_resources)


def run_campaign(
    scenarios: Sequence[Scenario],
    store: "CampaignStore | Path | str" = DEFAULT_STORE,
    executor: Optional[Executor] = None,
    max_cells: Optional[int] = None,
    progress: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    fidelity: Optional[str] = None,
) -> CampaignResult:
    """Run (or resume) a campaign over ``scenarios``.

    ``fidelity`` overrides every scenario's engine fidelity at compile time
    (``"packet"``/``"fluid"``; see :func:`~.compile.compile_scenario` for
    the resolution order).  Because fidelity is part of each spec's token,
    packet and fluid passes of the same scenario settle *distinct* store
    cells -- a hybrid campaign can hold both side by side.

    Cells already settled ``"ok"`` in the store are skipped; gaps and failed
    cells execute, sharded across the executor's pool, and each finished
    shard is appended to the store before the next begins -- killing the
    process between shards loses nothing.  ``max_cells`` bounds how many
    pending cells this pass executes (the deterministic "kill after N
    cells" used by the resume tests); the next run picks up the rest.

    The store has one writer: this pass.  To spread a campaign over
    several hosts, give each its own store and join them afterwards with
    :func:`~repro.scenarios.coordination.merge_stores`.

    ``shutdown`` is an optional latch with ``requested``/``signum``
    attributes (see :class:`~repro.scenarios.coordination.GracefulShutdown`)
    polled between shards: on SIGINT/SIGTERM the in-flight shard is
    finished and appended, and ``result.interrupted`` set
    so the CLI can exit ``128 + signum`` with the store fully resumable.

    ``progress`` is an optional
    :class:`~repro.telemetry.progress.ProgressReporter` fed one unit per
    *cell* (skipped / ok / failed, with each executed cell's wall time and
    event count); the caller owns ``close()``.  When span tracing is
    active the whole pass records a ``campaign`` span with per-scenario
    compile spans and the executor's grid/cell spans nested inside.
    Executed cells' resource attribution (wall seconds, events, peak RSS,
    cache hits) is appended to the store's resources sidecar per shard.
    """
    store = as_store(store)
    executor = executor or get_default_executor()
    with maybe_span("campaign", kind="campaign", scenarios=len(scenarios)):
        compiled = []
        for scenario in scenarios:
            with maybe_span("compile", kind="scenario",
                            scenario=scenario.name):
                compiled.append(compile_scenario(scenario, fidelity=fidelity))
        result = CampaignResult(compiled=compiled)
        _run(result, store, executor, max_cells, progress, shutdown)
    return result


# ---------------------------------------------------------------- reporting


def outcome_tallies(
    records: Iterable[CellRecord],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Cells by status and terminal run failures by kind (``unknown`` for
    a failure that names none), the tallies both store reports print."""
    status_counts: Dict[str, int] = {}
    failure_kinds: Dict[str, int] = {}
    for record in records:
        status_counts[record.status] = status_counts.get(record.status, 0) + 1
        for failure in record.failures:
            kind = failure.get("kind", "unknown")
            failure_kinds[kind] = failure_kinds.get(kind, 0) + 1
    return status_counts, failure_kinds


def render_store_report(
    store: "CampaignStore | Path | str",
    scenarios: Optional[Sequence[Scenario]] = None,
) -> str:
    """Render per-scenario cell tables straight from the store -- no
    simulation, no cache.  With ``scenarios`` given, only their current
    content-hashes are reported (stale records from edited scenario files
    are ignored); otherwise everything in the store is shown.
    """
    store = as_store(store)
    index = store.load()
    if scenarios is not None:
        wanted = {s.content_hash() for s in scenarios}
        records = [r for r in index.values() if r.scenario_hash in wanted]
    else:
        records = list(index.values())
    if not records:
        return f"# no campaign records in {store.path}"

    from ..experiments.report import format_table

    by_scenario: Dict[str, List[CellRecord]] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)

    # Aggregate counters in the telemetry registry's naming: cell outcomes
    # and terminal run-failure kinds across every reported record.
    status_counts, failure_kinds = outcome_tallies(records)
    counter_lines = [
        f'campaign_cells_total{{status="{status}"}} {count}'
        for status, count in sorted(status_counts.items())
    ] + [
        f'run_failures_total{{kind="{kind}"}} {count}'
        for kind, count in sorted(failure_kinds.items())
    ]
    if store.load_stats.torn_lines:
        counter_lines.append(
            f"campaign_store_torn_lines_total {store.load_stats.torn_lines}"
        )

    sections = ["# counters\n" + "\n".join(counter_lines)]
    for name in sorted(by_scenario):
        group = sorted(by_scenario[name], key=lambda r: r.cell_key)
        metric_names = sorted({m for r in group for m in r.metrics})
        rows = []
        for record in group:
            rows.append(
                [record.cell_key, record.status]
                + [
                    f"{record.metrics[m]:.6g}" if m in record.metrics else "-"
                    for m in metric_names
                ]
            )
        sections.append(
            format_table(
                ["cell", "status"] + metric_names,
                rows,
                title=f"scenario {name} ({len(group)} cells)",
            )
        )
    return "\n\n".join(sections)
