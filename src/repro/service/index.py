"""Store discovery and revalidation for the results service.

The index is the daemon's only path to disk.  A store is loaded (read,
fingerprinted, its sidecar read) at most once per *content change*: the
index keeps one :class:`~repro.scenarios.campaign.CampaignStore` per name
and asks its two logs on every request whether the store or its
``.resources.jsonl`` sidecar changed since that load
(:meth:`~repro.scenarios.campaign.JsonlTail.changed`: one ``stat(2)`` per
file, no reads, the identity the log's reader resumes by).
Appends by concurrent ``--shared`` writers change it, so fresh cells
become visible on the next request without restarting the daemon, and
that load parses and serialises only the appended lines; a replaced or
shrunken file is parsed again in full.  A change that leaves both folds
with nothing new (a ``touch``, a rename in place) keeps the entry: no
re-sort, no re-fingerprint, no load counted
(:attr:`~repro.scenarios.campaign.JsonlTail.grew`).

The ``service_store_loads_total`` counter increments only on an actual
load, which is how tests assert that warm queries do zero store reads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..scenarios.campaign import CampaignStore, CellRecord
from ..scenarios.coordination import canonical_sort_key, fingerprint_records

__all__ = ["StoreEntry", "StoreIndex"]

_SIDECAR_SUFFIXES = (".resources.jsonl", ".leases.jsonl")


@dataclass
class StoreEntry:
    """One discovered store, parsed and fingerprinted.

    ``etag_seed`` is the hex SHA-256 of the canonical fingerprint bytes --
    the content-hash seed every response ``ETag`` for this store derives
    from, so the ETag flips exactly when the settled cells change.
    """

    name: str
    path: Path
    records: List[CellRecord]
    resources: List[dict]
    fingerprint: bytes
    etag_seed: str
    torn_lines: int


class StoreIndex:
    """Discover, cache and revalidate campaign stores under ``root``.

    Store names are sidecar-free ``*.jsonl`` paths relative to ``root``
    without the suffix (``sweeps/fig10`` for ``root/sweeps/fig10.jsonl``).
    Thread-safe: the daemon's handler threads share one index.
    """

    def __init__(self, root, telemetry=None) -> None:
        self.root = Path(root)
        self.telemetry = telemetry
        self.store_loads = 0
        self._entries: Dict[str, StoreEntry] = {}
        self._stores: Dict[str, CampaignStore] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ discovery

    def discover(self) -> List[str]:
        """Names of every store currently under ``root`` (sorted).  Scans
        the directory tree each call, so stores created after startup
        appear without a restart."""
        names: List[str] = []
        if not self.root.is_dir():
            return names
        for path in sorted(self.root.rglob("*.jsonl")):
            if any(path.name.endswith(s) for s in _SIDECAR_SUFFIXES):
                continue
            names.append(
                path.relative_to(self.root).as_posix()[: -len(".jsonl")]
            )
        return names

    # ----------------------------------------------------------- validation

    def _path_of(self, name: str) -> Optional[Path]:
        if not name or name.startswith(("/", "\\")) or ".." in name.split("/"):
            return None
        return self.root / (name + ".jsonl")

    def get(self, name: str) -> Optional[StoreEntry]:
        """Current entry for ``name``, reloading only when its store says
        it (or its sidecar) changed; ``None`` for unknown or path-escaping
        names."""
        path = self._path_of(name)
        if path is None or not path.is_file():
            return None
        store = self._stores.get(name)
        if store is None:  # racing threads still end up sharing one
            store = self._stores.setdefault(name, CampaignStore(path))
        with self._lock:
            entry = self._entries.get(name)
            logs = (store.log, store.resources_log)
            if entry is not None and not any(log.changed() for log in logs):
                return entry
            # A writer appending during the load leaves the store changed
            # since the identity the load began from, so the next request
            # loads again -- never stale forever.
            index = store.load()
            resources = store.load_resources()
            if entry is not None and not any(log.grew for log in logs):
                return entry  # touched or renamed in place: no new line
            records = sorted(index.values(), key=canonical_sort_key)
            fingerprint = fingerprint_records(records)
            entry = StoreEntry(
                name=name,
                path=path,
                records=records,
                resources=resources,
                fingerprint=fingerprint,
                etag_seed=hashlib.sha256(fingerprint).hexdigest(),
                torn_lines=store.load_stats.torn_lines,
            )
            self._entries[name] = entry
            self.store_loads += 1
            if self.telemetry is not None:
                self.telemetry.registry.counter(
                    "service_store_loads_total"
                ).inc()
            return entry

    def entries(self) -> List[StoreEntry]:
        """Current entries for every discovered store."""
        found = []
        for name in self.discover():
            entry = self.get(name)
            if entry is not None:
                found.append(entry)
        return found
