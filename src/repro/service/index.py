"""Store discovery and stat-probe revalidation for the results service.

The index is the daemon's only path to disk.  A store is loaded (read,
fingerprinted, its sidecar read) at most once per *content change*: every
request re-stats the store and its ``.resources.jsonl`` sidecar -- two
``stat(2)`` calls, no reads -- and reuses the cached entry whenever
``(mtime_ns, size)`` of both files are unchanged.  Appends by concurrent
``--shared`` writers bump the probe, so fresh cells become visible on the
next request without restarting the daemon -- and because the index keeps
one :class:`~repro.scenarios.campaign.CampaignStore` per name, that load
parses and serialises only the appended lines; a replaced or shrunken file
is parsed again in full.

The ``service_store_loads_total`` counter increments only on an actual
parse, which is how tests assert that warm queries do zero store reads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..scenarios.campaign import CampaignStore, CellRecord
from ..scenarios.coordination import canonical_sort_key, fingerprint_records

__all__ = ["StoreEntry", "StoreIndex"]

_SIDECAR_SUFFIXES = (".resources.jsonl", ".leases.jsonl")

Probe = Tuple[int, int, int, int]


def _probe_one(path: Path) -> Tuple[int, int]:
    try:
        stat = path.stat()
    except OSError:
        return (0, 0)
    return (stat.st_mtime_ns, stat.st_size)


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
    probe: Probe


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
        """Current entry for ``name``, reloading only when the stat probe
        says the store (or its sidecar) changed; ``None`` for unknown or
        path-escaping names."""
        path = self._path_of(name)
        if path is None or not path.is_file():
            return None
        store = self._stores.get(name)
        if store is None:  # racing threads still end up sharing one
            store = self._stores.setdefault(name, CampaignStore(path))
        probe: Probe = _probe_one(path) + _probe_one(store.resources_path)
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry.probe == probe:
                return entry
            # A writer appending between the probe and the load only makes
            # the cached entry *fresher* than its probe claims; the next
            # request's probe mismatch reloads -- never stale forever.
            index = store.load()
            records = sorted(index.values(), key=canonical_sort_key)
            fingerprint = fingerprint_records(records)
            entry = StoreEntry(
                name=name,
                path=path,
                records=records,
                resources=store.load_resources(),
                fingerprint=fingerprint,
                etag_seed=hashlib.sha256(fingerprint).hexdigest(),
                torn_lines=store.load_stats.torn_lines,
                probe=probe,
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
