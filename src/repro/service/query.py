"""The results-service query engine: filter, aggregate, render.

A query selects settled campaign cells by scenario / scheme / metric /
fidelity / spec-token / status, then either returns the matching
``(cell, metric, value)`` rows verbatim (``mode=cells``) or groups them by
``(scenario, scheme, metric)`` and aggregates with the repo's one true
percentile definition from :mod:`repro.core.stats_util`
(``mode=summary``, the default).

Everything here is deterministic: the canonical form of a query hashes
stably (the summary-cache key), and both renderers emit byte-identical
output for identical inputs (the byte-correctness the concurrent-serving
tests assert).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from ..core.stats_util import mean_or_none, percentile_or_none
from ..scenarios.campaign import CellRecord
from ..scenarios.compile import scheme_of

__all__ = [
    "FORMATS",
    "Query",
    "QueryError",
    "render",
    "run_query",
    "scheme_of",
]

FORMATS = ("json", "csv")

_STATUSES = ("ok", "failed", "any")
_MODES = ("summary", "cells")
_FIELDS = ("store", "scenario", "scheme", "metric", "fidelity", "token",
           "status", "mode")

_CELL_COLUMNS = ("store", "scenario", "cell_key", "component", "scheme",
                 "fidelity", "status", "metric", "value")
_SUMMARY_COLUMNS = ("scenario", "scheme", "metric", "count", "mean", "p50",
                    "p95", "p99", "min", "max")


class QueryError(ValueError):
    """A malformed query (unknown parameter or value) -- HTTP 400."""


@dataclass(frozen=True)
class Query:
    """One normalized query.  Empty string means "don't filter" (except
    ``status``, whose default is ``ok`` -- failed cells carry no metrics,
    so serving them by default would only pollute aggregates)."""

    store: str = ""
    scenario: str = ""
    scheme: str = ""
    metric: str = ""
    fidelity: str = ""
    token: str = ""
    status: str = "ok"
    mode: str = "summary"

    @classmethod
    def from_params(cls, params: Dict[str, str]) -> "Query":
        unknown = sorted(set(params) - set(_FIELDS) - {"format"})
        if unknown:
            raise QueryError(f"unknown query parameters: {unknown}")
        values = {name: params.get(name, "") for name in _FIELDS}
        values["status"] = values["status"] or "ok"
        values["mode"] = values["mode"] or "summary"
        if values["status"] not in _STATUSES:
            raise QueryError(
                f"status must be one of {_STATUSES}, got {values['status']!r}"
            )
        if values["mode"] not in _MODES:
            raise QueryError(
                f"mode must be one of {_MODES}, got {values['mode']!r}"
            )
        return cls(**values)

    def canonical(self) -> Dict[str, str]:
        """Every field, defaults included -- the hashed form."""
        return {name: getattr(self, name) for name in _FIELDS}

    def query_hash(self) -> str:
        """Stable 16-hex-digit digest of the canonical form: half of the
        summary-cache key (the other half is the store fingerprint)."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------- matching

    def matches(self, record: CellRecord) -> bool:
        if self.scenario and record.scenario != self.scenario:
            return False
        if self.scheme and scheme_of(record.cell_key) != self.scheme:
            return False
        if self.fidelity and record.fidelity != self.fidelity:
            return False
        if self.status != "any" and record.status != self.status:
            return False
        if self.token and not any(self.token in t for t in record.tokens):
            return False
        return True


def _matches(
    records: Iterable[CellRecord], query: Query
) -> Iterator[Tuple[CellRecord, str, Any]]:
    """The one pass over the records: every matching ``(record, metric
    name, value)``, records in order, each record's metrics by name."""
    metric = query.metric
    for record in records:
        if not query.matches(record):
            continue
        metrics = record.metrics
        if metric:
            if metric in metrics:
                yield record, metric, metrics[metric]
        else:
            for name in sorted(metrics):
                yield record, name, metrics[name]


def _cell_rows(
    records: Iterable[CellRecord], query: Query, store: str = ""
) -> List[Dict[str, object]]:
    return [
        {
            "store": store,
            "scenario": record.scenario,
            "cell_key": record.cell_key,
            "component": record.component,
            "scheme": scheme_of(record.cell_key),
            "fidelity": record.fidelity,
            "status": record.status,
            "metric": name,
            "value": value,
        }
        for record, name, value in _matches(records, query)
    ]


def _summarize(
    records: Iterable[CellRecord], query: Query
) -> Tuple[List[Dict[str, object]], int]:
    """Summaries per ``(scenario, scheme, metric)`` and the number of
    ``(cell, metric)`` values they aggregate, grouped in the one pass."""
    groups: Dict[tuple, List[float]] = {}
    for record, name, value in _matches(records, query):
        key = (record.scenario, scheme_of(record.cell_key), name)
        groups.setdefault(key, []).append(float(value))
    summaries = []
    for scenario, scheme, metric in sorted(groups):
        values = groups[(scenario, scheme, metric)]
        summaries.append({
            "scenario": scenario,
            "scheme": scheme,
            "metric": metric,
            "count": len(values),
            "mean": mean_or_none(values),
            "p50": percentile_or_none(values, 50.0),
            "p95": percentile_or_none(values, 95.0),
            "p99": percentile_or_none(values, 99.0),
            "min": min(values),
            "max": max(values),
        })
    return summaries, sum(len(values) for values in groups.values())


def run_query(
    records: Iterable[CellRecord],
    query: Query,
    store: str = "",
) -> Dict[str, object]:
    """Execute ``query`` over already-loaded ``records``.

    Returns a JSON-serializable result: the canonical query echoed back,
    plus ``cells`` rows or ``summaries`` groups depending on the mode."""
    result: Dict[str, object] = {
        "query": query.canonical(),
        "mode": query.mode,
    }
    if query.mode == "cells":
        rows = _cell_rows(records, query, store=store)
        result["cells"] = rows
        result["count"] = len(rows)
    else:
        summaries, matched = _summarize(records, query)
        result["summaries"] = summaries
        result["count"] = len(summaries)
        result["cells_matched"] = matched
    return result


# ------------------------------------------------------------------ render

def render(result: Dict[str, object], fmt: str) -> bytes:
    """Serialize a :func:`run_query` result deterministically.

    ``json`` is compact sorted-key JSON + trailing newline; ``csv`` is the
    row table (cells or summaries) with a fixed header."""
    if fmt == "json":
        text = json.dumps(result, sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        if result["mode"] == "cells":
            columns, rows = _CELL_COLUMNS, result["cells"]
        else:
            columns, rows = _SUMMARY_COLUMNS, result["summaries"]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c]
                             for c in columns])
        return buffer.getvalue().encode("utf-8")
    raise QueryError(f"format must be one of {FORMATS}, got {fmt!r}")
