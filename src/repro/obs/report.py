"""Build offline campaign dashboards (markdown and HTML).

Data sources -- all optional, all read-only, none trigger a simulation:

* a campaign store (``campaign.jsonl``): cell status, metrics, failures;
* its resource sidecar (``campaign.resources.jsonl``): per-cell wall
  time, simulated events, events/sec, peak RSS, cache hits (the latest
  row per ``(scenario, cell_key)`` wins -- the sidecar is append-only
  across campaign resumes);
* the perf ledger's trend file (``benchmarks/ledger/results/trend.jsonl``):
  one row per ``benchmarks/ledger/run.py`` run, keyed by commit.

The report renders the questions a campaign owner actually asks: where
did the wall time go (slowest cells, per-scheme breakdown), what failed
and why (status/kind tables), and is each ledger workload getting faster
or slower over commits (``run_s`` trend with a sparkline per workload).
"""

from __future__ import annotations

import html
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..scenarios.campaign import CampaignStore, JsonlTail
from ..scenarios.compile import scheme_of

__all__ = ["ObsReport", "build_report", "summarize_metricz"]

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}" if abs(value) < 1000 else f"{value:,.0f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline (empty string for no data)."""
    values = [v for v in values if v is not None]
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return SPARK_CHARS[3] * len(values)
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - low) / span * (len(SPARK_CHARS) - 1)))]
        for v in values
    )


def _trend_svg(values: Sequence[float], width: int = 480,
               height: int = 80) -> str:
    """Inline SVG polyline of the trend (self-contained, no scripts)."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 4 - (v - low) / span * (height - 8):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
        f'<polyline fill="none" stroke="#2a6" stroke-width="2" '
        f'points="{points}"/></svg>'
    )


@dataclass
class ObsReport:
    """Computed dashboard data plus the markdown/HTML renderers."""

    store_path: Optional[str] = None
    torn_lines: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    failed_cells: List[Dict[str, Any]] = field(default_factory=list)
    resources: List[Dict[str, Any]] = field(default_factory=list)
    scheme_rows: List[Dict[str, Any]] = field(default_factory=list)
    trend: List[Dict[str, Any]] = field(default_factory=list)
    service: Dict[str, Any] = field(default_factory=dict)
    top: int = 10

    # ------------------------------------------------------------- derived

    @property
    def total_cells(self) -> int:
        return sum(self.status_counts.values())

    @property
    def total_wall_seconds(self) -> float:
        return sum(r.get("wall_seconds") or 0.0 for r in self.resources)

    @property
    def total_events(self) -> int:
        return sum(r.get("events") or 0 for r in self.resources)

    def slowest_cells(self) -> List[Dict[str, Any]]:
        ranked = sorted(
            self.resources,
            key=lambda r: r.get("wall_seconds") or 0.0,
            reverse=True,
        )
        return ranked[: self.top]

    def trend_columns(self) -> List[str]:
        """Every ``<workload>.run_s`` key found in the trend rows."""
        return sorted(
            {key for row in self.trend for key in row
             if key.endswith(".run_s")}
        )

    # ------------------------------------------------------------ markdown

    def _md_table(self, headers: Sequence[str],
                  rows: Sequence[Sequence[Any]]) -> List[str]:
        def cell(value: Any) -> str:
            # Cell keys contain literal '|' separators; escape them so
            # they stay inside their markdown column.
            return _fmt(value).replace("|", "\\|")

        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(cell(v) for v in row) + " |")
        return lines

    def to_markdown(self) -> str:
        lines: List[str] = ["# Campaign observability report", ""]
        if self.store_path:
            lines += [f"Store: `{self.store_path}`", ""]

        lines += ["## Summary", ""]
        summary_rows = [
            ["cells", self.total_cells],
            *[[f"cells {status}", count]
              for status, count in sorted(self.status_counts.items())],
        ]
        if self.torn_lines:
            # Store damage deserves a prominent row: >1 torn line means
            # more than a single interrupted trailing write.
            summary_rows.append(["store torn lines (skipped)",
                                 self.torn_lines])
        if self.resources:
            wall = self.total_wall_seconds
            events = self.total_events
            summary_rows += [
                ["wall seconds (attributed)", round(wall, 2)],
                ["simulated events", events],
                ["events/sec (aggregate)",
                 round(events / wall, 1) if wall > 0 else None],
                ["peak RSS (KiB, max cell)",
                 max((r.get("max_rss_kb") or 0 for r in self.resources),
                     default=None)],
                ["cache hits (specs)",
                 sum(r.get("cache_hits") or 0 for r in self.resources)],
            ]
        lines += self._md_table(["metric", "value"], summary_rows) + [""]

        if self.resources:
            lines += ["## Slowest cells", ""]
            lines += self._md_table(
                ["scenario", "cell", "status", "wall s", "events", "ev/s",
                 "peak RSS KiB"],
                [
                    [r.get("scenario"), r.get("cell_key"), r.get("status"),
                     r.get("wall_seconds"), r.get("events"),
                     r.get("events_per_sec"), r.get("max_rss_kb")]
                    for r in self.slowest_cells()
                ],
            ) + [""]

        if self.scheme_rows:
            lines += ["## Per-scheme time breakdown", ""]
            lines += self._md_table(
                ["scheme", "cells", "wall s", "share %", "events", "ev/s"],
                [
                    [row["scheme"], row["cells"], round(row["wall"], 3),
                     round(row["share"] * 100, 1), row["events"],
                     round(row["events"] / row["wall"], 1)
                     if row["wall"] > 0 else None]
                    for row in self.scheme_rows
                ],
            ) + [""]

        lines += ["## Failures", ""]
        if not self.failed_cells and not self.failure_kinds:
            lines += ["No failed cells recorded.", ""]
        else:
            if self.failure_kinds:
                lines += self._md_table(
                    ["failure kind", "count"],
                    sorted(self.failure_kinds.items()),
                ) + [""]
            if self.failed_cells:
                lines += self._md_table(
                    ["scenario", "cell", "kinds"],
                    [
                        [c["scenario"], c["cell_key"], c["kinds"]]
                        for c in self.failed_cells
                    ],
                ) + [""]

        if self.service:
            lines += ["## Results service", ""]
            cache = self.service.get("cache", {})
            hits = cache.get("hits", 0)
            misses = cache.get("misses", 0)
            lookups = hits + misses
            lines += self._md_table(
                ["metric", "value"],
                [
                    ["uptime seconds",
                     round(self.service.get("uptime_seconds") or 0.0, 1)],
                    ["store loads (disk)", self.service.get("store_loads")],
                    ["summary-cache entries", cache.get("entries")],
                    ["summary-cache bytes", cache.get("bytes")],
                    ["summary-cache hits", hits],
                    ["summary-cache misses", misses],
                    ["summary-cache evictions", cache.get("evictions")],
                    ["summary-cache hit rate %",
                     round(hits / lookups * 100, 1) if lookups else None],
                ],
            ) + [""]
            requests = self.service.get("requests", [])
            if requests:
                lines += self._md_table(
                    ["endpoint", "status", "requests"],
                    [[r["endpoint"], r["status"], r["count"]]
                     for r in requests],
                ) + [""]

        lines += ["## Perf ledger trend", ""]
        if not self.trend:
            lines += ["No trend data (run `benchmarks/ledger/run.py`).", ""]
        else:
            columns = self.trend_columns()
            for column in columns:
                spark = sparkline([row.get(column) for row in self.trend])
                if spark:
                    lines += [f"`{spark}` {column} (oldest → newest)", ""]
            lines += self._md_table(
                ["commit", "python", "host", "quick", *columns],
                [
                    [
                        (row.get("git_sha") or "-")[:12],
                        row.get("python"), row.get("host"), row.get("quick"),
                        *[row.get(column) for column in columns],
                    ]
                    for row in self.trend
                ],
            ) + [""]
        return "\n".join(lines)

    # ---------------------------------------------------------------- html

    def to_html(self) -> str:
        """Standalone HTML page: the markdown content as real tables plus
        an inline-SVG trend chart.  No scripts, no external assets."""
        md = self.to_markdown()
        body: List[str] = []
        table: List[str] = []

        def flush_table() -> None:
            if not table:
                return
            body.append("<table>")
            for i, row_line in enumerate(table):
                cells = [
                    c.strip().replace("\\|", "|")
                    for c in re.split(r"(?<!\\)\|", row_line.strip("|"))
                ]
                tag = "th" if i == 0 else "td"
                body.append(
                    "<tr>" + "".join(
                        f"<{tag}>{html.escape(c)}</{tag}>" for c in cells
                    ) + "</tr>"
                )
            body.append("</table>")
            table.clear()

        for line in md.splitlines():
            if line.startswith("|"):
                if set(line.replace("|", "").replace("-", "").strip()) == set():
                    continue  # the |---|---| separator row
                table.append(line)
                continue
            flush_table()
            if line.startswith("## "):
                body.append(f"<h2>{html.escape(line[3:])}</h2>")
            elif line.startswith("# "):
                body.append(f"<h1>{html.escape(line[2:])}</h1>")
            elif line.strip():
                body.append(f"<p>{html.escape(line)}</p>")
        flush_table()

        for column in self.trend_columns():
            svg = _trend_svg([row.get(column) for row in self.trend])
            if svg:
                body.append(f"<h2>Trend: {html.escape(column)}</h2>")
                body.append(svg)

        style = (
            "body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}"
            "table{border-collapse:collapse;margin:1em 0}"
            "th,td{border:1px solid #ccc;padding:0.3em 0.7em;"
            "text-align:left;font-variant-numeric:tabular-nums}"
            "th{background:#f4f4f4}"
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>Campaign observability report</title>"
            f"<style>{style}</style></head><body>"
            + "\n".join(body) + "</body></html>\n"
        )


def _parse_series_key(key: str) -> "tuple[str, Dict[str, str]]":
    """Split a registry series key (``name{k=v,k2=v2}``) into name + labels."""
    if "{" not in key:
        return key, {}
    name, rest = key.split("{", 1)
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if "=" in pair:
            label, value = pair.split("=", 1)
            labels[label] = value
    return name, labels


def summarize_metricz(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Distill a ``/metricz`` dump into the report's service section:
    cache stats verbatim plus per-endpoint request counts parsed out of
    the ``service_requests_total`` counter series."""
    counters = payload.get("metrics", {}).get("counters", {})
    requests: List[Dict[str, Any]] = []
    for key, count in sorted(counters.items()):
        name, labels = _parse_series_key(key)
        if name != "service_requests_total":
            continue
        requests.append({
            "endpoint": labels.get("endpoint", "-"),
            "status": labels.get("status", "-"),
            "count": count,
        })
    return {
        "cache": payload.get("cache", {}),
        "store_loads": payload.get("store_loads"),
        "uptime_seconds": payload.get("uptime_seconds"),
        "requests": requests,
    }


def build_report(
    store: "Path | str | None" = None,
    resources: "Path | str | None" = None,
    trend: "Path | str | None" = None,
    metricz: "Path | str | None" = None,
    top: int = 10,
) -> ObsReport:
    """Assemble an :class:`ObsReport` from whichever inputs exist.

    ``resources`` defaults to the store's sidecar path.  ``metricz`` is a
    JSON dump of the results daemon's ``/metricz`` endpoint.  Every input
    is optional; missing files yield empty report sections rather than
    errors, so one command works for a store-only or trend-only setup.
    """
    report = ObsReport(top=top)

    if metricz is not None:
        path = Path(metricz)
        if path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except ValueError:
                payload = {}
            if isinstance(payload, dict) and payload:
                report.service = summarize_metricz(payload)

    records: List[Dict[str, Any]] = []
    if store is not None:
        campaign_store = CampaignStore(store)
        report.store_path = str(campaign_store.path)
        index = campaign_store.load()
        report.torn_lines = campaign_store.load_stats.torn_lines
        records = [record.to_dict() for record in index.values()]
        if resources is None:
            resources = campaign_store.resources_path

    for record in records:
        status = record["status"]
        report.status_counts[status] = (
            report.status_counts.get(status, 0) + 1
        )
        kinds = []
        for failure in record.get("failures", []):
            kind = failure.get("kind", "unknown")
            kinds.append(kind)
            report.failure_kinds[kind] = (
                report.failure_kinds.get(kind, 0) + 1
            )
        if status == "failed":
            report.failed_cells.append({
                "scenario": record["scenario"],
                "cell_key": record["cell_key"],
                "kinds": ",".join(sorted(set(kinds))) or "-",
            })

    if resources is not None:
        latest: Dict[tuple, Dict[str, Any]] = {}
        for row in JsonlTail(resources).rows():
            latest[(row.get("scenario"), row.get("cell_key"))] = row
        report.resources = list(latest.values())

    if report.resources:
        by_scheme: Dict[str, Dict[str, Any]] = {}
        for row in report.resources:
            # a key without a scheme falls back to the row's component
            scheme = (scheme_of(row.get("cell_key", ""))
                      or row.get("component", "") or "-")
            bucket = by_scheme.setdefault(
                scheme, {"scheme": scheme, "cells": 0, "wall": 0.0,
                         "events": 0}
            )
            bucket["cells"] += 1
            bucket["wall"] += row.get("wall_seconds") or 0.0
            bucket["events"] += row.get("events") or 0
        total_wall = sum(b["wall"] for b in by_scheme.values()) or 1.0
        for bucket in by_scheme.values():
            bucket["share"] = bucket["wall"] / total_wall
        report.scheme_rows = sorted(
            by_scheme.values(), key=lambda b: b["wall"], reverse=True
        )

    if trend is not None:
        rows = JsonlTail(trend).rows()
        rows.sort(key=lambda r: r.get("unix_time") or 0.0)
        report.trend = rows

    return report
