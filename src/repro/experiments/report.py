"""Plain-text tables and series, in the shape the paper reports them.

The benchmark harness prints one table per paper table/figure; these helpers
keep the formatting consistent (fixed-width columns, microsecond units,
normalized ratios with the baseline pinned at 1.00).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "fmt_us",
    "fmt_ratio",
    "fmt_opt",
    "format_manifest",
    "format_failure_table",
    "format_trace_summary",
    "to_json",
    "to_csv",
]


def fmt_us(seconds: Optional[float]) -> str:
    """Seconds -> microseconds string (the paper's FCT unit)."""
    if seconds is None:
        return "-"
    return f"{seconds * 1e6:,.0f}"


def fmt_ratio(value: Optional[float]) -> str:
    """Normalized-FCT ratio (1.00 = baseline)."""
    if value is None:
        return "-"
    return f"{value:.2f}"


def fmt_opt(value: Optional[float], spec: str = ".2f") -> str:
    """Generic optional-float formatting."""
    if value is None:
        return "-"
    return format(value, spec)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def to_json(payload: object, path: Optional[str] = None) -> str:
    """Serialize ``payload`` as stable, human-diffable JSON (sorted keys,
    2-space indent, trailing newline).  Writes to ``path`` when given;
    always returns the serialized text."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def to_csv(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    path: Optional[str] = None,
) -> str:
    """Serialize a header + rows table as CSV.  Writes to ``path`` when
    given; always returns the serialized text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        writer.writerow(list(row))
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def format_manifest(manifest) -> str:
    """One-line provenance stamp for a :class:`~repro.telemetry.RunManifest`.

    Example::

        run_star_fct seed=21 scheme=EcnSharp sha=f0b27c3 events=1,204,551 wall=2.1s
    """
    parts = [manifest.experiment]
    if manifest.seed is not None:
        parts.append(f"seed={manifest.seed}")
    scheme = manifest.params.get("scheme")
    if scheme:
        parts.append(f"scheme={scheme}")
    if manifest.git_sha:
        parts.append(f"sha={manifest.git_sha[:7]}")
    if manifest.events is not None:
        parts.append(f"events={manifest.events:,}")
    if manifest.wall_seconds is not None:
        parts.append(f"wall={manifest.wall_seconds:.1f}s")
    return " ".join(parts)


def format_failure_table(failures: Sequence[object]) -> str:
    """Render the executor's :class:`RunFailure` records as a table.

    One row per failed cell: the spec token, the failure kind (exception /
    stall / timeout), how many runs it took, and the exception headline.  Tracebacks stay out of the table; they live on the records
    (and in the telemetry snapshot) for forensics."""
    rows: List[List[str]] = []
    for failure in failures:
        detail = failure.message
        if failure.exc_type:
            detail = f"{failure.exc_type}: {failure.message}"
        if len(detail) > 72:
            detail = detail[:69] + "..."
        rows.append(
            [failure.spec_key, failure.kind, str(failure.attempts), detail]
        )
    return format_table(
        ["spec", "kind", "attempts", "error"],
        rows,
        title=f"{len(rows)} run(s) failed (surviving cells rendered with gaps):",
    )


def format_trace_summary(recorder) -> str:
    """One-line flight-recorder summary (ring occupancy + category mix)."""
    by_category = recorder.counts_by_category()
    mix = " ".join(f"{k}={v}" for k, v in sorted(by_category.items()))
    line = (
        f"trace: {recorder.emitted:,} events emitted, "
        f"{len(recorder):,} buffered"
    )
    if recorder.evicted:
        line += f" ({recorder.evicted:,} evicted by ring wraparound)"
    if mix:
        line += f" [{mix}]"
    return line
