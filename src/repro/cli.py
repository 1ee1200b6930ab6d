"""Command-line interface: regenerate any paper experiment by name.

Usage::

    python -m repro list
    python -m repro run table1
    python -m repro run fig6 --full
    python -m repro run fig6 --jobs 4
    python -m repro run fig11 --seed 7
    python -m repro run fig10 --trace --trace-out t.jsonl --metrics-out m.json
    python -m repro run fig5 --results-out fig5.json
    python -m repro run fig6 --dry-run
    python -m repro validate capture --scale tiny
    python -m repro validate run --scale tiny --report-out report.json
    python -m repro validate crossfid --scale tiny --report-out agreement.json
    python -m repro scenario list scenarios/
    python -m repro scenario check scenarios/
    python -m repro scenario run scenarios/fig6_websearch.toml --store campaign.jsonl
    python -m repro scenario run scenarios/leafspine_1024.toml --fidelity fluid
    python -m repro scenario run scenarios/ --store host1.jsonl --jobs 4
    python -m repro scenario merge a.jsonl b.jsonl --out merged.jsonl
    python -m repro scenario report --store campaign.jsonl
    python -m repro cache gc --max-bytes 512M --max-age 604800
    python -m repro serve --store-dir results/ --port 8077
    python -m repro query --url http://127.0.0.1:8077 --metric avg_query_fct
    python -m repro query --store-dir results/ --scheme ECN# --format csv

``run X`` is ``run_experiment(X)`` then ``render``: row X of the figure table at
its defaults, plus its ``PAPER_SCALE`` keywords under ``--full``, plus
``--seed``; under the table it prints the verdict on each of the paper's
claims about X (:mod:`repro.validation.invariants`).  Every flag
with a ``REPRO_*`` twin resolves through :mod:`repro.settings` (flag >
variable > default; a malformed value is one ``# error:`` line, exit 2).
``--jobs N`` fans the run grid across N worker processes, bit-identical to
``--jobs 1``; completed cells are memoized under ``~/.cache/repro``
(``--no-cache`` to bypass), so re-rendering skips simulations already run.

A run that dispatches DES events in this process prints a ``# profile:``
line (events dispatched, events/second, wall seconds per virtual second,
peak heap depth); analytic figures, ``--jobs N`` grids and cache replays,
which dispatch none here, print no such line.  The profiled run goes
through the same dispatch loop as any other.  ``--trace`` turns on the
flight-recorder event trace, ``--trace-out`` exports it as JSONL,
``--metrics-out`` writes the metrics registry snapshot plus a run manifest
(seed, scale, resolved settings, git SHA, event counts) as JSON, and
``--results-out`` dumps the experiment's structured result grid and, in
JSON, its ``claims`` verdicts (CSV with a ``.csv`` suffix: the grid only).
See DESIGN.md ("Telemetry & instrumentation").

Fault tolerance: a cell that crashes, stalls or hangs does not abort the
figure.  A cell runs once, optionally bounded by a per-spec wall-clock
budget (``--spec-timeout``, off by default), and its failure is recorded
(only a cell whose worker process died runs again, once, in-process); the
figure renders the surviving cells with gaps, a failure summary table is
printed, and the exit code is non-zero only when *no* cell produced a
usable result.

``scenario`` runs declarative scenario files (see the README's "Scenarios"
section): ``list``/``check`` inspect and validate them without simulating,
``run`` executes one file or a directory as a resumable campaign appending
each finished cell to a crash-safe JSONL store (rerunning skips completed
cells), and ``report`` renders per-scenario tables straight from the store.
A store has one writer: ``run --jobs N`` spreads its cells over N worker
processes, and hosts that each wrote their own store join them with
``merge``, which combines N stores idempotently, failing hard when two ok
records disagree; ``cache gc`` evicts result-cache entries
by size/age and clears quarantined ``*.corrupt`` entries.  SIGINT/SIGTERM
during ``scenario run`` finishes and appends the in-flight shard, then
exits ``128+signum`` with the store fully resumable.
``--dry-run`` (on ``run`` and ``scenario run``) prints the resolved spec
grid -- the figure's ``cells`` or the compiled scenario's -- with per-spec
cache status and exits without simulating.

``serve`` runs the long-lived results daemon (see DESIGN.md "Results
service"): read-only HTTP queries over every campaign store under
``--store-dir``, answered from a summary-tier LRU keyed by store
fingerprint + query hash, with ``ETag``/304 revalidation and a graceful
SIGTERM drain.  ``query`` is its client -- point it at a live daemon with
``--url`` or at a store directory with ``--store-dir`` for the same
answer computed in-process.

``validate capture`` snapshots the reduced-scale validation grid into a
checked-in golden baseline; ``validate run`` replays the same grid (pure
cache hits when nothing changed) and gates it with statistical
cell-by-cell comparisons plus paper-trend invariants.  Exit codes:
0 pass/warn, 1 confirmed regression, 2 stale/missing baseline or dirty
tree.  See EXPERIMENTS.md ("Validation & tolerances").

``validate crossfid`` runs a sampled cell subset at both engine fidelities
(packet and the flow-level fluid model) and gates their agreement:
statistical FCT/marking/queue comparisons plus the paper-trend invariants
re-checked on the fluid results.  Exit codes: 0 pass/warn, 1 fail.
``scenario run --fidelity fluid`` (or ``[run] fidelity`` in the scenario
file, or ``REPRO_FIDELITY=fluid``) compiles a campaign against the fluid
engine -- seconds instead of minutes at 1000+ hosts.  See DESIGN.md
("Fluid fast model").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional, Sequence, Tuple

from . import settings
from .experiments.executor import (
    Executor,
    ResultCache,
    default_cache_dir,
    set_default_executor,
)
from .experiments.figures import FIGURES, PAPER_SCALE, run_experiment
from .experiments.report import (
    format_failure_table,
    format_manifest,
    format_table,
    format_trace_summary,
    to_csv,
    to_json,
)
from .experiments.schemes import check_fault_directives
from .logs import configure_logging, get_logger
from .sim.units import ms
from .telemetry import CATEGORIES, RunManifest, Telemetry, activate, make_progress

__all__ = ["main"]

log = get_logger("cli")

def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """Shared worker-pool / cache / fault-tolerance options."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the run grid (default: REPRO_JOBS or 1; "
        "1 executes in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate, ignoring and not writing the result cache",
    )
    parser.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a cell still running past it is "
        "abandoned and recorded as a timeout failure (default: "
        "REPRO_SPEC_TIMEOUT or off; forces pool execution)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """Shared live-progress / span-tracing options."""
    parser.add_argument(
        "--progress",
        nargs="?",
        const="auto",
        choices=["auto", "tty", "jsonl"],
        default=None,
        metavar="MODE",
        help="live progress on stderr: 'tty' (self-overwriting line), "
        "'jsonl' (one JSON heartbeat per update), or 'auto' (tty when "
        "stderr is a terminal, jsonl otherwise; the default when the flag "
        "is given bare)",
    )
    parser.add_argument(
        "--progress-out",
        metavar="PATH",
        default=None,
        help="write JSONL heartbeat lines to PATH (implies --progress jsonl)",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="record a hierarchical span tree (campaign/grid/cell/engine "
        "phases, wall + virtual clocks) and print its summary",
    )
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        default=None,
        help="write the span tree as JSON (implies --spans)",
    )


def _build_progress(args):
    """``(reporter, owned_stream)`` from the progress flags (both None
    when progress is off); the caller closes both."""
    if args.progress_out is not None:
        stream = open(args.progress_out, "w", encoding="utf-8")
        return make_progress("jsonl", stream=stream, min_interval=0.0), stream
    if args.progress is not None:
        return make_progress(args.progress, stream=sys.stderr), None
    return None, None


def _finish_observability(args, telemetry, progress, progress_stream) -> None:
    """Close the progress reporter and emit span summary/export."""
    if progress is not None:
        progress.close()
    if progress_stream is not None:
        progress_stream.close()
    if telemetry is not None and telemetry.spans is not None:
        log.info(f"# {telemetry.spans.summary_line()}")
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"spans": telemetry.spans.to_list()}, handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
            log.info(f"# spans written to {args.spans_out}")


def _executor_settings(args) -> dict:
    """The executor flags as explicit settings (``None`` = flag not given,
    so the ``REPRO_*`` variable or the default applies).  Unlike a library
    executor the CLI always names a cache directory."""
    explicit = {name: getattr(args, name) for name in Executor.SETTINGS}
    explicit["cache_dir"] = default_cache_dir(args.cache_dir)
    return explicit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Enabling ECN for Datacenter "
        "Networks with RTT Variations' (CoNEXT 2019).",
    )
    parser.add_argument(
        "-q", "--quiet",
        action="store_true",
        help="suppress '#' diagnostic lines (warnings/errors still print)",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="enable debug-level diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(FIGURES), metavar="experiment")
    run.add_argument(
        "--full",
        action="store_true",
        help="paper-scale parameters (slow; equivalent to REPRO_FULL=1)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved spec grid with per-cell cache status and "
        "exit without simulating",
    )
    _add_executor_args(run)
    _add_observability_args(run)
    run.add_argument(
        "--trace",
        action="store_true",
        help="record a flight-recorder event trace of the run",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export the event trace as JSONL (implies --trace)",
    )
    run.add_argument(
        "--trace-categories",
        metavar="CATS",
        default=None,
        help=(
            "comma-separated categories to trace (implies --trace); "
            f"available: {','.join(CATEGORIES)}"
        ),
    )
    run.add_argument(
        "--trace-capacity",
        type=int,
        default=65_536,
        metavar="N",
        help="flight-recorder ring size (oldest events evicted beyond it)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write metrics snapshot + run manifest as JSON",
    )
    run.add_argument(
        "--results-out",
        metavar="PATH",
        default=None,
        help="write the structured result grid (JSON; CSV when the path "
        "ends in .csv)",
    )

    validate = sub.add_parser(
        "validate",
        help="fidelity gates: capture golden baselines / run the validation "
        "grid against them",
    )
    validate_sub = validate.add_subparsers(dest="validate_command", required=True)

    capture = validate_sub.add_parser(
        "capture", help="run the validation grid and write its golden baseline"
    )
    run_gate = validate_sub.add_parser(
        "run", help="run the validation grid and gate it against the baseline"
    )
    for verb in (capture, run_gate):
        verb.add_argument(
            "--scale",
            default="tiny",
            choices=["tiny", "reduced"],
            help="validation grid size (default: tiny)",
        )
        verb.add_argument(
            "--baseline-dir",
            metavar="DIR",
            default="baselines",
            help="directory holding <scale>.json baselines (default: baselines)",
        )
        _add_executor_args(verb)
    capture.add_argument(
        "--force",
        action="store_true",
        help="allow capturing from a dirty working tree (manifest records it)",
    )
    run_gate.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="explicit baseline file (default: <baseline-dir>/<scale>.json)",
    )
    run_gate.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the full validation report as JSON",
    )

    crossfid = validate_sub.add_parser(
        "crossfid",
        help="run sampled cells at both packet and fluid fidelity and gate "
        "their agreement (no baseline needed)",
    )
    crossfid.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "reduced"],
        help="validation grid whose fig6/fig10 cells are sampled "
        "(default: tiny)",
    )
    crossfid.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the cross-fidelity agreement report as JSON",
    )
    _add_executor_args(crossfid)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenarios: list/check/run/report scenario files",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    s_list = scenario_sub.add_parser(
        "list", help="list scenario files with their compiled cell counts"
    )
    s_list.add_argument(
        "path", nargs="?", default="scenarios", metavar="PATH",
        help="scenario file or directory (default: scenarios/)",
    )

    s_check = scenario_sub.add_parser(
        "check",
        help="validate and deep-check scenario files (no simulation)",
    )
    s_check.add_argument(
        "path", nargs="?", default="scenarios", metavar="PATH",
        help="scenario file or directory (default: scenarios/)",
    )

    s_run = scenario_sub.add_parser(
        "run", help="run scenario file(s) as a resumable campaign"
    )
    s_run.add_argument(
        "path", metavar="PATH", help="scenario file or directory"
    )
    s_run.add_argument(
        "--store",
        metavar="PATH",
        default="campaign.jsonl",
        help="campaign result store, JSONL, appended to on every pass "
        "(default: campaign.jsonl)",
    )
    s_run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N pending cells this pass (the rest resume "
        "on the next run)",
    )
    s_run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the compiled cell/spec grid with per-spec cache status "
        "and exit without simulating",
    )
    s_run.add_argument(
        "--fidelity",
        choices=settings.FIDELITIES,
        default=None,
        help="engine fidelity for every cell (beats the scenario's "
        "[run] fidelity and REPRO_FIDELITY; default: packet)",
    )
    _add_executor_args(s_run)
    _add_observability_args(s_run)

    s_merge = scenario_sub.add_parser(
        "merge",
        help="merge N campaign stores into one canonical store "
        "(idempotent; latest-ok-wins; hard error on ok/ok content conflict)",
    )
    s_merge.add_argument(
        "stores", nargs="+", metavar="STORE",
        help="input campaign store JSONL files",
    )
    s_merge.add_argument(
        "--out",
        metavar="PATH",
        required=True,
        help="output store path (atomically replaced; may be an input)",
    )

    s_report = scenario_sub.add_parser(
        "report",
        help="render per-scenario result tables from the campaign store "
        "(no simulation)",
    )
    s_report.add_argument(
        "path", nargs="?", default=None, metavar="PATH",
        help="restrict the report to these scenario files (file or "
        "directory; default: everything in the store)",
    )
    s_report.add_argument(
        "--store",
        metavar="PATH",
        default="campaign.jsonl",
        help="campaign result store to read (default: campaign.jsonl)",
    )

    cache = sub.add_parser(
        "cache",
        help="result-cache maintenance: eviction and quarantine cleanup",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    c_gc = cache_sub.add_parser(
        "gc",
        help="evict cache entries by size budget and/or age; removes "
        "quarantined *.corrupt entries and stray write temps",
    )
    c_gc.add_argument(
        "--max-bytes",
        metavar="SIZE",
        default=None,
        help="keep at most SIZE bytes of entries, newest first "
        "(suffixes K/M/G, e.g. 512M)",
    )
    c_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict entries older than SECONDS",
    )
    c_gc.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    c_gc.add_argument(
        "--keep-corrupt",
        action="store_true",
        help="keep quarantined *.corrupt entries for inspection",
    )

    obs = sub.add_parser(
        "obs",
        help="offline observability: dashboards from campaign stores and "
        "benchmark trend files (no simulation)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    o_report = obs_sub.add_parser(
        "report",
        help="render a markdown/HTML dashboard from a campaign store, its "
        "resource sidecar, and the perf trend file",
    )
    o_report.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="campaign store JSONL (default: none; trend-only report)",
    )
    o_report.add_argument(
        "--resources",
        metavar="PATH",
        default=None,
        help="resource sidecar JSONL (default: <store>.resources.jsonl)",
    )
    o_report.add_argument(
        "--trend",
        metavar="PATH",
        default=None,
        help="perf ledger trend JSONL "
        "(e.g. benchmarks/ledger/results/trend.jsonl)",
    )
    o_report.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the markdown dashboard to PATH (default: stdout)",
    )
    o_report.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="also write a standalone HTML dashboard to PATH",
    )
    o_report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the slowest-cells table (default: 10)",
    )
    o_report.add_argument(
        "--metricz",
        metavar="PATH",
        default=None,
        help="results-service /metricz JSON dump to render as a service "
        "section (requests, cache hit rate, store loads)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived results daemon: read-only HTTP queries "
        "over campaign stores with a fingerprint-keyed summary cache",
    )
    serve.add_argument(
        "--store-dir",
        metavar="DIR",
        required=True,
        help="directory of campaign store JSONL files to serve (scanned "
        "recursively; sidecars excluded)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="listen address (default: 127.0.0.1; single-host by design)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8077,
        metavar="PORT",
        help="listen port (default: 8077; 0 binds an ephemeral port, "
        "printed on the startup line)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        metavar="SIZE",
        default="32M",
        help="summary-cache byte cap (suffixes K/M/G; default: 32M)",
    )

    query = sub.add_parser(
        "query",
        help="query campaign results from a live daemon (--url) or "
        "straight from a store directory (--store-dir)",
    )
    query.add_argument(
        "--url",
        metavar="URL",
        default=None,
        help="base URL of a running `repro serve` daemon; with "
        "--store-dir too, an unreachable daemon falls back in-process",
    )
    query.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="store directory for in-process reads (no daemon needed)",
    )
    query.add_argument(
        "--store", default="", metavar="NAME",
        help="store name relative to the store dir (default: all stores)",
    )
    query.add_argument(
        "--scenario", default="", metavar="NAME",
        help="filter: exact scenario name",
    )
    query.add_argument(
        "--scheme", default="", metavar="NAME",
        help="filter: exact scheme name from the cell key",
    )
    query.add_argument(
        "--metric", default="", metavar="NAME",
        help="filter: exact metric name",
    )
    query.add_argument(
        "--fidelity", default="", metavar="NAME",
        help="filter: engine fidelity (packet or fluid)",
    )
    query.add_argument(
        "--token", default="", metavar="SUBSTRING",
        help="filter: substring of any spec token",
    )
    query.add_argument(
        "--status",
        default="ok",
        choices=("ok", "failed", "any"),
        help="cell status to include (default: ok)",
    )
    query.add_argument(
        "--mode",
        default="summary",
        choices=("summary", "cells"),
        help="summary aggregates (mean/p50/p95/p99) or raw cell rows",
    )
    query.add_argument(
        "--format",
        dest="fmt",
        default="json",
        choices=("json", "csv"),
        help="output format (default: json)",
    )
    query.add_argument(
        "--if-none-match",
        metavar="ETAG",
        default="",
        help="conditional request: expect 304 while the store fingerprint "
        "is unchanged",
    )
    query.add_argument(
        "--etag-out",
        metavar="PATH",
        default=None,
        help="write the response ETag to PATH (for later --if-none-match)",
    )
    query.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the response body to PATH (default: stdout)",
    )
    return parser


def _write_results(path: str, summary: dict) -> None:
    """Dump a ``FigureRun.summary()`` grid as JSON or (flattened) CSV."""
    if path.endswith(".csv"):
        rows = []
        for cell, metrics in summary.get("cells", {}).items():
            for metric, value in metrics.items():
                rows.append([summary.get("figure", ""), cell, metric, value])
        for name, value in summary.get("derived", {}).items():
            rows.append([summary.get("figure", ""), "derived", name, value])
        to_csv(["figure", "cell", "metric", "value"], rows, path)
    else:
        to_json(summary, path)
    log.info(f"# results written to {path}")


def _dry_run(
    args, grids: Sequence[Tuple[str, Sequence]], announce: Callable[[str], None]
) -> int:
    """``--dry-run``: list each ``(header, specs)`` grid with per-spec cache
    status -- nothing simulates.  "hit" is :meth:`ResultCache.has`, the same
    probe that lets a campaign cell ride along in a replay shard: the entry
    file is present.  It is not read, so a corrupt entry still reads "hit"
    until a real run's load quarantines it."""
    cache = (
        None if args.no_cache else ResultCache(default_cache_dir(args.cache_dir))
    )
    total = hits = 0
    for header, specs in grids:
        cached = [cache is not None and cache.has(spec) for spec in specs]
        rows = [
            [spec.token(), "hit" if hit else "miss"]
            for spec, hit in zip(specs, cached)
        ]
        announce(header)
        print(format_table(["spec", "cache"], rows))
        total += len(cached)
        hits += sum(cached)
    print(
        f"# {total} spec(s): {hits} cached, {total - hits} to execute; "
        "nothing simulated"
    )
    return 0


def _main_run(args, parser: argparse.ArgumentParser) -> int:
    name = args.experiment
    figure = FIGURES[name]
    full = settings.resolve("full", args.full or None)
    params = PAPER_SCALE.get(name, {}) if full else {}
    if full and not params:
        log.info(f"# {name} has no paper-scale parameters; running defaults")
    seed = figure.seed if args.seed is None else args.seed

    if args.dry_run:
        if figure.cells is None:
            print(f"# dry run: {name} builds no executor spec grid")
            return 0
        grid = figure.cells(seed=seed, **params)
        header = f"# dry run: resolved spec grid for {name} (seed={seed})"
        specs = [spec for cell in grid.values() for spec in cell]
        return _dry_run(args, [(header, specs)], announce=log.info)

    from .validation.invariants import evaluate_figure, render_verdicts

    explicit = _executor_settings(args)
    executor = Executor.from_env(cache=not args.no_cache, **explicit)

    trace_enabled = (
        args.trace or args.trace_out is not None or args.trace_categories is not None
    )
    categories = (
        [c.strip() for c in args.trace_categories.split(",") if c.strip()]
        if args.trace_categories is not None
        else None
    )
    if categories is not None:
        unknown = sorted(set(categories) - set(CATEGORIES))
        if unknown:
            parser.error(
                f"unknown trace categories: {','.join(unknown)} "
                f"(available: {','.join(CATEGORIES)})"
            )
    if args.trace_capacity <= 0:
        parser.error("--trace-capacity must be positive")
    # Fail on an unwritable output path now, not after a long run.
    for option, path in (("--trace-out", args.trace_out),
                         ("--metrics-out", args.metrics_out),
                         ("--results-out", args.results_out)):
        if path is not None:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                parser.error(f"{option}: directory does not exist: {directory}")
    collect_metrics = args.metrics_out is not None
    # Per-packet hooks attach only when something consumes them; a plain
    # run keeps the bare hot-path cost and still gets the profiler line.
    telemetry = Telemetry(
        trace=trace_enabled,
        trace_categories=categories,
        ring_capacity=args.trace_capacity,
        metrics=collect_metrics,
        snapshot_interval=ms(1) if collect_metrics else None,
        spans=args.spans or args.spans_out is not None,
    )
    manifest = RunManifest.collect(
        name,
        seed=seed,
        scale={"name": "paper" if params else "reduced", "params": params},
    )
    manifest.settings = settings.snapshot(full=full, **explicit)
    progress, progress_stream = _build_progress(args)
    executor.progress = progress

    log.info(
        f"# {figure.title} (seed={seed}, "
        f"{'full' if params else 'reduced'} scale)"
    )
    started = time.time()
    previous_executor = set_default_executor(executor)
    try:
        with activate(telemetry):
            outcome = run_experiment(name, seed=seed, **params)
            print(outcome.render())
        verdicts = evaluate_figure(name, outcome.result)
        print(render_verdicts(verdicts, f"Paper claims ({name})"))
    finally:
        set_default_executor(previous_executor)
        _finish_observability(args, telemetry, progress, progress_stream)
    wall = time.time() - started
    events = telemetry.profiler.events if telemetry.profiler else None
    if not events and telemetry.manifests:
        # Worker-process / cache-replay runs dispatch no events in this
        # process; their registered manifests carry the real counts.
        events = sum(m.events or 0 for m in telemetry.manifests) or None
    manifest.finish(wall_seconds=wall, events=events)
    log.info(f"# completed in {wall:.1f}s")
    log.info(
        f"# executor: jobs={executor.jobs} {executor.stats.merge_line()} "
        f"cache={'off' if executor.cache is None else executor.cache.directory}"
    )
    if executor.failures:
        print(format_failure_table(executor.failures))
    if telemetry.profiler is not None and telemetry.profiler.runs:
        log.info(f"# {telemetry.profiler.summary_line()}")
    log.info(f"# {format_manifest(manifest)}")
    if telemetry.recorder is not None:
        log.info(f"# {format_trace_summary(telemetry.recorder)}")
    if args.trace_out is not None:
        written = telemetry.recorder.export_jsonl(args.trace_out)
        log.info(f"# trace written to {args.trace_out} ({written} events)")
    if args.metrics_out is not None:
        snapshot = telemetry.snapshot()
        snapshot["manifest"] = manifest.to_dict()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        log.info(f"# metrics written to {args.metrics_out}")
    if args.results_out is not None:
        claims = [verdict.to_dict() for verdict in verdicts]
        _write_results(args.results_out, {**outcome.summary(), "claims": claims})
    stats = executor.stats
    if stats.submitted and stats.failed >= stats.submitted:
        # Partial grids render with gaps and exit 0; only a figure with
        # zero usable cells is a hard failure.
        log.error("# error: every cell failed; no usable results")
        return 1
    return 0


def _main_scenario(args, parser: argparse.ArgumentParser) -> int:
    from .scenarios import (
        ScenarioError,
        check_scenario,
        compile_scenario,
        load_scenario,
        load_scenario_dir,
        render_store_report,
        run_campaign,
    )

    def load_pairs(path: str):
        if os.path.isdir(path):
            return load_scenario_dir(path)
        return [(path, load_scenario(path))]

    if args.scenario_command == "merge":
        from .scenarios import MergeConflictError, merge_stores

        for store_path in args.stores:
            if not os.path.exists(store_path):
                log.error(f"# error: no such store: {store_path}")
                return 2
        try:
            merged = merge_stores(args.stores, output=args.out)
        except MergeConflictError as exc:
            log.error(f"# error: {exc}")
            return 1
        except OSError as exc:
            log.error(f"# error: {exc}")
            return 2
        print(
            f"# merge: {merged.summary_line()} "
            f"({len(args.stores)} store(s) -> {args.out})"
        )
        return 0

    if args.scenario_command == "report":
        scenarios = None
        if args.path is not None:
            try:
                scenarios = [s for _, s in load_pairs(args.path)]
            except (ScenarioError, FileNotFoundError) as exc:
                log.error(f"# error: {exc}")
                return 2
        print(render_store_report(args.store, scenarios))
        return 0

    if args.scenario_command in ("list", "check"):
        deep = args.scenario_command == "check"
        status = 0
        try:
            pairs = load_pairs(args.path)
        except (ScenarioError, FileNotFoundError) as exc:
            log.error(f"# error: {exc}")
            return 2
        for path, scenario in pairs:
            try:
                compiled = (
                    check_scenario(scenario) if deep
                    else compile_scenario(scenario)
                )
            except ScenarioError as exc:
                log.error(f"# error: {exc}")
                status = 1
                continue
            line = (
                f"{os.path.basename(str(path))}  {scenario.name}  "
                f"cells={len(compiled.cells)} specs={compiled.n_specs}"
            )
            if deep:
                line += "  ok"
            elif scenario.description:
                line += f"  {scenario.description}"
            print(line)
        return status

    # scenario run
    if args.max_cells is not None and args.max_cells < 1:
        parser.error("--max-cells must be >= 1")
    try:
        pairs = load_pairs(args.path)
        scenarios = [s for _, s in pairs]
        compiled = [
            compile_scenario(s, fidelity=args.fidelity) for s in scenarios
        ]
    except (ScenarioError, FileNotFoundError, ValueError) as exc:
        log.error(f"# error: {exc}")
        return 2

    if args.dry_run:
        return _dry_run(
            args,
            [
                (
                    f"# dry run: scenario {comp.scenario.name} "
                    f"({len(comp.cells)} cells, {comp.n_specs} specs)",
                    comp.specs(),
                )
                for comp in compiled
            ],
            announce=print,
        )

    from .scenarios import GracefulShutdown

    executor = Executor.from_env(
        cache=not args.no_cache, **_executor_settings(args)
    )
    telemetry = Telemetry(spans=args.spans or args.spans_out is not None)
    progress, progress_stream = _build_progress(args)
    started = time.time()
    previous_executor = set_default_executor(executor)
    try:
        with activate(telemetry), GracefulShutdown() as shutdown:
            result = run_campaign(
                scenarios,
                store=args.store,
                executor=executor,
                max_cells=args.max_cells,
                progress=progress,
                shutdown=shutdown,
                fidelity=args.fidelity,
            )
    finally:
        set_default_executor(previous_executor)
        _finish_observability(args, telemetry, progress, progress_stream)
    wall = time.time() - started
    print(f"# campaign: {result.summary_line()} ({wall:.1f}s)")
    log.info(
        f"# executor: jobs={executor.jobs} {executor.stats.merge_line()} "
        f"cache={'off' if executor.cache is None else executor.cache.directory}"
    )
    log.info(f"# store: {args.store} ({len(result.records)} record(s) this pass)")
    if executor.failures:
        print(format_failure_table(executor.failures))
    if result.interrupted:
        log.error(
            "# interrupted: current shard appended, store is resumable "
            "(rerun the same command to continue)"
        )
        return 128 + (result.interrupt_signum or 2)
    settled = result.executed_cells + result.skipped_cells
    if settled and result.failed_cells >= settled:
        log.error("# error: every cell failed; no usable results")
        return 1
    return 0


def _main_validate(args, parser: argparse.ArgumentParser) -> int:
    from .validation import (
        DirtyTreeError,
        StaleBaselineError,
        capture_baselines,
        run_crossfid,
        run_gate,
    )
    from .validation.stats import FAIL

    executor = Executor.from_env(
        cache=not args.no_cache, **_executor_settings(args)
    )
    telemetry = Telemetry()
    previous_executor = set_default_executor(executor)
    try:
        with activate(telemetry):
            if args.validate_command == "crossfid":
                report = run_crossfid(args.scale, executor)
                print(report.render_text())
                log.info(
                    f"# executor: jobs={executor.jobs} "
                    f"{executor.stats.merge_line()}"
                )
                if args.report_out is not None:
                    report.to_json(args.report_out)
                    log.info(f"# report written to {args.report_out}")
                return 1 if report.status == FAIL else 0

            if args.validate_command == "capture":
                try:
                    baseline, path, outcome = capture_baselines(
                        args.scale,
                        executor,
                        baseline_dir=args.baseline_dir,
                        force=args.force,
                    )
                except DirtyTreeError as exc:
                    log.error(f"# error: {exc}")
                    return 2
                except RuntimeError as exc:
                    log.error(f"# error: {exc}")
                    return 1
                cells = sum(
                    len(fig["cells"]) for fig in baseline.figures.values()
                )
                print(
                    f"# baseline captured: {path} ({cells} cells, "
                    f"sha={baseline.manifest.git_sha}, "
                    f"dirty={baseline.manifest.git_dirty})"
                )
                log.info(
                    f"# executor: jobs={executor.jobs} "
                    f"{executor.stats.merge_line()}"
                )
                return 0

            try:
                report = run_gate(
                    args.scale,
                    executor,
                    baseline_path=args.baseline,
                    baseline_dir=args.baseline_dir,
                )
            except (StaleBaselineError, FileNotFoundError) as exc:
                log.error(f"# error: {exc}")
                return 2
            print(report.render_text())
            log.info(
                f"# executor: jobs={executor.jobs} "
                f"{executor.stats.merge_line()}"
            )
            if args.report_out is not None:
                report.to_json(args.report_out)
                log.info(f"# report written to {args.report_out}")
            return 1 if report.status == FAIL else 0
    finally:
        set_default_executor(previous_executor)


def _parse_size(raw: str, parser: argparse.ArgumentParser, option: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (binary multiples)."""
    text = raw.strip().upper()
    multiplier = 1
    for suffix, factor in (("K", 1024), ("M", 1024 ** 2), ("G", 1024 ** 3)):
        if text.endswith(suffix):
            multiplier = factor
            text = text[: -len(suffix)]
            break
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        parser.error(f"{option}: {raw!r} is not a size (try 512M, 2G, 1048576)")
    if value < 0:
        parser.error(f"{option} must be >= 0")
    return value


def _main_cache(args, parser: argparse.ArgumentParser) -> int:
    from .experiments.executor import ResultCache

    max_bytes = (
        _parse_size(args.max_bytes, parser, "--max-bytes")
        if args.max_bytes is not None
        else None
    )
    if args.max_age is not None and args.max_age < 0:
        parser.error("--max-age must be >= 0")
    cache = ResultCache(default_cache_dir(args.cache_dir))
    stats = cache.gc(
        max_bytes=max_bytes,
        max_age_seconds=args.max_age,
        remove_corrupt=not args.keep_corrupt,
    )
    print(f"# cache gc: {stats.summary_line()} dir={cache.directory}")
    return 0


def _main_obs(args, parser: argparse.ArgumentParser) -> int:
    from .obs import build_report

    if args.store is None and args.trend is None and args.metricz is None:
        parser.error("obs report needs --store, --trend and/or --metricz")
    if args.top < 1:
        parser.error("--top must be >= 1")
    report = build_report(
        store=args.store,
        resources=args.resources,
        trend=args.trend,
        metricz=args.metricz,
        top=args.top,
    )
    markdown = report.to_markdown()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
            if not markdown.endswith("\n"):
                handle.write("\n")
        log.info(f"# report written to {args.out}")
    else:
        print(markdown)
    if args.html is not None:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(report.to_html())
        log.info(f"# html written to {args.html}")
    return 0


def _main_serve(args, parser: argparse.ArgumentParser) -> int:
    from .service import serve as run_service

    cache_max_bytes = _parse_size(
        args.cache_max_bytes, parser, "--cache-max-bytes"
    )
    if cache_max_bytes <= 0:
        parser.error("--cache-max-bytes must be > 0")
    if not os.path.isdir(args.store_dir):
        parser.error(f"--store-dir {args.store_dir!r} is not a directory")
    return run_service(
        args.store_dir,
        host=args.host,
        port=args.port,
        cache_max_bytes=cache_max_bytes,
    )


def _main_query(args, parser: argparse.ArgumentParser) -> int:
    from .service import ResultsService, ServiceClient, ServiceUnavailable

    if args.url is None and args.store_dir is None:
        parser.error("query needs --url and/or --store-dir")
    params = {
        "store": args.store,
        "scenario": args.scenario,
        "scheme": args.scheme,
        "metric": args.metric,
        "fidelity": args.fidelity,
        "token": args.token,
        "status": args.status,
        "mode": args.mode,
        "format": args.fmt,
    }
    status = etag = body = None
    if args.url is not None:
        try:
            response = ServiceClient(args.url).query(
                params, etag=args.if_none_match
            )
            status, etag, body = response.status, response.etag, response.body
        except ServiceUnavailable as exc:
            if args.store_dir is None:
                log.error(f"# query: {exc}")
                return 1
            # warning -> stderr, keeping stdout pure JSON/CSV for pipes
            log.warning(f"# query: daemon unreachable, reading "
                        f"{args.store_dir} in-process")
    if status is None:
        service = ResultsService(args.store_dir)
        response = service.dispatch(
            "/query",
            {k: v for k, v in params.items() if v},
            {"If-None-Match": args.if_none_match},
        )
        status, etag, body = response.status, response.etag, response.body
    if args.etag_out is not None and etag:
        with open(args.etag_out, "w", encoding="utf-8") as handle:
            handle.write(etag + "\n")
    if status == 304:
        print(f"# not modified (etag {etag})")
        return 0
    if status != 200:
        detail = body.decode("utf-8", "replace").strip()
        log.error(f"# query failed: HTTP {status} {detail}")
        return 1
    text = body.decode("utf-8")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        log.info(f"# query result written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _main_list(args, parser: argparse.ArgumentParser) -> int:
    width = max(len(name) for name in FIGURES)
    for name, figure in FIGURES.items():
        print(f"{name.ljust(width)}  {figure.title}")
    return 0


_COMMANDS = {
    "list": _main_list,
    "run": _main_run,
    "validate": _main_validate,
    "scenario": _main_scenario,
    "cache": _main_cache,
    "obs": _main_obs,
    "serve": _main_serve,
    "query": _main_query,
}


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(quiet=args.quiet, verbose=args.verbose)
    try:
        check_fault_directives()  # a malformed test hook fails before any run
        return _COMMANDS[args.command](args, parser)
    except settings.SettingError as exc:
        log.error(f"# error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
