"""Tests for the campaign observability layer: span tracing (including
cross-process stitching and the zero-allocation disabled path), live
progress reporting, per-cell resource attribution, and the offline
``repro obs report`` dashboards."""

import io
import json

import pytest

from repro.experiments.executor import Executor, SpecAttribution
from repro.experiments.specs import AqmSpec, RunSpec
from repro.obs import build_report
from repro.scenarios import CampaignStore, Scenario, run_campaign
from repro.sim.units import us
from repro.telemetry import Telemetry, activate
from repro.telemetry.progress import (
    JsonlHeartbeat,
    ProgressTracker,
    TtyProgress,
    make_progress,
)
from repro.telemetry.spans import NULL_SPAN, Span, SpanTracer, maybe_span
from repro.workloads import WEB_SEARCH

from test_scenarios_schema import base_dict


def tiny_spec(seed=3, load=0.4):
    return RunSpec.star(
        AqmSpec.make("sojourn-red", sojourn=us(200)),
        workload=WEB_SEARCH.name,
        load=load,
        n_flows=12,
        seed=seed,
        label="RED-Tail",
    )


def tiny_scenario(name="obs-unit", loads=(0.2,), seed=7):
    data = base_dict(name=name, run={"seed": seed})
    data["workloads"][0].update({"loads": list(loads), "n_flows": 6})
    return Scenario.from_dict(data)


# ------------------------------------------------------------------- spans


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestSpan:
    def test_nesting_builds_a_tree(self):
        tracer = SpanTracer()
        with tracer.span("campaign", kind="campaign"):
            with tracer.span("grid", kind="grid"):
                with tracer.span("cell", kind="cell"):
                    pass
                with tracer.span("cell", kind="cell"):
                    pass
        assert len(tracer.roots) == 1
        assert tracer.count() == 4
        assert tracer.max_depth() == 3
        grid = tracer.roots[0].children[0]
        assert [c.name for c in grid.children] == ["cell", "cell"]

    def test_dual_clocks(self):
        tracer = SpanTracer()
        clock = FakeClock(1.0)
        with tracer.span("drain", kind="engine", clock=clock):
            clock.now = 3.5
        span = tracer.roots[0]
        assert span.des_seconds == pytest.approx(2.5)
        assert span.wall_seconds is not None and span.wall_seconds >= 0

    def test_serialization_roundtrip(self):
        tracer = SpanTracer()
        clock = FakeClock(0.0)
        with tracer.span("cell", kind="cell", token="t1"):
            with tracer.span("drain", kind="engine", clock=clock):
                clock.now = 0.25
        payload = tracer.to_list()
        rebuilt = Span.from_dict(payload[0])
        assert rebuilt.name == "cell"
        assert rebuilt.attrs == {"token": "t1"}
        assert rebuilt.children[0].name == "drain"
        assert rebuilt.children[0].des_seconds == pytest.approx(0.25)
        # durations survive the roundtrip (origins do not cross processes)
        assert rebuilt.to_dict() == payload[0]

    def test_adopt_grafts_under_current_span(self):
        worker = SpanTracer()
        with worker.span("cell", kind="cell"):
            pass
        parent = SpanTracer()
        with parent.span("grid", kind="grid"):
            parent.adopt(worker.to_list())
        assert parent.roots[0].children[0].name == "cell"

    def test_maybe_span_without_telemetry_is_null(self):
        assert maybe_span("x") is NULL_SPAN

    def test_maybe_span_with_spanless_telemetry_is_null(self):
        with activate(Telemetry(metrics=False, profile=False)):
            assert maybe_span("x") is NULL_SPAN

    def test_snapshot_includes_spans(self):
        telemetry = Telemetry(metrics=False, profile=False, spans=True)
        with activate(telemetry):
            with maybe_span("campaign", kind="campaign"):
                pass
        snap = telemetry.snapshot()
        assert snap["spans"][0]["name"] == "campaign"


class TestDisabledPathAllocatesNothing:
    def test_executor_run_without_telemetry_allocates_no_spans(self):
        executor = Executor(jobs=1, cache=False, retries=0)
        before = Span.allocated
        executor.run([tiny_spec()])
        assert Span.allocated == before

    def test_null_span_is_reentrant(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass


def tree_shape(span_dict):
    """Order-insensitive structural fingerprint of a serialized span."""
    return (
        span_dict["name"],
        span_dict["kind"],
        tuple(sorted(
            tree_shape(c) for c in span_dict.get("children", [])
        )),
    )


class TestCrossProcessStitching:
    def run_with_spans(self, jobs):
        telemetry = Telemetry(metrics=False, profile=False, spans=True)
        executor = Executor(jobs=jobs, cache=False, retries=0)
        with activate(telemetry):
            results = executor.run([tiny_spec(seed=3), tiny_spec(seed=4)])
        assert all(r is not None for r in results)
        return telemetry.spans.to_list()

    def test_pool_tree_equivalent_to_inline_tree(self):
        inline = self.run_with_spans(jobs=1)
        pooled = self.run_with_spans(jobs=2)
        assert [tree_shape(s) for s in inline] == [
            tree_shape(s) for s in pooled
        ]
        # the stitched tree carries the worker cell spans with engine phases
        grid = pooled[0]
        assert grid["name"] == "grid"
        cells = grid["children"]
        assert len(cells) == 2
        for cell in cells:
            child_names = {c["name"] for c in cell.get("children", [])}
            assert child_names == {"setup", "drain"}

    def test_worker_spans_record_worker_pid(self):
        import os

        pooled = self.run_with_spans(jobs=2)
        pids = {cell["pid"] for cell in pooled[0]["children"]}
        assert os.getpid() not in pids


# ----------------------------------------------------------------- progress


class TestProgressTracker:
    def test_counts_and_eta(self):
        tracker = ProgressTracker()
        tracker.add_total(4)
        assert tracker.eta_seconds() is None  # no rate yet
        tracker.record("ok", wall_seconds=0.5, events=1000)
        tracker.record("failed")
        tracker.record("cache")
        assert tracker.done == 3
        assert tracker.remaining == 1
        assert tracker.eta_seconds() is not None
        tracker.record("skipped")
        assert tracker.eta_seconds() == 0.0
        snap = tracker.snapshot()
        assert snap["done"] == 4 and snap["total"] == 4
        assert snap["ok"] == 1 and snap["failed"] == 1
        assert snap["cache_hits"] == 1 and snap["skipped"] == 1
        assert snap["events"] == 1000

    def test_events_per_sec_ewma(self):
        tracker = ProgressTracker()
        tracker.add_total(2)
        tracker.record("ok", wall_seconds=1.0, events=1000)
        assert tracker.events_per_sec == pytest.approx(1000.0)
        tracker.record("ok", wall_seconds=1.0, events=2000)
        assert tracker.events_per_sec == pytest.approx(0.3 * 2000 + 0.7 * 1000)

    def test_unknown_status_raises(self):
        with pytest.raises(ValueError, match="unknown progress status"):
            ProgressTracker().record("bogus")


class TestReporters:
    def test_jsonl_heartbeat_lines_are_parseable(self):
        stream = io.StringIO()
        reporter = JsonlHeartbeat(stream=stream, min_interval=0.0)
        reporter.add_total(2)
        reporter.cell_done("ok", wall_seconds=0.1, events=500)
        reporter.retry()
        reporter.cell_done("failed")
        reporter.close()
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert all(line["kind"] in ("progress", "summary") for line in lines)
        final = lines[-1]
        assert final["kind"] == "summary"
        assert final["done"] == 2 and final["ok"] == 1
        assert final["failed"] == 1 and final["retried"] == 1
        assert final["events"] == 500

    def test_close_is_idempotent(self):
        stream = io.StringIO()
        reporter = JsonlHeartbeat(stream=stream)
        reporter.close()
        once = stream.getvalue()
        reporter.close()
        assert stream.getvalue() == once

    def test_tty_renderer_repaints_one_line(self):
        stream = io.StringIO()
        reporter = TtyProgress(stream=stream, min_interval=0.0)
        reporter.add_total(1)
        reporter.cell_done("ok", wall_seconds=0.1, events=100)
        reporter.close()
        output = stream.getvalue()
        assert output.startswith("\r")
        assert "1/1" in output
        assert output.endswith("\n")

    def test_make_progress_auto_picks_jsonl_for_non_tty(self):
        assert isinstance(
            make_progress("auto", stream=io.StringIO()), JsonlHeartbeat
        )
        with pytest.raises(ValueError):
            make_progress("bogus")


# ------------------------------------------------------------- attribution


class TestResourceAttribution:
    def test_run_records_wall_events_and_rss(self):
        executor = Executor(jobs=1, cache=False, retries=0)
        executor.run([tiny_spec()])
        attribution = executor.last_run_attribution
        assert len(attribution) == 1
        attr = attribution[0]
        assert isinstance(attr, SpecAttribution)
        assert attr.source == "run"
        assert attr.wall_seconds > 0
        assert attr.events > 0
        assert attr.max_rss_kb is None or attr.max_rss_kb > 0
        assert attr.to_dict()["token"] == tiny_spec().token()

    def test_cache_hits_are_attributed_as_cache(self, tmp_path):
        executor = Executor(jobs=1, cache=True, cache_dir=tmp_path, retries=0)
        executor.run([tiny_spec()])
        executor.run([tiny_spec()])
        attr = executor.last_run_attribution[0]
        assert attr.source == "cache"
        assert attr.wall_seconds == 0.0

    def test_obs_payload_never_reaches_the_result(self, tmp_path):
        executor = Executor(jobs=1, cache=True, cache_dir=tmp_path, retries=0)
        first = executor.run([tiny_spec()])[0]
        assert not hasattr(first, "_obs")
        replayed = executor.run([tiny_spec()])[0]
        assert not hasattr(replayed, "_obs")

    def test_progress_reporter_sees_executor_cells(self):
        stream = io.StringIO()
        reporter = JsonlHeartbeat(stream=stream, min_interval=0.0)
        executor = Executor(jobs=1, cache=False, retries=0, progress=reporter)
        executor.run([tiny_spec()])
        reporter.close()
        final = json.loads(stream.getvalue().splitlines()[-1])
        assert final["total"] == 1 and final["ok"] == 1


class TestCampaignResources:
    def test_sidecar_rows_carry_resource_fields(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        run_campaign([tiny_scenario()], store_path,
                     Executor(jobs=1, cache=False, retries=0))
        store = CampaignStore(store_path)
        rows = store.load_resources()
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "obs-unit"
        assert row["status"] == "ok"
        assert row["wall_seconds"] > 0
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["executed_specs"] >= 1
        assert "max_rss_kb" in row and "cache_hits" in row

    def test_main_store_stays_timestamp_free(self, tmp_path):
        """The sidecar absorbs the nondeterminism; the store's record
        schema must not grow resource fields."""
        store_path = tmp_path / "campaign.jsonl"
        run_campaign([tiny_scenario()], store_path,
                     Executor(jobs=1, cache=False, retries=0))
        record = json.loads(store_path.read_text().splitlines()[0])
        assert set(record) == {
            "scenario", "scenario_hash", "cell_key", "component", "tokens",
            "status", "metrics", "failures", "git_sha", "version",
        }

    def test_campaign_progress_counts_cells(self, tmp_path):
        stream = io.StringIO()
        reporter = JsonlHeartbeat(stream=stream, min_interval=0.0)
        store_path = tmp_path / "campaign.jsonl"
        scenario = tiny_scenario()
        run_campaign([scenario], store_path,
                     Executor(jobs=1, cache=False, retries=0),
                     progress=reporter)
        run_campaign([scenario], store_path,
                     Executor(jobs=1, cache=False, retries=0),
                     progress=reporter)
        reporter.close()
        final = json.loads(stream.getvalue().splitlines()[-1])
        assert final["ok"] == 1 and final["skipped"] == 1
        assert final["done"] == final["total"] == 2


# --------------------------------------------------------------- obs report


def synthetic_inputs(tmp_path):
    store = tmp_path / "campaign.jsonl"
    records = [
        {
            "scenario": "s1", "scenario_hash": "h1",
            "cell_key": "ws|load=0.2|scheme=ECN#", "component": "ws",
            "tokens": ["t1"], "status": "ok",
            "metrics": {"overall_avg": 0.001}, "failures": [],
            "git_sha": "abc", "version": "0.1",
        },
        {
            "scenario": "s1", "scenario_hash": "h1",
            "cell_key": "ws|load=0.4|scheme=CoDel", "component": "ws",
            "tokens": ["t2"], "status": "failed",
            "metrics": {},
            "failures": [{"kind": "crash", "exc_type": "RuntimeError"}],
            "git_sha": "abc", "version": "0.1",
        },
    ]
    store.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    resources = tmp_path / "campaign.resources.jsonl"
    rows = [
        {"scenario": "s1", "cell_key": "ws|load=0.2|scheme=ECN#",
         "status": "ok", "wall_seconds": 2.0, "events": 1000,
         "events_per_sec": 500.0, "max_rss_kb": 40000, "cache_hits": 0,
         "executed_specs": 2, "failed_specs": 0, "git_sha": "abc"},
        {"scenario": "s1", "cell_key": "ws|load=0.4|scheme=CoDel",
         "status": "failed", "wall_seconds": 1.0, "events": 400,
         "events_per_sec": 400.0, "max_rss_kb": 41000, "cache_hits": 1,
         "executed_specs": 1, "failed_specs": 1, "git_sha": "abc"},
    ]
    resources.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )
    trend = tmp_path / "trend.jsonl"
    trend_rows = [
        {"unix_time": 1.0, "git_sha": "aaa", "python": "3.11.7",
         "host": "vm", "quick": False, "star_websearch.run_s": 2.4,
         "star_websearch.setup_s": 0.3, "campaign_replay.run_s": 0.97},
        {"unix_time": 2.0, "git_sha": "bbb", "python": "3.11.7",
         "host": "vm", "quick": False, "star_websearch.run_s": 2.1,
         "star_websearch.setup_s": 0.3, "campaign_replay.run_s": 0.95},
    ]
    trend.write_text(
        # a non-object line and a torn tail must both be skipped
        '[1]\n' + "".join(json.dumps(r) + "\n" for r in trend_rows)
        + '{"unix_time": 3.0, "git_',
        encoding="utf-8",
    )
    return store, resources, trend


class TestObsReport:
    def test_markdown_covers_every_section(self, tmp_path):
        store, _, trend = synthetic_inputs(tmp_path)
        report = build_report(store=store, trend=trend)
        md = report.to_markdown()
        assert "## Summary" in md
        assert "## Slowest cells" in md
        assert "## Per-scheme time breakdown" in md
        assert "## Failures" in md
        assert "## Perf ledger trend" in md
        # trend columns are discovered from the rows: every *.run_s key
        assert ("| commit | python | host | quick | campaign_replay.run_s "
                "| star_websearch.run_s |") in md
        assert "crash" in md
        assert "ECN#" in md and "CoDel" in md
        assert "aaa" in md and "bbb" in md
        # cell keys contain '|'; they must be escaped inside table cells
        assert "ws\\|load=0.2\\|scheme=ECN#" in md

    def test_scheme_breakdown_orders_by_wall_time(self, tmp_path):
        store, _, _ = synthetic_inputs(tmp_path)
        report = build_report(store=store)
        assert [row["scheme"] for row in report.scheme_rows] == [
            "ECN#", "CoDel"
        ]
        assert report.scheme_rows[0]["share"] == pytest.approx(2.0 / 3.0)

    def test_html_is_standalone_with_svg_trend(self, tmp_path):
        store, _, trend = synthetic_inputs(tmp_path)
        html_text = build_report(store=store, trend=trend).to_html()
        assert html_text.startswith("<!doctype html>")
        assert "<table>" in html_text
        assert "<svg" in html_text and "polyline" in html_text
        assert "<script" not in html_text
        # unescaped cell key text survives into the table cells
        assert "ws|load=0.2|scheme=ECN#" in html_text

    def test_missing_inputs_yield_empty_sections(self, tmp_path):
        report = build_report(store=tmp_path / "absent.jsonl",
                              trend=tmp_path / "absent-trend.jsonl")
        md = report.to_markdown()
        assert "No trend data" in md
        assert report.total_cells == 0

    def test_latest_sidecar_row_wins(self, tmp_path):
        store, resources, _ = synthetic_inputs(tmp_path)
        with open(resources, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "scenario": "s1", "cell_key": "ws|load=0.2|scheme=ECN#",
                "status": "ok", "wall_seconds": 9.0, "events": 9000,
                "events_per_sec": 1000.0, "max_rss_kb": 1, "cache_hits": 0,
                "executed_specs": 2, "failed_specs": 0, "git_sha": "abc",
            }) + "\n")
        report = build_report(store=store)
        row = next(r for r in report.resources
                   if r["cell_key"] == "ws|load=0.2|scheme=ECN#")
        assert row["wall_seconds"] == 9.0

    def test_checked_in_example_store_renders_offline(self):
        report = build_report(store="examples/obs/campaign.jsonl")
        assert report.total_cells == 3
        assert report.resources  # sidecar auto-discovered
        md = report.to_markdown()
        assert "fig10-microscopic" in md


# --------------------------------------------------------------- CLI wiring


class TestCli:
    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        store, _, trend = synthetic_inputs(tmp_path)
        out_md = tmp_path / "dash.md"
        out_html = tmp_path / "dash.html"
        assert main([
            "obs", "report", "--store", str(store), "--trend", str(trend),
            "--out", str(out_md), "--html", str(out_html),
        ]) == 0
        assert "## Summary" in out_md.read_text()
        assert out_html.read_text().startswith("<!doctype html>")
        captured = capsys.readouterr()
        assert "report written" in captured.out

    def test_obs_report_to_stdout(self, tmp_path, capsys):
        from repro.cli import main

        store, _, _ = synthetic_inputs(tmp_path)
        assert main(["obs", "report", "--store", str(store)]) == 0
        assert "## Summary" in capsys.readouterr().out

    def test_obs_report_requires_an_input(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["obs", "report"])

    def test_quiet_suppresses_diagnostics(self, tmp_path, capsys):
        from repro.cli import main

        store, _, _ = synthetic_inputs(tmp_path)
        out_md = tmp_path / "dash.md"
        assert main(["-q", "obs", "report", "--store", str(store),
                     "--out", str(out_md)]) == 0
        captured = capsys.readouterr()
        assert "report written" not in captured.out
        assert out_md.exists()

    def test_scenario_run_progress_out_and_spans_out(self, tmp_path, capsys,
                                                     scenario_file):
        from repro.cli import main

        heartbeat = tmp_path / "hb.jsonl"
        spans_out = tmp_path / "spans.json"
        store = tmp_path / "campaign.jsonl"
        assert main([
            "scenario", "run", str(scenario_file),
            "--store", str(store), "--no-cache",
            "--progress-out", str(heartbeat), "--spans-out", str(spans_out),
        ]) == 0
        lines = [json.loads(l)
                 for l in heartbeat.read_text().splitlines()]
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["ok"] == lines[-1]["total"]
        spans = json.loads(spans_out.read_text())["spans"]
        assert spans[0]["name"] == "campaign"
        captured = capsys.readouterr()
        assert "# spans:" in captured.out
        assert "# campaign:" in captured.out


SCENARIO_TOML = """\
schema_version = 1
name = "obs-unit"

[rtt]
min_us = 70.0
variation = 3.0
shape = "testbed"

[schemes]
preset = "testbed"
only = ["ECN#"]

[run]
seed = 7

[[workloads]]
name = "ws"
kind = "fct"
workload = "web-search"
loads = [0.2]
n_flows = 6
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "obs_unit.toml"
    path.write_text(SCENARIO_TOML)
    return path
