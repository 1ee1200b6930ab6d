"""Tests for the telemetry subsystem: registry, flight recorder, profiler,
provenance, runtime attachment, and the CLI integration."""

import json

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Ecn
from repro.sim.port import Port
from repro.sim.units import gbps, ms, us
from repro.telemetry import (
    CATEGORIES,
    FCT_US_BUCKETS,
    QUEUE_PKT_BUCKETS,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    RunManifest,
    RunProfiler,
    Snapshotter,
    Telemetry,
    activate,
    dataplane_telemetry,
    get_active,
)

from conftest import make_packet


class _Sink:
    def receive(self, packet):
        pass


def make_port(sim, buffer_bytes=150_000):
    port = Port(sim, "p", gbps(10), us(2), buffer_bytes)
    port.peer = _Sink()
    return port


# --------------------------------------------------------------- registry


class TestHistogram:
    def test_bucket_boundaries_inclusive(self):
        hist = Histogram((10, 20))
        hist.observe(10)  # exactly on a bound -> that bucket
        hist.observe(10.5)
        hist.observe(20)
        hist.observe(21)  # beyond the last bound -> overflow bucket
        assert hist.counts == [1, 2, 1]
        assert hist.count == 4

    def test_percentiles_report_bucket_upper_bounds(self):
        hist = Histogram((1, 2, 4, 8))
        for value in (0.5, 0.6, 1.5, 3.0):
            hist.observe(value)
        assert hist.percentile(50) == 1
        assert hist.percentile(100) == 4
        hist.observe(100.0)  # overflow bucket
        assert hist.percentile(100) == float("inf")

    def test_empty_histogram(self):
        hist = Histogram(FCT_US_BUCKETS)
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram((5, 3))

    def test_to_dict_roundtrips_through_json(self):
        hist = Histogram((1, 2))
        hist.observe(0.5)
        data = json.loads(json.dumps(hist.to_dict()))
        assert data["count"] == 1
        assert data["buckets"]["1.0"] == 1


class TestRegistry:
    def test_counter_get_or_create_by_label(self):
        registry = MetricsRegistry()
        registry.counter("drops", port="a").inc()
        registry.counter("drops", port="a").inc(2)
        registry.counter("drops", port="b").inc()
        snap = registry.snapshot()
        assert snap["counters"]["drops{port=a}"] == 3
        assert snap["counters"]["drops{port=b}"] == 1

    def test_gauge_tracks_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert registry.snapshot()["gauges"]["depth"] == {"value": 2, "peak": 5}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.histogram("fct_us", FCT_US_BUCKETS, cc="Dctcp").observe(123.0)
        json.dumps(registry.snapshot())


class TestSnapshotter:
    def test_samples_on_the_des_clock(self, sim):
        snapshotter = Snapshotter(sim, interval=us(10))
        values = iter(range(100))
        snapshotter.add_sampler(lambda: {"x": next(values)})
        sim.run(until=us(35))
        assert [row["x"] for row in snapshotter.rows] == [0, 1, 2, 3]
        assert snapshotter.rows[1]["time"] == pytest.approx(us(10))

    def test_row_cap_evicts_oldest(self, sim):
        snapshotter = Snapshotter(sim, interval=us(1), max_rows=5)
        snapshotter.add_sampler(lambda: {})
        sim.run(until=us(20))
        assert len(snapshotter.rows) == 5
        assert snapshotter.rows[0]["time"] > us(14)


# --------------------------------------------------------- flight recorder


class TestFlightRecorder:
    def test_ring_wraparound_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(7):
            recorder.emit(float(index), "drop", "overflow", seq=index)
        assert len(recorder) == 4
        assert recorder.emitted == 7
        assert recorder.evicted == 3
        assert [e.fields["seq"] for e in recorder.events()] == [3, 4, 5, 6]

    def test_category_filter_short_circuits(self):
        recorder = FlightRecorder(categories=["drop"])
        assert recorder.wants("drop") and not recorder.wants("queue")
        recorder.emit(0.0, "queue", "enqueue")
        recorder.emit(0.0, "drop", "overflow")
        assert recorder.emitted == 1
        assert recorder.events()[0].category == "drop"

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(categories=["nonsense"])

    def test_jsonl_round_trip(self, tmp_path):
        recorder = FlightRecorder()
        recorder.emit(1.5e-3, "mark", "instant", flow=7, seq=3)
        recorder.emit(2.5e-3, "drop", "overflow", flow=8, seq=0, size=1500)
        path = str(tmp_path / "trace.jsonl")
        assert recorder.export_jsonl(path) == 2
        loaded = FlightRecorder.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].time == 1.5e-3
        assert loaded[0].category == "mark"
        assert loaded[0].kind == "instant"
        assert loaded[0].fields == {"flow": 7, "seq": 3}
        assert loaded[1].fields["size"] == 1500

    def test_export_is_json_dumps_per_event_byte_for_byte(self, tmp_path):
        """The shared encoder writes what ``json.dumps(event, sort_keys=True)``
        wrote per line: floats, non-ASCII text, nested dicts and lists."""
        recorder = FlightRecorder()
        recorder.emit(1e-9, "queue", "enqueue", port="s0→h1", bytes=1500,
                      sojourn=0.1 + 0.2, nested={"z": [1.5, None], "a": True})
        recorder.emit(2.0, "failure", "crash", text='quote " tab\t é 𝄞',
                      inf=float("inf"), big=2**70, neg=-0.0)
        recorder.emit(3.25, "scenario", "cell", cell={"b": {"d": 1, "c": [{}]}})
        path = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(str(path)) == 3
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in recorder.events())


# ------------------------------------------------------- runtime attachment


class TestRuntimeAttachment:
    def test_no_active_telemetry_attaches_none(self):
        assert get_active() is None
        sim = Simulator()
        port = make_port(sim)
        assert port.telemetry is None
        assert port.aqm.telemetry is None
        assert sim.profiler is None

    def test_profiler_only_telemetry_skips_dataplane(self):
        telemetry = Telemetry(metrics=False)
        assert not telemetry.instruments_dataplane
        with activate(telemetry):
            assert dataplane_telemetry() is None
            sim = Simulator()
            port = make_port(sim)
        assert port.telemetry is None
        assert sim.profiler is telemetry.profiler

    def test_activation_is_scoped(self):
        telemetry = Telemetry(trace=True)
        with activate(telemetry):
            assert get_active() is telemetry
        assert get_active() is None

    def test_port_events_recorded_when_active(self):
        with activate(Telemetry(trace=True)) as telemetry:
            sim = Simulator()
            port = make_port(sim)
            for seq in range(3):
                port.send(make_packet(seq=seq))
            sim.run()
        kinds = {e.kind for e in telemetry.recorder.events("queue")}
        assert kinds == {"enqueue", "dequeue"}
        enqueues = [
            e for e in telemetry.recorder.events("queue") if e.kind == "enqueue"
        ]
        assert len(enqueues) == 3

    def test_drop_events_and_counters(self):
        with activate(Telemetry(trace=True)) as telemetry:
            sim = Simulator()
            port = make_port(sim, buffer_bytes=1500)
            for seq in range(4):
                port.send(make_packet(seq=seq, size=1500))
            sim.run()
        drops = telemetry.recorder.events("drop")
        assert drops and all(e.kind == "overflow" for e in drops)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["drops_total{port=p,reason=overflow}"] == len(drops)

    def test_mark_events_from_aqm(self):
        from repro.core.red import DctcpRed

        with activate(Telemetry(trace=True)) as telemetry:
            sim = Simulator()
            aqm = DctcpRed(threshold_bytes=1)
            port = Port(sim, "q", gbps(10), us(2), 150_000, aqm=aqm)
            port.peer = _Sink()
            # Three back-to-back sends: the third arrives with the second
            # still queued behind the serializing first, exceeding K=1 byte.
            for seq in range(3):
                port.send(make_packet(seq=seq, ecn=Ecn.ECT0))
            sim.run()
        marks = telemetry.recorder.events("mark")
        assert marks
        assert marks[0].fields["scheme"] == "DctcpRed"
        assert marks[0].time >= 0.0

    def test_port_summary_scrape(self):
        with activate(Telemetry()) as telemetry:
            sim = Simulator()
            port = make_port(sim)
            port.send(make_packet())
            sim.run()
        summary = telemetry.snapshot()["ports"]["p#0"]
        assert summary["tx_packets"] == 1
        assert summary["buffer_peak_bytes"] > 0


# --------------------------------------------------------------- profiler


class TestProfiler:
    def test_engine_records_run(self):
        with activate(Telemetry(metrics=False)) as telemetry:
            sim = Simulator()
            for index in range(10):
                sim.schedule(index * 1e-6, lambda: None)
            sim.run()
        profiler = telemetry.profiler
        assert profiler.runs == 1
        assert profiler.events == 10
        assert profiler.wall_seconds > 0
        assert profiler.virtual_seconds == pytest.approx(9e-6)
        assert "10 events" in profiler.summary_line()

    def test_aggregates_across_simulators(self):
        with activate(Telemetry(metrics=False)) as telemetry:
            for _ in range(3):
                sim = Simulator()
                sim.schedule(0.0, lambda: None)
                sim.run()
        assert telemetry.profiler.runs == 3
        assert telemetry.profiler.events == 3

    def test_to_dict_serializable(self):
        profiler = RunProfiler()
        profiler.record_run(100, 0.5, 2.0, 42)
        data = json.loads(json.dumps(profiler.to_dict()))
        assert data["events_per_second"] == 200.0
        assert data["peak_heap_depth"] == 42


# -------------------------------------------------------------- provenance


class TestProvenance:
    def test_manifest_captures_environment(self):
        manifest = RunManifest.collect("fig10", seed=51, scheme="EcnSharp")
        assert manifest.experiment == "fig10"
        assert manifest.seed == 51
        assert manifest.params["scheme"] == "EcnSharp"
        assert manifest.python
        assert manifest.started_unix > 0

    def test_manifest_json_round_trip(self, tmp_path):
        scale = {"name": "paper", "params": {"loads": (0.1, 0.2)}}
        manifest = RunManifest.collect("fig6", seed=21, scale=scale)
        manifest.finish(wall_seconds=1.25, events=1000)
        path = str(tmp_path / "manifest.json")
        manifest.write_json(path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["seed"] == 21
        assert data["scale"] == {"name": "paper", "params": {"loads": [0.1, 0.2]}}
        assert data["events"] == 1000
        assert data["wall_seconds"] == 1.25

    def test_runner_attaches_manifest(self):
        from repro.experiments.runner import run_star_fct
        from repro.experiments.schemes import simulation_schemes
        from repro.workloads.websearch import WEB_SEARCH

        result = run_star_fct(
            simulation_schemes()["ECN#"], WEB_SEARCH, 0.3, 5, seed=3
        )
        assert result.manifest is not None
        assert result.manifest.seed == 3
        assert result.manifest.params["scheme"] == "EcnSharp"
        assert result.manifest.events == result.events
        assert result.manifest.wall_seconds > 0


# ------------------------------------------------------------ CLI smoke


def one_small_fig10_cell(monkeypatch):
    """Shrink fig10's row to one ECN# cell: a 16-flow burst at 8 ms of a
    10 ms run.  It still queues, marks, runs timers and takes snapshots,
    which is all the CLI flag tests need, at a fraction of the reduced
    grid's three 45 ms runs."""
    from repro.experiments.figures import FIGURES
    from repro.experiments.schemes import simulation_scheme_specs
    from repro.experiments.specs import Cell, RunSpec

    def cells(seed: int = FIGURES["fig10"].seed):
        spec = RunSpec.microscopic(
            simulation_scheme_specs()["ECN#"], seed=seed, label="ECN#",
            fanout=16, burst_time=ms(8), end_time=ms(10))
        return {(16, "ECN#"): Cell.single("fig10", "scheme=ECN#", spec)}

    monkeypatch.setitem(FIGURES, "fig10",
                        FIGURES["fig10"]._replace(cells=cells))


class TestCliTelemetry:
    def test_fig10_trace_and_metrics_out(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        one_small_fig10_cell(monkeypatch)

        # A factor-1 perturbation changes nothing but is a set hook.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "perturb:ecn-sharp:pst_target:1")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        trace_path = str(tmp_path / "t.jsonl")
        metrics_path = str(tmp_path / "m.json")
        assert (
            main(
                [
                    "run", "fig10",
                    "--trace",
                    "--trace-out", trace_path,
                    "--metrics-out", metrics_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# profile:" in out
        assert "# trace:" in out

        events = FlightRecorder.load_jsonl(trace_path)
        assert events
        categories = {e.category for e in events}
        assert "queue" in categories and "mark" in categories

        with open(metrics_path) as handle:
            data = json.load(handle)
        assert data["manifest"]["experiment"] == "fig10"
        assert data["manifest"]["seed"] == 51
        assert data["manifest"]["events"] > 0
        assert data["manifest"]["scale"] == {"name": "reduced", "params": {}}
        assert data["manifest"]["settings"] == {
            "jobs": 1,
            "retries": 4,
            "spec_timeout": None,
            "cache_dir": str(tmp_path / "repro-cache"),
            "fidelity": "packet",
            "full": False,
            "REPRO_FAULT_INJECT": "perturb:ecn-sharp:pst_target:1",
        }
        assert data["metrics"]["counters"]
        assert data["profile"]["events"] > 0
        assert data["series"]  # DES-clock queue-depth time series

    def test_trace_categories_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        one_small_fig10_cell(monkeypatch)

        trace_path = str(tmp_path / "cwnd.jsonl")
        assert (
            main(
                [
                    "run", "fig10",
                    "--trace-categories", "cwnd,timer",
                    "--trace-out", trace_path,
                ]
            )
            == 0
        )
        events = FlightRecorder.load_jsonl(trace_path)
        assert events
        assert {e.category for e in events} <= {"cwnd", "timer"}

    def test_plain_run_prints_profile_without_dataplane_hooks(self, capsys):
        from repro.cli import main

        # table1 is analytic: the profiler sees no run, so no line.
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "# profile:" not in out
        assert get_active() is None  # activation cleaned up