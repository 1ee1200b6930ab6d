"""Tests for campaign orchestration: resumable execution over the JSONL
store, crash safety, failure re-execution, shared multi-writer mode, and
telemetry accounting."""

import io
import json
import shutil
import time

import pytest

from repro.experiments.executor import Executor
from repro.scenarios import (
    CampaignStore,
    CellRecord,
    LeaseBoard,
    Scenario,
    compile_scenario,
    render_store_report,
    run_campaign,
    store_fingerprint,
)
from repro.telemetry import Telemetry, activate
from repro.telemetry.progress import JsonlHeartbeat

from test_scenarios_schema import base_dict


def tiny_scenario(name="campaign-unit", loads=(0.2, 0.4), seed=7):
    """Two fast cells (one scheme, tiny flow counts)."""
    data = base_dict(name=name, run={"seed": seed})
    data["workloads"][0].update({"loads": list(loads), "n_flows": 6})
    return Scenario.from_dict(data)


def executor():
    return Executor(jobs=1, cache=False, retries=0)


class TestRunAndResume:
    def test_first_pass_executes_every_cell(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        result = run_campaign([tiny_scenario()], store, executor())
        assert result.summary_line() == "cells=2 executed=2 skipped=0 failed=0"
        index = CampaignStore(store).load()
        assert len(index) == 2
        for record in index.values():
            assert record.status == "ok"
            assert "overall_avg" in record.metrics
            assert record.version

    def test_rerun_skips_everything_and_appends_nothing(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        scenario = tiny_scenario()
        first = run_campaign([scenario], store, executor())
        content = store.read_bytes()
        second = run_campaign([scenario], store, executor())
        assert second.executed_cells == 0
        assert second.skipped_cells == 2
        assert store.read_bytes() == content
        # the skipped pass still surfaces the stored records
        assert {r.cell_key for r in second.records} == {
            r.cell_key for r in first.records
        }

    def test_interrupted_store_is_bit_identical_after_resume(self, tmp_path):
        """Kill after one cell (max_cells), resume, and compare the store
        byte-for-byte against an uninterrupted campaign."""
        scenario = tiny_scenario()
        interrupted = tmp_path / "interrupted.jsonl"
        partial = run_campaign([scenario], interrupted, executor(),
                               max_cells=1)
        assert partial.executed_cells == 1
        resumed = run_campaign([scenario], interrupted, executor())
        assert resumed.executed_cells == 1
        assert resumed.skipped_cells == 1

        uninterrupted = tmp_path / "uninterrupted.jsonl"
        run_campaign([scenario], uninterrupted, executor())
        assert interrupted.read_bytes() == uninterrupted.read_bytes()

    def test_scenario_edit_invalidates_records(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        run_campaign([tiny_scenario(seed=7)], store, executor())
        # same name, different seed: a new content hash, so nothing is reused
        edited = run_campaign([tiny_scenario(seed=8)], store, executor())
        assert edited.executed_cells == 2
        assert edited.skipped_cells == 0


class TestFailureHandling:
    def test_failed_cell_reexecutes_on_rerun(self, tmp_path, monkeypatch):
        scenario = tiny_scenario()
        store = tmp_path / "campaign.jsonl"
        victim = compile_scenario(scenario).cells[0].specs[0].token()
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"raise:{victim}")
        first = run_campaign([scenario], store, executor())
        assert first.executed_cells == 2
        assert first.failed_cells == 1
        failed = [r for r in first.records if r.status == "failed"]
        assert len(failed) == 1
        assert failed[0].failures[0]["exc"] == "InjectedFault"

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        second = run_campaign([scenario], store, executor())
        assert second.executed_cells == 1  # only the failed cell
        assert second.skipped_cells == 1
        assert all(r.status == "ok"
                   for r in CampaignStore(store).load().values())

    def test_torn_trailing_line_is_skipped_and_healed(self, tmp_path):
        scenario = tiny_scenario()
        store = tmp_path / "campaign.jsonl"
        run_campaign([scenario], store, executor())
        lines = store.read_text().splitlines()
        # tear the second record mid-write, no trailing newline
        store.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        with pytest.warns(UserWarning, match="unreadable record"):
            resumed = run_campaign([scenario], store, executor())
        assert resumed.executed_cells == 1
        assert resumed.skipped_cells == 1
        # the healed store parses completely and settles every cell ok
        with pytest.warns(UserWarning):
            index = CampaignStore(store).load()
        assert len(index) == 2
        assert all(r.status == "ok" for r in index.values())
        # and a further rerun is a pure skip
        with pytest.warns(UserWarning):
            final = run_campaign([scenario], store, executor())
        assert final.executed_cells == 0


class TestStore:
    def test_records_round_trip(self, tmp_path):
        record = CellRecord(
            scenario="s", scenario_hash="h", cell_key="k", component="c",
            tokens=("t1", "t2"), status="ok", metrics={"m": 1.0},
            failures=(), git_sha="abc", version="0.1",
        )
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append([record])
        assert store.load() == {record.key: record}

    def test_latest_record_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        old = CellRecord("s", "h", "k", "c", ("t",), "failed", {}, (),
                         None, "0.1")
        new = CellRecord("s", "h", "k", "c", ("t",), "ok", {"m": 2.0}, (),
                         None, "0.1")
        store.append([old])
        store.append([new])
        assert store.load()[("h", ("t",))].status == "ok"

    def test_load_stats_counts_lines_and_torn(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        assert store.load() == {}
        assert store.load_stats.lines == 0
        run_campaign([tiny_scenario()], store.path, executor())
        store.load()
        assert store.load_stats.lines == 2
        assert store.load_stats.records == 2
        assert store.load_stats.torn_lines == 0
        lines = store.path.read_text().splitlines()
        store.path.write_text(lines[0] + "\n" + lines[1][:10])
        with pytest.warns(UserWarning, match="unreadable record"):
            store.load()
        assert store.load_stats.torn_lines == 1
        assert store.load_stats.records == 1

    def test_torn_lines_surface_in_store_report(self, tmp_path):
        store = tmp_path / "s.jsonl"
        run_campaign([tiny_scenario()], store, executor())
        lines = store.read_text().splitlines()
        store.write_text(lines[0] + "\n" + lines[1][:10])
        with pytest.warns(UserWarning, match="unreadable record"):
            report = render_store_report(store)
        assert "campaign_store_torn_lines_total 1" in report

    def test_append_resources_heals_torn_sidecar(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append_resources([{"cell": "a"}])
        with open(store.resources_path, "a", encoding="utf-8") as handle:
            handle.write('[1]\n"x"\n')  # parses, but is not a row object
            handle.write('{"cell": "to')  # torn write, no newline
        store.append_resources([{"cell": "b"}])
        # only object rows come back; "b" is not glued onto the torn line
        assert store.load_resources() == [{"cell": "a"}, {"cell": "b"}]

    def test_sidecar_gap_does_not_affect_resume(self, tmp_path, monkeypatch):
        """A crash between store.append and append_resources (records
        durable, sidecar row lost) must leave the store resumable to the
        uninterrupted bytes."""
        scenario = tiny_scenario()
        gap = tmp_path / "gap.jsonl"
        monkeypatch.setattr(
            CampaignStore, "append_resources", lambda self, rows: None
        )
        run_campaign([scenario], gap, executor(), max_cells=1)
        monkeypatch.undo()
        assert not CampaignStore(gap).resources_path.exists()

        resumed = run_campaign([scenario], gap, executor())
        assert resumed.executed_cells == 1
        assert resumed.skipped_cells == 1
        clean = tmp_path / "clean.jsonl"
        run_campaign([scenario], clean, executor())
        assert gap.read_bytes() == clean.read_bytes()

    def test_records_carry_no_timestamps(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        run_campaign([tiny_scenario()], store, executor())
        for line in store.read_text().splitlines():
            payload = json.loads(line)
            assert set(payload) == {
                "scenario", "scenario_hash", "cell_key", "component",
                "tokens", "status", "metrics", "failures", "git_sha",
                "version",
            }


class TestSharedMode:
    """In-process coverage of the multi-writer path (cross-process
    interleavings live in test_chaos.py)."""

    def cell_keys(self, scenario):
        compiled = compile_scenario(scenario)
        shash = scenario.content_hash()
        return [(shash, tuple(cell.tokens())) for cell in compiled.cells]

    GRID = (0.2, 0.3, 0.4, 0.5, 0.6)  # five cells: two shards at jobs=1

    @pytest.mark.parametrize(
        "case", ["fresh", "max_cells=1", "max_cells=3", "settled", "failed"]
    )
    def test_shared_single_worker_matches_single_writer(
        self, tmp_path, monkeypatch, case
    ):
        """Both modes run one loop, so a lone ``shared`` worker writes a
        single writer's bytes through the same appends, and reports the
        same accounting and the same progress."""
        scenario = tiny_scenario(loads=self.GRID)
        max_cells = None
        if case.startswith("max_cells="):
            max_cells = int(case.split("=")[1])
        if case == "settled":  # two cells already ok in the store
            run_campaign([scenario], tmp_path / "seed.jsonl", executor(),
                         max_cells=2)
        if case == "failed":
            victim = compile_scenario(scenario).cells[1].specs[0].token()
            monkeypatch.setenv("REPRO_FAULT_INJECT", f"raise:{victim}")
        appends = []
        real_append = CampaignStore.append

        def append(store, records):
            appends.append([record.cell_key for record in records])
            real_append(store, records)

        monkeypatch.setattr(CampaignStore, "append", append)
        seen = {}
        for mode in ("single", "shared"):
            store = CampaignStore(tmp_path / f"{mode}.jsonl")
            if case == "settled":
                shutil.copy(tmp_path / "seed.jsonl", store.path)
            appends.clear()
            stream = io.StringIO()
            progress = JsonlHeartbeat(stream=stream, min_interval=0.0)
            options = {"shared": True, "worker_id": "w1", "lease_ttl": 60.0}
            result = run_campaign(
                [scenario], store, executor(), max_cells=max_cells,
                progress=progress, **(options if mode == "shared" else {}),
            )
            progress.close()
            final = json.loads(stream.getvalue().splitlines()[-1])
            for wall_clock in ("events_per_sec", "eta_seconds",
                               "elapsed_seconds"):
                del final[wall_clock]
            seen[mode] = (store.path.read_bytes(), result.summary_line(),
                          list(appends), final)
        assert seen["shared"] == seen["single"]
        assert seen["single"][2]  # every case appends something
        # coordination state is sidecar-only: leases released, lock gone
        shared = CampaignStore(tmp_path / "shared.jsonl")
        assert shared.leases_path.exists()
        assert not shared.lock_path.exists()
        leases = LeaseBoard(shared.leases_path, ttl=60.0).load()
        assert all(lease.state == "released" for lease in leases.values())
        # and a single writer leaves neither file behind
        single = CampaignStore(tmp_path / "single.jsonl")
        assert not single.leases_path.exists()
        assert not single.lock_path.exists()

    def test_shared_progress_total_is_the_grid_on_every_line(self, tmp_path):
        """The total is added once, on the first round: a ``shared`` pass
        over more than one shard reports the whole grid from its first
        heartbeat on, not the shards it has claimed so far."""
        loads = [round(0.1 + 0.05 * n, 2) for n in range(9)]
        stream = io.StringIO()
        progress = JsonlHeartbeat(stream=stream, min_interval=0.0)
        run_campaign([tiny_scenario(loads=loads)], tmp_path / "s.jsonl",
                     executor(), progress=progress, shared=True,
                     worker_id="w1")
        progress.close()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        beats = [line for line in lines if line["kind"] == "progress"]
        assert len(beats) > 9
        assert {beat["total"] for beat in beats} == {9}
        assert lines[-1]["done"] == lines[-1]["total"] == 9

    def test_shared_rerun_skips_everything(self, tmp_path):
        scenario = tiny_scenario()
        store = tmp_path / "shared.jsonl"
        run_campaign([scenario], store, executor(), shared=True,
                     worker_id="w1", lease_ttl=60.0)
        again = run_campaign([scenario], store, executor(), shared=True,
                             worker_id="w2", lease_ttl=60.0)
        assert again.executed_cells == 0
        assert again.skipped_cells == 2

    def test_live_foreign_lease_is_left_alone(self, tmp_path, monkeypatch):
        # The TTL is the lease_ttl keyword (default 60 s) and nothing else:
        # the deleted environment knob must not make a fresh lease stale.
        monkeypatch.setenv("REPRO_LEASE_TTL", "0.001")
        scenario = tiny_scenario()
        store = CampaignStore(tmp_path / "shared.jsonl")
        keys = self.cell_keys(scenario)
        LeaseBoard(store.leases_path, ttl=60.0).claim([keys[0]], "other")
        result = run_campaign(
            [scenario], store, executor(), shared=True, worker_id="me",
        )
        assert result.executed_cells == 1  # only the unleased cell
        assert result.reclaimed_leases == 0
        assert len(store.load()) == 1

    def test_stale_lease_is_reclaimed_and_counted(self, tmp_path):
        scenario = tiny_scenario()
        store = CampaignStore(tmp_path / "shared.jsonl")
        keys = self.cell_keys(scenario)
        LeaseBoard(store.leases_path, ttl=60.0).claim(
            keys, "dead-worker", now=time.time() - 120
        )
        telemetry = Telemetry()
        with activate(telemetry):
            result = run_campaign(
                [scenario], store, executor(), shared=True, worker_id="me",
                lease_ttl=60.0,
            )
        assert result.executed_cells == 2
        assert result.reclaimed_leases == 2
        assert result.summary_line() == (
            "cells=2 executed=2 skipped=0 failed=0 reclaimed=2"
        )
        assert (
            telemetry.registry.counter("campaign_lease_reclaims_total").value
            == 2
        )

    def test_duplicate_key_last_record_wins_after_reclaim(self, tmp_path):
        """A reclaimed lease re-runs a cell whose first run's append raced
        in after all: the store then holds two records for the key and the
        later one wins on load."""
        scenario = tiny_scenario()
        store = CampaignStore(tmp_path / "shared.jsonl")
        run_campaign([scenario], store, executor(), shared=True,
                     worker_id="w1", lease_ttl=60.0)
        index = store.load()
        key, re_run = next(iter(index.items()))
        store.append([re_run])  # the duplicate append
        assert len(store.load()) == 2  # still one record per key
        assert store.load_stats.records == 3  # three lines read
        assert store.load()[key] == re_run

    def test_interrupt_latch_stops_between_shards(self, tmp_path):
        class FakeShutdown:
            requested = True
            signum = 15

        result = run_campaign(
            [tiny_scenario()], tmp_path / "s.jsonl", executor(),
            shared=True, worker_id="w1", lease_ttl=60.0,
            shutdown=FakeShutdown(),
        )
        assert result.interrupted
        assert result.interrupt_signum == 15
        assert result.executed_cells == 0
        assert result.summary_line().endswith(" interrupted")


class TestTelemetryAndReport:
    def test_campaign_cells_counter(self, tmp_path):
        scenario = tiny_scenario()
        store = tmp_path / "campaign.jsonl"
        telemetry = Telemetry()
        with activate(telemetry):
            run_campaign([scenario], store, executor())
            run_campaign([scenario], store, executor())
        registry = telemetry.registry
        assert registry.counter("campaign_cells_total", status="ok").value == 2
        assert (
            registry.counter("campaign_cells_total", status="skipped").value
            == 2
        )
        assert (
            registry.counter("campaign_cells_total", status="failed").value
            == 0
        )

    def test_report_renders_cells_and_filters_by_hash(self, tmp_path):
        scenario = tiny_scenario()
        store = tmp_path / "campaign.jsonl"
        run_campaign([scenario], store, executor())
        report = render_store_report(store)
        assert "campaign-unit" in report
        assert "ws|load=0.2|scheme=ECN#" in report
        assert "overall_avg" in report
        # filtering by an edited scenario (different hash) hides the records
        filtered = render_store_report(store, [tiny_scenario(seed=99)])
        assert "no campaign records" in filtered

    def test_report_on_missing_store(self, tmp_path):
        assert "no campaign records" in render_store_report(
            tmp_path / "absent.jsonl"
        )
