"""Tests for the store and cache crash directives of ``REPRO_FAULT_INJECT``:
their grammar, the injection points, and subprocess convergence of shared
campaigns under kills, torn writes and cache corruption."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.executor import Executor, ResultCache
from repro.experiments.faults import FAULT_EXIT_CODE
from repro.scenarios import CampaignStore, run_campaign, store_fingerprint
from repro.scenarios.campaign import CellRecord
from repro.scenarios.coordination import merge_stores
from repro.settings import Fault, SettingError, fault_directives
from repro.telemetry import Telemetry, activate
from repro.testing import run_chaos_campaign

from test_executor import tiny_spec
from test_scenarios_campaign import executor, tiny_scenario


def chaos(monkeypatch, directive):
    monkeypatch.setenv("REPRO_FAULT_INJECT", directive)


class Exited(BaseException):
    pass


@pytest.fixture()
def no_exit(monkeypatch):
    """``os._exit`` raises :class:`Exited` instead of ending the test run."""

    def fake_exit(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", fake_exit)


def record(n):
    return CellRecord("s", "h", f"k{n}", "c", (f"t{n}",), "ok", {}, (),
                      None, "1")


class TestDirectiveGrammar:
    def test_modes_and_counts(self, monkeypatch):
        for text, expected in (
            ("kill_after", (Fault("kill_after", n=1),)),
            ("torn_write:3", (Fault("torn_write", n=3),)),
            ("kill_before:2; corrupt_cache",
             (Fault("kill_before", n=2), Fault("corrupt_cache", n=1))),
        ):
            chaos(monkeypatch, text)
            assert fault_directives() == expected

    def test_empty_is_no_directives(self, monkeypatch):
        for text in ("", " ; "):
            chaos(monkeypatch, text)
            assert fault_directives() == ()

    def test_unknown_mode_raises_naming_the_variable(self, monkeypatch, tmp_path):
        chaos(monkeypatch, "explode:1;kill_after:2")
        with pytest.raises(SettingError,
                           match="REPRO_FAULT_INJECT=.*unknown mode 'explode'"):
            CampaignStore(tmp_path / "s.jsonl").append([record(1)])
        assert not (tmp_path / "s.jsonl").exists()

    def test_bad_count_raises_naming_the_variable(self, monkeypatch):
        for text, message in (("kill_after:soon", "not a valid int"),
                              ("kill_after:0", ">= 1")):
            chaos(monkeypatch, text)
            with pytest.raises(SettingError,
                               match=f"REPRO_FAULT_INJECT=.*{message}"):
                fault_directives()

    def test_reads_environment_by_default(self, monkeypatch):
        chaos(monkeypatch, "kill_after:4")
        assert fault_directives() == (Fault("kill_after", n=4),)


class TestInjectionPoints:
    def test_tear_truncates_first_record_without_newline(
        self, monkeypatch, tmp_path, no_exit
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        chaos(monkeypatch, "torn_write:1")
        with pytest.raises(Exited):
            store.append([record(1), record(2)])
        first = record(1).line
        assert store.path.read_text() == first[: len(first) // 2]

    def test_disabled_is_a_passthrough(self, tmp_path, no_exit):
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append([record(1)])
        assert store.path.read_text() == record(1).line + "\n"

    def test_kill_after_fires_on_the_counted_append(
        self, monkeypatch, tmp_path, no_exit
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        chaos(monkeypatch, "kill_after:2")
        store.append([record(1)])
        with pytest.raises(Exited, match=str(FAULT_EXIT_CODE)):
            store.append([record(2)])  # written, then the process dies
        store.append([record(3)])
        assert store.path.read_text().splitlines() == [
            record(n).line for n in (1, 2, 3)]

    def test_torn_write_returns_torn_payload_and_dies(
        self, monkeypatch, tmp_path, no_exit
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        chaos(monkeypatch, "torn_write:1")
        with pytest.raises(Exited, match=str(FAULT_EXIT_CODE)):
            store.append([record(1)])
        torn = store.path.read_bytes()
        assert torn and not torn.endswith(b"\n")
        assert record(1).line.startswith(torn.decode())

    def test_kill_before_exits_without_writing(
        self, monkeypatch, tmp_path, no_exit
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        chaos(monkeypatch, "kill_before:1")
        with pytest.raises(Exited, match=str(FAULT_EXIT_CODE)):
            store.append([record(1)])
        assert not store.path.exists() or store.path.read_bytes() == b""

    def test_corrupt_cache_truncates_entry(self, monkeypatch, tmp_path):
        spec = tiny_spec()
        clean = ResultCache(tmp_path / "clean")
        clean.store(spec, {"result": "x" * 100})
        size = os.path.getsize(clean._file(spec))
        chaos(monkeypatch, "corrupt_cache:1")
        cache = ResultCache(tmp_path / "chaos")
        telemetry = Telemetry(trace=True, trace_categories=["resilience"])
        with activate(telemetry):
            cache.store(spec, {"result": "x" * 100})
        assert os.path.getsize(cache._file(spec)) == size // 2
        registry = telemetry.registry
        assert (
            registry.counter(
                "chaos_injections_total", mode="corrupt_cache"
            ).value
            == 1
        )
        kinds = [e.kind for e in telemetry.recorder.events("resilience")]
        assert kinds == ["chaos_injection"]


def test_run_time_modules_do_not_import_the_test_harness():
    """The crash directives act at their points; importing the executor and
    the campaign store (which hold those points) loads no test harness."""
    code = ("import sys, repro.experiments.executor, repro.scenarios.campaign; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))")
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestInProcessChaosCampaign:
    def test_torn_write_heals_on_resume(self, monkeypatch, tmp_path, no_exit):
        """A torn shard append (chaos in-process, with os._exit stubbed to
        an exception) leaves a store whose resume converges byte-for-byte
        in content to a clean run's fingerprint."""

        scenario = tiny_scenario()
        store = tmp_path / "chaotic.jsonl"
        chaos(monkeypatch, "torn_write:1")
        with pytest.raises(Exited):
            run_campaign([scenario], store, executor())
        raw = store.read_bytes()
        assert raw and not raw.endswith(b"\n")  # genuinely torn

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        with pytest.warns(UserWarning, match="unreadable record"):
            resumed = run_campaign([scenario], store, executor())
        assert resumed.executed_cells == 2  # the torn shard re-ran

        clean = tmp_path / "clean.jsonl"
        run_campaign([scenario], clean, executor())
        with pytest.warns(UserWarning, match="unreadable record"):
            chaotic_fingerprint = store_fingerprint(store)
        assert chaotic_fingerprint == store_fingerprint(clean)

    def test_corrupt_cache_entry_quarantined_on_reread(
        self, monkeypatch, tmp_path
    ):
        spec = tiny_spec()
        chaos(monkeypatch, "corrupt_cache:1")
        first = Executor(jobs=1, cache=True, cache_dir=tmp_path, retries=0)
        baseline = first.run([spec])[0]

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        second = Executor(jobs=1, cache=True, cache_dir=tmp_path, retries=0)
        telemetry = Telemetry()
        with activate(telemetry):
            with pytest.warns(UserWarning, match="quarantined"):
                again = second.run([spec])[0]
        assert second.stats.cache_hits == 0  # never silently re-read
        assert second.stats.executed == 1
        assert second.cache.corrupt_quarantined == 1
        assert telemetry.registry.counter("cache_corrupt_total").value == 1
        assert list(tmp_path.glob("*.corrupt"))
        assert again.summary.overall_avg == baseline.summary.overall_avg


def write_scenario(tmp_path) -> Path:
    """The tiny two-cell scenario as a JSON file for subprocess workers."""
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(tiny_scenario().to_dict()))
    return path


def clean_fingerprint(tmp_path) -> bytes:
    store = tmp_path / "clean.jsonl"
    run_campaign([tiny_scenario()], store, executor())
    return store_fingerprint(store)


@pytest.fixture()
def subprocess_env(monkeypatch, tmp_path):
    """Subprocess workers must import repro and share this test's cache."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH", src + (os.pathsep + existing if existing else "")
    )


class TestConvergence:
    """End-to-end: shared campaigns driven to convergence under chaos must
    settle a store whose cell records exactly match a clean single-writer
    run -- no duplicated and no lost cells."""

    def test_two_writers_survive_kill_and_cache_corruption(
        self, subprocess_env, tmp_path
    ):
        scenario_path = write_scenario(tmp_path)
        store = tmp_path / "shared.jsonl"
        report = run_chaos_campaign(
            scenario_path, store,
            chaos="kill_after:1;corrupt_cache:1",
            writers=2, chaos_rounds=1, lease_ttl=0.75,
        )
        assert report.converged, [r.summaries for r in report.rounds]
        assert report.kill_count >= 1
        assert store_fingerprint(store) == clean_fingerprint(tmp_path)
        # Merging the survivor store with a clean store must be a clean,
        # conflict-free collapse (determinism held under chaos).
        clean = tmp_path / "clean.jsonl"
        merged = merge_stores([store, clean], output=tmp_path / "m.jsonl")
        assert len(merged.records) == 2
        assert merged.ok_cells == 2

    def test_torn_write_converges_and_is_counted(
        self, subprocess_env, tmp_path
    ):
        scenario_path = write_scenario(tmp_path)
        store = tmp_path / "shared.jsonl"
        report = run_chaos_campaign(
            scenario_path, store, chaos="torn_write:1",
            writers=1, chaos_rounds=1, lease_ttl=0.75,
        )
        assert report.converged, [r.summaries for r in report.rounds]
        assert report.rounds[0].exit_codes == [FAULT_EXIT_CODE]
        campaign_store = CampaignStore(store)
        with pytest.warns(UserWarning, match="unreadable record"):
            fingerprint = store_fingerprint(campaign_store)
        assert fingerprint == clean_fingerprint(tmp_path)
        assert campaign_store.load_stats.torn_lines == 1

    def test_kill_before_reclaims_dead_workers_cells_exactly_once(
        self, subprocess_env, tmp_path
    ):
        scenario_path = write_scenario(tmp_path)
        store = tmp_path / "shared.jsonl"
        report = run_chaos_campaign(
            scenario_path, store, chaos="kill_before:1",
            writers=1, chaos_rounds=1, lease_ttl=0.75,
        )
        assert report.converged, [r.summaries for r in report.rounds]
        assert report.rounds[0].exit_codes == [FAULT_EXIT_CODE]
        summaries = [
            s for r in report.rounds for s in r.summaries if s is not None
        ]
        # The killed worker appended nothing, so the reclaiming pass
        # re-recorded each of its cells exactly once, via stale leases.
        assert sum(s["executed"] for s in summaries) == 2
        assert sum(s["reclaimed"] for s in summaries) == 2
        assert len(store.read_text().splitlines()) == 2  # no duplicates
        assert store_fingerprint(store) == clean_fingerprint(tmp_path)
