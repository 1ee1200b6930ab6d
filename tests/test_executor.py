"""Tests for run specs, the parallel executor, the result cache (with
checksum integrity and gc), and deterministic retry backoff."""

import os
import pickle
import time

import pytest

from repro.experiments.executor import (
    _CHECKSUM_MAGIC,
    CacheGcStats,
    Executor,
    ResultCache,
    get_default_executor,
    run_grid,
    set_default_executor,
)
from repro.core.red import SojournRed
from repro.telemetry import Telemetry, activate
from repro.experiments.runner import pool_results
from repro.experiments.schemes import build_aqm
from repro.experiments.schemes import testbed_scheme_specs as make_testbed_scheme_specs
from repro.experiments.specs import AqmSpec, RunSpec, resolve_workload, seed_specs
from repro.settings import SettingError
from repro.sim.units import us
from repro.workloads import WEB_SEARCH

SUMMARY_FIELDS = (
    "n_flows", "overall_avg", "overall_p99", "short_avg", "short_p99",
    "large_avg", "n_short", "n_large",
)


def tiny_spec(seed=3, sojourn=us(200), label="RED-Tail", load=0.4):
    return RunSpec.star(
        AqmSpec.make("sojourn-red", sojourn=sojourn),
        workload=WEB_SEARCH.name,
        load=load,
        n_flows=12,
        seed=seed,
        label=label,
    )


class TestAqmSpec:
    def test_build_constructs_fresh_instances(self):
        spec = AqmSpec.make("sojourn-red", sojourn=us(200))
        aqm = spec.build()
        assert isinstance(aqm, SojournRed)
        assert spec.build() is not aqm

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown AQM"):
            build_aqm("no-such-aqm", {})

    def test_roundtrip(self):
        spec = AqmSpec.make("codel", target=us(10), interval=us(240))
        assert AqmSpec.from_dict(spec.to_dict()) == spec


class TestRunSpec:
    def test_roundtrip_and_hash_stability(self):
        spec = RunSpec.leafspine(
            AqmSpec.make("tcn", threshold=us(150)),
            workload=WEB_SEARCH.name,
            load=0.5,
            n_flows=100,
            seed=7,
            label="TCN",
            variation=3.0,
            rtt_min=us(80),
            transport={"init_cwnd": 2.0},
            dims=(4, 4, 4),
        )
        again = RunSpec.from_dict(spec.to_dict())
        # JSON turns tuples into lists; the roundtrip must re-freeze them so
        # equality, hashing and the cache key all still line up.
        assert again == spec
        assert hash(again) == hash(spec)
        assert again.spec_hash() == spec.spec_hash()

    def test_hash_changes_with_params(self):
        assert tiny_spec(seed=3).spec_hash() != tiny_spec(seed=4).spec_hash()
        assert (
            tiny_spec(sojourn=us(200)).spec_hash()
            != tiny_spec(sojourn=us(210)).spec_hash()
        )

    def test_specs_are_picklable(self):
        spec = tiny_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = tiny_spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict(data)

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("no-such-workload")


class TestSeedSpecs:
    def test_expands_consecutive_seeds(self):
        specs = seed_specs(tiny_spec(seed=10), 3)
        assert [s.seed for s in specs] == [10, 11, 12]
        assert all(s.label == "RED-Tail" for s in specs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            seed_specs(tiny_spec(), 0)


def result_fingerprint(result):
    """Everything the figures consume: summary fields, counters, and the
    exact per-flow FCT list (bit-identical, not just approximately equal)."""
    return (
        tuple(getattr(result.summary, f) for f in SUMMARY_FIELDS),
        result.marks,
        result.drops,
        result.timeouts,
        tuple(r.fct for r in result.collector.records),
    )


class TestExecutorDeterminism:
    def grid(self):
        """Two schemes x two seeds of a tiny star run."""
        schemes = make_testbed_scheme_specs()
        return [
            spec.with_seed(seed)
            for name in ("DCTCP-RED-Tail", "ECN#")
            for seed in (3, 4)
            for spec in [
                RunSpec.star(
                    schemes[name],
                    workload=WEB_SEARCH.name,
                    load=0.4,
                    n_flows=12,
                    seed=seed,
                    label=name,
                )
            ]
        ]

    def test_serial_parallel_and_cache_identical(self, tmp_path):
        specs = self.grid()

        serial = Executor(jobs=1)
        baseline = [result_fingerprint(r) for r in serial.run(specs)]
        assert serial.stats.executed == len(specs)

        parallel = Executor(jobs=4, cache=True, cache_dir=tmp_path)
        first = parallel.run(specs)
        assert [result_fingerprint(r) for r in first] == baseline
        assert parallel.stats.executed == len(specs)
        assert parallel.stats.cache_hits == 0

        warm = parallel.run(specs)
        assert [result_fingerprint(r) for r in warm] == baseline
        assert parallel.stats.executed == len(specs)  # nothing re-simulated
        assert parallel.stats.cache_hits == len(specs)

    def test_results_in_submission_order(self, tmp_path):
        specs = self.grid()
        results = Executor(jobs=2).run(specs)
        for spec, result in zip(specs, results):
            assert result.manifest.seed == spec.seed


class TestManifestRegistration:
    @pytest.mark.parametrize("mode", ["jobs=1", "jobs=2", "cache replay"])
    def test_each_settled_run_registers_one_manifest(self, mode, tmp_path):
        specs = [tiny_spec(seed=3), tiny_spec(seed=4)]
        executor = Executor(
            jobs=2 if mode == "jobs=2" else 1, cache=True, cache_dir=tmp_path
        )
        if mode == "cache replay":
            executor.run(specs)
        with activate(Telemetry(metrics=False)) as telemetry:
            executor.run(specs)
        assert len(telemetry.manifests) == len(specs)
        assert sorted(m.seed for m in telemetry.manifests) == [3, 4]
        if mode == "cache replay":
            assert executor.stats.cache_hits == len(specs)


class TestResultCache:
    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        spec = tiny_spec()
        executor = Executor(jobs=1, cache=True, cache_dir=tmp_path)
        baseline = result_fingerprint(executor.run([spec])[0])

        executor.cache.path(spec).write_bytes(b"not a pickle")
        again = result_fingerprint(executor.run([spec])[0])
        assert again == baseline
        assert executor.stats.executed == 2  # recomputed, not crashed
        assert executor.stats.cache_hits == 0

    def test_key_mixes_in_code_tag(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        before = cache.key(spec)
        import repro.experiments.executor as executor_module

        monkeypatch.setattr(
            executor_module,
            "CACHE_SCHEMA_VERSION",
            executor_module.CACHE_SCHEMA_VERSION + 1,
        )
        assert cache.key(spec) != before

    def test_has_is_presence_not_validity(self, tmp_path):
        """What ``--dry-run`` calls a hit and what lets a campaign cell
        ride along in a replay shard: the entry file exists."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        assert not cache.has(spec)
        cache.store(spec, "result")
        assert cache.has(spec)
        assert Executor(jobs=1, cache=True, cache_dir=tmp_path).cached(spec)
        assert not Executor(jobs=1, cache=False).cached(spec)
        cache.path(spec).write_bytes(b"rot")
        assert cache.has(spec)  # until a load looks inside
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.load(spec) == (False, None)
        assert not cache.has(spec)

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load(tiny_spec()) == (False, None)

    def test_none_result_is_a_hit(self, tmp_path):
        # A legitimately-None cached result must replay as a hit, not
        # silently re-execute every time (the presence tag is the point).
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, None)
        assert cache.load(spec) == (True, None)

    def test_unpicklable_result_skips_store_without_tmp_leak(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        with pytest.warns(UserWarning, match="not picklable"):
            cache.store(spec, lambda: None)  # lambdas cannot pickle
        assert cache.load(spec) == (False, None)
        assert list(tmp_path.glob("*.tmp")) == []


class TestCacheIntegrity:
    def test_entries_carry_a_checksum_footer(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, {"answer": 42})
        blob = cache.path(spec).read_bytes()
        assert _CHECKSUM_MAGIC in blob
        assert cache.load(spec) == (True, {"answer": 42})
        assert cache.corrupt_quarantined == 0

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, {"answer": 42})
        path = cache.path(spec)
        path.write_bytes(path.read_bytes()[:-4])  # lose the digest tail
        telemetry = Telemetry()
        with activate(telemetry):
            with pytest.warns(UserWarning, match="quarantined"):
                assert cache.load(spec) == (False, None)
        assert cache.corrupt_quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert telemetry.registry.counter("cache_corrupt_total").value == 1
        # the quarantined entry is gone, so a re-load is a plain miss
        assert cache.load(spec) == (False, None)
        assert cache.corrupt_quarantined == 1

    def test_legacy_footerless_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        path = cache.path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"spec": spec.to_dict()}))
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.load(spec) == (False, None)

    def test_checksum_valid_but_unpicklable_is_plain_miss(self, tmp_path):
        """Environment mismatch (valid bytes this env cannot unpickle) must
        not be treated as corruption: the entry stays."""
        import hashlib

        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        payload = b"\x80\x05not really a pickle"
        path = cache.path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            payload + _CHECKSUM_MAGIC + hashlib.sha256(payload).digest()
        )
        assert cache.load(spec) == (False, None)
        assert cache.corrupt_quarantined == 0
        assert path.exists()


class TestCacheGc:
    def entry(self, tmp_path, name, size=100, age=0.0, now=None):
        path = tmp_path / name
        path.write_bytes(b"x" * size)
        if age:
            stamp = (now or time.time()) - age
            os.utime(path, (stamp, stamp))
        return path

    def test_removes_corrupt_and_tmp_always(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.entry(tmp_path, "a.pkl")
        self.entry(tmp_path, "b.pkl.corrupt")
        self.entry(tmp_path, "c.tmp")
        self.entry(tmp_path, "unrelated.txt")
        stats = cache.gc()
        assert stats.scanned == 3  # unrelated files are not ours
        assert stats.removed == 2
        assert stats.corrupt_removed == 1
        assert stats.kept == 1
        assert (tmp_path / "a.pkl").exists()
        assert not (tmp_path / "b.pkl.corrupt").exists()
        assert not (tmp_path / "c.tmp").exists()

    def test_keep_corrupt_for_inspection(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.entry(tmp_path, "b.pkl.corrupt")
        stats = cache.gc(remove_corrupt=False)
        assert stats.corrupt_removed == 0
        assert stats.corrupt_kept == 1
        assert "corrupt_kept=1" in stats.summary_line()
        assert (tmp_path / "b.pkl.corrupt").exists()

    def test_age_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        self.entry(tmp_path, "old.pkl", age=3600, now=now)
        self.entry(tmp_path, "new.pkl", age=10, now=now)
        stats = cache.gc(max_age_seconds=600, now=now)
        assert stats.removed == 1
        assert not (tmp_path / "old.pkl").exists()
        assert (tmp_path / "new.pkl").exists()

    def test_size_retention_keeps_newest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        self.entry(tmp_path, "oldest.pkl", size=100, age=300, now=now)
        self.entry(tmp_path, "middle.pkl", size=100, age=200, now=now)
        self.entry(tmp_path, "newest.pkl", size=100, age=100, now=now)
        stats = cache.gc(max_bytes=250, now=now)
        assert stats.kept == 2
        assert stats.kept_bytes == 200
        assert not (tmp_path / "oldest.pkl").exists()
        assert (tmp_path / "newest.pkl").exists()
        assert (tmp_path / "middle.pkl").exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        stats = ResultCache(tmp_path / "absent").gc(max_bytes=0)
        assert stats == CacheGcStats()

    def test_summary_line(self):
        stats = CacheGcStats(scanned=3, removed=1, removed_bytes=10,
                             kept=2, kept_bytes=20, corrupt_removed=1,
                             corrupt_kept=1)
        assert stats.summary_line() == (
            "scanned=3 removed=1 removed_bytes=10 kept=2 kept_bytes=20 "
            "corrupt_removed=1 corrupt_kept=1"
        )


class TestRetryBackoff:
    def test_disabled_by_default(self):
        executor = Executor(jobs=1)
        assert executor.retry_backoff is None
        assert executor._backoff_delay(tiny_spec(), 3) == 0.0

    def test_zero_disables_and_negative_rejected(self):
        assert Executor(jobs=1, retry_backoff=0).retry_backoff is None
        with pytest.raises(ValueError, match="retry_backoff"):
            Executor(jobs=1, retry_backoff=-1.0)

    def test_first_attempt_never_delayed(self):
        executor = Executor(jobs=1, retry_backoff=1.0)
        assert executor._backoff_delay(tiny_spec(), 0) == 0.0

    def test_deterministic_exponential_with_jitter(self):
        executor = Executor(jobs=1, retry_backoff=0.1)
        spec = tiny_spec()
        first = executor._backoff_delay(spec, 1)
        assert first == executor._backoff_delay(spec, 1)  # seeded, stable
        assert 0.05 <= first < 0.15  # base * [0.5, 1.5)
        second = executor._backoff_delay(spec, 2)
        assert 0.1 <= second < 0.3  # base * 2 * [0.5, 1.5)
        # decorrelated across specs: a failure burst does not retry in
        # lockstep
        assert first != executor._backoff_delay(tiny_spec(seed=4), 1)

    def test_capped(self):
        executor = Executor(jobs=1, retry_backoff=100.0)
        assert (
            executor._backoff_delay(tiny_spec(), 5)
            == Executor.BACKOFF_CAP_SECONDS
        )

    def test_retry_sleeps_the_backoff_in_the_attempt(self, monkeypatch):
        """An injected first-attempt failure with backoff on must sleep
        exactly the seeded delay before the retry attempt."""
        import repro.experiments.executor as executor_module

        slept = []
        monkeypatch.setattr(
            executor_module.time, "sleep", lambda s: slept.append(s)
        )
        spec = tiny_spec()
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"raise:{spec.token()}:1")
        executor = Executor(jobs=1, retries=1, retry_backoff=0.01)
        result = executor.run([spec])[0]
        assert result.summary.n_flows > 0  # the retry succeeded
        assert executor.stats.retried == 1
        assert slept == [executor._backoff_delay(spec, 1)]


class TestRunGrid:
    def test_pools_each_cell(self):
        cells = [seed_specs(tiny_spec(seed=3), 2), seed_specs(tiny_spec(seed=9), 1)]
        executor = Executor(jobs=1)
        pooled = run_grid(cells, executor)
        assert len(pooled) == 2
        assert pooled[0].manifest.params["n_seeds"] == 2
        assert pooled[0].manifest.params["seeds"] == [3, 4]
        # Pooling through the grid matches pooling by hand.
        by_hand = pool_results(executor.run(seed_specs(tiny_spec(seed=3), 2)))
        assert result_fingerprint(pooled[0]) == result_fingerprint(by_hand)

    def test_custom_pool_callable(self):
        cells = [seed_specs(tiny_spec(seed=3), 2)]
        counts = run_grid(cells, Executor(jobs=1), pool=len)
        assert counts == [2]


class TestDefaultExecutor:
    def test_from_env_reads_jobs_and_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        executor = Executor.from_env()
        assert executor.jobs == 3
        assert executor.cache is not None
        assert executor.cache.directory == tmp_path

    def test_from_env_defaults_hermetic(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        executor = Executor.from_env()
        assert executor.jobs == 1
        assert executor.cache is None
        assert executor.retries == 1
        assert executor.spec_timeout is None

    @pytest.mark.parametrize(
        "variable, text",
        [("REPRO_JOBS", "many"), ("REPRO_RETRIES", "-3"),
         ("REPRO_RETRY_BACKOFF", "soon"), ("REPRO_SPEC_TIMEOUT", "soon")],
    )
    def test_from_env_rejects_malformed_settings(self, variable, text, monkeypatch):
        monkeypatch.setenv(variable, text)
        with pytest.raises(SettingError, match=f"{variable}='{text}'"):
            Executor.from_env()
        explicit = Executor.from_env(
            jobs=2, retries=3, retry_backoff=0, spec_timeout=2.5
        )  # explicit beats (and never parses) the environment
        assert (explicit.jobs, explicit.retries) == (2, 3)
        assert (explicit.retry_backoff, explicit.spec_timeout) == (None, 2.5)
        with pytest.raises(TypeError, match="not executor settings"):
            Executor.from_env(job=2)

    def test_set_default_round_trips(self):
        mine = Executor(jobs=1)
        previous = set_default_executor(mine)
        try:
            assert get_default_executor() is mine
        finally:
            set_default_executor(previous)
