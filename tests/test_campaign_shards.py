"""A shard is sized by the work a kill would forfeit.

``campaign._shards`` closes a shard after ``jobs x 4`` cells that need
simulating and lets cells whose specs are all cached ride along, up to
``REPLAY_SHARD_SPECS`` specs.  A table and a property pin the rule; the
campaign tests then run a half-warm cache (every other cell pre-cached)
through a stale probe, ``max_cells``, a torn append and a kill after an
append, and demand the clean run's store with nothing simulated twice.
"""

import os
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import executor as executor_module
from repro.experiments.executor import Executor, ResultCache
from repro.scenarios import compile_scenario, run_campaign, store_fingerprint
from repro.scenarios.campaign import REPLAY_SHARD_SPECS, _shards
from repro.testing import chaos

from test_scenarios_campaign import tiny_scenario


class FakeExecutor:
    """``jobs`` and a ``cached`` answer per spec; ``warm=None`` is an
    executor without a cache."""

    def __init__(self, jobs, warm=None):
        self.jobs = jobs
        self.warm = warm

    def cached(self, spec):
        return self.warm is not None and spec in self.warm


def pending_from(pattern, specs_per_cell):
    """``pattern`` is one letter per cell: ``w`` all specs cached, ``c``
    none, ``h`` all but the last.  Returns ``(pending, warm specs)``."""
    pending, warm = [], set()
    for n, state in enumerate(pattern):
        specs = tuple((n, k) for k in range(specs_per_cell))
        warm.update({"w": specs, "c": (), "h": specs[:-1]}[state])
        pending.append((None, SimpleNamespace(specs=specs), n))
    return pending, warm


def sizes(pattern, jobs=1, specs_per_cell=1, cache=True):
    pending, warm = pending_from(pattern, specs_per_cell)
    executor = FakeExecutor(jobs, warm if cache else None)
    return [len(shard) for shard in _shards(pending, executor)]


class TestShardRule:
    @pytest.mark.parametrize("pattern, kwargs, expected", [
        # cold or cache-less: the jobs x 4 slices, as ever
        ("c" * 10, {}, [4, 4, 2]),
        ("c" * 25, {"jobs": 3}, [12, 12, 1]),
        ("w" * 10, {"cache": False}, [4, 4, 2]),
        ("c" * 3, {"jobs": 2, "specs_per_cell": 200}, [3]),
        # fully warm: 256 specs to a shard
        ("w" * 600, {}, [256, 256, 88]),
        ("w" * 100, {"specs_per_cell": 4}, [64, 36]),
        ("w" * 100, {"specs_per_cell": 3}, [85, 15]),
        ("w" * 3, {"specs_per_cell": 300}, [1, 1, 1]),
        # mixed: the fourth cold cell closes the shard at once
        ("w" * 10 + "c" + "w" * 10 + "ccc" + "ww", {}, [24, 2]),
        ("cccc" + "w" * 5, {}, [4, 5]),
        ("wcwcwcwcwc", {}, [8, 2]),
        ("wcwcwcwcwc", {"jobs": 2}, [10]),
        # one uncached spec puts the whole cell at risk
        ("hhhhh", {"specs_per_cell": 3}, [4, 1]),
        # warm cells stop riding at 256 specs, cold ones in the shard count
        ("cc" + "w" * 300, {}, [256, 46]),
        ("", {}, []),
    ])
    def test_table(self, pattern, kwargs, expected):
        assert sizes(pattern, **kwargs) == expected

    @settings(max_examples=200, deadline=None)
    @given(pattern=st.text(alphabet="wwwch", max_size=400),
           jobs=st.integers(1, 3), specs_per_cell=st.integers(1, 5),
           cache=st.booleans())
    def test_shards_partition_pending_and_bound_the_work_at_risk(
        self, pattern, jobs, specs_per_cell, cache
    ):
        pending, warm = pending_from(pattern, specs_per_cell)
        executor = FakeExecutor(jobs, warm if cache else None)
        shards = list(_shards(pending, executor))
        assert [item for shard in shards for item in shard] == pending
        limit = jobs * 4
        if not cache:
            assert shards == [pending[n:n + limit]
                              for n in range(0, len(pending), limit)]

        def rides(item):
            return cache and pattern[item[2]] == "w"

        for shard, following in zip(shards, shards[1:] + [None]):
            assert shard
            at_risk = [item for item in shard if not rides(item)]
            assert len(at_risk) <= limit
            n_specs = 0
            for position, item in enumerate(shard):
                n_specs += specs_per_cell
                if rides(item) and position:
                    assert n_specs <= REPLAY_SHARD_SPECS
            if following is not None:  # closed for one of the two reasons
                full = len(at_risk) == limit and not rides(shard[-1])
                overflow = rides(following[0]) and (
                    n_specs + specs_per_cell > REPLAY_SHARD_SPECS)
                assert full or overflow

    def test_cells_are_probed_as_their_shard_is_built(self):
        pending, warm = pending_from("w" * 600, 1)
        probed = []

        class Recording(FakeExecutor):
            def cached(self, spec):
                probed.append(spec)
                return super().cached(spec)

        shards = _shards(pending, Recording(1, warm))
        next(shards)
        assert len(probed) == REPLAY_SHARD_SPECS + 1


# ------------------------------------------------------ half-warm campaigns

LOADS = [round(0.2 + 0.05 * n, 2) for n in range(10)]


class Exited(BaseException):
    pass


@pytest.fixture()
def half_warm(tmp_path, monkeypatch):
    """A ten-cell scenario, every other cell already in the result cache,
    the clean run's store to compare with, and a per-token count of real
    simulations from here on."""
    scenario = tiny_scenario(loads=LOADS)
    cells = compile_scenario(scenario).cells
    clean = tmp_path / "clean.jsonl"
    run_campaign([scenario], clean, Executor(jobs=1, cache=False, retries=0))
    cache_dir = tmp_path / "cache"
    warm_cells = cells[::2]
    Executor(jobs=1, cache=True, cache_dir=cache_dir).run(
        [spec for cell in warm_cells for spec in cell.specs])

    simulated = Counter()
    real = executor_module.execute_spec

    def execute_spec(spec, attempt=0):
        simulated[spec.token()] += 1
        return real(spec, attempt=attempt)

    monkeypatch.setattr(executor_module, "execute_spec", execute_spec)
    monkeypatch.setattr(
        os, "_exit", lambda code: (_ for _ in ()).throw(Exited(code)))
    chaos.reset_chaos_counts()
    return SimpleNamespace(
        scenario=scenario, cells=cells, clean=clean, cache_dir=cache_dir,
        cold_tokens={t for cell in cells[1::2] for t in cell.tokens()},
        simulated=simulated,
        executor=lambda: Executor(jobs=1, cache=True, cache_dir=cache_dir,
                                  retries=0),
    )


def assert_converged(rig, store):
    assert store.read_bytes() == rig.clean.read_bytes()
    # every cold cell simulated exactly once over all passes, no warm one
    assert rig.simulated == Counter(dict.fromkeys(rig.cold_tokens, 1))


class TestHalfWarmCampaign:
    def test_cold_cells_are_committed_four_at_a_time(self, half_warm, tmp_path):
        store = tmp_path / "s.jsonl"
        sizes = []
        real_run = Executor.run

        def run(executor, specs):
            sizes.append(len(specs))
            return real_run(executor, specs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Executor, "run", run)
            result = run_campaign([half_warm.scenario], store,
                                  half_warm.executor())
        assert result.executed_cells == len(LOADS)
        assert sizes == [8, 2]  # w c w c w c w c | w c
        assert_converged(half_warm, store)

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_an_entry_lost_after_the_probe_still_settles_ok(
        self, half_warm, tmp_path, monkeypatch, damage
    ):
        victim = half_warm.cells[4].specs[0]
        real_has = ResultCache.has

        def has(cache, spec):
            present = real_has(cache, spec)
            if spec == victim:
                assert present
                path = cache.path(spec)
                if damage == "deleted":
                    path.unlink()
                else:
                    path.write_bytes(path.read_bytes()[:40])
            return present

        monkeypatch.setattr(ResultCache, "has", has)
        store = tmp_path / "s.jsonl"
        executor = half_warm.executor()
        if damage == "truncated":
            with pytest.warns(UserWarning, match="quarantined"):
                result = run_campaign([half_warm.scenario], store, executor)
        else:
            result = run_campaign([half_warm.scenario], store, executor)
        assert result.failed_cells == 0
        assert result.executed_cells == len(LOADS)
        assert store.read_bytes() == half_warm.clean.read_bytes()
        assert half_warm.simulated == Counter(dict.fromkeys(
            half_warm.cold_tokens | {victim.token()}, 1))

    @pytest.mark.parametrize("shared", [False, True])
    def test_max_cells_passes_resume_to_the_clean_store(
        self, half_warm, tmp_path, shared
    ):
        store = tmp_path / "s.jsonl"
        executed = []
        while sum(executed) < len(LOADS):
            result = run_campaign([half_warm.scenario], store,
                                  half_warm.executor(), max_cells=3,
                                  shared=shared)
            executed.append(result.executed_cells)
        assert executed == [3, 3, 3, 1]
        assert_converged(half_warm, store)

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("directive", ["torn_write:1", "kill_after:1"])
    def test_a_kill_at_the_first_append_resumes_to_the_clean_store(
        self, half_warm, tmp_path, monkeypatch, directive, shared
    ):
        """The first shard is eight cells, four of them simulated.  Torn, it
        re-runs whole on resume -- from the result cache, where the four
        landed as they settled; killed after the append, it is durable.  (A
        shared pass re-claims its own dangling leases: same worker id.)"""
        store = tmp_path / "s.jsonl"
        monkeypatch.setenv(chaos.CHAOS_ENV, directive)
        with pytest.raises(Exited):
            run_campaign([half_warm.scenario], store, half_warm.executor(),
                         shared=shared)
        monkeypatch.delenv(chaos.CHAOS_ENV)
        if directive == "kill_after:1":
            assert len(store.read_bytes().splitlines()) == 8
            resumed = run_campaign([half_warm.scenario], store,
                                   half_warm.executor(), shared=shared)
            assert (resumed.skipped_cells, resumed.executed_cells) == (8, 2)
            assert_converged(half_warm, store)
            return
        assert not store.read_bytes().endswith(b"\n")
        with pytest.warns(UserWarning, match="unreadable record"):
            resumed = run_campaign([half_warm.scenario], store,
                                   half_warm.executor(), shared=shared)
            fingerprint = store_fingerprint(store)
        assert resumed.executed_cells == len(LOADS)
        assert fingerprint == store_fingerprint(half_warm.clean)
        assert half_warm.simulated == Counter(
            dict.fromkeys(half_warm.cold_tokens, 1))
