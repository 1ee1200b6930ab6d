"""Incremental loads are indistinguishable from full ones, and cost what was
appended.

A hypothesis state machine drives a long-lived ``CampaignStore`` /
``StoreIndex`` through every way their files change -- appends, torn tails,
newline heals, foreign lines, atomic replaces, in-place rewrites, deletion --
and after every step compares them with fresh instances that parse the whole
file.  Count tests then pin the cost model: a warm replay hashes each spec a
bounded number of times and parses each store line only when it loads the
store, once per pass.

The machine steers clear of the one thing the tail reader documents it cannot
see -- a file with the inode number it knows, at least the length it consumed
and the same 64 bytes before that offset, but a different prefix: every line
it writes ends in a serial that is never reused, its in-place rewrites
shift every byte, and a file it deletes or replaces keeps its inode number
pinned by an open handle (tmpfs hands a freed number to the very next file).
"""

import json
import os
import pathlib
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.experiments import executor as executor_module
from repro.experiments.executor import Executor, ResultCache
from repro.experiments.specs import RunSpec
from repro.scenarios import (
    CampaignStore,
    CellRecord,
    Scenario,
    compile_scenario,
    coordination,
    merge_stores,
    run_campaign,
    store_fingerprint,
)
from repro.scenarios.campaign import REPLAY_SHARD_SPECS, canonical_json
from repro.service import StoreIndex
from repro.service import index as index_module

from test_scenarios_campaign import tiny_scenario

FOREIGN_LINES = (
    b"[1,2]\n", b"not json\n", b'"text"\n', b"{}\n", b"\xff\xfe\n", b"\n",
    b'{"scenario":1}\n', b"5", b'{"torn', b" \r\n",
)


class _FileMachine(RuleBasedStateMachine):
    """A scratch directory, a serial that makes every written line unique,
    and a fake clock so each change gets its own ``mtime`` (the index's
    stat probe is ``(mtime_ns, size)``; real timestamps tick in
    milliseconds and would alias consecutive steps)."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="repro-tail-"))
        self.serial = 0
        self.clock = 1_000_000_000
        self.pins = []

    def teardown(self):
        for handle in self.pins:
            handle.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def pin_inode(self, path):
        if path.exists():
            self.pins.append(open(path, "rb"))

    def next_serial(self):
        self.serial += 1
        return self.serial

    def stamp(self, path):
        if path.exists():
            self.clock += 1_000_000_000
            os.utime(path, ns=(self.clock, self.clock))


class StoreMachine(_FileMachine):
    def __init__(self):
        super().__init__()
        self.path = self.dir / "s.jsonl"
        self.other = self.dir / "elsewhere" / "other.jsonl"
        self.store = CampaignStore(self.path)
        self.index = StoreIndex(self.dir)

    def record(self, key, status="ok"):
        serial = self.next_serial()
        return CellRecord(
            scenario=f"scenario-{key % 2}", scenario_hash="h",
            cell_key=f"cell-{key}", component="c", tokens=(f"t{key}",),
            status=status, metrics={"m": serial / 4}, failures=(),
            git_sha=None, version=f"v{serial}",
        )

    def write(self, data):
        """In place: same inode, as a careless editor would."""
        with open(self.path, "r+b" if self.path.exists() else "wb") as handle:
            handle.truncate(0)
            handle.write(data)

    # ---------------------------------------------------------------- rules

    @rule(keys=st.lists(st.integers(0, 5), min_size=1, max_size=5),
          status=st.sampled_from(["ok", "ok", "failed"]))
    def append(self, keys, status):
        CampaignStore(self.path).append(
            [self.record(key, status) for key in keys])
        self.stamp(self.path)

    @rule(keys=st.lists(st.integers(0, 5), min_size=1, max_size=2))
    def append_through_the_long_lived_store(self, keys):
        self.store.append([self.record(key) for key in keys])
        self.stamp(self.path)

    @rule(cut=st.integers(1, 40))
    def tear_the_tail(self, cut):
        if self.path.exists() and self.path.stat().st_size:
            os.truncate(self.path, max(0, self.path.stat().st_size - cut))
            self.stamp(self.path)

    @rule(line=st.sampled_from(FOREIGN_LINES))
    def foreign_write(self, line):
        with open(self.path, "ab") as handle:
            handle.write(line)
        self.stamp(self.path)

    @rule(keys=st.lists(st.integers(6, 8), max_size=2))
    def merge_onto_the_store(self, keys):
        # failed records never raise an ok/ok merge conflict
        CampaignStore(self.other).append(
            [self.record(key, "failed") for key in keys])
        self.pin_inode(self.path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            merge_stores([self.path, self.other], output=self.path)
        self.stamp(self.path)

    @rule()
    def rewrite_shorter(self):
        if self.path.exists():
            lines = self.path.read_bytes().splitlines(keepends=True)
            if lines:
                self.write(b"".join(lines[1:]))
                self.stamp(self.path)

    @rule(key=st.integers(0, 5))
    def rewrite_longer(self, key):
        old = self.path.read_bytes() if self.path.exists() else b""
        self.write(self.record(key).line.encode() + b"\n" + old)
        self.stamp(self.path)

    @rule()
    def delete(self):
        self.pin_inode(self.path)
        self.path.unlink(missing_ok=True)

    @rule()
    def touch(self):
        self.stamp(self.path)

    @rule()
    def append_resources(self):
        store = CampaignStore(self.path)
        store.append_resources([{"scenario": "scenario-0", "cell_key": "cell-0",
                                 "wall_seconds": self.next_serial()}])
        self.stamp(store.resources_path)

    # ------------------------------------------------------------ invariant

    @invariant()
    def long_lived_equals_fresh(self):
        fresh_store = CampaignStore(self.path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            live = self.store.load()
            live_stats = self.store.load_stats
            fresh = fresh_store.load()
            assert list(live.items()) == list(fresh.items())
            assert live_stats == fresh_store.load_stats
            assert store_fingerprint(self.store) == store_fingerprint(
                CampaignStore(self.path))
            assert self.store.load_resources() == \
                fresh_store.load_resources()
            entry = self.index.get("s")
            fresh_entry = StoreIndex(self.dir).get("s")
        if fresh_entry is None:
            assert entry is None
        else:
            for name in ("records", "fingerprint", "etag_seed"):
                assert getattr(entry, name) == getattr(fresh_entry, name), name
            assert entry.fingerprint == store_fingerprint(fresh_store)
        # Whatever a caller does to the mapping it was handed stays theirs.
        live.clear()
        live[("scribble", ())] = None


machine_settings = settings(max_examples=60, stateful_step_count=30,
                            deadline=None)
TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = machine_settings


class TestTornLineWarnings:
    def test_a_torn_line_is_warned_about_once(self, tmp_path, recwarn):
        store = CampaignStore(tmp_path / "s.jsonl")
        good = CellRecord("s", "h", "k", "c", ("t",), "ok", {}, (), None, "1")
        store.append([good])
        with open(store.path, "ab") as handle:
            handle.write(b'{"torn')
        for _ in range(3):  # an unterminated tail is re-read, not re-warned
            assert len(store.load()) == 1
            assert store.load_stats.torn_lines == 1
        store.append([good])  # heals the tail: now a settled torn line
        store.load()
        assert (store.load_stats.lines, store.load_stats.torn_lines) == (3, 1)
        assert [str(w.message) for w in recwarn.list] == [
            f"{store.path}:2: skipping unreadable record "
            "(torn write from an interrupted campaign?)"]
        # a fresh reader meets the line for the first time
        CampaignStore(store.path).load()
        assert len(recwarn.list) == 2

    def test_a_line_completed_by_its_writer_is_a_record(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        line = CellRecord("s", "h", "k", "c", ("t",), "ok", {}, (), None,
                          "1").line.encode()
        store.path.write_bytes(line[:20])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert store.load() == {}
        with open(store.path, "ab") as handle:
            handle.write(line[20:])
        assert len(store.load()) == 1  # complete, though still unterminated
        assert store.load_stats.torn_lines == 0
        with open(store.path, "ab") as handle:
            handle.write(b"\n")
        assert len(store.load()) == 1
        assert (store.load_stats.lines, store.load_stats.records) == (1, 1)


# ------------------------------------------------------------- cost model


def counting(monkeypatch, owner, name, counts, label):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[label] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestCostIsLinear:
    """Counts, not clocks (DESIGN §9.6: walls drift +-20-35 % here)."""

    N_CELLS, N_SEEDS = 200, 2

    def grid(self, n_cells=N_CELLS):
        loads = [round(0.1 + 0.004 * n, 3) for n in range(n_cells)]
        data = tiny_scenario(loads=loads).to_dict()
        data["run"]["n_seeds"] = self.N_SEEDS
        scenario = Scenario.from_dict(data)
        specs = compile_scenario(scenario).specs()
        assert len(specs) == n_cells * self.N_SEEDS
        return scenario, specs

    def test_warm_replay_hashes_and_parses_each_thing_a_bounded_number_of_times(
        self, tmp_path, monkeypatch
    ):
        scenario, specs = self.grid()
        n_specs = len(specs)
        cache = ResultCache(tmp_path / "cache")
        result = executor_module.execute_spec(specs[0])
        for spec in specs:  # a warm cache: one real result under every key
            cache.store(spec, result)

        counts = Counter()
        # The token digest and the cache key both come from the one
        # ``RunSpec._canonical`` call; the scenario's content hash is
        # schema's own.
        counting(monkeypatch, RunSpec, "_canonical", counts, "spec_dumps")
        counting(monkeypatch, CampaignStore, "append", counts, "appends")
        counting(monkeypatch, CellRecord, "from_dict", counts, "records")
        counting(monkeypatch, Scenario, "content_hash", counts, "content_hash")

        executor = Executor(jobs=1, cache=True, cache_dir=cache.directory)
        store = tmp_path / "s.jsonl"
        replay = run_campaign([scenario], store, executor)
        assert replay.executed_cells == self.N_CELLS
        assert executor.stats.executed == 0
        assert executor.stats.cache_hits == n_specs
        # one serialisation feeds the token and the cache key
        assert counts["spec_dumps"] <= n_specs, counts
        assert counts["content_hash"] == 1, counts
        # every cell rides along: a shard is 256 cached specs
        assert counts["appends"] == -(-n_specs // REPLAY_SHARD_SPECS), counts
        # the one load finds an empty store; no append is read back
        assert counts["records"] == 0, counts

        counts.clear()
        resume = run_campaign([scenario], store, executor)
        assert resume.skipped_cells == self.N_CELLS
        assert counts["spec_dumps"] <= n_specs
        assert counts["appends"] == 0
        assert counts["records"] == self.N_CELLS  # the one load
        assert counts["content_hash"] == 1

    def test_a_warm_pass_serialises_each_cell_once_and_opens_each_entry_once(
        self, tmp_path, monkeypatch
    ):
        """Per warm single-writer pass: one serialisation per cell (its
        seeds are spliced) plus the scenario hash; per cached spec one
        ``stat`` (the shard probe) and one ``open`` (the load) of its entry
        file; and no ``pathlib`` call from the executor module, i.e. no
        ``Path`` built per spec."""
        scenario, specs = self.grid()
        cache = ResultCache(tmp_path / "cache")
        result = executor_module.execute_spec(specs[0])
        for spec in specs:
            cache.store(spec, result)
        entries = os.path.join(cache.directory, "")

        counts = Counter()
        counting(monkeypatch, RunSpec, "_canonical", counts, "serialisations")
        counting(monkeypatch, Scenario, "content_hash", counts,
                 "serialisations")
        touched = Counter()
        real_stat, real_open = os.stat, open

        def stat(path, *args, **kwargs):
            if os.fspath(path).startswith(entries):
                touched["stat", os.fspath(path)] += 1
            return real_stat(path, *args, **kwargs)

        def opened(path, *args, **kwargs):
            if os.fspath(path).startswith(entries):
                touched["open", os.fspath(path)] += 1
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(executor_module, "open", opened, raising=False)
        executor = Executor(jobs=1, cache=True, cache_dir=cache.directory)
        pathlib_calls = []
        pathlib_file = pathlib.__file__
        executor_file = executor_module.__file__

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_filename == pathlib_file
                    and frame.f_back is not None
                    and frame.f_back.f_code.co_filename == executor_file):
                pathlib_calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            replay = run_campaign([scenario], tmp_path / "s.jsonl", executor)
        finally:
            sys.setprofile(None)
        assert executor.stats.cache_hits == len(specs)
        assert replay.executed_cells == self.N_CELLS
        assert counts["serialisations"] == self.N_CELLS + 1
        paths = {cache.path(spec).as_posix() for spec in specs}
        assert len(paths) == len(specs)
        assert touched == Counter({(kind, path): 1 for path in paths
                                   for kind in ("stat", "open")})
        assert pathlib_calls == []

    def test_a_lone_writers_rounds_cost_their_shard(
        self, tmp_path, monkeypatch
    ):
        """Cold, cache off: one shard per ``jobs x 4`` cells.  The store is
        loaded once per pass and each cell looked up in it once, so the
        lookups grow with the grid, not with grid x shards (which is
        quadratic)."""
        counts = Counter()

        class CountingIndex(dict):
            def get(self, key, default=None):
                counts["lookups"] += 1
                return super().get(key, default)

        real_load = CampaignStore.load

        def counted(store):
            index = real_load(store)
            counts["loads"] += 1
            counts["handed_out"] += len(index)
            return CountingIndex(index)

        monkeypatch.setattr(CampaignStore, "load", counted)
        rounds = []
        real_append = CampaignStore.append
        monkeypatch.setattr(
            CampaignStore, "append",
            lambda store, records: (rounds.append(len(records)),
                                    real_append(store, records)))
        seen = {}
        for n_cells in (40, 80):
            scenario, specs = self.grid(n_cells)
            result = executor_module.execute_spec(specs[0])
            monkeypatch.setattr(executor_module, "execute_spec",
                                lambda spec, result=result: result)
            counts.clear()
            rounds.clear()
            run_campaign([scenario], tmp_path / f"{n_cells}.jsonl",
                         Executor(jobs=1, cache=False))
            assert rounds == [4] * (n_cells // 4)
            seen[n_cells] = dict(counts)
        assert seen[40] == {"loads": 1, "lookups": 40, "handed_out": 0}
        assert seen[80] == {"loads": 1, "lookups": 80, "handed_out": 0}

    def test_without_a_cache_the_appends_are_the_jobs_x_4_slices(
        self, tmp_path, monkeypatch
    ):
        """Nothing can ride along, so the store sees exactly the appends
        it saw before shards were sized by work at risk."""
        scenario, specs = self.grid()
        result = executor_module.execute_spec(specs[0])
        monkeypatch.setattr(executor_module, "execute_spec",
                            lambda spec: result)
        appended = []
        real_append = CampaignStore.append

        def append(store, records):
            appended.append([record.cell_key for record in records])
            real_append(store, records)

        monkeypatch.setattr(CampaignStore, "append", append)
        cells = [cell.key for cell in compile_scenario(scenario).cells]
        executor = Executor(jobs=1, cache=False)
        run_campaign([scenario], tmp_path / "s.jsonl", executor)
        assert executor.stats.executed == len(specs)
        assert appended == [cells[n:n + 4] for n in range(0, self.N_CELLS, 4)]


class TestResourcesSidecarIsTailRead:
    def rows(self, first, n):
        return [{"scenario": "s", "cell_key": f"k{i}", "wall_seconds": i}
                for i in range(first, first + n)]

    def test_a_reused_store_parses_only_the_appended_rows(
        self, tmp_path, monkeypatch
    ):
        counts = Counter()
        counting(monkeypatch, json, "loads", counts, "rows")
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append_resources(self.rows(0, 5))
        assert store.load_resources() == self.rows(0, 5)
        assert counts["rows"] == 5
        store.append_resources(self.rows(5, 2))
        counts.clear()
        assert store.load_resources() == self.rows(0, 7)
        assert counts["rows"] == 2
        counts.clear()
        rows = store.load_resources()
        assert counts["rows"] == 0
        rows.clear()  # the caller's list is its own
        assert store.load_resources() == self.rows(0, 7)

    def test_a_replaced_or_shrunken_sidecar_is_read_again_in_full(
        self, tmp_path, monkeypatch
    ):
        counts = Counter()
        counting(monkeypatch, json, "loads", counts, "rows")
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append_resources(self.rows(0, 5))
        store.load_resources()
        # atomically replaced, as a merge writes it
        scratch = tmp_path / "replacement"
        scratch.write_text("".join(canonical_json(row) + "\n"
                                   for row in self.rows(10, 6)))
        os.replace(scratch, store.resources_path)
        counts.clear()
        assert store.load_resources() == self.rows(10, 6)
        assert counts["rows"] == 6
        # shrunk in place
        lines = store.resources_path.read_bytes().splitlines(keepends=True)
        store.resources_path.write_bytes(b"".join(lines[:3]))
        counts.clear()
        assert store.load_resources() == self.rows(10, 3)
        assert counts["rows"] == 3


class TestIndexReloadSortsOnce:
    def test_a_reload_calls_the_sort_key_once_per_record(
        self, tmp_path, monkeypatch
    ):
        counts = Counter()
        # the one order, wherever the index and the fingerprint look it up
        counting(monkeypatch, coordination, "canonical_sort_key", counts,
                 "keys")
        monkeypatch.setattr(index_module, "canonical_sort_key",
                            coordination.canonical_sort_key)

        def record(n):
            return CellRecord("s", "h", f"k{n}", "c", (f"t{n}",), "ok",
                              {"m": float(n)}, (), None, "1")

        store = CampaignStore(tmp_path / "s.jsonl")
        store.append([record(n) for n in range(7, 0, -1)])
        index = StoreIndex(tmp_path)
        entry = index.get("s")
        assert counts["keys"] == 7
        assert [r.cell_key for r in entry.records] == [
            f"k{n}" for n in range(1, 8)]
        store.append([record(8)])  # a longer file: the probe changes
        counts.clear()
        entry = index.get("s")
        assert counts["keys"] == 8
        assert entry.fingerprint == store_fingerprint(store.path)
