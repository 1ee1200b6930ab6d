"""``campaign_replay``: a 1000-cell campaign replayed from a warm cache.

Zero simulation in the timed body: spec hashing, cache verify/unpickle,
store append/load/merge/fingerprint do all the work -- the layers the
design-diet items (one ``Store`` reader, ``ResultCache`` split,
``RuntimeConfig``) will rewrite.  ``--seed`` offsets the scenario seed, so
every spec token, cache key and store line differs while the work does not.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments import executor as executor_module
from repro.experiments.executor import Executor, ResultCache
from repro.scenarios import campaign, coordination, schema
from repro.scenarios import compile as scenario_compile

from .. import trace
from ..harness import Checks, Rep, Workload

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "replay_grid.toml"
QUICK_LOADS = 40


class CampaignReplay(Workload):
    name = "campaign_replay"

    def scenario(self) -> schema.Scenario:
        """The checked-in grid as ``repro scenario run`` would load it,
        re-seeded from ``--seed`` (and narrowed under ``--quick``)."""
        loaded = schema.load_scenario(SCENARIO)
        grid = loaded.workloads[0]
        if self.quick:
            grid = replace(grid, loads=grid.loads[:QUICK_LOADS])
        return replace(loaded, seed=loaded.seed + self.seed, workloads=(grid,))

    def prepare(self) -> None:
        """The warm cache is this workload's input: one real result filed
        under every spec of the grid."""
        compiled = scenario_compile.compile_scenario(self.scenario())
        specs = compiled.specs()
        self.n_cells = len(compiled.cells)
        self.n_specs = len(specs)
        # The file's own first spec is simulated whatever --seed says: the
        # work must not depend on which flow sizes a seed happens to draw.
        pinned = scenario_compile.compile_scenario(
            schema.load_scenario(SCENARIO)).specs()[0]
        result = executor_module.execute_spec(pinned)
        self.cache_dir = self.workdir / "cache"
        self.runs = self.workdir / "runs"
        cache = ResultCache(self.cache_dir)
        start = perf_counter()
        for spec in specs:
            cache.store(spec, result)
        self.store_us_per_spec = (perf_counter() - start) / len(specs) * 1e6
        self.cache_bytes = cache.path(specs[0]).stat().st_size

    def setup(self) -> None:
        # What a user does before the first resumable pass: one campaign
        # into an empty store.  It is also the reference every repetition's
        # replay and 3-way merge must reproduce.
        self.runs.mkdir(parents=True)
        self.replays = 0
        self.reference = self.runs / "reference.jsonl"
        self.replay_into(self.reference)
        self.reference_copy = self.runs / "reference-copy.jsonl"
        shutil.copy(self.reference, self.reference_copy)
        self.reference_fingerprint = coordination.store_fingerprint(
            self.reference)

    def teardown(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)

    def replay_into(self, store: Path) -> Tuple[Any, Executor]:
        executor = Executor(jobs=1, cache=True, cache_dir=self.cache_dir)
        result = campaign.run_campaign(
            [self.scenario()], store=store, executor=executor)
        return result, executor

    def body(self, checks: Checks) -> Rep:
        self.replays += 1
        store = self.runs / f"replay-{self.replays}.jsonl"
        merged = self.runs / f"merged-{self.replays}.jsonl"

        start = perf_counter()
        replay, executor = self.replay_into(store)
        replay_wall = perf_counter() - start
        records = campaign.CampaignStore(store).load()
        fingerprint = coordination.store_fingerprint(store)
        merge = coordination.merge_stores(
            [self.reference, store, self.reference_copy], merged)
        merged_fingerprint = coordination.store_fingerprint(merged)
        resume, _ = self.replay_into(store)

        ok = sum(1 for record in records.values() if record.status == "ok")
        checks.expect(replay.executed_cells == self.n_cells,
                      f"replay executed {replay.executed_cells} cells")
        checks.expect(executor.stats.cache_hits == self.n_specs
                      and executor.stats.executed == 0,
                      f"replay simulated: {executor.stats.merge_line()}")
        checks.expect(fingerprint == self.reference_fingerprint,
                      "replayed store fingerprint differs from the reference")
        checks.expect(merged_fingerprint == fingerprint,
                      "3-way merge differs from a single replay")
        checks.expect(resume.executed_cells == 0
                      and resume.skipped_cells == self.n_cells,
                      f"resume pass executed {resume.executed_cells} cells")
        store_bytes = store.stat().st_size
        for path in (store, merged):
            path.unlink()
            campaign.CampaignStore(path).resources_path.unlink(missing_ok=True)
        return Rep(
            signature=(self.n_cells, self.n_specs, len(records), ok,
                       hashlib.sha256(fingerprint).hexdigest(), merge.ok_cells,
                       executor.stats.cache_hits, resume.skipped_cells),
            attempted=self.n_cells,
            failed=self.n_cells - ok,
            timings={"replay": replay_wall},
            counts={"cache_hits": executor.stats.cache_hits,
                    "cache_misses": executor.stats.executed,
                    "store_bytes": store_bytes},
        )

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, List[float]]:
        # Cells settled per second of the replay phase alone: what a user
        # resuming a campaign waits for.  ``run_s`` also covers the load,
        # fingerprint, merge and resume passes.
        return {"cells_per_s":
                [self.n_cells / rep.timings["replay"] for rep in reps]}

    def probes(self, reps: Sequence[Rep]) -> Dict[str, float]:
        """Executor overhead around real work: a 4-spec grid simulated
        in-process, ``Executor.run`` wall minus the ``execute_spec`` walls."""
        specs = scenario_compile.compile_scenario(
            schema.load_scenario(SCENARIO)).specs()[:4]
        recorder = trace.Recorder("executor-probe")
        with trace.tracing(recorder):
            Executor(jobs=1).run(specs)
        run_ns = recorder.total("Executor.run")[1]
        spec_ns = recorder.total("execute_spec")[1]
        return {"experiments.executor.inline_overhead_us_per_spec":
                (run_ns - spec_ns) / len(specs) / 1e3}

    def per_layer(self, reps: Sequence[Rep], traced: Sequence[Rep],
                  recorder: trace.Recorder, checks: Checks) -> Dict[str, float]:
        n = len(traced)
        counts = reps[0].counts

        def body_call_us(name: str, records: int) -> float:
            calls, inclusive, _ = recorder.aggregates.get(
                (name, "body"), (0, 0, 0))
            return inclusive / calls / records / 1e3 if calls else 0.0

        appended, append_ns, _ = recorder.total("CampaignStore.append")
        return {
            "experiments.executor.cache_hits": counts["cache_hits"],
            "experiments.executor.cache_misses": counts["cache_misses"],
            "experiments.executor.cache_store_us_per_spec":
                self.store_us_per_spec,
            "experiments.executor.cache_bytes_per_entry": self.cache_bytes,
            "scenarios.schema.load_ms":
                recorder.total("load_scenario")[1]
                / recorder.total("load_scenario")[0] / 1e6,
            "scenarios.compile.cells": self.n_cells,
            "scenarios.compile.us_per_cell":
                recorder.total("compile_scenario")[1]
                / recorder.total("compile_scenario")[0] / self.n_cells / 1e3,
            "scenarios.campaign.append_us_per_record":
                append_ns / n / self.n_cells / 1e3,
            "scenarios.campaign.load_us_per_record":
                body_call_us("CampaignStore.load", self.n_cells),
            "scenarios.campaign.store_bytes_per_record":
                counts["store_bytes"] / self.n_cells,
            "scenarios.coordination.fingerprint_us_per_record":
                body_call_us("store_fingerprint", self.n_cells),
            "scenarios.coordination.merge_us_per_record":
                body_call_us("merge_stores", 3 * self.n_cells),
        }
