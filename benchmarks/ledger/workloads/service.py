"""``service_query``: one closed-loop client against the query daemon.

An in-process ``ResultsService`` behind ``_make_server`` on the **loopback**
interface (no real network), a synthesised store, one client that waits for
each reply -- as ``repro query`` and dashboards do.  Every repetition is one
small batch of cold (distinct query hash), warm (one repeated query) and
reload queries (each preceded by a one-record append, so the stat probe
misses and the store is re-parsed and re-fingerprinted).  The three modes
differ 60x and share the store/index layer, so a cache or parser change that
helps one and costs another is visible.  Batches are short on purpose: host
stalls arrive in bursts, and a median over ~30 batches steps over them.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
from time import perf_counter
from typing import Any, Dict, List, Sequence

from repro.scenarios.campaign import CampaignStore, CellRecord
from repro.service.client import ServiceClient
from repro.service.daemon import ResultsService, _make_server

from .. import trace
from ..harness import Checks, Rep, Workload

SCHEMES = ("DCTCP-RED-Tail", "DCTCP-RED-AVG", "CoDel", "ECN#")
METRICS = ("avg_query_fct", "p99_query_fct", "standing_queue_pkts",
           "marks", "drops")
WARM_QUERY = {"metric": "avg_query_fct"}


class ServiceQuery(Workload):
    name = "service_query"
    cells = (2000, 300)
    batch = ((40, 100, 4), (10, 20, 2))  # cold, warm, reload per batch

    def record(self, index: int, rng: random.Random) -> CellRecord:
        scheme = SCHEMES[index % len(SCHEMES)]
        load = 0.2 + 0.1 * (index % 7)
        return CellRecord(
            scenario=f"scenario-{index % 4}",
            scenario_hash=f"hash-{index % 4}",
            cell_key=f"websearch|load={load:g}|scheme={scheme}",
            component="websearch",
            tokens=(f"star|{scheme}|seed={index % 5}|{index:016x}",),
            status="ok",
            metrics={name: round(rng.uniform(0.001, 2.0), 6)
                     for name in METRICS},
            failures=(),
            git_sha=None,
            version="ledger",
        )

    def prepare(self) -> None:
        """The synthesised store is this workload's input."""
        # Loopback replies must not detour through a configured proxy.
        os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        self.n_cells = self.cells[self.quick]
        self.rng = random.Random(self.seed)
        scratch = CampaignStore(self.workdir / "input" / "bench.jsonl")
        scratch.append([self.record(i, self.rng)
                        for i in range(self.n_cells)])
        self.base = scratch.path.read_bytes()

    def setup(self) -> None:
        store_dir = self.workdir / "stores"
        store_dir.mkdir(parents=True)
        self.store = CampaignStore(store_dir / "bench.jsonl")
        self.store.path.write_bytes(self.base)
        self.service = ResultsService(store_dir)
        self.server = _make_server(self.service, "127.0.0.1", 0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}")
        self.cold_issued = 0
        self.appended = 0
        self.primed_body = self.client.query(WARM_QUERY).body

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.server_close()
            self.thread.join()
            self.server = None
        shutil.rmtree(self.workdir / "stores", ignore_errors=True)

    def cold_query(self) -> Dict[str, str]:
        """A query no earlier request shares a cache key with: the token
        filter names one cell, crossed with the metric."""
        index = self.cold_issued
        self.cold_issued += 1
        cell = index % self.n_cells
        return {"metric": METRICS[(index // self.n_cells) % len(METRICS)],
                "token": f"{cell:016x}", "scenario": f"scenario-{cell % 4}"}

    def timed_query(self, params: Dict[str, str], latencies: List[float],
                    statuses: List[int]) -> Any:
        start = perf_counter()
        response = self.client.query(params)
        latencies.append(perf_counter() - start)
        statuses.append(response.status)
        return response

    def body(self, checks: Checks) -> Rep:
        # Every batch starts from the same store: appends of earlier
        # batches are rolled back (untimed) and the warm entry re-primed.
        self.store.path.write_bytes(self.base)
        self.client.query(WARM_QUERY)
        n_cold, n_warm, n_reload = self.batch[self.quick]
        cold: List[float] = []
        warm: List[float] = []
        reload: List[float] = []
        statuses: List[int] = []
        before = self.counters()
        for _ in range(n_cold):
            self.timed_query(self.cold_query(), cold, statuses)
        after_cold = self.counters()
        warm_bodies = {self.timed_query(WARM_QUERY, warm, statuses).body
                       for _ in range(n_warm)}
        after_warm = self.counters()
        for _ in range(n_reload):
            self.appended += 1
            self.store.append(
                [self.record(self.n_cells + self.appended, self.rng)])
            self.timed_query(WARM_QUERY, reload, statuses)
        after = self.counters()

        cold_misses = after_cold["misses"] - before["misses"]
        warm_loads = after_warm["store_loads"] - after_cold["store_loads"]
        reload_loads = after["store_loads"] - after_warm["store_loads"]
        checks.expect(cold_misses == n_cold,
                      f"{cold_misses}/{n_cold} cold queries missed the cache")
        checks.expect(warm_loads == 0,
                      f"warm queries re-read the store {warm_loads} times")
        checks.expect(warm_bodies == {self.primed_body},
                      "a warm reply differs from the primed reply")
        checks.expect(reload_loads == n_reload,
                      f"{reload_loads} store loads for {n_reload} appends")
        queries = n_cold + n_warm + n_reload
        ok = sum(1 for status in statuses if status == 200)
        counts = {key: after[key] - before[key] for key in after}
        return Rep(
            signature=(queries, ok) + tuple(sorted(counts.items())),
            attempted=queries,
            failed=queries - ok,
            timings={"cold": cold, "warm": warm, "reload": reload},
            counts=counts,
        )

    def counters(self) -> Dict[str, int]:
        stats = self.service.cache.stats()
        return {"hits": stats["hits"], "misses": stats["misses"],
                "evictions": stats["evictions"],
                "store_loads": self.service.index.store_loads}

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, List[float]]:
        return {
            f"query_{mode}_p50_ms":
                [statistics.median(rep.timings[mode]) * 1e3 for rep in reps]
            for mode in ("cold", "warm", "reload")
        }

    def probes(self, reps: Sequence[Rep]) -> Dict[str, float]:
        """The same warm query dispatched in-process: what the loopback
        round trip adds is the client's median minus this one."""
        headers = {"Accept": "application/json", "If-None-Match": ""}
        samples = []
        for _ in range(200):
            start = perf_counter()
            self.service.dispatch("/query", dict(WARM_QUERY), headers)
            samples.append(perf_counter() - start)
        warm_ms = statistics.median(
            self.end_to_end(reps)["query_warm_p50_ms"])
        return {"service.daemon.http_overhead_ms":
                warm_ms - statistics.median(samples) * 1e3}

    def per_layer(self, reps: Sequence[Rep], traced: Sequence[Rep],
                  recorder: trace.Recorder, checks: Checks) -> Dict[str, float]:
        warm = sorted(s for rep in reps for s in rep.timings["warm"])
        counts = reps[0].counts
        n_warm = self.batch[self.quick][1]
        warm_seconds = sum(sum(rep.timings["warm"]) for rep in reps)
        # A refresh is parse + sort + fingerprint; the index's other calls
        # are two stat(2)s each and vanish beside it.
        reloads = recorder.aggregates.get(
            ("CampaignStore.load", "StoreIndex.get"), (0, 0, 0))[0]
        reload_ns = recorder.total("StoreIndex.get")[1]
        cold_runs, cold_ns, _ = recorder.total("run_query")
        return {
            "service.index.store_loads": counts["store_loads"],
            "service.index.reload_ms":
                reload_ns / reloads / 1e6 if reloads else 0.0,
            "service.query.run_ms_cold":
                cold_ns / cold_runs / 1e6 if cold_runs else 0.0,
            "service.cache.hits": counts["hits"],
            "service.cache.misses": counts["misses"],
            "service.cache.evictions": counts["evictions"],
            "service.cache.hit_ratio":
                counts["hits"] / (counts["hits"] + counts["misses"]),
            "service.daemon.warm_qps": len(reps) * n_warm / warm_seconds,
            # The highest percentile with ten samples beyond it, p99 at most
            # (closed-loop tails swing 2x run to run: per-layer only).
            "service.daemon.warm_p99_ms":
                warm[len(warm) - 1 - max(10, len(warm) // 100)] * 1e3,
        }
