"""Tests for incast worker-response jitter and runner pooling."""

import numpy as np
import pytest

from repro.experiments.runner import pool_results, run_star_fct
from repro.core.red import SojournRed
from repro.sim.packet import PacketFactory
from repro.sim.units import us
from repro.topology import build_star
from repro.workloads import WEB_SEARCH, launch_query


class TestQueryJitter:
    def launch(self, jitter):
        topo = build_star(n_senders=4)
        handles = launch_query(
            topo.network,
            PacketFactory(),
            topo.senders,
            topo.receiver,
            fanout=30,
            start_time=0.001,
            rng=np.random.default_rng(3),
            jitter=jitter,
        )
        return handles

    def test_zero_jitter_synchronized(self):
        handles = self.launch(jitter=0.0)
        assert all(h.start_time == 0.001 for h in handles)

    def test_jitter_spreads_starts(self):
        handles = self.launch(jitter=us(300))
        starts = [h.start_time for h in handles]
        assert min(starts) >= 0.001
        assert max(starts) <= 0.001 + us(300)
        assert max(starts) > min(starts)  # actually spread

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            self.launch(jitter=-1e-6)


class TestPooling:
    def run_one(self, seed):
        return run_star_fct(
            aqm_factory=lambda: SojournRed(us(200)),
            workload=WEB_SEARCH,
            load=0.4,
            n_flows=15,
            seed=seed,
        )

    def test_pool_merges_records(self):
        results = [self.run_one(1), self.run_one(2)]
        pooled = pool_results(results)
        assert pooled.summary.n_flows == 30
        assert pooled.marks == results[0].marks + results[1].marks
        assert pooled.events == results[0].events + results[1].events

    def test_pool_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_results([])
