"""Tests for the multi-writer coordination layer: the advisory store
lock, the lease board, graceful shutdown, store merging, and canonical
store fingerprints."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.scenarios import CampaignStore, CellRecord
from repro.scenarios.coordination import (
    GracefulShutdown,
    LeaseBoard,
    LockTimeout,
    MergeConflictError,
    StoreLock,
    default_worker_id,
    merge_stores,
    store_fingerprint,
)


def record(cell="k1", status="ok", metric=1.0, sha="abc", shash="h"):
    """A CellRecord whose key is (shash, (cell,))."""
    return CellRecord(
        scenario="s", scenario_hash=shash, cell_key=cell, component="c",
        tokens=(cell,), status=status, metrics={"m": metric}, failures=(),
        git_sha=sha, version="0.1",
    )


def dead_pid():
    """A pid guaranteed dead: a reaped child of this process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestStoreLock:
    def test_acquire_writes_pid_and_release_unlinks(self, tmp_path):
        lock = StoreLock(tmp_path / "s.lock")
        lock.acquire()
        body = (tmp_path / "s.lock").read_text().split()
        assert int(body[0]) == os.getpid()
        lock.release()
        assert not (tmp_path / "s.lock").exists()

    def test_context_manager(self, tmp_path):
        with StoreLock(tmp_path / "s.lock"):
            assert (tmp_path / "s.lock").exists()
        assert not (tmp_path / "s.lock").exists()

    def test_contention_times_out(self, tmp_path):
        path = tmp_path / "s.lock"
        with StoreLock(path):
            second = StoreLock(path, timeout=0.2)
            with pytest.raises(LockTimeout, match=str(os.getpid())):
                second.acquire()

    def test_dead_pid_lock_is_broken_immediately(self, tmp_path):
        path = tmp_path / "s.lock"
        import socket

        path.write_text(f"{dead_pid()} {socket.gethostname()}\n")
        lock = StoreLock(path, timeout=5.0)
        with lock:
            assert lock.broken_stale == 1
            assert int(path.read_text().split()[0]) == os.getpid()

    def test_old_cross_host_lock_is_broken_by_mtime(self, tmp_path):
        path = tmp_path / "s.lock"
        path.write_text(f"{os.getpid()} not-this-host\n")
        os.utime(path, (time.time() - 120, time.time() - 120))
        lock = StoreLock(path, timeout=5.0)
        with lock:
            assert lock.broken_stale == 1


class TestLeaseBoard:
    def key(self, name):
        return ("h", (name,))

    def test_claim_release_roundtrip(self, tmp_path):
        board = LeaseBoard(tmp_path / "s.leases.jsonl", ttl=60.0)
        board.claim([self.key("a")], "w1")
        assert board.load()[self.key("a")].state == "claimed"
        board.release([self.key("a")], "w1")
        assert board.load()[self.key("a")].state == "released"

    def test_partition_skips_other_workers_live_leases(self, tmp_path):
        board = LeaseBoard(tmp_path / "l.jsonl", ttl=60.0)
        pending = [self.key("a"), self.key("b")]
        board.claim([self.key("a")], "other")
        claimable, reclaimed = board.partition(pending, "me")
        assert claimable == [self.key("b")]
        assert reclaimed == []

    def test_partition_reclaims_own_live_lease(self, tmp_path):
        board = LeaseBoard(tmp_path / "l.jsonl", ttl=60.0)
        board.claim([self.key("a")], "me")
        claimable, reclaimed = board.partition([self.key("a")], "me")
        assert claimable == [self.key("a")]
        assert reclaimed == []  # resuming one's own work is not a reclaim

    def test_partition_reclaims_stale_lease(self, tmp_path):
        board = LeaseBoard(tmp_path / "l.jsonl", ttl=60.0)
        board.claim([self.key("a")], "dead-worker", now=time.time() - 120)
        claimable, reclaimed = board.partition([self.key("a")], "me")
        assert claimable == [self.key("a")]
        assert reclaimed == [(self.key("a"), "dead-worker")]

    def test_partition_honours_limit_in_order(self, tmp_path):
        board = LeaseBoard(tmp_path / "l.jsonl", ttl=60.0)
        pending = [self.key(n) for n in ("a", "b", "c")]
        claimable, _ = board.partition(pending, "me", limit=2)
        assert claimable == pending[:2]

    def test_released_lease_is_claimable_again(self, tmp_path):
        board = LeaseBoard(tmp_path / "l.jsonl", ttl=60.0)
        board.claim([self.key("a")], "other")
        board.release([self.key("a")], "other")
        claimable, reclaimed = board.partition([self.key("a")], "me")
        assert claimable == [self.key("a")]
        assert reclaimed == []

    def test_torn_lease_line_is_skipped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        board = LeaseBoard(path, ttl=60.0)
        board.claim([self.key("a")], "w1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('[1]\n"x"\n')  # parses, but is not a lease object
            handle.write('{"key": ["h", ["b"]], "worker": "w')  # torn
        assert set(board.load()) == {self.key("a")}
        # the next append heals the torn trailing line first
        board.claim([self.key("c")], "w1")
        assert set(board.load()) == {self.key("a"), self.key("c")}

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseBoard(tmp_path / "l.jsonl", ttl=0)

    def test_default_worker_id_carries_pid(self):
        assert default_worker_id().endswith(f":{os.getpid()}")


class TestGracefulShutdown:
    def test_latches_sigint_and_restores_handler(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown() as shutdown:
            assert not shutdown.requested
            os.kill(os.getpid(), signal.SIGINT)
            assert shutdown.requested
            assert shutdown.signum == signal.SIGINT
            assert shutdown.exit_code == 130
        assert signal.getsignal(signal.SIGINT) is before

    def test_sigterm_exit_code(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown.exit_code == 128 + signal.SIGTERM


class TestMerge:
    def store(self, tmp_path, name, records):
        store = CampaignStore(tmp_path / name)
        store.append(records)
        return store

    def test_disjoint_union(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1")])
        b = self.store(tmp_path, "b.jsonl", [record("k2")])
        merged = merge_stores([a, b], output=tmp_path / "m.jsonl")
        assert len(merged.records) == 2
        assert merged.ok_cells == 2
        assert merged.duplicates_collapsed == 0
        assert merged.summary_line() == (
            "cells=2 ok=2 failed=0 inputs=2 collapsed=0"
        )

    def test_ok_beats_failed(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1", status="failed")])
        b = self.store(tmp_path, "b.jsonl", [record("k1", status="ok")])
        merged = merge_stores([a, b])
        assert merged.records[0].status == "ok"
        assert merged.duplicates_collapsed == 1

    def test_provenance_only_differences_are_not_conflicts(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1", sha="aaa")])
        b = self.store(tmp_path, "b.jsonl", [record("k1", sha="bbb")])
        merged = merge_stores([a, b])
        assert len(merged.records) == 1
        assert merged.records[0].git_sha == "aaa"  # first ok wins

    def test_ok_ok_content_conflict_raises(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1", metric=1.0)])
        b = self.store(tmp_path, "b.jsonl", [record("k1", metric=2.0)])
        with pytest.raises(MergeConflictError, match="disagree on content"):
            merge_stores([a, b], output=tmp_path / "m.jsonl")
        assert not (tmp_path / "m.jsonl").exists()  # nothing written

    def test_no_ok_last_input_wins(self, tmp_path):
        a = self.store(
            tmp_path, "a.jsonl", [record("k1", status="failed", metric=1.0)]
        )
        b = self.store(
            tmp_path, "b.jsonl", [record("k1", status="failed", metric=2.0)]
        )
        merged = merge_stores([a, b])
        assert merged.records[0].metrics["m"] == 2.0
        assert merged.failed_cells == 1

    def test_merge_is_idempotent(self, tmp_path):
        self.store(tmp_path, "a.jsonl", [record("k1"), record("k2")])
        self.store(
            tmp_path, "b.jsonl", [record("k2"), record("k3", status="failed")]
        )
        once = tmp_path / "once.jsonl"
        merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"], output=once)
        twice = tmp_path / "twice.jsonl"
        merge_stores([once, tmp_path / "b.jsonl"], output=twice)
        assert once.read_bytes() == twice.read_bytes()

    def test_output_may_be_an_input(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1")])
        self.store(tmp_path, "b.jsonl", [record("k2")])
        merge_stores(
            [tmp_path / "a.jsonl", tmp_path / "b.jsonl"], output=a.path
        )
        assert len(CampaignStore(a.path).load()) == 2

    def test_merged_output_is_canonically_sorted(self, tmp_path):
        self.store(tmp_path, "a.jsonl", [record("k2"), record("k1")])
        out = tmp_path / "m.jsonl"
        merge_stores([tmp_path / "a.jsonl"], output=out)
        keys = [json.loads(line)["cell_key"]
                for line in out.read_text().splitlines()]
        assert keys == ["k1", "k2"]

    def test_sidecars_merge_with_latest_wins_dedupe(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1")])
        b = self.store(tmp_path, "b.jsonl", [record("k2")])
        a.append_resources([
            {"scenario": "s", "cell_key": "k1", "wall_seconds": 1.0},
        ])
        b.append_resources([
            {"scenario": "s", "cell_key": "k1", "wall_seconds": 9.0},
            {"scenario": "s", "cell_key": "k2", "wall_seconds": 2.0},
        ])
        out = tmp_path / "m.jsonl"
        merged = merge_stores([a, b], output=out)
        assert merged.resource_rows == 2
        assert merged.resource_rows_collapsed == 1
        assert merged.summary_line().endswith(
            "resources=2 resources_collapsed=1"
        )
        rows = CampaignStore(out).load_resources()
        by_key = {row["cell_key"]: row for row in rows}
        assert by_key["k1"]["wall_seconds"] == 9.0  # latest input wins
        assert by_key["k2"]["wall_seconds"] == 2.0

    def test_sidecar_merge_is_idempotent(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1")])
        b = self.store(tmp_path, "b.jsonl", [record("k2")])
        a.append_resources([{"scenario": "s", "cell_key": "k1", "w": 1}])
        b.append_resources([{"scenario": "s", "cell_key": "k2", "w": 2}])
        once = tmp_path / "once.jsonl"
        merge_stores([a, b], output=once)
        twice = tmp_path / "twice.jsonl"
        merge_stores([CampaignStore(once), b], output=twice)
        assert (
            CampaignStore(once).resources_path.read_bytes()
            == CampaignStore(twice).resources_path.read_bytes()
        )

    def test_missing_sidecars_do_not_block_merge(self, tmp_path):
        a = self.store(tmp_path, "a.jsonl", [record("k1")])
        out = tmp_path / "m.jsonl"
        merged = merge_stores([a], output=out)
        assert merged.resource_rows == 0
        # no rows -> no sidecar file, and the summary keeps its legacy shape
        assert not CampaignStore(out).resources_path.exists()
        assert "resources=" not in merged.summary_line()

    def test_cli_merge_conflict_exits_nonzero(self, tmp_path):
        from repro.cli import main

        self.store(tmp_path, "a.jsonl", [record("k1", metric=1.0)])
        self.store(tmp_path, "b.jsonl", [record("k1", metric=2.0)])
        status = main([
            "scenario", "merge", str(tmp_path / "a.jsonl"),
            str(tmp_path / "b.jsonl"), "--out", str(tmp_path / "m.jsonl"),
        ])
        assert status == 1

    def test_cli_merge_missing_store_exits_two(self, tmp_path):
        from repro.cli import main

        status = main([
            "scenario", "merge", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "m.jsonl"),
        ])
        assert status == 2


class TestStoreFingerprint:
    def test_append_order_does_not_matter(self, tmp_path):
        forward = CampaignStore(tmp_path / "f.jsonl")
        forward.append([record("k1"), record("k2")])
        backward = CampaignStore(tmp_path / "b.jsonl")
        backward.append([record("k2")])
        backward.append([record("k1")])
        assert store_fingerprint(forward) == store_fingerprint(backward)

    def test_latest_record_wins_in_fingerprint(self, tmp_path):
        once = CampaignStore(tmp_path / "o.jsonl")
        once.append([record("k1", status="ok")])
        healed = CampaignStore(tmp_path / "h.jsonl")
        healed.append([record("k1", status="failed")])
        healed.append([record("k1", status="ok")])
        assert store_fingerprint(once) == store_fingerprint(healed)

    def test_content_difference_changes_fingerprint(self, tmp_path):
        a = CampaignStore(tmp_path / "a.jsonl")
        a.append([record("k1", metric=1.0)])
        b = CampaignStore(tmp_path / "b.jsonl")
        b.append([record("k1", metric=2.0)])
        assert store_fingerprint(a) != store_fingerprint(b)

    def test_empty_store_is_empty_bytes(self, tmp_path):
        assert store_fingerprint(tmp_path / "absent.jsonl") == b""
