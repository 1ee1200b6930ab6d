"""Tests for the campaign results service: store index revalidation, the
query engine, the summary-tier LRU cache, HTTP dispatch (ETag / 304 /
content negotiation), the stdlib client against a live daemon, and
concurrent serving while a ``--shared``-style writer appends cells."""

import gc
import http.client
import json
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import CampaignStore, CellRecord
from repro.scenarios.coordination import StoreLock, store_fingerprint
from repro.service import (
    Query,
    QueryError,
    ResultsService,
    ServiceClient,
    ServiceUnavailable,
    StoreIndex,
    SummaryCache,
    render,
    run_query,
    scheme_of,
)
from repro.service.daemon import _make_server
from repro.telemetry import Telemetry


def record(scenario="fig10", cell="incast|fanout=100|scheme=ECN#",
           token="t1", status="ok", metrics=None, fidelity="packet",
           shash="h1"):
    return CellRecord(
        scenario=scenario, scenario_hash=shash, cell_key=cell,
        component="incast", tokens=(token,), status=status,
        metrics={"m": 1.0} if metrics is None else metrics, failures=(),
        git_sha=None, version="0.1", fidelity=fidelity,
    )


def make_store(path, records):
    store = CampaignStore(path)
    store.append(records)
    return store


def counters(service):
    return service.telemetry.registry.snapshot()["counters"]


# ---------------------------------------------------------------- StoreIndex


class TestStoreIndex:
    def test_discovery_excludes_sidecars(self, tmp_path):
        make_store(tmp_path / "a.jsonl", [record()])
        make_store(tmp_path / "sub" / "b.jsonl", [record()])
        (tmp_path / "a.resources.jsonl").write_text("{}\n")
        (tmp_path / "a.leases.jsonl").write_text("{}\n")
        index = StoreIndex(tmp_path)
        assert index.discover() == ["a", "sub/b"]

    def test_get_loads_once_while_unchanged(self, tmp_path):
        make_store(tmp_path / "a.jsonl", [record()])
        index = StoreIndex(tmp_path)
        first = index.get("a")
        second = index.get("a")
        assert first is second
        assert index.store_loads == 1

    def test_append_invalidates_probe(self, tmp_path):
        store = make_store(tmp_path / "a.jsonl", [record(token="t1")])
        index = StoreIndex(tmp_path)
        before = index.get("a")
        store.append([record(token="t2")])
        after = index.get("a")
        assert index.store_loads == 2
        assert len(after.records) == 2
        assert after.etag_seed != before.etag_seed

    def test_sidecar_append_invalidates_probe(self, tmp_path):
        store = make_store(tmp_path / "a.jsonl", [record()])
        index = StoreIndex(tmp_path)
        index.get("a")
        store.append_resources([{"scenario": "fig10", "cell_key": "k",
                                 "wall_seconds": 1.0}])
        entry = index.get("a")
        assert index.store_loads == 2
        assert len(entry.resources) == 1

    def test_a_touch_keeps_the_entry(self, tmp_path):
        """A new timestamp (or a sidecar's) with no new line is no new
        content: the same entry object, no load counted, no re-sort."""
        store = make_store(tmp_path / "a.jsonl",
                           [record(token="t2"), record(token="t1")])
        store.append_resources([{"scenario": "fig10", "cell_key": "k"}])
        index = StoreIndex(tmp_path)
        entry = index.get("a")
        for path in (store.path, store.resources_path):
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            assert index.get("a") is entry
        assert index.store_loads == 1
        store.append([record(token="t3")])  # a new line still reloads
        assert len(index.get("a").records) == 3
        assert index.store_loads == 2

    def test_a_changed_unsettled_tail_reloads(self, tmp_path):
        """No settled line was added, but the half-written last line the
        entry was built with grew: that is new content."""
        store = make_store(tmp_path / "a.jsonl", [record(token="t1")])
        line = record(token="t2").line.encode()
        with open(store.path, "ab") as handle:
            handle.write(line[:10])
        index = StoreIndex(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert index.get("a").torn_lines == 1
            with open(store.path, "ab") as handle:
                handle.write(line[10:])  # complete, still no newline
            entry = index.get("a")
        assert index.store_loads == 2
        assert (entry.torn_lines, len(entry.records)) == (0, 2)

    def test_same_size_replace_that_keeps_the_mtime_reloads(self, tmp_path):
        """An updated store copied over the served one with its timestamp
        kept (``rsync -a``, ``cp -p``): same size, same ``mtime_ns``, a new
        inode.  A ``(mtime_ns, size)`` probe served the old entry."""
        path = tmp_path / "a.jsonl"
        make_store(path, [record(token="t1", metrics={"m": 0.5}),
                          record(token="t2", metrics={"m": 0.5})])
        index = StoreIndex(tmp_path)
        assert [r.metrics for r in index.get("a").records] == [{"m": 0.5}] * 2
        before = path.stat()
        replacement = tmp_path / "incoming" / "a.jsonl"
        replacement.parent.mkdir()
        replacement.write_bytes(
            path.read_bytes().replace(b'"m":0.5', b'"m":0.7', 1))
        os.utime(replacement, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(replacement, path)
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns)
        entry = index.get("a")
        assert [r.metrics for r in entry.records] == [{"m": 0.7}, {"m": 0.5}]
        assert index.store_loads == 2
        assert entry.fingerprint == store_fingerprint(CampaignStore(path))

    def test_fingerprint_matches_store_fingerprint(self, tmp_path):
        store = make_store(tmp_path / "a.jsonl",
                           [record(token="t1"), record(token="t2")])
        entry = StoreIndex(tmp_path).get("a")
        assert entry.fingerprint == store_fingerprint(store)

    def test_path_escape_rejected(self, tmp_path):
        (tmp_path.parent / "outside.jsonl").write_text("")
        index = StoreIndex(tmp_path)
        assert index.get("../outside") is None
        assert index.get("/etc/passwd") is None
        assert index.get("") is None

    def test_unknown_store_is_none(self, tmp_path):
        assert StoreIndex(tmp_path).get("nope") is None


# --------------------------------------------------------------------- query


class TestQuery:
    def grid(self):
        return [
            record(cell="web|load=0.4|scheme=A", token="s|A|seed=1",
                   metrics={"fct": 1.0, "drops": 0.0}),
            record(cell="web|load=0.6|scheme=A", token="s|A|seed=2",
                   metrics={"fct": 3.0, "drops": 1.0}),
            record(cell="web|load=0.4|scheme=B", token="s|B|seed=1",
                   metrics={"fct": 2.0}),
            record(cell="web|load=0.6|scheme=B", token="s|B|seed=2",
                   metrics={"fct": 4.0}, status="failed"),
            record(scenario="other", cell="web|load=0.4|scheme=A",
                   token="s|A|seed=9", metrics={"fct": 9.0},
                   fidelity="fluid", shash="h2"),
        ]

    def test_scheme_of(self):
        assert scheme_of("web|load=0.4|scheme=ECN#") == "ECN#"
        assert scheme_of("no-scheme-here") == ""

    def test_unknown_param_rejected(self):
        with pytest.raises(QueryError):
            Query.from_params({"bogus": "x"})

    def test_bad_status_and_mode_rejected(self):
        with pytest.raises(QueryError):
            Query.from_params({"status": "weird"})
        with pytest.raises(QueryError):
            Query.from_params({"mode": "weird"})

    def test_filters(self):
        grid = self.grid()
        by_scheme = run_query(grid, Query(scheme="A", metric="fct",
                                          mode="cells"))
        assert [c["value"] for c in by_scheme["cells"]] == [1.0, 3.0, 9.0]
        by_scenario = run_query(grid, Query(scenario="other", mode="cells"))
        assert by_scenario["count"] == 1
        by_fidelity = run_query(grid, Query(fidelity="fluid", mode="cells"))
        assert by_fidelity["cells"][0]["scenario"] == "other"
        by_token = run_query(grid, Query(token="seed=1", metric="fct",
                                         mode="cells"))
        assert by_token["count"] == 2
        failed = run_query(grid, Query(status="failed", mode="cells"))
        assert failed["cells"][0]["status"] == "failed"

    def test_summary_aggregates(self):
        grid = self.grid()
        result = run_query(grid, Query(scenario="fig10", metric="fct"))
        rows = {r["scheme"]: r for r in result["summaries"]}
        assert rows["A"]["count"] == 2
        assert rows["A"]["mean"] == pytest.approx(2.0)
        assert rows["A"]["p50"] == pytest.approx(2.0)
        assert rows["A"]["min"] == 1.0 and rows["A"]["max"] == 3.0
        # The failed B cell is excluded by the default status=ok filter.
        assert rows["B"]["count"] == 1

    def test_query_hash_stable_and_distinct(self):
        assert Query(metric="fct").query_hash() == \
            Query(metric="fct").query_hash()
        assert Query(metric="fct").query_hash() != \
            Query(metric="drops").query_hash()

    def test_render_deterministic(self):
        result = run_query(self.grid(), Query(metric="fct"))
        assert render(result, "json") == render(result, "json")
        csv_body = render(run_query(self.grid(), Query(mode="cells")), "csv")
        lines = csv_body.decode().splitlines()
        assert lines[0].startswith("store,scenario,cell_key")
        with pytest.raises(QueryError):
            render(result, "xml")


# --------------------------------------------------------------------- cache


class TestSummaryCache:
    def test_lru_eviction_by_bytes(self):
        cache = SummaryCache(max_bytes=100)
        cache.put(("s", "q1", "json"), b"x" * 60)
        cache.put(("s", "q2", "json"), b"x" * 30)
        assert cache.get(("s", "q1", "json")) is not None  # q1 now MRU
        cache.put(("s", "q3", "json"), b"x" * 35)  # evicts q2 (LRU)
        assert cache.get(("s", "q2", "json")) is None
        assert cache.get(("s", "q1", "json")) is not None
        assert cache.evictions == 1

    def test_oversized_body_not_retained(self):
        cache = SummaryCache(max_bytes=10)
        cache.put(("s", "q", "json"), b"x" * 50)
        assert cache.get(("s", "q", "json")) is None
        assert cache.stats()["bytes"] == 0

    def test_telemetry_counters(self):
        telemetry = Telemetry(metrics=True, profile=False)
        cache = SummaryCache(max_bytes=100, telemetry=telemetry)
        cache.get(("s", "q", "json"))
        cache.put(("s", "q", "json"), b"b")
        cache.get(("s", "q", "json"))
        snap = telemetry.registry.snapshot()["counters"]
        assert snap["service_cache_misses_total"] == 1
        assert snap["service_cache_hits_total"] == 1


# ------------------------------------------------------------ dispatch (HTTP)


class TestDispatch:
    def service(self, tmp_path, records=None):
        make_store(tmp_path / "a.jsonl",
                   records or [record(token="t1",
                                      metrics={"fct": 1.0, "drops": 2.0})])
        return ResultsService(tmp_path)

    def test_query_json_and_csv(self, tmp_path):
        svc = self.service(tmp_path)
        js = svc.dispatch("/query", {"metric": "fct"}, {})
        assert js.status == 200 and js.content_type == "application/json"
        payload = json.loads(js.body)
        assert payload["summaries"][0]["metric"] == "fct"
        csv_resp = svc.dispatch("/query", {"format": "csv"}, {})
        assert csv_resp.content_type == "text/csv"
        accept = svc.dispatch("/query", {}, {"Accept": "text/csv"})
        assert accept.content_type == "text/csv"

    def test_warm_query_zero_store_reads(self, tmp_path):
        """Acceptance: a repeated query is served entirely from the summary
        cache -- zero store reads, asserted via telemetry counters."""
        svc = self.service(tmp_path)
        first = svc.dispatch("/query", {"metric": "fct"}, {})
        assert first.cache_state == "miss"
        snap = counters(svc)
        assert snap["service_store_loads_total"] == 1
        assert snap["service_cache_misses_total"] == 1
        for _ in range(5):
            warm = svc.dispatch("/query", {"metric": "fct"}, {})
            assert warm.cache_state == "hit"
            assert warm.body == first.body
        snap = counters(svc)
        assert snap["service_store_loads_total"] == 1  # zero extra reads
        assert snap["service_cache_hits_total"] == 5

    def test_etag_304_and_flip_on_append(self, tmp_path):
        svc = self.service(tmp_path)
        first = svc.dispatch("/query", {"metric": "fct"}, {})
        not_modified = svc.dispatch("/query", {"metric": "fct"},
                                    {"If-None-Match": first.etag})
        assert not_modified.status == 304
        assert not_modified.body == b""
        assert not_modified.cache_state == "not_modified"
        CampaignStore(tmp_path / "a.jsonl").append([record(token="t2")])
        changed = svc.dispatch("/query", {"metric": "fct"},
                               {"If-None-Match": first.etag})
        assert changed.status == 200
        assert changed.etag != first.etag

    def test_cold_query_is_one_pass_over_the_records(self, tmp_path,
                                                     monkeypatch):
        """A cache miss filters the records once -- in summary mode the
        per-store pass used to run too, and its rows were thrown away --
        and a summary groups straight from that pass, without rows."""
        from repro.service import query as query_module

        passes, row_lists = [], []
        real = query_module._matches
        monkeypatch.setattr(
            query_module, "_matches",
            lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
        real_rows = query_module._cell_rows
        monkeypatch.setattr(
            query_module, "_cell_rows",
            lambda *args, **kwargs: (row_lists.append(1)
                                     or real_rows(*args, **kwargs)))
        make_store(tmp_path / "b.jsonl", [record(token="t2")])
        svc = self.service(tmp_path)
        for n, params in enumerate(
                ({"metric": "fct"}, {"store": "a"}, {"scenario": "fig10"}), 1):
            assert svc.dispatch("/query", params, {}).cache_state == "miss"
            assert len(passes) == n
        assert row_lists == []
        svc.dispatch("/query", {"mode": "cells"}, {})  # one pass per store
        assert len(passes) == 5
        assert len(row_lists) == 2

    def test_two_store_summary_is_one_grouping_pass(self, tmp_path):
        a = [record(token="t1", metrics={"fct": 1.0}),
             record(token="t2", metrics={"fct": 5.0})]
        b = [record(token="t3", metrics={"fct": 3.0})]
        make_store(tmp_path / "b.jsonl", b)
        svc = self.service(tmp_path, a)
        for fmt in ("json", "csv"):
            response = svc.dispatch("/query", {"format": fmt}, {})
            assert response.body == render(run_query(a + b, Query()), fmt)
        summary = json.loads(svc.dispatch("/query", {"metric": "fct"}, {}).body)
        assert summary["cells_matched"] == 3
        assert summary["summaries"][0]["count"] == 3
        cells = json.loads(svc.dispatch("/query", {"mode": "cells"}, {}).body)
        assert [row["store"] for row in cells["cells"]] == ["a", "a", "b"]

    def test_etag_varies_by_query_and_format(self, tmp_path):
        svc = self.service(tmp_path)
        a = svc.dispatch("/query", {"metric": "fct"}, {})
        b = svc.dispatch("/query", {"metric": "drops"}, {})
        c = svc.dispatch("/query", {"metric": "fct", "format": "csv"}, {})
        assert len({a.etag, b.etag, c.etag}) == 3

    def test_errors(self, tmp_path):
        svc = self.service(tmp_path)
        assert svc.dispatch("/nope", {}, {}).status == 404
        assert svc.dispatch("/query", {"store": "ghost"}, {}).status == 404
        bad = svc.dispatch("/query", {"bogus": "x"}, {})
        assert bad.status == 400
        assert b"bogus" in bad.body

    def test_healthz_and_metricz(self, tmp_path):
        svc = self.service(tmp_path)
        health = json.loads(svc.dispatch("/healthz", {}, {}).body)
        assert health["status"] == "ok" and health["stores"] == 1
        svc.dispatch("/query", {}, {})
        metricz = json.loads(svc.dispatch("/metricz", {}, {}).body)
        assert metricz["store_loads"] == 1
        assert "service_cache_misses_total" in metricz["metrics"]["counters"]
        assert metricz["cache"]["entries"] == 1

    def test_stores_and_resources_routes(self, tmp_path):
        svc = self.service(tmp_path)
        CampaignStore(tmp_path / "a.jsonl").append_resources(
            [{"scenario": "fig10", "cell_key": "k", "wall_seconds": 2.0}]
        )
        stores = json.loads(svc.dispatch("/stores", {}, {}).body)
        assert stores["stores"][0]["name"] == "a"
        assert stores["stores"][0]["cells"] == 1
        resources = json.loads(
            svc.dispatch("/resources", {"store": "a"}, {}).body
        )
        assert resources["resources"]["a"][0]["wall_seconds"] == 2.0

    def test_goldens_route(self, tmp_path):
        golden_dir = tmp_path / "baselines"
        golden_dir.mkdir()
        (golden_dir / "tiny.json").write_text('{"cells": {}}')
        make_store(tmp_path / "stores" / "a.jsonl", [record()])
        svc = ResultsService(tmp_path / "stores", golden_dir=golden_dir)
        listing = json.loads(svc.dispatch("/goldens", {}, {}).body)
        assert listing["goldens"] == ["tiny"]
        golden = svc.dispatch("/goldens", {"name": "tiny"}, {})
        assert json.loads(golden.body) == {"cells": {}}
        assert svc.dispatch("/goldens", {"name": "ghost"}, {}).status == 404
        assert svc.dispatch("/goldens", {"name": "../x"}, {}).status == 400

    def test_fluid_fidelity_round_trip(self, tmp_path):
        """fidelity is denormalized onto records (elided when packet) and
        queryable end to end."""
        fluid = record(token="tf", fidelity="fluid",
                       metrics={"fct": 5.0})
        svc = self.service(tmp_path, records=[record(token="tp"), fluid])
        got = json.loads(svc.dispatch(
            "/query", {"fidelity": "fluid", "mode": "cells"}, {}
        ).body)
        assert got["count"] == 1
        assert got["cells"][0]["fidelity"] == "fluid"
        # packet elision keeps serialized packet records field-free
        line = (tmp_path / "a.jsonl").read_text().splitlines()[0]
        assert "fidelity" not in json.loads(line)


BAD_METRICS = ({"fct": None}, {"fct": "1.5"}, {"fct": True}, {"fct": [1.0]},
               ["fct"])


def write_foreign_store(path):
    """One good record, then a line per :data:`BAD_METRICS` entry."""
    good = record(token="good", metrics={"fct": 1.5, "drops": 2.0})
    lines = [good.line]
    for n, metrics in enumerate(BAD_METRICS):
        data = record(token=f"bad{n}").to_dict()
        data["metrics"] = metrics
        lines.append(json.dumps(data))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class TestForeignMetricValues:
    """A store line whose metric value is not a number is a foreign line:
    skipped, warned about and counted as torn -- it used to turn every
    summary over its store into an HTTP 500 / a CLI traceback."""

    def store_dir(self, tmp_path):
        write_foreign_store(tmp_path / "a.jsonl")
        return tmp_path

    def test_from_dict_rejects_non_numeric_metrics(self):
        for metrics in BAD_METRICS:
            data = record().to_dict()
            data["metrics"] = metrics
            with pytest.raises(TypeError):
                CellRecord.from_dict(data)
        data = record(metrics={"n": 3, "x": -0.5}).to_dict()
        assert CellRecord.from_dict(data).metrics == {"n": 3, "x": -0.5}

    def test_daemon_summary_skips_the_foreign_lines(self, tmp_path):
        svc = ResultsService(self.store_dir(tmp_path))
        with pytest.warns(UserWarning, match="unreadable record"):
            response = svc.dispatch("/query", {"metric": "fct"}, {})
        assert response.status == 200
        summary = json.loads(response.body)
        assert summary["cells_matched"] == 1
        assert summary["summaries"][0]["mean"] == 1.5
        for fmt in ("json", "csv"):
            for mode in ("summary", "cells"):
                assert svc.dispatch("/query", {"format": fmt, "mode": mode},
                                    {}).status == 200
        stores = json.loads(svc.dispatch("/stores", {}, {}).body)
        assert stores["stores"][0]["cells"] == 1
        assert stores["stores"][0]["torn_lines"] == len(BAD_METRICS)

    def test_cli_summary_skips_the_foreign_lines(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.warns(UserWarning, match="unreadable record"):
            assert main(["query", "--store-dir",
                         str(self.store_dir(tmp_path)), "--metric",
                         "fct"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summaries"][0]["mean"] == 1.5


QUERY_FIELDS = ("store", "scenario", "scheme", "metric", "fidelity",
                "token", "status", "mode", "format")
FUZZ_PATHS = st.text(max_size=16) | st.sampled_from(
    ["/query", "/query/", "/stores", "/resources", "/goldens", "/healthz",
     "/metricz", "/", "", "/nope", "//query", "/query/x"])
FUZZ_VALUES = st.sampled_from(
    ["", "a", "b", "sub/c", "../a", "ghost", "fig10", "other", "ECN#", "A",
     "fct", "drops", "t1", "seed=1", "ok", "failed", "any", "cells",
     "summary", "json", "csv", "xml", "packet", "fluid", "tiny", ".x",
     "x/y"]) | st.text(max_size=12)
FUZZ_PARAMS = st.dictionaries(
    st.sampled_from(QUERY_FIELDS + ("name",)) | st.text(max_size=8),
    FUZZ_VALUES, max_size=5)
FUZZ_HEADERS = st.fixed_dictionaries({}, optional={
    "Accept": st.sampled_from(["", "text/csv", "application/json", "*/*",
                               "text/csv;q=0.5, application/json"])
    | st.text(max_size=20),
    "If-None-Match": st.sampled_from(["", "*", '"abc"', "abc, *"])
    | st.text(max_size=20),
})


class TestDispatchFuzz:
    def test_dispatch_never_fails_on_the_server_side(self, tmp_path):
        """Whatever the path, parameters and headers, and with a store of
        foreign lines among the good ones: a 2xx, 304 or 4xx, never an
        exception or a 5xx."""
        make_store(tmp_path / "stores" / "a.jsonl", TestQuery().grid())
        make_store(tmp_path / "stores" / "sub" / "c.jsonl",
                   [record(token="t1", metrics={"fct": 2.0, "drops": 0})])
        write_foreign_store(tmp_path / "stores" / "b.jsonl")
        (tmp_path / "stores" / "junk.jsonl").write_bytes(
            b'[1]\nnot json\n{"scenario": 1}\n\xff\n{"torn')
        golden_dir = tmp_path / "baselines"
        golden_dir.mkdir()
        (golden_dir / "tiny.json").write_text('{"cells": {}}')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            service = ResultsService(tmp_path / "stores",
                                     golden_dir=golden_dir)

            @settings(max_examples=300, deadline=None)
            @given(path=FUZZ_PATHS, params=FUZZ_PARAMS, headers=FUZZ_HEADERS)
            def check(path, params, headers):
                response = service.dispatch(path, params, headers)
                assert 200 <= response.status < 500, (response.status,
                                                      response.body)

            check()


# ----------------------------------------------------------- live HTTP server


@pytest.fixture
def live_service(tmp_path):
    store = make_store(
        tmp_path / "a.jsonl",
        [record(token="t1", metrics={"fct": 1.0})],
    )
    service = ResultsService(tmp_path)
    server = _make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield store, service, ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()


class TestClient:
    def test_healthz_stores_query(self, live_service):
        _store, _service, client = live_service
        assert client.healthz()["status"] == "ok"
        assert client.stores()["stores"][0]["name"] == "a"
        response = client.query({"metric": "fct"})
        assert response.status == 200
        assert response.etag
        assert response.json()["count"] == 1

    def test_304_round_trip(self, live_service):
        _store, _service, client = live_service
        first = client.query({"metric": "fct"})
        again = client.query({"metric": "fct"}, etag=first.etag)
        assert again.status == 304
        assert again.body == b""

    def test_csv_accept(self, live_service):
        _store, _service, client = live_service
        response = client.query({"mode": "cells"}, accept="text/csv")
        assert response.content_type.startswith("text/csv")
        assert response.body.decode().splitlines()[0].startswith("store,")

    def test_metricz_counts_requests(self, live_service):
        _store, _service, client = live_service
        client.query({"metric": "fct"})
        metricz = client.metricz()
        requests = {
            key: value
            for key, value in metricz["metrics"]["counters"].items()
            if key.startswith("service_requests_total")
        }
        assert any("endpoint=query" in key for key in requests)

    def test_unreachable_raises_service_unavailable(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceUnavailable):
            client.healthz()


def start_server(service, port=0):
    """A live daemon on loopback whose accepted connections are counted."""
    server = _make_server(service, "127.0.0.1", port)
    server.accepted = 0
    process_request = server.process_request

    def counted(request, client_address):
        server.accepted += 1
        process_request(request, client_address)

    server.process_request = counted
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def stop_server(server):
    server.shutdown()
    server.server_close()


def count_connects(monkeypatch):
    connects = []
    real = http.client.HTTPConnection.connect
    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        lambda self: connects.append(1) or real(self))
    return connects


class TestTransport:
    def test_requests_on_one_connection_do_not_stall(self, tmp_path):
        """Headers and body leave without waiting on the client's delayed
        ACK: with Nagle on, each kept-alive request took >= 40 ms."""
        make_store(tmp_path / "a.jsonl", [record(metrics={"fct": 1.0})])
        server = start_server(ResultsService(tmp_path))
        connection = http.client.HTTPConnection(*server.server_address[:2],
                                                timeout=10)
        try:
            connection.request("GET", "/query?metric=fct")
            first = connection.getresponse().read()
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/query?metric=fct")
                assert connection.getresponse().read() == first
            average = (time.perf_counter() - start) / 20
        finally:
            connection.close()
            stop_server(server)
        assert server.accepted == 1
        assert average < 0.010, f"{average * 1e3:.1f} ms per request"

    def test_the_client_keeps_its_connection(self, tmp_path):
        make_store(tmp_path / "a.jsonl", [record()])
        server = start_server(ResultsService(tmp_path))
        client = ServiceClient("http://%s:%d" % server.server_address[:2])
        try:
            for _ in range(5):
                assert client.query({}).status == 200
            assert client.healthz()["status"] == "ok"
            assert client.query({}, etag=client.query({}).etag).status == 304
            assert client.get("/nope").status == 404
        finally:
            stop_server(server)
        assert server.accepted == 1

    def test_a_thread_s_connection_is_closed_when_the_thread_ends(
            self, tmp_path):
        make_store(tmp_path / "a.jsonl", [record()])
        server = start_server(ResultsService(tmp_path))
        client = ServiceClient("http://%s:%d" % server.server_address[:2])
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                worker = threading.Thread(target=client.healthz)
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
                gc.collect()
        finally:
            stop_server(server)
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_a_stale_connection_reconnects_once(self, tmp_path):
        """The daemon restarts on the same port: the pooled connection is
        dead, and the request goes out once more on a new one."""
        make_store(tmp_path / "a.jsonl", [record()])
        first = start_server(ResultsService(tmp_path))
        port = first.server_address[1]
        client = ServiceClient(f"http://127.0.0.1:{port}")
        body = client.query({}).body
        stop_server(first)
        second = start_server(ResultsService(tmp_path), port=port)
        try:
            assert client.query({}).body == body
            assert client.query({}).body == body
        finally:
            stop_server(second)
        assert second.accepted == 1

    def test_a_stale_connection_to_a_gone_daemon_is_unavailable(
            self, tmp_path, monkeypatch):
        make_store(tmp_path / "a.jsonl", [record()])
        server = start_server(ResultsService(tmp_path))
        client = ServiceClient("http://%s:%d" % server.server_address[:2])
        client.healthz()
        stop_server(server)
        connects = count_connects(monkeypatch)
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert len(connects) == 1

    def test_unreachable_fails_at_once_without_retrying(self, monkeypatch):
        connects = count_connects(monkeypatch)
        client = ServiceClient("http://127.0.0.1:9", timeout=5.0)
        start = time.perf_counter()
        with pytest.raises(ServiceUnavailable):
            client.query({})
        assert time.perf_counter() - start < 1.0
        assert len(connects) == 1


class TestDrain:
    def test_server_close_ends_an_idle_keep_alive_connection(self, tmp_path):
        """``repro serve`` must drain on SIGTERM while a dashboard holds a
        connection open between requests."""
        make_store(tmp_path / "a.jsonl", [record()])
        server = start_server(ResultsService(tmp_path))
        connection = http.client.HTTPConnection(*server.server_address[:2],
                                                timeout=10)
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            server.shutdown()
            closer = threading.Thread(target=server.server_close,
                                      daemon=True)
            start = time.perf_counter()
            closer.start()
            closer.join(timeout=5)
            elapsed = time.perf_counter() - start
            assert not closer.is_alive(), "server_close hung"
            assert elapsed < 1.0
        finally:
            connection.close()

    def test_a_request_in_flight_at_shutdown_gets_its_full_response(
            self, tmp_path):
        make_store(tmp_path / "a.jsonl", [record()])
        service = ResultsService(tmp_path)
        expected = service.dispatch("/query", {"mode": "cells"}, {})
        in_flight = threading.Event()
        dispatch = service.dispatch

        def slow_dispatch(path, params, headers):
            in_flight.set()
            time.sleep(0.3)
            return dispatch(path, params, headers)

        service.dispatch = slow_dispatch
        server = start_server(service)
        client = ServiceClient("http://%s:%d" % server.server_address[:2])
        with ThreadPoolExecutor(max_workers=1) as pool:
            reply = pool.submit(client.query, {"mode": "cells"})
            assert in_flight.wait(timeout=5)
            stop_server(server)
            response = reply.result(timeout=5)
        assert response.status == 200
        assert response.body == expected.body
        assert response.etag == expected.etag


class TestConcurrentServing:
    def test_readers_with_shared_writer(self, live_service):
        """Satellite: clients hammer one daemon while a --shared-style
        writer appends cells under the store lock.  No torn responses,
        every body parses, ETags flip exactly when the fingerprint
        changes, and 304s keep working on unchanged content."""
        store, _service, client = live_service
        stop = threading.Event()
        appended = []

        def writer():
            for index in range(8):
                with StoreLock(store.lock_path, timeout=5.0):
                    store.append([record(token=f"w{index}",
                                         metrics={"fct": float(index)})])
                appended.append(index)
                time.sleep(0.01)
            stop.set()

        def reader(worker):
            seen = []
            while not stop.is_set() or len(seen) == 0:
                response = client.query({"mode": "cells"})
                assert response.status == 200
                payload = response.json()  # raises on a torn body
                assert payload["count"] >= 1
                seen.append((response.etag, response.body))
            return seen

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [pool.submit(reader, w) for w in range(4)]
            seen = [f.result(timeout=30) for f in results]
        writer_thread.join(timeout=10)
        assert len(appended) == 8

        # Byte-correctness: one ETag maps to exactly one body, across
        # every thread.
        body_by_etag = {}
        for thread_seen in seen:
            for etag, body in thread_seen:
                assert body_by_etag.setdefault(etag, body) == body

        # Settled state: ETag now stable and flips only with content.
        final = client.query({"mode": "cells"})
        assert final.json()["count"] == 9 * 1  # 1 seed + 8 appended cells
        repeat = client.query({"mode": "cells"}, etag=final.etag)
        assert repeat.status == 304
        store.append([record(token="one-more")])
        flipped = client.query({"mode": "cells"}, etag=final.etag)
        assert flipped.status == 200
        assert flipped.etag != final.etag


# ------------------------------------------------------------------ CLI verbs


class TestCli:
    def test_query_in_process(self, tmp_path, capsys):
        from repro.cli import main

        make_store(tmp_path / "a.jsonl",
                   [record(token="t1", metrics={"fct": 1.5})])
        etag_file = tmp_path / "etag.txt"
        assert main(["query", "--store-dir", str(tmp_path),
                     "--metric", "fct",
                     "--etag-out", str(etag_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summaries"][0]["mean"] == 1.5
        etag = etag_file.read_text().strip()
        assert main(["query", "--store-dir", str(tmp_path),
                     "--metric", "fct",
                     "--if-none-match", etag]) == 0
        assert "not modified" in capsys.readouterr().out

    def test_query_csv_out_file(self, tmp_path):
        from repro.cli import main

        make_store(tmp_path / "a.jsonl", [record()])
        out = tmp_path / "result.csv"
        assert main(["query", "--store-dir", str(tmp_path),
                     "--mode", "cells", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("store,")

    def test_query_needs_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["query"])

    def test_query_url_fallback_to_store_dir(self, tmp_path, capsys):
        from repro.cli import main

        make_store(tmp_path / "a.jsonl", [record()])
        assert main(["query", "--url", "http://127.0.0.1:9",
                     "--store-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1


# ------------------------------------------------------- obs metricz section


class TestObsMetricz:
    def test_report_renders_service_section(self, tmp_path):
        from repro.obs import build_report

        svc = ResultsService(tmp_path)
        make_store(tmp_path / "a.jsonl", [record()])
        svc.dispatch("/query", {}, {})
        svc.dispatch("/query", {}, {})
        dump = tmp_path / "metricz.json"
        dump.write_bytes(svc.dispatch("/metricz", {}, {}).body)
        report = build_report(metricz=dump)
        markdown = report.to_markdown()
        assert "## Results service" in markdown
        assert "summary-cache hit rate %" in markdown
        assert report.service["cache"]["hits"] == 1
