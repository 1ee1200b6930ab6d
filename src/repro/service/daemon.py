"""The results daemon: ``ThreadingHTTPServer`` behind ``repro serve``.

Routes (all GET, all read-only):

* ``/query``     -- filter + aggregate cells (:mod:`repro.service.query`);
  JSON or CSV via ``format=`` / ``Accept``; ``ETag`` derived from the
  store fingerprint so ``If-None-Match`` returns 304 exactly while the
  settled cells are unchanged.
* ``/healthz``   -- liveness + store count.
* ``/metricz``   -- telemetry registry snapshot + summary-cache stats.

:class:`ResultsService` holds the HTTP-agnostic logic (``dispatch`` maps a
path + params + headers to a :class:`Response`), so tests exercise every
route without sockets; the handler class is a thin adapter.  ``serve``
runs the real server and drains gracefully on SIGTERM/SIGINT via
:class:`~repro.scenarios.coordination.GracefulShutdown`: stop accepting,
finish in-flight requests, end idle keep-alive connections, exit 0.

Connections are persistent (HTTP/1.1) and every response leaves without a
Nagle stall: the handler sets ``TCP_NODELAY``, so the body is not held back
until the client acknowledges the headers.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..scenarios.coordination import GracefulShutdown
from ..telemetry.hub import Telemetry
from .cache import DEFAULT_CACHE_BYTES, SummaryCache
from .index import StoreIndex
from .query import FORMATS, Query, QueryError, render, run_query

__all__ = ["ResultsService", "Response", "serve"]

_JSON = "application/json"
_CSV = "text/csv"


@dataclass
class Response:
    """One dispatched response, transport-independent."""

    status: int
    body: bytes = b""
    content_type: str = _JSON
    etag: Optional[str] = None
    cache_state: str = "none"  # hit | miss | not_modified | none
    endpoint: str = ""
    headers: Dict[str, str] = field(default_factory=dict)


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _error(status: int, message: str, endpoint: str) -> Response:
    return Response(
        status=status,
        body=_json_body({"error": message}),
        endpoint=endpoint,
    )


def _pick_format(params: Dict[str, str], accept: str) -> str:
    fmt = params.get("format", "")
    if fmt:
        if fmt not in FORMATS:
            raise QueryError(f"format must be one of {FORMATS}, got {fmt!r}")
        return fmt
    if "text/csv" in accept:
        return "csv"
    return "json"


class ResultsService:
    """Store index + query engine + summary cache behind one dispatcher."""

    def __init__(self, store_dir,
                 cache_max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.telemetry = Telemetry(metrics=True, profile=False)
        self.index = StoreIndex(store_dir, telemetry=self.telemetry)
        self.cache = SummaryCache(
            max_bytes=cache_max_bytes, telemetry=self.telemetry
        )
        self.started = time.time()

    # ------------------------------------------------------------- dispatch

    def dispatch(self, path: str, params: Dict[str, str],
                 headers: Dict[str, str]) -> Response:
        routes = {
            "/query": self._route_query,
            "/healthz": self._route_healthz,
            "/metricz": self._route_metricz,
        }
        handler = routes.get(path.rstrip("/") or path)
        if handler is None:
            return _error(404, f"no such route: {path}", "unknown")
        try:
            return handler(params, headers)
        except QueryError as exc:
            return _error(400, str(exc), path.strip("/"))

    # --------------------------------------------------------------- routes

    def _route_query(self, params: Dict[str, str],
                     headers: Dict[str, str]) -> Response:
        query = Query.from_params(params)
        fmt = _pick_format(params, headers.get("Accept", ""))
        if query.store:
            entry = self.index.get(query.store)
            if entry is None:
                return _error(404, f"no such store: {query.store}", "query")
            entries, seed = [entry], entry.etag_seed
        else:  # every store, under one ETag seed
            entries = self.index.entries()
            seed = hashlib.sha256(
                "\n".join(f"{e.name}:{e.etag_seed}" for e in entries)
                .encode("utf-8")
            ).hexdigest()
        etag = _make_etag(seed, query.query_hash(), fmt)
        if _etag_matches(headers.get("If-None-Match", ""), etag):
            return Response(status=304, etag=etag,
                            cache_state="not_modified", endpoint="query")
        key = (seed, query.query_hash(), fmt)
        body = self.cache.get(key)
        cache_state = "hit"
        if body is None:
            cache_state = "miss"
            if query.mode == "cells":
                # Per store, so each row names the store it came from.
                rows: List[Dict[str, object]] = []
                for entry in entries:
                    result = run_query(entry.records, query, store=entry.name)
                    rows.extend(result["cells"])
                body = render({"query": query.canonical(), "mode": query.mode,
                               "cells": rows, "count": len(rows)}, fmt)
            else:
                # Re-aggregate across stores so a multi-store summary is a
                # single grouping pass, not a summary of summaries.
                all_records = [r for e in entries for r in e.records]
                body = render(
                    run_query(all_records, query, store=query.store), fmt
                )
            self.cache.put(key, body)
        return Response(
            status=200, body=body,
            content_type=_CSV if fmt == "csv" else _JSON,
            etag=etag, cache_state=cache_state, endpoint="query",
        )

    def _route_healthz(self, params: Dict[str, str],
                       headers: Dict[str, str]) -> Response:
        payload = {
            "status": "ok",
            "stores": len(self.index.discover()),
            "uptime_seconds": max(0.0, time.time() - self.started),
        }
        return Response(status=200, body=_json_body(payload),
                        endpoint="healthz")

    def _route_metricz(self, params: Dict[str, str],
                       headers: Dict[str, str]) -> Response:
        payload = {
            "metrics": self.telemetry.registry.snapshot(),
            "cache": self.cache.stats(),
            "store_loads": self.index.store_loads,
            "uptime_seconds": max(0.0, time.time() - self.started),
        }
        return Response(status=200, body=_json_body(payload),
                        endpoint="metricz")


def _make_etag(seed: str, query_hash: str, fmt: str) -> str:
    digest = hashlib.sha256(
        f"{seed}/{query_hash}/{fmt}".encode("utf-8")
    ).hexdigest()[:32]
    return f'"{digest}"'


def _etag_matches(header: str, etag: str) -> bool:
    if not header:
        return False
    if header.strip() == "*":
        return True
    candidates = [c.strip() for c in header.split(",")]
    return etag in candidates or etag.strip('"') in candidates


# -------------------------------------------------------------------- HTTP

class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter over :meth:`ResultsService.dispatch`; the
    service is the server's (``self.server.service``, see _make_server)."""

    server_version = "repro-results/1"
    protocol_version = "HTTP/1.1"
    # Headers and body are two writes; with Nagle on, the body would wait
    # for the client's delayed ACK of the headers (~40 ms per request).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through telemetry, not stderr

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlsplit(self.path)
        params = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        headers = {
            "Accept": self.headers.get("Accept", ""),
            "If-None-Match": self.headers.get("If-None-Match", ""),
        }
        service: ResultsService = self.server.service
        try:
            response = service.dispatch(parsed.path, params, headers)
        except Exception as exc:  # pragma: no cover - defensive
            response = _error(500, f"internal error: {exc}", "error")
        # Count before writing: a client that pipelines a /metricz right
        # after this response must already see this request counted.
        service.telemetry.registry.counter(
            "service_requests_total", endpoint=response.endpoint,
            status=str(response.status),
        ).inc()
        self.send_response(response.status)
        if response.etag is not None:
            self.send_header("ETag", response.etag)
        self.send_header("Cache-Control", "no-cache")
        if response.status != 304:
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if response.status != 304 and response.body:
            self.wfile.write(response.body)


class _Server(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose drain ends idle keep-alive connections.

    ``server_close()`` joins every handler thread (``block_on_close``), and
    a handler waiting for the next request on a kept-alive connection would
    wait forever.  So the close first shuts the *read* side of every open
    connection: an idle handler reads end-of-file and exits, while one in
    the middle of a request has already read it and still writes its full
    response before it does the same."""

    daemon_threads = False
    block_on_close = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:  # the peer is already gone
                    pass
        super().server_close()


def _make_server(service: ResultsService, host: str,
                 port: int) -> ThreadingHTTPServer:
    server = _Server((host, port), _Handler)
    # On the instance, not on a per-server handler class: a class is a
    # reference cycle, and a closed server's parsed stores would stay
    # resident until the next full garbage collection.
    server.service = service
    return server


def serve(
    store_dir,
    host: str = "127.0.0.1",
    port: int = 8077,
    cache_max_bytes: int = DEFAULT_CACHE_BYTES,
    stream=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and return 0.

    Prints one ``# repro serve: listening ...`` line once the socket is
    bound (CI greps it) and a drain line on clean exit."""
    import sys

    out = stream if stream is not None else sys.stdout
    service = ResultsService(store_dir, cache_max_bytes=cache_max_bytes)
    server = _make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    stores = len(service.index.discover())
    print(
        f"# repro serve: listening on http://{bound_host}:{bound_port} "
        f"store-dir={service.index.root} stores={stores}",
        file=out, flush=True,
    )
    with GracefulShutdown() as shutdown:
        def _watch() -> None:
            while not shutdown.requested:
                time.sleep(0.1)
            server.shutdown()

        watcher = threading.Thread(target=_watch, daemon=True)
        watcher.start()
        try:
            server.serve_forever(poll_interval=0.2)
        finally:
            server.server_close()
    print(
        f"# repro serve: drained cleanly "
        f"(signal={shutdown.signum or 0}, "
        f"requests="
        f"{_requests_total(service)})",
        file=out, flush=True,
    )
    return 0


def _requests_total(service: ResultsService) -> int:
    counters = service.telemetry.registry.snapshot().get("counters", {})
    return int(sum(
        value for name, value in counters.items()
        if name.startswith("service_requests_total")
    ))
