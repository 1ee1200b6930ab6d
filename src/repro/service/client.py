"""Stdlib HTTP client for the results daemon (backs ``repro query``).

``http.client`` only -- no new dependencies.  Each thread keeps one
persistent HTTP/1.1 connection to the daemon, so a closed-loop caller pays
the TCP handshake and the daemon's handler-thread start once, not per
request.  A connection failure raises :class:`ServiceUnavailable`, which
the CLI catches to fall back to an in-process read of the store directory;
HTTP-level errors (400/404) surface as normal responses so callers see the
daemon's error payload.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import urlencode, urlsplit

__all__ = ["QueryResponse", "ServiceClient", "ServiceUnavailable"]


class ServiceUnavailable(RuntimeError):
    """The daemon could not be reached at all (connection refused, DNS,
    timeout) -- distinct from an HTTP error response."""


@dataclass
class QueryResponse:
    """One HTTP exchange with the daemon."""

    status: int
    body: bytes = b""
    etag: str = ""
    content_type: str = ""
    headers: Dict[str, str] = field(default_factory=dict)

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


class _Held:
    """One thread's connection, closed when the thread's slot goes (the
    thread ended, or the client was dropped) rather than left open until
    the garbage collector finds its socket."""

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection

    def __del__(self) -> None:
        self.connection.close()


class ServiceClient:
    """Minimal GET client bound to one daemon base URL.

    Thread-safe: every thread gets its own kept-alive connection, closed
    when the thread ends or the client is dropped.  A request on a
    *reused* connection that the daemon has meanwhile closed (it
    restarted, or drained its idle connections) is sent once more on a new
    connection; a new connection that fails is reported at once."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = _Held(self._connection_class(
                self._netloc, timeout=self.timeout))
        return held.connection

    def get(
        self,
        path: str,
        params: Optional[Dict[str, str]] = None,
        accept: str = "application/json",
        etag: str = "",
    ) -> QueryResponse:
        """GET ``path`` (optionally with ``If-None-Match: etag``); returns
        the response whether 2xx, 304 or an HTTP error."""
        target = self._prefix + path
        query = {k: v for k, v in (params or {}).items() if v}
        if query:
            target += "?" + urlencode(query)
        headers = {"Accept": accept}
        if etag:
            headers["If-None-Match"] = etag
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                return self._exchange(connection, target, headers)
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                connection.close()  # stale: the daemon closed it
                return self._exchange(connection, target, headers)
        except (OSError, http.client.HTTPException) as err:
            connection.close()
            raise ServiceUnavailable(
                f"cannot reach results service at {self.base_url}: {err}"
            ) from err

    @staticmethod
    def _exchange(connection: http.client.HTTPConnection, target: str,
                  headers: Dict[str, str]) -> QueryResponse:
        connection.request("GET", target, headers=headers)
        raw = connection.getresponse()
        body = raw.read()
        found = dict(raw.headers)
        return QueryResponse(
            status=raw.status,
            body=body,
            etag=found.get("ETag", ""),
            content_type=found.get("Content-Type", ""),
            headers=found,
        )

    # -------------------------------------------------------- typed helpers

    def healthz(self) -> dict:
        return self.get("/healthz").json()

    def metricz(self) -> dict:
        return self.get("/metricz").json()

    def query(
        self,
        params: Optional[Dict[str, str]] = None,
        accept: str = "application/json",
        etag: str = "",
    ) -> QueryResponse:
        return self.get("/query", params=params, accept=accept, etag=etag)
