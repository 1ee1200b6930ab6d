"""Campaign results service: a long-lived query daemon over JSONL stores.

PR 9 made campaign stores multi-writer-safe and mergeable; this package
adds the promised serving tier on top, so repeated queries hit memoized
summaries instead of re-parsing stores (or worse, re-running simulations).
Everything is stdlib-only -- ``http.server`` + ``http.client`` -- and strictly
read-only over the stores it serves:

* :class:`~repro.service.index.StoreIndex` -- discovers stores under a
  root directory, keys each by its canonical
  :func:`~repro.scenarios.coordination.store_fingerprint`, and revalidates
  with one ``stat`` per file (the store's own logs answer "changed?"), so
  appends by concurrent ``--shared`` writers become visible without a
  restart.
* :mod:`~repro.service.query` -- filter cells by scenario / scheme /
  metric / fidelity / spec-token, aggregate into mean/percentile
  summaries, render JSON or CSV deterministically.
* :class:`~repro.service.cache.SummaryCache` -- an LRU of rendered
  response bodies keyed by ``(store fingerprint, query hash, format)``
  with a byte-size cap and TTL, so warm queries never touch disk.
* :mod:`~repro.service.daemon` -- the ``ThreadingHTTPServer`` behind
  ``repro serve``: ``/query``, ``/stores``, ``/resources``, ``/goldens``,
  ``/healthz``, ``/metricz``; fingerprint-derived ``ETag`` with
  ``If-None-Match`` -> 304; graceful SIGTERM drain.
* :class:`~repro.service.client.ServiceClient` -- the stdlib HTTP client
  behind ``repro query``.
"""

from .cache import SummaryCache
from .client import QueryResponse, ServiceClient, ServiceUnavailable
from .daemon import ResultsService, Response, serve
from .index import StoreEntry, StoreIndex
from .query import Query, QueryError, render, run_query, scheme_of

__all__ = [
    "Query",
    "QueryError",
    "QueryResponse",
    "ResultsService",
    "Response",
    "ServiceClient",
    "ServiceUnavailable",
    "StoreEntry",
    "StoreIndex",
    "SummaryCache",
    "render",
    "run_query",
    "scheme_of",
    "serve",
]
