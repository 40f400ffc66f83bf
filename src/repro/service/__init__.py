"""``repro.service`` — the served deployment of the enrichment system.

One long-lived ``repro serve`` process owns a
:class:`~repro.polysemy.cache_store.DiskCacheStore` and exposes it (plus
submit/poll/fetch enrichment jobs) over plain stdlib HTTP; any number
of pipeline runs on any machine share its warm Step II vectors through
:class:`RemoteCacheStore` (``EnrichmentConfig(cache_url=...)`` / CLI
``--cache-url``).

Public surface:

* :class:`RemoteCacheStore` — the ``CacheStore`` protocol over HTTP
  (every network failure degrades to a clean cache miss), whose
  every lookup and store is a ``/vectors/batch`` frame;
* :class:`ServiceClient` — strict JSON client (stats, cache layout,
  job lifecycle, conditional stats, ``/metrics`` scrape);
* :class:`CacheServiceServer` / :func:`serve` — the server;
* :class:`JobManager` — server-side enrichment job execution
  (idempotent submission via ``Idempotency-Key``);
* :class:`ServiceMetrics` / :class:`MetricsRegistry` — the zero-dep
  Prometheus-style instruments behind ``GET /metrics``;
* :func:`run_load` / :class:`LoadReport` — the many-client load
  generator (``repro loadbench``);
* the wire-format helpers of :mod:`repro.service.wire`: the key
  codec and the ``RBK1``/``RBV1`` frame codec.

Exports resolve lazily (PEP 562): the *client* side imports no
workflow code, so ``repro.workflow.pipeline`` can depend on
:class:`RemoteCacheStore` while the *server* side depends on the
pipeline — without an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "RemoteCacheStore": "repro.service.client",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "DEFAULT_TIMEOUT": "repro.service.client",
    "CacheService": "repro.service.server",
    "CacheServiceServer": "repro.service.server",
    "serve": "repro.service.server",
    "Job": "repro.service.jobs",
    "JobManager": "repro.service.jobs",
    "IdempotencyConflictError": "repro.service.jobs",
    "DirectoryWatcher": "repro.service.watcher",
    "Counter": "repro.service.metrics",
    "Gauge": "repro.service.metrics",
    "Histogram": "repro.service.metrics",
    "MetricsRegistry": "repro.service.metrics",
    "ServiceMetrics": "repro.service.metrics",
    "LoadReport": "repro.service.loadgen",
    "run_load": "repro.service.loadgen",
    "encode_key": "repro.service.wire",
    "decode_key": "repro.service.wire",
    "encode_key_batch": "repro.service.wire",
    "decode_key_batch": "repro.service.wire",
    "encode_vector_batch": "repro.service.wire",
    "decode_vector_batch": "repro.service.wire",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
