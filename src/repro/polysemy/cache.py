"""Caching of per-term polysemy feature vectors.

Step II featurises hundreds of terms per training run, and ablations or
repeated ``enrich`` calls featurise the very same terms again.  The
vectors are pure functions of (corpus contents, term, feature
configuration), so :class:`FeatureCache` memoises them under the key

    ``(corpus fingerprint, term, config fingerprint)``

where the corpus fingerprint comes from
:meth:`repro.corpus.index.CorpusIndex.fingerprint` (a content hash, so
any corpus change invalidates every entry) and the config fingerprint
must encode everything that shapes the vector: the extractor settings
(:meth:`repro.polysemy.features.PolysemyFeatureExtractor.fingerprint`)
plus the caller's context-retrieval caps.  Callers that retrieve
contexts differently (different window or per-term cap) therefore never
share entries.

*Where* the vectors live is delegated to a pluggable
:class:`~repro.polysemy.cache_store.CacheStore` backend: the default
:class:`~repro.polysemy.cache_store.MemoryCacheStore` keeps the
historical in-process dict, while a
:class:`~repro.polysemy.cache_store.DiskCacheStore` persists entries on
disk so separate runs, CLI invocations, and the service share them
(see :mod:`repro.polysemy.cache_store`).

The cache is thread-safe and counts hits/misses so the workflow report
can expose cache effectiveness
(:attr:`repro.workflow.report.EnrichmentReport.cache`); backend-level
counters (``disk_hits``, ``evictions``, ``store_bytes``) are merged
into :attr:`stats`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.polysemy.cache_store import (
    CacheKey,
    CacheStore,
    MemoryCacheStore,
)

__all__ = ["CacheKey", "FeatureCache"]

#: Backend event counters, zero-filled where a backend has no such notion.
_EVENT_COUNTERS = ("disk_hits", "evictions", "remote_hits", "remote_errors")


class FeatureCache:
    """Memo of per-term feature vectors with hit/miss stats.

    Parameters
    ----------
    store:
        The :class:`~repro.polysemy.cache_store.CacheStore` backend
        holding the vectors (default: a fresh in-memory dict).

    Example
    -------
    >>> cache = FeatureCache()
    >>> key = FeatureCache.key("corpus-fp", "heart attack", "w=10")
    >>> cache.lookup(key) is None
    True
    >>> cache.store(key, np.zeros(3))
    >>> cache.lookup(key).shape
    (3,)
    >>> cache.stats["hits"], cache.stats["misses"]
    (1, 1)
    """

    def __init__(self, store: CacheStore | None = None) -> None:
        self._store: CacheStore = (
            store if store is not None else MemoryCacheStore()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def backing_store(self) -> CacheStore:
        """The backend holding the vectors."""
        return self._store

    @staticmethod
    def key(
        corpus_fingerprint: str, term: str, config_fingerprint: str
    ) -> CacheKey:
        """Assemble the canonical cache key."""
        return (corpus_fingerprint, term, config_fingerprint)

    def lookup(self, key: CacheKey, *, record: bool = True) -> np.ndarray | None:
        """The cached vector for ``key`` (counted as a hit or a miss).

        The returned array is shared storage — treat it as read-only.
        Pass ``record=False`` to peek without touching the counters —
        for callers that probe before knowing whether they will
        featurise at all (they call :meth:`record_lookup` later for the
        keys that mattered).
        """
        with self._lock:
            vector = self._store.get(key)
            if record:
                if vector is None:
                    self._misses += 1
                else:
                    self._hits += 1
            return vector

    def lookup_many(
        self, keys: list[CacheKey], *, record: bool = True
    ) -> dict[CacheKey, np.ndarray]:
        """Found vectors for ``keys`` (absent keys simply missing).

        The batched counterpart of :meth:`lookup`: a backend with a
        native bulk path (``get_many`` — the served
        :class:`~repro.service.client.RemoteCacheStore` coalesces it
        into O(batches) HTTP round trips instead of O(keys)) is called
        once; any other backend is probed per key under the one lock.
        Counting matches ``len(keys)`` sequential lookups exactly: one
        hit or miss per *requested occurrence* (duplicates included),
        and ``record=False`` defers counting just like :meth:`lookup`.
        """
        with self._lock:
            bulk = getattr(self._store, "get_many", None)
            if bulk is not None:
                found = dict(bulk(list(dict.fromkeys(keys))))
            else:
                found = {}
                for key in keys:
                    if key not in found:
                        vector = self._store.get(key)
                        if vector is not None:
                            found[key] = vector
            if record:
                for key in keys:
                    if key in found:
                        self._hits += 1
                    else:
                        self._misses += 1
            return found

    def record_lookup(self, found: bool) -> None:
        """Count one deferred lookup (see ``lookup(record=False)``)."""
        with self._lock:
            if found:
                self._hits += 1
            else:
                self._misses += 1

    def store(self, key: CacheKey, vector: np.ndarray) -> None:
        """Memoise ``vector`` under ``key`` (overwrites silently)."""
        with self._lock:
            self._store.put(key, vector)

    def store_many(
        self, entries: list[tuple[CacheKey, np.ndarray]]
    ) -> None:
        """Memoise every ``(key, vector)`` (batched :meth:`store`).

        Like :meth:`lookup_many`, a backend exposing ``put_many`` gets
        the whole list in one call (batched uploads on the served
        backend); otherwise entries are stored one by one in order, so
        duplicate keys resolve exactly as sequential stores would
        (last one wins).
        """
        with self._lock:
            bulk = getattr(self._store, "put_many", None)
            if bulk is not None:
                bulk(list(entries))
            else:
                for key, vector in entries:
                    self._store.put(key, vector)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> dict[str, int]:
        """Counters since creation.

        ``hits``/``misses`` count lookups through this cache,
        ``entries`` the backend's current size, and the backend's own
        counters (``disk_hits``/``evictions``/``store_bytes``, plus
        ``remote_hits``/``remote_errors`` for the served backend) are
        merged in; the keys are uniform across backends, zero-filled
        where a backend has no such notion.
        """
        with self._lock:
            stats = {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._store),
                **self._store.stats(),
            }
            for key in (*_EVENT_COUNTERS, "store_bytes"):
                stats.setdefault(key, 0)
            return stats

    def counters(self) -> dict[str, int]:
        """:attr:`stats` without the sizes, for diffing around a run.

        ``entries`` and ``store_bytes`` are left out: neither is diffed,
        and measuring them means scanning a disk store or asking a
        served one, while these counters live in memory.
        """
        with self._lock:
            counters = {
                "hits": self._hits,
                "misses": self._misses,
                **self._store.counters(),
            }
            for key in _EVENT_COUNTERS:
                counters.setdefault(key, 0)
            return counters

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
