"""Caching of per-term polysemy feature vectors.

Step II featurises hundreds of terms per training run, and ablations,
repeated ``enrich`` calls and streaming deltas featurise the very same
terms again.  A vector is a pure function of what
:meth:`~repro.polysemy.features.PolysemyFeatureExtractor.featurise`
reads for its term, so :class:`FeatureCache` memoises it under the key

    ``(context digest, term, spec digest)``

where the context digest (:func:`context_digest`) hashes the term's
capped context windows and its document frequency, and the spec digest
(:attr:`~repro.polysemy.features.PolysemyFeatureExtractor.spec_digest`)
hashes the extractor's fields.  Nothing corpus-wide enters the key: a
corpus that grows keeps every key of a term whose windows did not
change, and a term whose windows did change gets a new key.  Training
(:func:`~repro.polysemy.dataset.build_polysemy_dataset`) and detection
(``DetectStage``) build their keys the same way, so identical windows
and document frequency give one entry whichever path stored it.

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

import hashlib
import struct
import threading
from collections.abc import Sequence

import numpy as np

from repro.polysemy.cache_store import (
    CacheKey,
    CacheStore,
    MemoryCacheStore,
)

__all__ = ["CacheKey", "FeatureCache", "context_digest"]

#: Backend event counters, zero-filled where a backend has no such notion.
_EVENT_COUNTERS = ("disk_hits", "evictions", "remote_hits", "remote_errors")


def context_digest(
    contexts: Sequence[Sequence[str]], doc_frequency: int | None
) -> str:
    """Digest of one term's featuriser input besides the term itself.

    Hashes the context windows, in order, and the document frequency
    (``None`` is kept apart from every count).  The encoding is framed,
    so it is injective: a header of fixed-width integers (the window
    count, the document frequency, each window's token count and each
    token's length) precedes the tokens' concatenated text.  Moving a
    token or window boundary changes the header, where a separator join
    would let a token that contains the separator collide.
    """
    tokens = [token for window in contexts for token in window]
    header = [
        len(contexts),
        -1 if doc_frequency is None else doc_frequency,
        *map(len, contexts),
        *map(len, tokens),
    ]
    digest = hashlib.blake2b(
        struct.pack(f"<{len(header)}q", *header), digest_size=20
    )
    digest.update("".join(tokens).encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


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
    >>> digest = context_digest([("acute", "pain")], 1)
    >>> key = FeatureCache.key(digest, "heart attack", "spec")
    >>> cache.lookup_many([key])
    {}
    >>> cache.store_many([(key, np.zeros(3))])
    >>> cache.lookup_many([key])[key].shape
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
    def key(context_digest: str, term: str, spec_digest: str) -> CacheKey:
        """Assemble the canonical cache key (see the module docs)."""
        return (context_digest, term, spec_digest)

    def lookup_many(self, keys: list[CacheKey]) -> dict[CacheKey, np.ndarray]:
        """Found vectors for ``keys`` (absent keys simply missing).

        The returned arrays are shared storage — treat them as
        read-only.  A backend with a native bulk path (``get_many`` —
        the served :class:`~repro.service.client.RemoteCacheStore`
        coalesces it into O(batches) HTTP round trips instead of
        O(keys)) is called once; any other backend is probed per key
        under the one lock.
        Every *requested occurrence* counts one hit or one miss
        (duplicates included).
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
            for key in keys:
                if key in found:
                    self._hits += 1
                else:
                    self._misses += 1
            return found

    def store_many(
        self, entries: list[tuple[CacheKey, np.ndarray]]
    ) -> None:
        """Memoise every ``(key, vector)`` (an existing key is overwritten).

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

        ``hits``/``misses`` count lookups through this cache, and the
        backend's :meth:`~repro.polysemy.cache_store.CacheStore.stats`
        (its sizes ``entries``/``store_bytes``, read in one call, and
        its counters ``disk_hits``/``evictions``, plus
        ``remote_hits``/``remote_errors`` for the served backend) are
        merged in; the keys are uniform across backends, zero-filled
        where a backend has no such notion.
        """
        with self._lock:
            stats = {
                "hits": self._hits,
                "misses": self._misses,
                **self._store.stats(),
            }
            for key in (*_EVENT_COUNTERS, "entries", "store_bytes"):
                stats.setdefault(key, 0)
            return stats

    def counters(self) -> dict[str, int]:
        """:attr:`stats` without the sizes, for diffing around a run.

        ``entries`` and ``store_bytes`` are left out: neither is diffed,
        and measuring them can mean scanning a disk store or asking a
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
