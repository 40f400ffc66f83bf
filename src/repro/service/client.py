"""HTTP clients of the cache/enrichment service.

:class:`RemoteCacheStore` is the served counterpart of
:class:`~repro.polysemy.cache_store.DiskCacheStore`: it implements the
same :class:`~repro.polysemy.cache_store.CacheStore` protocol, but every
``get``/``put`` is an HTTP round trip to a long-lived
``repro serve`` process, so warm Step II vectors are shared across
*machines*, not just across processes on one host.

Design constraints (they shape everything below):

* **The pipeline must never block on the service.**  Every network
  failure — connection refused, timeout, a mid-response disconnect, a
  malformed payload — degrades to a clean cache miss (``get`` returns
  None, ``put`` is dropped) and bumps the ``remote_errors`` counter;
  nothing ever raises into the enrichment run.  A dead cache service
  costs recomputation, never correctness or uptime.
* **Connection reuse.**  One persistent ``http.client.HTTPConnection``
  per store (guarded by a lock), re-established transparently when the
  server closes it; a stale keep-alive connection gets one silent
  retry on a fresh connection before the operation counts as failed.
* **One vector route.**  Every lookup and store is a framed
  ``/vectors/batch`` request of at most :data:`DEFAULT_BATCH_SIZE` keys
  (see :mod:`repro.service.wire`): :meth:`RemoteCacheStore.get_many` /
  :meth:`~RemoteCacheStore.put_many` cost ``ceil(N / 256)`` round trips,
  so a warm pipeline run costs O(batches) round trips instead of
  O(terms), and ``get``/``put`` are batches of one.  Any answer but a
  200 counts as one failure, so a misrouted ``cache_url`` surfaces in
  ``remote_errors`` instead of masquerading as a cold cache.

:class:`ServiceClient` is the JSON-level companion for everything that
is not a vector: stats, cache layout (``repro cache-info``), and the
submit/poll/fetch lifecycle of server-side enrichment jobs.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time
from urllib.parse import urlsplit

import numpy as np

from repro.errors import ValidationError
from repro.polysemy.cache_store import CacheKey
from repro.service.wire import (
    decode_vector_batch,
    encode_key_batch,
    encode_vector_batch,
)
from repro.utils.validation import check_seconds

#: Default per-request network timeout (seconds).
DEFAULT_TIMEOUT = 5.0

#: Keys per ``/vectors/batch`` round trip.  Large enough that a warm
#: pipeline run is a handful of requests, small enough that one frame
#: stays well under the server's body cap even for wide vectors.
DEFAULT_BATCH_SIZE = 256

#: Exceptions that mean "the network/service failed", never the caller.
_NETWORK_ERRORS = (OSError, http.client.HTTPException)


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection with Nagle disabled.

    Cache traffic is many small request/response pairs on one
    keep-alive connection; leaving Nagle on lets it interact with
    delayed ACKs into ~40ms stalls per round trip — orders of
    magnitude over the actual localhost/LAN cost.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ServiceError(ValidationError):
    """A service request failed where the caller asked for strictness.

    Only raised by :class:`ServiceClient` (the operator-facing JSON
    client); :class:`RemoteCacheStore` never raises it.
    """


def _parse_base_url(base_url: str) -> tuple[str, int, str]:
    """``(host, port, path_prefix)`` of a service base URL."""
    parsed = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
    if parsed.scheme not in ("", "http"):
        raise ValidationError(
            f"cache service URL must be http://, got {base_url!r}"
        )
    if not parsed.hostname:
        raise ValidationError(f"cache service URL has no host: {base_url!r}")
    try:
        port = parsed.port  # urlsplit raises here on a bad/oob port
    except ValueError as exc:
        raise ValidationError(
            f"cache service URL has an invalid port: {base_url!r} ({exc})"
        ) from None
    return (
        parsed.hostname,
        port or 80,
        parsed.path.rstrip("/"),
    )


class _HttpChannel:
    """One lock-guarded, reused HTTP connection with stale-retry."""

    def __init__(self, base_url: str, timeout: float) -> None:
        self.base_url = base_url
        self.timeout = check_seconds(timeout, "timeout")
        self._host, self._port, self._prefix = _parse_base_url(base_url)
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._conn is not None:
            # Narrow on purpose: close() can only fail with a
            # socket-layer OSError (already-reset peer, EBADF); anything
            # else would be a programming error worth surfacing.
            with contextlib.suppress(OSError):
                self._conn.close()
            self._conn = None

    def request(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes] | None:
        """``(status, headers, body)`` of one request, None on failure.

        The response is fully read (keep-alive hygiene).  A failure on
        a *reused* connection gets one retry on a fresh connection —
        the server may simply have closed an idle socket.
        """
        with self._lock:
            for attempt in (0, 1):
                fresh = self._conn is None
                if fresh:
                    self._conn = _NoDelayHTTPConnection(
                        self._host, self._port, timeout=self.timeout
                    )
                try:
                    self._conn.request(
                        method,
                        self._prefix + path,
                        body=body,
                        headers=headers or {},
                    )
                    response = self._conn.getresponse()
                    payload = response.read()
                    return (
                        response.status,
                        {k.lower(): v for k, v in response.getheaders()},
                        payload,
                    )
                # Justification: the channel returns None and every caller
                # (RemoteCacheStore) counts that None as one remote_errors
                # increment; counting here too would double-count.
                except _NETWORK_ERRORS:  # repro-lint: disable=RL002
                    self._close_locked()
                    if fresh or attempt:
                        return None
            return None  # pragma: no cover - loop always returns


class RemoteCacheStore:
    """:class:`~repro.polysemy.cache_store.CacheStore` over HTTP.

    Parameters
    ----------
    base_url:
        Where ``repro serve`` listens, e.g. ``http://cache-host:8750``
        (a bare ``host:port`` is accepted).
    timeout:
        Per-request network timeout in seconds.  Keep it small: the
        worst case is paid per candidate on an unresponsive server,
        and a timeout is just a miss.

    Example
    -------
    >>> store = RemoteCacheStore("http://127.0.0.1:1")  # nothing there
    >>> store.get(("fp", "heart attack", "cfg")) is None  # clean miss
    True
    >>> store.stats()["remote_errors"]
    1
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self._channel = _HttpChannel(base_url, timeout)
        self._counter_lock = threading.Lock()
        self._remote_hits = 0
        self._remote_errors = 0

    @property
    def base_url(self) -> str:
        """The configured service URL."""
        return self._channel.base_url

    @property
    def timeout(self) -> float:
        """The per-request network timeout (seconds)."""
        return self._channel.timeout

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        self._channel.close()

    @property
    def error_count(self) -> int:
        """Local failed-operation count — no network round trip.

        Unlike :meth:`stats`, which also asks the server, this reads
        only the client-side counter; the load generator samples it
        around each operation to count degraded-to-miss failures.
        """
        with self._counter_lock:
            return self._remote_errors

    def _error(self) -> None:
        with self._counter_lock:
            self._remote_errors += 1

    # -- CacheStore protocol ----------------------------------------------

    def get(self, key: CacheKey) -> np.ndarray | None:
        return self.get_many([key]).get(key)

    def put(self, key: CacheKey, vector: np.ndarray) -> None:
        self.put_many([(key, vector)])

    def _send_frame(
        self, method: str, frame: bytes
    ) -> tuple[int, dict[str, str], bytes] | None:
        return self._channel.request(
            method,
            "/vectors/batch",
            body=frame,
            headers={"Content-Type": "application/octet-stream"},
        )

    def get_many(
        self, keys: list[CacheKey]
    ) -> dict[CacheKey, np.ndarray]:
        """Fetch many keys in O(batches) round trips; absent keys omitted.

        Every request that fails — network fault, an answer other than
        200, a malformed frame — counts **one** failure and degrades
        all of its keys to clean misses.
        """
        found: dict[CacheKey, np.ndarray] = {}
        hits = 0
        for start in range(0, len(keys), DEFAULT_BATCH_SIZE):
            result = self._send_frame(
                "POST",
                encode_key_batch(keys[start : start + DEFAULT_BATCH_SIZE]),
            )
            entries = (
                decode_vector_batch(result[2])
                if result is not None and result[0] == 200
                else None
            )
            if entries is None:
                self._error()
                continue
            for key, vector in entries:
                if vector is not None:
                    found[key] = vector
                    hits += 1
        if hits:
            with self._counter_lock:
                self._remote_hits += hits
        return found

    def put_many(
        self, entries: list[tuple[CacheKey, np.ndarray]]
    ) -> None:
        """Store many vectors in O(batches) round trips.

        A request that fails drops its writes silently and counts one
        failure.
        """
        for start in range(0, len(entries), DEFAULT_BATCH_SIZE):
            chunk = entries[start : start + DEFAULT_BATCH_SIZE]
            result = self._send_frame(
                "PUT",
                encode_vector_batch(
                    [(key, np.asarray(vector)) for key, vector in chunk]
                ),
            )
            if result is None or result[0] != 200:
                self._error()

    def __len__(self) -> int:
        stats = self._fetch_json("/stats")
        if stats is None:
            return 0
        try:
            return int(stats["entries"])
        except (KeyError, TypeError, ValueError):
            return 0

    def clear(self) -> None:
        result = self._channel.request("POST", "/cache/clear")
        if result is None or result[0] not in (200, 204):
            # The server's entries are still there: keep the local
            # counters (including the failure just recorded) honest.
            self._error()
            return
        with self._counter_lock:
            self._remote_hits = 0
            self._remote_errors = 0

    def counters(self) -> dict[str, int]:
        """Client-local counters (no request).

        ``remote_hits``/``remote_errors`` are this handle's traffic;
        ``disk_hits``/``evictions`` are server-side notions other
        clients share, so they are reported as 0 here to keep the
        report's per-run deltas client-local.
        """
        with self._counter_lock:
            return {
                "disk_hits": 0,
                "evictions": 0,
                "remote_hits": self._remote_hits,
                "remote_errors": self._remote_errors,
            }

    def stats(self) -> dict[str, int]:
        """:meth:`counters` plus the server's absolute store size
        (``store_bytes``; 0 when it is unreachable — stats polling
        never counts as a failure)."""
        remote = self._fetch_json("/stats") or {}
        return {
            **self.counters(),
            "store_bytes": int(remote.get("store_bytes", 0) or 0),
        }

    # -- shared JSON plumbing ---------------------------------------------

    def _fetch_json(self, path: str) -> dict | None:
        result = self._channel.request("GET", path)
        if result is None or result[0] != 200:
            return None
        try:
            payload = json.loads(result[2].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None


class ServiceClient:
    """JSON client for the service's operational surface.

    Unlike :class:`RemoteCacheStore` this client is *strict*: operators
    asking for stats or submitting a job want the error, not a silent
    miss, so failures raise :class:`ServiceError`.
    """

    def __init__(
        self, base_url: str, *, timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        self._channel = _HttpChannel(base_url, timeout)

    @property
    def base_url(self) -> str:
        """The configured service URL."""
        return self._channel.base_url

    def close(self) -> None:
        """Drop the persistent connection."""
        self._channel.close()

    def _json(
        self,
        method: str,
        path: str,
        *,
        payload: dict | None = None,
        expect: tuple[int, ...] = (200,),
        idempotency_key: str | None = None,
    ) -> dict:
        body = None
        headers = {}
        if idempotency_key is not None:
            headers["Idempotency-Key"] = idempotency_key
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        result = self._channel.request(
            method, path, body=body, headers=headers
        )
        if result is None:
            raise ServiceError(
                f"cache service unreachable at {self.base_url}"
            )
        status, _, data = result
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, ValueError):
            decoded = {}
        if status not in expect:
            detail = decoded.get("error") if isinstance(decoded, dict) else None
            raise ServiceError(
                f"{method} {path} failed with HTTP {status}"
                + (f": {detail}" if detail else "")
            )
        if not isinstance(decoded, dict):
            raise ServiceError(f"{method} {path} returned non-object JSON")
        return decoded

    # -- operational surface ----------------------------------------------

    def healthz(self) -> dict:
        """The service liveness document."""
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        """Server-side cache counters (entries, store_bytes, ...)."""
        return self._json("GET", "/stats")

    def stats_conditional(
        self, etag: str | None = None
    ) -> tuple[dict | None, str | None]:
        """Conditional stats poll: ``(document, etag)``.

        Pass the etag of the previous poll; an unchanged document
        answers ``304 Not Modified`` with an empty body and this
        returns ``(None, etag)`` — the poller keeps its cached copy
        without the server re-serialising (or the client re-parsing)
        anything.
        """
        headers = {"If-None-Match": etag} if etag else {}
        result = self._channel.request("GET", "/stats", headers=headers)
        if result is None:
            raise ServiceError(
                f"cache service unreachable at {self.base_url}"
            )
        status, response_headers, body = result
        new_etag = response_headers.get("etag")
        if status == 304:
            return None, new_etag or etag
        if status != 200:
            raise ServiceError(f"GET /stats failed with HTTP {status}")
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"GET /stats returned non-JSON: {exc}") from exc
        return document, new_etag

    def metrics(self) -> str:
        """The raw Prometheus text exposition of ``GET /metrics``."""
        result = self._channel.request("GET", "/metrics")
        if result is None:
            raise ServiceError(
                f"cache service unreachable at {self.base_url}"
            )
        status, _, body = result
        if status != 200:
            raise ServiceError(f"GET /metrics failed with HTTP {status}")
        return body.decode("utf-8", errors="replace")

    def cache_info(self) -> dict:
        """The store's generation/shard layout (``repro cache-info``)."""
        return self._json("GET", "/cache/info")

    def corpora(self) -> list[str]:
        """Names of the corpora registered for server-side enrichment."""
        return list(self._json("GET", "/corpora").get("corpora", []))

    def submit_job(
        self,
        corpus: str,
        *,
        config: dict | None = None,
        idempotency_key: str | None = None,
    ) -> str:
        """Submit an enrichment job; returns its job id.

        With ``idempotency_key`` set, resubmitting the same key (after
        a timeout, a crashed client, a retrying queue) returns the
        *original* job's id instead of enqueueing a duplicate run; the
        same key with a different corpus/config is a conflict and
        raises.  See :meth:`submit_job_detailed` to observe whether the
        submission was replayed.
        """
        job_id, _ = self.submit_job_detailed(
            corpus, config=config, idempotency_key=idempotency_key
        )
        return job_id

    def submit_job_detailed(
        self,
        corpus: str,
        *,
        config: dict | None = None,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool]:
        """``(job_id, replayed)`` of one (possibly deduplicated) submit."""
        response = self._json(
            "POST",
            "/jobs",
            payload={"corpus": corpus, "config": config or {}},
            expect=(200, 202),  # 202 = accepted, 200 = idempotent replay
            idempotency_key=idempotency_key,
        )
        return str(response["job"]), bool(response.get("replayed"))

    def job(self, job_id: str) -> dict:
        """The current status document of one job."""
        return self._json("GET", f"/jobs/{job_id}")

    def wait_for_job(
        self, job_id: str, *, timeout: float = 120.0, poll: float = 0.1
    ) -> dict:
        """Poll until the job leaves the queue; returns its final doc.

        Raises :class:`ServiceError` when ``timeout`` elapses first or
        the job failed server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            document = self.job(job_id)
            status = document.get("status")
            if status == "done":
                return document
            if status == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {document.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status!r} after {timeout}s"
                )
            time.sleep(poll)

    # -- ontology recommendation --------------------------------------------

    def recommend(
        self,
        *,
        text: str | None = None,
        corpus: str | None = None,
        ontologies: list[str] | None = None,
        acceptance_corpus: str | None = None,
        config: dict | None = None,
        mode: str | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """``POST /recommend``: rank the served ontologies.

        Exactly one of ``text`` / ``corpus`` (a registered scenario
        name) is required.  Small text is answered synchronously — the
        returned dict is the full
        :meth:`~repro.recommend.report.RecommendationReport.to_dict`
        document; corpus input and oversized text return a queued job
        document (``{"job": id, "replayed": bool}``) to poll with
        :meth:`wait_for_job` (the report arrives under its ``report``
        key).  ``mode`` forces the routing (``"sync"`` / ``"job"``).
        """
        payload: dict = {}
        if text is not None:
            payload["text"] = text
        if corpus is not None:
            payload["corpus"] = corpus
        if ontologies is not None:
            payload["ontologies"] = list(ontologies)
        if acceptance_corpus is not None:
            payload["acceptance_corpus"] = acceptance_corpus
        if config is not None:
            payload["config"] = config
        if mode is not None:
            payload["mode"] = mode
        return self._json(
            "POST",
            "/recommend",
            payload=payload,
            expect=(200, 202),  # 200 = sync report / replay, 202 = queued
            idempotency_key=idempotency_key,
        )

    # -- streaming deltas ---------------------------------------------------

    def post_documents(
        self,
        scenario: str,
        documents: list[dict],
        *,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool]:
        """Stream ``documents`` into ``scenario``: ``(job_id, replayed)``.

        ``documents`` use the corpus JSONL wire shape — dicts with a
        ``doc_id`` plus ``sentences`` (token lists) or ``text`` (raw,
        tokenised server-side).  The server queues a delta
        re-enrichment job; poll it with :meth:`wait_for_job` (its
        report is the :class:`~repro.workflow.streaming.ReportDiff`
        document) or read the scenario's history via :meth:`deltas`.
        """
        response = self._json(
            "POST",
            f"/scenarios/{scenario}/documents",
            payload={"documents": documents},
            expect=(200, 202),  # 202 = accepted, 200 = idempotent replay
            idempotency_key=idempotency_key,
        )
        return str(response["job"]), bool(response.get("replayed"))

    def deltas(self, scenario: str, *, since: int = 0) -> list[dict]:
        """The scenario's delta diff documents with ``seq > since``."""
        path = f"/scenarios/{scenario}/deltas"
        if since:
            path += f"?since={since}"
        response = self._json("GET", path)
        return list(response.get("deltas", []))
