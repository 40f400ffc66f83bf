"""The stdlib HTTP service: shared feature cache + enrichment jobs.

``repro serve`` turns the single-host
:class:`~repro.polysemy.cache_store.DiskCacheStore` into an Aber-OWL
style *served* deployment: one long-lived process owns the store, and
any number of pipeline runs — on any machine — point
``EnrichmentConfig(cache_url=...)`` at it to share warm Step II
vectors.  The server is pure standard library
(:class:`http.server.ThreadingHTTPServer`), so serving adds **zero**
runtime dependencies.

Routes
------
===========================  ==========================================
``GET  /healthz``            liveness document
``GET  /stats``              store counters (``ETag``/304 aware)
``GET  /metrics``            Prometheus text exposition
``GET  /cache/info``         generation/shard layout (``repro cache-info``)
``POST /vectors/batch``      lookup (key frame in, vector frame out)
``PUT  /vectors/batch``      store (vector frame in)
``POST /cache/clear``        drop every entry
``GET  /corpora``            corpus names registered for jobs
``POST /jobs``               submit a job (202 + id; ``Idempotency-Key``
                             replays return 200 + the original id)
``GET  /jobs``               every job's status document
``GET  /jobs/<id>``          one job's status/result document
``POST /scenarios/<name>/documents``  stream documents in: queues a
                             delta re-enrichment job (same 202/200 +
                             ``Idempotency-Key`` contract as ``/jobs``)
``GET  /scenarios/<name>/deltas``     the scenario's diff history
                             (``?since=<seq>`` for incremental polls)
``POST /recommend``          rank registered ontologies against text
                             or a registered corpus: small text answers
                             200 with the report synchronously; corpus
                             input and oversized text queue a job (202,
                             ``Idempotency-Key`` honoured)
===========================  ==========================================

Vectors travel only on ``/vectors/batch``, in the ``RBK1``/``RBV1``
frames of :mod:`repro.service.wire`; everything else is JSON.
Concurrency: the threading server handles each connection on its own
thread, and :class:`DiskCacheStore` serialises writers internally
(thread lock + cross-process flock), so N concurrent clients behave
exactly like N concurrent pipeline processes on one cache directory — a
layout the store's concurrency suite already hammers.

Observability: every request lands in the
:class:`~repro.service.metrics.ServiceMetrics` instruments behind
``GET /metrics`` (latency histograms per route, cache op counters, an
in-flight gauge) and, when configured, one structured JSON line per
request in the access log.  ``/stats`` and ``/metrics`` polls do *not*
bump the traffic counters — monitoring must not perturb the document it
monitors (it is also what lets ``/stats`` serve a stable ``ETag``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ValidationError
from repro.polysemy.cache_store import DiskCacheStore
from repro.recommend.registry import OntologyRegistry
from repro.service.jobs import (
    IdempotencyConflictError,
    JobManager,
)
from repro.service.metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    ServiceMetrics,
)
from repro.service.wire import (
    decode_key_batch,
    decode_vector_batch,
    encode_vector_batch,
)

#: Largest accepted PUT body (a feature vector is ~a few hundred bytes;
#: this bound just keeps a confused client from streaming gigabytes —
#: even a full 4096-entry batch frame stays far below it).
MAX_VECTOR_BYTES = 64 << 20

#: ``POST /recommend`` text at most this large runs synchronously in
#: the handler thread (annotation over a trie is fast); anything bigger
#: — and every corpus input — goes through the job queue so a slow
#: recommendation cannot stall its keep-alive connection.
SYNC_MAX_TEXT_BYTES = 64 << 10

#: Routes worth an individual metrics label; anything else aggregates
#: under ``other`` so hostile/typo'd paths cannot mint unbounded label
#: sets, and job polls share one ``/jobs/{id}`` series.
_METRIC_ROUTES = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/cache/info",
        "/cache/clear",
        "/vectors/batch",
        "/corpora",
        "/jobs",
        "/recommend",
    }
)


def _metric_route(route: str) -> str:
    if route in _METRIC_ROUTES:
        return route
    if route.startswith("/jobs/"):
        return "/jobs/{id}"
    if route.startswith("/scenarios/"):
        # Scenario names are operator-registered (bounded), but keep the
        # label set independent of them anyway; only the two known
        # endpoints get a series.
        if route.endswith("/documents"):
            return "/scenarios/{name}/documents"
        if route.endswith("/deltas"):
            return "/scenarios/{name}/deltas"
    return "other"


class CacheService:
    """The served state: one store, one job manager, request counters.

    ``metrics`` (a :class:`ServiceMetrics`, created when not given) is
    shared with the job manager so job submissions/durations land next
    to the HTTP instruments.  ``access_log`` is an optional callable
    receiving one dict per finished request (the structured JSON access
    log; :func:`serve` wires it to a file or stderr).
    """

    def __init__(
        self,
        store: DiskCacheStore,
        *,
        corpora: dict[str, tuple[str | Path, str | Path]] | None = None,
        job_workers: int = 1,
        index_dir: str | Path | None = None,
        metrics: ServiceMetrics | None = None,
        access_log=None,
        ontologies: dict[str, str | Path] | None = None,
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._access_log = access_log
        # Built before the first request and read-only afterwards, so
        # /recommend handlers share it without locking.
        self.registry = OntologyRegistry()
        for name, path in sorted((ontologies or {}).items()):
            self.registry.register_path(name, path)
        self.jobs = JobManager(
            corpora, store=store, job_workers=job_workers,
            index_dir=index_dir, metrics=self.metrics,
            registry=self.registry,
        )
        self._lock = threading.Lock()
        self._requests = 0
        self._vector_gets = 0
        self._vector_puts = 0
        self._vector_hits = 0
        #: Bumped by every counted request; keys the serialized-/stats-
        #: body cache below, so an unchanged document is served (and
        #: 304'd) without re-walking the store or re-serializing.
        self._stats_version = 0
        self._stats_cache: tuple[int, bytes, str] | None = None

    def count_request(self, *, get=0, put=0, hit=0) -> None:
        """Bump the traffic counters: one request, N vector ops.

        The vector routes pass per-key totals, so ``requests`` counts
        *round trips* (what a warm run's bound in the served-workflow
        tests measures) and ``vector_*`` count keys.
        """
        with self._lock:
            self._requests += 1
            self._vector_gets += get
            self._vector_puts += put
            self._vector_hits += hit
            self._stats_version += 1

    def stats(self) -> dict:
        """The ``GET /stats`` document: store + traffic counters."""
        with self._lock:
            traffic = {
                "requests": self._requests,
                "vector_gets": self._vector_gets,
                "vector_puts": self._vector_puts,
                "vector_hits": self._vector_hits,
            }
        return {
            "entries": len(self.store),
            **self.store.stats(),
            **traffic,
        }

    def stats_payload(self) -> tuple[bytes, str]:
        """``(serialized /stats body, ETag)``, cached per version.

        Stats polls themselves are uncounted, so back-to-back polls see
        the same version and are served from the cache — the ETag holds
        still and a conditional GET gets its 304.  (Store mutations all
        arrive through counted requests — vector traffic directly, job
        side effects via their counted submit/poll cycle — so a stale
        window closes at the next counted request.)
        """
        with self._lock:
            version = self._stats_version
            cached = self._stats_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        body = json.dumps(self.stats(), sort_keys=True).encode("utf-8")
        etag = '"' + hashlib.sha1(body).hexdigest() + '"'
        with self._lock:
            if self._stats_version == version:
                self._stats_cache = (version, body, etag)
        return body, etag

    def log_access(self, record: dict) -> None:
        """Hand one finished request's record to the access log."""
        if self._access_log is not None:
            self._access_log(record)

    def shutdown(self) -> None:
        """Stop the job pool (running jobs are abandoned)."""
        self.jobs.shutdown(wait=False)


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that hands the service to its handlers.

    Open keep-alive connections are tracked so a graceful shutdown can
    actually sever them — without this, an idle client connection would
    keep being served by its handler thread after ``shutdown()``, and a
    "stopped" in-process server would behave nothing like a killed one.
    """

    daemon_threads = True

    def __init__(self, address, service: CacheService) -> None:
        self.service = service
        self._open_connections: set[socket.socket] = set()
        self._connections_guard = threading.Lock()
        super().__init__(address, _ServiceHandler)

    def track_connection(self, connection: socket.socket) -> None:
        with self._connections_guard:
            self._open_connections.add(connection)

    def untrack_connection(self, connection: socket.socket) -> None:
        with self._connections_guard:
            self._open_connections.discard(connection)

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return  # clients vanish mid-request; that is not our error
        super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Sever every live client connection (used at shutdown)."""
        with self._connections_guard:
            connections = list(self._open_connections)
            self._open_connections.clear()
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)  # may close on its own
            with contextlib.suppress(OSError):
                connection.close()


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    #: Keep-alive so RemoteCacheStore's connection reuse actually reuses.
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on accepted sockets: cache traffic is many small
    #: request/response pairs, and Nagle + delayed-ACK would add ~40ms
    #: to every round trip.
    disable_nagle_algorithm = True

    @property
    def service(self) -> CacheService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the operator's proxy's job, not ours

    def setup(self) -> None:
        super().setup()
        self.server.track_connection(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.untrack_connection(self.connection)

    # -- response helpers ---------------------------------------------------

    def _send(
        self, status: int, body: bytes, *, headers: dict[str, str]
    ) -> None:
        self._sent_status = status
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(
            status, body, headers={"Content-Type": "application/json"}
        )

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes | None:
        """The request body, or None when the declared length is bad.

        A body we refuse to read leaves unread bytes on the keep-alive
        stream — the next "request line" would be vector bytes — so the
        None path also marks the connection for closure.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_VECTOR_BYTES:
            self.close_connection = True
            return None
        return self.rfile.read(length) if length else b""

    def _drain_body(self) -> None:
        """Consume a request body we are about to error out on.

        Error responses that skip ``rfile.read`` would desynchronise
        the HTTP/1.1 keep-alive stream (the unread body bytes become
        the "next request"); draining keeps the connection usable.
        """
        self._read_body()

    def _read_json_object(
        self, shape_error: str, required: str | None = None
    ) -> dict | None:
        """The body as a JSON object holding ``required``, or None.

        None means a 400 went out already: a bad length, a body that is
        not JSON, or one that is not an object with ``required``
        (answered with ``shape_error``).
        """
        body = self._read_body()
        if body is None:
            self._send_error_json(400, "bad Content-Length")
            return None
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            self._send_error_json(400, "request body must be JSON")
            return None
        if not isinstance(payload, dict) or (
            required is not None and required not in payload
        ):
            self._send_error_json(400, shape_error)
            return None
        return payload

    def _answer_submission(self, submit) -> None:
        """Call ``submit`` (a bound :class:`JobManager` submit method)
        with the ``Idempotency-Key`` header and answer the client.

        A new job is a 202.  A replay is a 200: nothing new was
        accepted, the client is handed the job its earlier submit
        created.  A key reused on another request is a 409, and a
        request the manager rejects a 400.
        """
        try:
            job_id, replayed = submit(
                idempotency_key=self.headers.get("Idempotency-Key")
            )
        except IdempotencyConflictError as exc:
            self._send_error_json(409, str(exc))
            return
        except ValidationError as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(
            200 if replayed else 202, {"job": job_id, "replayed": replayed}
        )

    # -- routing ------------------------------------------------------------

    def _instrumented(self, method: str, handler) -> None:
        """Run one route handler inside the observability envelope.

        Whatever the handler does (including raising — the client may
        have vanished mid-response), the request lands in the latency
        histogram, the per-route/status counter, the in-flight gauge,
        and the access log.
        """
        metrics = self.service.metrics
        self._sent_status = 0
        metrics.inflight.inc()
        started = perf_counter()
        try:
            handler()
        finally:
            seconds = perf_counter() - started
            metrics.inflight.dec()
            route = _metric_route(
                urlsplit(self.path).path.rstrip("/") or "/"
            )
            # A handler that died before responding wrote no status
            # line; record it as the 500 the client effectively saw.
            status = self._sent_status or 500
            metrics.observe_request(
                method=method, route=route, status=status, seconds=seconds
            )
            self.service.log_access(
                {
                    "ts": round(time.time(), 6),
                    "client": self.client_address[0],
                    "method": method,
                    "path": self.path,
                    "route": route,
                    "status": status,
                    "duration_seconds": round(seconds, 6),
                }
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        self._instrumented("GET", self._route_get)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib dispatch name
        self._instrumented("PUT", self._route_put)

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        self._instrumented("POST", self._route_post)

    def _route_get(self) -> None:
        parsed = urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/healthz":
            self.service.count_request()
            self._send_json(
                200, {"status": "ok", "service": self.server_version}
            )
        elif route == "/stats":
            # Deliberately uncounted (see stats_payload): polling stats
            # must not change the stats.
            self._get_stats()
        elif route == "/metrics":
            self._send(
                200,
                self.service.metrics.render().encode("utf-8"),
                headers={"Content-Type": METRICS_CONTENT_TYPE},
            )
        elif route == "/cache/info":
            self.service.count_request()
            self._send_json(200, self.service.store.describe())
        elif route == "/corpora":
            self.service.count_request()
            self._send_json(200, {"corpora": self.service.jobs.corpora()})
        elif route == "/jobs":
            self.service.count_request()
            self._send_json(200, {"jobs": self.service.jobs.jobs()})
        elif route.startswith("/jobs/"):
            self.service.count_request()
            document = self.service.jobs.job(route[len("/jobs/"):])
            if document is None:
                self._send_error_json(404, "unknown job id")
            else:
                self._send_json(200, document)
        elif route.startswith("/scenarios/") and route.endswith("/deltas"):
            self._get_deltas(route, parsed.query)
        else:
            self._send_error_json(404, f"unknown route {route!r}")

    def _route_put(self) -> None:
        route = urlsplit(self.path).path.rstrip("/")
        if route == "/vectors/batch":
            self._put_vector_batch()
        else:
            self._drain_body()
            self._send_error_json(404, f"unknown route {route!r}")

    def _route_post(self) -> None:
        route = urlsplit(self.path).path.rstrip("/")
        if route == "/cache/clear":
            self._drain_body()
            self.service.count_request()
            self.service.store.clear()
            self._send(204, b"", headers={})
        elif route == "/vectors/batch":
            self._get_vector_batch()
        elif route == "/jobs":
            self._submit_job()
        elif route == "/recommend":
            self._post_recommend()
        elif route.startswith("/scenarios/") and route.endswith("/documents"):
            self._post_documents(route)
        else:
            self._drain_body()
            self._send_error_json(404, f"unknown route {route!r}")

    # -- stats endpoint -------------------------------------------------------

    def _get_stats(self) -> None:
        body, etag = self.service.stats_payload()
        if_none_match = self.headers.get("If-None-Match")
        if if_none_match is not None and etag in (
            tag.strip() for tag in if_none_match.split(",")
        ):
            self._send(304, b"", headers={"ETag": etag})
            return
        self._send(
            200,
            body,
            headers={"Content-Type": "application/json", "ETag": etag},
        )

    # -- vector endpoints -----------------------------------------------------

    def _get_vector_batch(self) -> None:
        """``POST /vectors/batch``: key frame in, vector frame out.

        Every requested key gets exactly one response entry, in request
        order; a miss travels in-band as a present-flag-0 entry.
        Duplicate keys in one frame are answered from a per-request
        memo, so the store is probed once per distinct key.
        """
        metrics = self.service.metrics
        body = self._read_body()
        if body is None:
            self.service.count_request()
            self._send_error_json(400, "bad Content-Length")
            return
        keys = decode_key_batch(body)
        if keys is None:
            self.service.count_request()
            metrics.count_cache_op("batch_get", "error")
            self._send_error_json(400, "malformed key batch frame")
            return
        memo: dict = {}
        entries = []
        hits = 0
        for key in keys:
            if key not in memo:
                memo[key] = self.service.store.get(key)
            vector = memo[key]
            hits += int(vector is not None)
            entries.append((key, vector))
        self.service.count_request(get=len(keys), hit=hits)
        metrics.count_cache_op("batch_get", "hit", hits)
        metrics.count_cache_op("batch_get", "miss", len(keys) - hits)
        metrics.batch_vectors.inc(len(keys), op="get")
        self._send(
            200,
            encode_vector_batch(entries),
            headers={"Content-Type": "application/octet-stream"},
        )

    def _put_vector_batch(self) -> None:
        """``PUT /vectors/batch``: vector frame in, ``{"stored": n}`` out.

        Present entries are stored in frame order (duplicates: last one
        wins, as sequential stores would); miss-flagged entries are
        skipped.  A malformed frame stores *nothing* — the decoder is
        all-or-nothing, so a torn upload can never half-apply.
        """
        metrics = self.service.metrics
        body = self._read_body()
        if body is None:
            self.service.count_request()
            self._send_error_json(400, "bad Content-Length")
            return
        entries = decode_vector_batch(body)
        if entries is None:
            self.service.count_request()
            metrics.count_cache_op("batch_put", "error")
            self._send_error_json(400, "malformed vector batch frame")
            return
        stored = 0
        for key, vector in entries:
            if vector is None:
                continue
            self.service.store.put(key, vector)
            stored += 1
        self.service.count_request(put=stored)
        metrics.count_cache_op("batch_put", "stored", stored)
        metrics.batch_vectors.inc(stored, op="put")
        self._send_json(200, {"stored": stored})

    # -- streaming endpoints --------------------------------------------------

    def _get_deltas(self, route: str, query: str) -> None:
        """``GET /scenarios/<name>/deltas``: the scenario's diff history."""
        self.service.count_request()
        name = route[len("/scenarios/"):-len("/deltas")]
        params = dict(parse_qsl(query))
        try:
            since = int(params.get("since", 0))
        except ValueError:
            self._send_error_json(400, '"since" must be an integer')
            return
        deltas = self.service.jobs.deltas(name, since=since)
        if deltas is None:
            self._send_error_json(404, f"unknown scenario {name!r}")
            return
        self._send_json(
            200, {"corpus": name, "since": since, "deltas": deltas}
        )

    def _post_documents(self, route: str) -> None:
        """``POST /scenarios/<name>/documents``: queue a delta job."""
        self.service.count_request()
        name = route[len("/scenarios/"):-len("/documents")]
        payload = self._read_json_object(
            'JSON body with a "documents" list required', "documents"
        )
        if payload is None:
            return
        if name not in self.service.jobs.corpora():
            self._send_error_json(404, f"unknown scenario {name!r}")
            return
        self._answer_submission(
            functools.partial(
                self.service.jobs.submit_documents, name, payload["documents"]
            )
        )

    # -- recommendation endpoint ----------------------------------------------

    def _post_recommend(self) -> None:
        """``POST /recommend``: rank the registered ontologies.

        Small text inputs are answered synchronously (200 + the exact
        :meth:`~repro.recommend.report.RecommendationReport.to_dict`
        document — byte-identical to ``repro recommend --format
        json``); corpus inputs and oversized text queue a job with the
        usual 202/200 + ``Idempotency-Key`` contract.  ``mode`` in the
        payload (``"auto"``/``"sync"``/``"job"``) overrides the
        routing.
        """
        self.service.count_request()
        payload = self._read_json_object("request body must be a JSON object")
        if payload is None:
            return
        error = self._validate_recommend(payload)
        if error is not None:
            status, message = error
            self._send_error_json(status, message)
            return
        mode = str(payload.pop("mode", "auto"))
        run_sync = mode == "sync" or (
            mode == "auto"
            and "text" in payload
            and len(str(payload["text"]).encode("utf-8"))
            <= SYNC_MAX_TEXT_BYTES
        )
        if run_sync:
            started = perf_counter()
            try:
                document = self.service.jobs.run_recommend(payload)
            except ValidationError as exc:
                self._send_error_json(400, str(exc))
                return
            ranking = document.get("ranking", [])
            self.service.metrics.recommend_finished(
                mode="sync",
                seconds=perf_counter() - started,
                top_scores=ranking[0]["scores"] if ranking else {},
            )
            self._send_json(200, document)
            return
        self._answer_submission(
            functools.partial(self.service.jobs.submit_recommend, payload)
        )

    def _validate_recommend(
        self, payload: dict
    ) -> tuple[int, str] | None:
        """Shape and name checks: ``(status, message)`` or None when OK.

        Malformed structure is a 400; a *well-formed* request naming an
        unknown ontology or corpus is a 404 (the name is the resource).
        """
        has_text = "text" in payload
        has_corpus = "corpus" in payload
        if has_text == has_corpus:
            return 400, 'exactly one of "text" / "corpus" is required'
        if has_text and not isinstance(payload["text"], str):
            return 400, '"text" must be a string'
        if has_corpus and not isinstance(payload["corpus"], str):
            return 400, '"corpus" must be a string'
        ontologies = payload.get("ontologies")
        if ontologies is not None and (
            not isinstance(ontologies, list)
            or not ontologies
            or not all(isinstance(name, str) for name in ontologies)
        ):
            return 400, '"ontologies" must be a non-empty list of names'
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            return 400, '"config" must be an object'
        if str(payload.get("mode", "auto")) not in ("auto", "sync", "job"):
            return 400, '"mode" must be "auto", "sync", or "job"'
        acceptance = payload.get("acceptance_corpus")
        if acceptance is not None:
            if not isinstance(acceptance, str):
                return 400, '"acceptance_corpus" must be a string'
            if has_corpus:
                return 400, (
                    'corpus input is its own acceptance source; drop '
                    '"acceptance_corpus"'
                )
        registry = self.service.registry
        if not len(registry):
            return 400, "no ontologies registered (repro serve --ontology)"
        for name in ontologies or []:
            if name not in registry:
                return 404, (
                    f"unknown ontology {name!r}; "
                    f"registered: {registry.names()}"
                )
        corpora = self.service.jobs.corpora()
        if has_corpus and payload["corpus"] not in corpora:
            return 404, (
                f"unknown corpus {payload['corpus']!r}; "
                f"registered: {corpora}"
            )
        if acceptance is not None and acceptance not in corpora:
            return 404, (
                f"unknown corpus {acceptance!r}; registered: {corpora}"
            )
        return None

    # -- job endpoints --------------------------------------------------------

    def _submit_job(self) -> None:
        self.service.count_request()
        payload = self._read_json_object(
            'JSON body with a "corpus" required', "corpus"
        )
        if payload is None:
            return
        overrides = payload.get("config")
        if overrides is None:
            overrides = {}
        if not isinstance(overrides, dict):
            self._send_error_json(400, '"config" must be an object')
            return
        self._answer_submission(
            functools.partial(
                self.service.jobs.submit_detailed, str(payload["corpus"]), overrides
            )
        )


class CacheServiceServer:
    """Lifecycle wrapper: bind, serve (foreground or background), stop.

    Parameters
    ----------
    store:
        The :class:`DiskCacheStore` to serve (its directory is the
        service's persistent state).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the bound
        port is available as :attr:`port` right after construction —
        handy for tests and benchmarks).
    corpora:
        Optional ``name -> (ontology_json, corpus_jsonl)`` registry for
        the enrichment-job endpoints.
    job_workers:
        Concurrent server-side enrichment jobs.
    index_dir:
        Optional on-disk corpus index store shared by the job runner
        (see :class:`~repro.corpus.index_store.IndexStore`): corpus
        indexes persist across jobs and service restarts.
    ontologies:
        Optional ``name -> path`` registry (ontology JSON or ``.obo``)
        of the candidate ontologies of ``POST /recommend``
        (``repro serve --ontology NAME=PATH``).

    Example
    -------
    >>> import tempfile
    >>> server = CacheServiceServer(
    ...     DiskCacheStore(tempfile.mkdtemp()), host="127.0.0.1", port=0)
    >>> server.start()
    >>> server.url.startswith("http://127.0.0.1:")
    True
    >>> server.stop()
    """

    def __init__(
        self,
        store: DiskCacheStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        corpora: dict[str, tuple[str | Path, str | Path]] | None = None,
        job_workers: int = 1,
        index_dir: str | Path | None = None,
        metrics: ServiceMetrics | None = None,
        access_log=None,
        ontologies: dict[str, str | Path] | None = None,
    ) -> None:
        self.service = CacheService(
            store, corpora=corpora, job_workers=job_workers,
            index_dir=index_dir, metrics=metrics, access_log=access_log,
            ontologies=ontologies,
        )
        self._httpd = _ServiceHTTPServer((host, port), self.service)
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve on a background thread (returns immediately)."""
        if self._thread is not None:
            raise ValidationError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` or an interrupt."""
        self._serving = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close sockets, stop jobs."""
        if self._serving:
            # shutdown() blocks until the serve loop acknowledges; only
            # safe when a serve loop ran (the event starts cleared).
            self._httpd.shutdown()
            self._serving = False
        self._httpd.close_connections()
        self._httpd.server_close()
        self.service.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def _open_access_log(target: str | Path):
    """``(writer, closer)`` for an access-log target (``-`` = stderr).

    The writer serialises one record per line (JSON Lines) under a
    lock, so concurrent handler threads never interleave partial
    lines.
    """
    if str(target) == "-":
        stream, closer = sys.stderr, (lambda: None)
    else:
        stream = open(target, "a", encoding="utf-8")
        closer = stream.close
    lock = threading.Lock()

    def writer(record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with lock, contextlib.suppress(ValueError):
            # ValueError: the stream was closed late in shutdown.
            stream.write(line + "\n")
            stream.flush()

    return writer, closer


def serve(
    *,
    cache_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8750,
    cache_max_bytes: int | None = None,
    corpora: dict[str, tuple[str | Path, str | Path]] | None = None,
    job_workers: int = 1,
    index_dir: str | Path | None = None,
    access_log: str | Path | None = None,
    watch: dict[str, str | Path] | None = None,
    watch_poll_seconds: float = 1.0,
    ontologies: dict[str, str | Path] | None = None,
    ready: "threading.Event | None" = None,
) -> int:
    """Blocking entry point of ``repro serve``.

    Installs SIGTERM/SIGINT handlers for a graceful shutdown (stop
    accepting connections, close the listening socket, stop the job
    pool) and serves until one arrives.  ``ready`` (when given) is set
    once the socket is bound — tests use it to avoid sleeping.
    ``access_log`` turns on the structured JSON access log (a file
    path, or ``-`` for stderr).  ``watch`` maps registered scenario
    names to drop directories: a
    :class:`~repro.service.watcher.DirectoryWatcher` per entry feeds
    dropped ``*.jsonl`` document files into the scenario's delta path
    (``repro serve --watch NAME=DIR``).  ``ontologies`` maps names to
    ontology files (JSON or ``.obo``) registered for ``POST
    /recommend`` (``repro serve --ontology NAME=PATH``).  A ``watch``
    name that ``corpora`` does not register, or a scenario or ontology
    file that does not exist, raises
    :class:`~repro.errors.ValidationError` before the store is opened or
    the port bound.
    """
    watch = watch or {}
    registered = sorted(corpora or {})
    for name in sorted(watch):
        if name not in registered:
            raise ValidationError(
                f"--watch names unregistered scenario {name!r}; "
                f"registered: {registered}"
            )
    for name, paths in sorted((corpora or {}).items()):
        for path in paths:
            if not Path(path).is_file():
                raise ValidationError(f"scenario {name!r} has no file at {path}")
    for name, path in sorted((ontologies or {}).items()):
        if not Path(path).is_file():
            raise ValidationError(f"ontology {name!r} has no file at {path}")
    store = DiskCacheStore(cache_dir, max_bytes=cache_max_bytes)
    log_writer, log_closer = (None, lambda: None)
    if access_log is not None:
        log_writer, log_closer = _open_access_log(access_log)
    server = CacheServiceServer(
        store,
        host=host,
        port=port,
        corpora=corpora,
        job_workers=job_workers,
        index_dir=index_dir,
        access_log=log_writer,
        ontologies=ontologies,
    )
    watchers = []
    if watch:
        from repro.service.watcher import DirectoryWatcher

        for name, directory in sorted(watch.items()):
            watchers.append(
                DirectoryWatcher(
                    server.service.jobs,
                    name,
                    directory,
                    poll_seconds=watch_poll_seconds,
                )
            )

    def _interrupt(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError):  # non-main thread
            previous[signum] = signal.signal(signum, _interrupt)
    print(f"repro service listening on {server.url} "
          f"(cache_dir={store.cache_dir})", flush=True)
    registered_ontologies = server.service.registry.names()
    if registered_ontologies:
        print(
            "ontologies registered for /recommend: "
            + ", ".join(registered_ontologies),
            flush=True,
        )
    for watcher in watchers:
        watcher.start()
        print(
            f"watching {watcher.directory} -> scenario "
            f"{watcher.scenario!r}",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for watcher in watchers:
            watcher.stop()
        server.stop()
        log_closer()
        for signum, handler in previous.items():  # pragma: no cover
            signal.signal(signum, handler)
    print("repro service stopped", flush=True)
    return 0
