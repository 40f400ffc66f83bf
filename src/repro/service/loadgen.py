"""Many-client load generator for the cache service (``repro loadbench``).

What the service does under concurrent clients — no failed request,
every request seen on ``/metrics`` — only a load generator can check.
:func:`run_load` drives the service with N client threads, each owning
its *own* :class:`~repro.service.client.RemoteCacheStore` +
:class:`~repro.service.client.ServiceClient` (one keep-alive
connection per client, like real tenants), issuing a deterministic
seeded mix of operations:

* ``batch_get`` / ``batch_put`` — ``batch_size``-key lookups and
  stores on the ``/vectors/batch`` route,
* ``stats`` — a conditional GET (so the 304 path is exercised under
  concurrency),
* optionally ``job`` — idempotent job submissions against a registered
  corpus.

Every operation's wall time lands in a per-op latency list; the report
(:class:`LoadReport`) carries the operations issued, sustained
request/s, per-op p50/p99, and a failure count assembled from caught
:class:`~repro.service.client.ServiceError`\\ s plus each store's
degraded-to-miss ``error_count``.  Any other exception in a client is
a fault of the harness, not of the service: :func:`run_load` raises it
once every client has finished.  CI's ``service-load-smoke`` job runs
``repro loadbench``, asserts the failure count is zero and that
``/metrics`` saw the traffic, and keeps the report as
``BENCH_service_load.json``.

Determinism: thread interleaving is real (that is the point), but each
client's op sequence and payloads derive from ``seed + client index``,
so two runs issue the identical request multiset.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.service.client import (
    RemoteCacheStore,
    ServiceClient,
    ServiceError,
)

__all__ = ["LoadReport", "OpStats", "run_load", "DEFAULT_MIX"]

#: Relative op weights of the default traffic mix: read-heavy (the
#: realistic shape for a warm shared cache), two lookups per store,
#: with a steady trickle of stats polls.
DEFAULT_MIX: dict[str, float] = {
    "batch_get": 2.0,
    "batch_put": 1.0,
    "stats": 1.0,
}

#: Feature-vector length used for generated payloads (the real 23-dim
#: polysemy vectors are this order of magnitude).
_VECTOR_DIM = 23


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


@dataclass
class OpStats:
    """One operation kind's latency profile."""

    count: int = 0
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0
    mean_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class LoadReport:
    """What one load run measured (the ``BENCH_service_load`` payload)."""

    clients: int
    requests: int
    duration_seconds: float
    requests_per_second: float
    failed_requests: int
    p50_seconds: float
    p99_seconds: float
    per_op: dict[str, OpStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "failed_requests": self.failed_requests,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
            "per_op": {
                name: stats.to_dict()
                for name, stats in sorted(self.per_op.items())
            },
        }


class _ClientWorker:
    """One simulated tenant: its own connections, ops, and latencies."""

    def __init__(
        self,
        base_url: str,
        *,
        index: int,
        ops: int,
        mix: dict[str, float],
        seed: int,
        batch_size: int,
        job_corpus: str | None,
        timeout: float,
    ) -> None:
        self._base_url = base_url
        self._index = index
        self._ops = ops
        self._rng = random.Random(seed + index)
        self._names = sorted(mix)
        self._weights = [mix[name] for name in self._names]
        self._batch_size = batch_size
        self._job_corpus = job_corpus
        self._timeout = timeout
        self.latencies: dict[str, list[float]] = {}
        self.failures = 0
        self._etag: str | None = None

    def _key(self, slot: int):
        # Client-striped key space: collisions across clients are
        # intentional (shared-cache traffic), collisions within a
        # client make warm gets plausible.
        return ("loadgen", f"client{self._index % 4}-term{slot}", "mix")

    def _vector(self, slot: int) -> np.ndarray:
        return np.full(_VECTOR_DIM, float(slot), dtype=np.float64)

    def run(self) -> None:
        store = RemoteCacheStore(self._base_url, timeout=self._timeout)
        client = ServiceClient(self._base_url, timeout=self._timeout)
        errors_before = store.error_count
        try:
            for _ in range(self._ops):
                op = self._rng.choices(self._names, self._weights)[0]
                started = time.perf_counter()
                try:
                    self._issue(op, store, client)
                except ServiceError:
                    self.failures += 1
                self.latencies.setdefault(op, []).append(
                    time.perf_counter() - started
                )
        finally:
            # Degraded-to-miss network failures never raise; the store
            # counts them, and a load test must not launder them away.
            self.failures += store.error_count - errors_before
            store.close()
            client.close()

    def _issue(
        self, op: str, store: RemoteCacheStore, client: ServiceClient
    ) -> None:
        slot = self._rng.randrange(64)
        if op == "batch_get":
            store.get_many(
                [self._key((slot + i) % 64) for i in range(self._batch_size)]
            )
        elif op == "batch_put":
            store.put_many(
                [
                    (self._key((slot + i) % 64), self._vector(slot + i))
                    for i in range(self._batch_size)
                ]
            )
        elif op == "stats":
            document, etag = client.stats_conditional(self._etag)
            del document
            self._etag = etag
        elif op == "job":
            # Idempotent resubmission: every client reuses its own key,
            # so the server creates one job per client and replays it
            # for the rest of the run.
            client.submit_job(
                self._job_corpus,
                idempotency_key=f"loadgen-client-{self._index}",
            )
        else:  # pragma: no cover - guarded by run_load validation
            raise ValidationError(f"unknown op {op!r}")


def run_load(
    base_url: str,
    *,
    clients: int = 8,
    ops_per_client: int = 50,
    mix: dict[str, float] | None = None,
    batch_size: int = 32,
    job_corpus: str | None = None,
    seed: int = 0,
    timeout: float = 10.0,
) -> LoadReport:
    """Drive the service at ``base_url`` with concurrent clients.

    ``mix`` maps op name → relative weight (default
    :data:`DEFAULT_MIX`); pass ``job_corpus`` to add idempotent ``job``
    submissions to the mix (weight 1 unless the mix names it).  The
    call blocks until every client finishes and returns the assembled
    :class:`LoadReport`; an exception other than
    :class:`~repro.service.client.ServiceError` in any client is
    raised here once all of them have finished.
    """
    if clients < 1:
        raise ValidationError(f"clients must be >= 1, got {clients}")
    if ops_per_client < 1:
        raise ValidationError(
            f"ops_per_client must be >= 1, got {ops_per_client}"
        )
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    mix = dict(mix if mix is not None else DEFAULT_MIX)
    if job_corpus is not None:
        mix.setdefault("job", 1.0)
    elif "job" in mix:
        raise ValidationError('op "job" in the mix requires job_corpus')
    known = {"batch_get", "batch_put", "stats", "job"}
    unknown = sorted(set(mix) - known)
    if unknown:
        raise ValidationError(
            f"unknown ops in mix: {unknown}; known: {sorted(known)}"
        )
    if not mix or any(weight <= 0 for weight in mix.values()):
        raise ValidationError("mix weights must be positive and non-empty")

    workers = [
        _ClientWorker(
            base_url,
            index=index,
            ops=ops_per_client,
            mix=mix,
            seed=seed,
            batch_size=batch_size,
            job_corpus=job_corpus,
            timeout=timeout,
        )
        for index in range(clients)
    ]
    started = time.perf_counter()
    with ThreadPoolExecutor(clients, thread_name_prefix="loadgen") as pool:
        runs = [pool.submit(worker.run) for worker in workers]
    duration = time.perf_counter() - started
    for run in runs:
        run.result()  # re-raises a client's unexpected exception

    merged: dict[str, list[float]] = {}
    failures = 0
    for worker in workers:
        failures += worker.failures
        for op, values in worker.latencies.items():
            merged.setdefault(op, []).extend(values)
    per_op: dict[str, OpStats] = {}
    everything: list[float] = []
    for op, values in merged.items():
        values.sort()
        everything.extend(values)
        per_op[op] = OpStats(
            count=len(values),
            p50_seconds=_percentile(values, 0.50),
            p99_seconds=_percentile(values, 0.99),
            mean_seconds=sum(values) / len(values),
        )
    everything.sort()
    total = len(everything)
    return LoadReport(
        clients=clients,
        requests=total,
        duration_seconds=duration,
        requests_per_second=total / duration if duration > 0 else 0.0,
        failed_requests=failures,
        p50_seconds=_percentile(everything, 0.50),
        p99_seconds=_percentile(everything, 0.99),
        per_op=per_op,
    )
