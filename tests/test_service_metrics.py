"""The observability layer: instruments, /metrics, ETag'd /stats,
idempotent job submission.

The instrument-level tests pin the Prometheus semantics (inclusive
``le`` bucket boundaries, cumulative rendering, monotone counters under
real thread contention); the served tests scrape a live
:class:`~repro.service.server.CacheServiceServer` and check the
exposition parses as text format 0.0.4 with internally consistent
histograms.
"""

import http.client
import json
import re
import threading
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.corpus.io import write_corpus_jsonl
from repro.errors import ValidationError
from repro.ontology.io import write_ontology_json
from repro.polysemy.cache_store import DiskCacheStore
from repro.scenarios import make_enrichment_scenario
from repro.service.client import RemoteCacheStore, ServiceClient, ServiceError
from repro.cli import main
from repro.service import loadgen
from repro.service.jobs import IdempotencyConflictError, JobManager
from repro.service.loadgen import run_load
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.service.server import CacheServiceServer


@pytest.fixture()
def server(tmp_path):
    instance = CacheServiceServer(
        DiskCacheStore(tmp_path / "cache"), host="127.0.0.1", port=0
    )
    instance.start()
    yield instance
    instance.stop()


class TestHistogram:
    def test_boundary_values_are_inclusive(self):
        h = Histogram("h_seconds", "t", buckets=(0.1, 1.0, 5.0))
        h.observe(0.1)   # exactly on a boundary: le="0.1" bucket
        h.observe(0.05)  # below the first boundary
        h.observe(1.0)   # exactly on the second boundary
        h.observe(3.0)
        h.observe(100.0)  # beyond every boundary: +Inf only
        cumulative, total_sum, count = h.snapshot()
        assert cumulative == [2, 3, 4, 5]  # le=0.1, 1.0, 5.0, +Inf
        assert count == 5
        assert total_sum == pytest.approx(104.15)

    def test_rendering_is_cumulative_with_inf_and_count(self):
        h = Histogram("h_seconds", "t", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        lines = h.samples()
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="2"} 2' in lines
        assert 'h_seconds_bucket{le="+Inf"} 2' in lines
        assert "h_seconds_count 2" in lines

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "t", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "t", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "t", buckets=())


class TestCounter:
    def test_rejects_negative_increments(self):
        c = Counter("c_total", "t")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_rejects_mismatched_labels(self):
        c = Counter("c_total", "t", ("op",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(kind="x")

    def test_monotone_and_exact_under_thread_contention(self):
        c = Counter("c_total", "t", ("op",))
        per_thread, threads = 2000, 8

        def hammer():
            for _ in range(per_thread):
                c.inc(op="x")

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        observed = 0
        while any(t.is_alive() for t in pool):
            value = c.value(op="x")
            assert value >= observed  # a scrape never goes backwards
            observed = value
        for t in pool:
            t.join()
        assert c.value(op="x") == per_thread * threads  # nothing lost

    def test_registry_rejects_duplicate_names(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "t")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c_total", "t")


class TestGauge:
    def test_inc_dec_set(self):
        g = Gauge("g", "t")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1.0
        g.set(42.0)
        assert g.value() == 42.0


#: One sample line of the text exposition: name, optional {labels},
#: and a value ('+Inf'/float).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[-+0-9.eE]+|\+Inf|NaN)$"
)


def parse_exposition(text: str) -> dict[str, dict]:
    """Strictly parse Prometheus text format 0.0.4 (fails the test on
    any malformed line)."""
    metrics: dict[str, dict] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            metrics.setdefault(name, {"samples": {}})["help"] = True
        elif line.startswith("# TYPE "):
            __, __, name, kind = line.split(" ", 3)
            metrics.setdefault(name, {"samples": {}})["type"] = kind
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            base = re.sub(r"_(bucket|sum|count)$", "", match["name"])
            owner = metrics.get(base) or metrics.get(match["name"])
            assert owner is not None, f"sample without TYPE: {line!r}"
            owner["samples"][(match["name"], match["labels"] or "")] = float(
                match["value"]
            )
    return metrics


class TestMetricsEndpoint:
    def test_scrape_parses_and_histograms_are_consistent(self, server):
        store = RemoteCacheStore(server.url)
        store.put(("fp", "term", "cfg"), np.arange(4.0))
        store.get(("fp", "term", "cfg"))  # a frame of one key
        store.get_many([("fp", f"t{i}", "cfg") for i in range(20)])
        client = ServiceClient(server.url)
        client.healthz()
        text = client.metrics()
        metrics = parse_exposition(text)
        for name in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_http_inflight_requests",
            "repro_cache_requests_total",
            "repro_batch_vectors_total",
        ):
            assert metrics[name].get("help") and metrics[name].get("type")
        # Histogram internal consistency: cumulative buckets are
        # monotone and the +Inf bucket equals _count, per route.
        hist = metrics["repro_http_request_seconds"]["samples"]
        routes = {
            labels for name, labels in hist if name.endswith("_count")
        }
        assert routes  # at least the routes hit above
        for route_labels in routes:
            count = hist[("repro_http_request_seconds_count", route_labels)]
            route = route_labels[1:-1]  # strip {}
            buckets = [
                value
                for (name, labels), value in sorted(hist.items())
                if name.endswith("_bucket") and route in labels
            ]
            # Cumulative buckets peak at the +Inf bucket == _count.
            assert buckets
            assert max(buckets) == count
        # The traffic above actually landed where it should: vector
        # ops are counted per key, and only as batch ops.
        counters = metrics["repro_cache_requests_total"]["samples"]
        assert {
            re.search(r'op="(\w+)"', labels)[1] for (_, labels) in counters
        } == {"batch_get", "batch_put"}
        get_total = sum(
            value
            for (name, labels), value in counters.items()
            if 'op="batch_get"' in labels
        )
        assert get_total == 21
        vectors = metrics["repro_batch_vectors_total"]["samples"]
        assert vectors[("repro_batch_vectors_total", '{op="get"}')] == 21
        assert vectors[("repro_batch_vectors_total", '{op="put"}')] == 1

    def test_counters_exact_under_concurrent_http_clients(self, server):
        threads, per_thread = 6, 10

        def hammer():
            client = ServiceClient(server.url)
            for _ in range(per_thread):
                client.healthz()
            client.close()

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        metrics = parse_exposition(ServiceClient(server.url).metrics())
        samples = metrics["repro_http_requests_total"]["samples"]
        healthz = sum(
            value
            for (name, labels), value in samples.items()
            if '"/healthz"' in labels
        )
        assert healthz == threads * per_thread
        # Every client returned, so the only request in flight is the
        # /metrics scrape observing itself.
        inflight = metrics["repro_http_inflight_requests"]["samples"]
        assert inflight[("repro_http_inflight_requests", "")] == 1


class TestStatsConditional:
    def test_second_poll_is_304_and_traffic_busts_the_etag(self, server):
        client = ServiceClient(server.url)
        document, etag = client.stats_conditional()
        assert document is not None and etag
        # No traffic in between: the poller gets a 304, no body.
        repoll, etag2 = client.stats_conditional(etag)
        assert repoll is None
        assert etag2 == etag
        # Counted traffic changes the document, so the ETag must move.
        store = RemoteCacheStore(server.url)
        store.put(("fp", "term", "cfg"), np.arange(3.0))
        after, etag3 = client.stats_conditional(etag)
        assert after is not None
        assert etag3 != etag
        assert after["vector_puts"] == document["vector_puts"] + 1

    def test_stats_polls_do_not_change_stats(self, server):
        client = ServiceClient(server.url)
        first = client.stats()
        for _ in range(3):
            client.stats()
        assert client.stats()["requests"] == first["requests"]


class TestIdempotentJobs:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        scenario = make_enrichment_scenario(
            seed=1, n_concepts=16, docs_per_concept=4
        )
        root = tmp_path_factory.mktemp("idem-corpus")
        write_ontology_json(scenario.ontology, root / "ontology.json")
        write_corpus_jsonl(scenario.corpus, root / "corpus.jsonl")
        return root

    @pytest.fixture()
    def job_server(self, tmp_path, corpus_dir):
        instance = CacheServiceServer(
            DiskCacheStore(tmp_path / "cache"),
            port=0,
            corpora={
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
        )
        instance.start()
        yield instance
        instance.stop()

    #: route -> (path, a payload, another payload), each one queues a job.
    SUBMIT_ROUTES = {
        "jobs": (
            "/jobs",
            {"corpus": "demo", "config": {"n_candidates": 2}},
            {"corpus": "demo", "config": {"n_candidates": 3}},
        ),
        "documents": (
            "/scenarios/demo/documents",
            {"documents": [{"doc_id": "late-1", "sentences": [["zzqx"]]}]},
            {"documents": [{"doc_id": "late-2", "sentences": [["wwvk"]]}]},
        ),
        "recommend": (
            "/recommend",
            {"corpus": "demo"},
            {"text": "padding text", "mode": "job"},
        ),
    }

    @staticmethod
    def post(url, path, payload, key):
        """``(status, body)`` of one POST carrying an Idempotency-Key."""
        parsed = urlsplit(url)
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        try:
            connection.request(
                "POST", path, body=json.dumps(payload),
                headers={"Idempotency-Key": key},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("route", sorted(SUBMIT_ROUTES))
    def test_idempotency_contract_of_every_submit_route(
        self, tmp_path, corpus_dir, route
    ):
        instance = CacheServiceServer(
            DiskCacheStore(tmp_path / "cache"),
            port=0,
            corpora={
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
            ontologies={"demo": corpus_dir / "ontology.json"},
        )
        instance.start()
        try:
            path, payload, other = self.SUBMIT_ROUTES[route]
            key = f"contract-{route}"
            status, body = self.post(instance.url, path, payload, key)
            assert (status, body["replayed"]) == (202, False)
            job_id = body["job"]
            assert self.post(instance.url, path, payload, key) == (
                200, {"job": job_id, "replayed": True},
            )
            status, body = self.post(instance.url, path, other, key)
            assert status == 409 and "already used" in body["error"]
            status, body = self.post(instance.url, path, payload, "")
            assert status == 400 and "non-empty" in body["error"]
            status, body = self.post(instance.url, path, payload, "k" * 201)
            assert status == 400 and "exceeds" in body["error"]
            # The key names one submission, whatever the route.
            for elsewhere, (other_path, other_payload, _) in sorted(
                self.SUBMIT_ROUTES.items()
            ):
                if elsewhere != route:
                    status, body = self.post(
                        instance.url, other_path, other_payload, key
                    )
                    assert status == 409, (elsewhere, body)
            client = ServiceClient(instance.url)
            assert client.wait_for_job(job_id, timeout=300)["status"] == "done"
            listed = [doc["job"] for doc in client._json("GET", "/jobs")["jobs"]]
            assert listed == [job_id]
        finally:
            instance.stop()

    def test_resubmission_returns_the_same_job_id(self, job_server):
        client = ServiceClient(job_server.url)
        first, replayed = client.submit_job_detailed(
            "demo", config={"n_candidates": 2}, idempotency_key="retry-1"
        )
        assert not replayed
        second, replayed = client.submit_job_detailed(
            "demo", config={"n_candidates": 2}, idempotency_key="retry-1"
        )
        assert replayed
        assert second == first
        # The replay created no second job.
        jobs = [doc["job"] for doc in client._json("GET", "/jobs")["jobs"]]
        assert jobs.count(first) == 1
        # Without a key every submit is a fresh job.
        third = client.submit_job("demo", config={"n_candidates": 2})
        assert third != first

    def test_key_reuse_with_different_payload_is_409(self, job_server):
        client = ServiceClient(job_server.url)
        client.submit_job(
            "demo", config={"n_candidates": 2}, idempotency_key="retry-2"
        )
        with pytest.raises(ServiceError, match="409"):
            client.submit_job(
                "demo", config={"n_candidates": 3}, idempotency_key="retry-2"
            )

    def test_manager_level_replay_and_conflict(self, corpus_dir):
        manager = JobManager(
            {
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
            metrics=ServiceMetrics(),
        )
        try:
            first, replayed = manager.submit_detailed(
                "demo", {"n_candidates": 2}, idempotency_key="k"
            )
            assert not replayed
            again, replayed = manager.submit_detailed(
                "demo", {"n_candidates": 2}, idempotency_key="k"
            )
            assert replayed and again == first
            with pytest.raises(IdempotencyConflictError):
                manager.submit_detailed(
                    "demo", {"n_candidates": 3}, idempotency_key="k"
                )
            with pytest.raises(ValidationError, match="non-empty"):
                manager.submit_detailed("demo", idempotency_key="")
            with pytest.raises(ValidationError, match="exceeds"):
                manager.submit_detailed("demo", idempotency_key="x" * 201)
            document = manager.job(first)
            assert document["idempotency_key"] == "k"
        finally:
            manager.shutdown(wait=True)

    def test_pruned_jobs_retire_their_idempotency_keys(self, corpus_dir):
        manager = JobManager(
            {
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
            max_finished_jobs=1,
        )
        try:
            ids = [
                manager.submit(
                    "demo", {"n_candidates": 2}, idempotency_key=f"key-{i}"
                )
                for i in range(3)
            ]
            deadline = 180.0
            import time as _time

            start = _time.time()
            while _time.time() - start < deadline:
                documents = [manager.job(job_id) for job_id in ids]
                if all(
                    doc is None or doc["status"] in ("done", "failed")
                    for doc in documents
                ):
                    break
                _time.sleep(0.1)
            # Force pruning past the retention cap of 1.
            manager.submit("demo", {"n_candidates": 2})
            alive = [job_id for job_id in ids if manager.job(job_id)]
            assert len(alive) < len(ids)
            dropped = next(
                job_id for job_id in ids if manager.job(job_id) is None
            )
            index = ids.index(dropped)
            # The dropped job's key mints a *fresh* job (no dangling
            # replay to a 404), while a retained key still replays.
            fresh, replayed = manager.submit_detailed(
                "demo", {"n_candidates": 2}, idempotency_key=f"key-{index}"
            )
            assert not replayed
            assert fresh != dropped
        finally:
            manager.shutdown(wait=True)

    def test_job_metrics_record_submission_and_completion(self, corpus_dir):
        metrics = ServiceMetrics()
        manager = JobManager(
            {
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
            metrics=metrics,
        )
        try:
            job_id = manager.submit(
                "demo", {"n_candidates": 2}, idempotency_key="m"
            )
            manager.submit(
                "demo", {"n_candidates": 2}, idempotency_key="m"
            )
            import time as _time

            start = _time.time()
            while _time.time() - start < 180:
                document = manager.job(job_id)
                if document["status"] in ("done", "failed"):
                    break
                _time.sleep(0.1)
            assert manager.job(job_id)["status"] == "done"
            assert metrics.jobs.value(corpus="demo", status="submitted") == 1
            assert metrics.jobs.value(corpus="demo", status="replayed") == 1
            assert metrics.jobs.value(corpus="demo", status="done") == 1
            __, total_sum, count = metrics.job_seconds.snapshot(
                corpus="demo"
            )
            assert count == 1 and total_sum > 0
        finally:
            manager.shutdown(wait=True)


class TestRunLoad:
    def test_short_run_counts_the_ops_it_issued(self, server):
        report = run_load(
            server.url, clients=2, ops_per_client=5, batch_size=4, seed=3
        )
        assert report.failed_requests == 0
        assert report.requests == 10
        assert sum(op.count for op in report.per_op.values()) == 10
        assert set(report.per_op) <= set(loadgen.DEFAULT_MIX)

    def test_batch_size_below_one_is_rejected_before_any_client(
        self, capsys
    ):
        # Nothing listens at port 1: a started client would count a
        # failure instead of raising.
        with pytest.raises(ValidationError, match="batch_size"):
            run_load("http://127.0.0.1:1", clients=2, batch_size=0)
        assert main(
            ["loadbench", "--url", "http://127.0.0.1:1", "--batch-size", "0"]
        ) == 2
        assert "batch_size must be >= 1" in capsys.readouterr().err

    def test_a_client_that_crashes_fails_the_run(self, server, monkeypatch):
        def crash(self, op, store, client):
            raise RuntimeError("harness bug")

        monkeypatch.setattr(loadgen._ClientWorker, "_issue", crash)
        with pytest.raises(RuntimeError, match="harness bug"):
            run_load(server.url, clients=2, ops_per_client=3)

    def test_unknown_ops_are_rejected(self):
        # The per-vector routes are gone, and so are their ops.
        for op in ("get", "put", "frobnicate"):
            with pytest.raises(ValidationError, match="unknown ops"):
                run_load("http://127.0.0.1:1", mix={op: 1.0})


class TestAccessLog:
    def test_one_json_line_per_request(self, tmp_path):
        lines: list[dict] = []
        instance = CacheServiceServer(
            DiskCacheStore(tmp_path / "cache"),
            port=0,
            access_log=lines.append,
        )
        instance.start()
        try:
            client = ServiceClient(instance.url)
            client.healthz()
            client.stats()
            with pytest.raises(ServiceError):
                client._json("GET", "/no-such-route")
        finally:
            instance.stop()
        assert len(lines) == 3
        for record in lines:
            # Every record is JSON-serialisable with the full shape.
            parsed = json.loads(json.dumps(record))
            assert set(parsed) >= {
                "ts", "client", "method", "path", "route", "status",
                "duration_seconds",
            }
        assert [r["status"] for r in lines] == [200, 200, 404]
        assert lines[2]["route"] == "other"
