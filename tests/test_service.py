"""The HTTP enrichment & shared-cache service, end to end.

Covers the wire format, every server route, the
:class:`~repro.service.client.RemoteCacheStore` protocol behaviour,
server-side enrichment jobs, and the workflow-level acceptance shape:
two pipeline runs sharing one server produce byte-identical reports
with the second run warm (``remote_hits > 0``), and a dead server
degrades to misses — never an exception.
"""

import json
import math
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.io import write_corpus_jsonl
from repro.errors import ValidationError
from repro.ontology.io import write_ontology_json
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import CacheStore, DiskCacheStore
from repro.polysemy.detector import PolysemyDetector
from repro.scenarios import make_enrichment_scenario
from repro.service import jobs as jobs_module
from repro.service.client import (
    DEFAULT_BATCH_SIZE,
    RemoteCacheStore,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import MAX_KEPT_ENRICHERS, JobManager
from repro.service.server import CacheServiceServer
from repro.service.wire import (
    KEY_BATCH_MAGIC,
    VECTOR_BATCH_MAGIC,
    decode_key,
    decode_key_batch,
    decode_vector_batch,
    encode_key,
    encode_key_batch,
    encode_vector_batch,
)
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import LinkStage, OntologyEnricher


def key(term="heart attack", corpus="corpus-fp", config="config-fp"):
    return FeatureCache.key(corpus, term, config)


@pytest.fixture()
def server(tmp_path):
    instance = CacheServiceServer(
        DiskCacheStore(tmp_path / "cache"), host="127.0.0.1", port=0
    )
    instance.start()
    yield instance
    instance.stop()


class TestWireFormat:
    @pytest.mark.parametrize(
        "vector",
        [
            np.arange(5.0),
            np.zeros((2, 3), dtype=np.float32),
            np.array(3.5),  # 0-d
            np.array([], dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(3, 2),
        ],
    )
    def test_vector_roundtrip(self, vector):
        # Any dtype and shape, 0-d and empty included, crosses a frame.
        [(decoded_key, decoded)] = decode_vector_batch(
            encode_vector_batch([(key(), vector)])
        )
        assert decoded_key == key()
        np.testing.assert_array_equal(decoded, vector)
        assert decoded.dtype == vector.dtype
        assert decoded.shape == vector.shape

    def test_decode_rejects_corruption(self):
        """Every field describing an entry is checked: a dtype numpy
        cannot parse, a shape the body does not fill, a CRC the body
        does not match, a key missing a component."""
        frame = encode_vector_batch([(key(), np.arange(4.0))])
        described = b"<f8" + bytes([1]) + struct.pack("<I", 4)
        assert frame.count(described) == 1
        for lie in (
            b"<z8" + described[3:],  # unknown dtype
            described[:-4] + struct.pack("<I", 5),  # shape vs length
            described[:-4] + struct.pack("<I", 3),
        ):
            assert decode_vector_batch(frame.replace(described, lie)) is None
        assert decode_vector_batch(frame[:-1] + bytes([frame[-1] ^ 1])) is None
        assert decode_vector_batch(frame[:-3]) is None  # torn

        def one_key(raw):
            return struct.pack("<II", 1, len(raw)) + raw

        complete = encode_key(key()).encode("utf-8")
        assert decode_key_batch(KEY_BATCH_MAGIC + one_key(complete))
        incomplete = b"corpus=a&term=b"
        assert decode_key_batch(KEY_BATCH_MAGIC + one_key(incomplete)) is None
        miss = b"\x00"
        assert decode_vector_batch(VECTOR_BATCH_MAGIC + one_key(complete) + miss)
        assert (
            decode_vector_batch(VECTOR_BATCH_MAGIC + one_key(incomplete) + miss)
            is None
        )

    def test_key_roundtrip_survives_unicode_and_separators(self):
        original = ("fp/with?odd&chars", "véso-constriction du cœur", "w=10;&x")
        assert decode_key(encode_key(original)) == original

    def test_incomplete_key_is_none(self):
        assert decode_key("corpus=a&term=b") is None
        assert decode_key("") is None

    def test_key_batch_roundtrip(self):
        keys = [key(term=f"term {i}") for i in range(5)] + [
            ("fp/with?odd&chars", "cœur", "w=10;&x")
        ]
        assert decode_key_batch(encode_key_batch(keys)) == keys
        assert decode_key_batch(encode_key_batch([])) == []

    def test_key_batch_rejects_corruption(self):
        frame = encode_key_batch([key()])
        assert decode_key_batch(frame[:-1]) is None  # torn
        assert decode_key_batch(b"XXXX" + frame[4:]) is None  # magic
        assert decode_key_batch(frame + b"junk") is None  # trailing

    def test_vector_batch_roundtrip_with_in_band_misses(self):
        entries = [
            (key(term="a"), np.arange(5.0)),
            (key(term="miss"), None),
            (key(term="b"), np.zeros((2, 3), dtype=np.float32)),
        ]
        decoded = decode_vector_batch(encode_vector_batch(entries))
        assert decoded is not None
        assert [k for k, _ in decoded] == [k for k, _ in entries]
        np.testing.assert_array_equal(decoded[0][1], entries[0][1])
        assert decoded[1][1] is None
        np.testing.assert_array_equal(decoded[2][1], entries[2][1])
        assert decoded[2][1].dtype == np.float32

    def test_vector_batch_rejects_corruption(self):
        frame = encode_vector_batch([(key(), np.arange(4.0))])
        assert decode_vector_batch(frame[:-2]) is None  # torn body
        corrupt = frame[:-1] + bytes([frame[-1] ^ 0xFF])  # bad crc
        assert decode_vector_batch(corrupt) is None
        assert decode_vector_batch(b"XXXX" + frame[4:]) is None


class TestServerRoutes:
    def test_healthz_and_stats(self, server):
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"
        stats = client.stats()
        assert stats["entries"] == 0
        assert stats["requests"] >= 1

    def test_vector_roundtrip_and_counters(self, server):
        remote = RemoteCacheStore(server.url)
        assert remote.get(key()) is None  # honest miss: no error counted
        vec = np.random.default_rng(0).normal(size=17)
        remote.put(key(), vec)
        np.testing.assert_array_equal(remote.get(key()), vec)
        assert len(remote) == 1
        stats = remote.stats()
        assert stats["remote_hits"] == 1
        assert stats["remote_errors"] == 0
        assert stats["store_bytes"] > 0
        server_stats = ServiceClient(server.url).stats()
        assert server_stats["vector_gets"] == 2
        assert server_stats["vector_puts"] == 1
        assert server_stats["vector_hits"] == 1

    def test_vectors_persist_in_the_backing_disk_store(self, server, tmp_path):
        remote = RemoteCacheStore(server.url)
        vec = np.arange(9.0)
        remote.put(key("persisted term"), vec)
        # A direct disk handle on the served directory sees the entry.
        direct = DiskCacheStore(tmp_path / "cache")
        np.testing.assert_array_equal(direct.get(key("persisted term")), vec)

    def test_clear_empties_the_store(self, server):
        remote = RemoteCacheStore(server.url)
        remote.put(key(), np.arange(3.0))
        assert len(remote) == 1
        remote.clear()
        assert len(remote) == 0
        assert remote.get(key()) is None

    def test_cache_info_route(self, server):
        RemoteCacheStore(server.url).put(key(), np.arange(3.0))
        info = ServiceClient(server.url).cache_info()
        assert info["entries"] == 1
        assert info["n_generations"] == 1
        assert info["generations"][0]["shards"] == 1
        assert info["eviction_order"] == [info["generations"][0]["name"]]

    def test_unknown_routes_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/nope")
        with pytest.raises(ServiceError, match="404"):
            client._json("POST", "/nope")

    def test_per_vector_routes_are_gone(self, server):
        """Vectors travel only in /vectors/batch frames: the per-vector
        routes answer the generic unknown-route 404."""
        remote = RemoteCacheStore(server.url)
        path = "/cache/vector?" + encode_key(key())
        for method, body in (("GET", None), ("PUT", b"\x00" * 32)):
            status, _, payload = remote._channel.request(
                method, path, body=body
            )
            assert status == 404
            assert b"unknown route" in payload
        assert len(remote) == 0

    def test_error_responses_keep_the_connection_usable(self, server):
        """Error paths must drain request bodies: an undrained PUT body
        would desynchronise the keep-alive stream and poison every
        later request on the same connection."""
        remote = RemoteCacheStore(server.url)
        body = encode_vector_batch([(key(), np.arange(16.0))])
        # PUT of a torn frame → 400, body drained.
        result = remote._channel.request(
            "PUT", "/vectors/batch", body=body[:-5]
        )
        assert result[0] == 400
        # PUT with a body to an unknown route → 404, body drained.
        result = remote._channel.request("PUT", "/nope", body=body)
        assert result[0] == 404
        # POST with a body to an unknown route → 404, body drained.
        result = remote._channel.request(
            "POST", "/nope", body=b"{}",
            headers={"Content-Type": "application/json"},
        )
        assert result[0] == 404
        # The same connection must still serve a real request cleanly.
        vec = np.arange(3.0)
        remote.put(key("after errors"), vec)
        np.testing.assert_array_equal(remote.get(key("after errors")), vec)
        assert remote.stats()["remote_errors"] == 0

    def test_bad_vector_requests_400(self, server):
        remote = RemoteCacheStore(server.url)
        # A lookup frame naming an incomplete key is rejected.
        raw = b"corpus=a"
        result = remote._channel.request(
            "POST",
            "/vectors/batch",
            body=KEY_BATCH_MAGIC + struct.pack("<II", 1, len(raw)) + raw,
        )
        assert result[0] == 400
        # A store frame whose CRC does not match its body is rejected
        # server-side, and stores nothing.
        frame = encode_vector_batch([(key(), np.arange(2.0))])
        result = remote._channel.request(
            "PUT",
            "/vectors/batch",
            body=frame[:-1] + bytes([frame[-1] ^ 1]),
        )
        assert result[0] == 400
        assert len(remote) == 0


class TestRemoteCacheStoreProtocol:
    def test_satisfies_the_cache_store_protocol(self, server):
        assert isinstance(RemoteCacheStore(server.url), CacheStore)

    def test_bare_host_port_accepted(self, server):
        remote = RemoteCacheStore(f"127.0.0.1:{server.port}")
        remote.put(key(), np.arange(2.0))
        assert remote.stats()["remote_errors"] == 0

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValidationError, match="http"):
            RemoteCacheStore("https://secure:1")
        with pytest.raises(ValidationError, match="host"):
            RemoteCacheStore("http://")
        with pytest.raises(ValidationError, match="timeout"):
            RemoteCacheStore("http://127.0.0.1:1", timeout=0)
        with pytest.raises(ValidationError, match="port"):
            RemoteCacheStore("http://h:99999")  # out of range
        with pytest.raises(ValidationError, match="port"):
            RemoteCacheStore("http://h:abc")

    def test_misrouted_url_counts_as_error_not_miss(self, server):
        """A 404 without the service's miss marker (wrong path prefix,
        wrong server) is a misconfiguration, not a cold cache."""
        misrouted = RemoteCacheStore(server.url + "/wrong-prefix")
        assert misrouted.get(key()) is None
        assert misrouted.stats()["remote_errors"] == 1
        assert misrouted.get_many([key("a"), key("b")]) == {}
        misrouted.put_many([(key("a"), np.arange(2.0))])
        assert misrouted.stats()["remote_errors"] == 3
        assert len(RemoteCacheStore(server.url)) == 0
        # The genuine service miss stays error-free.
        honest = RemoteCacheStore(server.url)
        assert honest.get(key("absent")) is None
        assert honest.stats()["remote_errors"] == 0

    def test_failed_clear_keeps_the_counters(self):
        import socket as socket_mod

        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        store = RemoteCacheStore(f"http://127.0.0.1:{port}", timeout=0.5)
        assert store.get(key()) is None
        assert store.stats()["remote_errors"] == 1
        store.clear()  # fails: nothing listening
        # The failure is recorded, not wiped by the reset-on-success.
        assert store.stats()["remote_errors"] == 2

    def test_feature_cache_merges_remote_counters(self, server):
        cache = FeatureCache(store=RemoteCacheStore(server.url))
        assert cache.lookup(key()) is None
        cache.store(key(), np.arange(3.0))
        assert cache.lookup(key()) is not None
        stats = cache.stats
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["remote_hits"] == 1
        assert stats["remote_errors"] == 0
        assert stats["disk_hits"] == 0


class TestConfigValidation:
    def test_cache_url_requires_feature_cache(self):
        with pytest.raises(ValidationError, match="feature_cache"):
            EnrichmentConfig(cache_url="http://x:1", feature_cache=False)

    def test_cache_url_excludes_cache_dir(self, tmp_path):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            EnrichmentConfig(
                cache_url="http://x:1", cache_dir=str(tmp_path)
            )

    def test_cache_timeout_must_be_positive(self):
        with pytest.raises(ValidationError, match="cache_timeout"):
            EnrichmentConfig(cache_timeout=0)


class TestServedWorkflow:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_enrichment_scenario(
            seed=5, n_concepts=25, docs_per_concept=5,
            polysemy_histogram={2: 4},
        )

    def run(self, scenario, cache_url, **kwargs):
        config = EnrichmentConfig(
            n_candidates=8, cache_url=cache_url, **kwargs
        )
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        return enricher.enrich(scenario.corpus)

    @staticmethod
    def outcome(report):
        return json.dumps(
            [t.to_dict() for t in report.terms], sort_keys=True
        )

    def test_two_runs_share_one_server(self, scenario, server):
        cold = self.run(scenario, server.url)
        assert cold.cache["misses"] > 0
        assert cold.cache["remote_hits"] == 0
        assert cold.cache["remote_errors"] == 0
        client = ServiceClient(server.url)
        before = client.stats()["requests"]  # /stats polls are uncounted
        warm = self.run(scenario, server.url)  # brand-new enricher
        assert warm.cache["misses"] == 0
        assert warm.cache["remote_hits"] == warm.cache["hits"]
        assert warm.cache["hits"] == cold.cache["misses"]
        assert self.outcome(warm) == self.outcome(cold)
        # One round trip per lookup_many (training, then detection),
        # each in frames of at most DEFAULT_BATCH_SIZE keys.
        requests = client.stats()["requests"] - before
        assert requests <= math.ceil(warm.cache["hits"] / DEFAULT_BATCH_SIZE) + 1

    def test_dead_server_degrades_to_misses(self, scenario, tmp_path):
        live = CacheServiceServer(
            DiskCacheStore(tmp_path / "dead-cache"), port=0
        )
        live.start()
        cold = self.run(scenario, live.url)
        live.stop()  # killed mid-deployment: connections severed
        dead = self.run(scenario, live.url)
        assert dead.cache["remote_hits"] == 0
        assert dead.cache["remote_errors"] > 0
        assert dead.cache["misses"] > 0
        # Degradation changes only the cache economics, never the output.
        assert self.outcome(dead) == self.outcome(cold)


class TestEnrichmentJobs:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        scenario = make_enrichment_scenario(
            seed=0, n_concepts=20, docs_per_concept=4
        )
        root = tmp_path_factory.mktemp("served-corpus")
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

    def test_submit_poll_fetch(self, job_server):
        client = ServiceClient(job_server.url)
        assert client.corpora() == ["demo"]
        job_id = client.submit_job("demo", config={"n_candidates": 5})
        document = client.wait_for_job(job_id, timeout=180)
        assert document["status"] == "done"
        report = document["report"]
        assert report["n_candidates"] == 5
        assert all("term" in row for row in report["terms"])
        # Round two is served warm from the shared store and identical.
        second = client.wait_for_job(
            client.submit_job("demo", config={"n_candidates": 5}),
            timeout=180,
        )
        assert second["report"]["cache"]["misses"] == 0
        assert json.dumps(report["terms"], sort_keys=True) == json.dumps(
            second["report"]["terms"], sort_keys=True
        )

    def test_job_validation_errors_are_http_400(self, job_server):
        client = ServiceClient(job_server.url)
        with pytest.raises(ServiceError, match="unknown corpus"):
            client.submit_job("nope")
        with pytest.raises(ServiceError, match="owned by the service"):
            client.submit_job("demo", config={"cache_dir": "/tmp/x"})
        with pytest.raises(ServiceError, match="owned by the service"):
            client.submit_job("demo", config={"index_dir": "/tmp/x"})
        # The pipeline has no worker pools: their old knobs are unknown.
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit_job("demo", config={"n_workers": 16})
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit_job("demo", config={"worker_backend": "process"})
        # Louvain is the only community detector: the knob is gone too.
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit_job("demo", config={"community_backend": "greedy"})
        # Every vector request is a frame of at most 256 keys, so the
        # knob that chose the frame size is gone as well.
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit_job("demo", config={"cache_batch_size": 1})
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit_job("demo", config={"frobnicate": 1})
        # Values a job could only fail on (and that could not key a
        # kept enricher) are rejected at submit, not at run time.
        for config, message in [
            ({"n_candidates": 0}, "n_candidates must be >= 1"),
            ({"n_candidates": "3"}, "'n_candidates' must be int"),
            ({"n_candidates": True}, "'n_candidates' must be int"),
            ({"seed": [1, 2]}, "'seed' must be int"),
            ({"expand_hierarchy": 1}, "'expand_hierarchy' must be bool"),
            ({"polysemy_classifier": "nope"}, "polysemy_classifier must be"),
            ({"polysemy_classifier": "multinomial_nb"}, "polysemy_classifier"),
            ({"sense_algorithm": "nope"}, "sense_algorithm must be"),
        ]:
            with pytest.raises(ServiceError, match="400") as error:
                client.submit_job("demo", config=config)
            assert message in str(error.value)
        assert job_server.service.jobs.jobs() == []
        with pytest.raises(ServiceError, match="404"):
            client.job("job-999999")
        # Falsy non-objects must not slip through as "no overrides".
        with pytest.raises(ServiceError, match="must be an object"):
            client._json(
                "POST", "/jobs",
                payload={"corpus": "demo", "config": []},
                expect=(202,),
            )

    def test_finished_jobs_are_pruned_past_the_cap(self, corpus_dir):
        manager = JobManager(
            {
                "demo": (
                    corpus_dir / "ontology.json",
                    corpus_dir / "corpus.jsonl",
                )
            },
            max_finished_jobs=2,
        )
        try:
            ids = [
                manager.submit("demo", {"n_candidates": 2})
                for _ in range(4)
            ]
            deadline = time.monotonic() + 300
            while any(
                (manager.job(i) or {"status": "gone"})["status"]
                in ("queued", "running")
                for i in ids
            ):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            manager.submit("demo", {"n_candidates": 2})  # triggers pruning
            retained = [i for i in ids if manager.job(i) is not None]
            # Only the cap's worth of *finished* jobs survives; the
            # oldest were dropped.
            assert len(retained) == 2
            assert retained == ids[-2:]
        finally:
            manager.shutdown(wait=True)

    def test_failed_job_reports_not_raises(self, tmp_path):
        manager = JobManager(
            {"broken": (tmp_path / "missing.json", tmp_path / "missing.jsonl")}
        )
        try:
            job_id = manager.submit("broken")
            deadline = 100
            while manager.job(job_id)["status"] in ("queued", "running"):
                deadline -= 1
                assert deadline > 0, "job never finished"
                time.sleep(0.05)
            document = manager.job(job_id)
            assert document["status"] == "failed"
            assert "error" in document
        finally:
            manager.shutdown()

    def test_job_boundary_survives_exotic_exceptions(self, tmp_path):
        """The broad except in JobManager._run is the isolation
        boundary: any Exception subclass out of workflow code becomes a
        pollable failure, and the worker keeps serving later jobs."""

        class ExoticError(Exception):
            pass

        manager = JobManager(
            {"demo": (tmp_path / "o.json", tmp_path / "c.jsonl")}
        )
        original_load = manager._load
        calls = {"n": 0}

        def flaky_load(name):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ExoticError("surprise from deep inside a stage")
            return original_load(name)

        manager._load = flaky_load
        try:
            job_id = manager.submit("demo")
            deadline = 100
            while manager.job(job_id)["status"] in ("queued", "running"):
                deadline -= 1
                assert deadline > 0, "job never finished"
                time.sleep(0.05)
            document = manager.job(job_id)
            assert document["status"] == "failed"
            assert "ExoticError" in document["error"]
            # The worker thread survived: a second submission runs (it
            # fails on the missing files, but it *runs*).
            second = manager.submit("demo", {"seed": 1})
            deadline = 100
            while manager.job(second)["status"] in ("queued", "running"):
                deadline -= 1
                assert deadline > 0, "second job never finished"
                time.sleep(0.05)
            assert calls["n"] == 2
        finally:
            manager.shutdown()

    def test_jobs_listing_is_newest_first(self, job_server):
        client = ServiceClient(job_server.url)
        first = client.submit_job("demo", config={"n_candidates": 3})
        second = client.submit_job("demo", config={"n_candidates": 3})
        client.wait_for_job(first, timeout=180)
        client.wait_for_job(second, timeout=180)
        listing = client._json("GET", "/jobs")["jobs"]
        assert [job["job"] for job in listing[:2]] == [second, first]


class TestJobsRacingDeltas:
    def test_each_job_sees_the_corpus_before_or_after_a_delta(
        self, tmp_path, monkeypatch
    ):
        self.race(tmp_path, monkeypatch, {"n_candidates": 4})

    def test_default_config_jobs_race_on_the_streamers_enricher(
        self, tmp_path, monkeypatch
    ):
        # The delta's streamer is built on the jobs' kept enricher.
        self.race(tmp_path, monkeypatch, {})

    @staticmethod
    def race(tmp_path, monkeypatch, overrides):
        scenario = make_enrichment_scenario(seed=0, n_concepts=12, docs_per_concept=3)
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(scenario.corpus, tmp_path / "corpus.jsonl")
        # The arrival repeats a document's text, so the report changes.
        arrival = Document("late-1", list(scenario.corpus)[0].sentences)

        def cold(documents):
            config = EnrichmentConfig(feature_cache=True, **overrides)
            enricher = OntologyEnricher(scenario.ontology, config=config)
            return comparable(enricher.enrich(Corpus(documents)).to_dict())

        before = cold(list(scenario.corpus))
        after = cold([*scenario.corpus, arrival])
        assert before != after

        # The first job to reach Step IV waits there until the corpus
        # grows (or 2 s pass): a delta that could grow it mid-job would.
        reached, grown = threading.Event(), threading.Event()
        link, add = LinkStage.run, Corpus.add

        def held_link(stage, ctx):
            if not reached.is_set():
                reached.set()
                grown.wait(timeout=2.0)
            return link(stage, ctx)

        def add_and_signal(corpus, document):
            add(corpus, document)
            if document.doc_id == arrival.doc_id:
                grown.set()

        monkeypatch.setattr(LinkStage, "run", held_link)
        monkeypatch.setattr(Corpus, "add", add_and_signal)
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            job_workers=2,
        )
        try:
            jobs = [manager.submit("demo", overrides)]
            assert reached.wait(timeout=120)
            delta, __ = manager.submit_documents(
                "demo", [{"doc_id": arrival.doc_id, "sentences": arrival.sentences}]
            )
            jobs.append(manager.submit("demo", overrides))
            documents = [
                TestDirectoryWatcher.wait_done(manager, job_id, timeout=300)
                for job_id in [*jobs, delta]
            ]
        finally:
            manager.shutdown(wait=True)
        assert [document["status"] for document in documents] == ["done"] * 3
        reports = [comparable(document["report"]) for document in documents[:2]]
        assert reports[0] == before
        assert reports[1] in (before, after)


class TestFirstLoadRace:
    def test_jobs_and_deltas_share_the_first_loaded_corpus(
        self, tmp_path, monkeypatch
    ):
        # Regression: a job and a delta on a scenario's first use each
        # loaded it, and the later store won, so the streamer grew one
        # corpus while every job read the other one, for good.  Here the
        # job's load finishes only after the delta, so it stores last.
        scenario = make_enrichment_scenario(seed=0, n_concepts=12, docs_per_concept=3)
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(scenario.corpus, tmp_path / "corpus.jsonl")
        arrival = Document("late-1", list(scenario.corpus)[0].sentences)
        config = EnrichmentConfig(feature_cache=True)
        grown = comparable(
            OntologyEnricher(scenario.ontology, config=config)
            .enrich(Corpus([*scenario.corpus, arrival]))
            .to_dict()
        )
        entered, release = threading.Event(), threading.Event()
        read = jobs_module.read_corpus_jsonl

        def held_read(path):
            corpus = read(path)
            if not entered.is_set():
                entered.set()
                release.wait(timeout=120)
            return corpus

        monkeypatch.setattr(jobs_module, "read_corpus_jsonl", held_read)
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            job_workers=2,
        )
        wait_done = TestDirectoryWatcher.wait_done
        try:
            job = manager.submit("demo")
            assert entered.wait(timeout=60)
            delta, __ = manager.submit_documents(
                "demo", [{"doc_id": arrival.doc_id, "sentences": arrival.sentences}]
            )
            assert wait_done(manager, delta, timeout=300)["status"] == "done"
            release.set()
            later = manager.submit("demo")
            documents = [wait_done(manager, job_id, timeout=300) for job_id in (job, later)]
        finally:
            release.set()
            manager.shutdown(wait=True)
        assert [document["status"] for document in documents] == ["done"] * 2
        for document in documents:
            assert comparable(document["report"]) == grown


class TestKeptEnrichers:
    """Jobs reuse one enricher per (scenario, config), invisibly."""

    @pytest.fixture()
    def setup(self, tmp_path, monkeypatch):
        scenario = make_enrichment_scenario(seed=0, n_concepts=12, docs_per_concept=3)
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(scenario.corpus, tmp_path / "corpus.jsonl")
        built, fits = [], []

        def counting_enricher(*args, **kwargs):
            built.append(kwargs["config"])
            return OntologyEnricher(*args, **kwargs)

        fit = PolysemyDetector.fit

        def counting_fit(detector, dataset):
            fits.append(dataset.n_samples)
            return fit(detector, dataset)

        monkeypatch.setattr(jobs_module, "OntologyEnricher", counting_enricher)
        monkeypatch.setattr(PolysemyDetector, "fit", counting_fit)
        store = DiskCacheStore(tmp_path / "cache")
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            store=store,
        )
        yield manager, scenario, built, fits
        manager.shutdown(wait=True)

    @staticmethod
    def run(manager, overrides):
        document = TestDirectoryWatcher.wait_done(
            manager, manager.submit("demo", overrides), timeout=300
        )
        assert document["status"] == "done", document.get("error")
        return comparable(document["report"])

    @staticmethod
    def cold(ontology, documents, **overrides):
        config = EnrichmentConfig(**overrides)
        report = OntologyEnricher(ontology, config=config).enrich(Corpus(documents))
        return comparable(report.to_dict())

    def test_one_config_builds_one_enricher_and_fits_once(self, setup):
        manager, scenario, built, fits = setup
        reports = [self.run(manager, {"n_candidates": 4}) for _ in range(3)]
        assert len(built) == 1 and len(fits) == 1
        (enricher,) = manager._enrichers.values()
        assert enricher.feature_cache.backing_store is manager._store
        expected = self.cold(scenario.ontology, list(scenario.corpus), n_candidates=4)
        assert reports == [expected] * 3

    def test_job_after_a_delta_equals_a_cold_run_over_the_grown_corpus(
        self, setup
    ):
        manager, scenario, built, __ = setup
        arrival = Document("late-1", list(scenario.corpus)[0].sentences)
        self.run(manager, {"n_candidates": 4})
        delta, __ = manager.submit_documents(
            "demo", [{"doc_id": arrival.doc_id, "sentences": arrival.sentences}]
        )
        assert TestDirectoryWatcher.wait_done(manager, delta)["status"] == "done"
        grown = [*scenario.corpus, arrival]
        assert self.run(manager, {"n_candidates": 4}) == self.cold(
            scenario.ontology, grown, n_candidates=4
        )
        assert self.run(manager, {}) == self.cold(scenario.ontology, grown)
        # The n_candidates=4 enricher and the streamer's one.
        assert len(built) == 2

    def test_default_config_job_runs_on_the_streamers_enricher(self, setup):
        manager, scenario, built, __ = setup
        delta, __ = manager.submit_documents(
            "demo", [{"doc_id": "late-1", "sentences": [["zzqx", "wwvk"]]}]
        )
        assert TestDirectoryWatcher.wait_done(manager, delta)["status"] == "done"
        assert len(built) == 1
        self.run(manager, {})
        assert len(built) == 1
        streamer = manager._streamers["demo"]
        assert manager._enrichers[("demo", streamer.enricher.config)] is (
            streamer.enricher
        )

    def test_lru_cap_holds(self, setup):
        manager, __, built, __ = setup
        sizes = range(2, 3 + MAX_KEPT_ENRICHERS)
        for size in sizes:
            self.run(manager, {"n_candidates": size})
        assert len(built) == len(sizes)
        assert len(manager._enrichers) == MAX_KEPT_ENRICHERS
        self.run(manager, {"n_candidates": sizes[-1]})
        assert len(built) == len(sizes)
        self.run(manager, {"n_candidates": sizes[0]})  # evicted: rebuilt
        assert len(built) == len(sizes) + 1
        assert len(manager._enrichers) == MAX_KEPT_ENRICHERS

    def test_a_failed_job_drops_its_entry(self, setup, monkeypatch):
        manager, __, built, __ = setup
        link = LinkStage.run
        failures = iter([RuntimeError("Step IV broke")])

        def failing_once(stage, ctx):
            failure = next(failures, None)
            if failure is not None:
                raise failure
            return link(stage, ctx)

        monkeypatch.setattr(LinkStage, "run", failing_once)
        job = manager.submit("demo", {"n_candidates": 4})
        document = TestDirectoryWatcher.wait_done(manager, job)
        assert document["status"] == "failed"
        assert "Step IV broke" in document["error"]
        assert manager._enrichers == {}
        self.run(manager, {"n_candidates": 4})
        assert len(built) == 2

    def test_concurrent_jobs_and_a_delta_share_enrichers_safely(
        self, setup, tmp_path
    ):
        # More job workers than cores and a short switch interval: a
        # lost update in the kept-enricher table builds a second
        # enricher for a key, and an enricher used outside its
        # scenario lock reports a mix of the two corpora.
        __, scenario, built, __ = setup
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            store=DiskCacheStore(tmp_path / "cache"),
            job_workers=4,
        )
        arrival = Document("late-1", list(scenario.corpus)[0].sentences)
        configs = [{}, {"n_candidates": 4}, {"n_candidates": 6}]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [(c, manager.submit("demo", c)) for c in configs * 2]
            delta, __ = manager.submit_documents(
                "demo", [{"doc_id": arrival.doc_id, "sentences": arrival.sentences}]
            )
            jobs += [(c, manager.submit("demo", c)) for c in configs]
            documents = [
                (c, TestDirectoryWatcher.wait_done(manager, job, timeout=300))
                for c, job in jobs
            ]
            assert TestDirectoryWatcher.wait_done(manager, delta)["status"] == "done"
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown(wait=True)
        assert len(built) == len(configs)
        for config, document in documents:
            assert document["status"] == "done", document.get("error")
            assert comparable(document["report"]) in (
                self.cold(scenario.ontology, list(scenario.corpus), **config),
                self.cold(scenario.ontology, [*scenario.corpus, arrival], **config),
            )


def comparable(report: dict) -> dict:
    """A report document minus its run-time measurements."""
    return {k: v for k, v in report.items() if k not in ("timings", "cache")}


class TestStreamingDeltas:
    """The continuous-enrichment surface: POST documents, poll deltas."""

    @pytest.fixture(scope="class")
    def stream_dir(self, tmp_path_factory):
        scenario = make_enrichment_scenario(
            seed=0, n_concepts=20, docs_per_concept=4
        )
        root = tmp_path_factory.mktemp("streamed-corpus")
        write_ontology_json(scenario.ontology, root / "ontology.json")
        write_corpus_jsonl(scenario.corpus, root / "corpus.jsonl")
        return root

    @pytest.fixture(scope="class")
    def delta_server(self, tmp_path_factory, stream_dir):
        """A server with one completed delta (shared: deltas accumulate)."""
        root = tmp_path_factory.mktemp("delta-server")
        instance = CacheServiceServer(
            DiskCacheStore(root / "cache"),
            port=0,
            corpora={
                "demo": (
                    stream_dir / "ontology.json",
                    stream_dir / "corpus.jsonl",
                )
            },
            index_dir=root / "indexes",
        )
        instance.start()
        client = ServiceClient(instance.url)
        job_id, replayed = client.post_documents(
            "demo",
            [{"doc_id": "late-1", "sentences": [["zzqx", "wwvk", "ggph"]]}],
            idempotency_key="delta-1",
        )
        assert not replayed
        document = client.wait_for_job(job_id, timeout=300)
        yield instance, client, document
        client.close()
        instance.stop()

    def test_delta_job_lifecycle(self, delta_server):
        __, ___, document = delta_server
        assert document["kind"] == "delta"
        assert document["status"] == "done"
        report = document["report"]
        assert report["documents"] == ["late-1"]
        assert report["seq"] >= 1
        assert report["base_fingerprint"] != report["fingerprint"]
        # The padding tokens match no known term: everything came warm.
        assert report["n_recomputed"] == 0
        assert report["cache"]["misses"] == 0
        assert report["cache"]["hits"] > 0

    def test_deltas_route_serves_the_history(self, delta_server):
        __, client, document = delta_server
        deltas = client.deltas("demo")
        seqs = [delta["seq"] for delta in deltas]
        assert document["report"]["seq"] in seqs
        assert seqs == sorted(seqs)
        assert all(delta["job"].startswith("job-") for delta in deltas)
        # since= filters strictly.
        latest = max(seqs)
        assert client.deltas("demo", since=latest) == []

    def test_replay_does_not_grow_the_corpus_twice(self, delta_server):
        __, client, document = delta_server
        before = len(client.deltas("demo"))
        job_id, replayed = client.post_documents(
            "demo",
            [{"doc_id": "late-1", "sentences": [["zzqx", "wwvk", "ggph"]]}],
            idempotency_key="delta-1",
        )
        assert replayed
        assert job_id == document["job"]
        assert len(client.deltas("demo")) == before

    def test_full_job_after_delta_sees_the_grown_corpus(self, delta_server):
        """Deltas and full jobs share the loaded corpus and warm cache."""
        __, client, document = delta_server
        full = client.wait_for_job(client.submit_job("demo"), timeout=300)
        report = full["report"]
        terms = {row["term"]: row for row in report["terms"]}
        composedlike = {
            row["term"] for delta in client.deltas("demo")
            for row in delta["added"] + delta["rescored"]
        }
        assert composedlike <= set(terms)
        # The streamer already enriched this exact corpus state: the
        # full run is served entirely from the warm shared cache.
        assert report["cache"]["misses"] == 0

    def test_post_documents_validation(self, delta_server):
        __, client, ___ = delta_server
        with pytest.raises(ServiceError, match="unknown scenario"):
            client.post_documents("nope", [{"doc_id": "x", "text": "y"}])
        with pytest.raises(ServiceError, match="non-empty list"):
            client.post_documents("demo", [])
        with pytest.raises(ServiceError, match="sentences.*or.*text"):
            client.post_documents("demo", [{"doc_id": "x"}])
        with pytest.raises(ServiceError, match="doc_id"):
            client.post_documents("demo", [{"text": "no id"}])
        with pytest.raises(ServiceError, match="already used"):
            client.post_documents(
                "demo",
                [{"doc_id": "other", "text": "different payload"}],
                idempotency_key="delta-1",
            )

    def test_documents_no_index_accepts_are_400(self, delta_server):
        # A NUL in the id, or an empty or U+001F-carrying token, could
        # give the grown corpus another corpus's fingerprint.
        __, client, ___ = delta_server
        before = len(client.deltas("demo"))
        for document in (
            {"doc_id": "d1\x00corneal", "sentences": [["injury"]]},
            {"doc_id": "d1", "sentences": [["corneal\x1finjury", "heals"]]},
            {"doc_id": "d1", "sentences": [["corneal", ""]]},
        ):
            with pytest.raises(ServiceError, match="HTTP 400"):
                client.post_documents("demo", [document])
        assert len(client.deltas("demo")) == before

    def test_duplicate_document_fails_the_job_not_the_server(
        self, delta_server
    ):
        __, client, ___ = delta_server
        job_id, __ = client.post_documents(
            "demo", [{"doc_id": "late-1", "sentences": [["zzqx"]]}]
        )
        with pytest.raises(ServiceError, match="already in corpus"):
            client.wait_for_job(job_id, timeout=120)
        assert client.healthz()["status"] == "ok"

    def test_deltas_route_404s_unknown_scenario(self, delta_server):
        __, client, ___ = delta_server
        with pytest.raises(ServiceError, match="unknown scenario"):
            client.deltas("nope")

    def test_delta_metrics_are_exposed(self, delta_server):
        __, client, ___ = delta_server
        text = client.metrics()
        assert 'repro_delta_seconds_count{corpus="demo"}' in text
        assert 'route="/scenarios/{name}/documents"' in text
        assert 'route="/scenarios/{name}/deltas"' in text

    def test_watch_cli_follows_the_stream(self, delta_server, capsys):
        from repro.cli import main

        instance, __, ___ = delta_server
        assert main(
            ["watch", "--url", instance.url, "demo", "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "delta #" in out
        assert "recomputed=" in out


class TestDirectoryWatcher:
    """Watched-directory ingestion into the delta path (no HTTP)."""

    @pytest.fixture()
    def manager_dir(self, tmp_path):
        scenario = make_enrichment_scenario(
            seed=0, n_concepts=20, docs_per_concept=4
        )
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(scenario.corpus, tmp_path / "corpus.jsonl")
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")}
        )
        yield manager, tmp_path
        manager.shutdown(wait=True)

    @staticmethod
    def wait_done(manager, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            document = manager.job(job_id)
            if document["status"] in ("done", "failed"):
                return document
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")

    def test_dropped_file_becomes_a_delta(self, manager_dir):
        from repro.service.watcher import DirectoryWatcher

        manager, tmp_path = manager_dir
        drop = tmp_path / "drop"
        watcher = DirectoryWatcher(manager, "demo", drop)
        assert watcher.scan_once() == []
        (drop / "batch-1.jsonl").write_text(
            json.dumps({"doc_id": "w-1", "sentences": [["zzqx", "wwvk"]]})
            + "\n"
            + json.dumps({"doc_id": "w-2", "text": "More padding text."})
            + "\n"
        )
        submitted = watcher.scan_once()
        assert len(submitted) == 1
        document = self.wait_done(manager, submitted[0])
        assert document["status"] == "done"
        assert document["report"]["documents"] == ["w-1", "w-2"]
        # Unchanged file: nothing new on the next scan.
        assert watcher.scan_once() == []
        # Same content re-dropped (touched): replays the original job.
        (drop / "batch-1.jsonl").touch()
        import os

        os.utime(drop / "batch-1.jsonl", (time.time() + 5, time.time() + 5))
        assert watcher.scan_once() == [submitted[0]]
        assert len(manager.deltas("demo")) == 1

    def test_malformed_file_is_recorded_not_fatal(self, manager_dir):
        from repro.service.watcher import DirectoryWatcher

        manager, tmp_path = manager_dir
        drop = tmp_path / "drop"
        watcher = DirectoryWatcher(manager, "demo", drop)
        (drop / "bad.jsonl").write_text("{not json\n")
        assert watcher.scan_once() == []
        assert watcher.errors and "bad.jsonl" in watcher.errors[0]

    def test_background_thread_starts_and_stops(self, manager_dir):
        from repro.service.watcher import DirectoryWatcher

        manager, tmp_path = manager_dir
        watcher = DirectoryWatcher(
            manager, "demo", tmp_path / "drop", poll_seconds=0.05
        )
        watcher.start()
        with pytest.raises(ValidationError, match="already started"):
            watcher.start()
        (tmp_path / "drop" / "late.jsonl").write_text(
            json.dumps({"doc_id": "bg-1", "sentences": [["zzqx"]]}) + "\n"
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not manager.deltas("demo"):
            time.sleep(0.05)
        watcher.stop()
        deltas = manager.deltas("demo")
        assert [delta["documents"] for delta in deltas] == [["bg-1"]]


class TestRecommendRoute:
    """POST /recommend against a live server with registered ontologies."""

    @pytest.fixture(scope="class")
    def assets(self, tmp_path_factory):
        from repro.ontology.model import Concept, Ontology

        root = tmp_path_factory.mktemp("recommend-assets")
        scenario = make_enrichment_scenario(
            seed=0, n_concepts=20, docs_per_concept=4
        )
        write_ontology_json(scenario.ontology, root / "full.json")
        write_corpus_jsonl(scenario.corpus, root / "corpus.jsonl")
        flat = Ontology("flat")
        for i, concept in enumerate(scenario.ontology):
            if i >= 5:
                break
            flat.add_concept(
                Concept(f"F{i}", concept.preferred_term)
            )
        write_ontology_json(flat, root / "flat.json")
        sample = " ".join(
            concept.preferred_term
            for i, concept in enumerate(scenario.ontology)
            if i < 8
        )
        (root / "input.txt").write_text(sample)
        return root

    @pytest.fixture(scope="class")
    def recommend_server(self, tmp_path_factory, assets):
        instance = CacheServiceServer(
            DiskCacheStore(tmp_path_factory.mktemp("recommend-cache")),
            port=0,
            corpora={
                "demo": (assets / "full.json", assets / "corpus.jsonl")
            },
            ontologies={
                "full": assets / "full.json",
                "flat": assets / "flat.json",
            },
        )
        instance.start()
        yield instance
        instance.stop()

    def test_sync_text_ranks_both(self, recommend_server, assets):
        client = ServiceClient(recommend_server.url)
        document = client.recommend(
            text=(assets / "input.txt").read_text(), mode="sync"
        )
        names = [entry["name"] for entry in document["ranking"]]
        assert sorted(names) == ["flat", "full"]
        assert names[0] == "full"  # hierarchy + synonyms outscore flat
        for entry in document["ranking"]:
            assert set(entry["scores"]) == {
                "coverage", "acceptance", "detail", "specialization"
            }
        assert document["input"]["acceptance_source"] is None

    def test_corpus_job_and_idempotent_replay(self, recommend_server):
        client = ServiceClient(recommend_server.url)
        first = client.recommend(
            corpus="demo", idempotency_key="rec-demo-1"
        )
        assert "job" in first
        document = client.wait_for_job(first["job"], timeout=120)
        assert document["status"] == "done"
        report = document["report"]
        assert report["input"]["kind"] == "corpus"
        assert report["input"]["acceptance_source"] == "input"
        replay = client.recommend(
            corpus="demo", idempotency_key="rec-demo-1"
        )
        assert replay["job"] == first["job"]
        assert replay["replayed"] is True

    def test_malformed_payloads_are_400(self, recommend_server):
        client = ServiceClient(recommend_server.url)
        with pytest.raises(ServiceError, match="exactly one"):
            client.recommend(mode="sync")
        with pytest.raises(ServiceError, match="exactly one"):
            client.recommend(text="x", corpus="demo")
        with pytest.raises(ServiceError, match="unknown recommend config"):
            client.recommend(text="x", config={"bogus_knob": 1}, mode="sync")

    def test_unknown_names_are_404(self, recommend_server):
        client = ServiceClient(recommend_server.url)
        with pytest.raises(ServiceError, match="unknown ontology"):
            client.recommend(text="x", ontologies=["nope"], mode="sync")
        with pytest.raises(ServiceError, match="unknown corpus"):
            client.recommend(corpus="ghost")

    def test_cli_and_service_documents_are_byte_identical(
        self, recommend_server, assets, capsys
    ):
        import urllib.request

        from repro.cli import main

        code = main(
            [
                "recommend",
                "--ontology", f"flat={assets / 'flat.json'}",
                "--ontology", f"full={assets / 'full.json'}",
                "--text", str(assets / "input.txt"),
                "--format", "json",
            ]
        )
        assert code == 0
        cli_bytes = capsys.readouterr().out.rstrip("\n").encode()
        request = urllib.request.Request(
            recommend_server.url + "/recommend",
            data=json.dumps(
                {
                    "text": (assets / "input.txt").read_text(),
                    "mode": "sync",
                }
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            service_bytes = response.read()
        assert cli_bytes == service_bytes

    def test_recommend_metrics_exported(self, recommend_server, assets):
        client = ServiceClient(recommend_server.url)
        client.recommend(
            text=(assets / "input.txt").read_text(), mode="sync"
        )
        text = client.metrics()
        assert 'repro_recommend_seconds_count{mode="sync"}' in text
        assert 'repro_recommend_score_count{criterion="coverage"}' in text

    def test_no_registered_ontologies_is_400(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="no ontologies registered"):
            client.recommend(text="x", mode="sync")


class TestRecommendAfterDeltas:
    """``POST /recommend {"corpus": NAME}`` follows the scenario's deltas."""

    def test_recommendation_sees_the_grown_corpus(self, tmp_path):
        from repro.corpus.index import CorpusIndex
        from repro.ontology.snapshot import snapshot_before
        from repro.recommend import OntologyRegistry, Recommender

        scenario = make_enrichment_scenario(seed=0, n_concepts=12, docs_per_concept=4)
        documents = list(scenario.corpus)
        held = documents[-6:]
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(Corpus(documents[:-6]), tmp_path / "corpus.jsonl")
        registry = OntologyRegistry()
        registry.register("full", scenario.ontology)
        registry.register("before", snapshot_before(scenario.ontology, 2009))
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            store=DiskCacheStore(tmp_path / "cache"),
            registry=registry,
        )
        try:
            before = manager.run_recommend({"corpus": "demo"})
            delta, __ = manager.submit_documents(
                "demo",
                [{"doc_id": doc.doc_id, "sentences": doc.sentences} for doc in held],
            )
            done = TestDirectoryWatcher.wait_done(manager, delta, timeout=300)
            assert done["status"] == "done", done.get("error")
            after = manager.run_recommend({"corpus": "demo"})
        finally:
            manager.shutdown(wait=True)
        recommender = Recommender(registry)
        expected = recommender.recommend_index(CorpusIndex(documents)).to_dict()
        assert after == json.loads(json.dumps(expected))
        assert after != before

    def test_recommendation_does_not_wait_for_a_running_job(
        self, tmp_path, monkeypatch
    ):
        from repro.recommend import OntologyRegistry

        scenario = make_enrichment_scenario(seed=0, n_concepts=12, docs_per_concept=3)
        write_ontology_json(scenario.ontology, tmp_path / "ontology.json")
        write_corpus_jsonl(scenario.corpus, tmp_path / "corpus.jsonl")
        registry = OntologyRegistry()
        registry.register("full", scenario.ontology)
        # The job waits in Step IV, holding the scenario, until released.
        reached, release = threading.Event(), threading.Event()
        link = LinkStage.run

        def held_link(stage, ctx):
            reached.set()
            release.wait(timeout=120)
            return link(stage, ctx)

        monkeypatch.setattr(LinkStage, "run", held_link)
        manager = JobManager(
            {"demo": (tmp_path / "ontology.json", tmp_path / "corpus.jsonl")},
            registry=registry,
        )
        answered = []
        try:
            job = manager.submit("demo")
            assert reached.wait(timeout=120)
            recommend = threading.Thread(
                target=lambda: answered.append(
                    manager.run_recommend({"corpus": "demo"})
                )
            )
            recommend.start()
            recommend.join(timeout=60)
            assert answered, "the recommendation waited for the job"
            assert manager.job(job)["status"] == "running"
        finally:
            release.set()
            manager.shutdown(wait=True)
        assert answered[0]["ranking"]
