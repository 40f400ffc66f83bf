"""Served deployment on localhost: one cache service, many warm clients.

The Aber-OWL lesson applied to enrichment: put the shared state behind
a long-lived HTTP service.  This example boots ``repro serve``
in-process on an ephemeral port, registers a corpus for server-side
jobs, then

1. runs a **cold** pipeline against ``cache_url`` (every Step II vector
   is computed and pushed to the service),
2. runs a **warm** pipeline from a brand-new enricher, counting the
   HTTP round trips it costs server-side (the ``/stats`` ``requests``
   delta; ``/stats`` polls themselves are uncounted): every lookup
   travels in ``/vectors/batch`` frames of up to 256 keys,
3. submits the same enrichment as a **server-side job** twice with one
   ``Idempotency-Key`` (the second submit replays the first job),
4. scrapes ``GET /metrics`` and shows the traffic it recorded,
5. stops the server and runs once more: every lookup degrades to a
   clean miss (``remote_errors``), the report is unchanged.

Run: ``PYTHONPATH=src python examples/cache_service.py``

Against a real deployment, replace the in-process server with::

    repro serve --cache-dir /var/cache/repro --port 8750 \\
        --scenario demo=/data/demo
    repro enrich ... --cache-url http://cache-host:8750
"""

import json
import tempfile
import time
from pathlib import Path

from repro.corpus.io import write_corpus_jsonl
from repro.ontology.io import write_ontology_json
from repro.polysemy.cache_store import DiskCacheStore
from repro.scenarios import make_enrichment_scenario
from repro.service.client import ServiceClient
from repro.service.server import CacheServiceServer
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


def enrich_with_fresh_enricher(scenario, cache_url: str):
    config = EnrichmentConfig(
        n_candidates=8, cache_url=cache_url, cache_timeout=0.5, seed=0
    )
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )
    started = time.perf_counter()
    report = enricher.enrich(scenario.corpus)
    return report, time.perf_counter() - started


def main(n_concepts: int = 30, docs_per_concept: int = 5) -> None:
    scenario = make_enrichment_scenario(
        seed=5, n_concepts=n_concepts, docs_per_concept=docs_per_concept
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-cache-service-"))
    write_ontology_json(scenario.ontology, workdir / "ontology.json")
    write_corpus_jsonl(scenario.corpus, workdir / "corpus.jsonl")

    server = CacheServiceServer(
        DiskCacheStore(workdir / "cache"),
        host="127.0.0.1",
        port=0,  # ephemeral
        corpora={
            "demo": (workdir / "ontology.json", workdir / "corpus.jsonl")
        },
    )
    server.start()
    print(f"cache service listening on {server.url}")

    client = ServiceClient(server.url)
    round_trips = lambda: client.stats()["requests"]  # noqa: E731

    cold, cold_seconds = enrich_with_fresh_enricher(scenario, server.url)
    print(
        f"cold run : {cold_seconds:.2f}s — "
        f"{cold.cache['misses']} misses pushed to the service"
    )

    # Warm: the vectors come back in whole frames, a round trip per
    # lookup batch rather than per vector.
    before = round_trips()
    warm, warm_seconds = enrich_with_fresh_enricher(scenario, server.url)
    warm_requests = round_trips() - before
    print(
        f"warm run : {warm_seconds:.2f}s — "
        f"{warm.cache['remote_hits']} vectors served over HTTP in "
        f"{warm_requests} round trips, {warm.cache['misses']} misses "
        f"({cold_seconds / max(warm_seconds, 1e-9):.1f}x faster)"
    )
    assert warm.cache["remote_hits"] > 0 and warm.cache["misses"] == 0

    # The service also *runs* enrichment: submit, poll, fetch — and a
    # resubmission carrying the same Idempotency-Key replays the first
    # job instead of burning a duplicate run.
    job_id, replayed = client.submit_job_detailed(
        "demo", config={"n_candidates": 8}, idempotency_key="example-demo"
    )
    document = client.wait_for_job(job_id, timeout=300)
    print(
        f"job {job_id}: {document['status']}, "
        f"{document['report']['n_candidates']} candidates, "
        f"cache {document['report']['cache']['hits']} hits"
    )
    again, replayed = client.submit_job_detailed(
        "demo", config={"n_candidates": 8}, idempotency_key="example-demo"
    )
    assert again == job_id and replayed
    print(f"resubmit with same Idempotency-Key: replayed job {again}")

    # /metrics exposes all of the above in Prometheus text format.
    exposition = client.metrics()
    interesting = [
        line for line in exposition.splitlines()
        if line.startswith(("repro_http_requests_total", "repro_jobs_total"))
        and not line.startswith("#")
    ]
    print("metrics scrape (excerpt):")
    for line in interesting[:6]:
        print(f"  {line}")

    # Identical output with and without the service, warm or cold.
    rows = lambda report: json.dumps(  # noqa: E731
        [t.to_dict() for t in report.terms], sort_keys=True
    )
    assert rows(cold) == rows(warm)

    server.stop()
    dead, dead_seconds = enrich_with_fresh_enricher(scenario, server.url)
    print(
        f"dead run : {dead_seconds:.2f}s — server gone, "
        f"{dead.cache['remote_errors']} failures degraded to misses, "
        "report unchanged"
    )
    assert dead.cache["remote_errors"] > 0
    assert rows(dead) == rows(cold)
    print("served deployment round trip OK")


if __name__ == "__main__":
    main()
