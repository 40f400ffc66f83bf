"""On-disk corpus index: build and persist once, mmap-reopen after.

At PubMed scale the index build dominates every run.  With an
:class:`~repro.corpus.index_store.IndexStore` the index is built and
persisted once as a generation keyed by the corpus fingerprint; every
later run — in this process or a fresh one — fingerprints the documents
and memory-maps the same on-disk arrays in O(1).  The mapped index
answers every query byte-identically to the in-memory build, so the
pipeline reading it through ``EnrichmentConfig(index_dir=...)`` reports
exactly what an in-memory run reports.

Run: ``PYTHONPATH=src python examples/large_corpus.py``
"""

import json
import tempfile
import time

from repro.corpus.corpus import Corpus
from repro.corpus.index_store import IndexStore
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


def enrich(scenario, corpus, **config_fields):
    config = EnrichmentConfig(n_candidates=8, seed=0, **config_fields)
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )
    return enricher.enrich(corpus)


def report_body(report) -> str:
    """The report minus its run-time measurements (timings, cache)."""
    document = report.to_dict()
    del document["timings"], document["cache"]
    return json.dumps(document, sort_keys=True)


def main(n_concepts: int = 30, docs_per_concept: int = 5) -> None:
    scenario = make_enrichment_scenario(
        seed=11, n_concepts=n_concepts, docs_per_concept=docs_per_concept
    )
    corpus = scenario.corpus
    index_dir = tempfile.mkdtemp(prefix="repro-index-store-")
    store = IndexStore(index_dir)
    print(f"index store at {index_dir}")
    print(f"corpus: {corpus.n_documents()} documents, "
          f"{corpus.n_tokens():,} tokens")

    # Cold: build the index and persist it as one generation.
    started = time.perf_counter()
    built = store.load_or_build(corpus)
    build_seconds = time.perf_counter() - started
    print(f"cold : build + persist {build_seconds:.3f}s "
          f"(fingerprint {built.fingerprint()[:12]})")

    # Warm: the same call now only fingerprints the documents and
    # mmap-reopens the stored arrays — no tokens are re-indexed.
    started = time.perf_counter()
    reopened = store.load_or_build(corpus)
    reopen_seconds = time.perf_counter() - started
    print(f"warm : mmap reopen     {reopen_seconds:.3f}s — "
          f"{build_seconds / max(reopen_seconds, 1e-9):.1f}x faster")
    assert reopened.fingerprint() == built.fingerprint()

    # End to end: EnrichmentConfig(index_dir=...) reopens the very same
    # generation (fresh Corpus objects, as a fresh process would have).
    in_memory = enrich(scenario, Corpus(list(corpus)))
    stored = enrich(scenario, Corpus(list(corpus)), index_dir=index_dir)
    print(f"enrichment over the mmap index: {len(stored.terms)} candidates, "
          f"{store.describe()['n_generations']} stored generation(s)")
    print(f"identical reports: "
          f"{report_body(stored) == report_body(in_memory)}")


if __name__ == "__main__":
    main()
