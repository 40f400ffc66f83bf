"""Persistent feature cache: a warm second run from a fresh enricher.

The paper's enrichment loop is re-run-heavy: the same corpus is
enriched again and again as the ontology grows.  With
``EnrichmentConfig(cache_dir=...)`` the Step II feature vectors are
persisted in a :class:`~repro.polysemy.cache_store.DiskCacheStore`, so
a *brand-new* enricher — a separate CLI invocation, the service, a
run tomorrow — starts warm and skips featurisation entirely.

Run: ``PYTHONPATH=src python examples/persistent_cache.py``
"""

import tempfile
import time

from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


def enrich_with_fresh_enricher(scenario, cache_dir: str):
    config = EnrichmentConfig(n_candidates=8, cache_dir=cache_dir, seed=0)
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
    cache_dir = tempfile.mkdtemp(prefix="repro-feature-cache-")
    print(f"persistent feature cache at {cache_dir}")

    cold, cold_seconds = enrich_with_fresh_enricher(scenario, cache_dir)
    print(
        f"cold run : {cold_seconds:.2f}s — "
        f"{cold.cache['misses']} vectors featurised and persisted "
        f"({cold.cache['store_bytes']:,} bytes on disk)"
    )

    # A completely fresh enricher: only the directory is shared.
    warm, warm_seconds = enrich_with_fresh_enricher(scenario, cache_dir)
    print(
        f"warm run : {warm_seconds:.2f}s — "
        f"{warm.cache['disk_hits']} vectors served from disk, "
        f"{warm.cache['misses']} featurised"
    )
    print(f"speedup  : {cold_seconds / warm_seconds:.1f}x")

    identical = [t.term for t in cold.terms] == [t.term for t in warm.terms]
    labels_match = [t.polysemic for t in cold.terms] == [
        t.polysemic for t in warm.terms
    ]
    print(f"identical reports: {identical and labels_match}")
    print()
    print(warm.to_table(max_rows=8))


if __name__ == "__main__":
    main()
