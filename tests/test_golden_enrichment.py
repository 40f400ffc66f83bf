"""Golden end-to-end regression: persisted caching never changes output.

A full :class:`~repro.workflow.report.EnrichmentReport` over the
deterministic seed scenario is pinned in
``tests/goldens/golden_enrichment_report.json`` — terms, polysemy
labels, sense counts, propositions, warnings, and the cold/warm cache
counters of a disk-backed run.  Both the cold run (empty ``cache_dir``)
and the warm run (a brand-new enricher reading the store a previous
process left behind) must reproduce it exactly, with the corpus index
built in memory or persisted in (and mmap-reopened from) an
``index_dir``.

Regenerate after an *intentional* output change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_enrichment.py -q
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.index_store import IndexStore, MmapCorpusIndex
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "goldens"
    / "golden_enrichment_report.json"
)

SCENARIO_KWARGS = dict(
    seed=13, n_concepts=25, docs_per_concept=5, polysemy_histogram={2: 4}
)
CONFIG_KWARGS = dict(n_candidates=8, seed=0)

#: Counters whose exact values the golden file pins (store_bytes is
#: checked loosely: index-line lengths may vary by a few bytes when a
#: platform renders checksums/offsets with different digit counts).
PINNED_COUNTERS = ("hits", "misses", "disk_hits", "evictions", "entries")


def report_snapshot(report) -> dict:
    return {
        "detector_trained": report.detector_trained,
        "warnings": list(report.warnings),
        "terms": [
            {
                "term": t.term,
                "extraction_rank": t.extraction_rank,
                "extraction_score": float(t.extraction_score),
                "n_contexts": t.n_contexts,
                "polysemic": t.polysemic,
                "n_senses": t.n_senses,
                "skipped_reason": t.skipped_reason,
                "propositions": [
                    {
                        "rank": p.rank,
                        "term": p.term,
                        "cosine": float(p.cosine),
                    }
                    for p in t.propositions
                ],
            }
            for t in report.terms
        ],
    }


def assert_snapshot_equal(actual, golden, path="report"):
    """Recursive equality with tolerant float comparison."""
    if isinstance(golden, float):
        assert isinstance(actual, (int, float)), path
        assert math.isclose(
            float(actual), golden, rel_tol=1e-6, abs_tol=1e-9
        ), f"{path}: {actual!r} != {golden!r}"
    elif isinstance(golden, dict):
        assert isinstance(actual, dict) and set(actual) == set(golden), path
        for key in golden:
            assert_snapshot_equal(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), path
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert_snapshot_equal(a, g, f"{path}[{i}]")
    else:
        assert actual == golden, f"{path}: {actual!r} != {golden!r}"


@pytest.fixture(scope="module")
def scenario():
    return make_enrichment_scenario(**SCENARIO_KWARGS)


def run(scenario, cache_dir, *, corpus=None, index_dir=None):
    config = EnrichmentConfig(
        cache_dir=str(cache_dir),
        index_dir=None if index_dir is None else str(index_dir),
        **CONFIG_KWARGS,
    )
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )
    return enricher.enrich(scenario.corpus if corpus is None else corpus)


class TestGoldenEnrichment:
    def test_regenerate_or_verify_golden(self, scenario, tmp_path):
        """Sequential cold/warm runs against the pinned golden file."""
        cold = run(scenario, tmp_path)
        warm = run(scenario, tmp_path)
        payload = {
            "scenario": SCENARIO_KWARGS,
            "config": CONFIG_KWARGS,
            "report": report_snapshot(cold),
            "cold_cache": {k: cold.cache[k] for k in PINNED_COUNTERS},
            "warm_cache": {k: warm.cache[k] for k in PINNED_COUNTERS},
        }
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert_snapshot_equal(payload["report"], golden["report"])
        assert payload["cold_cache"] == golden["cold_cache"]
        assert payload["warm_cache"] == golden["warm_cache"]
        # Warm output itself must match the pin too (cold == warm).
        assert_snapshot_equal(report_snapshot(warm), golden["report"])
        assert cold.cache["store_bytes"] > 0
        assert warm.cache["store_bytes"] == cold.cache["store_bytes"]

    def test_index_dir_reproduces_the_golden_report(self, scenario, tmp_path):
        """A persisted, then mmap-reopened, index changes nothing."""
        golden = json.loads(GOLDEN_PATH.read_text())
        index_dir = tmp_path / "indexes"
        # Fresh Corpus objects: the run adopts the store's index onto
        # the corpus it enriches, which must not leak into the fixture.
        cold_corpus = Corpus(list(scenario.corpus))
        cold = run(
            scenario, tmp_path / "cache",
            corpus=cold_corpus, index_dir=index_dir,
        )
        store = IndexStore(index_dir)
        (fingerprint,) = store.fingerprints()
        assert isinstance(cold_corpus.index(), MmapCorpusIndex)
        manifest = store.path_for(fingerprint) / "manifest.json"
        written = manifest.stat().st_mtime_ns
        warm_corpus = Corpus(list(scenario.corpus))
        warm = run(
            scenario, tmp_path / "cache",
            corpus=warm_corpus, index_dir=index_dir,
        )
        # The second run reopened the generation instead of rebuilding.
        assert isinstance(warm_corpus.index(), MmapCorpusIndex)
        assert manifest.stat().st_mtime_ns == written
        assert store.fingerprints() == [fingerprint]
        assert_snapshot_equal(report_snapshot(cold), golden["report"])
        assert_snapshot_equal(report_snapshot(warm), golden["report"])
        assert {
            k: cold.cache[k] for k in PINNED_COUNTERS
        } == golden["cold_cache"]
        assert {
            k: warm.cache[k] for k in PINNED_COUNTERS
        } == golden["warm_cache"]

    def test_cache_disabled_still_matches_the_golden_report(self, scenario):
        """The default in-memory store, with no disk or served tier,
        gives the pinned report too."""
        golden = json.loads(GOLDEN_PATH.read_text())
        config = EnrichmentConfig(**CONFIG_KWARGS)
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        report = enricher.enrich(scenario.corpus)
        assert_snapshot_equal(report_snapshot(report), golden["report"])
        assert {
            k: report.cache[k] for k in PINNED_COUNTERS
        } == golden["cold_cache"]
