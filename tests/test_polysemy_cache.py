"""Feature-cache behaviour: keys, counters, and dataset-build reuse."""

import numpy as np
import pytest

from repro.corpus.corpus import Corpus, Document
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import MemoryCacheStore
from repro.polysemy.dataset import build_polysemy_dataset
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.scenarios import make_enrichment_scenario


class TestFeatureCache:
    def test_miss_then_hit(self):
        cache = FeatureCache()
        key = FeatureCache.key("corpus", "term", "config")
        assert cache.lookup(key) is None
        cache.store(key, np.arange(3.0))
        np.testing.assert_array_equal(cache.lookup(key), np.arange(3.0))
        stats = cache.stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["disk_hits"] == 0 and stats["evictions"] == 0
        assert stats["store_bytes"] == np.arange(3.0).nbytes
        assert len(cache) == 1

    def test_counters_are_stats_without_counting_entries(self):
        class CountingStore(MemoryCacheStore):
            """Counts ``len()`` calls: a disk store parses indexes for it."""

            lens = 0

            def __len__(self):
                self.lens += 1
                return super().__len__()

        store = CountingStore()
        cache = FeatureCache(store)
        key = FeatureCache.key("corpus", "term", "config")
        cache.lookup(key)
        cache.store(key, np.arange(3.0))
        cache.lookup(key)
        counters = cache.counters()
        assert store.lens == 0
        stats = cache.stats
        assert store.lens == 1
        assert counters == {k: v for k, v in stats.items() if k != "entries"}

    def test_distinct_key_components_do_not_collide(self):
        cache = FeatureCache()
        cache.store(FeatureCache.key("c1", "t", "f"), np.zeros(1))
        assert cache.lookup(FeatureCache.key("c2", "t", "f")) is None
        assert cache.lookup(FeatureCache.key("c1", "t2", "f")) is None
        assert cache.lookup(FeatureCache.key("c1", "t", "f2")) is None
        assert cache.lookup(FeatureCache.key("c1", "t", "f")) is not None

    def test_clear_resets_everything(self):
        cache = FeatureCache()
        cache.store(FeatureCache.key("c", "t", "f"), np.zeros(2))
        cache.lookup(FeatureCache.key("c", "t", "f"))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)
        assert stats["store_bytes"] == 0


class TestFingerprints:
    def test_corpus_fingerprint_is_stable(self):
        scenario = make_enrichment_scenario(
            seed=3, n_concepts=10, docs_per_concept=3
        )
        first = scenario.corpus.index().fingerprint()
        second = scenario.corpus.index().fingerprint()
        assert first == second

    def test_corpus_fingerprint_tracks_content(self):
        docs = [Document.from_text("a", "heart attack risk factors")]
        corpus_a = Corpus(documents=docs)
        corpus_b = Corpus(
            documents=docs
            + [Document.from_text("b", "cornea injury healing")]
        )
        assert (
            corpus_a.index().fingerprint() != corpus_b.index().fingerprint()
        )

    def test_extractor_fingerprint_pins_every_setting(self):
        base = PolysemyFeatureExtractor()
        assert base.fingerprint() == PolysemyFeatureExtractor().fingerprint()
        # The literal key: persisted disk and remote cache entries are
        # stored under it, so it must not drift.
        assert base.fingerprint() == (
            "window=10;graph_window=4;feature_set=all;"
            "community_backend=louvain;community_seed=0"
        )
        variants = [
            PolysemyFeatureExtractor(window=5),
            PolysemyFeatureExtractor(graph_window=2),
            PolysemyFeatureExtractor(feature_set="direct"),
            PolysemyFeatureExtractor(community_seed=9),
        ]
        fingerprints = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)


class TestDatasetBuildReuse:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_enrichment_scenario(
            seed=11, n_concepts=15, docs_per_concept=4,
            polysemy_histogram={2: 3},
        )

    def test_second_build_hits_and_matches(self, scenario):
        cache = FeatureCache()
        kwargs = dict(min_contexts=2, seed=0, cache=cache)
        first = build_polysemy_dataset(
            scenario.ontology, scenario.corpus, **kwargs
        )
        assert cache.stats["hits"] == 0
        assert cache.stats["misses"] == first.n_samples
        second = build_polysemy_dataset(
            scenario.ontology, scenario.corpus, **kwargs
        )
        assert cache.stats["hits"] == first.n_samples
        np.testing.assert_array_equal(first.X, second.X)
        np.testing.assert_array_equal(first.y, second.y)
        assert first.terms == second.terms

    def test_cached_build_matches_uncached(self, scenario):
        cached = build_polysemy_dataset(
            scenario.ontology, scenario.corpus,
            min_contexts=2, seed=0, cache=FeatureCache(),
        )
        plain = build_polysemy_dataset(
            scenario.ontology, scenario.corpus, min_contexts=2, seed=0,
        )
        np.testing.assert_array_equal(cached.X, plain.X)
        np.testing.assert_array_equal(cached.y, plain.y)

    def test_retrieval_cap_isolates_entries(self, scenario):
        # Different max_contexts shape different vectors, so the second
        # build must not reuse the first build's entries.
        cache = FeatureCache()
        build_polysemy_dataset(
            scenario.ontology, scenario.corpus,
            min_contexts=2, max_contexts=60, seed=0, cache=cache,
        )
        before = cache.stats["hits"]
        build_polysemy_dataset(
            scenario.ontology, scenario.corpus,
            min_contexts=2, max_contexts=3, seed=0, cache=cache,
        )
        assert cache.stats["hits"] == before
