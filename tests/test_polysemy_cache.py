"""Feature-cache behaviour: keys, counters, and dataset-build reuse."""

from dataclasses import field, fields, make_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.algorithms import ALGORITHM_NAMES
from repro.clustering.indexes import index_names
from repro.corpus.corpus import Corpus, Document
from repro.extraction.measures import MEASURE_NAMES
from repro.ontology.model import Ontology
from repro.polysemy.cache import FeatureCache, context_digest
from repro.polysemy.cache_store import MemoryCacheStore
from repro.polysemy.dataset import build_polysemy_dataset
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.scenarios import make_enrichment_scenario
from repro.senses.representation import REPRESENTATION_NAMES
from repro.text.stopwords import SUPPORTED_LANGUAGES
from repro.workflow.config import FITTABLE_CLASSIFIERS, EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


class TestFeatureCache:
    def test_miss_then_hit(self):
        cache = FeatureCache()
        key = FeatureCache.key("corpus", "term", "config")
        assert cache.lookup_many([key]) == {}
        cache.store_many([(key, np.arange(3.0))])
        np.testing.assert_array_equal(cache.lookup_many([key])[key], np.arange(3.0))
        stats = cache.stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["disk_hits"] == 0 and stats["evictions"] == 0
        assert stats["store_bytes"] == np.arange(3.0).nbytes
        assert len(cache) == 1

    def test_counters_are_stats_without_counting_entries(self):
        # Neither size is measured for counters(): a disk store scans
        # its directory for len() and stats(), a served one asks the
        # server.  stats reads both sizes in one store.stats() call.
        class CountingStore(MemoryCacheStore):
            """Counts ``len()`` and ``stats()`` calls."""

            lens = 0
            sizes = 0

            def __len__(self):
                self.lens += 1
                return super().__len__()

            def stats(self):
                self.sizes += 1
                return super().stats()

        store = CountingStore()
        cache = FeatureCache(store)
        key = FeatureCache.key("corpus", "term", "config")
        cache.lookup_many([key])
        cache.store_many([(key, np.arange(3.0))])
        cache.lookup_many([key])
        counters = cache.counters()
        assert (store.lens, store.sizes) == (0, 0)
        stats = cache.stats
        assert (store.lens, store.sizes) == (0, 1)
        assert counters == {
            k: v for k, v in stats.items() if k not in ("entries", "store_bytes")
        }

    def test_distinct_key_components_do_not_collide(self):
        cache = FeatureCache()
        stored = FeatureCache.key("c1", "t", "f")
        cache.store_many([(stored, np.zeros(1))])
        others = [
            FeatureCache.key("c2", "t", "f"),
            FeatureCache.key("c1", "t2", "f"),
            FeatureCache.key("c1", "t", "f2"),
        ]
        assert list(cache.lookup_many([*others, stored])) == [stored]

    def test_clear_resets_everything(self):
        cache = FeatureCache()
        cache.store_many([(FeatureCache.key("c", "t", "f"), np.zeros(2))])
        cache.lookup_many([FeatureCache.key("c", "t", "f")])
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



#: A strategy of valid values per extractor field.
EXTRACTOR_VALUES = {
    "window": st.integers(1, 30),
    "graph_window": st.integers(1, 10),
    "feature_set": st.sampled_from(["all", "direct", "graph"]),
    "community_seed": st.integers(0, 2**31),
}

#: The config fields the enricher passes to its extractor.
EXTRACTOR_CONFIG_FIELDS = {"context_window", "seed"}

#: A strategy of valid values per other config field, plus the
#: companion fields its validation requires (``cache_dir`` is filled in
#: by the test).
OTHER_CONFIG_VALUES = {
    "language": st.sampled_from(SUPPORTED_LANGUAGES).map(
        lambda v: {"language": v}
    ),
    "extraction_measure": st.sampled_from(MEASURE_NAMES).map(
        lambda v: {"extraction_measure": v}
    ),
    "n_candidates": st.integers(1, 100).map(lambda v: {"n_candidates": v}),
    "min_term_length": st.integers(1, 4).map(lambda v: {"min_term_length": v}),
    "min_contexts": st.integers(1, 80).map(lambda v: {"min_contexts": v}),
    "polysemy_classifier": st.sampled_from(FITTABLE_CLASSIFIERS).map(
        lambda v: {"polysemy_classifier": v}
    ),
    "sense_algorithm": st.sampled_from(ALGORITHM_NAMES).map(
        lambda v: {"sense_algorithm": v}
    ),
    "sense_index": st.sampled_from(index_names()).map(
        lambda v: {"sense_index": v}
    ),
    "sense_representation": st.sampled_from(REPRESENTATION_NAMES).map(
        lambda v: {"sense_representation": v}
    ),
    "max_contexts_per_term": st.integers(4, 200).map(
        lambda v: {"max_contexts_per_term": v}
    ),
    "top_k_positions": st.integers(1, 50).map(lambda v: {"top_k_positions": v}),
    "expand_hierarchy": st.booleans().map(lambda v: {"expand_hierarchy": v}),
    "skip_known_terms": st.booleans().map(lambda v: {"skip_known_terms": v}),
    "index_dir": st.just({"index_dir": "index"}),
    "cache_dir": st.just({"cache_dir": "cache"}),
    "cache_max_bytes": st.integers(1, 1 << 30).map(
        lambda v: {"cache_dir": "cache", "cache_max_bytes": v}
    ),
    "cache_url": st.just({"cache_url": "http://127.0.0.1:9"}),
    "cache_timeout": st.floats(0.01, 60).map(lambda v: {"cache_timeout": v}),
}


@st.composite
def extractors(draw):
    return PolysemyFeatureExtractor(
        **{name: draw(values) for name, values in EXTRACTOR_VALUES.items()}
    )


def layout(text, cuts):
    """Windows of tokens cut out of ``text``: each ``(position, kind)``
    cut ends a token there, and a ``"w"`` cut ends its window too."""
    windows, tokens, start = [], [], 0
    for position, kind in cuts:
        tokens.append(text[start:position])
        start = position
        if kind == "w":
            windows.append(tokens)
            tokens = []
    tokens.append(text[start:])
    windows.append(tokens)
    return windows


@st.composite
def regrouped_windows(draw):
    """A window list and a variant of it that differs only in where one
    token or window boundary falls: the same text, one cut moved.
    Separator-like characters are common, so a move across one is."""
    text = draw(st.text(alphabet="a\x00\x1e\x1f ", max_size=8))
    cuts = sorted(
        draw(
            st.lists(
                st.tuples(st.integers(0, len(text)), st.sampled_from("tw")),
                min_size=1,
                max_size=6,
            )
        )
    )
    i = draw(st.integers(0, len(cuts) - 1))
    position, kind = cuts[i]
    moved = draw(st.integers(0, len(text)).filter(lambda p: p != position))
    variant = sorted(cuts[:i] + [(moved, kind)] + cuts[i + 1 :])
    return layout(text, cuts), layout(text, variant)


class TestKeyDigests:
    """The two derived key components: the spec and the context digest."""

    def test_every_extractor_field_has_values(self):
        assert set(EXTRACTOR_VALUES) == {
            f.name for f in fields(PolysemyFeatureExtractor)
        }

    @settings(max_examples=60)
    @given(data=st.data(), base=extractors())
    def test_changing_any_extractor_field_changes_the_spec_digest(
        self, data, base
    ):
        assert replace(base).spec_digest == base.spec_digest
        name = data.draw(st.sampled_from(sorted(EXTRACTOR_VALUES)))
        value = data.draw(
            EXTRACTOR_VALUES[name].filter(lambda v: v != getattr(base, name))
        )
        assert replace(base, **{name: value}).spec_digest != base.spec_digest

    def test_an_added_field_changes_the_spec_digest(self):
        extended = make_dataclass(
            "Extended",
            [("extra", int, field(default=0))],
            bases=(PolysemyFeatureExtractor,),
            frozen=True,
            kw_only=True,
        )
        assert extended().spec_digest != PolysemyFeatureExtractor().spec_digest

    def test_every_config_field_is_classified(self):
        assert set(OTHER_CONFIG_VALUES) | EXTRACTOR_CONFIG_FIELDS == {
            f.name for f in fields(EnrichmentConfig)
        }

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("spec-digest")

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        window=st.integers(1, 30),
        seed=st.integers(0, 2**31),
    )
    def test_only_extractor_config_fields_move_the_enricher_spec(
        self, root, data, window, seed
    ):
        def spec(**overrides):
            for name in ("index_dir", "cache_dir"):
                if name in overrides:
                    overrides[name] = str(root / overrides[name])
            config = EnrichmentConfig(
                **{"context_window": window, "seed": seed, **overrides}
            )
            enricher = OntologyEnricher(Ontology(), config=config)
            return enricher.feature_extractor.spec_digest

        base = spec()
        name = data.draw(st.sampled_from(sorted(OTHER_CONFIG_VALUES)))
        assert spec(**data.draw(OTHER_CONFIG_VALUES[name])) == base
        assert spec(context_window=window + 1) != base
        assert spec(seed=seed + 1) != base

    @settings(max_examples=300)
    @given(pair=regrouped_windows(), doc_frequency=st.integers(0, 5))
    @example(pair=([["a\x1f", "b"]], [["a", "\x1fb"]]), doc_frequency=1)
    @example(pair=([["a\x1e"], ["b"]], [["a"], ["\x1eb"]]), doc_frequency=1)
    def test_moving_a_token_or_window_boundary_changes_the_context_digest(
        self, pair, doc_frequency
    ):
        windows, variant = pair
        flat = "".join(token for window in windows for token in window)
        assert "".join(token for window in variant for token in window) == flat
        assert variant != windows
        assert context_digest(variant, doc_frequency) != context_digest(
            windows, doc_frequency
        )
        same = [tuple(window) for window in windows]
        assert context_digest(same, doc_frequency) == context_digest(
            windows, doc_frequency
        )

    def test_document_frequency_is_part_of_the_context_digest(self):
        windows = [("acute", "pain"), ("chest",)]
        digests = {
            context_digest(windows, frequency) for frequency in (None, 0, 1, 2)
        }
        assert len(digests) == 4


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
        # A different max_contexts gives the capped terms other windows,
        # hence other keys, so the second build must not reuse the
        # first build's entries for them.
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
