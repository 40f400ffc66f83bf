"""Cross-module property-based tests on core invariants (hypothesis)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.algorithms import cluster
from repro.clustering.model import ClusterStats
from repro.clustering.similarity import normalize_rows
from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.ontology.io import ontology_from_json, ontology_to_json
from repro.ontology.snapshot import snapshot_before
from repro.ontology.stats import polysemy_histogram
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import DiskCacheStore, MemoryCacheStore
from repro.polysemy.dataset import build_polysemy_dataset
from repro.scenarios import make_enrichment_scenario

# -- strategies ---------------------------------------------------------------

word = st.sampled_from(
    ["cornea", "injury", "wound", "healing", "retina", "lesion", "cell",
     "tissue", "grade", "acute"]
)
sentence = st.lists(word, min_size=1, max_size=12)
document_sentences = st.lists(sentence, min_size=1, max_size=5)


class TestOntologyInvariants:
    @given(
        n=st.integers(min_value=2, max_value=40),
        poly=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_generated_ontology_invariants(self, n, poly, seed):
        spec = GeneratorSpec(
            n_concepts=n,
            n_roots=min(2, n),
            polysemy_histogram={2: poly} if poly else {},
        )
        onto = OntologyGenerator(spec, seed=seed).generate()
        onto.validate()
        # every polysemic term names >= 2 distinct concepts
        for term in onto.polysemic_terms():
            assert len(onto.concepts_for_term(term)) >= 2
        # histogram total = injected count
        assert sum(polysemy_histogram(onto).values()) == poly
        # fathers/sons symmetric
        for cid in onto.concept_ids():
            for father in onto.fathers(cid):
                assert cid in onto.sons(father)

    @given(
        n=st.integers(min_value=3, max_value=30),
        cutoff=st.integers(min_value=1990, max_value=2016),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_snapshot_is_subset_and_valid(self, n, cutoff, seed):
        spec = GeneratorSpec(n_concepts=n, n_roots=min(2, n))
        onto = OntologyGenerator(spec, seed=seed).generate()
        snap = snapshot_before(onto, cutoff)
        snap.validate()
        assert set(snap.concept_ids()) <= set(onto.concept_ids())
        for concept in snap:
            assert concept.year_added < cutoff

    @given(
        n=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_json_roundtrip_is_lossless(self, n, seed):
        spec = GeneratorSpec(n_concepts=n, n_roots=min(2, n))
        onto = OntologyGenerator(spec, seed=seed).generate()
        back = ontology_from_json(ontology_to_json(onto))
        assert back.terms() == onto.terms()
        assert back.concept_ids() == onto.concept_ids()
        for cid in onto.concept_ids():
            assert back.fathers(cid) == onto.fathers(cid)


class TestClusteringInvariants:
    @given(
        n=st.integers(min_value=6, max_value=24),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_algorithm_produces_valid_partition(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        matrix = np.abs(rng.normal(size=(n, 8))) + 1e-6
        for method in ("rb", "direct", "agglo"):
            solution = cluster(matrix, k, method=method, seed=0)
            labels = np.asarray(solution.labels)
            assert labels.shape == (n,)
            assert set(labels.tolist()) == set(range(k))
            stats = solution.stats
            assert stats.sizes.sum() == n
            assert np.all(stats.isim <= 1.0 + 1e-9)
            assert np.all(stats.esim >= -1e-9)

    @given(
        n=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_isim_at_least_esim_for_kmeans_solutions(self, n, seed):
        # For an I2-optimised 2-way split of non-negative data, clusters
        # must be internally at least as coherent as externally.
        rng = np.random.default_rng(seed)
        matrix = np.abs(rng.normal(size=(n, 6))) + 1e-6
        solution = cluster(matrix, 2, method="rbr", seed=1)
        stats = solution.stats
        assert stats.mean_isim() >= stats.mean_esim() - 1e-6

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_normalize_rows_idempotent(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.normal(size=(n, 5))
        once = normalize_rows(matrix)
        twice = normalize_rows(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)


class TestRetrievalConsistency:
    @given(document_sentences, st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_find_occurrences_matches_contexts_for_term(self, sentences, window):
        corpus = Corpus([Document("d0", sentences)])
        term = sentences[0][0]
        via_batch = corpus.index().occurrence_records([term], window=window)[term]
        via_single = corpus.index().contexts_for_term(term, window=window)
        # single-token terms cannot overlap, so both retrievals agree
        assert via_batch == [(c.doc_id, c.tokens) for c in via_single]


# -- cache-store strategies ---------------------------------------------------

payload_dtype = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u2", "<c16"])
payload_shape = st.one_of(
    st.tuples(),  # 0-d scalar array
    st.tuples(st.integers(min_value=0, max_value=23)),
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
)


def payload_array(dtype_str: str, shape: tuple, seed: int) -> np.ndarray:
    """A deterministic array, NaN/inf-spiked for float dtypes."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype_str)
    if dtype.kind == "c":
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    elif dtype.kind == "f":
        values = rng.normal(size=shape) * 1e6
    else:
        values = rng.integers(0, 1000, size=shape)
    array = np.asarray(values).astype(dtype)
    if dtype.kind in "fc" and array.size:
        flat = array.reshape(-1).copy()
        spikes = rng.integers(0, flat.size, size=min(3, flat.size))
        flat[spikes[0]] = np.nan
        if len(spikes) > 1:
            flat[spikes[1]] = np.inf
        if len(spikes) > 2:
            flat[spikes[2]] = -np.inf
        array = flat.reshape(shape)
    return array


def byte_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a is not None
        and b is not None
        and a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


class TestCacheStoreParity:
    """DiskCacheStore must be indistinguishable from the in-memory dict."""

    @given(
        dtype_str=payload_dtype,
        shape=payload_shape,
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_disk_roundtrip_matches_memory_byte_identically(
        self, dtype_str, shape, seed
    ):
        array = payload_array(dtype_str, shape, seed)
        key = FeatureCache.key("corpus-fp", f"term {seed}", "config-fp")
        memory = MemoryCacheStore()
        memory.put(key, array)
        with tempfile.TemporaryDirectory() as cache_dir:
            disk = DiskCacheStore(cache_dir)
            disk.put(key, array)
            same_handle = disk.get(key)
            reopened = DiskCacheStore(cache_dir).get(key)
        expected = memory.get(key)
        assert byte_identical(same_handle, expected)
        assert byte_identical(reopened, expected)

    @given(
        n_entries=st.integers(min_value=1, max_value=6),
        cut=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncated_shard_never_yields_a_wrong_vector(
        self, n_entries, cut, seed
    ):
        arrays = {
            f"term {i}": payload_array("<f8", (23,), seed + i)
            for i in range(n_entries)
        }
        with tempfile.TemporaryDirectory() as cache_dir:
            writer = DiskCacheStore(cache_dir)
            for term, array in arrays.items():
                writer.put(FeatureCache.key("c", term, "f"), array)
            shard = next(Path(cache_dir).glob("*/shard-*.bin"))
            data = shard.read_bytes()
            shard.write_bytes(data[: int(len(data) * cut)])
            survivor = DiskCacheStore(cache_dir)
            for term, array in arrays.items():
                got = survivor.get(FeatureCache.key("c", term, "f"))
                # Simulated partial write: an entry either survives
                # byte-identically or is a clean miss — never garbage.
                assert got is None or byte_identical(got, array)

    @given(
        n_entries=st.integers(min_value=1, max_value=6),
        cut=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncated_index_never_yields_a_wrong_vector(
        self, n_entries, cut, seed
    ):
        arrays = {
            f"term {i}": payload_array("<f4", (11,), seed + i)
            for i in range(n_entries)
        }
        with tempfile.TemporaryDirectory() as cache_dir:
            writer = DiskCacheStore(cache_dir)
            for term, array in arrays.items():
                writer.put(FeatureCache.key("c", term, "f"), array)
            index = next(Path(cache_dir).glob("*/index.jsonl"))
            data = index.read_bytes()
            index.write_bytes(data[: int(len(data) * cut)])
            survivor = DiskCacheStore(cache_dir)
            for term, array in arrays.items():
                got = survivor.get(FeatureCache.key("c", term, "f"))
                assert got is None or byte_identical(got, array)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_seeded_corpus_features_roundtrip_through_disk(self, seed):
        scenario = make_enrichment_scenario(
            seed=seed, n_concepts=12, docs_per_concept=3,
            polysemy_histogram={2: 2},
        )
        kwargs = dict(min_contexts=2, seed=0)
        in_memory = build_polysemy_dataset(
            scenario.ontology, scenario.corpus,
            cache=FeatureCache(), **kwargs,
        )
        with tempfile.TemporaryDirectory() as cache_dir:
            persisted = build_polysemy_dataset(
                scenario.ontology, scenario.corpus,
                cache=FeatureCache(store=DiskCacheStore(cache_dir)),
                **kwargs,
            )
            # A fresh handle (a new run) must rebuild the identical
            # matrix purely from disk.
            warm_cache = FeatureCache(store=DiskCacheStore(cache_dir))
            warm = build_polysemy_dataset(
                scenario.ontology, scenario.corpus,
                cache=warm_cache, **kwargs,
            )
        assert byte_identical(persisted.X, in_memory.X)
        assert byte_identical(warm.X, in_memory.X)
        assert warm.terms == in_memory.terms
        assert warm_cache.stats["misses"] == 0
        assert warm_cache.stats["disk_hits"] == in_memory.n_samples


# -- document-stream strategies ----------------------------------------------

stream_documents = st.lists(document_sentences, min_size=2, max_size=6)


class TestDocumentStreamInvariants:
    """Streaming adds are indistinguishable from a fresh build.

    The continuous-enrichment path leans on this: N single-document
    ``add_documents`` calls must land on the exact index (and the exact
    fingerprint chain) one cold build over all N+seed documents
    produces.  Any drift here would silently poison what is kept along
    the chain: kept occurrence records and stored index generations.
    """

    @staticmethod
    def query_terms(documents):
        terms = {"cornea", "wound", "healing", "absent-term"}
        for doc in documents:
            first = doc.sentences[0]
            terms.add(first[0])
            if len(first) >= 2:
                terms.add(f"{first[0]} {first[1]}")
        return sorted(terms)

    @staticmethod
    def assert_same_surface(candidate, reference, terms):
        assert candidate.fingerprint() == reference.fingerprint()
        assert candidate.n_documents() == reference.n_documents()
        assert candidate.n_tokens() == reference.n_tokens()
        assert candidate.doc_lengths() == reference.doc_lengths()
        for term in terms:
            assert candidate.phrase_occurrences(term) == \
                reference.phrase_occurrences(term), term
            for window in (1, 4):
                assert candidate.contexts_for_term(term, window=window) == \
                    reference.contexts_for_term(term, window=window), term

    @given(stream_documents)
    @settings(max_examples=20, deadline=None)
    def test_single_doc_adds_equal_fresh_build(self, sentence_lists):
        from repro.corpus.index import CorpusIndex

        documents = [
            Document(f"doc-{position}", sentences)
            for position, sentences in enumerate(sentence_lists)
        ]
        terms = self.query_terms(documents)
        fresh = CorpusIndex(documents)

        streamed = CorpusIndex(documents[:1])
        for doc in documents[1:]:
            streamed.add_documents([doc])
        self.assert_same_surface(streamed, fresh, terms)

    @given(stream_documents)
    @settings(max_examples=10, deadline=None)
    def test_streamed_corpus_matches_fresh_corpus_index(self, sentence_lists):
        """Corpus.add keeps its cached index on the fresh-build chain."""
        documents = [
            Document(f"doc-{position}", sentences)
            for position, sentences in enumerate(sentence_lists)
        ]
        corpus = Corpus(documents[:1])
        corpus.index()  # cache it, so adds patch in place
        for doc in documents[1:]:
            corpus.add(doc)
        fresh = Corpus(documents)
        self.assert_same_surface(
            corpus.index(), fresh.index(), self.query_terms(documents)
        )
