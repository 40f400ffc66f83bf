"""Tests for the 23 polysemy features (direct + graph)."""

import numpy as np
import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.polysemy.direct_features import DIRECT_FEATURE_NAMES, direct_features
from repro.polysemy.features import ALL_FEATURE_NAMES, PolysemyFeatureExtractor
from repro.polysemy.graph_features import (
    GRAPH_FEATURE_NAMES,
    build_context_graph,
    graph_features,
)


def mono_contexts(n=12, seed=0):
    """Contexts drawn from one vocabulary — a monosemous profile."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(15)]
    return [
        tuple(rng.choice(vocab, size=8, replace=True)) for _ in range(n)
    ]


def poly_contexts(n_per=6, seed=0):
    """Contexts from two disjoint vocabularies — a polysemic profile."""
    rng = np.random.default_rng(seed)
    vocab_a = [f"a{i}" for i in range(15)]
    vocab_b = [f"b{i}" for i in range(15)]
    out = []
    for vocab in (vocab_a, vocab_b):
        out.extend(
            tuple(rng.choice(vocab, size=8, replace=True)) for _ in range(n_per)
        )
    return out


def edges(graph):
    """Word-pair -> weight of every edge of a context graph."""
    csr = graph.csr
    rows = np.repeat(np.arange(csr.n_nodes), np.diff(csr.indptr))
    return {
        frozenset((graph.nodes[u], graph.nodes[v])): w
        for u, v, w in zip(
            rows.tolist(), csr.indices.tolist(), csr.weights.tolist()
        )
    }


class TestFeatureInventory:
    def test_the_paper_counts(self):
        assert len(DIRECT_FEATURE_NAMES) == 11
        assert len(GRAPH_FEATURE_NAMES) == 12
        assert len(ALL_FEATURE_NAMES) == 23

    def test_no_duplicate_names(self):
        assert len(set(ALL_FEATURE_NAMES)) == 23


class TestDirectFeatures:
    def test_vector_shape_and_finite(self):
        vec = direct_features("corneal injuries", mono_contexts())
        assert vec.shape == (11,)
        assert np.all(np.isfinite(vec))

    def test_term_shape_features(self):
        vec = direct_features("corneal injuries", mono_contexts())
        names = list(DIRECT_FEATURE_NAMES)
        assert vec[names.index("term_n_tokens")] == 2.0
        assert vec[names.index("term_n_chars")] == len("corneal injuries")

    def test_polysemic_contexts_lower_mean_cosine(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("mean_pairwise_cosine")
        mono = direct_features("t", mono_contexts(seed=1))
        poly = direct_features("t", poly_contexts(seed=1))
        assert poly[idx] < mono[idx]

    def test_polysemic_contexts_higher_bisection_gain(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("bisect_balance_gain")
        mono = direct_features("t", mono_contexts(seed=2))
        poly = direct_features("t", poly_contexts(seed=2))
        assert poly[idx] > mono[idx]

    def test_bisection_ratio_above_one_for_polysemic(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("bisect_isim_ratio")
        poly = direct_features("t", poly_contexts(seed=9))
        assert poly[idx] > 1.2

    def test_polysemic_contexts_higher_entropy(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("log_vocab_size")
        mono = direct_features("t", mono_contexts(seed=3))
        poly = direct_features("t", poly_contexts(seed=3))
        assert poly[idx] > mono[idx]

    def test_single_context_degenerate(self):
        vec = direct_features("t", [("a", "b", "c")])
        assert np.all(np.isfinite(vec))

    def test_empty_contexts_finite(self):
        vec = direct_features("t", [])
        assert np.all(np.isfinite(vec))

    def test_doc_frequency_override(self):
        names = list(DIRECT_FEATURE_NAMES)
        idx = names.index("log_doc_frequency")
        a = direct_features("t", mono_contexts(), doc_frequency=2)
        b = direct_features("t", mono_contexts(), doc_frequency=10)
        assert a[idx] < b[idx]

    def test_two_contexts_degenerate_bisection(self):
        vec = direct_features("t", [("a", "b"), ("c", "d")])
        names = list(DIRECT_FEATURE_NAMES)
        assert vec[names.index("bisect_isim_gain")] == 0.0
        assert np.all(np.isfinite(vec))


class TestGraphFeatures:
    def test_vector_shape_and_finite(self):
        graph = build_context_graph(mono_contexts())
        vec = graph_features(graph)
        assert vec.shape == (12,)
        assert np.all(np.isfinite(vec))

    def test_empty_graph(self):
        graph = build_context_graph([])
        vec = graph_features(graph)
        assert np.all(vec == 0.0)

    def test_polysemic_graph_splits_into_communities(self):
        names = list(GRAPH_FEATURE_NAMES)
        idx_comp = names.index("n_components")
        mono_vec = graph_features(build_context_graph(mono_contexts(seed=4)))
        poly_vec = graph_features(build_context_graph(poly_contexts(seed=4)))
        # Disjoint sense vocabularies → disconnected context graph.
        assert poly_vec[idx_comp] > mono_vec[idx_comp]

    def test_polysemic_graph_higher_modularity(self):
        names = list(GRAPH_FEATURE_NAMES)
        idx = names.index("modularity")
        mono_vec = graph_features(build_context_graph(mono_contexts(seed=5)))
        poly_vec = graph_features(build_context_graph(poly_contexts(seed=5)))
        assert poly_vec[idx] > mono_vec[idx]

    def test_window_limits_edges(self):
        graph = build_context_graph([("a", "b", "c", "d", "e")], window=2)
        found = edges(graph)
        assert frozenset(("a", "b")) in found
        assert frozenset(("a", "c")) not in found


class TestExtractor:
    def test_feature_set_selection(self):
        full = PolysemyFeatureExtractor(feature_set="all")
        direct = PolysemyFeatureExtractor(feature_set="direct")
        graph = PolysemyFeatureExtractor(feature_set="graph")
        contexts = mono_contexts()
        assert full.features_from_contexts("t", contexts).shape == (23,)
        assert direct.features_from_contexts("t", contexts).shape == (11,)
        assert graph.features_from_contexts("t", contexts).shape == (12,)
        assert full.n_features == 23

    def test_bad_feature_set(self):
        with pytest.raises(ValueError):
            PolysemyFeatureExtractor(feature_set="both")

    def test_features_from_corpus(self):
        corpus = Corpus(
            [
                Document("d1", [["the", "target", "term", "appears", "here"]]),
                Document("d2", [["target", "again", "with", "words"]]),
            ]
        )
        extractor = PolysemyFeatureExtractor()
        found = corpus.index().contexts_for_term("target", window=extractor.window)
        vec = extractor.features_from_contexts(
            "target",
            [context.tokens for context in found],
            doc_frequency=len({context.doc_id for context in found}),
        )
        assert vec.shape == (23,)
