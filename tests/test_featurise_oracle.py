"""The batch featuriser against Step II's per-term code.

``PolysemyFeatureExtractor.featurise`` encodes a batch once, takes its
TF-IDF rows from segmented id counts, its graph statistics from chunks
of block-diagonal adjacency and its Louvain level 0 from one wavefront.
Every row must still be the bytes the per-term code
(``per_term_featuriser``) produced, and the bytes of ``featurise`` over
that item alone.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import louvain
from repro.polysemy import batch as batching, graph_features
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.scenarios import make_enrichment_scenario

import per_term_featuriser as oracle


@contextmanager
def batch_knobs(*, wavefront, chunk):
    """Set the wavefront threshold and every chunk budget for a block."""
    targets = [
        (louvain, "WAVEFRONT_MIN_GRAPHS", wavefront),
        (batching, "CHUNK_TOKENS", chunk),
        (graph_features, "STRUCTURE_CHUNK_ENTRIES", chunk),
    ]
    saved = [getattr(module, name) for module, name, __ in targets]
    for module, name, value in targets:
        if value is not None:
            setattr(module, name, value)
    try:
        yield
    finally:
        for (module, name, __), value in zip(targets, saved, strict=True):
            setattr(module, name, value)


def assert_rows_match_oracle(extractor, items):
    rows = extractor.featurise(items)
    assert rows.shape == (len(items), extractor.n_features)
    assert rows.dtype == np.float64
    for row, (term, contexts, doc_frequency) in zip(rows, items, strict=True):
        want = oracle.features_from_contexts(
            extractor, term, contexts, doc_frequency=doc_frequency
        )
        alone = extractor.featurise([(term, contexts, doc_frequency)])[0]
        assert row.tobytes() == want.tobytes(), (term, contexts, row, want)
        assert alone.tobytes() == want.tobytes(), (term, contexts, alone, want)


# Mixed case, so that the case-sensitive counts and the lower-cased
# TF-IDF columns see different vocabularies.
WORDS = st.sampled_from(["a", "A", "b", "B", "ab", "aB", "c", "zz", "Zz", "é", "1"])
CONTEXT = st.one_of(
    st.just([]),
    st.lists(WORDS, min_size=1, max_size=1),
    st.lists(WORDS, min_size=2, max_size=9),
)
ITEM = st.tuples(
    st.sampled_from(["t", "term", "two words"]),
    st.lists(CONTEXT, max_size=5),
    st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
)
EXTRACTOR = st.builds(
    PolysemyFeatureExtractor,
    feature_set=st.sampled_from(["all", "direct", "graph"]),
    graph_window=st.integers(min_value=1, max_value=6),
    community_seed=st.integers(min_value=0, max_value=3),
)


class TestFeaturiseMatchesPerTermCode:
    @given(
        items=st.lists(ITEM, max_size=8),
        extractor=EXTRACTOR,
        wavefront=st.sampled_from([1, None]),
        chunk=st.sampled_from([1, 24, None]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_per_term_bytes(self, items, extractor, wavefront, chunk):
        with batch_knobs(wavefront=wavefront, chunk=chunk):
            assert_rows_match_oracle(extractor, items)

    def test_empty_batch(self):
        rows = PolysemyFeatureExtractor().featurise([])
        assert rows.shape == (0, 23)

    @pytest.mark.parametrize("wavefront", [1, None])
    def test_scenario_training_batch(self, wavefront):
        # The terms and capped contexts build_polysemy_dataset featurises.
        scenario = make_enrichment_scenario(seed=1)
        extractor = PolysemyFeatureExtractor()
        records = scenario.corpus.index().occurrence_records(
            scenario.ontology.terms(), window=extractor.window
        )
        items = []
        for term in scenario.ontology.terms():
            occurrences = records.get(term, [])
            if len(occurrences) < 4:
                continue
            doc_frequency = len({doc_id for doc_id, __ in occurrences})
            n_kept = min(60, len(occurrences))
            step = len(occurrences) / n_kept
            kept = [occurrences[int(i * step)] for i in range(n_kept)]
            items.append((term, [tokens for __, tokens in kept], doc_frequency))
        assert len(items) >= 20
        with batch_knobs(wavefront=wavefront, chunk=None):
            assert_rows_match_oracle(extractor, items)
