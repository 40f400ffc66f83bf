"""Step III's context matrices against the references they replaced.

``bow_representation`` reads its TF-IDF rows from
``repro.polysemy.batch.tfidf_matrices`` and ``graph_representation``
its adjacency from ``build_context_graphs``, folded onto lower-cased
words.  The references in ``tests/context_oracles.py`` are the routes
they replaced: the scipy-sparse vectoriser and the co-occurrence double
loop.  Every matrix must equal its reference byte for byte, with the
same shape and dtype, and ``SenseInducer.induce``, which builds the
bag-of-words rows once, must read the same matrices and name each
sense's top features with the reference's column words.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.senses.induction import SenseInducer
from repro.senses.predictor import SenseCountPredictor
from repro.senses.representation import (
    REPRESENTATION_NAMES,
    bow_representation,
    graph_representation,
)

import context_oracles as reference

WORDS = ("cornea", "injury", "ulcer", "the", "of", "lens")
TOKENS = (
    st.sampled_from(WORDS)
    | st.sampled_from(WORDS).map(str.title)
    | st.sampled_from(WORDS).map(str.upper)
)
CONTEXTS = st.lists(st.lists(TOKENS, max_size=12), min_size=1, max_size=30)


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestRepresentationsMatchReference:
    @given(
        contexts=CONTEXTS,
        window=st.integers(min_value=1, max_value=5),
        diffusion=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bow_and_graph_rows(self, contexts, window, diffusion):
        assert_same_array(
            bow_representation(contexts), reference.bow_representation(contexts)
        )
        assert_same_array(
            graph_representation(contexts, diffusion=diffusion, window=window),
            reference.graph_representation(
                contexts, diffusion=diffusion, window=window
            ),
        )

    @pytest.mark.parametrize(
        "contexts, shape",
        [
            ([("a",)], (1, 1)),
            ([()], (1, 0)),
            ([(), ()], (2, 0)),
            ([("A", "a"), ("a",)], (2, 1)),
        ],
        ids=["one-token", "one-empty-context", "two-empty-contexts", "one-word"],
    )
    def test_degenerate_contexts(self, contexts, shape):
        for representation in (bow_representation, graph_representation):
            got = representation(contexts)
            assert got.shape == shape
        assert_same_array(
            bow_representation(contexts), reference.bow_representation(contexts)
        )
        assert_same_array(
            graph_representation(contexts),
            reference.graph_representation(contexts),
        )

    def test_one_token_is_a_unit_row(self):
        assert bow_representation([("a",)]).tolist() == [[1.0]]


class TestInducerReadsTheReferenceMatrices:
    @given(
        contexts=st.lists(
            st.lists(TOKENS, min_size=1, max_size=12), min_size=2, max_size=30
        ),
        representation=st.sampled_from(REPRESENTATION_NAMES),
        polysemic=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_prediction_labels_and_top_features(
        self, contexts, representation, polysemic
    ):
        predictor = SenseCountPredictor(representation=representation, seed=0)
        result = SenseInducer(predictor, n_top_features=4).induce(
            "term", contexts, polysemic=polysemic
        )

        vectorizer = reference.TfidfVectorizer()
        bow = vectorizer.fit_transform(contexts).toarray()
        names = vectorizer.feature_names()
        if polysemic:
            matrix = (
                bow
                if representation == "bow"
                else reference.graph_representation(contexts)
            )
            expected = predictor.predict_from_matrix(matrix)
            assert result.prediction is not None
            assert result.k == expected.k
            assert {
                k: v.hex() for k, v in result.prediction.index_values.items()
            } == {k: v.hex() for k, v in expected.index_values.items()}
            labels = expected.labels_by_k[expected.k]
            for sense in result.senses:
                members = np.flatnonzero(labels == sense.sense_id)
                assert sense.context_indices == tuple(members.tolist())
        else:
            assert result.prediction is None and result.k == 1

        for sense in result.senses:
            if not sense.context_indices:
                assert sense.top_features == ()
                continue
            centroid = bow[list(sense.context_indices)].mean(axis=0)
            order = np.argsort(-centroid)
            assert sense.top_features == tuple(
                names[int(i)] for i in order[:4] if centroid[int(i)] > 0
            )
