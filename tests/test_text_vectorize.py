"""Tests for repro.text.vectorize and the TF-IDF rows built through it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.senses.representation import bow_representation
from repro.text.vectorize import idf_weight

DOCS = [
    ["corneal", "injury", "heals"],
    ["corneal", "disease", "progresses"],
    ["eye", "injury", "report"],
]


def columns(contexts):
    """Column words of ``bow_representation(contexts)``: sorted lower-cased."""
    return sorted({token.lower() for context in contexts for token in context})


class TestBowVectorizer:
    """Counting properties of Step III's bag-of-words rows."""

    def test_shape_and_counts(self):
        matrix = bow_representation(DOCS)
        names = columns(DOCS)
        assert matrix.shape == (3, len(names))
        col = names.index("corneal")
        assert matrix[0, col] > 0.0
        assert matrix[2, col] == 0.0

    def test_counts_repeated_tokens(self):
        # One context: every word has the same idf, so weights follow counts.
        matrix = bow_representation([["a", "A", "b"]])
        assert columns([["a", "A", "b"]]) == ["a", "b"]
        assert matrix[0, 0] == pytest.approx(2.0 * matrix[0, 1])


class TestTfidfVectorizer:
    """TF-IDF properties of Step III's bag-of-words rows.

    ``bow_representation`` weighs (context, word) counts through
    ``unit_tfidf``, the TF-IDF every workflow step uses.
    """

    def test_rows_unit_norm(self):
        matrix = bow_representation(DOCS)
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_rare_terms_outweigh_common(self):
        docs = [["common", "rare1"], ["common", "x"], ["common", "y"]]
        matrix = bow_representation(docs)
        names = columns(docs)
        assert (
            matrix[0, names.index("rare1")] > matrix[0, names.index("common")]
        )

    def test_idf_vector_matches_formula(self):
        # Every word of the first context occurs once in it, so its row is
        # the smoothed idf of those words, scaled to unit norm.
        matrix = bow_representation(DOCS)
        names = columns(DOCS)
        words = DOCS[0]
        df = np.array([sum(w in doc for doc in DOCS) for w in words])
        idf = np.log((1 + 3) / (1 + df)) + 1.0
        expected = idf / np.linalg.norm(idf)
        got = matrix[0, [names.index(w) for w in words]]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert np.count_nonzero(matrix[0]) == len(words)

    @given(
        st.lists(
            st.lists(st.sampled_from(["t1", "t2", "T3", "t4"]), min_size=1, max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_transform_is_deterministic(self, docs):
        first = bow_representation(docs)
        again = bow_representation([tuple(doc) for doc in docs])
        assert first.tobytes() == again.tobytes()
        assert first.shape == (len(docs), len(columns(docs)))


class TestIdfWeight:
    def test_monotone_in_df(self):
        assert idf_weight(100, 1) > idf_weight(100, 50)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            idf_weight(0, 1)
        with pytest.raises(ValueError):
            idf_weight(10, -1)
