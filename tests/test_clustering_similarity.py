"""Tests for repro.clustering.similarity, model, criterion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.criterion import criterion_value
from repro.clustering.model import ClusterSolution, ClusterStats, relabel_contiguous
from repro.clustering.similarity import (
    cosine_similarity_matrix,
    isim_esim,
    normalize_rows,
)
from repro.errors import ClusteringError


def two_blob_matrix(n_per=5):
    """Two orthogonal groups of near-identical unit vectors."""
    a = np.tile([1.0, 0.0, 0.0, 0.0], (n_per, 1))
    b = np.tile([0.0, 0.0, 1.0, 0.0], (n_per, 1))
    return np.vstack([a, b])


class TestNormalizeRows:
    def test_dense_unit_norms(self):
        m = np.array([[3.0, 4.0], [1.0, 0.0]])
        unit = normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0)

    def test_zero_rows_survive(self):
        unit = normalize_rows(np.zeros((2, 3)))
        np.testing.assert_array_equal(unit, np.zeros((2, 3)))

    def test_original_not_mutated(self):
        m = np.array([[2.0, 0.0]])
        normalize_rows(m)
        assert m[0, 0] == 2.0

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            normalize_rows(np.zeros(3))


class TestCosineSimilarityMatrix:
    def test_self_similarity_one(self):
        sims = cosine_similarity_matrix(two_blob_matrix())
        np.testing.assert_allclose(np.diag(sims), 1.0)

    def test_orthogonal_groups(self):
        sims = cosine_similarity_matrix(two_blob_matrix(3))
        assert sims[0, 3] == pytest.approx(0.0)
        assert sims[0, 1] == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 4))
        sims = cosine_similarity_matrix(m)
        np.testing.assert_allclose(sims, sims.T, atol=1e-12)


class TestIsimEsim:
    def test_perfect_split(self):
        m = two_blob_matrix(4)
        labels = np.array([0] * 4 + [1] * 4)
        sizes, isim, esim = isim_esim(m, labels)
        np.testing.assert_array_equal(sizes, [4, 4])
        np.testing.assert_allclose(isim, 1.0)
        np.testing.assert_allclose(esim, 0.0, atol=1e-12)

    def test_merged_cluster_isim_lower(self):
        m = two_blob_matrix(4)
        labels = np.zeros(8, dtype=int)
        __, isim, __ = isim_esim(m, labels)
        # Half the pairs are cross-group (similarity 0): ISIM = 0.5.
        assert isim[0] == pytest.approx(0.5)

    def test_esim_of_single_cluster_zero(self):
        m = two_blob_matrix(2)
        __, __, esim = isim_esim(m, np.zeros(4, dtype=int))
        assert esim[0] == 0.0

    def test_singleton_cluster_isim_one(self):
        m = normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sizes, isim, __ = isim_esim(m, np.array([0, 1]))
        np.testing.assert_allclose(isim, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            isim_esim(two_blob_matrix(2), np.zeros(3, dtype=int))

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_isim_bounded_for_nonnegative_data(self, n, seed):
        rng = np.random.default_rng(seed)
        m = normalize_rows(np.abs(rng.normal(size=(n, 4))) + 1e-9)
        labels = rng.integers(0, 2, size=n)
        labels[0] = 0
        labels[-1] = 1 if n > 1 else 0
        labels, k = relabel_contiguous(labels)
        __, isim, esim = isim_esim(m, labels)
        assert np.all(isim <= 1.0 + 1e-9)
        assert np.all(isim >= -1e-9)
        assert np.all(esim >= -1e-9)


class TestClusterModel:
    def test_stats_from_labels(self):
        m = two_blob_matrix(3)
        labels = np.array([0, 0, 0, 1, 1, 1])
        stats = ClusterStats.from_labels(m, labels)
        assert stats.k == 2
        assert stats.n == 6
        assert stats.mean_isim() == pytest.approx(1.0)
        assert stats.mean_esim() == pytest.approx(0.0, abs=1e-12)

    def test_solution_validation(self):
        with pytest.raises(ClusteringError):
            ClusterSolution(labels=np.array([0, 2]), k=2)
        with pytest.raises(ClusteringError):
            ClusterSolution(labels=np.array([[0], [1]]), k=2)
        with pytest.raises(ClusteringError):
            ClusterSolution(labels=np.array([-1, 0]), k=2)

    def test_solution_helpers(self):
        sol = ClusterSolution(labels=np.array([0, 1, 0]), k=2)
        np.testing.assert_array_equal(sol.cluster_members(0), [0, 2])
        np.testing.assert_array_equal(sol.sizes(), [2, 1])
        with pytest.raises(ClusteringError):
            sol.cluster_members(5)

    def test_with_stats(self):
        m = two_blob_matrix(2)
        sol = ClusterSolution(labels=np.array([0, 0, 1, 1]), k=2)
        assert sol.stats is None
        enriched = sol.with_stats(m)
        assert enriched.stats is not None
        assert enriched.stats.k == 2

    def test_relabel_contiguous(self):
        labels, k = relabel_contiguous(np.array([5, 5, 9, 5, 2]))
        np.testing.assert_array_equal(labels, [0, 0, 1, 0, 2])
        assert k == 3


class TestCriterion:
    def test_i2_prefers_true_split(self):
        m = two_blob_matrix(4)
        good = np.array([0] * 4 + [1] * 4)
        bad = np.array([0, 1] * 4)
        assert criterion_value(m, good, "i2") > criterion_value(m, bad, "i2")

    def test_i2_value_on_perfect_clusters(self):
        m = two_blob_matrix(3)
        labels = np.array([0] * 3 + [1] * 3)
        # Each composite vector has norm 3 → I2 = 6.
        assert criterion_value(m, labels, "i2") == pytest.approx(6.0)

    def test_i1_equals_n_for_perfect_clusters(self):
        m = two_blob_matrix(3)
        labels = np.array([0] * 3 + [1] * 3)
        assert criterion_value(m, labels, "i1") == pytest.approx(6.0)

    def test_e1_lower_for_better_split(self):
        m = two_blob_matrix(4)
        good = np.array([0] * 4 + [1] * 4)
        bad = np.array([0, 1] * 4)
        assert criterion_value(m, good, "e1") < criterion_value(m, bad, "e1")

    def test_h2_is_ratio(self):
        m = two_blob_matrix(2)
        labels = np.array([0, 0, 1, 1])
        h2 = criterion_value(m, labels, "h2")
        i2 = criterion_value(m, labels, "i2")
        e1 = criterion_value(m, labels, "e1")
        assert h2 == pytest.approx(i2 / e1)

    def test_unknown_criterion(self):
        with pytest.raises(ClusteringError):
            criterion_value(two_blob_matrix(2), np.zeros(4, dtype=int), "x9")

    def test_length_mismatch(self):
        with pytest.raises(ClusteringError):
            criterion_value(two_blob_matrix(2), np.zeros(3, dtype=int), "i2")
