"""Tests for the five clustering algorithms (rb, rbr, direct, agglo, graph)."""

import numpy as np
import pytest

from repro.clustering.algorithms import ALGORITHM_NAMES, cluster
from repro.clustering.indexes import compute_index, index_names
from repro.clustering.bisecting import repeated_bisection
from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterSolution
from repro.errors import ClusteringError


def blobs(k=3, n_per=12, d=16, noise=0.05, seed=0):
    """k well-separated groups of noisy unit vectors + true labels."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((k, d))
    for i in range(k):
        centers[i, i * (d // k) : (i + 1) * (d // k)] = 1.0
    rows, labels = [], []
    for i in range(k):
        for _ in range(n_per):
            row = centers[i] + noise * np.abs(rng.normal(size=d))
            rows.append(row)
            labels.append(i)
    return np.array(rows), np.array(labels)


def agreement(pred, true) -> float:
    """Fraction of object pairs on which two labelings agree (Rand index)."""
    n = len(pred)
    same_pred = pred[:, None] == pred[None, :]
    same_true = true[:, None] == true[None, :]
    mask = ~np.eye(n, dtype=bool)
    return float((same_pred == same_true)[mask].mean())


class TestAlgorithmsRecoverBlobs:
    @pytest.mark.parametrize("method", ALGORITHM_NAMES)
    def test_recovers_three_blobs(self, method):
        matrix, true = blobs(k=3, seed=1)
        solution = cluster(matrix, 3, method=method, seed=0)
        assert solution.k == 3
        assert agreement(solution.labels, true) > 0.95

    @pytest.mark.parametrize("method", ALGORITHM_NAMES)
    def test_input_is_only_read(self, method):
        # Step III clusters the rows it later reads its top features
        # from, so a write into the input would change the report: on a
        # read-only array it raises instead.
        matrix, __ = blobs(k=3, n_per=6, seed=2)
        before = matrix.tobytes()
        matrix.flags.writeable = False
        solution = cluster(matrix, 3, method=method, seed=0)
        for name in index_names():
            compute_index(name, matrix, solution.labels, stats=solution.stats)
        assert matrix.tobytes() == before

    @pytest.mark.parametrize("method", ALGORITHM_NAMES)
    def test_labels_contiguous_and_complete(self, method):
        matrix, __ = blobs(k=4, n_per=6, seed=3)
        solution = cluster(matrix, 4, method=method, seed=1)
        assert set(solution.labels.tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("method", ALGORITHM_NAMES)
    def test_stats_attached(self, method):
        matrix, __ = blobs(k=2, n_per=5, seed=4)
        solution = cluster(matrix, 2, method=method, seed=0)
        assert solution.stats is not None
        assert solution.stats.k == 2
        assert solution.stats.mean_isim() > solution.stats.mean_esim()

    def test_unknown_method(self):
        matrix, __ = blobs()
        with pytest.raises(ClusteringError, match="unknown method"):
            cluster(matrix, 2, method="magic")


class TestSphericalKmeans:
    def test_k_equals_one(self):
        matrix, __ = blobs(k=2, n_per=4)
        solution = spherical_kmeans(matrix, 1, seed=0)
        assert solution.k == 1
        assert np.all(solution.labels == 0)

    def test_k_equals_n_all_singletons(self):
        matrix, __ = blobs(k=2, n_per=2, noise=0.2)
        solution = spherical_kmeans(matrix, matrix.shape[0], seed=0)
        assert len(set(solution.labels.tolist())) == matrix.shape[0]

    def test_bad_k_raises(self):
        matrix, __ = blobs(k=2, n_per=2)
        with pytest.raises(ClusteringError):
            spherical_kmeans(matrix, 0)
        with pytest.raises(ClusteringError):
            spherical_kmeans(matrix, 100)

    def test_deterministic_with_seed(self):
        matrix, __ = blobs(k=3, seed=5)
        a = spherical_kmeans(matrix, 3, seed=42)
        b = spherical_kmeans(matrix, 3, seed=42)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_warm_start_respected(self):
        matrix, true = blobs(k=2, n_per=6, seed=6)
        warm = spherical_kmeans(matrix, 2, init_labels=true)
        assert agreement(warm.labels, true) == 1.0

    def test_warm_start_length_checked(self):
        matrix, __ = blobs(k=2, n_per=3)
        with pytest.raises(ClusteringError):
            spherical_kmeans(matrix, 2, init_labels=np.zeros(3, dtype=int))

    def test_identical_points_still_k_clusters(self):
        matrix = np.tile([1.0, 0.0], (6, 1))
        solution = spherical_kmeans(matrix, 2, seed=0)
        assert solution.k == 2
        assert len(set(solution.labels.tolist())) == 2


class TestRepeatedBisection:
    def test_k_one_trivial(self):
        matrix, __ = blobs(k=2, n_per=3)
        solution = repeated_bisection(matrix, 1, seed=0)
        assert solution.k == 1

    def test_refine_flag_sets_algorithm_name(self):
        matrix, __ = blobs(k=2, n_per=5, seed=7)
        assert repeated_bisection(matrix, 2, refine=False, seed=0).algorithm == "rb"
        assert repeated_bisection(matrix, 2, refine=True, seed=0).algorithm == "rbr"

    def test_rbr_criterion_at_least_rb(self):
        from repro.clustering.criterion import criterion_value

        matrix, __ = blobs(k=4, n_per=8, noise=0.3, seed=8)
        rb = repeated_bisection(matrix, 4, refine=False, seed=3)
        rbr = repeated_bisection(matrix, 4, refine=True, seed=3)
        i2_rb = criterion_value(matrix, rb.labels, "i2")
        i2_rbr = criterion_value(matrix, rbr.labels, "i2")
        assert i2_rbr >= i2_rb - 1e-9

    def test_impossible_k(self):
        matrix = np.tile([1.0, 0.0], (3, 1))
        # identical points: splits still possible down to n clusters
        solution = repeated_bisection(matrix, 3, seed=0)
        assert solution.k == 3
        with pytest.raises(ClusteringError):
            repeated_bisection(matrix, 4, seed=0)


class TestGraphAndAgglo:
    def test_agglo_deterministic(self):
        from repro.clustering.agglomerative import agglomerative_cluster

        matrix, __ = blobs(k=3, n_per=5, seed=9)
        a = agglomerative_cluster(matrix, 3)
        b = agglomerative_cluster(matrix, 3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_graph_handles_exact_k_adjustment(self):
        from repro.clustering.graphclust import graph_cluster

        # Force k larger than natural community count.
        matrix, __ = blobs(k=2, n_per=10, seed=10)
        solution = graph_cluster(matrix, 5, seed=0)
        assert solution.k == 5
        assert len(set(solution.labels.tolist())) == 5

    def test_graph_merges_down_to_k(self):
        from repro.clustering.graphclust import graph_cluster

        matrix, __ = blobs(k=4, n_per=8, seed=11)
        solution = graph_cluster(matrix, 2, seed=0)
        assert solution.k == 2

    def test_agglo_bad_k(self):
        from repro.clustering.agglomerative import agglomerative_cluster

        matrix, __ = blobs(k=2, n_per=2)
        with pytest.raises(ClusteringError):
            agglomerative_cluster(matrix, 0)
