"""Community detection: CSR graphs, Louvain and modularity.

networkx is the reference here: graphs are drawn with it, and Louvain's
modularity is checked against its greedy optimiser and its modularity.
"""

import networkx as nx
import numpy as np
import pytest

from repro.clustering import community
from repro.clustering.graphclust import graph_cluster
from repro.clustering.louvain import (
    CSRGraph,
    louvain_labels,
    modularity_from_labels,
)
from repro.errors import ClusteringError
from repro.polysemy.features import PolysemyFeatureExtractor

from graph_oracles import csr_from_networkx


def random_weighted_graph(seed, n=None, p=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60)) if n is None else n
    p = float(rng.uniform(0.08, 0.4)) if p is None else p
    graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(10**6)))
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.integers(1, 6))
    return graph


def two_cliques_graph(size=6, bridge_weight=0.5):
    """Two dense cliques joined by one weak edge — unambiguous communities."""
    graph = nx.Graph()
    left = [f"l{i}" for i in range(size)]
    right = [f"r{i}" for i in range(size)]
    for group in (left, right):
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v, weight=2.0)
    graph.add_edge(left[0], right[0], weight=bridge_weight)
    return graph


class TestCSRGraph:
    def test_from_networkx_matches_weighted_degree(self):
        graph = random_weighted_graph(seed=1)
        csr = csr_from_networkx(graph)
        nx_degrees = np.array(
            [d for __, d in graph.degree(weight="weight")], dtype=np.float64
        )
        assert csr.n_nodes == graph.number_of_nodes()
        np.testing.assert_allclose(csr.strengths(), nx_degrees)
        assert csr.total_weight() == pytest.approx(
            2.0 * sum(w for __, __, w in graph.edges(data="weight"))
        )

    def test_self_loop_follows_degree_convention(self):
        graph = nx.Graph()
        graph.add_edge(0, 0, weight=3.0)
        graph.add_edge(0, 1, weight=1.0)
        csr = csr_from_networkx(graph)
        nx_degrees = np.array(
            [d for __, d in graph.degree(weight="weight")], dtype=np.float64
        )
        np.testing.assert_allclose(csr.strengths(), nx_degrees)

    def test_misaligned_edge_arrays_rejected(self):
        with pytest.raises(ClusteringError):
            CSRGraph.from_edges(
                3,
                np.array([0, 1]),
                np.array([1]),
                np.array([1.0]),
            )


class TestLouvainLabels:
    def test_empty_graph(self):
        csr = CSRGraph.from_edges(0, np.array([]), np.array([]), np.array([]))
        assert louvain_labels(csr).shape == (0,)

    def test_edgeless_graph_is_singletons(self):
        csr = CSRGraph.from_edges(4, np.array([]), np.array([]), np.array([]))
        np.testing.assert_array_equal(louvain_labels(csr), np.arange(4))

    def test_labels_are_contiguous_and_cover_all_nodes(self):
        for seed in range(5):
            graph = random_weighted_graph(seed=seed)
            csr = csr_from_networkx(graph)
            labels = louvain_labels(csr, seed=seed)
            assert labels.shape == (graph.number_of_nodes(),)
            observed = sorted(set(int(v) for v in labels))
            assert observed == list(range(int(labels.max()) + 1))

    def test_deterministic_under_fixed_seed(self):
        for seed in range(5):
            graph = random_weighted_graph(seed=100 + seed)
            csr = csr_from_networkx(graph)
            first = louvain_labels(csr, seed=3)
            second = louvain_labels(csr, seed=3)
            np.testing.assert_array_equal(first, second)

    def test_splits_two_cliques(self):
        graph = two_cliques_graph()
        csr = csr_from_networkx(graph)
        labels = louvain_labels(csr, seed=0)
        nodes = list(graph.nodes())
        left = {labels[i] for i, n in enumerate(nodes) if n.startswith("l")}
        right = {labels[i] for i, n in enumerate(nodes) if n.startswith("r")}
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_quality_parity_with_greedy(self):
        # Louvain must match greedy modularity within tolerance on
        # random graphs (it usually wins; it must never collapse).
        for seed in range(8):
            graph = random_weighted_graph(seed=200 + seed)
            if graph.number_of_edges() == 0:
                continue
            csr = csr_from_networkx(graph)
            labels = louvain_labels(csr, seed=0)
            q_louvain = modularity_from_labels(csr, labels)
            greedy = nx.algorithms.community.greedy_modularity_communities(
                graph, weight="weight"
            )
            q_greedy = nx.algorithms.community.modularity(
                graph, greedy, weight="weight"
            )
            assert q_louvain >= q_greedy - 0.05, (seed, q_louvain, q_greedy)


class TestModularityFromLabels:
    def test_matches_networkx_on_random_partitions(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            graph = random_weighted_graph(seed=300 + seed)
            if graph.number_of_edges() == 0:
                continue
            csr = csr_from_networkx(graph)
            n = graph.number_of_nodes()
            labels = rng.integers(0, max(2, n // 3), size=n)
            nodes = list(graph.nodes())
            groups = {}
            for node, label in zip(nodes, labels):
                groups.setdefault(int(label), set()).add(node)
            expected = nx.algorithms.community.modularity(
                graph, list(groups.values()), weight="weight"
            )
            measured = modularity_from_labels(
                csr, np.asarray(labels, dtype=np.int64)
            )
            assert measured == pytest.approx(expected, abs=1e-12)

    def test_rejects_misaligned_labels(self):
        csr = CSRGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0])
        )
        with pytest.raises(ClusteringError):
            modularity_from_labels(csr, np.array([0, 1]))


class TestCommunitySeam:
    def test_consumers_call_louvain_through_the_seam(self, monkeypatch):
        # A harness substitutes the seam's functions (the benchmark's
        # tracer times Louvain so); both consumers must look them up.
        calls = []

        def spy(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        for name in ("louvain_labels", "louvain_labels_many"):
            monkeypatch.setattr(
                community, name, spy(name, getattr(community, name))
            )
        graph_cluster(np.random.default_rng(0).random((12, 4)), 2, seed=0)
        PolysemyFeatureExtractor(feature_set="graph").features_from_contexts(
            "t", [("a", "b", "c", "a"), ("c", "d", "e")]
        )
        assert calls == ["louvain_labels", "louvain_labels_many"]
