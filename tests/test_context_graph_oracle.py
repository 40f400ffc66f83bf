"""Step II context graphs built into CSR against a networkx oracle.

The oracle grows a networkx graph token by token and reads the 12
features through networkx: node and edge counts, degrees and density
from networkx, communities from the backend's networkx interface.  The
CSR builder must reproduce its arrays, its node order and every feature
byte for byte, under both community backends.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.community import get_community_backend
from repro.clustering.louvain import CSRGraph, modularity_from_labels
from repro.polysemy import graph_features as gf
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.polysemy.graph_features import (
    ContextGraph,
    build_context_graph,
    graph_features,
)

from per_term_featuriser import _binary_adjacency, _clustering_and_transitivity


def networkx_context_graph(contexts, *, window=4, min_weight=1.0):
    """The networkx context-graph builder, token by token."""
    graph = nx.Graph()
    for context in contexts:
        tokens = list(context)
        n = len(tokens)
        for i, left in enumerate(tokens):
            graph.add_node(left)
            for j in range(i + 1, min(i + window, n)):
                right = tokens[j]
                if left == right:
                    continue
                if graph.has_edge(left, right):
                    graph[left][right]["weight"] += 1.0
                else:
                    graph.add_edge(left, right, weight=1.0)
    if min_weight > 1.0:
        drop = [
            (u, v) for u, v, w in graph.edges(data="weight") if w < min_weight
        ]
        graph.remove_edges_from(drop)
        graph.remove_nodes_from([n for n in graph if graph.degree(n) == 0])
    return graph


def networkx_graph_features(graph, *, backend="louvain", seed=0):
    """The 12 features of a networkx context graph, read through networkx."""
    n_nodes = graph.number_of_nodes()
    n_edges = graph.number_of_edges()
    if n_nodes == 0:
        return np.zeros(12, dtype=np.float64)
    csr = CSRGraph.from_networkx(graph, weight="weight")
    adjacency = _binary_adjacency(csr)
    degrees = np.array([d for __, d in graph.degree()], dtype=np.float64)
    density = nx.density(graph) if n_nodes > 1 else 0.0
    if n_nodes > 1:
        avg_clustering, transitivity = _clustering_and_transitivity(
            adjacency
        )
    else:
        avg_clustering, transitivity = 0.0, 0.0
    if n_nodes <= 2:
        transitivity = 0.0
    n_components, component_labels = gf._csgraph_components(
        adjacency, directed=False
    )
    largest = np.bincount(component_labels, minlength=n_components).max()
    if n_edges > 0:
        resolved = get_community_backend(backend)
        if hasattr(resolved, "labels_from_csr"):
            labels = resolved.labels_from_csr(csr, seed=seed)
        else:
            node_index = {node: i for i, node in enumerate(graph.nodes())}
            labels = np.empty(n_nodes, dtype=np.int64)
            communities = resolved.communities(graph, weight="weight", seed=seed)
            for cid, community in enumerate(communities):
                for node in community:
                    labels[node_index[node]] = cid
        n_communities = int(labels.max()) + 1
        modularity = modularity_from_labels(csr, labels)
        sizes = np.bincount(labels, minlength=n_communities)
        community_entropy = gf._entropy(sizes.astype(np.float64))
    else:
        n_communities = n_components
        modularity = 0.0
        community_entropy = 0.0
    return np.array(
        [
            math.log1p(n_nodes),
            math.log1p(n_edges),
            density,
            float(degrees.mean()),
            gf._entropy(degrees),
            avg_clustering,
            transitivity,
            float(n_components),
            float(largest) / n_nodes,
            float(n_communities),
            float(modularity),
            community_entropy,
        ],
        dtype=np.float64,
    )


def assert_matches_oracle(contexts, *, window, min_weight):
    oracle = networkx_context_graph(
        contexts, window=window, min_weight=min_weight
    )
    graph = build_context_graph(contexts, window=window, min_weight=min_weight)
    expected = CSRGraph.from_networkx(oracle, weight="weight")
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(graph.csr, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert list(graph.nodes) == list(oracle)
    for backend in ("louvain", "greedy"):
        got = graph_features(graph, backend=backend)
        want = networkx_graph_features(oracle, backend=backend)
        assert got.tobytes() == want.tobytes(), (backend, got, want)


WORDS = st.sampled_from([f"w{i}" for i in range(12)])
CONTEXTS = st.lists(st.lists(WORDS, max_size=9), max_size=8)


class TestContextGraphMatchesNetworkx:
    @given(
        contexts=CONTEXTS,
        window=st.integers(min_value=1, max_value=6),
        min_weight=st.sampled_from([1.0, 2.0, 3.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_arrays_labels_and_features(self, contexts, window, min_weight):
        assert_matches_oracle(contexts, window=window, min_weight=min_weight)

    @pytest.mark.parametrize(
        "contexts",
        [
            [],
            [[]],
            [["solo"]],
            [["a", "a", "a"], ["a"]],
            [["b", "a", "b", "a"], [], ["c"]],
        ],
        ids=["no-contexts", "empty-context", "one-token", "one-word", "mixed"],
    )
    @pytest.mark.parametrize("min_weight", [1.0, 2.0, 3.0])
    def test_degenerate_contexts(self, contexts, min_weight):
        assert_matches_oracle(contexts, window=4, min_weight=min_weight)

    def test_greedy_ties_break_on_word_labels(self):
        # A six-word cycle: every merge of the greedy heap ties, and
        # networkx breaks the ties by comparing node labels.  Word
        # labels give two communities; first-appearance ids would give
        # three.
        contexts = [("q", "b", "z", "a", "m", "c", "q")]
        assert_matches_oracle(contexts, window=2, min_weight=1.0)
        graph = build_context_graph(contexts, window=2)
        by_id = ContextGraph(
            csr=graph.csr, nodes=tuple(range(len(graph.nodes)))
        )
        n_communities = list(gf.GRAPH_FEATURE_NAMES).index("n_communities")
        assert graph_features(graph, backend="greedy")[n_communities] == 2.0
        assert graph_features(by_id, backend="greedy")[n_communities] == 3.0


class TestContextGraph:
    def test_to_networkx_round_trips(self):
        contexts = [("x", "y", "z", "y"), ("z", "w")]
        oracle = networkx_context_graph(contexts)
        rebuilt = build_context_graph(contexts).to_networkx()
        assert list(rebuilt) == list(oracle)
        assert sorted(rebuilt.edges(data="weight")) == sorted(
            oracle.edges(data="weight")
        )

    def test_default_backend_builds_no_networkx_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default Step II path built a networkx graph")

        monkeypatch.setattr(nx, "Graph", refuse)
        extractor = PolysemyFeatureExtractor()
        contexts = [("a", "b", "c", "a"), ("c", "d", "e"), ("e", "f")]
        vector = extractor.features_from_contexts("t", contexts)
        assert vector.shape == (23,)
        assert np.all(np.isfinite(vector))
