"""Step II context graphs built into CSR against a networkx oracle.

The oracle grows a networkx graph token by token and reads the 12
features through networkx: node and edge counts, degrees and density
from networkx, and Louvain communities on the graph converted in
networkx's node order.  The CSR builder must reproduce its arrays, its
node order and every feature byte for byte.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.louvain import louvain_labels, modularity_from_labels
from repro.polysemy import graph_features as gf
from repro.polysemy.graph_features import build_context_graph, graph_features

from graph_oracles import csr_from_networkx
from per_term_featuriser import _binary_adjacency, _clustering_and_transitivity


def networkx_context_graph(contexts, *, window=4):
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
    return graph


def networkx_graph_features(graph, *, seed=0):
    """The 12 features of a networkx context graph, read through networkx."""
    n_nodes = graph.number_of_nodes()
    n_edges = graph.number_of_edges()
    if n_nodes == 0:
        return np.zeros(12, dtype=np.float64)
    csr = csr_from_networkx(graph, weight="weight")
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
        labels = louvain_labels(csr, seed=seed)
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


def assert_matches_oracle(contexts, *, window):
    oracle = networkx_context_graph(contexts, window=window)
    graph = build_context_graph(contexts, window=window)
    expected = csr_from_networkx(oracle, weight="weight")
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(graph.csr, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert list(graph.nodes) == list(oracle)
    got = graph_features(graph)
    want = networkx_graph_features(oracle)
    assert got.tobytes() == want.tobytes(), (got, want)


WORDS = st.sampled_from([f"w{i}" for i in range(12)])
CONTEXTS = st.lists(st.lists(WORDS, max_size=9), max_size=8)


class TestContextGraphMatchesNetworkx:
    @given(contexts=CONTEXTS, window=st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_arrays_labels_and_features(self, contexts, window):
        assert_matches_oracle(contexts, window=window)

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
    def test_degenerate_contexts(self, contexts):
        assert_matches_oracle(contexts, window=4)
