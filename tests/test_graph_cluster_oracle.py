"""Step III's ``graph`` clustering against its networkx oracle.

The oracle is the route ``graph_cluster`` took through networkx: the
kNN graph grown edge by edge with ``add_edge`` (a pair both rows pick
keeps the weight the later row wrote), converted to CSR in networkx's
node order, partitioned by Louvain, then sorted into communities
(largest first), labelled and relabelled by first appearance.  The kNN
graph built straight into CSR must equal the converted oracle array
for array, and ``graph_cluster`` must return the oracle's labels.
"""

from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clustering import graphclust
from repro.clustering.graphclust import build_knn_graph, graph_cluster
from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.louvain import louvain_labels
from repro.clustering.model import relabel_contiguous
from repro.clustering.similarity import cosine_similarity_matrix
from repro.utils.rng import ensure_rng

from graph_oracles import csr_from_networkx


def networkx_knn_graph(sims, n_neighbors):
    """The kNN graph as networkx grew it."""
    n = sims.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    order = np.argsort(-sims, axis=1)
    for i in range(n):
        added = 0
        for j in order[i]:
            j = int(j)
            if j == i:
                continue
            weight = float(sims[i, j])
            if weight <= 0.0:
                break
            graph.add_edge(i, j, weight=max(weight, 1e-12))
            added += 1
            if added >= n_neighbors:
                break
    return graph


def networkx_community_labels(graph, rng):
    """Louvain communities of a networkx graph, as labels per node."""
    nodes = list(graph.nodes())
    labels = louvain_labels(csr_from_networkx(graph), seed=rng)
    groups = {}
    for node, label in zip(nodes, labels, strict=True):
        groups.setdefault(int(label), set()).add(node)
    first_seen = {node: i for i, node in enumerate(nodes)}
    communities = sorted(
        groups.values(),
        key=lambda c: (-len(c), min(first_seen[node] for node in c)),
    )
    out = np.zeros(len(nodes), dtype=np.int64)
    for cid, community in enumerate(communities):
        for node in community:
            out[node] = cid
    return relabel_contiguous(out)


def oracle_graph_cluster(matrix, sims, k, *, n_neighbors, seed):
    """``graph_cluster`` over the networkx route, given the similarities."""
    n = sims.shape[0]
    rng = ensure_rng(seed)
    graph = networkx_knn_graph(sims, min(n_neighbors, n - 1))
    labels, n_found = networkx_community_labels(graph, rng)
    while n_found > k:
        members = [np.where(labels == i)[0] for i in range(n_found)]
        best_pair, best_sim = None, -np.inf
        for a in range(n_found):
            for b in range(a + 1, n_found):
                inter = float(sims[np.ix_(members[a], members[b])].mean())
                if inter > best_sim:
                    best_pair, best_sim = (a, b), inter
        a, b = best_pair
        labels[labels == b] = a
        labels, n_found = relabel_contiguous(labels)
    while n_found < k:
        members = [np.where(labels == i)[0] for i in range(n_found)]
        internal = [
            float(sims[np.ix_(m, m)].mean()) if m.size >= 2 else np.inf
            for m in members
        ]
        target_members = members[int(np.argmin(internal))]
        split = spherical_kmeans(matrix[target_members], 2, seed=rng)
        labels[target_members[split.labels == 1]] = n_found
        labels, n_found = relabel_contiguous(labels)
    return labels


# Few distinct values, so rows tie; zeros and negatives stop the walk.
VALUES = st.sampled_from([-0.5, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0])


@st.composite
def similarities(draw, max_rows=25):
    """An asymmetric, tie-rich (n, n) similarity matrix."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    flat = draw(st.lists(VALUES, min_size=n * n, max_size=n * n))
    return np.array(flat, dtype=np.float64).reshape(n, n)


@st.composite
def cluster_cases(draw):
    """(data, similarities or None, k, n_neighbors, seed)."""
    n = draw(st.integers(min_value=1, max_value=25))
    d = draw(st.integers(min_value=1, max_value=5))
    entries = st.sampled_from([-1.0, 0.0, 1.0, 1.0, 2.0])
    flat = draw(st.lists(entries, min_size=n * d, max_size=n * d))
    matrix = np.array(flat, dtype=np.float64).reshape(n, d)
    sims = None
    if draw(st.booleans()):
        flat = draw(st.lists(VALUES, min_size=n * n, max_size=n * n))
        sims = np.array(flat, dtype=np.float64).reshape(n, n)
    k = draw(st.integers(min_value=1, max_value=n))
    n_neighbors = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return matrix, sims, k, n_neighbors, seed


class TestKnnGraphMatchesNetworkx:
    @given(
        sims=similarities(),
        n_neighbors=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_csr_arrays_are_the_oracle_bytes(self, sims, n_neighbors):
        got = build_knn_graph(sims, n_neighbors)
        want = csr_from_networkx(networkx_knn_graph(sims, n_neighbors))
        for name in ("indptr", "indices", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), (name, a, b)


class TestGraphClusterMatchesNetworkx:
    @given(case=cluster_cases(), generator=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_labels_are_the_oracle_labels(self, case, generator):
        matrix, sims, k, n_neighbors, seed = case
        if sims is None:
            sims = cosine_similarity_matrix(matrix)

        def make_seed():
            return np.random.default_rng(seed) if generator else seed

        want = oracle_graph_cluster(
            matrix, sims, k, n_neighbors=n_neighbors, seed=make_seed()
        )
        # graph_cluster reads the similarities the oracle was given,
        # asymmetric ones included.
        with mock.patch.object(
            graphclust, "cosine_similarity_matrix", lambda __: sims
        ):
            got = graph_cluster(
                matrix, k, n_neighbors=n_neighbors, seed=make_seed()
            ).labels
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
