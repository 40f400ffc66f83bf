"""The 12 graph polysemy features.

The paper extracts 12 of its 23 features "from a graph itself induced from
the text corpus".  Here the graph for a term is the co-occurrence graph of
its context words: nodes are words appearing in the term's contexts,
edges weight within-context co-occurrence.  For a monosemous term this
graph is one dense community; for a polysemic term it splits into one
community per sense — community structure, connectivity, and degree
statistics capture that.

:func:`build_context_graph` builds the graph straight into
:class:`~repro.clustering.louvain.CSRGraph` arrays from token ids, and
:func:`graph_features` computes all 12 features on those arrays.
networkx appears only when the ``greedy`` community backend asks for a
networkx graph (:meth:`ContextGraph.to_networkx`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.clustering.community import CommunityBackend, get_community_backend
from repro.clustering.louvain import CSRGraph, modularity_from_labels

#: Feature names in vector order.
GRAPH_FEATURE_NAMES = (
    "log_n_nodes",
    "log_n_edges",
    "density",
    "mean_degree",
    "degree_entropy",
    "avg_clustering",
    "transitivity",
    "n_components",
    "largest_component_fraction",
    "n_communities",
    "modularity",
    "community_size_entropy",
)


@dataclass(frozen=True)
class ContextGraph:
    """A term's context co-occurrence graph: CSR arrays plus word labels.

    ``nodes[i]`` is the word of CSR node ``i``; nodes are numbered by
    first appearance over the concatenated contexts.  Context graphs
    have no self-loops.
    """

    csr: CSRGraph
    nodes: tuple[str, ...]

    def to_networkx(self) -> nx.Graph:
        """The same graph as a networkx graph labelled by word.

        Nodes keep first-appearance order and edges carry float
        ``weight``s; the ``greedy`` community backend reads this form.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        csr = self.csr
        rows = np.repeat(np.arange(csr.n_nodes, dtype=np.int64), np.diff(csr.indptr))
        upper = rows < csr.indices
        nodes = self.nodes
        graph.add_weighted_edges_from(
            (nodes[u], nodes[v], w)
            for u, v, w in zip(
                rows[upper].tolist(),
                csr.indices[upper].tolist(),
                csr.weights[upper].tolist(),
                strict=True,
            )
        )
        return graph


def build_context_graph(
    contexts: Sequence[Sequence[str]],
    *,
    window: int = 4,
    min_weight: float = 1.0,
) -> ContextGraph:
    """Co-occurrence graph over the words of ``contexts``.

    Inside each context, every token is paired with the next
    ``window - 1`` tokens; a pair's edge weight counts its occurrences
    and pairs of equal tokens add nothing.  When ``min_weight`` exceeds
    1, edges weighing less are pruned together with the nodes they
    leave isolated.
    """
    ids: dict[str, int] = {}
    codes = np.fromiter(
        (ids.setdefault(token, len(ids)) for ctx in contexts for token in ctx),
        dtype=np.int64,
    )
    n = len(ids)
    lengths = np.fromiter((len(ctx) for ctx in contexts), dtype=np.int64)
    # Tokens after each position inside its own context.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(codes.size) - 1
    keys = []
    for offset in range(1, window):
        fits = room[:-offset] >= offset
        left = codes[:-offset][fits]
        right = codes[offset:][fits]
        distinct = left != right
        left, right = left[distinct], right[distinct]
        keys.append(np.minimum(left, right) * n + np.maximum(left, right))
    edge_keys, counts = np.unique(
        np.concatenate(keys) if keys else np.empty(0, dtype=np.int64),
        return_counts=True,
    )
    rows, cols = np.divmod(edge_keys, n)
    weights = counts.astype(np.float64)
    nodes = tuple(ids)
    if min_weight > 1.0:
        strong = weights >= min_weight
        rows, cols, weights = rows[strong], cols[strong], weights[strong]
        kept = np.zeros(n, dtype=bool)
        kept[rows] = True
        kept[cols] = True
        renumber = np.cumsum(kept) - 1
        rows, cols = renumber[rows], renumber[cols]
        nodes = tuple(nodes[i] for i in np.flatnonzero(kept).tolist())
    return ContextGraph(
        csr=CSRGraph.from_edges(len(nodes), rows, cols, weights), nodes=nodes
    )


def _entropy(values: np.ndarray) -> float:
    total = values.sum()
    if total <= 0 or values.size <= 1:
        return 0.0
    probs = values / total
    probs = probs[probs > 0]
    entropy = float(-(probs * np.log2(probs)).sum())
    max_entropy = math.log2(values.size)
    return entropy / max_entropy if max_entropy > 0 else 0.0


def _binary_adjacency(csr: CSRGraph) -> sparse.csr_matrix:
    """Unweighted scipy adjacency of ``csr``, self-loops dropped.

    Triangle counts and connectivity follow the networkx convention of
    ignoring self-loops and edge weights.
    """
    n = csr.n_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    keep = rows != csr.indices
    return sparse.csr_matrix(
        (
            np.ones(int(keep.sum()), dtype=np.float64),
            (rows[keep], csr.indices[keep]),
        ),
        shape=(n, n),
    )


def _clustering_and_transitivity(
    adjacency: sparse.csr_matrix,
) -> tuple[float, float]:
    """(average clustering coefficient, transitivity) of a binary graph.

    ``(A @ A) ∘ A`` row sums give each node's doubled triangle count —
    the same quantity networkx's ``_triangles_and_degree_iter`` yields —
    so both metrics come from one sparse matmul instead of a
    per-node Python neighbourhood scan.
    """
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    double_triangles = np.asarray(
        (adjacency @ adjacency).multiply(adjacency).sum(axis=1)
    ).ravel()
    pairs = degrees * (degrees - 1.0)
    coefficients = np.divide(
        double_triangles,
        pairs,
        out=np.zeros_like(double_triangles),
        where=pairs > 0,
    )
    avg_clustering = float(coefficients.mean())
    total_pairs = float(pairs.sum())
    total_triangles = float(double_triangles.sum())
    transitivity = (
        total_triangles / total_pairs if total_triangles > 0 else 0.0
    )
    return avg_clustering, transitivity


def _community_labels(
    graph: ContextGraph,
    backend: CommunityBackend,
    seed: int | np.random.Generator | None,
) -> np.ndarray:
    """Community label per CSR node from whichever interface is fastest.

    A backend without ``labels_from_csr`` gets the word-labelled
    networkx graph: networkx's greedy heap breaks ties by comparing node
    labels, so integer ids would change its communities.
    """
    labels_from_csr = getattr(backend, "labels_from_csr", None)
    if labels_from_csr is not None:
        return labels_from_csr(graph.csr, seed=seed)
    node_index = {node: i for i, node in enumerate(graph.nodes)}
    labels = np.empty(graph.csr.n_nodes, dtype=np.int64)
    communities = backend.communities(graph.to_networkx(), weight="weight", seed=seed)
    for cid, community in enumerate(communities):
        for node in community:
            labels[node_index[node]] = cid
    return labels


def graph_features(
    graph: ContextGraph,
    *,
    backend: str | CommunityBackend = "louvain",
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The 12-dimensional feature vector of a term's context graph.

    Every metric is computed natively on the graph's CSR adjacency
    (degrees from the row pointers, sparse matmul triangles, union-find
    components, Louvain communities).  Only the ``"greedy"`` backend
    sees a networkx graph, rebuilt from the CSR arrays.

    Parameters
    ----------
    backend:
        Community-detection backend for the three community features
        (see :mod:`repro.clustering.community`); ``"louvain"`` is the
        fast native default, ``"greedy"`` the networkx parity fallback.
    seed:
        Seed for seedable backends (makes ``"louvain"`` deterministic).
    """
    csr = graph.csr
    n_nodes = csr.n_nodes
    if n_nodes == 0:
        return np.zeros(len(GRAPH_FEATURE_NAMES), dtype=np.float64)
    # No self-loops: each edge is stored once per direction.
    n_edges = csr.indices.size // 2
    degrees = np.diff(csr.indptr).astype(np.float64)

    adjacency = _binary_adjacency(csr)
    # networkx's density, operation for operation: 2m / (n (n - 1)).
    density = 0.0
    if n_edges > 0 and n_nodes > 1:
        density = n_edges / (n_nodes * (n_nodes - 1))
        density *= 2
    mean_degree = float(degrees.mean())
    degree_entropy = _entropy(degrees)
    if n_nodes > 1:
        avg_clustering, transitivity = _clustering_and_transitivity(adjacency)
    else:
        avg_clustering, transitivity = 0.0, 0.0
    if n_nodes <= 2:
        transitivity = 0.0

    n_components, component_labels = _csgraph_components(
        adjacency, directed=False
    )
    component_sizes = np.bincount(component_labels, minlength=n_components)
    largest_fraction = float(component_sizes.max()) / n_nodes

    if n_edges > 0:
        labels = _community_labels(graph, get_community_backend(backend), seed)
        n_communities = int(labels.max()) + 1
        modularity = modularity_from_labels(csr, labels)
        community_sizes = np.bincount(labels, minlength=n_communities)
        community_entropy = _entropy(community_sizes.astype(np.float64))
    else:
        n_communities = n_components
        modularity = 0.0
        community_entropy = 0.0

    return np.array(
        [
            math.log1p(n_nodes),
            math.log1p(n_edges),
            density,
            mean_degree,
            degree_entropy,
            avg_clustering,
            transitivity,
            float(n_components),
            largest_fraction,
            float(n_communities),
            float(modularity),
            community_entropy,
        ],
        dtype=np.float64,
    )
