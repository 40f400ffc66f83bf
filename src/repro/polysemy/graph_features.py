"""The 12 graph polysemy features.

The paper extracts 12 of its 23 features "from a graph itself induced from
the text corpus".  Here the graph for a term is the co-occurrence graph of
its context words: nodes are words appearing in the term's contexts,
edges weight within-context co-occurrence.  For a monosemous term this
graph is one dense community; for a polysemic term it splits into one
community per sense — community structure, connectivity, and degree
statistics capture that.

:func:`build_context_graphs` builds every context graph of a
:class:`~repro.polysemy.batch.ContextBatch` into one
:class:`~repro.clustering.louvain.CSRGraphBatch`, and
:func:`graph_feature_rows` computes the 12 features of all of them:

* the structural counts (degrees, triangles through ``(A @ A) ∘ A``,
  connected components) come from block-diagonal binary adjacency, a
  chunk of graphs at a time, and are exact integers;
* every float reduction whose result depends on summation order (the
  mean clustering coefficient, the entropies and the modularity) runs
  per graph on that graph's own slice, with the call the single-graph
  code used, so each vector is the same bytes;
* Louvain communities come from
  :func:`~repro.clustering.louvain.louvain_labels_many`.  Its level 0
  runs as one wavefront across the batch when at least
  ``WAVEFRONT_MIN_GRAPHS`` (64) graphs have edges, as in a cold
  training batch, and as the per-graph list sweep below that (a single
  term, a small detection batch); upper levels always take the list
  sweep, graph by graph.  The numpy sweep is for wide, dense graphs,
  which context graphs are not.

:func:`build_context_graph` and :func:`graph_features` are batches of
one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.clustering import community
from repro.clustering.louvain import CSRGraph, CSRGraphBatch, modularity_from_labels
from repro.polysemy import batch as batching
from repro.polysemy.batch import ContextBatch, chunks

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

#: Stored entries per chunk of block-diagonal adjacency for the
#: structural features.  ``A @ A`` of a context graph is nearly dense, so
#: its memory grows with the chunk: on the L rung's 341 graphs, 8,192
#: entries peaked at 1.4 MB and 65,536 at 10.6 MB, for the same time.
STRUCTURE_CHUNK_ENTRIES = 8_192


@dataclass(frozen=True)
class ContextGraph:
    """A term's context co-occurrence graph: CSR arrays plus word labels.

    ``nodes[i]`` is the word of CSR node ``i``; nodes are numbered by
    first appearance over the concatenated contexts.  Context graphs
    have no self-loops.
    """

    csr: CSRGraph
    nodes: tuple[str, ...]


def _chunk_edges(
    batch: ContextBatch, first: int, last: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges of terms ``first:last`` and their counts.

    Nodes are numbered from the chunk's first node, and an edge
    ``(u, v)`` with ``u < v`` is the key ``u * n + v`` over the chunk's
    ``n`` nodes, so the keys sort graph by graph.
    """
    n0 = int(batch.node_offsets[first])
    n_nodes = int(batch.node_offsets[last]) - n0
    t0 = int(batch.token_offsets[first])
    t1 = int(batch.token_offsets[last])
    c0 = int(batch.context_offsets[first])
    c1 = int(batch.context_offsets[last])
    codes = batch.nodes[t0:t1] + np.repeat(
        batch.node_offsets[first:last] - n0,
        np.diff(batch.token_offsets[first : last + 1]),
    )
    lengths = batch.context_lengths[c0:c1]
    # Tokens after each position inside its own context.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(codes.size) - 1
    keys = []
    for offset in range(1, window):
        fits = room[:-offset] >= offset
        left = codes[:-offset][fits]
        right = codes[offset:][fits]
        distinct = left != right
        left, right = left[distinct], right[distinct]
        keys.append(np.minimum(left, right) * n_nodes + np.maximum(left, right))
    return np.unique(
        np.concatenate(keys) if keys else np.empty(0, dtype=np.int64),
        return_counts=True,
    )


def build_context_graphs(batch: ContextBatch, *, window: int = 4) -> CSRGraphBatch:
    """Every term's context graph, as :func:`build_context_graph` builds it.

    Nodes keep each term's first-appearance numbering: node ``i`` of
    graph ``g`` is ``batch.words[batch.node_offsets[g] + i]``.  The
    window pairs are counted a chunk of terms at a time, and each
    chunk's unique edges fill its part of one preallocated batch CSR
    (int32 column ids, float64 weights), so no graph is ever held twice.
    """
    node_offsets = batch.node_offsets
    spans = chunks(np.diff(batch.token_offsets), batching.CHUNK_TOKENS)
    # Counting the edges first and recounting them to fill the arrays
    # costs one more pass over the pairs (a few ms per hundred terms)
    # but never holds the edge lists beside the finished arrays.
    n_entries = sum(
        2 * _chunk_edges(batch, first, last, window)[0].size
        for first, last in spans
    )
    indptr = np.zeros(int(node_offsets[-1]) + 1, dtype=np.int64)
    indices = np.empty(n_entries, dtype=np.int32)
    weights = np.empty(n_entries, dtype=np.float64)
    at = 0
    for first, last in spans:
        keys, counts = _chunk_edges(batch, first, last, window)
        n0 = int(node_offsets[first])
        n_nodes = int(node_offsets[last]) - n0
        rows, cols = np.divmod(keys, n_nodes)
        src = np.concatenate([rows, cols])
        dst = np.concatenate([cols, rows])
        order = np.argsort(src * n_nodes + dst)
        dst = dst[order]
        node_base = np.repeat(
            node_offsets[first:last] - n0, np.diff(node_offsets[first : last + 1])
        )
        size = dst.size
        indices[at : at + size] = dst - node_base[dst]
        weights[at : at + size] = np.concatenate([counts, counts])[order]
        indptr[n0 + 1 : n0 + n_nodes + 1] = np.bincount(src, minlength=n_nodes)
        at += size
    np.cumsum(indptr, out=indptr)
    return CSRGraphBatch(
        indptr=indptr, indices=indices, weights=weights, node_offsets=node_offsets
    )


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
    leave isolated.  A batch of one of :func:`build_context_graphs`.
    """
    batch = ContextBatch.encode([contexts])
    csr = build_context_graphs(batch, window=window)[0]
    n = csr.n_nodes
    all_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    upper = all_rows < csr.indices
    rows = all_rows[upper]
    cols = csr.indices[upper].astype(np.int64)
    weights = csr.weights[upper]
    nodes = tuple(batch.words)
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


def _structure(
    csr: CSRGraphBatch, first: int, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node clustering terms and per-graph components of ``first:last``.

    One block-diagonal binary adjacency (self-loops dropped, weights
    ignored, as networkx counts triangles) covers the chunk.  Returns
    the chunk's per-node clustering coefficients, doubled triangle
    counts and degree pairs ``d (d - 1)``, all exact, plus each graph's
    component count and largest component size.
    """
    n0 = int(csr.node_offsets[first])
    sizes = np.diff(csr.node_offsets[first : last + 1])
    n_nodes = int(sizes.sum())
    indptr = csr.indptr[n0 : n0 + n_nodes + 1]
    rows = np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(indptr))
    node_base = np.repeat(csr.node_offsets[first:last] - n0, sizes)
    cols = csr.indices[int(indptr[0]) : int(indptr[-1])] + node_base[rows]
    keep = rows != cols
    # Integer counts, exact in any order: int32 entries halve the memory
    # of ``A @ A`` against float64.
    adjacency = sparse.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int32), (rows[keep], cols[keep])),
        shape=(n_nodes, n_nodes),
    )
    degrees = np.asarray(adjacency.sum(axis=1), dtype=np.float64).ravel()
    double_triangles = np.asarray(
        (adjacency @ adjacency).multiply(adjacency).sum(axis=1), dtype=np.float64
    ).ravel()
    pairs = degrees * (degrees - 1.0)
    coefficients = np.divide(
        double_triangles,
        pairs,
        out=np.zeros_like(double_triangles),
        where=pairs > 0,
    )
    n_components, component = _csgraph_components(adjacency, directed=False)
    graph_of_node = np.repeat(np.arange(last - first, dtype=np.int64), sizes)
    graph_of_component = np.zeros(n_components, dtype=np.int64)
    graph_of_component[component] = graph_of_node
    components = np.bincount(graph_of_component, minlength=last - first)
    largest = np.zeros(last - first, dtype=np.int64)
    np.maximum.at(
        largest, graph_of_component, np.bincount(component, minlength=n_components)
    )
    return coefficients, double_triangles, pairs, np.stack([components, largest])


def _all_community_labels(
    graphs: CSRGraphBatch, seed: int | np.random.Generator | None
) -> dict[int, np.ndarray]:
    """Louvain labels of every graph with edges, by graph index."""
    sizes = np.diff(graphs.indptr[graphs.node_offsets])
    with_edges = np.flatnonzero(sizes >= 2).tolist()
    if np.count_nonzero(sizes) == len(with_edges):
        # Graphs without edges have no entries and stay out of Louvain,
        # so the batch goes in as it is, with no copy.
        labels = community.louvain_labels_many(graphs, seed=seed)
        return {g: labels[g] for g in with_edges}
    labels = community.louvain_labels_many([graphs[g] for g in with_edges], seed=seed)
    return dict(zip(with_edges, labels, strict=True))


def graph_feature_rows(
    csr: CSRGraphBatch,
    *,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The (n_graphs, 12) feature rows of a batch of context graphs.

    ``seed`` seeds Louvain's visit orders for the three community
    features, so a fixed seed makes them deterministic.
    """
    n_graphs = len(csr)
    node_offsets = csr.node_offsets
    rows = np.zeros((n_graphs, len(GRAPH_FEATURE_NAMES)), dtype=np.float64)
    entries = np.diff(csr.indptr[node_offsets])
    structure = {}
    for first, last in chunks(entries, STRUCTURE_CHUNK_ENTRIES):
        coefficients, triangles, pairs, components = _structure(csr, first, last)
        n0 = int(node_offsets[first])
        for g in range(first, last):
            a, b = int(node_offsets[g]) - n0, int(node_offsets[g + 1]) - n0
            structure[g] = (
                float(coefficients[a:b].mean()) if b - a > 1 else 0.0,
                float(triangles[a:b].sum()),
                float(pairs[a:b].sum()),
                int(components[0, g - first]),
                int(components[1, g - first]),
            )
    communities = _all_community_labels(csr, seed)
    for g in range(n_graphs):
        a, b = int(node_offsets[g]), int(node_offsets[g + 1])
        n_nodes = b - a
        if n_nodes == 0:
            continue
        # No self-loops: each edge is stored once per direction.
        n_edges = int(entries[g]) // 2
        avg_clustering, total_triangles, total_pairs, n_components, largest = (
            structure[g]
        )
        # networkx's density, operation for operation: 2m / (n (n - 1)).
        density = 0.0
        if n_edges > 0 and n_nodes > 1:
            density = n_edges / (n_nodes * (n_nodes - 1))
            density *= 2
        transitivity = 0.0
        if n_nodes > 2 and total_triangles > 0:
            transitivity = total_triangles / total_pairs
        degrees = np.diff(csr.indptr[a : b + 1]).astype(np.float64)
        if g in communities:
            labels = communities[g]
            n_communities = int(labels.max()) + 1
            modularity = modularity_from_labels(csr[g], labels)
            community_sizes = np.bincount(labels, minlength=n_communities)
            community_entropy = _entropy(community_sizes.astype(np.float64))
        else:
            n_communities = n_components
            modularity = 0.0
            community_entropy = 0.0
        rows[g] = (
            math.log1p(n_nodes),
            math.log1p(n_edges),
            density,
            float(degrees.mean()),
            _entropy(degrees),
            avg_clustering,
            transitivity,
            float(n_components),
            float(largest) / n_nodes,
            float(n_communities),
            float(modularity),
            community_entropy,
        )
    return rows


def graph_features(
    graph: ContextGraph,
    *,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The 12-dimensional feature vector of a term's context graph.

    A batch of one of :func:`graph_feature_rows`; see there for ``seed``.
    """
    csr = graph.csr
    batch = CSRGraphBatch(
        indptr=csr.indptr,
        indices=csr.indices,
        weights=csr.weights,
        node_offsets=np.array([0, csr.n_nodes], dtype=np.int64),
    )
    return graph_feature_rows(batch, seed=seed)[0]
