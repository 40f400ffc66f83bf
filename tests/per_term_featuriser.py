"""Step II's per-term featuriser: the oracle of the batch featuriser.

This is the code that featurised one term at a time before
``PolysemyFeatureExtractor.featurise`` batched it: the direct features
through a per-term ``TfidfVectorizer``, the context graph through a
per-term dict of token ids, and the graph features through one scipy
adjacency per graph.  ``tests/test_featurise_oracle.py`` requires the
batch rows to equal it byte for byte, and
``tests/test_context_graph_oracle.py`` reads its triangle counting.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import sparse

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.louvain import CSRGraph, louvain_labels, modularity_from_labels
from repro.clustering.model import ClusterStats
from repro.polysemy.graph_features import (
    GRAPH_FEATURE_NAMES,
    ContextGraph,
    _csgraph_components,
    _entropy,
)
from repro.text.vectorize import TfidfVectorizer


def _context_matrix(contexts):
    """TF-IDF rows (unit norm) for the contexts; IDF damps background words."""
    vectorizer = TfidfVectorizer(stop_language=None)
    return vectorizer.fit_transform([list(c) for c in contexts]).toarray()


def _cosine_and_bisection(contexts):
    """(mean cos, std cos, isim gain, isim ratio, balance-weighted gain)."""
    n = len(contexts)
    matrix = _context_matrix(contexts)
    sims = matrix @ matrix.T
    upper = sims[np.triu_indices(n, k=1)]
    mean_cos = float(upper.mean())
    std_cos = float(upper.std())

    one_cluster = ClusterStats.from_labels(matrix, np.zeros(n, dtype=np.int64))
    s1 = one_cluster.mean_isim()
    split = spherical_kmeans(matrix, 2, seed=0)
    two_clusters = ClusterStats.from_labels(matrix, split.labels)
    s2 = two_clusters.mean_isim()
    gain = s2 - s1
    ratio = s2 / max(s1, 1e-9)
    counts = np.bincount(split.labels, minlength=2)
    balance = float(counts.min()) / n
    return mean_cos, std_cos, gain, ratio, balance * gain


def direct_features(term, contexts, *, doc_frequency=None):
    """The 11 direct features of one term."""
    tokens = term.split()
    n_contexts = len(contexts)
    frequency = n_contexts
    if doc_frequency is None:
        doc_frequency = n_contexts

    words = [w for ctx in contexts for w in ctx]
    counts = Counter(words)
    vocab_size = len(counts)
    if counts:
        probs = np.array(list(counts.values()), dtype=np.float64)
        probs /= probs.sum()
        entropy = float(-(probs * np.log2(probs)).sum())
        max_entropy = math.log2(vocab_size) if vocab_size > 1 else 1.0
        entropy /= max_entropy
    else:
        entropy = 0.0

    if n_contexts >= 4:
        cosine_bits = _cosine_and_bisection(contexts)
    elif n_contexts >= 2:
        matrix = _context_matrix(contexts)
        sims = matrix @ matrix.T
        upper = sims[np.triu_indices(n_contexts, k=1)]
        cosine_bits = (float(upper.mean()), float(upper.std()), 0.0, 1.0, 0.0)
    else:
        cosine_bits = (1.0, 0.0, 0.0, 1.0, 0.0)

    return np.array(
        [
            float(len(tokens)),
            float(len(term)),
            math.log1p(frequency),
            math.log1p(doc_frequency),
            math.log1p(vocab_size),
            entropy,
            *cosine_bits,
        ],
        dtype=np.float64,
    )


def build_context_graph(contexts, *, window=4):
    """One term's context graph, numbered by a per-term dict of token ids."""
    ids = {}
    codes = np.fromiter(
        (ids.setdefault(token, len(ids)) for ctx in contexts for token in ctx),
        dtype=np.int64,
    )
    n = len(ids)
    lengths = np.fromiter((len(ctx) for ctx in contexts), dtype=np.int64)
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
    return ContextGraph(
        csr=CSRGraph.from_edges(n, rows, cols, counts.astype(np.float64)),
        nodes=tuple(ids),
    )


def _binary_adjacency(csr):
    """Unweighted scipy adjacency of ``csr``, self-loops dropped."""
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


def _clustering_and_transitivity(adjacency):
    """(average clustering coefficient, transitivity) of a binary graph."""
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
    transitivity = total_triangles / total_pairs if total_triangles > 0 else 0.0
    return avg_clustering, transitivity


def graph_features(graph, *, seed=0):
    """The 12 graph features of one context graph."""
    csr = graph.csr
    n_nodes = csr.n_nodes
    if n_nodes == 0:
        return np.zeros(len(GRAPH_FEATURE_NAMES), dtype=np.float64)
    n_edges = csr.indices.size // 2
    degrees = np.diff(csr.indptr).astype(np.float64)

    adjacency = _binary_adjacency(csr)
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

    n_components, component_labels = _csgraph_components(adjacency, directed=False)
    component_sizes = np.bincount(component_labels, minlength=n_components)
    largest_fraction = float(component_sizes.max()) / n_nodes

    if n_edges > 0:
        labels = louvain_labels(csr, seed=seed)
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


def features_from_contexts(extractor, term, contexts, *, doc_frequency=None):
    """One term's vector under ``extractor``'s settings, term by term."""
    parts = []
    if extractor.feature_set in ("all", "direct"):
        parts.append(direct_features(term, contexts, doc_frequency=doc_frequency))
    if extractor.feature_set in ("all", "graph"):
        graph = build_context_graph(contexts, window=extractor.graph_window)
        parts.append(graph_features(graph, seed=extractor.community_seed))
    return np.concatenate(parts)
