"""Graph oracles the tests share: networkx conversion and Step IV's graph.

* :func:`csr_from_networkx` turns a networkx graph into the library's
  :class:`~repro.clustering.louvain.CSRGraph`, so networkx-built oracles
  can be compared with the CSR code array for array.
* :func:`build_term_graph` and :func:`mesh_neighborhood` are Step IV's
  whole-corpus co-occurrence graph and the neighbourhood read off it;
  ``TermNeighborhoods`` must give the same positions from the postings.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.louvain import CSRGraph
from repro.linkage.neighborhood import _positions
from repro.ontology.model import normalize_term
from repro.text.cooccurrence import CooccurrenceGraphBuilder


def csr_from_networkx(graph, weight="weight"):
    """A :class:`CSRGraph` of ``graph``, with nodes in ``graph.nodes`` order."""
    index = {node: i for i, node in enumerate(graph.nodes())}
    n_edges = graph.number_of_edges()
    rows = np.empty(n_edges, dtype=np.int64)
    cols = np.empty(n_edges, dtype=np.int64)
    weights = np.empty(n_edges, dtype=np.float64)
    for k, (u, v, w) in enumerate(graph.edges(data=weight, default=1.0)):
        rows[k] = index[u]
        cols[k] = index[v]
        weights[k] = float(w)
    return CSRGraph.from_edges(len(index), rows, cols, weights)


def build_term_graph(corpus, ontology, candidate, *, window=8, stop_language=None):
    """Co-occurrence neighbours over ontology terms plus the candidate.

    Multi-word ontology terms (and the candidate) are merged into single
    nodes before windowed counting.  Returns the builder's
    ``neighbours`` dict: node -> {neighbour: weight}.
    """
    term_tuples = [tuple(t.split()) for t in ontology.terms()]
    term_tuples.append(tuple(normalize_term(candidate).split()))
    builder = CooccurrenceGraphBuilder(
        window=window, stop_language=stop_language, terms=term_tuples
    )
    __, neighbours = builder.build([document.tokens() for document in corpus])
    return neighbours


def mesh_neighborhood(graph, ontology, candidate, *, expand_hierarchy=True):
    """Sorted ontology terms in the candidate's neighbourhood of ``graph``.

    ``graph`` maps node -> {neighbour: weight}.  Empty when the
    candidate is no node of the graph or has no ontology-term neighbour.
    """
    key = normalize_term(candidate)
    if key not in graph:
        return []
    return _positions(ontology, key, graph[key], expand_hierarchy)
