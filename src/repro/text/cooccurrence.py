"""Term co-occurrence: maximal-munch term merging and windowed graphs.

Step IV of the paper builds "a term co-occurrence graph ... selecting
only the MeSH neighborhood of a candidate term".  The graph is counted
over each document's tokens with every known multi-word term merged
into one token, longest match first (:class:`TermMerger`).

:class:`CooccurrenceGraphBuilder` turns such streams into a weighted
undirected :class:`networkx.Graph` whose nodes are tokens (or merged
terms) and whose edge weights count within-window co-occurrences.  The
enrichment workflow no longer builds it: Step IV reads a candidate's
neighbourhood straight from the postings of the documents that mention
it (:class:`repro.linkage.neighborhood.TermNeighborhoods`), and the
whole-corpus graph stays as that path's test oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx

from repro.text.stopwords import stopwords_for
from repro.utils.validation import check_positive_int


class TermMerger:
    """Maximal-munch merging of known multi-word terms into single tokens.

    The first-token table is built once per term set, so merging many
    documents against the same terms costs one sort, not one per
    document.  ``["corneal", "injuries", "heal"]`` with term
    ``("corneal", "injuries")`` merges to ``["corneal injuries",
    "heal"]``; the longest match wins at each position and matched
    tokens are consumed left to right.
    """

    def __init__(self, terms: Iterable[tuple[str, ...]]) -> None:
        by_first: dict[str, list[tuple[str, ...]]] = {}
        for term in terms:
            if not term:
                continue
            by_first.setdefault(term[0], []).append(term)
        for candidates in by_first.values():
            candidates.sort(key=len, reverse=True)
        self._by_first = by_first

    def merge(self, tokens: Sequence[str]) -> list[str]:
        """``tokens`` lower-cased, with every known term merged."""
        by_first = self._by_first
        lower = [t.lower() for t in tokens]
        merged: list[str] = []
        i = 0
        n = len(lower)
        while i < n:
            token = lower[i]
            match: tuple[str, ...] | None = None
            for candidate in by_first.get(token, ()):
                span = len(candidate)
                if i + span <= n and tuple(lower[i : i + span]) == candidate:
                    match = candidate
                    break
            if match is None:
                merged.append(token)
                i += 1
            else:
                merged.append(" ".join(match))
                i += len(match)
        return merged


class CooccurrenceGraphBuilder:
    """Build a weighted token co-occurrence graph from tokenised documents.

    Parameters
    ----------
    window:
        Sliding-window size; tokens at distance < ``window`` co-occur.
    stop_language:
        Drop this language's stopwords before windowing (``None`` keeps all).
    min_weight:
        Prune edges with total weight below this after building.
    terms:
        Optional multi-word terms merged into single nodes first.
    """

    def __init__(
        self,
        *,
        window: int = 5,
        stop_language: str | None = "en",
        min_weight: float = 1.0,
        terms: Iterable[tuple[str, ...]] | None = None,
    ) -> None:
        self.window = check_positive_int(window, "window")
        self.stop_language = stop_language
        self.min_weight = min_weight
        self.terms = list(terms) if terms is not None else []
        self._merger = TermMerger(self.terms)

    def _prepare(self, tokens: Sequence[str]) -> list[str]:
        merged = self._merger.merge(tokens)
        if self.stop_language is None:
            return merged
        stop = stopwords_for(self.stop_language)
        return [t for t in merged if t not in stop]

    def build(self, documents: Iterable[Sequence[str]]) -> nx.Graph:
        """Accumulate co-occurrence counts over ``documents`` into a graph."""
        graph = nx.Graph()
        for tokens in documents:
            prepared = self._prepare(tokens)
            n = len(prepared)
            for i, left in enumerate(prepared):
                # add_edge may have created the node without attributes, so
                # the count attribute cannot be assumed to exist yet.
                if not graph.has_node(left):
                    graph.add_node(left)
                graph.nodes[left]["count"] = graph.nodes[left].get("count", 0) + 1
                for j in range(i + 1, min(i + self.window, n)):
                    right = prepared[j]
                    if left == right:
                        continue
                    if graph.has_edge(left, right):
                        graph[left][right]["weight"] += 1.0
                    else:
                        graph.add_edge(left, right, weight=1.0)
        if self.min_weight > 1.0:
            to_drop = [
                (u, v)
                for u, v, w in graph.edges(data="weight")
                if w < self.min_weight
            ]
            graph.remove_edges_from(to_drop)
        return graph


def ego_graph(graph: nx.Graph, node: str, radius: int = 1) -> nx.Graph:
    """The subgraph within ``radius`` hops of ``node`` (copy).

    Convenience wrapper that returns an empty graph when ``node`` is
    absent instead of raising, because candidate terms may have no
    observed context at small corpus scales.
    """
    if node not in graph:
        return nx.Graph()
    return nx.ego_graph(graph, node, radius=radius).copy()
