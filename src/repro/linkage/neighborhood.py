"""MeSH-neighbourhood selection for a candidate term.

Step IV.1: "Creation of term co-occurrence graph with terms extracted in
(I), selecting only the MeSH neighborhood of a candidate term."  The
candidate positions are the ontology terms that co-occur with the
candidate in the corpus, expanded (IV.2) with the fathers and sons of the
concepts those neighbours name.

Only the candidate's own edges of that graph are ever read, so
:class:`TermNeighborhoods` reads them from the postings instead of
building the graph: the documents whose postings contain the candidate's
phrase are merged (maximal munch over every known term, exactly as the
graph builder merges them) and the tokens within the co-occurrence
window of each merged occurrence are the candidate's neighbours.  The
whole-corpus graph of
:class:`~repro.text.cooccurrence.CooccurrenceGraphBuilder` stays as that
path's test oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.corpus.index import CorpusIndex, documents_after
from repro.errors import LinkageError
from repro.ontology.model import Ontology, normalize_term
from repro.text.cooccurrence import TermMerger
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document


def _positions(
    ontology: Ontology,
    key: str,
    neighbors: Iterable[str],
    expand_hierarchy: bool,
) -> list[str]:
    """Ontology terms among ``neighbors``, expanded by IV.2, sorted."""
    neighbor_terms = {node for node in neighbors if ontology.has_term(node)}
    neighbor_terms.discard(key)
    if not expand_hierarchy:
        return sorted(neighbor_terms)

    concept_ids: set[str] = set()
    for term in neighbor_terms:
        concept_ids.update(ontology.concepts_for_term(term))
    expanded = ontology.position_candidates(concept_ids)
    positions = set(neighbor_terms)
    for cid in expanded:
        positions.update(ontology.concept(cid).all_terms())
    positions.discard(key)
    return sorted(positions)


def _known_terms(ontology: Ontology, extra_terms: Iterable[str]) -> frozenset[str]:
    return frozenset(ontology.terms()).union(normalize_term(t) for t in extra_terms)


class TermNeighborhoods:
    """Candidate neighbourhoods read from the postings, no graph built.

    Answers what the whole-corpus co-occurrence graph of
    :class:`~repro.text.cooccurrence.CooccurrenceGraphBuilder` gives as
    the candidate's neighbours, with identical results.  A candidate's
    neighbours are the tokens within ``window - 1`` positions of its
    occurrences in the maximal-munch merged token stream, and only the
    documents whose postings contain the candidate's phrase are read.
    Each document is merged at most once, so a candidate found in every
    document costs one merge pass over the corpus, and later candidates
    reuse the merged documents.

    An instance can be kept across corpus states: :meth:`update` points
    it at a grown corpus or another term list and keeps what stays
    valid.  A merged document depends only on its tokens and the known
    terms, and maximal munch is decided per start token, so a
    document's merge changes only if it holds the first token of a term
    that joined or left the known terms.

    Parameters
    ----------
    ontology:
        The ontology positions are drawn from.
    index:
        The corpus index whose postings and documents are read.
    extra_terms:
        Known terms besides the ontology's (the candidates); they take
        part in the merge exactly as ontology terms do.
    window:
        The co-occurrence window: tokens at distance < ``window`` are
        neighbours, as in :class:`CooccurrenceGraphBuilder`.
    """

    def __init__(
        self,
        ontology: Ontology,
        index: CorpusIndex,
        *,
        extra_terms: Iterable[str] = (),
        window: int = 8,
    ) -> None:
        self.ontology = ontology
        self.window = check_positive_int(window, "window")
        self._index = index
        self._terms = _known_terms(ontology, extra_terms)
        self._merger = TermMerger(tuple(term.split()) for term in self._terms)
        self._merged: dict[int, list[str]] = {}
        # The corpus state the merged documents cover.
        self._fingerprint = index.fingerprint()
        self._n_documents = index.n_documents()

    def update(
        self,
        ontology: Ontology,
        corpus: "Sequence[Document]",
        index: CorpusIndex,
        *,
        extra_terms: Iterable[str] = (),
        window: int = 8,
    ) -> "TermNeighborhoods":
        """Read ``index`` (over ``corpus``, in order) from now on.

        Keeps every merged document while the corpus extends the kept
        one along its fingerprint chain, merging again only the
        documents that hold the first token of a term that joined or
        left the known terms.
        """
        window = check_positive_int(window, "window")
        terms = _known_terms(ontology, extra_terms)
        merger, merged = self._merger, self._merged
        added = documents_after(corpus, index, self._fingerprint, self._n_documents)
        if added is None:
            merged = {}
        if terms != self._terms:
            merger = TermMerger(tuple(term.split()) for term in terms)
            if merged:
                firsts = {
                    first for term in terms ^ self._terms for first in term.split()[:1]
                }
                stale = {
                    ordinal
                    for first in firsts
                    for ordinal, __ in index.phrase_occurrences([first])
                }
                merged = {
                    ordinal: tokens
                    for ordinal, tokens in merged.items()
                    if ordinal not in stale
                }
        self.ontology, self.window, self._index = ontology, window, index
        self._terms, self._merger, self._merged = terms, merger, merged
        self._fingerprint = index.fingerprint()
        self._n_documents = index.n_documents()
        return self

    def _merged_document(self, ordinal: int) -> list[str]:
        merged = self._merged.get(ordinal)
        if merged is None:
            merged = self._merger.merge(self._index.document_tokens(ordinal))
            self._merged[ordinal] = merged
        return merged

    def neighbors(self, candidate: str) -> set[str] | None:
        """Tokens co-occurring with ``candidate``; None if it never occurs.

        ``None`` matches a candidate that is no node of the graph, an
        empty set one that occurs but has no neighbour.
        """
        key = normalize_term(candidate)
        if not key:
            return None
        reach = self.window - 1
        found = False
        near: set[str] = set()
        occurrences = self._index.phrase_occurrences(key)
        if " " in key:
            # Documents given as token lists may hold the whole term as
            # one token, which the merge leaves as it is.
            occurrences += self._index.phrase_occurrences([key])
        for ordinal in sorted({ordinal for ordinal, __ in occurrences}):
            merged = self._merged_document(ordinal)
            for position, token in enumerate(merged):
                if token != key:
                    continue
                found = True
                near.update(merged[max(0, position - reach) : position])
                near.update(merged[position + 1 : position + 1 + reach])
        if not found:
            return None
        near.discard(key)
        return near

    def positions(
        self,
        candidate: str,
        *,
        expand_hierarchy: bool = True,
        fallback_to_all: bool = True,
    ) -> list[str]:
        """The candidate-position set (neighbourhood ± IV.2 expansion).

        When the candidate has no co-occurrence neighbourhood (tiny
        corpora), ``fallback_to_all`` degrades gracefully to every
        ontology term; without it such a candidate raises
        :class:`LinkageError`.
        """
        key = normalize_term(candidate)
        neighbors = self.neighbors(key)
        if neighbors is not None:
            positions = _positions(self.ontology, key, neighbors, expand_hierarchy)
            if positions:
                return positions
        if fallback_to_all:
            return sorted(t for t in self.ontology.terms() if t != key)
        raise LinkageError(
            f"candidate {candidate!r} has no MeSH neighbourhood in the corpus"
        )
