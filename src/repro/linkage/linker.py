"""The semantic linker: ranked position propositions for a candidate term."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import LinkageError
from repro.linkage.context import TermContextIndex
from repro.linkage.neighborhood import TermNeighborhoods
from repro.ontology.model import Ontology, normalize_term


@dataclass(frozen=True)
class Proposition:
    """One proposed ontology position for a candidate term.

    Attributes
    ----------
    rank:
        1-based rank in the proposition list.
    term:
        The ontology term proposed as a position (synonym / father / son
        candidate).
    concept_ids:
        The concept(s) the position term names.
    cosine:
        Context cosine similarity between candidate and position.
    """

    rank: int
    term: str
    concept_ids: tuple[str, ...]
    cosine: float


class SemanticLinker:
    """Step IV end-to-end: candidate term in, ranked propositions out.

    The shared context-vector index is built **once** on first use and
    reused for every subsequent :meth:`propose` call, so positioning the
    paper's 60 evaluation terms costs one retrieval, not sixty.  No
    co-occurrence graph is built: each candidate's neighbourhood is read
    from the postings of the documents that mention it
    (:class:`~repro.linkage.neighborhood.TermNeighborhoods`), and each of
    those documents is merged at most once.  An unanticipated candidate
    changes the known terms, hence the merge, so it triggers one
    rebuild of both artefacts, which keeps what the change leaves valid.

    Parameters
    ----------
    ontology:
        The ontology to position into.
    corpus:
        The context source (the paper uses the PubMed contexts of the
        candidate term).
    extra_terms:
        Candidate terms that are *not* ontology terms but will be
        positioned later (lets them join the shared build).
    window:
        Context window for the cosine vectors.
    graph_window:
        Co-occurrence window for the neighbourhood.
    top_k:
        Number of propositions returned (the paper proposes 10).
    expand_hierarchy:
        Include fathers/sons of neighbours (IV.2); ablation knob A4.
    index:
        Optional prebuilt :class:`~repro.corpus.index.CorpusIndex`; both
        the neighbourhoods and the context vectors are read from it
        (defaults to the corpus's cached index).
    context_index:
        Optional :class:`~repro.linkage.context.TermContextIndex` to
        build the context vectors into, kept by the caller across
        linkers: it reuses its space while the corpus fingerprint, the
        window and the term list stay unchanged.  By default the first
        build makes one.
    neighborhoods:
        Optional :class:`~repro.linkage.neighborhood.TermNeighborhoods`
        to read the neighbourhoods through, kept by the caller across
        linkers: it keeps its merged documents while they stay valid
        (see :meth:`TermNeighborhoods.update`).  By default the first
        build makes one.

    :attr:`context_index` and :attr:`neighborhoods` give the two
    artefacts, passed in or built, for a caller to keep.

    Example
    -------
    ``linker.propose("corneal injuries")`` returns the Table 3 layout:
    ranked terms with cosine scores.
    """

    def __init__(
        self,
        ontology: Ontology,
        corpus: Corpus,
        *,
        extra_terms: Iterable[str] = (),
        window: int = 10,
        graph_window: int = 8,
        top_k: int = 10,
        expand_hierarchy: bool = True,
        index: CorpusIndex | None = None,
        context_index: TermContextIndex | None = None,
        neighborhoods: TermNeighborhoods | None = None,
    ) -> None:
        if top_k < 1:
            raise LinkageError(f"top_k must be >= 1, got {top_k}")
        self.ontology = ontology
        self.corpus = corpus
        self._corpus_index = index
        self._index_supplied = index is not None
        self.window = window
        self.graph_window = graph_window
        self.top_k = top_k
        self.expand_hierarchy = expand_hierarchy
        self._extra_terms = {normalize_term(t) for t in extra_terms}
        self._neighborhoods = neighborhoods
        self._index = context_index
        # False until the first build, and again after an unanticipated
        # candidate.
        self._prepared = False

    # -- shared artefacts ---------------------------------------------------

    @property
    def context_index(self) -> TermContextIndex | None:
        """The context index builds go into (None before the first)."""
        return self._index

    @property
    def neighborhoods(self) -> TermNeighborhoods | None:
        """The neighbourhood reader builds go into (None before the first)."""
        return self._neighborhoods

    def prepare(self) -> "SemanticLinker":
        """Build the shared neighbourhood reader and context index now."""
        if not self._index_supplied:
            # Re-fetch on every (re)build: corpus.index() is cached, and a
            # rebuild after corpus.add must see the added documents.
            self._corpus_index = self.corpus.index()
        if self._neighborhoods is None:
            self._neighborhoods = TermNeighborhoods(
                self.ontology,
                self._corpus_index,
                extra_terms=self._extra_terms,
                window=self.graph_window,
            )
        else:
            self._neighborhoods.update(
                self.ontology,
                self.corpus,
                self._corpus_index,
                extra_terms=self._extra_terms,
                window=self.graph_window,
            )
        if self._index is None:
            self._index = TermContextIndex(self.corpus)
        self._index.attach(
            self.corpus, window=self.window, index=self._corpus_index
        ).build(sorted(set(self.ontology.terms()) | self._extra_terms))
        self._prepared = True
        return self

    def _ensure_prepared(
        self, candidate: str
    ) -> tuple[TermNeighborhoods, TermContextIndex]:
        if candidate not in self._extra_terms and not self.ontology.has_term(
            candidate
        ):
            # Unanticipated candidate: fold it in and rebuild once.
            self._extra_terms.add(candidate)
            self._prepared = False
        if not self._prepared:
            self.prepare()
        return self._neighborhoods, self._index

    # -- the Step IV protocol ---------------------------------------------------

    def positions_for(self, candidate: str) -> list[str]:
        """The candidate-position set (neighbourhood ± hierarchy expansion).

        Degenerate corpora, where the candidate co-occurs with no
        ontology term, fall back to every ontology term.
        """
        key = normalize_term(candidate)
        neighborhoods, __ = self._ensure_prepared(key)
        return neighborhoods.positions(key, expand_hierarchy=self.expand_hierarchy)

    def propose(self, candidate: str) -> list[Proposition]:
        """Ranked ontology positions for ``candidate``.

        Raises :class:`LinkageError` when the candidate has no corpus
        context at all (nothing to compare with).
        """
        key = normalize_term(candidate)
        __, index = self._ensure_prepared(key)
        if index.n_contexts(key) == 0:
            raise LinkageError(
                f"candidate {candidate!r} has no context in the corpus"
            )
        positions = self.positions_for(key)
        if not positions:
            raise LinkageError(f"no candidate positions for {candidate!r}")
        scored = index.cosines(key, positions)
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [
            Proposition(
                rank=rank,
                term=term,
                concept_ids=tuple(self.ontology.concepts_for_term(term)),
                cosine=float(score),
            )
            for rank, (term, score) in enumerate(scored[: self.top_k], start=1)
        ]
