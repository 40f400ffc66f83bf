"""Candidate-term harvesting: POS-pattern filtering plus counting.

Produces the :class:`ExtractionContext` every ranking measure consumes:
candidate phrases (with frequency, document frequency, per-document
counts, best matching pattern weight) and corpus-level statistics.

The harvest is a fold over documents: each document's phrases are added,
in corpus order, onto the running aggregate.  Folding a corpus in two
parts, the second onto the first's aggregate, therefore gives exactly
the aggregate of folding it whole, iteration order included.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExtractionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document
from repro.text.ngrams import extract_pattern_phrases
from repro.text.patterns import TermPatternMatcher
from repro.text.postag import LexiconTagger


@dataclass
class CandidateStats:
    """Counters for one candidate term.

    Attributes
    ----------
    tokens:
        The candidate as a lower-cased token tuple.
    frequency:
        Total occurrences in the corpus.
    pattern_weight:
        Weight of its (best) matching POS pattern — LIDF-value's
        linguistic-probability component.
    per_doc:
        Occurrences per document id (Okapi's per-document tf).
    """

    tokens: tuple[str, ...]
    frequency: int = 0
    pattern_weight: float = 0.0
    per_doc: dict[str, int] = field(default_factory=dict)

    @property
    def doc_frequency(self) -> int:
        """Number of documents containing the candidate."""
        return len(self.per_doc)

    @property
    def length(self) -> int:
        """Candidate length in tokens."""
        return len(self.tokens)

    def text(self) -> str:
        """The candidate as a plain string."""
        return " ".join(self.tokens)


@dataclass
class ExtractionContext:
    """Everything the measures need about a corpus's candidates.

    Attributes
    ----------
    candidates:
        token-tuple → :class:`CandidateStats`.
    n_documents:
        Corpus size.
    doc_lengths:
        Token count per document id.
    language:
        The corpus language (selects patterns/stopwords downstream).
    """

    candidates: dict[tuple[str, ...], CandidateStats]
    n_documents: int
    doc_lengths: dict[str, int]
    language: str = "en"
    _containers: dict[tuple[str, ...], list[CandidateStats]] | None = field(
        default=None, repr=False, compare=False
    )

    def filtered(self, min_frequency: int) -> "ExtractionContext":
        """This context without candidates rarer than ``min_frequency``.

        Returns ``self`` when nothing can be filtered; otherwise a new
        context sharing the kept :class:`CandidateStats` objects and the
        corpus statistics.
        """
        if min_frequency <= 1:
            return self
        return ExtractionContext(
            candidates={
                tokens: stats
                for tokens, stats in self.candidates.items()
                if stats.frequency >= min_frequency
            },
            n_documents=self.n_documents,
            doc_lengths=self.doc_lengths,
            language=self.language,
        )

    @property
    def avg_doc_length(self) -> float:
        """Mean document length in tokens."""
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths.values()) / len(self.doc_lengths)

    def _container_index(self) -> dict[tuple[str, ...], list[CandidateStats]]:
        """Sub-span → containing candidates, built once and cached.

        Candidates are short phrases, so enumerating every strict
        contiguous sub-span of every candidate is O(candidates · len²) —
        far cheaper than the O(candidates²) all-pairs scan it replaces.
        """
        if self._containers is None:
            containers: dict[tuple[str, ...], list[CandidateStats]] = {}
            for stats in self.candidates.values():
                tokens = stats.tokens
                length = stats.length
                spans = {
                    tokens[i : i + l]
                    for l in range(1, length)
                    for i in range(length - l + 1)
                }
                for span in spans:
                    containers.setdefault(span, []).append(stats)
            self._containers = containers
        return self._containers

    def nested_in(self, tokens: tuple[str, ...]) -> list[CandidateStats]:
        """Candidates that strictly contain ``tokens`` as a sub-sequence.

        Used by C-value's nested-term correction.
        """
        return self._container_index().get(tuple(tokens), [])


def harvest_candidates(
    corpus: Iterable[Document],
    *,
    tagger: LexiconTagger | None = None,
    matcher: TermPatternMatcher | None = None,
    language: str = "en",
    min_frequency: int = 1,
    stop_words: frozenset[str] | set[str] | None = None,
    into: ExtractionContext | None = None,
) -> ExtractionContext:
    """Fold the documents of ``corpus`` into an :class:`ExtractionContext`.

    Parameters
    ----------
    corpus:
        The documents to mine (a :class:`~repro.corpus.corpus.Corpus` or
        any document iterable), folded in order.
    tagger:
        POS tagger; defaults to a bare suffix-rule tagger (pass one
        seeded with the generator's POS lexicon for gold tags).
    matcher:
        Pattern inventory; defaults to the language's standard patterns.
    min_frequency:
        Candidates occurring fewer times are left out of the returned
        context (never out of ``into``).
    stop_words:
        Domain stop list (BioTex ships one for general-academic
        vocabulary: "study", "results", ...).  Candidates containing any
        stoplisted word are dropped, as are degenerate candidates that
        repeat a token ("study study").
    into:
        An unfiltered aggregate to extend in place; ``corpus`` must hold
        the documents that follow the ones already folded into it.
        ``None`` folds from empty, which is the from-scratch harvest.
        Candidate counting stays sentence-bounded either way (POS
        patterns never cross sentences).
    """
    if min_frequency < 1:
        raise ExtractionError(f"min_frequency must be >= 1, got {min_frequency}")
    tagger = tagger if tagger is not None else LexiconTagger(language=language)
    matcher = matcher if matcher is not None else TermPatternMatcher(language=language)
    stop = frozenset(w.lower() for w in stop_words) if stop_words else frozenset()

    context = into
    if context is None:
        context = ExtractionContext(
            candidates={}, n_documents=0, doc_lengths={}, language=language
        )
    candidates = context.candidates
    for doc in corpus:
        context.n_documents += 1
        context.doc_lengths[doc.doc_id] = doc.n_tokens()
        for sentence in doc.sentences:
            tagged = tagger.tag(sentence)
            for phrase, weight in extract_pattern_phrases(tagged, matcher):
                if stop and any(word in stop for word in phrase):
                    continue
                if len(set(phrase)) != len(phrase):
                    continue
                stats = candidates.get(phrase)
                if stats is None:
                    stats = CandidateStats(tokens=phrase)
                    candidates[phrase] = stats
                stats.frequency += 1
                stats.pattern_weight = max(stats.pattern_weight, weight)
                stats.per_doc[doc.doc_id] = stats.per_doc.get(doc.doc_id, 0) + 1
    if context.n_documents == 0:
        raise ExtractionError("cannot extract terms from an empty corpus")
    # The sub-span index covers the candidates of an earlier fold only.
    context._containers = None
    return context.filtered(min_frequency)
