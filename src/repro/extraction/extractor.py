"""The BioTex pipeline: harvest candidates, rank them, emit candidate terms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.corpus import Corpus
from repro.errors import ExtractionError
from repro.extraction.candidates import (
    CandidateColumns,
    ExtractionContext,
    harvest_candidates,
)
from repro.extraction.measures import MEASURE_NAMES, compute_measure
from repro.text.patterns import TermPatternMatcher
from repro.text.postag import LexiconTagger


@dataclass(frozen=True)
class RankedTerm:
    """A candidate term with its ranking score."""

    term: str
    tokens: tuple[str, ...]
    score: float
    frequency: int
    rank: int


class _Ranking:
    """One measure's ranking of an aggregate, ordered on demand.

    ``rows`` are the ranked candidates' rows of ``columns``;
    ``scores`` and ``frequencies`` are theirs, copied when the ranking
    was made, since a later fold bumps the columns in place.  ``order``
    holds positions into ``rows``, best first: the rows that score at
    least the ``k``-th best score for the longest prefix ``k`` asked
    for so far, fully ordered, so that it is a prefix of the whole
    ranking.  ``terms`` holds the :class:`RankedTerm` of each rank built
    so far.
    """

    def __init__(
        self,
        columns: CandidateColumns,
        rows: np.ndarray,
        scores: np.ndarray,
        frequencies: np.ndarray,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.scores = scores
        self.frequencies = frequencies
        self.order = np.zeros(0, dtype=np.int64)
        self.terms: list[RankedTerm] = []

    def head(self, top_k: int | None) -> list[RankedTerm]:
        """A new list of the best ``top_k`` terms (``None`` = all)."""
        size = len(self.rows)
        end = size if top_k is None else min(top_k, size)
        if len(self.order) < end:
            self.order = self._prefix(end)
        terms = self.terms
        start = min(len(terms), end)
        at = self.order[start:end]
        for rank, tokens, score, frequency in zip(
            range(start + 1, end + 1),
            self.columns.tokens(self.rows[at]),
            self.scores[at].tolist(),
            self.frequencies[at].tolist(),
            strict=True,
        ):
            terms.append(
                RankedTerm(
                    term=" ".join(tokens),
                    tokens=tokens,
                    score=score,
                    frequency=frequency,
                    rank=rank,
                )
            )
        return terms[:end]

    def _prefix(self, k: int) -> np.ndarray:
        """Every position scoring at least the ``k``-th best score, ordered.

        Score descending, then the token tuple, compared word by word in
        sorted word order; -1 pads a shorter tuple, so a prefix sorts
        before its extensions.  -0.0 and 0.0 tie, as equal floats do.
        """
        negated = -self.scores
        if k < len(negated):
            kth = np.partition(negated, k - 1)[k - 1]
            at = np.flatnonzero(negated <= kth)
        else:
            at = np.arange(len(negated))
        ids = self.columns.ids[self.rows[at]]
        present = ids >= 0
        used, inverse = np.unique(ids[present], return_inverse=True)
        words = [self.columns.words[i] for i in used.tolist()]
        ranks = np.empty(len(used), dtype=np.int64)
        ranks[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
        word_ranks = np.full(ids.shape, -1, dtype=np.int64)
        word_ranks[present] = ranks[inverse.ravel()]
        keys = [word_ranks[:, j] for j in reversed(range(ids.shape[1]))]
        return at[np.lexsort([*keys, negated[at]])]


@dataclass
class _Harvest:
    """The fold of the last corpus an extractor harvested.

    ``settings`` is everything besides the documents that shapes the
    aggregate; ``documents`` holds each folded document's id and a copy
    of its sentence token lists, in corpus order; ``rankings`` caches
    the ranking per (measure, min_frequency, min_length).
    """

    settings: tuple
    documents: list[tuple[str, list[list[str]]]]
    aggregate: ExtractionContext
    rankings: dict[tuple[str, int, int], _Ranking] = field(default_factory=dict)

    def extended_by(self, documents: list) -> bool:
        """Whether ``documents`` start with the folded ones, unchanged.

        Sentences are compared token by token, not through the corpus
        fingerprint: that lower-cases and flattens the tokens, and a
        case edit or a re-split changes the tagging.  (Sentences held
        in other containers than lists compare unequal: a refold.)
        """
        return len(documents) >= len(self.documents) and all(
            doc.doc_id == doc_id and doc.sentences == sentences
            for doc, (doc_id, sentences) in zip(documents, self.documents)
        )


def _copy(sentences) -> list[list[str]]:
    return [list(sentence) for sentence in sentences]


class BioTexExtractor:
    """End-to-end Step I: corpus in, ranked candidate terms out.

    Parameters
    ----------
    language:
        ``"en"``, ``"fr"``, or ``"es"`` — selects patterns and stopwords.
    measure:
        Ranking measure (default the paper's flagship ``lidf_value``).
    tagger:
        POS tagger.  For generated corpora pass
        ``LexiconTagger(lexicon.pos_lexicon)`` so tags are gold.
    matcher:
        POS pattern inventory (defaults to the language's).
    min_frequency:
        Minimum corpus frequency for a candidate to be ranked.
    min_length:
        Minimum candidate length in tokens (2 skips single words, which
        is how BioTex is typically run for ontology enrichment).
    stop_words:
        Domain stop list; candidates containing any of these words are
        dropped at harvest time.

    Example
    -------
    >>> from repro.corpus.document import Document
    >>> from repro.corpus.corpus import Corpus
    >>> corpus = Corpus([Document.from_text("d", "Corneal injury heals.")])
    >>> extractor = BioTexExtractor(measure="tf_idf", min_length=2)
    >>> [t.term for t in extractor.extract(corpus)][:1]
    ['corneal injury']
    """

    def __init__(
        self,
        *,
        language: str = "en",
        measure: str = "lidf_value",
        tagger: LexiconTagger | None = None,
        matcher: TermPatternMatcher | None = None,
        min_frequency: int = 1,
        min_length: int = 1,
        stop_words: frozenset[str] | set[str] | None = None,
    ) -> None:
        if measure not in MEASURE_NAMES:
            raise ExtractionError(
                f"unknown measure {measure!r}; options: {', '.join(MEASURE_NAMES)}"
            )
        if min_length < 1:
            raise ExtractionError(f"min_length must be >= 1, got {min_length}")
        self.language = language
        self.measure = measure
        self.tagger = tagger
        self.matcher = matcher
        self.min_frequency = min_frequency
        self.min_length = min_length
        self.stop_words = stop_words
        self.context_: ExtractionContext | None = None
        self._harvest: _Harvest | None = None

    def _settings(self) -> tuple:
        tagger = self.tagger
        return (
            tagger,
            tagger.lexicon_version if tagger is not None else None,
            self.matcher,
            frozenset(w.lower() for w in self.stop_words or ()),
            self.language,
        )

    def build_context(self, corpus: Corpus) -> ExtractionContext:
        """Harvest candidates from ``corpus`` (kept on ``context_``).

        The harvest is a fold over documents, and the extractor keeps
        the unfiltered aggregate of the last corpus it harvested.  A
        corpus that extends that one tags only its new documents; an
        unchanged corpus reuses the aggregate, and the rankings computed
        from it.  Anything else (an edited, reordered or removed
        document, or another tagger lexicon, matcher, stop list or
        language) folds from empty.  Either way the result equals a
        from-scratch harvest, iteration order included.  ``context_``
        is that live aggregate (filtered by ``min_frequency``), so a
        later call over a grown corpus extends it in place.
        """
        if self.min_frequency < 1:
            raise ExtractionError(
                f"min_frequency must be >= 1, got {self.min_frequency}"
            )
        documents = list(corpus)
        settings = self._settings()
        memo = self._harvest
        if memo is None or memo.settings != settings or not memo.extended_by(documents):
            memo = None
        folded = len(memo.documents) if memo is not None else 0
        if memo is None or folded < len(documents):
            # A fold that raises must not leave a half-extended memo.
            self._harvest = self.context_ = None
            aggregate = harvest_candidates(
                documents[folded:],
                tagger=self.tagger,
                matcher=self.matcher,
                language=self.language,
                stop_words=self.stop_words,
                into=memo.aggregate if memo is not None else None,
            )
            added = [(doc.doc_id, _copy(doc.sentences)) for doc in documents[folded:]]
            kept = memo.documents if memo is not None else []
            memo = _Harvest(settings, kept + added, aggregate)
        self._harvest = memo
        self.context_ = memo.aggregate.filtered(self.min_frequency)
        return self.context_

    def extract(
        self,
        corpus: Corpus,
        *,
        top_k: int | None = None,
        measure: str | None = None,
    ) -> list[RankedTerm]:
        """Extract and rank candidate terms from ``corpus``.

        Every candidate is scored once per harvested aggregate, as one
        numpy pass over the kept columns; only the prefix asked for is
        ordered (``np.partition`` finds the ``top_k``-th best score, and
        the rows scoring at least that are sorted), and
        :class:`RankedTerm` objects are built only for the longest
        prefix asked for so far.  Each call returns a new list.

        Parameters
        ----------
        top_k:
            Keep only the best ``top_k`` candidates (None = all).
        measure:
            Override the instance's ranking measure for this call.
        """
        measure = measure if measure is not None else self.measure
        if top_k is not None and top_k < 1:
            raise ExtractionError(f"top_k must be >= 1, got {top_k}")
        context = self.build_context(corpus)
        rankings = self._harvest.rankings
        key = (measure, self.min_frequency, self.min_length)
        ranking = rankings.get(key)
        if ranking is None:
            ranking = rankings[key] = self._rank(context, measure)
        return ranking.head(top_k)

    def _rank(self, context: ExtractionContext, measure: str) -> _Ranking:
        scores = compute_measure(measure, context)
        columns = context.columns()
        kept = np.flatnonzero(columns.length >= self.min_length)
        return _Ranking(columns, kept, scores[kept], columns.frequency[kept])
