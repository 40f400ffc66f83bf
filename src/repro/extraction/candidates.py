"""Candidate-term harvesting: POS-pattern filtering plus counting.

Produces the :class:`ExtractionContext` every ranking measure consumes:
candidate phrases (with frequency, document frequency, per-document
counts, best matching pattern weight) and corpus-level statistics.

The harvest is a fold over documents: each document's phrases are added,
in corpus order, onto the running aggregate.  Folding a corpus in two
parts, the second onto the first's aggregate, therefore gives exactly
the aggregate of folding it whole, iteration order included.

The fold runs on arrays.  Each sentence is tagged once; the fold's
tokens are then encoded as word ids (lower-cased text) and tag codes,
every pattern-matching window of each length is found with numpy, and
the windows are counted with ``np.unique``.  Only the per-candidate
update of the aggregate is Python.  The result is exactly what the
per-window loop gives -- :func:`repro.text.ngrams.extract_pattern_phrases`
on each tagged sentence, counted into the aggregate match by match --
which ``tests/test_harvest_oracle.py`` keeps as the reference.

Beside the :class:`CandidateStats` dict, the aggregate keeps its
candidates as numpy columns (:class:`CandidateColumns`): length,
frequency, document frequency, pattern weight and each candidate's word
ids.  The fold appends a row per new candidate and updates the rows it
bumps, so the measures of :mod:`repro.extraction.measures` score the
columns without walking the dict, and a one-document fold costs the
document, not the aggregate.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExtractionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document
from repro.text.patterns import TermPatternMatcher
from repro.text.postag import LexiconTagger, TaggedToken


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
    row:
        The candidate's row in its aggregate's :class:`CandidateColumns`.
    """

    tokens: tuple[str, ...]
    frequency: int = 0
    pattern_weight: float = 0.0
    per_doc: dict[str, int] = field(default_factory=dict)
    row: int = field(default=-1, repr=False, compare=False)

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


class CandidateColumns:
    """An aggregate's candidates as numpy columns, in candidate order.

    Row ``i`` mirrors the ``i``-th :class:`CandidateStats` of the
    aggregate: ``length``, ``frequency``, ``doc_frequency`` and
    ``pattern_weight``, plus ``ids[i]``, its words as ids into
    ``words`` padded with -1 to the longest candidate.  ``words`` is
    one vocabulary for the whole aggregate: the words of its
    candidates.  The harvest fold appends and updates rows;
    :meth:`take` copies a subset of rows.
    """

    def __init__(self) -> None:
        self.length = np.zeros(0, dtype=np.int64)
        self.frequency = np.zeros(0, dtype=np.int64)
        self.doc_frequency = np.zeros(0, dtype=np.int64)
        self.pattern_weight = np.zeros(0, dtype=np.float64)
        self.ids = np.zeros((0, 0), dtype=np.int64)
        self.words: list[str] = []
        self._word_ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.length)

    def take(self, rows: np.ndarray) -> "CandidateColumns":
        """A copy of ``rows`` of these columns, sharing the vocabulary."""
        taken = CandidateColumns()
        taken.length = self.length[rows]
        taken.frequency = self.frequency[rows]
        taken.doc_frequency = self.doc_frequency[rows]
        taken.pattern_weight = self.pattern_weight[rows]
        taken.ids = self.ids[rows]
        taken.words = self.words
        taken._word_ids = self._word_ids
        return taken

    def word_id(self, word: str) -> int:
        """The id of ``word``, added to the vocabulary if it is new."""
        word_id = self._word_ids.get(word)
        if word_id is None:
            word_id = self._word_ids[word] = len(self.words)
            self.words.append(word)
        return word_id

    def append(
        self,
        ids: np.ndarray,
        frequency: np.ndarray,
        doc_frequency: np.ndarray,
        pattern_weight: np.ndarray,
    ) -> None:
        """Add one row per candidate; ``ids`` is -1-padded, any width."""
        width = max(self.ids.shape[1], ids.shape[1])
        padded = np.full((len(self) + len(ids), width), -1, dtype=np.int64)
        padded[: len(self), : self.ids.shape[1]] = self.ids
        padded[len(self) :, : ids.shape[1]] = ids
        self.ids = padded
        self.length = np.concatenate([self.length, (ids >= 0).sum(axis=1)])
        self.frequency = np.concatenate([self.frequency, frequency])
        self.doc_frequency = np.concatenate([self.doc_frequency, doc_frequency])
        self.pattern_weight = np.concatenate([self.pattern_weight, pattern_weight])

    def nested_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the sum and count of its containers' frequencies.

        A row's containers are the rows that strictly contain it as a
        contiguous sub-sequence: C-value's nested-term correction.  Each
        sub-span of each longer row is looked up, per (length, offset),
        among the sorted keys of the rows of that length.  Within one
        candidate no word repeats (the harvest drops such windows), so
        its sub-spans are distinct and each (container, nested) pair
        counts once.  Sums are int64, exact as floats below 2**53.
        """
        n = len(self)
        sums = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for span in range(1, int(self.length.max(initial=0))):
            nested = np.flatnonzero(self.length == span)
            longer = np.flatnonzero(self.length > span)
            if not len(nested) or not len(longer):
                continue
            containers = [
                longer[self.length[longer] >= offset + span]
                for offset in range(self.ids.shape[1] - span + 1)
            ]
            keys = _row_keys(
                np.concatenate(
                    [self.ids[nested, :span]]
                    + [
                        self.ids[rows, offset : offset + span]
                        for offset, rows in enumerate(containers)
                    ]
                ),
                len(self.words),
            )
            order = np.argsort(keys[: len(nested)])
            nested_keys = keys[: len(nested)][order]
            span_keys = keys[len(nested) :]
            at = np.minimum(np.searchsorted(nested_keys, span_keys), len(nested) - 1)
            hit = nested_keys[at] == span_keys
            container = np.concatenate(containers)[hit]
            row = nested[order[at[hit]]]
            np.add.at(sums, row, self.frequency[container])
            np.add.at(counts, row, 1)
        return sums, counts

    def word_ranks(self) -> np.ndarray:
        """Each word id's position in the sorted vocabulary."""
        ranks = np.empty(len(self.words), dtype=np.int64)
        order = sorted(range(len(self.words)), key=self.words.__getitem__)
        ranks[order] = np.arange(len(self.words))
        return ranks


def _row_keys(rows: np.ndarray, n_words: int) -> np.ndarray:
    """One int64 key per row of word ids, equal iff the rows are equal.

    The key of a row's first ``j + 1`` words is the dense id of its first
    ``j`` words among the distinct ones, times ``n_words``, plus word
    ``j``.  Dense ids stay below the row count, so keys never overflow
    int64 whatever the row width.
    """
    key = rows[:, 0]
    for j in range(1, rows.shape[1]):
        prefix = np.unique(key, return_inverse=True)[1].ravel()
        key = prefix * n_words + rows[:, j]
    return key


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

    :meth:`columns` gives the candidates as :class:`CandidateColumns`,
    aligned with ``candidates``.
    """

    candidates: dict[tuple[str, ...], CandidateStats]
    n_documents: int
    doc_lengths: dict[str, int]
    language: str = "en"
    _columns: CandidateColumns = field(
        default_factory=CandidateColumns, repr=False, compare=False
    )
    _rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def columns(self) -> CandidateColumns:
        """The candidates as columns, row ``i`` for the ``i``-th candidate.

        For the live aggregate these are its own columns, which a later
        fold updates in place; a filtered context gets a copy of the rows
        it kept.
        """
        if self._rows is None:
            return self._columns
        return self._columns.take(self._rows)

    def filtered(self, min_frequency: int) -> "ExtractionContext":
        """This context without candidates rarer than ``min_frequency``.

        Returns ``self`` when nothing can be filtered; otherwise a new
        context sharing the kept :class:`CandidateStats` objects, the
        columns and the corpus statistics.
        """
        if min_frequency <= 1:
            return self
        rows = (
            np.arange(len(self._columns)) if self._rows is None else self._rows
        )
        return ExtractionContext(
            candidates={
                tokens: stats
                for tokens, stats in self.candidates.items()
                if stats.frequency >= min_frequency
            },
            n_documents=self.n_documents,
            doc_lengths=self.doc_lengths,
            language=self.language,
            _columns=self._columns,
            _rows=rows[self._columns.frequency[rows] >= min_frequency],
        )

    @property
    def avg_doc_length(self) -> float:
        """Mean document length in tokens."""
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths.values()) / len(self.doc_lengths)

    def nested_in(self, tokens: tuple[str, ...]) -> list[CandidateStats]:
        """Candidates that strictly contain ``tokens`` as a sub-sequence.

        C-value's nested-term correction, one term at a time, in
        candidate order; the measures read
        :meth:`CandidateColumns.nested_sums` instead.
        """
        tokens = tuple(tokens)
        span = len(tokens)
        if not span:
            return []
        return [
            stats
            for key, stats in self.candidates.items()
            if len(key) > span
            and any(key[i : i + span] == tokens for i in range(len(key) - span + 1))
        ]


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

    A candidate is a window of one sentence's tagged tokens, of length
    ``matcher.min_length .. matcher.max_length``, whose tag sequence is
    one of ``matcher.patterns``; its words are the tokens' lower-cased
    text.  Each match adds one to the candidate's frequency and to its
    count for the match's document id, and raises its pattern weight to
    the match's pattern weight if that is higher.  New candidates enter
    the aggregate in the order of their first match (by sentence, then
    window length, then position), and a candidate's new document ids in
    document order: the order of matching window by window.

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

    Each sentence is tagged with one ``tagger.tag`` call; the matching
    and counting run on arrays (see the module docstring), and
    ``tests/test_harvest_oracle.py`` checks them against the per-window
    loop.
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
    tokens: list[TaggedToken] = []
    sentence_lengths: list[int] = []
    sentence_docs: list[int] = []
    doc_codes: dict[str, int] = {}
    for doc in corpus:
        context.n_documents += 1
        context.doc_lengths[doc.doc_id] = doc.n_tokens()
        code = doc_codes.setdefault(doc.doc_id, len(doc_codes))
        for sentence in doc.sentences:
            tagged = tagger.tag(sentence)
            tokens.extend(tagged)
            sentence_lengths.append(len(tagged))
            sentence_docs.append(code)
    if context.n_documents == 0:
        raise ExtractionError("cannot extract terms from an empty corpus")
    _fold_matches(
        context,
        _TaggedFold(tokens, sentence_lengths, sentence_docs, list(doc_codes), stop),
        matcher,
    )
    return context.filtered(min_frequency)


class _TaggedFold:
    """One fold's tagged tokens as flat arrays.

    ``word[p]`` and ``tag[p]`` are the word id and tag code of token
    ``p``; ``room[p]`` counts the tokens from ``p`` to the end of its
    sentence, so a window of length ``L`` may start at ``p`` iff
    ``room[p] >= L``; ``sentence[p]`` and ``doc[p]`` index the token's
    sentence and document id.  ``words``, ``doc_ids`` and ``is_stop``
    map ids back to words, ids back to document ids and word ids to
    stop-list membership.  Codes are assigned per fold, over whatever
    tags the tagger returned.
    """

    def __init__(
        self,
        tokens: list[TaggedToken],
        sentence_lengths: list[int],
        sentence_docs: list[int],
        doc_ids: list[str],
        stop: frozenset[str],
    ) -> None:
        texts = list(map(attrgetter("text"), tokens))
        tags = list(map(attrgetter("tag"), tokens))
        word_ids: dict[str, int] = {}
        by_text = dict.fromkeys(texts, 0)
        for text in by_text:
            by_text[text] = word_ids.setdefault(text.lower(), len(word_ids))
        self.words = np.array(list(word_ids), dtype=object)
        self.tag_codes = {tag: code for code, tag in enumerate(dict.fromkeys(tags))}
        n = len(tokens)
        self.word = np.fromiter(map(by_text.__getitem__, texts), np.int64, n)
        self.tag = np.fromiter(map(self.tag_codes.__getitem__, tags), np.int64, n)
        lengths = np.asarray(sentence_lengths, dtype=np.int64)
        self.room = np.repeat(np.cumsum(lengths), lengths) - np.arange(n)
        self.sentence = np.repeat(np.arange(len(lengths)), lengths)
        self.doc = np.repeat(np.asarray(sentence_docs, dtype=np.int64), lengths)
        self.doc_ids = np.array(doc_ids, dtype=object)
        self.is_stop = np.fromiter(
            (word in stop for word in self.words), bool, len(self.words)
        )


def _matches(
    fold: _TaggedFold, length: int, patterns: dict[tuple[int, ...], float]
) -> tuple[np.ndarray, np.ndarray]:
    """Starts and pattern weights of the kept windows of ``length``.

    A window is kept when its tag codes are one of ``patterns``, none of
    its words is a stop word and no word repeats inside it.  Starts come
    out ascending.
    """
    starts = np.flatnonzero(fold.room >= length)
    tags = [fold.tag[starts + j] for j in range(length)]
    keep = np.zeros(len(starts), dtype=bool)
    weight = np.zeros(len(starts))
    for codes, pattern_weight in patterns.items():
        hit = np.ones(len(starts), dtype=bool)
        for j, code in enumerate(codes):
            hit &= tags[j] == code
        keep |= hit
        weight[hit] = pattern_weight
    words = [fold.word[starts + j] for j in range(length)]
    for j in range(length):
        keep &= ~fold.is_stop[words[j]]
        for i in range(j):
            keep &= words[i] != words[j]
    return starts[keep], weight[keep]


def _fold_matches(
    context: ExtractionContext,
    fold: _TaggedFold,
    matcher: TermPatternMatcher,
) -> None:
    """Add every kept window of ``fold`` onto ``context``'s aggregate.

    Updates each :class:`CandidateStats` and its row of the columns.
    """
    by_length: dict[int, dict[tuple[int, ...], float]] = {}
    for pattern in matcher.patterns:
        if not (matcher.min_length <= len(pattern) <= matcher.max_length):
            continue
        if not all(tag in fold.tag_codes for tag in pattern.tags):
            continue  # a tag this fold never saw matches nothing
        codes = tuple(fold.tag_codes[tag] for tag in pattern.tags)
        by_length.setdefault(len(pattern), {})[codes] = pattern.weight

    n_docs = len(fold.doc_ids)
    phrases: list[tuple[str, ...]] = []
    phrase_rows, firsts, lengths, frequencies, weights = [], [], [], [], []
    pair_candidates, pair_docs, pair_counts, pair_firsts = [], [], [], []
    for length, patterns in sorted(by_length.items()):
        starts, weight = _matches(fold, length, patterns)
        if not len(starts):
            continue
        rows = np.stack([fold.word[starts + j] for j in range(length)], axis=1)
        _, first, inverse, occurrences = np.unique(
            _row_keys(rows, len(fold.words)),
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        inverse = inverse.ravel()
        best = np.full(len(first), -np.inf)
        np.maximum.at(best, inverse, weight)
        offset = len(phrases)
        phrases.extend(map(tuple, fold.words[rows[first]].tolist()))
        phrase_rows.append(rows[first])
        firsts.append(starts[first])
        lengths.append(np.full(len(first), length))
        frequencies.append(occurrences)
        weights.append(best)
        # (candidate, document id) pairs: a repeated id sums into one.
        pairs, pair_first, pair_count = np.unique(
            inverse * n_docs + fold.doc[starts], return_index=True, return_counts=True
        )
        pair_candidates.append(pairs // n_docs + offset)
        pair_docs.append(pairs % n_docs)
        pair_counts.append(pair_count)
        pair_firsts.append(starts[pair_first])
    if not phrases:
        return

    first_starts = np.concatenate(firsts)
    order = np.lexsort(
        (first_starts, np.concatenate(lengths), fold.sentence[first_starts])
    )
    pair_candidate = np.concatenate(pair_candidates)
    pair_order = np.lexsort((np.concatenate(pair_firsts), pair_candidate))
    # Candidate i's pairs are docs[bounds[i]:bounds[i + 1]].
    bounds = np.searchsorted(pair_candidate[pair_order], np.arange(len(phrases) + 1))
    doc_frequency = np.diff(bounds)
    bounds = bounds.tolist()
    docs = fold.doc_ids[np.concatenate(pair_docs)[pair_order]].tolist()
    doc_counts = np.concatenate(pair_counts)[pair_order].tolist()
    frequencies = np.concatenate(frequencies)
    frequency = frequencies.tolist()
    pattern_weight = np.concatenate(weights).tolist()
    candidates = context.candidates
    columns = context._columns
    row = len(columns)
    new: list[int] = []
    bumped: list[CandidateStats] = []
    for index in order.tolist():
        phrase = phrases[index]
        lo, hi = bounds[index], bounds[index + 1]
        stats = candidates.get(phrase)
        if stats is None:
            candidates[phrase] = CandidateStats(
                tokens=phrase,
                frequency=frequency[index],
                pattern_weight=max(0.0, pattern_weight[index]),
                per_doc=dict(zip(docs[lo:hi], doc_counts[lo:hi], strict=True)),
                row=row + len(new),
            )
            new.append(index)
            continue
        stats.frequency += frequency[index]
        stats.pattern_weight = max(stats.pattern_weight, pattern_weight[index])
        per_doc = stats.per_doc
        for doc_id, count in zip(docs[lo:hi], doc_counts[lo:hi], strict=True):
            per_doc[doc_id] = per_doc.get(doc_id, 0) + count
        bumped.append(stats)

    if bumped:
        bumped_rows = [stats.row for stats in bumped]
        columns.frequency[bumped_rows] = [stats.frequency for stats in bumped]
        columns.doc_frequency[bumped_rows] = [len(stats.per_doc) for stats in bumped]
        columns.pattern_weight[bumped_rows] = [
            stats.pattern_weight for stats in bumped
        ]
    if new:
        # The new candidates' words, as fold ids, then as aggregate ids.
        width = max(words.shape[1] for words in phrase_rows)
        fold_ids = np.full((len(phrases), width), -1, dtype=np.int64)
        offset = 0
        for words in phrase_rows:
            fold_ids[offset : offset + len(words), : words.shape[1]] = words
            offset += len(words)
        fold_ids = fold_ids[new]
        used = np.unique(fold_ids[fold_ids >= 0])
        to_aggregate = np.zeros(len(fold.words), dtype=np.int64)
        to_aggregate[used] = [columns.word_id(word) for word in fold.words[used]]
        columns.append(
            np.where(fold_ids >= 0, to_aggregate[fold_ids], -1),
            frequencies[new],
            doc_frequency[new],
            np.array(
                [candidates[phrases[index]].pattern_weight for index in new],
                dtype=np.float64,
            ),
        )
