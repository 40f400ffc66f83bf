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
the windows are counted with ``np.unique``.  The result is exactly what
the per-window loop gives -- :func:`repro.text.ngrams.extract_pattern_phrases`
on each tagged sentence, counted into the aggregate match by match --
which ``tests/test_harvest_oracle.py`` keeps as the reference.

The aggregate is one column store, :class:`CandidateColumns`: a row per
candidate (its word ids, length, frequency, document frequency and
pattern weight) and a (row, document, count) triplet per candidate and
document, in the order the candidate met its documents.  Rows are found
by a search over sorted row keys, one index per length, and a second
index maps every contiguous sub-span of every row to that row.  With
the two, the fold keeps C-value's nested sums -- per row, the sum and
count of the frequencies of the rows that contain it -- up to date: a
fold costs the rows its documents touch and their nested rows, never
the whole aggregate.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExtractionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document
from repro.text.patterns import TermPatternMatcher
from repro.text.postag import LexiconTagger, TaggedToken


def _keys(ids: np.ndarray) -> np.ndarray:
    """One key per row of word ids, equal iff the rows are equal.

    A one-word row's key is its word id; a longer row's is the row's
    bytes as one numpy void scalar, which sorts and searches by byte
    comparison.  Exact for any vocabulary size and row width, and stable
    for as long as the ids are.
    """
    if ids.shape[1] == 1:
        return ids[:, 0].copy()
    ids = np.ascontiguousarray(ids)
    return ids.view(np.dtype((np.void, ids.itemsize * ids.shape[1]))).ravel()


def _ragged(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``i`` and position ``lo[i] <= p < hi[i]``, as two arrays."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return owner, starts + np.arange(len(owner))


class _SortedKeys:
    """Sorted keys of one width, each with a row number."""

    def __init__(self) -> None:
        self.keys: np.ndarray | None = None
        self.rows = np.zeros(0, dtype=np.int64)

    def insert(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Add sorted ``keys`` with their ``rows``."""
        if self.keys is None:
            self.keys, self.rows = keys, rows
        else:
            at = np.searchsorted(self.keys, keys)
            self.keys = np.insert(self.keys, at, keys)
            self.rows = np.insert(self.rows, at, rows)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key (the keys are distinct here), -1 if absent."""
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[at] == keys, self.rows[at], -1)

    def ranges(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per key, the bounds of its equal keys in :attr:`rows`."""
        return (
            np.searchsorted(self.keys, keys, side="left"),
            np.searchsorted(self.keys, keys, side="right"),
        )


class CandidateColumns:
    """Step I's aggregate as one column store, a row per candidate.

    Row ``i`` holds candidate ``i``'s ``length``, ``frequency``,
    ``doc_frequency`` and ``pattern_weight``, and ``ids[i]``, its words
    as ids into ``words`` padded with -1 to the longest candidate.
    ``nested_sums[i]`` and ``nested_counts[i]`` are the sum and count
    of the frequencies of the rows that strictly contain row ``i`` as a
    contiguous sub-sequence: C-value's nested-term correction.  The
    triplets (``triplet_row``, ``triplet_doc``, ``triplet_count``) give
    each candidate's count per document, ``triplet_doc`` indexing
    ``doc_ids``; a candidate's triplets come in the order it first met
    each document.

    :meth:`fold` adds a fold's phrases; :meth:`take` copies a subset of
    rows for reading, with nested sums over that subset only.
    """

    def __init__(self) -> None:
        self.length = np.zeros(0, dtype=np.int64)
        self.frequency = np.zeros(0, dtype=np.int64)
        self.doc_frequency = np.zeros(0, dtype=np.int64)
        self.pattern_weight = np.zeros(0, dtype=np.float64)
        self.ids = np.zeros((0, 0), dtype=np.int64)
        self.nested_sums = np.zeros(0, dtype=np.int64)
        self.nested_counts = np.zeros(0, dtype=np.int64)
        self.triplet_row = np.zeros(0, dtype=np.int64)
        self.triplet_doc = np.zeros(0, dtype=np.int64)
        self.triplet_count = np.zeros(0, dtype=np.int64)
        self.words: list[str] = []
        self.doc_ids: list[str] = []
        self._word_ids: dict[str, int] = {}
        self._doc_codes: dict[str, int] = {}
        # Length -> the keys of the rows of that length.
        self._rows_by_key: dict[int, _SortedKeys] = defaultdict(_SortedKeys)
        # Span length -> the keys of every sub-span of that length of
        # every longer row, each with that (container) row.
        self._containers_by_key: dict[int, _SortedKeys] = defaultdict(_SortedKeys)

    def __len__(self) -> int:
        return len(self.length)

    def tokens(self, rows: Iterable[int]) -> list[tuple[str, ...]]:
        """The candidates of ``rows`` as token tuples."""
        words = self.words
        return [
            tuple(words[i] for i in row if i >= 0)
            for row in self.ids[np.asarray(rows, dtype=np.int64)].tolist()
        ]

    def word_id(self, word: str) -> int:
        """The id of ``word``, added to the vocabulary if it is new."""
        word_id = self._word_ids.get(word)
        if word_id is None:
            word_id = self._word_ids[word] = len(self.words)
            self.words.append(word)
        return word_id

    def take(self, rows: np.ndarray) -> "CandidateColumns":
        """A copy of ``rows`` (ascending) for reading, sharing the vocabulary.

        Its nested sums and counts cover the containers among ``rows``
        only, and its triplets are renumbered; it has no key index, so
        it cannot be folded into.
        """
        renumbered = np.full(len(self), -1, dtype=np.int64)
        renumbered[rows] = np.arange(len(rows))
        sums = np.zeros(len(rows), dtype=np.int64)
        counts = np.zeros(len(rows), dtype=np.int64)
        for span, at, keys in self._sorted_keys(rows):
            owner, container = self._containers(span, keys)
            kept = renumbered[container] >= 0
            np.add.at(sums, at[owner[kept]], self.frequency[container[kept]])
            np.add.at(counts, at[owner[kept]], 1)
        kept = renumbered[self.triplet_row] >= 0

        taken = CandidateColumns()
        taken.length = self.length[rows]
        taken.frequency = self.frequency[rows]
        taken.doc_frequency = self.doc_frequency[rows]
        taken.pattern_weight = self.pattern_weight[rows]
        taken.ids = self.ids[rows]
        taken.nested_sums = sums
        taken.nested_counts = counts
        taken.triplet_row = renumbered[self.triplet_row[kept]]
        taken.triplet_doc = self.triplet_doc[kept]
        taken.triplet_count = self.triplet_count[kept]
        taken.words, taken._word_ids = self.words, self._word_ids
        taken.doc_ids, taken._doc_codes = self.doc_ids, self._doc_codes
        taken._rows_by_key = taken._containers_by_key = None  # type: ignore[assignment]
        return taken

    def fold(
        self,
        ids: np.ndarray,
        frequency: np.ndarray,
        pattern_weight: np.ndarray,
        doc_ids: list[str],
        triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Add one fold's distinct phrases onto the store.

        ``ids`` holds the phrases as -1-padded word ids of this store,
        in the order new ones enter; ``frequency`` and
        ``pattern_weight`` are their occurrences and best pattern
        weight in the fold.  ``doc_ids`` are the fold's document ids, in
        order, and ``triplets`` its (phrase, document, count) triplets,
        a document being an index into ``doc_ids``, each phrase's
        triplets in document order.  A known phrase adds its
        frequency, keeps the higher pattern weight and adds its counts
        to the documents it already had (a repeated document id),
        appending the rest.
        """
        old_docs = len(self.doc_ids)
        codes = np.fromiter(map(self._doc_code, doc_ids), np.int64, len(doc_ids))
        length = (ids >= 0).sum(axis=1)
        rows = self._find(ids, length)
        new = np.flatnonzero(rows < 0)
        bumped = np.flatnonzero(rows >= 0)
        first = len(self)
        rows[new] = first + np.arange(len(new))

        phrase, doc, count = triplets
        row, doc = rows[phrase], codes[doc]
        again = np.flatnonzero((row < first) & (doc < old_docs))
        if len(again):
            # Documents folded before under the same id: add in place.
            n_docs = len(self.doc_ids)
            held = self.triplet_row * n_docs + self.triplet_doc
            order = np.argsort(held)
            held = held[order]
            wanted = row[again] * n_docs + doc[again]
            at = np.minimum(np.searchsorted(held, wanted), len(held) - 1)
            hit = held[at] == wanted
            self.triplet_count[order[at[hit]]] += count[again[hit]]
            appended = np.ones(len(row), dtype=bool)
            appended[again[hit]] = False
            row, doc, count = row[appended], doc[appended], count[appended]
        self.triplet_row = np.concatenate([self.triplet_row, row])
        self.triplet_doc = np.concatenate([self.triplet_doc, doc])
        self.triplet_count = np.concatenate([self.triplet_count, count])
        doc_frequency = np.bincount(row, minlength=first + len(new))

        old = rows[bumped]
        delta = frequency[bumped]
        self.frequency[old] += delta
        self.doc_frequency[old] += doc_frequency[old]
        held_weight = self.pattern_weight[old]
        weight = pattern_weight[bumped]
        self.pattern_weight[old] = np.where(weight > held_weight, weight, held_weight)

        width = max(self.ids.shape[1], ids.shape[1])
        padded = np.full((first + len(new), width), -1, dtype=np.int64)
        padded[:first, : self.ids.shape[1]] = self.ids
        padded[first:, : ids.shape[1]] = ids[new]
        self.ids = padded
        weight = pattern_weight[new]
        self.length = np.concatenate([self.length, length[new]])
        self.frequency = np.concatenate([self.frequency, frequency[new]])
        self.doc_frequency = np.concatenate([self.doc_frequency, doc_frequency[first:]])
        self.pattern_weight = np.concatenate(
            [self.pattern_weight, np.where(weight > 0.0, weight, 0.0)]
        )
        self._keep_nested_sums(old, delta, rows[new])

    def _doc_code(self, doc_id: str) -> int:
        code = self._doc_codes.get(doc_id)
        if code is None:
            code = self._doc_codes[doc_id] = len(self.doc_ids)
            self.doc_ids.append(doc_id)
        return code

    def _find(self, ids: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The row of each of ``ids`` (distinct, of ``length``), -1 if new."""
        rows = np.full(len(ids), -1, dtype=np.int64)
        for span, index in self._rows_by_key.items():
            at = np.flatnonzero(length == span)
            if len(at):
                rows[at] = index.find(_keys(ids[at, :span]))
        return rows

    def _sub_spans(self, rows: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        """(span, offset, positions in ``rows``) of every strict sub-span."""
        length = self.length[rows]
        longest = int(length.max(initial=0))
        for span in range(1, longest):
            for offset in range(longest - span + 1):
                at = np.flatnonzero((length > span) & (length >= offset + span))
                if len(at):
                    yield span, offset, at

    def _nested_in(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (nested row, position in ``rows``) of an indexed row
        strictly contained in a row of ``rows``.

        Within one row no word repeats (the harvest drops such windows),
        so its sub-spans are distinct and each pair comes once.
        """
        nested, at = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for span, offset, where in self._sub_spans(rows):
            index = self._rows_by_key.get(span)
            if index is None:
                continue
            found = index.find(_keys(self.ids[rows[where], offset : offset + span]))
            hit = found >= 0
            nested.append(found[hit])
            at.append(where[hit])
        return np.concatenate(nested), np.concatenate(at)

    def _keep_nested_sums(
        self, bumped: np.ndarray, delta: np.ndarray, new: np.ndarray
    ) -> None:
        """Bring the nested sums up to a fold that bumped the frequency of
        ``bumped`` rows by ``delta`` and appended the ``new`` rows.

        The rows held before the fold gain each bumped container's
        delta and each new container's frequency; the new rows' sums
        are read off the sub-span index once it holds them too.
        """
        self.nested_sums = np.concatenate(
            [self.nested_sums, np.zeros(len(new), np.int64)]
        )
        self.nested_counts = np.concatenate(
            [self.nested_counts, np.zeros(len(new), np.int64)]
        )
        containers = np.concatenate([bumped, new])
        nested, at = self._nested_in(containers)
        gain = np.concatenate([delta, self.frequency[new]])
        np.add.at(self.nested_sums, nested, gain[at])
        np.add.at(self.nested_counts, nested, at >= len(bumped))

        by_span: dict[int, tuple[list, list]] = {}
        for span, offset, where in self._sub_spans(new):
            keys, rows = by_span.setdefault(span, ([], []))
            keys.append(_keys(self.ids[new[where], offset : offset + span]))
            rows.append(new[where])
        for span, (keys, rows) in by_span.items():
            keys, rows = np.concatenate(keys), np.concatenate(rows)
            order = np.argsort(keys)
            self._containers_by_key[span].insert(keys[order], rows[order])
        for span, at, keys in self._sorted_keys(new):
            self._rows_by_key[span].insert(keys, new[at])
            owner, container = self._containers(span, keys)
            np.add.at(self.nested_sums, new[at[owner]], self.frequency[container])
            np.add.at(self.nested_counts, new[at[owner]], 1)

    def _sorted_keys(
        self, rows: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Per length, the positions in ``rows`` of that length and their
        keys, sorted by key (sorted keys search faster)."""
        length = self.length[rows]
        for span in np.unique(length).tolist():
            at = np.flatnonzero(length == span)
            keys = _keys(self.ids[rows[at], :span])
            order = np.argsort(keys)
            yield span, at[order], keys[order]

    def _containers(self, span: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (position in ``keys``, container row) pair of the rows of
        ``span`` words with sorted ``keys``: the rows that strictly
        contain them."""
        index = self._containers_by_key.get(span)
        if index is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        lo, hi = index.ranges(keys)
        owner, position = _ragged(lo, hi)
        return owner, index.rows[position]


def _row_keys(rows: np.ndarray, n_words: int) -> np.ndarray:
    """One int64 key per row of word ids, equal iff the rows are equal.

    The key of a row's first ``j + 1`` words is the dense id of its first
    ``j`` words among the distinct ones, times ``n_words``, plus word
    ``j``.  Dense ids stay below the row count, so keys never overflow
    int64 whatever the row width; they are valid within one call only,
    so the store keeps :func:`_keys` instead.  A fold counts its windows
    with these: ``np.unique`` sorts int64 keys faster than void ones,
    and with :func:`_keys` there the cold L fold took about 4% longer
    (median 0.194 against 0.186 s, 12 runs at seed 5 on a 2-core Xeon).
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
    n_documents:
        Corpus size.
    doc_lengths:
        Token count per document id.
    language:
        The corpus language (selects patterns/stopwords downstream).

    :meth:`columns` gives the candidates as :class:`CandidateColumns`,
    row ``i`` for candidate ``i``.
    """

    n_documents: int
    doc_lengths: dict[str, int]
    language: str = "en"
    _columns: CandidateColumns = field(
        default_factory=CandidateColumns, repr=False, compare=False
    )
    _rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    _taken: CandidateColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def columns(self) -> CandidateColumns:
        """The candidates as columns.

        For the live aggregate these are its own columns, which a later
        fold updates in place; a filtered context takes a copy of the
        rows it kept on the first call and keeps it.
        """
        if self._rows is None:
            return self._columns
        if self._taken is None:
            self._taken = self._columns.take(self._rows)
        return self._taken

    def filtered(self, min_frequency: int) -> "ExtractionContext":
        """This context without candidates rarer than ``min_frequency``.

        Returns ``self`` when nothing can be filtered; otherwise a new
        context sharing the columns and the corpus statistics.
        """
        if min_frequency <= 1:
            return self
        rows = (
            np.arange(len(self._columns)) if self._rows is None else self._rows
        )
        return ExtractionContext(
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
        context = ExtractionContext(n_documents=0, doc_lengths={}, language=language)
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
        self.doc_ids = doc_ids
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
    """Add every kept window of ``fold`` onto ``context``'s column store."""
    by_length: dict[int, dict[tuple[int, ...], float]] = {}
    for pattern in matcher.patterns:
        if not (matcher.min_length <= len(pattern) <= matcher.max_length):
            continue
        if not all(tag in fold.tag_codes for tag in pattern.tags):
            continue  # a tag this fold never saw matches nothing
        codes = tuple(fold.tag_codes[tag] for tag in pattern.tags)
        by_length.setdefault(len(pattern), {})[codes] = pattern.weight

    n_docs = len(fold.doc_ids)
    phrase_rows, firsts, lengths, frequencies, weights = [], [], [], [], []
    pair_phrases, pair_docs, pair_counts, pair_firsts = [], [], [], []
    n_phrases = 0
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
        phrase_rows.append(rows[first])
        firsts.append(starts[first])
        lengths.append(np.full(len(first), length))
        frequencies.append(occurrences)
        weights.append(best)
        # (phrase, document id) pairs: a repeated id sums into one.
        pairs, pair_first, pair_count = np.unique(
            inverse * n_docs + fold.doc[starts], return_index=True, return_counts=True
        )
        pair_phrases.append(pairs // n_docs + n_phrases)
        pair_docs.append(pairs % n_docs)
        pair_counts.append(pair_count)
        pair_firsts.append(starts[pair_first])
        n_phrases += len(first)
    if not n_phrases:
        return

    # Phrases in the order new ones enter: by sentence, then length,
    # then position of their first match.
    first_starts = np.concatenate(firsts)
    order = np.lexsort(
        (first_starts, np.concatenate(lengths), fold.sentence[first_starts])
    )
    entering = np.empty(n_phrases, dtype=np.int64)
    entering[order] = np.arange(n_phrases)
    pair_phrase = entering[np.concatenate(pair_phrases)]
    pair_order = np.lexsort((np.concatenate(pair_firsts), pair_phrase))

    # The phrases' words, as fold ids, then as ids of the store.
    width = max(words.shape[1] for words in phrase_rows)
    fold_ids = np.full((n_phrases, width), -1, dtype=np.int64)
    offset = 0
    for words in phrase_rows:
        fold_ids[offset : offset + len(words), : words.shape[1]] = words
        offset += len(words)
    fold_ids = fold_ids[order]
    columns = context._columns
    used = np.unique(fold_ids[fold_ids >= 0])
    to_store = np.zeros(len(fold.words), dtype=np.int64)
    to_store[used] = [columns.word_id(word) for word in fold.words[used].tolist()]
    columns.fold(
        np.where(fold_ids >= 0, to_store[fold_ids], -1),
        np.concatenate(frequencies)[order],
        np.concatenate(weights)[order],
        fold.doc_ids,
        (
            pair_phrase[pair_order],
            np.concatenate(pair_docs)[pair_order],
            np.concatenate(pair_counts)[pair_order],
        ),
    )
