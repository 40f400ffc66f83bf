"""The positional corpus index: one build, every occurrence question.

Steps I–IV repeatedly ask "where does term *t* occur and what surrounds
it?".  The naive answer — rescan every document per term — makes the
workflow O(candidates × corpus).  :class:`CorpusIndex` is built once per
corpus and answers every occurrence question from a few array columns:

* the document ids, and int64 document offsets into an int32 column of
  token ids (the corpus, token by token);
* the vocabulary, a list of tokens plus a token → id dict;
* CSR postings: per-token offsets into int32 document ordinals and
  positions, each token's run in (document, position) order.

Its queries:

* :meth:`phrase_occurrences` — every (overlapping) start position of a
  token phrase, located through the phrase's rarest token;
* :meth:`contexts_for_term` — single-term retrieval (greedy
  non-overlapping matches, windows clipped at document boundaries),
  byte-identical to a per-document scan (the oracle of
  ``tests/test_corpus_index.py``);
* :meth:`occurrence_records` — multi-term retrieval, the context
  source of Steps II and IV (overlapping occurrences allowed, longest
  term wins at any single start position);
* :meth:`term_frequency` / :meth:`document_frequency` — counting without
  window materialisation.

Tokens are normalised (lower-cased) at build time, so postings always
match the lower-cased needles every lookup uses — a document constructed
with mixed-case sentences is findable instead of silently invisible.

An index built here and one opened from an
:class:`~repro.corpus.index_store.IndexStore` generation
(:class:`~repro.corpus.index_store.MmapCorpusIndex`) run the same query
code over the same columns; the arrays only live in RAM or in an
``np.memmap``.  Either grows with its corpus: :meth:`add_documents`
appends to the column and inserts the new postings at the end of their
tokens' runs, in O(new tokens) plus one copy of each array, and
publishes the new state with one attribute assignment.  So
:meth:`snapshot` is O(1), and a snapshot keeps answering over the
state it was taken at however the index grows.  Mutating a
:class:`Document` in place is still not detected.

:class:`KeptOccurrenceRecords` keeps one term list's
:meth:`~CorpusIndex.occurrence_records` as the corpus grows, and
:class:`KeptTermContexts` each term's :meth:`~CorpusIndex.contexts_for_term`:
a corpus that extends the kept one along the fingerprint chain is read
only through its new documents, whichever index object serves it.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import CorpusError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document

from repro.corpus.corpus import TermContext

#: Fingerprint of an index with no documents — the chain seed.
EMPTY_FINGERPRINT = hashlib.sha1().hexdigest()


def _as_needle(term: str | Sequence[str]) -> tuple[str, ...]:
    """Normalise a term to its lower-cased token tuple (may be empty)."""
    if isinstance(term, str):
        return tuple(term.lower().split())
    return tuple(t.lower() for t in term)


def _needles(terms: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """``{key: tokens}`` of a term list, as :meth:`occurrence_records` keys it."""
    needles: dict[str, tuple[str, ...]] = {}
    for term in terms:
        tokens = _as_needle(term)
        if tokens:
            needles[" ".join(tokens)] = tokens
    return needles


def _extend_fingerprint(
    fingerprint: str, doc_id: str, tokens: list[str]
) -> str:
    """Chain one document's content onto a running fingerprint.

    The fingerprint is a per-document hash chain (each link hashes the
    previous fingerprint plus the document's id and normalised tokens),
    so appending a document is O(its tokens) — no replay of the whole
    corpus — while any added, removed, reordered, or edited document
    still changes the final value.  A fresh build and an incrementally
    extended index over the same documents produce identical chains.

    A link reads the id up to a NUL and the tokens between U+001F
    separators, so it is injective only for ids without a NUL and
    tokens that are non-empty and free of U+001F.  Any other document
    raises :class:`~repro.errors.CorpusError`: it could share a
    fingerprint (and so a stored index generation) with another corpus.
    """
    joined = "\x1f".join(tokens)
    if "\x00" in doc_id:
        raise CorpusError(f"document id {doc_id!r} contains a NUL character")
    if tokens and ("" in tokens or joined.count("\x1f") != len(tokens) - 1):
        raise CorpusError(
            f"document {doc_id!r} has an empty token or a token "
            "containing U+001F"
        )
    link = f"{fingerprint}{doc_id}\x00{joined}\x01"
    return hashlib.sha1(link.encode("utf-8")).hexdigest()


def check_document(document: "Document") -> None:
    """Raise :class:`~repro.errors.CorpusError` for a document no index
    accepts (see :func:`_extend_fingerprint`), before anything changes."""
    _extend_fingerprint(EMPTY_FINGERPRINT, document.doc_id, document.tokens())


def fingerprint_documents(
    documents: "Iterable[Document]", fingerprint: str = EMPTY_FINGERPRINT
) -> str:
    """Chain ``documents`` onto ``fingerprint`` as an index build would.

    From the default seed this is the fingerprint a fresh
    :class:`CorpusIndex` over ``documents`` computes (C-speed hashing,
    far cheaper than a build).
    """
    for doc in documents:
        tokens = [token.lower() for token in doc.tokens()]
        fingerprint = _extend_fingerprint(fingerprint, doc.doc_id, tokens)
    return fingerprint


def documents_after(
    corpus: "Sequence[Document]",
    index: "CorpusIndex",
    fingerprint: str | None,
    n_documents: int,
) -> "list[Document] | None":
    """The documents of ``corpus`` past its first ``n_documents``, if
    they chain ``fingerprint`` to ``index.fingerprint()``.

    ``corpus`` holds ``index``'s documents in order.  ``None`` when
    they do not, or when ``fingerprint`` is ``None`` (nothing kept): a
    caller keeping state derived from the first ``n_documents`` then
    starts over, and otherwise reads only the returned documents.
    """
    if fingerprint is None or len(corpus) < n_documents:
        return None
    added = [corpus[i] for i in range(n_documents, len(corpus))]
    chained = fingerprint_documents(added, fingerprint)
    return added if chained == index.fingerprint() else None


class Strings:
    """An append-only table of distinct strings: ``items[i]`` has id ``i``.

    The vocabulary and the document ids of an index are such tables.
    An index and its snapshots share them, each reading only the ids
    below its own count, so growth appends in place.  A table opened
    from a store generation decodes its utf-8 ``blob`` (``offsets``
    bound each string) on first use.
    """

    def __init__(
        self,
        items: Iterable[str] = (),
        *,
        blob: "np.ndarray | None" = None,
        offsets: "np.ndarray | None" = None,
    ) -> None:
        self._blob, self._offsets = blob, offsets
        self._items: list[str] | None = None if blob is not None else list(items)
        self._ids: dict[str, int] | None = None
        self._array: np.ndarray | None = None
        # Lazy decoding and appends take turns; lookups need no lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        items = self._items
        return len(self._offsets) - 1 if items is None else len(items)

    def items(self) -> list[str]:
        """Every string, by id."""
        if self._items is None:
            with self._lock:
                if self._items is None:
                    blob, bounds = bytes(self._blob), self._offsets.tolist()
                    self._items = [
                        blob[start:end].decode("utf-8")
                        for start, end in zip(bounds, bounds[1:])
                    ]
        return self._items

    def ids(self) -> dict[str, int]:
        """``string -> id`` over every string."""
        if self._ids is None:
            items = self.items()
            with self._lock:
                if self._ids is None:
                    self._ids = {item: i for i, item in enumerate(items)}
        return self._ids

    def array(self, n: int) -> np.ndarray:
        """An object array of (at least) the first ``n`` strings."""
        array = self._array
        if array is None or len(array) < n:
            items = self.items()
            with self._lock:
                array = self._array = np.array(items, dtype=object)
        return array

    def extend(self, new: list[str]) -> None:
        """Append ``new`` (strings not in the table yet)."""
        ids = self.ids()
        with self._lock:
            items = self._items
            ids.update(zip(new, range(len(items), len(items) + len(new))))
            items.extend(new)

    def prefix(self, n: int) -> "Strings":
        """A table of the first ``n`` strings only."""
        return Strings(self.items()[:n])


class Columns(NamedTuple):
    """One immutable state of a :class:`CorpusIndex`.

    ``D`` documents of ``N`` tokens over a vocabulary of ``V`` tokens;
    the two tables may hold more strings than this state reads (a later
    state appended them).
    """

    fingerprint: str
    doc_ids: Strings
    doc_offsets: np.ndarray  # int64 (D + 1): document d is tokens[o[d]:o[d + 1]]
    token_ids: np.ndarray  # int32 (N): vocabulary id per token
    vocabulary: Strings
    postings_offsets: np.ndarray  # int64 (V + 1): token t's postings run
    postings_docs: np.ndarray  # int32 (N): document ordinal per posting
    postings_positions: np.ndarray  # int32 (N): position in its document


def _empty_columns() -> Columns:
    return Columns(
        fingerprint=EMPTY_FINGERPRINT,
        doc_ids=Strings(),
        doc_offsets=np.zeros(1, dtype=np.int64),
        token_ids=np.empty(0, dtype=np.int32),
        vocabulary=Strings(),
        postings_offsets=np.zeros(1, dtype=np.int64),
        postings_docs=np.empty(0, dtype=np.int32),
        postings_positions=np.empty(0, dtype=np.int32),
    )


def _grow(
    columns: Columns, prepared: list[tuple[str, list[str]]], fingerprint: str
) -> Columns:
    """``columns`` with the checked documents of ``prepared`` appended."""
    n_docs = len(columns.doc_offsets) - 1
    n_vocab = len(columns.postings_offsets) - 1
    n_tokens = len(columns.token_ids)
    doc_ids, vocabulary = columns.doc_ids, columns.vocabulary
    # Another state grew these tables past this one: branch off a copy.
    if len(doc_ids) != n_docs:
        doc_ids = doc_ids.prefix(n_docs)
    if len(vocabulary) != n_vocab:
        vocabulary = vocabulary.prefix(n_vocab)
    doc_ids.extend([doc_id for doc_id, __ in prepared])
    tokens = [token for __, doc_tokens in prepared for token in doc_tokens]
    ids = vocabulary.ids()
    vocabulary.extend([token for token in dict.fromkeys(tokens) if token not in ids])
    new_ids = np.fromiter(
        map(ids.__getitem__, tokens), dtype=np.int32, count=len(tokens)
    )
    lengths = np.array([len(doc_tokens) for __, doc_tokens in prepared], dtype=np.int64)
    ends = np.cumsum(lengths)
    doc_offsets = np.concatenate([columns.doc_offsets, n_tokens + ends])

    # The new postings, grouped by token in (document, position) order,
    # go at the end of their token's run; new tokens' runs go last.
    order = np.argsort(new_ids, kind="stable")
    docs = np.repeat(np.arange(n_docs, n_docs + len(prepared), dtype=np.int32), lengths)
    positions = np.arange(len(tokens), dtype=np.int64) - np.repeat(ends - lengths, lengths)
    run_ends = np.concatenate(
        [columns.postings_offsets[1:], np.full(len(vocabulary) - n_vocab, n_tokens)]
    )
    at = run_ends[new_ids[order]]
    counts = np.bincount(new_ids, minlength=len(vocabulary))
    counts[:n_vocab] += np.diff(columns.postings_offsets)
    postings_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=postings_offsets[1:])
    return Columns(
        fingerprint=fingerprint,
        doc_ids=doc_ids,
        doc_offsets=doc_offsets,
        token_ids=np.concatenate([columns.token_ids, new_ids]),
        vocabulary=vocabulary,
        postings_offsets=postings_offsets,
        postings_docs=np.insert(columns.postings_docs, at, docs[order]),
        postings_positions=np.insert(
            columns.postings_positions, at, positions[order].astype(np.int32)
        ),
    )


def _non_overlapping(
    docs: np.ndarray, starts: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy left-to-right matches: none overlaps the one before."""
    close = (docs[1:] == docs[:-1]) & (starts[1:] - starts[:-1] < span)
    if not close.any():
        return docs, starts
    keep = []
    last_doc, last_end = -1, 0
    for i, (doc, start) in enumerate(zip(docs.tolist(), starts.tolist())):
        if doc == last_doc and start < last_end:
            continue
        last_doc, last_end = doc, start + span
        keep.append(i)
    return docs[keep], starts[keep]


def _windows(
    columns: Columns,
    docs: np.ndarray,
    starts: np.ndarray,
    spans: np.ndarray | int,
    window: int,
) -> list[tuple[str, ...]]:
    """Window tokens around each occurrence, the occurrence excluded.

    Windows clip at document boundaries.  Every window's ids are
    gathered and decoded at once, then sliced per occurrence.
    """
    at = columns.doc_offsets[docs] + starts
    left = np.minimum(starts, window)
    right = np.minimum(columns.doc_offsets[docs + 1] - at - spans, window)
    segment_starts = np.stack([at - left, at + spans], axis=1).ravel()
    segment_lengths = np.stack([left, right], axis=1).ravel()
    bounds = np.zeros(len(segment_lengths) + 1, dtype=np.int64)
    np.cumsum(segment_lengths, out=bounds[1:])
    gather = np.repeat(segment_starts - bounds[:-1], segment_lengths)
    gather += np.arange(bounds[-1])
    n_vocab = len(columns.postings_offsets) - 1
    words = tuple(
        columns.vocabulary.array(n_vocab)[columns.token_ids[gather]].tolist()
    )
    edges = bounds[::2].tolist()
    return [words[start:end] for start, end in zip(edges, edges[1:])]


class CorpusIndex:
    """Positional inverted index over a corpus (any Document iterable).

    Parameters
    ----------
    documents:
        The documents to index (e.g. a :class:`~repro.corpus.corpus.Corpus`).
        Built in one pass: O(total tokens).

    Example
    -------
    >>> from repro.corpus.corpus import Corpus
    >>> from repro.corpus.document import Document
    >>> corpus = Corpus([Document("d", [["corneal", "injury", "heals"]])])
    >>> index = CorpusIndex(corpus)
    >>> index.term_frequency("corneal injury")
    1
    """

    def __init__(self, documents: "Iterable[Document]" = ()) -> None:
        self._state = _empty_columns()
        #: (state, doc_lengths of that state), filled on first use.
        self._lengths: tuple[Columns, dict[str, int]] | None = None
        self.add_documents(documents)

    # -- growth ---------------------------------------------------------------

    def add_documents(self, documents: "Iterable[Document]") -> None:
        """Extend the index with ``documents`` in O(their tokens).

        The result is indistinguishable from a fresh build over the
        full document sequence (identical query answers and
        :meth:`fingerprint`); snapshots taken before keep answering as
        before.  The batch is all-or-nothing: document ids must stay
        unique, and a duplicate, a document the fingerprint chain
        rejects (see :func:`check_document`) or one whose tokenisation
        fails raises :class:`~repro.errors.CorpusError` (or the
        tokeniser's error) before any document of the batch is applied,
        leaving the index and its fingerprint untouched.
        """
        columns = self._state
        n_docs = len(columns.doc_offsets) - 1
        known = columns.doc_ids.ids()
        batch_ids = set()
        prepared: list[tuple[str, list[str]]] = []
        fingerprint = columns.fingerprint
        for doc in documents:
            if known.get(doc.doc_id, n_docs) < n_docs or doc.doc_id in batch_ids:
                raise CorpusError(f"duplicate document id {doc.doc_id!r}")
            batch_ids.add(doc.doc_id)
            # Normalise at build time: every lookup lower-cases its
            # needle, so postings must be lower-cased too or mixed-case
            # documents silently return zero occurrences.  Tokenise and
            # chain the fingerprint here, before any mutation:
            # ``doc.tokens()`` runs caller code, and a failure or a
            # rejected document mid-batch must leave no trace.
            tokens = [token.lower() for token in doc.tokens()]
            fingerprint = _extend_fingerprint(fingerprint, doc.doc_id, tokens)
            prepared.append((doc.doc_id, tokens))
        if prepared:
            self._state = _grow(columns, prepared, fingerprint)

    def columns(self) -> Columns:
        """The current state: every column, as one immutable tuple."""
        return self._state

    def snapshot(self) -> "CorpusIndex":
        """An index over the current state, in O(1).

        Later growth of this index never changes the snapshot's
        answers, so a reader can hold one while another thread grows
        the corpus.
        """
        snapshot = CorpusIndex()
        snapshot._state = self._state
        return snapshot

    # -- corpus-level statistics --------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the indexed corpus (doc ids + tokens).

        Two indexes over byte-identical corpora share a fingerprint —
        whether built fresh, extended through :meth:`add_documents`, or
        reopened from an index store; any added, removed,
        reordered, or edited document changes it.  It names the stored
        index generation and binds every corpus-dependent artefact an
        enricher keeps (the fitted detector, kept occurrence records,
        the Step IV context space).  Maintained as a per-document hash
        chain, so it is extended in O(new tokens) as documents are
        added.
        """
        return self._state.fingerprint

    def n_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._state.doc_offsets) - 1

    def n_tokens(self) -> int:
        """Total token count over all indexed documents."""
        return len(self._state.token_ids)

    def vocabulary_size(self) -> int:
        """Number of distinct tokens."""
        return len(self._state.postings_offsets) - 1

    def doc_lengths(self) -> dict[str, int]:
        """``doc_id → token count`` over all indexed documents.

        The mapping is computed once per state and cached (growth
        starts a new one), so repeat consumers — every extraction
        build reads it — are allocation-free.  The returned dict is
        shared: treat it as read-only.
        """
        columns = self._state
        cached = self._lengths
        if cached is None or cached[0] is not columns:
            lengths = np.diff(columns.doc_offsets).tolist()
            cached = self._lengths = (
                columns,
                dict(zip(columns.doc_ids.items(), lengths)),
            )
        return cached[1]

    def document_tokens(self, ordinal: int) -> list[str]:
        """The tokens of the document at ``ordinal``, decoded.

        Lets a caller read only the documents a posting list names
        instead of materialising every document.
        """
        columns = self._state
        start, end = columns.doc_offsets[ordinal : ordinal + 2].tolist()
        vocabulary = columns.vocabulary.array(len(columns.postings_offsets) - 1)
        return vocabulary[columns.token_ids[start:end]].tolist()

    def token_frequency(self, token: str) -> int:
        """Occurrences of a single ``token`` (0 when unseen)."""
        columns = self._state
        token_id = _token_id(columns, token.lower())
        if token_id is None:
            return 0
        offsets = columns.postings_offsets
        return int(offsets[token_id + 1] - offsets[token_id])

    # -- phrase lookup -------------------------------------------------------

    def phrase_occurrences(
        self, term: str | Sequence[str]
    ) -> list[tuple[int, int]]:
        """Every ``(doc ordinal, start position)`` of ``term``, overlapping.

        Matching anchors on the phrase's rarest token, so lookup cost is
        proportional to that token's posting list, not the corpus.
        Results are sorted ascending by (ordinal, start).
        """
        docs, starts = _occurrences(self._state, _checked_needle(term))
        return list(zip(docs.tolist(), starts.tolist()))

    # -- the single-term retrieval ------------------------------------------

    def contexts_for_term(
        self,
        term: str | Sequence[str],
        *,
        window: int = 10,
    ) -> list[TermContext]:
        """Token windows around each occurrence of ``term``.

        Matches are consumed greedily left to right (an occurrence may
        not overlap the previous one), and windows clip at document
        boundaries, exactly as a scan of each document would.
        """
        needle = _checked_needle(term)
        if window < 1:
            raise CorpusError(f"window must be >= 1, got {window}")
        columns = self._state
        docs, starts = _non_overlapping(
            *_occurrences(columns, needle), len(needle)
        )
        windows = _windows(columns, docs, starts, len(needle), window)
        doc_ids = columns.doc_ids.items()
        return [
            TermContext(doc_id=doc_ids[doc], tokens=tokens, position=start)
            for doc, start, tokens in zip(docs.tolist(), starts.tolist(), windows)
        ]

    def term_frequency(self, term: str | Sequence[str]) -> int:
        """Number of (non-overlapping) occurrences of ``term``."""
        needle = _checked_needle(term)
        docs, __ = _non_overlapping(*_occurrences(self._state, needle), len(needle))
        return len(docs)

    def document_frequency(self, term: str | Sequence[str]) -> int:
        """Number of documents containing ``term`` at least once."""
        docs, __ = _occurrences(self._state, _checked_needle(term))
        return int(np.count_nonzero(np.diff(docs))) + 1 if len(docs) else 0

    # -- the multi-term retrieval -------------------------------------------

    def occurrence_records(
        self,
        terms: Iterable[str],
        *,
        window: int = 10,
    ) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
        """(doc_id, window) records of every term of ``terms``.

        Overlapping occurrences of different terms are all reported,
        but at any single start position only the longest matching term
        records an occurrence; the occurrence tokens themselves are left
        out of the window.  ``tests/test_corpus_index.py`` keeps the
        pre-index one-pass scan this reproduces as its oracle.
        """
        columns = self._state
        needles = _needles(terms)
        records: dict[str, list[tuple[str, tuple[str, ...]]]] = {
            key: [] for key in needles
        }
        found = []
        for k, needle in enumerate(needles.values()):
            docs, starts = _occurrences(columns, needle)
            if len(docs):
                found.append((docs, starts, len(needle), k))
        if not found:
            return records
        docs = np.concatenate([f[0] for f in found])
        starts = np.concatenate([f[1] for f in found])
        spans = np.concatenate([np.full(len(f[0]), f[2]) for f in found])
        keys = np.concatenate([np.full(len(f[0]), f[3]) for f in found])
        # Longest match wins at each start position.  Two distinct keys
        # cannot tie: equal-length matches at one position are the same
        # token sequence, hence the same key.
        at = columns.doc_offsets[docs] + starts
        order = np.lexsort((-spans, at))
        first = np.ones(len(order), dtype=bool)
        first[1:] = at[order[1:]] != at[order[:-1]]
        order = order[first]
        docs, starts, spans = docs[order], starts[order], spans[order]
        windows = _windows(columns, docs, starts, spans, window)
        doc_ids = columns.doc_ids.items()
        lists = list(records.values())
        for doc, k, tokens in zip(docs.tolist(), keys[order].tolist(), windows):
            lists[k].append((doc_ids[doc], tokens))
        return records


def _checked_needle(term: str | Sequence[str]) -> tuple[str, ...]:
    needle = _as_needle(term)
    if not needle:
        raise CorpusError("term must contain at least one token")
    return needle


def _token_id(columns: Columns, token: str) -> int | None:
    """``token``'s vocabulary id in ``columns``; None when unseen."""
    token_id = columns.vocabulary.ids().get(token)
    if token_id is None or token_id >= len(columns.postings_offsets) - 1:
        return None
    return token_id


def _occurrences(
    columns: Columns, needle: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(doc ordinals, start positions) of every occurrence, in order."""
    offsets = columns.postings_offsets
    needle_ids = []
    anchor_offset, anchor_id, anchor_count = 0, 0, 0
    for offset, token in enumerate(needle):
        token_id = _token_id(columns, token)
        if token_id is None:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        needle_ids.append(token_id)
        count = int(offsets[token_id + 1] - offsets[token_id])
        if offset == 0 or count < anchor_count:
            anchor_offset, anchor_id, anchor_count = offset, token_id, count
    run = slice(offsets[anchor_id], offsets[anchor_id + 1])
    docs = columns.postings_docs[run]
    starts = columns.postings_positions[run] - anchor_offset
    if len(needle) == 1:
        return docs, starts
    at = columns.doc_offsets[docs] + starts
    keep = (starts >= 0) & (at + len(needle) <= columns.doc_offsets[docs + 1])
    docs, starts, at = docs[keep], starts[keep], at[keep]
    match = np.ones(len(at), dtype=bool)
    for offset, token_id in enumerate(needle_ids):
        if offset != anchor_offset:
            match &= columns.token_ids[at + offset] == token_id
    return docs[match], starts[match]


class KeptOccurrenceRecords:
    """A term list's :meth:`CorpusIndex.occurrence_records`, kept as it grows.

    The records of one document depend only on that document and the
    term list: windows clip at document boundaries, the longest match is
    decided per start position, and records come in document order.  So
    the records over a grown corpus are the old records followed by the
    new documents' records.  And at one start position every matching
    term shares its first token, so a term's records depend only on the
    list terms that share its first token.

    :meth:`update` brings the records to an index, reading as little as
    those two facts allow.  ``records`` always equals
    ``index.occurrence_records(terms, window=window)`` for the index and
    term list of the last update.  ``memo`` holds what a caller derives
    from one key's records (Step II training keeps each term's context
    digest there): :meth:`update` drops the entry of every key whose
    records changed or left.

    Example
    -------
    >>> from repro.corpus.corpus import Corpus
    >>> from repro.corpus.document import Document
    >>> corpus = Corpus([Document("a", [["corneal", "injury", "heals"]])])
    >>> kept = KeptOccurrenceRecords(window=2)
    >>> sorted(kept.update(corpus, corpus.index(), ["corneal injury"]))
    ['corneal injury']
    >>> corpus.add(Document("b", [["old", "corneal", "injury"]]))
    >>> sorted(kept.update(corpus, corpus.index(), ["corneal injury"]))
    ['corneal injury']
    >>> kept.records["corneal injury"]
    [('a', ('heals',)), ('b', ('old',))]
    """

    def __init__(self, *, window: int = 10) -> None:
        self.window = window
        self.records: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        self.memo: dict[str, object] = {}
        self._terms: tuple[str, ...] | None = None
        self._needles: dict[str, tuple[str, ...]] = {}
        # The chain point the records cover: None before the first update.
        self._fingerprint: str | None = None
        self._n_documents = 0

    def update(
        self,
        corpus: "Sequence[Document]",
        index: CorpusIndex,
        terms: Iterable[str],
    ) -> set[str]:
        """Bring the records to ``index`` and ``terms``; return the changed keys.

        ``corpus`` holds ``index``'s documents in order.  When the chain
        from the kept fingerprint through the documents past the kept
        point reaches ``index.fingerprint()``, only those documents are
        read.  When the term list changed, only the first-token groups
        the change touches are looked up again, over ``index``.  Any
        other index (the first one included) is read whole.

        Returns the keys whose records changed; keys the term list lost
        are gone from :attr:`records`.
        """
        terms = tuple(terms)
        needles = self._needles if terms == self._terms else _needles(terms)
        added = documents_after(corpus, index, self._fingerprint, self._n_documents)
        if added is None:
            self.records = index.occurrence_records(terms, window=self.window)
            changed = set(self.records)
            self.memo.clear()
        else:
            touched = {
                (needles.get(key) or self._needles[key])[0]
                for key in needles.keys() ^ self._needles.keys()
            }
            regrouped = [key for key in needles if needles[key][0] in touched]
            fresh: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
            if regrouped:
                fresh = index.occurrence_records(regrouped, window=self.window)
            if added:
                appended = CorpusIndex(added).occurrence_records(
                    [key for key in needles if needles[key][0] not in touched],
                    window=self.window,
                )
                for key, entries in appended.items():
                    if entries:
                        fresh[key] = self.records[key] + entries
            self.records = {
                key: fresh[key] if key in fresh else self.records[key]
                for key in needles
            }
            changed = set(fresh)
            self.memo = {
                key: value
                for key, value in self.memo.items()
                if key in needles and key not in changed
            }
        self._terms, self._needles = terms, needles
        self._fingerprint = index.fingerprint()
        self._n_documents = index.n_documents()
        return changed


class KeptTermContexts:
    """Each term's :meth:`CorpusIndex.contexts_for_term`, kept as it grows.

    A term's contexts in one document depend only on that document:
    matches are consumed greedily within the document, and windows clip
    at its boundaries.  So the contexts over a grown corpus are the old
    contexts followed by the new documents' contexts.

    :meth:`update` brings the contexts to an index and a term list.
    ``contexts`` then equals ``{term: index.contexts_for_term(term,
    window=window)}`` over exactly the terms of that update.  ``memo``
    holds what a caller derives from one term's contexts (Step II
    detection keeps each candidate's capped windows, document frequency
    and context digest there): :meth:`update` drops the entry of every
    term whose contexts changed or left.

    Example
    -------
    >>> from repro.corpus.corpus import Corpus
    >>> from repro.corpus.document import Document
    >>> corpus = Corpus([Document("a", [["corneal", "injury", "heals"]])])
    >>> kept = KeptTermContexts(window=2)
    >>> kept.update(corpus, corpus.index(), ["injury"])
    >>> corpus.add(Document("b", [["old", "injury"]]))
    >>> kept.update(corpus, corpus.index(), ["injury"])
    >>> [(c.doc_id, c.tokens) for c in kept.contexts["injury"]]
    [('a', ('corneal', 'heals')), ('b', ('old',))]
    """

    def __init__(self, *, window: int = 10) -> None:
        self.window = window
        self.contexts: dict[str, list[TermContext]] = {}
        self.memo: dict[str, object] = {}
        # The chain point the contexts cover: None before the first update.
        self._fingerprint: str | None = None
        self._n_documents = 0

    def update(
        self,
        corpus: "Sequence[Document]",
        index: CorpusIndex,
        terms: Iterable[str],
    ) -> None:
        """Bring the contexts to ``index`` and ``terms``.

        ``corpus`` holds ``index``'s documents in order.  When the chain
        from the kept fingerprint through the documents past the kept
        point reaches ``index.fingerprint()``, a kept term is read only
        through an index of those documents, and an unchanged corpus is
        not read at all.  A term new to the list, and every term of any
        other index (the first one included), is retrieved over
        ``index``.
        """
        added = documents_after(corpus, index, self._fingerprint, self._n_documents)
        kept = {} if added is None else self.contexts
        delta = CorpusIndex(added) if added else None
        contexts: dict[str, list[TermContext]] = {}
        changed: set[str] = set()
        for term in dict.fromkeys(terms):
            found = kept.get(term)
            if found is None:
                found = index.contexts_for_term(term, window=self.window)
                changed.add(term)
            elif delta is not None:
                grown = delta.contexts_for_term(term, window=self.window)
                if grown:
                    found = found + grown
                    changed.add(term)
            contexts[term] = found
        self.contexts = contexts
        self.memo = {
            term: value
            for term, value in self.memo.items()
            if term in contexts and term not in changed
        }
        self._fingerprint = index.fingerprint()
        self._n_documents = index.n_documents()
