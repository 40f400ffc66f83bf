"""The positional corpus index: one build, every occurrence question.

Steps I–IV repeatedly ask "where does term *t* occur and what surrounds
it?".  The naive answer — rescan every document per term — makes the
workflow O(candidates × corpus).  :class:`CorpusIndex` is built once per
corpus (token → postings of ``(document, position)``) and answers every
occurrence question from the postings:

* :meth:`phrase_occurrences` — every (overlapping) start position of a
  token phrase, located through the phrase's rarest token;
* :meth:`contexts_for_term` — the legacy ``Corpus.contexts_for_term``
  retrieval (greedy non-overlapping matches, windows clipped at document
  boundaries) with byte-identical results;
* :meth:`occurrence_records` — the multi-term retrieval of
  ``linkage.context.find_occurrence_records`` (overlapping occurrences
  allowed, longest term wins at any single start position);
* :meth:`term_frequency` / :meth:`document_frequency` — counting without
  window materialisation.

The index also caches each document's flattened token list, so the many
consumers that iterate ``doc.tokens()`` (graph builders, vectorisers,
extraction) can share :meth:`token_documents` instead of re-flattening.
Tokens are normalised (lower-cased) at build time, so postings always
match the lower-cased needles every lookup uses — a document constructed
with mixed-case sentences is findable instead of silently invisible.

The index reflects the corpus at its build point and grows with it:
:meth:`add_documents` extends the postings, document tables, and content
fingerprint in O(new tokens) instead of a full rebuild, and
:meth:`repro.corpus.corpus.Corpus.add` patches the corpus's cached index
through it.  Mutating a :class:`Document` in place is still not
detected.

:class:`~repro.corpus.index_store.MmapCorpusIndex` is the one other
index class: the same query surface served read-only from a persisted
generation of an :class:`~repro.corpus.index_store.IndexStore`.

:class:`KeptOccurrenceRecords` keeps one term list's
:meth:`~CorpusIndex.occurrence_records` as the corpus grows: a corpus
that extends the kept one along the fingerprint chain is read only
through its new documents, whichever index object serves it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

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
        self._doc_ids: list[str] = []
        self._doc_tokens: list[list[str]] = []
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._ordinals: dict[str, int] = {}
        self._n_tokens = 0
        self._fingerprint = EMPTY_FINGERPRINT
        self._doc_lengths: dict[str, int] | None = None
        self.add_documents(documents)

    # -- incremental growth --------------------------------------------------

    def add_documents(self, documents: "Iterable[Document]") -> None:
        """Extend the index with ``documents`` in O(their tokens).

        Postings, document tables, and the content fingerprint are
        patched in place — no rebuild — and the result is
        indistinguishable from a fresh build over the full document
        sequence (identical query answers and :meth:`fingerprint`).
        The batch is all-or-nothing: document ids must stay unique, and
        a duplicate, a document the fingerprint chain rejects (see
        :func:`check_document`) or one whose tokenisation fails raises
        :class:`~repro.errors.CorpusError` (or the tokeniser's error)
        before any document of the batch is applied, leaving postings
        and fingerprint untouched.
        """
        batch_ids = set()
        prepared: list[tuple[str, list[str]]] = []
        fingerprint = self._fingerprint
        for doc in documents:
            if doc.doc_id in self._ordinals or doc.doc_id in batch_ids:
                raise CorpusError(
                    f"duplicate document id {doc.doc_id!r}"
                )
            batch_ids.add(doc.doc_id)
            # Normalise at build time: every lookup lower-cases its
            # needle, so postings must be lower-cased too or mixed-case
            # documents silently return zero occurrences.  Tokenise
            # here, before any mutation: ``doc.tokens()`` runs caller
            # code, and an exception from it mid-batch must not leave
            # the index half-extended with its fingerprint advanced.
            # The chain is extended here too, so a rejected document
            # raises before any mutation.
            tokens = [token.lower() for token in doc.tokens()]
            fingerprint = _extend_fingerprint(fingerprint, doc.doc_id, tokens)
            prepared.append((doc.doc_id, tokens))
        for doc_id, tokens in prepared:
            ordinal = len(self._doc_ids)
            self._ordinals[doc_id] = ordinal
            self._doc_ids.append(doc_id)
            self._doc_tokens.append(tokens)
            for position, token in enumerate(tokens):
                self._postings.setdefault(token, []).append(
                    (ordinal, position)
                )
            self._n_tokens += len(tokens)
        self._fingerprint = fingerprint
        if prepared:
            # Lazily rebuilt on the next doc_lengths() call.
            self._doc_lengths = None

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
        return self._fingerprint

    def n_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_ids)

    def n_tokens(self) -> int:
        """Total token count over all indexed documents."""
        return self._n_tokens

    def vocabulary_size(self) -> int:
        """Number of distinct tokens."""
        return len(self._postings)

    def doc_lengths(self) -> dict[str, int]:
        """``doc_id → token count`` over all indexed documents.

        The mapping is computed once and cached (invalidated by
        :meth:`add_documents`), so repeat consumers — every extraction
        build reads it — are allocation-free.  As with
        :meth:`token_documents`, the returned dict is the index's own
        storage: treat it as read-only.
        """
        if self._doc_lengths is None:
            self._doc_lengths = {
                doc_id: len(tokens)
                for doc_id, tokens in zip(self._doc_ids, self._doc_tokens, strict=True)
            }
        return self._doc_lengths

    def token_documents(self) -> list[list[str]]:
        """The cached flat token list of every document, in corpus order.

        The returned lists are the index's own storage — treat them as
        read-only (they are shared to avoid re-flattening per consumer).
        """
        return self._doc_tokens

    def document_tokens(self, ordinal: int) -> list[str]:
        """The cached flat token list of the document at ``ordinal``.

        Shared storage, as with :meth:`token_documents`: treat it as
        read-only.  Lets a caller read only the documents a posting
        list names instead of materialising every document.
        """
        return self._doc_tokens[ordinal]

    def token_frequency(self, token: str) -> int:
        """Occurrences of a single ``token`` (0 when unseen)."""
        return len(self._postings.get(token.lower(), ()))

    # -- phrase lookup -------------------------------------------------------

    def phrase_occurrences(
        self, term: str | Sequence[str]
    ) -> list[tuple[int, int]]:
        """Every ``(doc ordinal, start position)`` of ``term``, overlapping.

        Matching anchors on the phrase's rarest token, so lookup cost is
        proportional to that token's posting list, not the corpus.
        Results are sorted ascending by (ordinal, start).
        """
        needle = _as_needle(term)
        if not needle:
            raise CorpusError("term must contain at least one token")
        return self._occurrences(needle)

    def _occurrences(self, needle: tuple[str, ...]) -> list[tuple[int, int]]:
        anchor_offset = 0
        anchor_postings: list[tuple[int, int]] | None = None
        for offset, token in enumerate(needle):
            postings = self._postings.get(token)
            if postings is None:
                return []
            if anchor_postings is None or len(postings) < len(anchor_postings):
                anchor_offset, anchor_postings = offset, postings
        assert anchor_postings is not None
        span = len(needle)
        if span == 1:
            # Copy: callers must not be able to mutate the postings.
            return list(anchor_postings)
        out: list[tuple[int, int]] = []
        for ordinal, position in anchor_postings:
            start = position - anchor_offset
            if start < 0:
                continue
            tokens = self._doc_tokens[ordinal]
            if start + span > len(tokens):
                continue
            if tuple(tokens[start : start + span]) == needle:
                out.append((ordinal, start))
        return out

    def _window(
        self, ordinal: int, start: int, span: int, window: int
    ) -> tuple[str, ...]:
        """Window tokens around an occurrence, the occurrence excluded."""
        tokens = self._doc_tokens[ordinal]
        left = tokens[max(0, start - window) : start]
        right = tokens[start + span : start + span + window]
        return tuple(left + right)

    # -- the legacy single-term retrieval -----------------------------------

    def contexts_for_term(
        self,
        term: str | Sequence[str],
        *,
        window: int = 10,
    ) -> list[TermContext]:
        """Token windows around each occurrence of ``term``.

        Exactly reproduces the document-scan semantics of
        :meth:`repro.corpus.corpus.Corpus.contexts_for_term`: matches are
        consumed greedily left to right (an occurrence may not overlap
        the previous one), and windows clip at document boundaries.
        """
        needle = _as_needle(term)
        if not needle:
            raise CorpusError("term must contain at least one token")
        if window < 1:
            raise CorpusError(f"window must be >= 1, got {window}")
        span = len(needle)
        contexts: list[TermContext] = []
        last_doc, last_end = -1, 0
        for ordinal, start in sorted(self._occurrences(needle)):
            if ordinal == last_doc and start < last_end:
                continue  # overlaps the previous (greedy) match
            last_doc, last_end = ordinal, start + span
            contexts.append(
                TermContext(
                    doc_id=self._doc_ids[ordinal],
                    tokens=self._window(ordinal, start, span, window),
                    position=start,
                )
            )
        return contexts

    def term_frequency(self, term: str | Sequence[str]) -> int:
        """Number of (non-overlapping) occurrences of ``term``."""
        needle = _as_needle(term)
        if not needle:
            raise CorpusError("term must contain at least one token")
        if len(needle) == 1:
            return len(self._postings.get(needle[0], ()))
        count = 0
        last_doc, last_end = -1, 0
        for ordinal, start in sorted(self._occurrences(needle)):
            if ordinal == last_doc and start < last_end:
                continue
            last_doc, last_end = ordinal, start + len(needle)
            count += 1
        return count

    def document_frequency(self, term: str | Sequence[str]) -> int:
        """Number of documents containing ``term`` at least once."""
        needle = _as_needle(term)
        if not needle:
            raise CorpusError("term must contain at least one token")
        return len({ordinal for ordinal, __ in self._occurrences(needle)})

    # -- the multi-term retrieval -------------------------------------------

    def occurrence_records(
        self,
        terms: Iterable[str],
        *,
        window: int = 10,
    ) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
        """(doc_id, window) records of every term of ``terms``.

        Exactly reproduces
        :func:`repro.linkage.context.find_occurrence_records`: overlapping
        occurrences of different terms are all reported, but at any single
        start position only the longest matching term records an
        occurrence.
        """
        needles: dict[str, tuple[str, ...]] = {}
        for term in terms:
            tokens = _as_needle(term)
            if not tokens:
                continue
            needles[" ".join(tokens)] = tokens

        # Longest match wins at each start position.  Two distinct keys
        # cannot tie: equal-length matches at one position are the same
        # token sequence, hence the same key.
        best: dict[tuple[int, int], tuple[int, str]] = {}
        for key, needle in needles.items():
            span = len(needle)
            for occurrence in self._occurrences(needle):
                incumbent = best.get(occurrence)
                if incumbent is None or span > incumbent[0]:
                    best[occurrence] = (span, key)

        records: dict[str, list[tuple[str, tuple[str, ...]]]] = {
            key: [] for key in needles
        }
        for (ordinal, start), (span, key) in sorted(best.items()):
            records[key].append(
                (
                    self._doc_ids[ordinal],
                    self._window(ordinal, start, span, window),
                )
            )
        return records


def _needles(terms: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """``{key: tokens}`` of a term list, as :meth:`occurrence_records` keys it."""
    needles: dict[str, tuple[str, ...]] = {}
    for term in terms:
        tokens = _as_needle(term)
        if tokens:
            needles[" ".join(tokens)] = tokens
    return needles


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
        added = self._added_documents(corpus, index)
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

    def _added_documents(
        self, corpus: "Sequence[Document]", index: CorpusIndex
    ) -> "list[Document] | None":
        """The documents past the kept point, if they chain to ``index``."""
        if self._fingerprint is None or len(corpus) < self._n_documents:
            return None
        added = [corpus[i] for i in range(self._n_documents, len(corpus))]
        chained = fingerprint_documents(added, self._fingerprint)
        return added if chained == index.fingerprint() else None
