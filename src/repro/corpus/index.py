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

For corpora large enough that a single build or posting traversal is the
bottleneck, :class:`ShardedCorpusIndex` partitions the documents across
N single-shard :class:`CorpusIndex` instances (contiguous document
ranges, so global ordering is preserved) behind the very same query API
with byte-identical results; shard builds can fan out over a thread
pool.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.errors import CorpusError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document

from repro.corpus.corpus import TermContext

#: Fingerprint of an index with no documents — the chain seed.
EMPTY_FINGERPRINT = hashlib.sha1().hexdigest()

#: Minimum indexed tokens before sharded *queries* fan out by default.
#: Below this, thread-pool dispatch costs more than the pure-Python
#: per-shard traversal it parallelises (measured ~2x slower on ~30k
#: tokens, ~2x faster at ~200k); explicit ``map_shards(n_workers=...)``
#: overrides the gate either way.  Deployments whose break-even differs
#: override per index (``ShardedCorpusIndex(parallel_query_min_tokens=)``)
#: or per process (env ``REPRO_PARALLEL_QUERY_MIN_TOKENS``).
PARALLEL_QUERY_MIN_TOKENS = 100_000


def _resolve_parallel_query_min_tokens(explicit: int | None) -> int:
    """The fan-out gate: explicit kwarg > environment > module default."""
    if explicit is not None:
        if explicit < 0:
            raise CorpusError(
                f"parallel_query_min_tokens must be >= 0, got {explicit}"
            )
        return explicit
    raw = os.environ.get("REPRO_PARALLEL_QUERY_MIN_TOKENS")
    if raw is None:
        return PARALLEL_QUERY_MIN_TOKENS
    try:
        value = int(raw)
    except ValueError:
        raise CorpusError(
            "REPRO_PARALLEL_QUERY_MIN_TOKENS must be an integer, "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise CorpusError(
            f"REPRO_PARALLEL_QUERY_MIN_TOKENS must be >= 0, got {value}"
        )
    return value


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
    """
    digest = hashlib.sha1()
    digest.update(fingerprint.encode("ascii"))
    digest.update(doc_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update("\x1f".join(tokens).encode("utf-8"))
    digest.update(b"\x01")
    return digest.hexdigest()


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
        a duplicate — or a document whose tokenisation fails — raises
        :class:`~repro.errors.CorpusError` (or the tokeniser's error)
        before any document of the batch is applied, leaving postings
        and fingerprint untouched.
        """
        batch_ids = set()
        prepared: list[tuple[str, list[str]]] = []
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
            prepared.append(
                (doc.doc_id, [token.lower() for token in doc.tokens()])
            )
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
            self._fingerprint = _extend_fingerprint(
                self._fingerprint, doc_id, tokens
            )
        if prepared:
            # Lazily rebuilt on the next doc_lengths() call.
            self._doc_lengths = None

    # -- corpus-level statistics --------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the indexed corpus (doc ids + tokens).

        Two indexes over byte-identical corpora share a fingerprint —
        whether built fresh, extended through :meth:`add_documents`, or
        sharded (:class:`ShardedCorpusIndex`); any added, removed,
        reordered, or edited document changes it.  Used as the corpus
        component of feature-cache keys (:mod:`repro.polysemy.cache`),
        so an incremental update invalidates cache entries exactly like
        a rebuild.  Maintained as a per-document hash chain, so it is
        extended in O(new tokens) as documents are added.
        """
        return self._fingerprint

    def extend_fingerprint(self, fingerprint: str) -> str:
        """Chain this index's documents onto a caller-supplied prefix.

        Lets :class:`ShardedCorpusIndex` compute the global (whole
        corpus) fingerprint by threading one chain through its shards in
        order.
        """
        for doc_id, tokens in zip(self._doc_ids, self._doc_tokens, strict=True):
            fingerprint = _extend_fingerprint(fingerprint, doc_id, tokens)
        return fingerprint

    @property
    def n_shards(self) -> int:
        """A monolithic index is its own single shard."""
        return 1

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


class ShardedCorpusIndex:
    """N single-shard :class:`CorpusIndex` partitions behind one query API.

    Documents are partitioned into ``n_shards`` contiguous, near-even
    ranges (shard *i* holds global ordinals ``[offsets[i],
    offsets[i+1])``), so every per-document computation — greedy
    matching, windows, longest-match arbitration — happens entirely
    inside one shard and global answers are ordered concatenations of
    shard answers.  All query methods return byte-identical results to a
    monolithic :class:`CorpusIndex` over the same documents, including
    :meth:`fingerprint`.

    Shard builds are independent, so ``n_workers > 1`` fans them out
    over a thread pool — and so are per-shard *query* traversals:
    every query method (:meth:`phrase_occurrences`,
    :meth:`contexts_for_term`, :meth:`term_frequency`,
    :meth:`document_frequency`, :meth:`token_frequency`,
    :meth:`occurrence_records`, :meth:`doc_lengths`) routes through
    :meth:`map_shards`, which reuses one lazily-created pool sized by
    the construction-time ``n_workers``.  Results are merged in shard
    order, so parallel answers are byte-identical to sequential ones.

    Parameters
    ----------
    documents:
        The documents to index (e.g. a :class:`~repro.corpus.corpus.Corpus`).
    n_shards:
        Number of partitions (>= 1).  Shards may be empty when there are
        fewer documents than shards.
    n_workers:
        Threads for the shard builds *and* the per-shard query fan-out
        (1 = sequential; answers are identical either way).
    parallel_query_min_tokens:
        Minimum indexed tokens before bulk queries fan out over the
        pool by default; ``None`` (default) reads the
        ``REPRO_PARALLEL_QUERY_MIN_TOKENS`` environment variable and
        falls back to :data:`PARALLEL_QUERY_MIN_TOKENS`.

    Example
    -------
    >>> from repro.corpus.corpus import Corpus
    >>> from repro.corpus.document import Document
    >>> corpus = Corpus([Document("d", [["corneal", "injury", "heals"]])])
    >>> ShardedCorpusIndex(corpus, n_shards=2).term_frequency("corneal injury")
    1
    """

    def __init__(
        self,
        documents: "Iterable[Document]" = (),
        *,
        n_shards: int = 2,
        n_workers: int = 1,
        parallel_query_min_tokens: int | None = None,
    ) -> None:
        if n_shards < 1:
            raise CorpusError(f"n_shards must be >= 1, got {n_shards}")
        if n_workers < 1:
            raise CorpusError(f"n_workers must be >= 1, got {n_workers}")
        documents = list(documents)
        base, remainder = divmod(len(documents), n_shards)
        chunks: list[list] = []
        start = 0
        for shard in range(n_shards):
            size = base + (1 if shard < remainder else 0)
            chunks.append(documents[start : start + size])
            start += size
        if n_workers > 1 and len(documents) > 1:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                self._shards = list(pool.map(CorpusIndex, chunks))
        else:
            self._shards = [CorpusIndex(chunk) for chunk in chunks]
        self._fingerprint = EMPTY_FINGERPRINT
        for shard in self._shards:
            self._fingerprint = shard.extend_fingerprint(self._fingerprint)
        self._n_workers = n_workers
        self._parallel_min_tokens = _resolve_parallel_query_min_tokens(
            parallel_query_min_tokens
        )
        self._doc_lengths: dict[str, int] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pool_guard = threading.Lock()

    @classmethod
    def from_shards(
        cls,
        shards: "Sequence[CorpusIndex]",
        *,
        fingerprint: str,
        n_workers: int = 1,
        parallel_query_min_tokens: int | None = None,
    ) -> "ShardedCorpusIndex":
        """Wrap prebuilt single-shard indexes without re-indexing.

        The store's reopen path (:mod:`repro.corpus.index_store`)
        composes mmap-backed shards this way: the shards already exist,
        and ``fingerprint`` — the whole-corpus chain a monolithic build
        would compute — is recorded in the store manifest, so nothing
        is re-hashed here.  Shards must cover contiguous global
        document ranges in the given order, exactly as a fresh build
        partitions them.
        """
        if not shards:
            raise CorpusError("from_shards requires at least one shard")
        if n_workers < 1:
            raise CorpusError(f"n_workers must be >= 1, got {n_workers}")
        index = cls.__new__(cls)
        index._shards = list(shards)
        index._fingerprint = fingerprint
        index._n_workers = n_workers
        index._parallel_min_tokens = _resolve_parallel_query_min_tokens(
            parallel_query_min_tokens
        )
        index._doc_lengths = None
        index._pool = None
        index._pool_guard = threading.Lock()
        return index

    # -- pickling (process workers ship the index; pools don't pickle) -----

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_pool_guard"] = None
        # Derived cache; dropping it keeps process-pool pickles small.
        state["_doc_lengths"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool = None
        self._pool_guard = threading.Lock()

    # -- shard plumbing ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of partitions."""
        return len(self._shards)

    def shards(self) -> tuple[CorpusIndex, ...]:
        """The underlying single-shard indexes, in global document order."""
        return tuple(self._shards)

    def shard_offsets(self) -> tuple[int, ...]:
        """Global ordinal of each shard's first document."""
        offsets: list[int] = []
        total = 0
        for shard in self._shards:
            offsets.append(total)
            total += shard.n_documents()
        return tuple(offsets)

    def map_shards(self, fn, *, n_workers: int | None = None) -> list:
        """``[fn(shard) for shard in shards]``, optionally over threads.

        ``n_workers`` defaults to the construction-time worker count,
        so an index built with ``n_workers > 1`` answers bulk queries
        in parallel without every call site re-plumbing the knob — but
        only once the corpus passes
        :data:`PARALLEL_QUERY_MIN_TOKENS`, below which dispatch
        overhead beats the traversal win (pass ``n_workers`` explicitly
        to force either mode).  The pool is created lazily on first
        parallel use and reused for the index's lifetime (it is sized
        by the *first* parallel call and never pickled — process-pool
        clones rebuild their own).  The per-shard results come back in
        shard (= global document) order regardless of worker
        scheduling, so order-dependent merges stay deterministic.
        """
        workers = self._default_query_workers() if n_workers is None \
            else n_workers
        if workers > 1 and len(self._shards) > 1:
            return list(self._executor(workers).map(fn, self._shards))
        return [fn(shard) for shard in self._shards]

    def _default_query_workers(self) -> int:
        if self._n_workers <= 1:
            return 1
        if self.n_tokens() < self._parallel_min_tokens:
            return 1
        return self._n_workers

    def _executor(self, workers: int) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-shard-query",
                )
            return self._pool

    def add_documents(self, documents: "Iterable[Document]") -> None:
        """Append ``documents`` to the last shard in O(their tokens).

        Contiguity of the shard ranges is preserved (new documents take
        the highest global ordinals), so query parity with a monolithic
        index over the same sequence is maintained, and the global
        fingerprint chain is extended exactly as a fresh build would
        compute it.

        Like :meth:`CorpusIndex.add_documents`, the batch is
        all-or-nothing: every document id is validated against *every*
        shard (and within the batch) before any shard is touched, so a
        rejected add leaves no shard partially extended and the global
        fingerprint chain unmoved.
        """
        documents = list(documents)
        batch_ids: set[str] = set()
        for doc in documents:
            if doc.doc_id in batch_ids:
                raise CorpusError(
                    f"duplicate document id {doc.doc_id!r}"
                )
            batch_ids.add(doc.doc_id)
            for shard in self._shards:
                if doc.doc_id in shard._ordinals:
                    raise CorpusError(
                        f"duplicate document id {doc.doc_id!r}"
                    )
        target = self._shards[-1]
        before = target.n_documents()
        target.add_documents(documents)
        with self._pool_guard:
            if documents:
                self._doc_lengths = None
            for doc_id, tokens in zip(
                target._doc_ids[before:],
                target._doc_tokens[before:],
                strict=True,
            ):
                self._fingerprint = _extend_fingerprint(
                    self._fingerprint, doc_id, tokens
                )

    # -- corpus-level statistics --------------------------------------------

    def fingerprint(self) -> str:
        """The whole-corpus content hash (equals the monolithic one)."""
        return self._fingerprint

    def n_documents(self) -> int:
        """Number of indexed documents across all shards."""
        return sum(shard.n_documents() for shard in self._shards)

    def n_tokens(self) -> int:
        """Total token count across all shards."""
        return sum(shard.n_tokens() for shard in self._shards)

    def vocabulary_size(self) -> int:
        """Number of distinct tokens across all shards."""
        vocabulary: set[str] = set()
        for shard in self._shards:
            vocabulary.update(shard._postings)
        return len(vocabulary)

    def doc_lengths(self) -> dict[str, int]:
        """``doc_id → token count`` over all indexed documents.

        Merged once and cached (invalidated by :meth:`add_documents`);
        treat the returned dict as read-only shared storage.
        """
        if self._doc_lengths is None:
            # Merge outside the guard: map_shards may take _pool_guard
            # itself to lazily build the executor.
            lengths: dict[str, int] = {}
            for shard_lengths in self.map_shards(
                lambda shard: shard.doc_lengths()
            ):
                lengths.update(shard_lengths)
            with self._pool_guard:
                self._doc_lengths = lengths
        return self._doc_lengths

    def token_documents(self) -> list[list[str]]:
        """The cached flat token list of every document, in corpus order.

        As with :meth:`CorpusIndex.token_documents`, the lists are
        shared storage — treat them as read-only.
        """
        return [
            tokens for shard in self._shards for tokens in shard._doc_tokens
        ]

    def document_tokens(self, ordinal: int) -> list[str]:
        """The token list of the document at global ``ordinal``."""
        offsets = self.shard_offsets()
        shard = bisect.bisect_right(offsets, ordinal) - 1
        return self._shards[shard].document_tokens(ordinal - offsets[shard])

    def token_frequency(self, token: str) -> int:
        """Occurrences of a single ``token`` (0 when unseen)."""
        return sum(
            self.map_shards(lambda shard: shard.token_frequency(token))
        )

    # -- phrase lookup -------------------------------------------------------

    def phrase_occurrences(
        self, term: str | Sequence[str]
    ) -> list[tuple[int, int]]:
        """Every ``(global doc ordinal, start position)`` of ``term``.

        Shard answers are already sorted and shards cover increasing
        ordinal ranges, so offset-shifted concatenation (in shard
        order) is the global sorted result.
        """
        needle = _as_needle(term)
        if not needle:
            raise CorpusError("term must contain at least one token")
        out: list[tuple[int, int]] = []
        per_shard = self.map_shards(lambda shard: shard._occurrences(needle))
        for offset, occurrences in zip(self.shard_offsets(), per_shard, strict=True):
            out.extend(
                (offset + ordinal, position)
                for ordinal, position in occurrences
            )
        return out

    def contexts_for_term(
        self,
        term: str | Sequence[str],
        *,
        window: int = 10,
    ) -> list[TermContext]:
        """Token windows around each occurrence of ``term``.

        Greedy matching never crosses a document, and documents never
        cross a shard, so per-shard retrieval concatenated in shard
        order is byte-identical to the monolithic retrieval.
        """
        per_shard = self.map_shards(
            lambda shard: shard.contexts_for_term(term, window=window)
        )
        return [context for contexts in per_shard for context in contexts]

    def term_frequency(self, term: str | Sequence[str]) -> int:
        """Number of (non-overlapping) occurrences of ``term``."""
        return sum(
            self.map_shards(lambda shard: shard.term_frequency(term))
        )

    def document_frequency(self, term: str | Sequence[str]) -> int:
        """Number of documents containing ``term`` at least once."""
        return sum(
            self.map_shards(lambda shard: shard.document_frequency(term))
        )

    # -- the multi-term retrieval -------------------------------------------

    def occurrence_records(
        self,
        terms: Iterable[str],
        *,
        window: int = 10,
    ) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
        """(doc_id, window) records of every term of ``terms``.

        Longest-match arbitration happens at single start positions
        (inside one document, hence one shard), so merging per-shard
        records in shard order reproduces the monolithic output exactly.
        """
        terms = list(terms)
        merged: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for records in self.map_shards(
            lambda shard: shard.occurrence_records(terms, window=window)
        ):
            for key, rows in records.items():
                merged.setdefault(key, []).extend(rows)
        return merged
