"""The Corpus container and term-context retrieval.

Steps II–IV all start from "the context of a term in the corpus": token
windows around the term's occurrences.  :meth:`Corpus.contexts_for_term`
is the single implementation of that retrieval, so polysemy features,
sense induction, and semantic linkage agree on what a context is.

Retrieval is served by a positional inverted index
(:class:`repro.corpus.index.CorpusIndex`) built lazily on first use and
cached, so repeated term lookups cost postings traversal instead of full
document scans.  :meth:`Corpus.add` patches the cached index in place
(O(new tokens)) instead of discarding it, so a growing document stream
never pays a full rebuild.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.corpus.document import Document
from repro.errors import CorpusError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.corpus.index import CorpusIndex
    from repro.corpus.index_store import IndexStore


@dataclass(frozen=True)
class TermContext:
    """One occurrence context of a term.

    Attributes
    ----------
    doc_id:
        Document the occurrence was found in.
    tokens:
        The window tokens with the term occurrence itself removed (its
        presence in every context carries no disambiguation signal).
    position:
        Token offset of the occurrence within the flattened document.
    """

    doc_id: str
    tokens: tuple[str, ...]
    position: int


class Corpus:
    """An ordered collection of :class:`Document` objects.

    >>> corpus = Corpus([Document("d1", [["wound", "heals"]])])
    >>> corpus.n_documents()
    1
    """

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._documents: list[Document] = list(documents)
        self._by_id: dict[str, Document] = {
            d.doc_id: d for d in self._documents
        }
        if len(self._by_id) != len(self._documents):
            raise CorpusError("duplicate document ids in corpus")
        self._index: "CorpusIndex | None" = None
        self._index_store: "IndexStore | None" = None

    # -- container basics ----------------------------------------------------

    def add(self, document: Document) -> None:
        """Append ``document`` (ids must stay unique).

        A document no index accepts (see
        :func:`~repro.corpus.index.check_document`) raises
        :class:`~repro.errors.CorpusError` before it is appended.  A
        cached index is patched in place
        (:meth:`~repro.corpus.index.CorpusIndex.add_documents`) rather
        than discarded, so adding a document costs O(its tokens), not a
        full index rebuild.  A read-only cached index (an adopted
        mmap-backed one — see :meth:`adopt_index`) is dropped instead,
        to be rebuilt lazily on the next :meth:`index` call — and when
        the dropped index came out of an
        :class:`~repro.corpus.index_store.IndexStore`, that rebuild is
        routed back through the store so the grown corpus's generation
        is persisted, not rebuilt in RAM on every restart.
        """
        from repro.corpus.index import check_document

        if document.doc_id in self._by_id:
            raise CorpusError(f"duplicate document id {document.doc_id!r}")
        check_document(document)
        self._documents.append(document)
        self._by_id[document.doc_id] = document
        if self._index is not None:
            try:
                self._index.add_documents([document])
            except CorpusError:
                # Read-only (mmap-backed) indexes cannot be patched;
                # correctness over reuse: forget it and rebuild lazily
                # (through the remembered store when there is one).
                self._index = None

    def adopt_index(
        self,
        index: "CorpusIndex",
        *,
        store: "IndexStore | None" = None,
    ) -> None:
        """Cache a pre-built ``index`` (e.g. an
        :class:`~repro.corpus.index_store.MmapCorpusIndex` reopened
        from an :class:`~repro.corpus.index_store.IndexStore`) as this
        corpus's index.

        The index must describe exactly these documents: the document
        count and ids are checked (cheap), mismatches raise
        :class:`~repro.errors.CorpusError`.

        ``store`` names the :class:`IndexStore` the index came from;
        when omitted it is recovered from a mmap-backed index's own
        directory.  A remembered store routes the rebuild after a
        post-adoption :meth:`add` back through
        :meth:`~repro.corpus.index_store.IndexStore.load_or_build`, so
        the grown corpus's index generation is persisted instead of
        being rebuilt in RAM on every process start.
        """
        if index.n_documents() != len(self._documents):
            raise CorpusError(
                f"adopted index covers {index.n_documents()} documents, "
                f"corpus has {len(self._documents)}"
            )
        lengths = index.doc_lengths()
        for doc in self._documents:
            if doc.doc_id not in lengths:
                raise CorpusError(
                    f"adopted index is missing document {doc.doc_id!r}"
                )
        if store is None:
            from repro.corpus.index_store import store_for_index

            store = store_for_index(index)
        self._index = index
        self._index_store = store

    @property
    def index_store(self) -> "IndexStore | None":
        """The :class:`~repro.corpus.index_store.IndexStore` remembered
        by :meth:`adopt_index` (``None`` when the index was never
        adopted from a store)."""
        return self._index_store

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index]

    def document(self, doc_id: str) -> Document:
        """The document with ``doc_id`` (raises CorpusError if absent)."""
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise CorpusError(f"unknown document id {doc_id!r}") from None

    def n_documents(self) -> int:
        """Number of documents."""
        return len(self._documents)

    def n_tokens(self) -> int:
        """Total token count over all documents."""
        return sum(doc.n_tokens() for doc in self._documents)

    def token_documents(self) -> list[list[str]]:
        """Flat token list per document (the vectoriser input shape)."""
        return [doc.tokens() for doc in self._documents]

    def sentence_documents(self) -> list[list[str]]:
        """All sentences of the corpus as independent token lists."""
        return [s for doc in self._documents for s in doc.sentences]

    # -- term occurrence retrieval ------------------------------------------

    def index(self) -> "CorpusIndex":
        """The corpus's positional index, built lazily and cached.

        :meth:`add` extends the cached index in place; mutating a
        :class:`Document` in place is not detected.
        """
        if self._index is not None:
            return self._index
        if self._index_store is not None:
            # The previous index was adopted from an IndexStore: rebuild
            # through it so the grown corpus's generation is persisted
            # (and this process gets the mmap handle back).
            self._index = self._index_store.load_or_build(self._documents)
            return self._index
        from repro.corpus.index import CorpusIndex

        self._index = CorpusIndex(self)
        return self._index

    def contexts_for_term(
        self,
        term: str | Sequence[str],
        *,
        window: int = 10,
    ) -> list[TermContext]:
        """Token windows around each occurrence of ``term``.

        Parameters
        ----------
        term:
            The term as a string (split on spaces) or a token sequence.
        window:
            Number of tokens kept on each side of the occurrence.
        """
        return self.index().contexts_for_term(term, window=window)

    def term_frequency(self, term: str | Sequence[str]) -> int:
        """Number of occurrences of ``term`` in the corpus."""
        return self.index().term_frequency(term)

    def document_frequency(self, term: str | Sequence[str]) -> int:
        """Number of documents containing ``term`` at least once."""
        return self.index().document_frequency(term)
