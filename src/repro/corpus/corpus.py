"""The Corpus container and term-context retrieval.

Steps II–IV all start from "the context of a term in the corpus": token
windows around the term's occurrences.  Every such question goes to the
corpus's positional inverted index (:meth:`Corpus.index`, a
:class:`repro.corpus.index.CorpusIndex`), so polysemy features, sense
induction, and semantic linkage agree on what a context is.  The index
is built lazily on first use and cached, so repeated term lookups cost
postings traversal instead of full document scans.  :meth:`Corpus.add`
grows the cached index in place (O(new tokens)) instead of discarding
it — an index adopted from an on-disk store included — so a growing
document stream never pays a full rebuild.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
        cached index — built here or adopted from an
        :class:`~repro.corpus.index_store.IndexStore` — is grown in
        place (:meth:`~repro.corpus.index.CorpusIndex.add_documents`),
        so adding a document costs O(its tokens), not a rebuild, and
        writes nothing to a store.
        """
        from repro.corpus.index import check_document

        if document.doc_id in self._by_id:
            raise CorpusError(f"duplicate document id {document.doc_id!r}")
        check_document(document)
        self._documents.append(document)
        self._by_id[document.doc_id] = document
        if self._index is not None:
            self._index.add_documents([document])

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

        ``store`` names the :class:`IndexStore` the index came from, so
        that an enricher given the same store keeps this index — grown
        by every later :meth:`add` — instead of fingerprinting the
        corpus again.
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
        self._index = index
        self._index_store = store

    @property
    def index_store(self) -> "IndexStore | None":
        """The :class:`~repro.corpus.index_store.IndexStore` named by
        :meth:`adopt_index` (``None`` when the index was never
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

    # -- term occurrence retrieval ------------------------------------------

    def index(self) -> "CorpusIndex":
        """The corpus's positional index, built lazily and cached.

        :meth:`add` grows the cached index in place, whether it was
        built here or adopted; mutating a :class:`Document` in place is
        not detected.
        """
        if self._index is None:
            from repro.corpus.index import CorpusIndex

            self._index = CorpusIndex(self)
        return self._index
