"""Term context vectors over a shared space.

Step IV compares the candidate term's corpus context with the contexts of
every potential position by cosine.  :class:`TermContextIndex` builds one
aggregate context document per term — all tokens within ``window`` of any
occurrence — and embeds them in a common TF-IDF space.

Occurrence retrieval is served by the corpus's shared positional index
(:class:`repro.corpus.index.CorpusIndex`):
:meth:`CorpusIndex.occurrence_records` locates every occurrence of
*many* terms through their postings (longest match wins at any single
start position) instead of rescanning the documents.

The space is built with numpy from segmented (term, word) counts,
through :func:`repro.text.vectorize.unit_tfidf`, and equals the
scipy-sparse reference vectoriser of ``tests/context_oracles.py``,
fitted on the term documents and densified, byte for byte
(``tests/test_context_index_oracle.py`` compares the two).  It is held
as CSR between builds and a row is densified to the full sorted
vocabulary when read, so every cosine is the same dense dot as before.
A build whose corpus fingerprint, window and term list equal the last
build's reuses the space without retrieving anything: the enricher
keeps one index across runs, so a warm re-run of an unchanged corpus
pays nothing here.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex, KeptOccurrenceRecords
from repro.errors import LinkageError
from repro.ontology.model import normalize_term
from repro.text.vectorize import unit_tfidf


class TermContextIndex:
    """Aggregate context vectors for a set of terms over a shared space.

    Parameters
    ----------
    corpus:
        Context source.
    window:
        Tokens kept each side of an occurrence.
    index:
        Optional prebuilt :class:`CorpusIndex` to retrieve occurrences
        through (defaults to the corpus's cached index).

    Usage
    -----
    ``build(terms)`` retrieves contexts through the positional index and
    fits the TF-IDF space; ``vector(term)`` then returns the unit-norm
    aggregate context vector, and ``cosine(a, b)`` the similarity of two
    terms.  :meth:`attach` points a kept index at the current corpus;
    its next build reuses the space if nothing it depends on changed.
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        window: int = 10,
        index: CorpusIndex | None = None,
    ) -> None:
        self.corpus = corpus
        self.window = window
        self._corpus_index = index
        self._built: tuple[str, int, tuple[str, ...]] | None = None
        self._records: KeptOccurrenceRecords | None = None
        # Each term's row of (term, word) counts: the word ids in word
        # order, and their counts.  Word ids index ``_words``, which
        # only grows while the rows are kept.
        self._counts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._words: list[str] = []
        self._word_ids: dict[str, int] = {}
        self._rank = np.zeros(0, dtype=np.int64)
        self._rows: dict[str, int] | None = None
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.zeros(0, dtype=np.int64)
        self._data = np.zeros(0, dtype=np.float64)
        self._n_words = 0

    def attach(
        self, corpus: Corpus, *, window: int, index: CorpusIndex | None = None
    ) -> "TermContextIndex":
        """Read contexts from ``corpus`` (through ``index``) from now on.

        The built space stays; the next :meth:`build` reuses it only if
        the corpus fingerprint, the window and the term list are those
        of the last build.
        """
        self.corpus = corpus
        self.window = window
        self._corpus_index = index
        return self

    def build(self, terms: Sequence[str]) -> "TermContextIndex":
        """Retrieve contexts for ``terms`` and fit the shared space.

        Returns at once when the corpus fingerprint, the window and the
        exact term list equal those of the last build.  Otherwise the
        kept records follow the corpus along its fingerprint chain
        (:class:`~repro.corpus.index.KeptOccurrenceRecords`), only the
        terms whose records changed are recounted, and document
        frequency, idf and row norms are derived again from the count
        rows.  The key is the fingerprint, not the index object: a grown
        index may be a new object over the same documents.
        """
        index = (
            self._corpus_index
            if self._corpus_index is not None
            else self.corpus.index()
        )
        key = (index.fingerprint(), self.window, tuple(terms))
        if key == self._built:
            return self
        self._built = None
        if self._records is None or self._records.window != self.window:
            self._records = KeptOccurrenceRecords(window=self.window)
        changed = self._records.update(self.corpus, index, key[2])
        records = self._records.records
        kept = {
            term: self._counts[term]
            for term in records
            if term in self._counts and term not in changed
        }
        if not kept:
            # Nothing to keep: start the word list afresh too.
            self._words, self._word_ids = [], {}
        self._counts = kept
        self._count(records, [term for term in records if term not in kept])
        self._assemble(list(records))
        self._built = key
        return self

    def _count(
        self,
        records: dict[str, list[tuple[str, tuple[str, ...]]]],
        terms: list[str],
    ) -> None:
        """Count the (term, word) pairs of ``terms``' windows into rows."""
        windows = [window for term in terms for __, window in records[term]]
        tokens = list(chain.from_iterable(windows))
        new_words = sorted(set(tokens).difference(self._word_ids))
        if new_words or not self._words:
            first = len(self._words)
            self._word_ids.update(zip(new_words, range(first, first + len(new_words))))
            self._words += new_words
            # Each word id's place in word order.  Adding words never
            # reorders the old ones, so kept rows stay in word order.
            self._rank = np.arange(len(self._words), dtype=np.int64)
            if first:
                # The new words are sorted but interleave with the old.
                order = sorted(range(len(self._words)), key=self._words.__getitem__)
                self._rank[order] = np.arange(len(self._words))
        if not terms:
            return
        n_words = max(len(self._words), 1)
        token_term = np.repeat(
            np.repeat(
                np.arange(len(terms), dtype=np.int64),
                [len(records[term]) for term in terms],
            ),
            np.fromiter(map(len, windows), np.int64, len(windows)),
        )
        token_word = np.fromiter(
            map(self._word_ids.__getitem__, tokens), np.int64, len(tokens)
        )
        # Sorting by (term, rank) leaves each row in word order.
        pairs, counts = np.unique(
            token_term * n_words + self._rank[token_word], return_counts=True
        )
        rows = pairs // n_words
        ids = np.empty(len(self._words), dtype=np.int64)
        ids[self._rank] = np.arange(len(self._words))
        ids = ids[pairs % n_words]
        bounds = np.searchsorted(rows, np.arange(len(terms) + 1))
        for i, term in enumerate(terms):
            lo, hi = bounds[i], bounds[i + 1]
            self._counts[term] = (ids[lo:hi], counts[lo:hi])

    def _assemble(self, terms: list[str]) -> None:
        """Derive the unit TF-IDF rows of ``terms`` from their counts.

        Columns are the sorted words that occur in some row, so the
        space equals a build from scratch byte for byte.
        """
        n_terms = len(terms)
        lengths = np.fromiter(
            (len(self._counts[term][0]) for term in terms), np.int64, n_terms
        )
        ids = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [self._counts[term][0] for term in terms]
        )
        counts = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [self._counts[term][1] for term in terms]
        )
        ranks = self._rank[ids]
        live = np.zeros(len(self._words), dtype=bool)
        live[ranks] = True
        columns = (np.cumsum(live) - 1)[ranks]
        n_words = int(live.sum())
        rows = np.repeat(np.arange(n_terms, dtype=np.int64), lengths)
        self._data = unit_tfidf(
            rows,
            counts,
            n_terms,
            np.bincount(columns, minlength=n_words)[columns],
            n_terms,
        )
        self._indices = columns
        self._indptr = np.concatenate(([0], np.cumsum(lengths)))
        self._n_words = n_words
        self._rows = {term: row for row, term in enumerate(terms)}

    def _require_built(self) -> dict[str, int]:
        if self._rows is None:
            raise LinkageError("TermContextIndex.build() must run first")
        return self._rows

    def n_contexts(self, term: str) -> int:
        """Number of occurrences found for ``term``."""
        self._require_built()
        assert self._records is not None
        return len(self._records.records.get(normalize_term(term), ()))

    def vector(self, term: str) -> np.ndarray:
        """Unit-norm aggregate context vector of ``term``.

        A new dense array over the full sorted vocabulary.
        """
        rows = self._require_built()
        key = normalize_term(term)
        if key not in rows:
            raise LinkageError(f"term {term!r} was not indexed")
        lo, hi = self._indptr[rows[key]], self._indptr[rows[key] + 1]
        vector = np.zeros(self._n_words, dtype=np.float64)
        vector[self._indices[lo:hi]] = self._data[lo:hi]
        return vector

    def cosine(self, term_a: str, term_b: str) -> float:
        """Cosine similarity between two indexed terms' contexts."""
        return float(self.vector(term_a) @ self.vector(term_b))
