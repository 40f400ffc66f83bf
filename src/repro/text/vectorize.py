"""Bag-of-words and TF-IDF vectorisation over scipy sparse matrices.

Steps II–IV of the workflow represent a term's contexts as vectors and
compare them with cosine similarity; these vectorisers are the single
place that mapping happens, so every stage agrees on weighting and
normalisation conventions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import NotFittedError
from repro.text.stopwords import stopwords_for
from repro.text.vocabulary import Vocabulary


def _normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """L2-normalise each row in place; zero rows are left untouched."""
    norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
    norms[norms == 0.0] = 1.0
    inverse = sp.diags(1.0 / norms)
    return (inverse @ matrix).tocsr()


class BowVectorizer:
    """Count-based bag-of-words vectoriser.

    Parameters
    ----------
    lowercase:
        Lower-case tokens before counting.
    stop_language:
        Drop that language's stopwords when given.
    min_df:
        Discard tokens present in fewer than ``min_df`` documents.
    binary:
        Record presence (0/1) instead of counts.
    normalize:
        L2-normalise rows of the output matrix.
    """

    def __init__(
        self,
        *,
        lowercase: bool = True,
        stop_language: str | None = "en",
        min_df: int = 1,
        binary: bool = False,
        normalize: bool = False,
    ) -> None:
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.lowercase = lowercase
        self.stop_language = stop_language
        self.min_df = min_df
        self.binary = binary
        self.normalize = normalize
        self.vocabulary_: Vocabulary | None = None
        self.document_frequency_: np.ndarray | None = None
        self.n_documents_: int | None = None

    # -- shared preprocessing ------------------------------------------------

    def _stop_set(self) -> frozenset[str]:
        """The stop set, resolved once per fit/transform pass."""
        if self.stop_language:
            return stopwords_for(self.stop_language)
        return frozenset()

    def _prepare(
        self, tokens: Sequence[str], stop: frozenset[str]
    ) -> list[str]:
        out = []
        for token in tokens:
            if self.lowercase:
                token = token.lower()
            if token in stop:
                continue
            out.append(token)
        return out

    # -- fitting ---------------------------------------------------------------

    def fit(self, documents: Iterable[Sequence[str]]) -> "BowVectorizer":
        """Learn the vocabulary from tokenised ``documents``."""
        stop = self._stop_set()
        df_counts: dict[str, int] = {}
        n_docs = 0
        for tokens in documents:
            n_docs += 1
            for token in set(self._prepare(tokens, stop)):
                df_counts[token] = df_counts.get(token, 0) + 1
        vocab = Vocabulary()
        dfs: list[int] = []
        for token, df in sorted(df_counts.items()):
            if df >= self.min_df:
                vocab.add(token)
                dfs.append(df)
        self.vocabulary_ = vocab
        self.document_frequency_ = np.asarray(dfs, dtype=np.float64)
        self.n_documents_ = n_docs
        return self

    def _require_fitted(self) -> Vocabulary:
        if self.vocabulary_ is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before transform"
            )
        return self.vocabulary_

    # -- transform ---------------------------------------------------------------

    def transform(self, documents: Iterable[Sequence[str]]) -> sp.csr_matrix:
        """Vectorise tokenised ``documents`` into a (n_docs, n_vocab) matrix."""
        vocab = self._require_fitted()
        stop = self._stop_set()
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for tokens in documents:
            counts: dict[int, float] = {}
            for token in self._prepare(tokens, stop):
                idx = vocab.get(token)
                if idx is None:
                    continue
                counts[idx] = counts.get(idx, 0.0) + 1.0
            for idx in sorted(counts):
                indices.append(idx)
                data.append(1.0 if self.binary else counts[idx])
            indptr.append(len(indices))
        matrix = sp.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
            shape=(len(indptr) - 1, len(vocab)),
        )
        matrix = self._weight(matrix)
        if self.normalize:
            matrix = _normalize_rows(matrix)
        return matrix

    def fit_transform(self, documents: Sequence[Sequence[str]]) -> sp.csr_matrix:
        """Fit on ``documents`` then transform them."""
        return self.fit(documents).transform(documents)

    def _weight(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        return matrix

    def feature_names(self) -> list[str]:
        """Vocabulary tokens in column order."""
        return self._require_fitted().tokens()


class TfidfVectorizer(BowVectorizer):
    """TF-IDF vectoriser with smoothed IDF: ``log((1+N)/(1+df)) + 1``.

    Rows are L2-normalised by default, the convention cosine-based
    similarity (Steps III and IV) expects.
    """

    def __init__(
        self,
        *,
        lowercase: bool = True,
        stop_language: str | None = "en",
        min_df: int = 1,
        sublinear_tf: bool = False,
        normalize: bool = True,
    ) -> None:
        super().__init__(
            lowercase=lowercase,
            stop_language=stop_language,
            min_df=min_df,
            binary=False,
            normalize=normalize,
        )
        self.sublinear_tf = sublinear_tf

    def idf(self) -> np.ndarray:
        """The fitted IDF vector (one weight per vocabulary token)."""
        self._require_fitted()
        assert self.document_frequency_ is not None
        assert self.n_documents_ is not None
        n = self.n_documents_
        return np.log((1.0 + n) / (1.0 + self.document_frequency_)) + 1.0

    def _weight(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        matrix = matrix.astype(np.float64)
        if self.sublinear_tf:
            matrix.data = 1.0 + np.log(matrix.data)
        return (matrix @ sp.diags(self.idf())).tocsr()


def unit_tfidf(
    rows: np.ndarray,
    counts: np.ndarray,
    n_documents: np.ndarray | int,
    document_frequency: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """:class:`TfidfVectorizer`'s values for a count matrix, float for float.

    ``rows`` and ``counts`` are the nonzero entries of an ``n_rows``-row
    count matrix in CSR order (by row, then column); ``n_documents`` and
    ``document_frequency`` give each entry's smoothed idf,
    ``log((1 + n) / (1 + df)) + 1`` (a scalar ``n_documents`` serves
    every entry).  Returns each entry's ``count * idf`` scaled by the
    inverse L2 norm of its row, with the operations ``fit_transform``
    applies: each non-empty row's squares summed by ``np.add.reduceat``
    in column order, as scipy's CSR ``sum(axis=1)`` sums them, empty
    rows keeping norm 1, and the value taken as ``(1 / norm) * value``.
    Steps II and IV build their TF-IDF spaces through this one function.
    """
    idf = np.log((1.0 + n_documents) / (1.0 + document_frequency)) + 1.0
    data = counts.astype(np.float64) * idf
    norms = np.zeros(n_rows, dtype=np.float64)
    if data.size:
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        norms[rows[starts]] = np.sqrt(np.add.reduceat(data * data, starts))
    norms[norms == 0.0] = 1.0
    return (1.0 / norms)[rows] * data


def idf_weight(n_documents: int, document_frequency: int) -> float:
    """Scalar smoothed IDF used by the extraction measures."""
    if n_documents < 1:
        raise ValueError(f"n_documents must be >= 1, got {n_documents}")
    if document_frequency < 0:
        raise ValueError(
            f"document_frequency must be >= 0, got {document_frequency}"
        )
    return math.log((1.0 + n_documents) / (1.0 + document_frequency)) + 1.0
