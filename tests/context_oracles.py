"""Reference builds of context matrices: the oracles of the TF-IDF routes.

The library builds every TF-IDF space with
:func:`repro.text.vectorize.unit_tfidf` (Steps II and IV from count
rows, Step III through :func:`repro.polysemy.batch.tfidf_matrices`) and
Step III's co-occurrence graph with
:func:`repro.polysemy.graph_features.build_context_graphs`.  This module
keeps the routes they replaced, as the references their bytes are
checked against:

* :class:`TfidfVectorizer` is the scipy-sparse vectoriser the library
  used with ``stop_language=None`` and every other setting at its
  default: lower-cased tokens, columns in ``sorted()`` order, raw counts
  weighted by the smoothed idf ``log((1 + N) / (1 + df)) + 1``, rows
  L2-normalised.  ``tests/per_term_featuriser.py``,
  ``tests/test_context_index_oracle.py`` and
  ``tests/test_sense_representation_oracle.py`` read it;
* :func:`graph_representation` is Step III's graph representation as a
  Python double loop over each context's window pairs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class TfidfVectorizer:
    """Smoothed-idf TF-IDF over lower-cased tokens, unit rows, scipy CSR."""

    def fit(self, documents):
        """Learn the sorted vocabulary and document frequencies."""
        df_counts: dict[str, int] = {}
        n_docs = 0
        for tokens in documents:
            n_docs += 1
            for token in {token.lower() for token in tokens}:
                df_counts[token] = df_counts.get(token, 0) + 1
        self.vocabulary_ = {}
        dfs = []
        for token, df in sorted(df_counts.items()):
            self.vocabulary_[token] = len(self.vocabulary_)
            dfs.append(df)
        self.document_frequency_ = np.asarray(dfs, dtype=np.float64)
        self.n_documents_ = n_docs
        return self

    def idf(self):
        """The fitted idf vector, one weight per vocabulary token."""
        n = self.n_documents_
        return np.log((1.0 + n) / (1.0 + self.document_frequency_)) + 1.0

    def transform(self, documents):
        """Unit TF-IDF rows of ``documents`` as a CSR matrix."""
        vocab = self.vocabulary_
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for tokens in documents:
            counts: dict[int, float] = {}
            for token in tokens:
                idx = vocab.get(token.lower())
                if idx is None:
                    continue
                counts[idx] = counts.get(idx, 0.0) + 1.0
            for idx in sorted(counts):
                indices.append(idx)
                data.append(counts[idx])
            indptr.append(len(indices))
        matrix = sp.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
            shape=(len(indptr) - 1, len(vocab)),
        )
        matrix = (matrix.astype(np.float64) @ sp.diags(self.idf())).tocsr()
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        norms[norms == 0.0] = 1.0
        return (sp.diags(1.0 / norms) @ matrix).tocsr()

    def fit_transform(self, documents):
        """Fit on ``documents``, then transform them."""
        documents = [list(tokens) for tokens in documents]
        return self.fit(documents).transform(documents)

    def feature_names(self):
        """Vocabulary tokens in column order."""
        return list(self.vocabulary_)


def bow_representation(contexts):
    """Step III's bag-of-words rows through the reference vectoriser."""
    return TfidfVectorizer().fit_transform(contexts).toarray()


def graph_representation(contexts, *, diffusion=0.5, window=4):
    """Step III's graph representation with its co-occurrence loop.

    The adjacency counts, over lower-cased tokens, each pair of a token
    and one of the next ``window - 1`` tokens of its context, pairs of
    equal words excluded; its rows are normalised, and the bag-of-words
    rows ``X`` become ``X + diffusion * X A``, re-normalised.
    """
    base = bow_representation(contexts)
    vectorizer = TfidfVectorizer().fit([list(c) for c in contexts])
    vocab = {w: i for i, w in enumerate(vectorizer.feature_names())}
    n_words = len(vocab)
    adjacency = np.zeros((n_words, n_words))
    for context in contexts:
        tokens = [t.lower() for t in context]
        n = len(tokens)
        for i, left in enumerate(tokens):
            li = vocab.get(left)
            if li is None:
                continue
            for j in range(i + 1, min(i + window, n)):
                ri = vocab.get(tokens[j])
                if ri is None or ri == li:
                    continue
                adjacency[li, ri] += 1.0
                adjacency[ri, li] += 1.0
    row_sums = adjacency.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    adjacency /= row_sums

    smoothed = base + diffusion * (base @ adjacency)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return smoothed / norms
