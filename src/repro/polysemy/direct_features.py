"""The 11 direct (text-statistical) polysemy features.

All are computed from the term string and its occurrence contexts.  The
discriminative core: a polysemic term's contexts come from several topics,
so they agree less with each other (TF-IDF cosine statistics) and split
cleanly into two balanced groups (bisection features — the ISIM gain of a
2-way spherical k-means over the one-cluster solution).

:func:`direct_feature_rows` featurises a whole
:class:`~repro.polysemy.batch.ContextBatch`: the vocabulary counts come
from each term's raw token ids, and every term's dense TF-IDF matrix
from :func:`~repro.polysemy.batch.tfidf_matrices` over a chunk of terms,
float for float the matrix the reference vectoriser of
``tests/context_oracles.py`` gives.  The cosines and the bisection run
on the matrices of the terms with at least two contexts.
:func:`direct_features` is a batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterStats
from repro.polysemy import batch as batching
from repro.polysemy.batch import ContextBatch, chunks, tfidf_matrices

#: Feature names in vector order.
DIRECT_FEATURE_NAMES = (
    "term_n_tokens",
    "term_n_chars",
    "log_term_frequency",
    "log_doc_frequency",
    "log_vocab_size",
    "context_word_entropy",
    "mean_pairwise_cosine",
    "std_pairwise_cosine",
    "bisect_isim_gain",
    "bisect_isim_ratio",
    "bisect_balance_gain",
)


def _cosine_and_bisection(
    matrix: np.ndarray,
) -> tuple[float, float, float, float, float]:
    """(mean cos, std cos, isim gain, isim ratio, balance-weighted gain).

    ``matrix`` holds a term's unit TF-IDF rows, at least two of them;
    below four rows there is no bisection.
    """
    n = matrix.shape[0]
    sims = matrix @ matrix.T
    upper = sims[np.triu_indices(n, k=1)]
    mean_cos = float(upper.mean())
    std_cos = float(upper.std())
    if n < 4:
        return mean_cos, std_cos, 0.0, 1.0, 0.0

    one_cluster = ClusterStats.from_labels(matrix, np.zeros(n, dtype=np.int64))
    s1 = one_cluster.mean_isim()
    split = spherical_kmeans(matrix, 2, seed=0)
    two_clusters = ClusterStats.from_labels(matrix, split.labels)
    s2 = two_clusters.mean_isim()
    gain = s2 - s1
    ratio = s2 / max(s1, 1e-9)
    counts = np.bincount(split.labels, minlength=2)
    balance = float(counts.min()) / n
    return mean_cos, std_cos, gain, ratio, balance * gain


def direct_feature_rows(
    terms: Sequence[str],
    batch: ContextBatch,
    doc_frequencies: Sequence[int | None],
) -> np.ndarray:
    """The (n_terms, 11) direct feature rows of a batch of terms.

    Parameters
    ----------
    terms:
        The candidate term strings, aligned with ``batch``.
    batch:
        Their encoded occurrence contexts (term itself excluded).
    doc_frequencies:
        Number of distinct documents each term occurs in; ``None``
        defaults to the term's context count.
    """
    rows = np.empty((batch.n_terms, len(DIRECT_FEATURE_NAMES)), dtype=np.float64)
    for first, last in chunks(np.diff(batch.token_offsets), batching.CHUNK_TOKENS):
        cosine_bits = {
            t: _cosine_and_bisection(matrix)
            for t, matrix in enumerate(tfidf_matrices(batch, first, last), first)
            if matrix.shape[0] >= 2
        }
        for t in range(first, last):
            term = terms[t]
            n_contexts = int(batch.n_contexts[t])
            frequency = n_contexts  # one context per occurrence by construction
            doc_frequency = doc_frequencies[t]
            if doc_frequency is None:
                doc_frequency = n_contexts
            vocab_size = int(batch.node_offsets[t + 1] - batch.node_offsets[t])
            # Raw ids number tokens by first appearance: the Counter order.
            lo, hi = batch.token_offsets[t], batch.token_offsets[t + 1]
            counts = np.bincount(batch.nodes[lo:hi], minlength=vocab_size)
            if vocab_size:
                probs = counts.astype(np.float64)
                probs /= probs.sum()
                entropy = float(-(probs * np.log2(probs)).sum())
                max_entropy = math.log2(vocab_size) if vocab_size > 1 else 1.0
                entropy /= max_entropy
            else:
                entropy = 0.0
            rows[t] = (
                float(len(term.split())),
                float(len(term)),
                math.log1p(frequency),
                math.log1p(doc_frequency),
                math.log1p(vocab_size),
                entropy,
                *cosine_bits.get(t, (1.0, 0.0, 0.0, 1.0, 0.0)),
            )
    return rows


def direct_features(
    term: str,
    contexts: Sequence[Sequence[str]],
    *,
    doc_frequency: int | None = None,
) -> np.ndarray:
    """The 11-dimensional direct feature vector for ``term``.

    A batch of one of :func:`direct_feature_rows`.

    Parameters
    ----------
    term:
        The candidate term string.
    contexts:
        Its occurrence contexts (token sequences, term itself excluded).
    doc_frequency:
        Number of distinct documents the term occurs in; defaults to the
        context count when the caller has no document structure.
    """
    return direct_feature_rows(
        [term], ContextBatch.encode([contexts]), [doc_frequency]
    )[0]
