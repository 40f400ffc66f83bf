"""TF-IDF weighting shared by the workflow's context spaces.

Steps II–IV represent a term's contexts as TF-IDF vectors and compare
them with cosine similarity.  :func:`unit_tfidf` is the one place that
weighting and row normalisation happen: Step IV weighs its (term, word)
count rows with it, and Steps II and III their (context, word) counts
through :func:`repro.polysemy.batch.tfidf_matrices`.  The extraction
measures read the scalar :func:`idf_weight`.
"""

from __future__ import annotations

import math

import numpy as np


def unit_tfidf(
    rows: np.ndarray,
    counts: np.ndarray,
    n_documents: np.ndarray | int,
    document_frequency: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Unit-row TF-IDF values of a count matrix.

    ``rows`` and ``counts`` are the nonzero entries of an ``n_rows``-row
    count matrix in CSR order (by row, then column); ``n_documents`` and
    ``document_frequency`` give each entry's smoothed idf,
    ``log((1 + n) / (1 + df)) + 1`` (a scalar ``n_documents`` serves
    every entry).  Returns each entry's ``count * idf`` scaled by the
    inverse L2 norm of its row, float for float the values of the
    scipy-sparse reference vectoriser in ``tests/context_oracles.py``:
    each non-empty row's squares summed by ``np.add.reduceat`` in column
    order, as scipy's CSR ``sum(axis=1)`` sums them, empty rows keeping
    norm 1, and the value taken as ``(1 / norm) * value``.
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
