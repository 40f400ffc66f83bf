"""Term-ranking measures and their registry.

Every measure maps an :class:`~repro.extraction.candidates.ExtractionContext`
to a score column: a float64 array with one score per candidate, in
row order of ``context.columns()``; higher is always better.  The
inventory follows the paper's companion IRJ-2016 paper [4]:

============  ===============================================================
name          definition
============  ===============================================================
c_value       Frantzi's C-value with log2(len+1) length factor and nested-
              term correction
tf_idf        corpus tf × smoothed idf
okapi         BM25 mass of the candidate over all documents
f_tfidf_c     harmonic fusion of TF-IDF and C-value
f_ocapi       harmonic fusion of Okapi and C-value
lidf_value    pattern probability × idf × C-value (the paper's flagship)
tergraph      graph-based termhood over the candidate co-occurrence graph
============  ===============================================================

The measures are numpy expressions over the context's
:class:`~repro.extraction.candidates.CandidateColumns`, float for float
what the per-candidate Python arithmetic gives: idf and ``log2(len + 1)``
come from ``math`` through tables with one entry per distinct value,
C-value reads the nested sums the fold keeps (integers), each operation
keeps the order of the scalar expression, and Okapi adds each
candidate's BM25 terms in the order of its (candidate, document, count)
triplets.  ``tests/dict_measures.py`` keeps the per-candidate measures
as the reference.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.errors import ExtractionError
from repro.extraction.candidates import CandidateColumns, ExtractionContext
from repro.text.vectorize import idf_weight

# BM25 constants (standard Robertson parameters).
_BM25_K1 = 1.2
_BM25_B = 0.75


def _table(values: np.ndarray, fn: Callable[[int], float]) -> np.ndarray:
    """``fn`` of each of ``values`` (non-negative ints), called once per
    distinct value."""
    counts = np.bincount(values)
    table = np.zeros(len(counts), dtype=np.float64)
    distinct = np.flatnonzero(counts)
    table[distinct] = [fn(value) for value in distinct.tolist()]
    return table[values]


def _idf(context: ExtractionContext, columns: CandidateColumns) -> np.ndarray:
    n_documents = context.n_documents
    return _table(columns.doc_frequency, lambda df: idf_weight(n_documents, df))


def _positive(scores: np.ndarray) -> np.ndarray:
    """``max(score, 0.0)`` per score: 0.0 where the score is negative."""
    return np.where(scores < 0.0, 0.0, scores)


def _c_value(columns: CandidateColumns) -> np.ndarray:
    sums, counts = columns.nested_sums, columns.nested_counts
    frequency = columns.frequency.astype(np.float64)
    mean = sums / np.maximum(counts, 1)
    np.subtract(frequency, mean, out=frequency, where=counts > 0)
    return _table(columns.length, lambda length: math.log2(length + 1)) * frequency


def c_value(context: ExtractionContext) -> np.ndarray:
    """C-value: length-weighted frequency with nested-term correction.

    ``C(t) = log2(|t|+1) · f(t)`` for maximal candidates; when t is nested
    inside longer candidates T_t, the average frequency of those longer
    candidates is subtracted from f(t) first.
    """
    return _c_value(context.columns())


def tf_idf(context: ExtractionContext) -> np.ndarray:
    """Corpus term frequency × smoothed inverse document frequency."""
    columns = context.columns()
    return columns.frequency * _idf(context, columns)


def okapi(context: ExtractionContext) -> np.ndarray:
    """Okapi BM25 mass of each candidate summed over its documents.

    Each candidate's terms are added from 0.0 in the order of its
    triplets: ``np.bincount`` adds its weights one by one, in order.
    """
    avgdl = max(context.avg_doc_length, 1e-9)
    columns = context.columns()
    lengths = context.doc_lengths
    doc_length = np.array(
        [lengths.get(doc_id, avgdl) for doc_id in columns.doc_ids], dtype=np.float64
    )
    candidate = columns.triplet_row
    tf = columns.triplet_count
    dl = doc_length[columns.triplet_doc]
    idf = _idf(context, columns)[candidate]
    denom = tf + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avgdl)
    terms = idf * tf * (_BM25_K1 + 1.0) / denom
    totals = np.bincount(candidate, weights=terms, minlength=len(columns))
    return totals.astype(np.float64, copy=False)  # int64 when there is none


def _harmonic_fusion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Scores can be negative after nested correction; harmonic fusion
    # is only meaningful on the positive part.
    x, y = _positive(a), _positive(b)
    total = x + y
    out = np.zeros(len(total), dtype=np.float64)
    fused = total > 0
    out[fused] = 2.0 * x[fused] * y[fused] / total[fused]
    return out


def f_tfidf_c(context: ExtractionContext) -> np.ndarray:
    """Harmonic-mean fusion of TF-IDF and C-value."""
    return _harmonic_fusion(tf_idf(context), c_value(context))


def f_ocapi(context: ExtractionContext) -> np.ndarray:
    """Harmonic-mean fusion of Okapi BM25 and C-value."""
    return _harmonic_fusion(okapi(context), c_value(context))


def lidf_value(context: ExtractionContext) -> np.ndarray:
    """LIDF-value: pattern probability × idf × C-value.

    The linguistic component is the candidate's POS-pattern weight (the
    rank-derived probability of :mod:`repro.text.patterns`), which is what
    lets LIDF-value promote well-formed rare terms over frequent noise.
    """
    columns = context.columns()
    weight = columns.pattern_weight * _idf(context, columns)
    return weight * _positive(_c_value(columns))


def tergraph(context: ExtractionContext) -> np.ndarray:
    """TeRGraph-style termhood over the candidate co-occurrence graph.

    Candidates co-occur when they appear in the same document.  Following
    TeRGraph's intuition — a real term keeps focused company — a candidate
    scores ``log2(1 + 1/(1+|N(t)|) · Σ_{u∈N(t)} 1/|N(u)|)``: having few
    neighbours that are themselves specific is rewarded, hub-like noisy
    candidates are demoted.  (Adapted from the IRJ-2016 description; the
    original operates on a web-scale co-occurrence graph.)
    """
    columns = context.columns()
    # Document -> candidates inverted index, then neighbour sets.
    by_doc: dict[int, list[int]] = {}
    for row, doc in zip(
        columns.triplet_row.tolist(), columns.triplet_doc.tolist(), strict=True
    ):
        by_doc.setdefault(doc, []).append(row)
    neighbors: list[set[int]] = [set() for _ in range(len(columns))]
    for members in by_doc.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a != b:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
    scores = []
    for ns in neighbors:
        # fsum is correctly rounded in any order, so the sum does not
        # depend on how a set iterates.
        mass = math.fsum(1.0 / max(len(neighbors[u]), 1) for u in ns)
        scores.append(math.log2(1.0 + mass / (1.0 + len(ns))))
    return np.array(scores, dtype=np.float64)


_REGISTRY: dict[str, Callable[[ExtractionContext], np.ndarray]] = {
    "c_value": c_value,
    "tf_idf": tf_idf,
    "okapi": okapi,
    "f_tfidf_c": f_tfidf_c,
    "f_ocapi": f_ocapi,
    "lidf_value": lidf_value,
    "tergraph": tergraph,
}

#: All measure names, flagship first.
MEASURE_NAMES = ("lidf_value", "c_value", "tf_idf", "okapi", "f_tfidf_c", "f_ocapi", "tergraph")


def compute_measure(name: str, context: ExtractionContext) -> np.ndarray:
    """Measure ``name``'s score column over ``context`` (see :data:`MEASURE_NAMES`).

    Score ``i`` belongs to row ``i`` of ``context.columns()``.
    """
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise ExtractionError(
            f"unknown measure {name!r}; options: {', '.join(MEASURE_NAMES)}"
        ) from None
    return fn(context)
