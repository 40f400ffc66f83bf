"""Term-ranking measures and their registry.

Every measure maps an :class:`~repro.extraction.candidates.ExtractionContext`
to ``{candidate tokens: score}``; higher is always better.  The inventory
follows the paper's companion IRJ-2016 paper [4]:

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
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import ExtractionError
from repro.extraction.candidates import ExtractionContext
from repro.text.vectorize import idf_weight

Scores = "dict[tuple[str, ...], float]"

# BM25 constants (standard Robertson parameters).
_BM25_K1 = 1.2
_BM25_B = 0.75


def c_value(context: ExtractionContext) -> dict:
    """C-value: length-weighted frequency with nested-term correction.

    ``C(t) = log2(|t|+1) · f(t)`` for maximal candidates; when t is nested
    inside longer candidates T_t, the average frequency of those longer
    candidates is subtracted from f(t) first.
    """
    scores = {}
    for tokens, stats in context.candidates.items():
        longer = context.nested_in(tokens)
        frequency = float(stats.frequency)
        if longer:
            frequency -= sum(o.frequency for o in longer) / len(longer)
        scores[tokens] = math.log2(stats.length + 1) * frequency
    return scores


def tf_idf(context: ExtractionContext) -> dict:
    """Corpus term frequency × smoothed inverse document frequency."""
    return {
        tokens: stats.frequency
        * idf_weight(context.n_documents, stats.doc_frequency)
        for tokens, stats in context.candidates.items()
    }


def okapi(context: ExtractionContext) -> dict:
    """Okapi BM25 mass of each candidate summed over its documents."""
    avgdl = max(context.avg_doc_length, 1e-9)
    scores = {}
    for tokens, stats in context.candidates.items():
        idf = idf_weight(context.n_documents, stats.doc_frequency)
        total = 0.0
        for doc_id, tf in stats.per_doc.items():
            dl = context.doc_lengths.get(doc_id, avgdl)
            denom = tf + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avgdl)
            total += idf * tf * (_BM25_K1 + 1.0) / denom
        scores[tokens] = total
    return scores


def _harmonic_fusion(a: dict, b: dict) -> dict:
    out = {}
    for tokens in a:
        x, y = a[tokens], b[tokens]
        # Scores can be negative after nested correction; harmonic fusion
        # is only meaningful on the positive part.
        x, y = max(x, 0.0), max(y, 0.0)
        out[tokens] = 2.0 * x * y / (x + y) if x + y > 0 else 0.0
    return out


def f_tfidf_c(context: ExtractionContext) -> dict:
    """Harmonic-mean fusion of TF-IDF and C-value."""
    return _harmonic_fusion(tf_idf(context), c_value(context))


def f_ocapi(context: ExtractionContext) -> dict:
    """Harmonic-mean fusion of Okapi BM25 and C-value."""
    return _harmonic_fusion(okapi(context), c_value(context))


def lidf_value(context: ExtractionContext) -> dict:
    """LIDF-value: pattern probability × idf × C-value.

    The linguistic component is the candidate's POS-pattern weight (the
    rank-derived probability of :mod:`repro.text.patterns`), which is what
    lets LIDF-value promote well-formed rare terms over frequent noise.
    """
    cval = c_value(context)
    scores = {}
    for tokens, stats in context.candidates.items():
        idf = idf_weight(context.n_documents, stats.doc_frequency)
        scores[tokens] = stats.pattern_weight * idf * max(cval[tokens], 0.0)
    return scores


def tergraph(context: ExtractionContext) -> dict:
    """TeRGraph-style termhood over the candidate co-occurrence graph.

    Candidates co-occur when they appear in the same document.  Following
    TeRGraph's intuition — a real term keeps focused company — a candidate
    scores ``log2(1 + 1/(1+|N(t)|) · Σ_{u∈N(t)} 1/|N(u)|)``: having few
    neighbours that are themselves specific is rewarded, hub-like noisy
    candidates are demoted.  (Adapted from the IRJ-2016 description; the
    original operates on a web-scale co-occurrence graph.)
    """
    # Build document → candidates inverted index, then neighbour sets.
    by_doc: dict[str, list[tuple[str, ...]]] = {}
    for tokens, stats in context.candidates.items():
        for doc_id in stats.per_doc:
            by_doc.setdefault(doc_id, []).append(tokens)
    neighbors: dict[tuple[str, ...], set[tuple[str, ...]]] = {
        tokens: set() for tokens in context.candidates
    }
    for members in by_doc.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a != b:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
    scores = {}
    for tokens in context.candidates:
        ns = neighbors[tokens]
        # A set iterates in string-hash order, which changes per process
        # (PYTHONHASHSEED); fsum is correctly rounded in any order.
        mass = math.fsum(1.0 / max(len(neighbors[u]), 1) for u in ns)
        scores[tokens] = math.log2(1.0 + mass / (1.0 + len(ns)))
    return scores


_REGISTRY: dict[str, Callable[[ExtractionContext], dict]] = {
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


def compute_measure(name: str, context: ExtractionContext) -> dict:
    """Compute measure ``name`` over ``context`` (see :data:`MEASURE_NAMES`)."""
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise ExtractionError(
            f"unknown measure {name!r}; options: {', '.join(MEASURE_NAMES)}"
        ) from None
    return fn(context)
