"""Step I's per-candidate measures, nested sums and rankings: the oracle.

:mod:`repro.extraction.measures` scores numpy columns, the harvest fold
keeps C-value's nested sums, and
:class:`~repro.extraction.extractor.BioTexExtractor` orders only the
prefix asked for.  Below are what they replaced:

- the per-candidate Python measures, reading a dict of per-candidate
  records (``test_harvest_oracle.OracleContext``, or a column store
  read through ``test_harvest_oracle.oracle_context``); each maps a
  context to ``{candidate tokens: score}``;
- the ranking's two stable sorts (:func:`ranking`);
- the whole-aggregate nested sums (:func:`nested_sums`) and the
  whole-aggregate lexsort ranking (:func:`lexsort_ranking`) that the
  column store computed on every ranking before the fold kept its sums
  and the extractor ordered only a prefix.

``tests/test_measure_oracle.py`` requires the columns to equal them bit
for bit.
"""

import math
from operator import itemgetter

import numpy as np

from repro.text.vectorize import idf_weight

# BM25 constants (standard Robertson parameters).
_BM25_K1 = 1.2
_BM25_B = 0.75


def containers(context):
    """Sub-span → the candidates containing it, in candidate order.

    Every strict contiguous sub-span of every candidate, each counted
    once per candidate.
    """
    index = {}
    for stats in context.candidates.values():
        tokens = stats.tokens
        length = stats.length
        spans = {
            tokens[i : i + span]
            for span in range(1, length)
            for i in range(length - span + 1)
        }
        for span in spans:
            index.setdefault(span, []).append(stats)
    return index


def c_value(context):
    index = containers(context)
    scores = {}
    for tokens, stats in context.candidates.items():
        longer = index.get(tokens, [])
        frequency = float(stats.frequency)
        if longer:
            frequency -= sum(o.frequency for o in longer) / len(longer)
        scores[tokens] = math.log2(stats.length + 1) * frequency
    return scores


def tf_idf(context):
    return {
        tokens: stats.frequency * idf_weight(context.n_documents, stats.doc_frequency)
        for tokens, stats in context.candidates.items()
    }


def okapi(context):
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


def _harmonic_fusion(a, b):
    out = {}
    for tokens in a:
        x, y = max(a[tokens], 0.0), max(b[tokens], 0.0)
        out[tokens] = 2.0 * x * y / (x + y) if x + y > 0 else 0.0
    return out


def f_tfidf_c(context):
    return _harmonic_fusion(tf_idf(context), c_value(context))


def f_ocapi(context):
    return _harmonic_fusion(okapi(context), c_value(context))


def lidf_value(context):
    cval = c_value(context)
    return {
        tokens: stats.pattern_weight
        * idf_weight(context.n_documents, stats.doc_frequency)
        * max(cval[tokens], 0.0)
        for tokens, stats in context.candidates.items()
    }


def tergraph(context):
    by_doc = {}
    for tokens, stats in context.candidates.items():
        for doc_id in stats.per_doc:
            by_doc.setdefault(doc_id, []).append(tokens)
    neighbors = {tokens: set() for tokens in context.candidates}
    for members in by_doc.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a != b:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
    scores = {}
    for tokens in context.candidates:
        ns = neighbors[tokens]
        mass = math.fsum(1.0 / max(len(neighbors[u]), 1) for u in ns)
        scores[tokens] = math.log2(1.0 + mass / (1.0 + len(ns)))
    return scores


MEASURES = {
    "c_value": c_value,
    "tf_idf": tf_idf,
    "okapi": okapi,
    "f_tfidf_c": f_tfidf_c,
    "f_ocapi": f_ocapi,
    "lidf_value": lidf_value,
    "tergraph": tergraph,
}


def ranking(context, measure, *, min_length=1, top_k=None):
    """``(tokens, score, frequency)`` rows, best first, as two sorts give.

    Score descending, then the token tuple ascending: the second sort is
    stable, so equal scores keep the token order.
    """
    rows = [
        (tokens, float(score), context.candidates[tokens].frequency)
        for tokens, score in MEASURES[measure](context).items()
        if len(tokens) >= min_length
    ]
    rows.sort(key=itemgetter(0))
    rows.sort(key=itemgetter(1), reverse=True)
    return rows if top_k is None else rows[:top_k]


def _row_keys(rows, n_words):
    """One int64 key per row of word ids, equal iff the rows are equal
    (dense prefix ids, valid within one call)."""
    key = rows[:, 0]
    for j in range(1, rows.shape[1]):
        prefix = np.unique(key, return_inverse=True)[1].ravel()
        key = prefix * n_words + rows[:, j]
    return key


def nested_sums(columns):
    """Per row, the sum and count of its containers' frequencies.

    A row's containers are the rows that strictly contain it as a
    contiguous sub-sequence.  Each sub-span of each longer row is looked
    up, per (length, offset), among the sorted keys of the rows of that
    length, over the whole of ``columns``.
    """
    n = len(columns)
    sums = np.zeros(n, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for span in range(1, int(columns.length.max(initial=0))):
        nested = np.flatnonzero(columns.length == span)
        longer = np.flatnonzero(columns.length > span)
        if not len(nested) or not len(longer):
            continue
        containers = [
            longer[columns.length[longer] >= offset + span]
            for offset in range(columns.ids.shape[1] - span + 1)
        ]
        keys = _row_keys(
            np.concatenate(
                [columns.ids[nested, :span]]
                + [
                    columns.ids[rows, offset : offset + span]
                    for offset, rows in enumerate(containers)
                ]
            ),
            len(columns.words),
        )
        order = np.argsort(keys[: len(nested)])
        nested_keys = keys[: len(nested)][order]
        span_keys = keys[len(nested) :]
        at = np.minimum(np.searchsorted(nested_keys, span_keys), len(nested) - 1)
        hit = nested_keys[at] == span_keys
        container = np.concatenate(containers)[hit]
        row = nested[order[at[hit]]]
        np.add.at(sums, row, columns.frequency[container])
        np.add.at(counts, row, 1)
    return sums, counts


def lexsort_ranking(columns, scores, *, min_length=1):
    """Every row of at least ``min_length`` words, best first, by one
    lexsort over the whole aggregate: score descending, then the token
    tuple in sorted word order (-1 pads a shorter tuple)."""
    kept = np.flatnonzero(columns.length >= min_length)
    words = columns.words
    word_ranks = np.empty(len(words), dtype=np.int64)
    word_ranks[sorted(range(len(words)), key=words.__getitem__)] = np.arange(
        len(words)
    )
    ids = columns.ids[kept]
    ranks = np.where(ids >= 0, word_ranks[ids], -1)
    keys = [ranks[:, j] for j in reversed(range(ranks.shape[1]))]
    return kept[np.lexsort([*keys, -scores[kept]])]
