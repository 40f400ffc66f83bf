"""Labelled polysemy data sets built from an ontology and its corpus.

Ground truth comes from the ontology: a term naming two or more concepts
is polysemic.  Features come from the corpus contexts of the term.  The
resulting (X, y) feeds the Step II classifiers and their CV evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex, KeptOccurrenceRecords
from repro.errors import CorpusError, ValidationError
from repro.ontology.model import Ontology
from repro.polysemy.cache import CacheKey, FeatureCache, context_digest
from repro.polysemy.features import FeatureItem, PolysemyFeatureExtractor


@dataclass(frozen=True)
class PolysemyDataset:
    """A labelled feature matrix for polysemy detection.

    Attributes
    ----------
    X:
        (n_terms, n_features) feature matrix.
    y:
        1 = polysemic, 0 = monosemous.
    terms:
        Term strings aligned with the rows.
    feature_names:
        Column names.
    """

    X: np.ndarray
    y: np.ndarray
    terms: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0] or self.X.shape[0] != len(self.terms):
            raise ValidationError("X, y, and terms must be aligned")

    @property
    def n_samples(self) -> int:
        """Number of labelled terms."""
        return int(self.X.shape[0])

    def class_balance(self) -> float:
        """Fraction of polysemic samples."""
        return float(self.y.mean()) if self.y.size else 0.0


def build_entity_polysemy_dataset(
    entities,
    *,
    extractor: PolysemyFeatureExtractor | None = None,
) -> PolysemyDataset:
    """Featurise MSH-WSD-style entities into a labelled dataset.

    Each entity (see :class:`repro.corpus.mshwsd.MshWsdEntity`) carries its
    own labelled contexts; ``true_k >= 2`` ⇒ polysemic, ``true_k == 1`` ⇒
    monosemous control.  This is the benchmark path for the paper's 98 %
    F-measure figure: the per-term context quality matches the MSH WSD
    data set the authors' features were developed against.
    """
    extractor = extractor if extractor is not None else PolysemyFeatureExtractor()
    entities = list(entities)
    X = extractor.featurise(
        [(entity.term, entity.contexts, None) for entity in entities]
    )
    labels = [1 if entity.true_k >= 2 else 0 for entity in entities]
    terms = [entity.term for entity in entities]
    if not entities or len(set(labels)) < 2:
        raise CorpusError("need entities of both classes (true_k == 1 and >= 2)")
    return PolysemyDataset(
        X=X,
        y=np.asarray(labels, dtype=np.int64),
        terms=tuple(terms),
        feature_names=extractor.feature_names,
    )


def build_polysemy_dataset(
    ontology: Ontology,
    corpus: Corpus,
    *,
    extractor: PolysemyFeatureExtractor | None = None,
    min_contexts: int = 4,
    max_contexts: int = 60,
    max_monosemous: int | None = None,
    seed: int | np.random.Generator | None = None,
    index: CorpusIndex | None = None,
    cache: FeatureCache | None = None,
    records: KeptOccurrenceRecords | None = None,
) -> PolysemyDataset:
    """Featurise every usable ontology term into a labelled dataset.

    Parameters
    ----------
    ontology:
        Label source: ``sense_count >= 2`` ⇒ polysemic.
    corpus:
        Context source.
    extractor:
        Feature extractor (defaults to the full 23-feature one).
    min_contexts:
        Terms with fewer corpus occurrences are skipped (their feature
        estimates would be noise).
    max_contexts:
        Frequent terms are capped at this many contexts (an evenly-spaced
        deterministic subsample) — the feature estimates converge well
        before that, and the per-term clustering/graph costs are
        superlinear in the context count.
    max_monosemous:
        Optional cap on monosemous terms to keep classes balanced; a
        seeded subsample is drawn when the cap binds.
    index:
        Optional prebuilt :class:`~repro.corpus.index.CorpusIndex` to
        retrieve occurrences through (defaults to the corpus's cached
        index).
    cache:
        Optional :class:`~repro.polysemy.cache.FeatureCache`, keyed by
        each term's capped windows and document frequency: repeated
        builds (ablations, repeated training runs, a grown corpus)
        featurise only the terms whose windows are new.  By default a
        fresh in-memory cache serves this build alone.
    records:
        Optional :class:`~repro.corpus.index.KeptOccurrenceRecords` at
        the extractor's window, kept by the caller across builds: it is
        brought to ``index`` and the ontology's terms, so a grown corpus
        reads only its new documents, and each term's context digest
        is kept in its ``memo`` until the term's records change.  By
        default every build retrieves the records of the whole index.
    """
    extractor = extractor if extractor is not None else PolysemyFeatureExtractor()
    rng = np.random.default_rng(seed if not isinstance(seed, np.random.Generator) else None)
    if isinstance(seed, np.random.Generator):
        rng = seed

    # One postings pass for every ontology term (per-term scans are O(n²)).
    index = index if index is not None else corpus.index()
    cache = cache if cache is not None else FeatureCache()
    if records is None:
        records = KeptOccurrenceRecords(window=extractor.window)
    elif records.window != extractor.window:
        raise ValidationError(
            f"kept records have window {records.window}, "
            f"the extractor {extractor.window}"
        )
    records.update(corpus, index, ontology.terms())
    occurrences_of = records.records
    polysemic_rows: list[tuple[str, np.ndarray]] = []
    monosemous_rows: list[tuple[str, np.ndarray]] = []
    if max_contexts < min_contexts:
        raise ValidationError(
            f"max_contexts ({max_contexts}) must be >= min_contexts "
            f"({min_contexts})"
        )
    # Two passes so a remote-backed cache answers every eligible term's
    # lookup in one batched call (O(batches) HTTP round trips), not one
    # request per term.  Counting is identical to per-term lookups:
    # lookup_many records one hit/miss per eligible term.
    eligible = [
        term
        for term in ontology.terms()
        if len(occurrences_of.get(term, ())) >= min_contexts
    ]

    def item(term: str) -> FeatureItem:
        occurrences = occurrences_of[term]
        doc_frequency = len({doc_id for doc_id, __ in occurrences})
        if len(occurrences) > max_contexts:
            # Evenly spaced deterministic subsample across the corpus.
            step = len(occurrences) / max_contexts
            occurrences = [occurrences[int(i * step)] for i in range(max_contexts)]
        contexts = [window_tokens for __, window_tokens in occurrences]
        return term, contexts, doc_frequency

    items: dict[str, FeatureItem] = {}
    keys: dict[str, CacheKey] = {}
    # A term's context digest is kept until its records change (the cap
    # is part of what it covers), so a grown corpus hashes the windows
    # of its changed terms only.
    for term in eligible:
        kept = records.memo.get(term)
        if kept is None or kept[0] != max_contexts:
            items[term] = item(term)
            __, contexts, doc_frequency = items[term]
            kept = (max_contexts, context_digest(contexts, doc_frequency))
            records.memo[term] = kept
        keys[term] = FeatureCache.key(kept[1], term, extractor.spec_digest)
    found = cache.lookup_many(list(keys.values()))
    cached = {term: found[key] for term, key in keys.items() if key in found}
    # Every miss is featurised in one batch, in ``eligible`` order.
    misses = [term for term in eligible if term not in cached]
    rows = extractor.featurise(
        [items[term] if term in items else item(term) for term in misses]
    )
    vectors = dict(zip(misses, rows, strict=True))
    if misses:
        cache.store_many([(keys[term], vectors[term]) for term in misses])
    for term in eligible:
        vector = cached[term] if term in cached else vectors[term]
        if ontology.is_polysemic(term):
            polysemic_rows.append((term, vector))
        else:
            monosemous_rows.append((term, vector))

    if not polysemic_rows or not monosemous_rows:
        raise CorpusError(
            "dataset needs both polysemic and monosemous terms with enough "
            f"contexts (got {len(polysemic_rows)} polysemic, "
            f"{len(monosemous_rows)} monosemous)"
        )
    if max_monosemous is not None and len(monosemous_rows) > max_monosemous:
        picked = rng.choice(
            len(monosemous_rows), size=max_monosemous, replace=False
        )
        monosemous_rows = [monosemous_rows[int(i)] for i in sorted(picked)]

    rows = polysemic_rows + monosemous_rows
    labels = [1] * len(polysemic_rows) + [0] * len(monosemous_rows)
    X = np.vstack([vector for __, vector in rows])
    y = np.asarray(labels, dtype=np.int64)
    terms = tuple(term for term, __ in rows)
    return PolysemyDataset(
        X=X, y=y, terms=terms, feature_names=extractor.feature_names
    )
