"""Configuration of the end-to-end enrichment workflow."""

from __future__ import annotations

from dataclasses import dataclass

from repro.clustering.algorithms import ALGORITHM_NAMES
from repro.clustering.indexes import index_names
from repro.errors import ValidationError
from repro.extraction.measures import MEASURE_NAMES
from repro.ml import DEFAULT_CLASSIFIERS
from repro.senses.representation import REPRESENTATION_NAMES
from repro.text.stopwords import SUPPORTED_LANGUAGES
from repro.utils.validation import check_in_options

#: Step II classifiers the detector can fit.  Multinomial naive Bayes
#: needs non-negative counts, and the detector standardises its
#: features, so it can never fit.
FITTABLE_CLASSIFIERS = tuple(
    name for name in DEFAULT_CLASSIFIERS if name != "multinomial_nb"
)


@dataclass(frozen=True)
class EnrichmentConfig:
    """Knobs of the four workflow steps.

    ``language``, ``extraction_measure``, ``polysemy_classifier`` and
    the three ``sense_*`` names are checked against their registries on
    construction, so an unknown name raises
    :class:`~repro.errors.ValidationError` before any work starts.

    Parameters
    ----------
    language:
        Corpus/ontology language (``"en"``, ``"fr"``, ``"es"``).
    extraction_measure:
        Step I ranking measure (see
        :data:`repro.extraction.measures.MEASURE_NAMES`).
    n_candidates:
        How many top-ranked candidate terms to push through Steps II–IV.
    min_term_length:
        Minimum candidate length in tokens (2 = multi-word terms only).
    min_contexts:
        Candidates with fewer corpus contexts are skipped (not enough
        signal for polysemy detection or linkage).
    polysemy_classifier:
        Step II classifier registry name (one of
        :data:`FITTABLE_CLASSIFIERS`).
    sense_algorithm / sense_index / sense_representation:
        Step III clustering algorithm, internal index, and context
        representation (paper defaults: rb + f_k + bag-of-words).
    context_window:
        Tokens kept each side of a term occurrence.
    max_contexts_per_term:
        Cap on contexts kept per candidate (deterministic stride
        subsample); the per-candidate clustering and graph features are
        superlinear in the context count.  Must be >= ``min_contexts``.
    top_k_positions:
        Step IV proposition-list length (paper: 10).
    expand_hierarchy:
        Step IV.2 father/son expansion of the neighbourhood.
    seed:
        Workflow-level RNG seed.
    index_dir:
        Optional directory backing the corpus index with a persistent
        :class:`~repro.corpus.index_store.IndexStore`: the corpus is
        fingerprinted, a stored generation is reopened via ``mmap`` in
        O(1), and a miss (or any corruption) degrades to a clean build
        that is then persisted for the next run.  The corpus keeps the
        opened index and grows it in memory as documents are added;
        the store keeps the generation it was opened from.  Query
        results are byte-identical with and without the store.
    feature_cache:
        Memoise per-term feature vectors across training runs, repeated
        ``enrich`` calls and corpus growth (keyed by a digest of the
        term's capped windows and document frequency, the term, and a
        digest of the extractor settings; see
        :mod:`repro.polysemy.cache`).
    cache_dir:
        Optional directory backing the feature cache with a persistent
        :class:`~repro.polysemy.cache_store.DiskCacheStore`, so entries
        survive the process and are shared between runs, CLI
        invocations, and the service (see
        :mod:`repro.polysemy.cache_store`).  None (default) keeps the
        in-memory store.  Requires ``feature_cache=True``.
    cache_max_bytes:
        Optional size cap on the on-disk store; exceeding it evicts
        least-recently-used entries: generations of other extractor
        settings first, then the oldest shard files of the one being
        written.  Entries are written once, so such a shard can hold
        vectors still in use, which the next run computes and stores
        again.  Requires ``cache_dir``.
    cache_url:
        Optional base URL of a ``repro serve`` cache service (e.g.
        ``http://cache-host:8750``) backing the feature cache with a
        :class:`~repro.service.client.RemoteCacheStore`, so warm Step
        II vectors are shared across *machines*.  Every network failure
        degrades to a clean cache miss (counted in the report's
        ``remote_errors``), never an error — a dead service costs
        recomputation, not the run.  Mutually exclusive with
        ``cache_dir``; requires ``feature_cache=True``.
    cache_timeout:
        Per-request network timeout (seconds) of the cache service
        client.  Requires ``cache_url``.
    """

    language: str = "en"
    extraction_measure: str = "lidf_value"
    n_candidates: int = 20
    min_term_length: int = 2
    min_contexts: int = 4
    polysemy_classifier: str = "forest"
    sense_algorithm: str = "rb"
    sense_index: str = "fk"
    sense_representation: str = "bow"
    context_window: int = 10
    max_contexts_per_term: int = 80
    top_k_positions: int = 10
    expand_hierarchy: bool = True
    seed: int = 0
    skip_known_terms: bool = True
    index_dir: str | None = None
    feature_cache: bool = True
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    cache_url: str | None = None
    cache_timeout: float = 5.0

    def __post_init__(self) -> None:
        # Named values fail here, not deep inside the first run.
        check_in_options(self.language, "language", SUPPORTED_LANGUAGES)
        check_in_options(
            self.extraction_measure, "extraction_measure", MEASURE_NAMES
        )
        check_in_options(
            self.polysemy_classifier,
            "polysemy_classifier",
            FITTABLE_CLASSIFIERS,
        )
        check_in_options(
            self.sense_algorithm, "sense_algorithm", ALGORITHM_NAMES
        )
        check_in_options(self.sense_index, "sense_index", index_names())
        check_in_options(
            self.sense_representation,
            "sense_representation",
            REPRESENTATION_NAMES,
        )
        if self.n_candidates < 1:
            raise ValidationError(
                f"n_candidates must be >= 1, got {self.n_candidates}"
            )
        if self.min_contexts < 1:
            raise ValidationError(
                f"min_contexts must be >= 1, got {self.min_contexts}"
            )
        if self.max_contexts_per_term < self.min_contexts:
            raise ValidationError(
                f"max_contexts_per_term ({self.max_contexts_per_term}) must "
                f"be >= min_contexts ({self.min_contexts})"
            )
        if self.top_k_positions < 1:
            raise ValidationError(
                f"top_k_positions must be >= 1, got {self.top_k_positions}"
            )
        if self.index_dir is not None and not self.index_dir:
            raise ValidationError("index_dir must be a non-empty path")
        if self.cache_dir is not None and not self.feature_cache:
            raise ValidationError(
                "cache_dir requires feature_cache=True"
            )
        if self.cache_max_bytes is not None:
            if self.cache_dir is None:
                raise ValidationError(
                    "cache_max_bytes requires cache_dir to be set"
                )
            if self.cache_max_bytes < 1:
                raise ValidationError(
                    f"cache_max_bytes must be >= 1, got {self.cache_max_bytes}"
                )
        if self.cache_url is not None:
            if not self.feature_cache:
                raise ValidationError("cache_url requires feature_cache=True")
            if self.cache_dir is not None:
                raise ValidationError(
                    "cache_url and cache_dir are mutually exclusive "
                    "(the service owns the disk store)"
                )
        if self.cache_timeout <= 0:
            raise ValidationError(
                f"cache_timeout must be > 0, got {self.cache_timeout}"
            )
