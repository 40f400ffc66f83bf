"""The OntologyEnricher: Steps I → IV as explicit composable stages.

This is the paper's "entire workflow to enrich biomedical ontologies",
restructured as a staged batch pipeline:

* :class:`ExtractStage` — Step I: rank candidate terms and select the
  batch to examine;
* :class:`DetectStage` — Step II: materialise each candidate's contexts
  through the shared positional index, featurise, and classify
  polysemic/monosemous (training the detector on ontology labels first
  when needed);
* :class:`InduceStage` — Step III: cluster each candidate's contexts
  into its induced sense(s);
* :class:`LinkStage` — Step IV: build the shared linkage artefacts once
  and propose ranked ontology positions per candidate.

A :class:`PipelineContext` carries the shared state between stages: the
corpus's :class:`~repro.corpus.index.CorpusIndex` (built once, reused by
every stage instead of rescanning documents; ``index_shards > 1``
partitions it across a
:class:`~repro.corpus.index.ShardedCorpusIndex` with byte-identical
query results), the ranked candidates, the
per-candidate work items, and the growing
:class:`~repro.workflow.report.EnrichmentReport`.  Per-stage wall times
are recorded in ``report.timings``.

The per-candidate work of Steps II–III is independent across candidates,
so :class:`EnrichmentConfig`'s ``n_workers``/``batch_size`` knobs can
fan it out over a worker pool; the default (``n_workers=1``) runs
sequentially and every mode produces identical reports.  The
``worker_backend`` knob picks the pool: ``"thread"`` (shared memory,
mutates work items in place) or ``"process"`` (a
``concurrent.futures.ProcessPoolExecutor`` escaping the GIL — the
per-candidate callables are picklable :class:`_DetectProcessor` /
:class:`_InduceProcessor` objects shipped once per worker, and the
mutated work items are shipped back and merged into the originals).

Step II featurisation is memoised in a
:class:`~repro.polysemy.cache.FeatureCache` keyed by (corpus
fingerprint, term, config fingerprint), so repeated training runs and
``enrich`` calls skip recomputation; hit/miss counters surface in
:attr:`EnrichmentReport.cache`.  With ``EnrichmentConfig(cache_dir=...)``
the cache is backed by a persistent
:class:`~repro.polysemy.cache_store.DiskCacheStore` shared across runs
and processes: the parent prefills from the store, process-pool workers
additionally read the store directly through their own handle (catching
entries a concurrent run persisted mid-flight), and every *new* vector
ships back to the parent, which is the store's single writer for the
stage.  ``EnrichmentConfig(cache_url=...)`` swaps the disk store for a
:class:`~repro.service.client.RemoteCacheStore` talking to a
``repro serve`` process, so the very same warm-vector sharing works
across machines — with every network failure degrading to a cache miss
(``remote_errors`` in :attr:`EnrichmentReport.cache`), never an error.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex, ShardedCorpusIndex
from repro.errors import CorpusError, LinkageError
from repro.extraction.extractor import BioTexExtractor, RankedTerm
from repro.linkage.linker import SemanticLinker
from repro.ontology.model import Ontology
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import DiskCacheStore
from repro.service.client import RemoteCacheStore
from repro.polysemy.dataset import build_polysemy_dataset
from repro.polysemy.detector import PolysemyDetector
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.senses.induction import SenseInducer
from repro.senses.predictor import SenseCountPredictor
from repro.text.postag import LexiconTagger
from repro.workflow.config import EnrichmentConfig
from repro.workflow.report import EnrichmentReport, TermReport


@dataclass
class CandidateWork:
    """Mutable per-candidate state threaded through the stages.

    Attributes
    ----------
    candidate:
        The Step I ranked term.
    report:
        The candidate's row in the :class:`EnrichmentReport` (stages
        fill it in as they run).
    contexts:
        The (capped) context windows materialised by
        :class:`DetectStage`; ``None`` until then or when the candidate
        was skipped.
    doc_frequency:
        Distinct documents the candidate occurs in.
    features:
        The Step II feature vector (pre-filled from the
        :class:`~repro.polysemy.cache.FeatureCache` on a hit, computed
        by :class:`DetectStage` otherwise; ``None`` when Step II never
        featurised the candidate).
    features_from_store:
        True when a pool worker loaded ``features`` straight from the
        shared :class:`~repro.polysemy.cache_store.DiskCacheStore`
        (rather than computing them); the parent counts these as cache
        hits and skips re-persisting them.
    """

    candidate: RankedTerm
    report: TermReport
    contexts: list[tuple[str, ...]] | None = None
    doc_frequency: int = 0
    features: np.ndarray | None = None
    features_from_store: bool = False

    @property
    def active(self) -> bool:
        """True while the candidate is still flowing through the stages."""
        return self.report.skipped_reason is None


@dataclass
class PipelineContext:
    """Shared state handed from stage to stage.

    Attributes
    ----------
    corpus / ontology / config:
        The enrichment inputs.
    index:
        The corpus's positional index, built once before the first stage
        and reused by every occurrence lookup in the pipeline.
    report:
        The growing output report.
    ranked:
        Every Step I candidate (also seeds the linker's shared build).
    work:
        One :class:`CandidateWork` per *examined* candidate.
    """

    corpus: Corpus
    ontology: Ontology
    config: EnrichmentConfig
    index: CorpusIndex | ShardedCorpusIndex
    report: EnrichmentReport = field(default_factory=EnrichmentReport)
    ranked: list[RankedTerm] = field(default_factory=list)
    work: list[CandidateWork] = field(default_factory=list)


def _merge_work(target: CandidateWork, source: CandidateWork) -> None:
    """Copy a worker-mutated clone's results back into the original.

    Process workers operate on pickled copies, so the parent's report
    rows (already registered in ``ctx.report.terms``) must absorb the
    clone's field values rather than be replaced.
    """
    for report_field in fields(TermReport):
        setattr(
            target.report,
            report_field.name,
            getattr(source.report, report_field.name),
        )
    target.contexts = source.contexts
    target.doc_frequency = source.doc_frequency
    target.features = source.features
    target.features_from_store = source.features_from_store


# The per-worker processor shipped once per process via the pool
# initializer (cheaper than pickling it with every batch — it carries
# the corpus index).
_WORKER_PROCESSOR = None


def _init_worker_processor(processor) -> None:
    global _WORKER_PROCESSOR
    _WORKER_PROCESSOR = processor


def _run_worker_batch(
    batch: list[CandidateWork],
) -> tuple[list[CandidateWork], int]:
    """Process one pickled batch in a pool worker; ship it back with the
    worker store-error delta (a remote store failing inside a worker
    must still surface in the parent's ``remote_errors``)."""
    errors_before = _worker_store_errors()
    for item in batch:
        _WORKER_PROCESSOR(item)
    return batch, _worker_store_errors() - errors_before


def _worker_store_errors() -> int:
    """The worker processor's store failure count (0 when storeless)."""
    counter = getattr(_WORKER_PROCESSOR, "store_error_count", None)
    return counter() if counter is not None else 0


def _for_each_candidate(
    fn,
    items: list[CandidateWork],
    *,
    n_workers: int,
    batch_size: int,
    backend: str = "thread",
) -> int:
    """Apply ``fn`` to every work item, optionally over a worker pool.

    Items are independent, so execution order cannot change results;
    each worker processes ``batch_size`` items per task.  ``backend``
    picks the pool for ``n_workers > 1``: ``"thread"`` mutates the items
    in place, ``"process"`` requires ``fn`` and the items to be
    picklable and merges the returned copies back into the originals.

    Returns the summed worker *store-error* count (process backend
    only; 0 otherwise) — sequential and thread modes hit the parent's
    own store handle, which counts its failures itself.
    """
    if n_workers <= 1 or len(items) <= 1:
        for item in items:
            fn(item)
        return 0
    batches = [
        items[start : start + batch_size]
        for start in range(0, len(items), batch_size)
    ]
    if backend == "process":
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker_processor,
            initargs=(fn,),
        ) as pool:
            done = list(pool.map(_run_worker_batch, batches))
        worker_errors = 0
        for batch, (done_batch, batch_errors) in zip(batches, done, strict=True):
            worker_errors += batch_errors
            for item, result in zip(batch, done_batch, strict=True):
                _merge_work(item, result)
        return worker_errors

    def run_batch(batch: list[CandidateWork]) -> None:
        for item in batch:
            fn(item)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        # Drain the iterator so worker exceptions propagate here.
        list(pool.map(run_batch, batches))
    return 0


class ExtractStage:
    """Step I: rank candidates and select the batch to examine."""

    name = "extract"

    def __init__(self, extractor: BioTexExtractor) -> None:
        self._extractor = extractor

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        # Rank everything once (scoring already covers every candidate;
        # top_k only trims the output), then scan down the ranking until
        # the batch is full or candidates are exhausted — a fixed
        # over-fetch window under-fills the batch whenever
        # skip_known_terms filters most of it.
        ranked = self._extractor.extract(ctx.corpus, top_k=None)
        consumed = 0
        for candidate in ranked:
            if len(ctx.work) >= cfg.n_candidates:
                break
            consumed += 1
            if cfg.skip_known_terms and ctx.ontology.has_term(candidate.term):
                continue
            term_report = TermReport(
                term=candidate.term,
                extraction_score=candidate.score,
                extraction_rank=candidate.rank,
            )
            ctx.report.terms.append(term_report)
            ctx.work.append(
                CandidateWork(candidate=candidate, report=term_report)
            )
        # The linker's shared build declares ctx.ranked as extra terms;
        # keep the historical 3x window unless filling the batch had to
        # reach deeper.
        ctx.ranked = ranked[: max(cfg.n_candidates * 3, consumed)]


class _DetectProcessor:
    """Picklable Step II per-candidate work: materialise + classify.

    Instances carry everything a pool worker needs (the corpus index,
    the retrieval caps, the feature extractor, and the trained
    detector), so one pickled copy per worker can process any batch.
    """

    def __init__(
        self,
        *,
        index: CorpusIndex,
        min_contexts: int,
        max_contexts: int,
        window: int,
        features: PolysemyFeatureExtractor,
        detector: PolysemyDetector,
        trained: bool,
        cache_store: DiskCacheStore | RemoteCacheStore | None = None,
        corpus_fingerprint: str = "",
        config_fingerprint: str = "",
    ) -> None:
        self._index = index
        self._min_contexts = min_contexts
        self._max_contexts = max_contexts
        self._window = window
        self._features = features
        self._detector = detector
        self._trained = trained
        # Only set under the process backend with a disk-backed cache:
        # each worker reopens the store (it pickles to its directory
        # path) and reads it directly for candidates the parent's
        # prefill missed — e.g. entries a concurrent run persisted
        # after the prefill.  Workers never write; new vectors ship
        # back with the work item for the parent's single-writer merge.
        self._cache_store = cache_store
        self._corpus_fingerprint = corpus_fingerprint
        self._config_fingerprint = config_fingerprint

    def __call__(self, item: CandidateWork) -> None:
        self._materialise(item)
        self._classify(item)

    def store_error_count(self) -> int:
        """Failed store operations on this worker's own handle.

        Only a remote store fails per-operation; the pool batch runner
        samples this around each batch so worker-side failures merge
        into the parent report's ``remote_errors``.
        """
        return getattr(self._cache_store, "error_count", 0)

    def _materialise(self, item: CandidateWork) -> None:
        occurrences = self._index.contexts_for_term(
            item.candidate.term, window=self._window
        )
        item.report.n_contexts = len(occurrences)
        if len(occurrences) < self._min_contexts:
            item.report.skipped_reason = (
                f"only {len(occurrences)} contexts "
                f"(< {self._min_contexts})"
            )
            # A cache-prefilled vector must not survive on a skipped
            # candidate: contexts is None ⇒ features is None.
            item.features = None
            return
        # Cap very frequent candidates: the per-candidate clustering
        # and graph features are superlinear in the context count.
        cap = self._max_contexts
        if len(occurrences) > cap:
            step = len(occurrences) / cap
            occurrences = [occurrences[int(i * step)] for i in range(cap)]
        # Document frequency over the kept occurrences (they are what the
        # feature vector sees).
        item.doc_frequency = len({c.doc_id for c in occurrences})
        item.contexts = [ctx_.tokens for ctx_ in occurrences]

    def _classify(self, item: CandidateWork) -> None:
        if item.contexts is None:
            return
        if not self._trained:
            item.report.polysemic = False
            return
        if item.features is None and self._cache_store is not None:
            stored = self._cache_store.get(
                FeatureCache.key(
                    self._corpus_fingerprint,
                    item.candidate.term,
                    self._config_fingerprint,
                )
            )
            if stored is not None:
                item.features = stored
                item.features_from_store = True
        if item.features is None:
            item.features = self._features.features_from_contexts(
                item.candidate.term,
                item.contexts,
                doc_frequency=item.doc_frequency,
            )
        item.report.polysemic = bool(
            self._detector.predict_features(item.features[None, :])[0] == 1
        )


def detect_config_fingerprint(
    feature_extractor: PolysemyFeatureExtractor, config: EnrichmentConfig
) -> str:
    """The cache-key config fingerprint of :class:`DetectStage`.

    One definition for the Step II key format, shared with the streaming
    delta path (:mod:`repro.workflow.streaming`) that migrates warm
    vectors across corpus fingerprints — the two must never drift apart
    or deltas silently re-featurise every candidate.  Pins everything
    that shapes the vector: the extractor settings plus the stage's own
    retrieval caps.
    """
    return (
        f"{feature_extractor.fingerprint()};"
        f"detect_window={config.context_window};"
        f"detect_cap={config.max_contexts_per_term}"
    )


class DetectStage:
    """Step II: materialise contexts and classify polysemy per candidate."""

    name = "detect"

    def __init__(
        self,
        detector: PolysemyDetector,
        feature_extractor: PolysemyFeatureExtractor,
        *,
        trained: bool,
        cache: FeatureCache | None = None,
    ) -> None:
        self._detector = detector
        self._features = feature_extractor
        self._trained = trained
        self._cache = cache

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        # Featurisation only happens with a trained detector, so only
        # then do cache lookups make sense (misses would never be
        # back-filled otherwise).
        cache = self._cache if self._trained else None
        corpus_fp = config_fp = ""
        worker_store: DiskCacheStore | RemoteCacheStore | None = None
        if cache is not None:
            corpus_fp = ctx.index.fingerprint()
            config_fp = detect_config_fingerprint(self._features, cfg)
            if (
                cfg.worker_backend == "process"
                and cfg.n_workers > 1
                and isinstance(
                    cache.backing_store, (DiskCacheStore, RemoteCacheStore)
                )
            ):
                worker_store = cache.backing_store
        processor = _DetectProcessor(
            index=ctx.index,
            min_contexts=cfg.min_contexts,
            max_contexts=cfg.max_contexts_per_term,
            window=cfg.context_window,
            features=self._features,
            detector=self._detector,
            trained=self._trained,
            cache_store=worker_store,
            corpus_fingerprint=corpus_fp,
            config_fingerprint=config_fp,
        )
        keys: dict[int, tuple[str, str, str]] = {}
        prefilled: set[int] = set()
        if cache is not None:
            for item in ctx.work:
                keys[id(item)] = FeatureCache.key(
                    corpus_fp, item.candidate.term, config_fp
                )
            # Peek without counting — whether a probe was a real hit or
            # miss is only known after materialisation (skipped
            # candidates are never featurised).  One lookup_many, so a
            # remote store answers the whole prefill in O(batches) HTTP
            # round trips rather than one per candidate.
            found = cache.lookup_many(
                [keys[id(item)] for item in ctx.work], record=False
            )
            for item in ctx.work:
                item.features = found.get(keys[id(item)])
                if item.features is not None:
                    prefilled.add(id(item))
        worker_errors = _for_each_candidate(
            processor,
            ctx.work,
            n_workers=cfg.n_workers,
            batch_size=cfg.batch_size,
            backend=cfg.worker_backend,
        )
        if cache is not None:
            if worker_errors:
                cache.absorb_worker_errors(worker_errors)
            worker_hits = 0
            to_store: list = []
            for item in ctx.work:
                if item.contexts is None:
                    continue  # skipped before featurisation: no lookup
                hit = id(item) in prefilled or item.features_from_store
                cache.record_lookup(hit)
                if item.features_from_store:
                    worker_hits += 1
                elif not hit and item.features is not None:
                    # Single-writer merge: only the parent persists the
                    # vectors workers computed.
                    to_store.append((keys[id(item)], item.features))
            if to_store:
                # One store_many → batched uploads on a remote store.
                cache.store_many(to_store)
            if worker_hits:
                # Workers read the store through their own handles, so
                # their disk-hit counts must be merged back here (the
                # report would under-count the process pool otherwise).
                cache.absorb_worker_hits(worker_hits)


class _InduceProcessor:
    """Picklable Step III per-candidate work: sense induction."""

    def __init__(self, inducer: SenseInducer) -> None:
        self._inducer = inducer

    def __call__(self, item: CandidateWork) -> None:
        if item.contexts is None:
            return
        item.report.senses = self._inducer.induce(
            item.candidate.term,
            item.contexts,
            polysemic=bool(item.report.polysemic),
        )


class InduceStage:
    """Step III: induce each candidate's sense(s) from its contexts."""

    name = "induce"

    def __init__(self, inducer: SenseInducer) -> None:
        self._inducer = inducer

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        _for_each_candidate(
            _InduceProcessor(self._inducer),
            ctx.work,
            n_workers=cfg.n_workers,
            batch_size=cfg.batch_size,
            backend=cfg.worker_backend,
        )


class LinkStage:
    """Step IV: shared-artefact build plus per-candidate propositions."""

    name = "link"

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        # Declare every candidate up front so the linker builds its term
        # graph and context index once for the whole batch.
        linker = SemanticLinker(
            ctx.ontology,
            ctx.corpus,
            extra_terms=[candidate.term for candidate in ctx.ranked],
            window=cfg.context_window,
            top_k=cfg.top_k_positions,
            expand_hierarchy=cfg.expand_hierarchy,
            index=ctx.index,
        )
        for item in ctx.work:
            if item.contexts is None:
                continue
            try:
                item.report.propositions = linker.propose(item.candidate.term)
            except LinkageError as exc:
                item.report.skipped_reason = f"linkage failed: {exc}"


class OntologyEnricher:
    """Run the four-step enrichment workflow against an ontology.

    Parameters
    ----------
    ontology:
        The ontology to enrich (also the Step II training-label source).
    config:
        Workflow configuration.
    pos_lexicon:
        Optional gold ``word → tag`` mapping for the Step I tagger (pass
        the corpus generator's ``lexicon.pos_lexicon`` on synthetic data).

    Example
    -------
    >>> from repro.scenarios import make_enrichment_scenario
    >>> scenario = make_enrichment_scenario(seed=0, n_concepts=20,
    ...                                     docs_per_concept=4)
    >>> enricher = OntologyEnricher(scenario.ontology,
    ...                             pos_lexicon=scenario.pos_lexicon)
    >>> report = enricher.enrich(scenario.corpus)
    >>> report.n_candidates > 0
    True
    """

    def __init__(
        self,
        ontology: Ontology,
        *,
        config: EnrichmentConfig | None = None,
        pos_lexicon: dict[str, str] | None = None,
    ) -> None:
        from repro.lexicon import BioLexicon

        self.ontology = ontology
        self.config = config if config is not None else EnrichmentConfig()
        cfg = self.config
        tagger = LexiconTagger(pos_lexicon or {}, language=cfg.language)
        # General-academic stop list, as shipped with BioTex: keeps
        # "study results"-style collocations out of the candidate list.
        stop_words = frozenset(
            BioLexicon.filler_nouns()
            + BioLexicon.core_verbs()
            + BioLexicon.core_adverbs()
        )
        self._extractor = BioTexExtractor(
            language=cfg.language,
            measure=cfg.extraction_measure,
            tagger=tagger,
            min_length=cfg.min_term_length,
            stop_words=stop_words,
        )
        self._feature_extractor = PolysemyFeatureExtractor(
            window=cfg.context_window,
            community_backend=cfg.community_backend,
            community_seed=cfg.seed,
        )
        if cfg.feature_cache:
            if cfg.cache_url is not None:
                store = RemoteCacheStore(
                    cfg.cache_url,
                    timeout=cfg.cache_timeout,
                    batch_size=cfg.cache_batch_size,
                )
            elif cfg.cache_dir is not None:
                store = DiskCacheStore(
                    cfg.cache_dir, max_bytes=cfg.cache_max_bytes
                )
            else:
                store = None
            self._feature_cache = FeatureCache(store=store)
        else:
            self._feature_cache = None
        self._detector = PolysemyDetector(
            cfg.polysemy_classifier,
            extractor=self._feature_extractor,
            seed=cfg.seed,
        )
        self._inducer = SenseInducer(
            SenseCountPredictor(
                algorithm=cfg.sense_algorithm,
                index=cfg.sense_index,
                representation=cfg.sense_representation,
                seed=cfg.seed,
            ),
            seed=cfg.seed,
        )
        self._detector_trained = False

    # -- introspection (the streaming delta path builds on these) ----------

    @property
    def feature_cache(self) -> FeatureCache | None:
        """The Step II feature cache (None when disabled)."""
        return self._feature_cache

    @property
    def feature_extractor(self) -> PolysemyFeatureExtractor:
        """The Step II feature extractor (fingerprints cache keys)."""
        return self._feature_extractor

    @property
    def detector_trained(self) -> bool:
        """Whether Step II currently holds a fitted classifier."""
        return self._detector_trained

    def invalidate_training(self) -> None:
        """Force detector re-training on the next :meth:`enrich` call.

        The detector trains on the corpus, so a *grown* corpus must
        retrain for a delta run to report exactly what a from-scratch
        run over the same documents would — the training-term vectors
        still come warm from the feature cache, so invalidation costs a
        model fit, not a re-featurisation.
        """
        self._detector_trained = False

    # -- step II training -------------------------------------------------

    def train_polysemy_detector(
        self, corpus: Corpus, *, index: CorpusIndex | None = None
    ) -> None:
        """Fit Step II on labelled terms of the ontology found in ``corpus``."""
        dataset = build_polysemy_dataset(
            self.ontology,
            corpus,
            extractor=self._feature_extractor,
            min_contexts=self.config.min_contexts,
            seed=self.config.seed,
            index=index,
            cache=self._feature_cache,
        )
        self._detector.fit(dataset)
        self._detector_trained = True

    # -- the staged workflow --------------------------------------------------

    def stages(self) -> list:
        """The pipeline's stages, in execution order.

        Exposed so callers can run or instrument stages individually;
        :meth:`enrich` composes exactly this list.
        """
        return [
            ExtractStage(self._extractor),
            DetectStage(
                self._detector,
                self._feature_extractor,
                trained=self._detector_trained,
                cache=self._feature_cache,
            ),
            InduceStage(self._inducer),
            LinkStage(),
        ]

    def enrich(
        self, corpus: Corpus, *, index: CorpusIndex | None = None
    ) -> EnrichmentReport:
        """Run Steps I–IV over ``corpus`` and report per-candidate results.

        Pass a prebuilt ``index`` to amortise the corpus index across
        repeated ``enrich`` calls on the same corpus (it is also cached
        on the corpus itself, so the second call is cheap either way).
        The feature cache (when enabled) also persists on the enricher,
        so repeated calls skip Step II featurisation for unchanged
        corpora; with ``cache_dir`` set it persists on disk, so even a
        fresh enricher in a fresh process starts warm.

        With ``EnrichmentConfig(index_dir=...)`` the corpus index
        itself persists in an
        :class:`~repro.corpus.index_store.IndexStore`: the first run
        builds and saves it, every later run (even in a fresh process)
        mmap-reopens it in O(1), and ``worker_backend="process"``
        workers receive a path handle instead of a pickled index.
        """
        timings: dict[str, float] = {}
        cache_before = (
            self._feature_cache.stats
            if self._feature_cache is not None
            else None
        )
        started = time.perf_counter()
        if index is None:
            cfg = self.config
            if cfg.index_dir is not None:
                from repro.corpus.index_store import IndexStore

                store = IndexStore(cfg.index_dir)
                index = store.load_or_build(
                    corpus,
                    n_shards=cfg.index_shards,
                    n_workers=cfg.n_workers,
                    build_backend=cfg.worker_backend,
                )
                # Cache the mmap handle on the corpus so repeated
                # enrich calls (and anything else asking the corpus for
                # its index) reuse the store generation; remembering the
                # store keeps post-growth rebuilds persisted too.
                corpus.adopt_index(index, store=store)
            else:
                index = corpus.index(
                    n_shards=(
                        cfg.index_shards if cfg.index_shards > 1 else None
                    ),
                    n_workers=cfg.n_workers,
                )
        timings["index"] = time.perf_counter() - started

        # Step II needs a trained classifier; label source is the ontology.
        train_started = time.perf_counter()
        train_warning: str | None = None
        if not self._detector_trained:
            try:
                self.train_polysemy_detector(corpus, index=index)
            except CorpusError as exc:
                # Degenerate corpora (no labelled terms of both classes
                # with enough contexts) fall back to treating every
                # candidate as monosemous; programming errors propagate.
                self._detector_trained = False
                train_warning = (
                    "polysemy detector not trained, treating every "
                    f"candidate as monosemous: {exc}"
                )
        timings["train"] = time.perf_counter() - train_started

        ctx = PipelineContext(
            corpus=corpus,
            ontology=self.ontology,
            config=self.config,
            index=index,
        )
        ctx.report.detector_trained = self._detector_trained
        if train_warning is not None:
            ctx.report.warnings.append(train_warning)
        for stage in self.stages():
            stage_started = time.perf_counter()
            stage.run(ctx)
            timings[stage.name] = time.perf_counter() - stage_started
        ctx.report.timings = timings
        if self._feature_cache is not None:
            # Hits/misses/disk_hits/evictions are this call's delta (the
            # cache itself is cumulative across the enricher's
            # lifetime); entries and store_bytes are the absolute state
            # of the backing store after the call.
            after = self._feature_cache.stats
            ctx.report.cache = {
                "hits": after["hits"] - cache_before["hits"],
                "misses": after["misses"] - cache_before["misses"],
                "disk_hits": after["disk_hits"] - cache_before["disk_hits"],
                "evictions": after["evictions"] - cache_before["evictions"],
                "remote_hits": (
                    after["remote_hits"] - cache_before["remote_hits"]
                ),
                "remote_errors": (
                    after["remote_errors"] - cache_before["remote_errors"]
                ),
                "entries": after["entries"],
                "store_bytes": after["store_bytes"],
            }
        return ctx.report
