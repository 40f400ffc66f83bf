"""The OntologyEnricher: Steps I → IV as explicit composable stages.

This is the paper's "entire workflow to enrich biomedical ontologies",
restructured as a staged batch pipeline:

* :class:`ExtractStage` — Step I: rank candidate terms and select the
  batch to examine;
* :class:`DetectStage` — Step II: materialise each candidate's contexts
  through the shared positional index, featurise them all in one batch,
  and classify polysemic/monosemous (training the detector on ontology
  labels first when needed);
* :class:`InduceStage` — Step III: cluster each candidate's contexts
  into its induced sense(s);
* :class:`LinkStage` — Step IV: build the shared linkage artefacts once
  and propose ranked ontology positions per candidate.

A :class:`PipelineContext` carries the shared state between stages: the
corpus's :class:`~repro.corpus.index.CorpusIndex` (built once, reused by
every stage instead of rescanning documents), the ranked candidates, the
per-candidate work items, and the growing
:class:`~repro.workflow.report.EnrichmentReport`.  Per-stage wall times
are recorded in ``report.timings``.  Step II featurises the candidates
as one batch, then Steps II–III loop over them in order, in this
process.

Step II featurisation is memoised in a
:class:`~repro.polysemy.cache.FeatureCache` keyed by (corpus
fingerprint, term, config fingerprint), so repeated training runs and
``enrich`` calls skip recomputation; hit/miss counters surface in
:attr:`EnrichmentReport.cache`.  With ``EnrichmentConfig(cache_dir=...)``
the cache is backed by a persistent
:class:`~repro.polysemy.cache_store.DiskCacheStore` shared across runs
and processes: :class:`DetectStage` prefills from the store in one bulk
lookup and writes every *new* vector back in one bulk store.
``EnrichmentConfig(cache_url=...)`` swaps the disk store for a
:class:`~repro.service.client.RemoteCacheStore` talking to a
``repro serve`` process, so the very same warm-vector sharing works
across machines — with every network failure degrading to a cache miss
(``remote_errors`` in :attr:`EnrichmentReport.cache`), never an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import CorpusError, LinkageError
from repro.extraction.extractor import BioTexExtractor, RankedTerm
from repro.linkage.context import TermContextIndex
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
    """

    candidate: RankedTerm
    report: TermReport
    contexts: list[tuple[str, ...]] | None = None
    doc_frequency: int = 0
    features: np.ndarray | None = None

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
    index: CorpusIndex
    report: EnrichmentReport = field(default_factory=EnrichmentReport)
    ranked: list[RankedTerm] = field(default_factory=list)
    work: list[CandidateWork] = field(default_factory=list)


class ExtractStage:
    """Step I: rank candidates and select the batch to examine."""

    name = "extract"

    def __init__(self, extractor: BioTexExtractor) -> None:
        self._extractor = extractor

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        # Scan down the ranking until the batch is full or candidates
        # are exhausted.  The extractor builds terms only for the prefix
        # asked for, so ask for the 3x window and double it only when
        # skip_known_terms has filtered all of it: a fixed window would
        # under-fill the batch whenever the filter drops most of it.
        window = cfg.n_candidates * 3
        ranked = self._extractor.extract(ctx.corpus, top_k=window)
        consumed = 0
        while len(ctx.work) < cfg.n_candidates:
            if consumed == len(ranked):
                if len(ranked) < window:
                    break  # every candidate scanned
                window *= 2
                ranked = self._extractor.extract(ctx.corpus, top_k=window)
                continue
            candidate = ranked[consumed]
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
    """Step II: materialise contexts, featurise in one batch, classify each."""

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
        keys: dict[int, tuple[str, str, str]] = {}
        prefilled: set[int] = set()
        if cache is not None:
            corpus_fp = ctx.index.fingerprint()
            config_fp = detect_config_fingerprint(self._features, cfg)
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
        for item in ctx.work:
            self._materialise(ctx.index, cfg, item)
        if self._trained:
            # Every candidate not served by the prefill, in one batch.
            misses = [
                item
                for item in ctx.work
                if item.contexts is not None and item.features is None
            ]
            rows = self._features.featurise(
                [
                    (item.candidate.term, item.contexts, item.doc_frequency)
                    for item in misses
                ]
            )
            for item, row in zip(misses, rows, strict=True):
                item.features = row
        for item in ctx.work:
            if item.contexts is None:
                continue
            if not self._trained:
                item.report.polysemic = False
                continue
            item.report.polysemic = bool(
                self._detector.predict_features(item.features[None, :])[0]
                == 1
            )
        if cache is not None:
            to_store: list = []
            for item in ctx.work:
                if item.contexts is None:
                    continue  # skipped before featurisation: no lookup
                hit = id(item) in prefilled
                cache.record_lookup(hit)
                if not hit:
                    to_store.append((keys[id(item)], item.features))
            if to_store:
                # One store_many → batched uploads on a remote store.
                cache.store_many(to_store)

    @staticmethod
    def _materialise(
        index: CorpusIndex, cfg: EnrichmentConfig, item: CandidateWork
    ) -> None:
        """Retrieve ``item``'s capped contexts, or mark it skipped."""
        occurrences = index.contexts_for_term(
            item.candidate.term, window=cfg.context_window
        )
        item.report.n_contexts = len(occurrences)
        if len(occurrences) < cfg.min_contexts:
            item.report.skipped_reason = (
                f"only {len(occurrences)} contexts "
                f"(< {cfg.min_contexts})"
            )
            # A cache-prefilled vector must not survive on a skipped
            # candidate: contexts is None ⇒ features is None.
            item.features = None
            return
        # Cap very frequent candidates: the per-candidate clustering
        # and graph features are superlinear in the context count.
        cap = cfg.max_contexts_per_term
        if len(occurrences) > cap:
            step = len(occurrences) / cap
            occurrences = [occurrences[int(i * step)] for i in range(cap)]
        # Document frequency over the kept occurrences (they are what the
        # feature vector sees).
        item.doc_frequency = len({c.doc_id for c in occurrences})
        item.contexts = [ctx_.tokens for ctx_ in occurrences]


class InduceStage:
    """Step III: induce each candidate's sense(s) from its contexts."""

    name = "induce"

    def __init__(self, inducer: SenseInducer) -> None:
        self._inducer = inducer

    def run(self, ctx: PipelineContext) -> None:
        for item in ctx.work:
            if item.contexts is None:
                continue
            item.report.senses = self._inducer.induce(
                item.candidate.term,
                item.contexts,
                polysemic=bool(item.report.polysemic),
            )


class LinkStage:
    """Step IV: shared-artefact build plus per-candidate propositions.

    ``context_index`` is the enricher's kept
    :class:`~repro.linkage.context.TermContextIndex`, handed to each
    run's linker so that an unchanged corpus and term list reuse the
    context space (``None`` builds a new one).
    """

    name = "link"

    def __init__(self, context_index: TermContextIndex | None = None) -> None:
        self._context_index = context_index

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
            context_index=self._context_index,
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
        # Step IV's context space, kept across runs (made by the first).
        self._context_index: TermContextIndex | None = None

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
            LinkStage(self._context_index),
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
        builds and saves it, and every later run (even in a fresh
        process) mmap-reopens it in O(1).
        """
        timings: dict[str, float] = {}
        cache_before = (
            self._feature_cache.counters()
            if self._feature_cache is not None
            else None
        )
        started = time.perf_counter()
        if index is None:
            cfg = self.config
            if cfg.index_dir is not None:
                from repro.corpus.index_store import IndexStore

                store = IndexStore(cfg.index_dir)
                index = store.load_or_build(corpus)
                # Cache the mmap handle on the corpus so repeated
                # enrich calls (and anything else asking the corpus for
                # its index) reuse the store generation; remembering the
                # store keeps post-growth rebuilds persisted too.
                corpus.adopt_index(index, store=store)
            else:
                index = corpus.index()
        timings["index"] = time.perf_counter() - started
        if self._context_index is None:
            # Each run's linker attaches it to that run's corpus.
            self._context_index = TermContextIndex(corpus)

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
