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
:class:`~repro.polysemy.cache.FeatureCache` keyed by (context digest,
term, spec digest): a vector's key is derived from what the featuriser
reads, so repeated training runs, repeated ``enrich`` calls and runs on
a grown corpus featurise only terms whose windows are new; hit/miss
counters surface in :attr:`EnrichmentReport.cache`.  With
``EnrichmentConfig(cache_dir=...)`` the cache is backed by a persistent
:class:`~repro.polysemy.cache_store.DiskCacheStore` shared across runs
and processes: :class:`DetectStage` looks its candidates up in the store
in one bulk lookup and writes every *new* vector back in one bulk store.
``EnrichmentConfig(cache_url=...)`` swaps the disk store for a
:class:`~repro.service.client.RemoteCacheStore` talking to a
``repro serve`` process, so the very same warm-vector sharing works
across machines — with every network failure degrading to a cache miss
(``remote_errors`` in :attr:`EnrichmentReport.cache`), never an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.corpus.corpus import Corpus, TermContext
from repro.corpus.index import CorpusIndex, KeptOccurrenceRecords, KeptTermContexts
from repro.errors import CorpusError, LinkageError, ValidationError
from repro.extraction.extractor import BioTexExtractor, RankedTerm
from repro.linkage.context import TermContextIndex
from repro.linkage.linker import SemanticLinker
from repro.linkage.neighborhood import TermNeighborhoods
from repro.ontology.model import Ontology
from repro.polysemy.cache import FeatureCache, context_digest
from repro.polysemy.cache_store import DiskCacheStore
from repro.service.client import RemoteCacheStore
from repro.polysemy.dataset import PolysemyDataset, build_polysemy_dataset
from repro.polysemy.detector import PolysemyDetector
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.senses.induction import SenseInducer, SenseInductionResult
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
    context_digest:
        The :func:`~repro.polysemy.cache.context_digest` of ``contexts``
        and ``doc_frequency`` (keys Steps II and III).
    features:
        The Step II feature vector (looked up in the
        :class:`~repro.polysemy.cache.FeatureCache` under its contexts'
        key, computed by :class:`DetectStage` on a miss; ``None`` when
        Step II never featurised the candidate).
    """

    candidate: RankedTerm
    report: TermReport
    contexts: list[tuple[str, ...]] | None = None
    doc_frequency: int = 0
    context_digest: str | None = None
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


class DetectStage:
    """Step II: materialise contexts, featurise in one batch, classify each.

    The stage keeps its candidates' contexts along the corpus
    fingerprint chain (:class:`~repro.corpus.index.KeptTermContexts`),
    with the capped windows, document frequency and context digest
    derived from them, so a run on an unchanged corpus reads and hashes
    no window, and a grown corpus is read only through its new
    documents.  A run under another window or cap starts over.  An
    enricher keeps one stage across its runs.
    """

    name = "detect"

    def __init__(
        self,
        detector: PolysemyDetector,
        feature_extractor: PolysemyFeatureExtractor,
        *,
        trained: bool,
        cache: FeatureCache,
    ) -> None:
        self._detector = detector
        self._features = feature_extractor
        self.trained = trained
        self._cache = cache
        self._kept = KeptTermContexts()
        self._cap: int | None = None

    def run(self, ctx: PipelineContext) -> None:
        self._materialise(ctx)
        active = [item for item in ctx.work if item.contexts is not None]
        if not self.trained:
            for item in active:
                item.report.polysemic = False
            return
        if not active:
            return
        self._featurise(active)
        # One batch of verdicts: every classifier labels each row on its
        # own, so the batch equals per-row prediction.
        labels = self._detector.predict_features(
            np.vstack([item.features for item in active])
        )
        for item, label in zip(active, labels, strict=True):
            item.report.polysemic = bool(label == 1)

    def _featurise(self, active: list[CandidateWork]) -> None:
        """Fill each candidate's vector: from the cache, else one batch.

        Keys are looked up after materialisation, so a skipped
        candidate is never looked up.  One ``lookup_many`` and one
        ``store_many``, so a remote store answers in O(batches) HTTP
        round trips rather than one per candidate.
        """
        spec = self._features.spec_digest
        keys = [
            FeatureCache.key(item.context_digest, item.candidate.term, spec)
            for item in active
        ]
        found = self._cache.lookup_many(keys)
        for item, key in zip(active, keys, strict=True):
            item.features = found.get(key)
        misses = [i for i, item in enumerate(active) if item.features is None]
        rows = self._features.featurise(
            [
                (
                    active[i].candidate.term,
                    active[i].contexts,
                    active[i].doc_frequency,
                )
                for i in misses
            ]
        )
        for i, row in zip(misses, rows, strict=True):
            active[i].features = row
        if misses:
            self._cache.store_many([(keys[i], active[i].features) for i in misses])

    def _materialise(self, ctx: PipelineContext) -> None:
        """Give each candidate its capped contexts, or mark it skipped."""
        cfg = ctx.config
        cap = cfg.max_contexts_per_term
        if (self._kept.window, self._cap) != (cfg.context_window, cap):
            self._kept = KeptTermContexts(window=cfg.context_window)
            self._cap = cap
        kept = self._kept
        kept.update(ctx.corpus, ctx.index, [item.candidate.term for item in ctx.work])
        for item in ctx.work:
            term = item.candidate.term
            occurrences = kept.contexts[term]
            item.report.n_contexts = len(occurrences)
            if len(occurrences) < cfg.min_contexts:
                item.report.skipped_reason = (
                    f"only {len(occurrences)} contexts "
                    f"(< {cfg.min_contexts})"
                )
                continue
            capped = kept.memo.get(term)
            if capped is None:
                capped = kept.memo[term] = _capped(occurrences, cap)
            item.contexts, item.doc_frequency, item.context_digest = capped


def _capped(
    occurrences: list[TermContext], cap: int
) -> tuple[list[tuple[str, ...]], int, str]:
    """A candidate's windows under ``cap``, their document frequency and digest."""
    # Cap very frequent candidates: the per-candidate clustering and
    # graph features are superlinear in the context count.
    if len(occurrences) > cap:
        step = len(occurrences) / cap
        occurrences = [occurrences[int(i * step)] for i in range(cap)]
    # Document frequency over the kept occurrences (they are what the
    # feature vector sees).
    doc_frequency = len({c.doc_id for c in occurrences})
    contexts = [c.tokens for c in occurrences]
    return contexts, doc_frequency, context_digest(contexts, doc_frequency)


def _same_dataset(a: PolysemyDataset, b: PolysemyDataset | None) -> bool:
    """Whether two training sets are byte-identical (terms included)."""
    return (
        b is not None
        and a.terms == b.terms
        and a.X.shape == b.X.shape
        and a.X.dtype == b.X.dtype
        and a.X.tobytes() == b.X.tobytes()
        and a.y.dtype == b.y.dtype
        and a.y.tobytes() == b.y.tobytes()
    )


#: A Step III memo key: (term, Step II verdict, the contexts' digest).
SenseKey = tuple[str, bool, str]


class InduceStage:
    """Step III: induce each candidate's sense(s) from its contexts.

    ``memo`` is the enricher's Step III memo.  Induction is a pure
    function of (term, contexts, verdict) under the inducer's fixed
    settings (its RNG is re-seeded on every call), so a candidate whose
    key the memo holds reuses that result; the key names the contexts
    by the digest Step II keys its vectors with.  After the run the
    memo holds exactly this run's keys, so it never outgrows one batch.
    """

    name = "induce"

    def __init__(
        self,
        inducer: SenseInducer,
        memo: dict[SenseKey, SenseInductionResult] | None = None,
    ) -> None:
        self._inducer = inducer
        self._memo = memo if memo is not None else {}

    def run(self, ctx: PipelineContext) -> None:
        used: dict[SenseKey, SenseInductionResult] = {}
        for item in ctx.work:
            if item.contexts is None:
                continue
            polysemic = bool(item.report.polysemic)
            key = (item.candidate.term, polysemic, item.context_digest)
            senses = self._memo.get(key)
            if senses is None:
                senses = self._inducer.induce(
                    item.candidate.term, item.contexts, polysemic=polysemic
                )
            used[key] = senses
            item.report.senses = senses
        self._memo.clear()
        self._memo.update(used)


class LinkStage:
    """Step IV: shared-artefact build plus per-candidate propositions.

    The stage keeps the
    :class:`~repro.linkage.context.TermContextIndex` and
    :class:`~repro.linkage.neighborhood.TermNeighborhoods` built by the
    first run that links a candidate, and hands them to each later
    run's linker, so that an unchanged corpus and term list reuse the
    context space, and a grown corpus the merged documents.  An
    enricher keeps one stage across its runs.
    """

    name = "link"

    def __init__(self) -> None:
        self.context_index: TermContextIndex | None = None
        self.neighborhoods: TermNeighborhoods | None = None

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
            context_index=self.context_index,
            neighborhoods=self.neighborhoods,
        )
        for item in ctx.work:
            if item.contexts is None:
                continue
            try:
                item.report.propositions = linker.propose(item.candidate.term)
            except LinkageError as exc:
                item.report.skipped_reason = f"linkage failed: {exc}"
        self.context_index = linker.context_index
        self.neighborhoods = linker.neighborhoods


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
    cache_store:
        Optional open :class:`~repro.polysemy.cache_store.DiskCacheStore`
        to back the feature cache with, in place of a new handle on
        ``config.cache_dir``: a process running many enrichers over one
        store (the service) shares one handle, so no enricher re-reads
        what another wrote.  Its directory and size cap must be the
        config's ``cache_dir`` and ``cache_max_bytes``.

    An enricher keeps state across :meth:`enrich` calls: the fitted
    detector (with the corpus fingerprint it was fitted on, so a changed
    corpus retrains), the Step III memo, and the Step IV context space
    and merged documents.
    Each is reused only while its inputs are unchanged, so a reused
    enricher reports exactly what a fresh one would.

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
        cache_store: DiskCacheStore | None = None,
    ) -> None:
        from repro.lexicon import BioLexicon

        self.ontology = ontology
        self.config = config if config is not None else EnrichmentConfig()
        cfg = self.config
        if cache_store is not None and (
            cfg.cache_dir is None
            or Path(cfg.cache_dir) != Path(cache_store.cache_dir)
            or cfg.cache_max_bytes != cache_store.max_bytes
        ):
            raise ValidationError(
                f"cache_store at {cache_store.cache_dir} "
                f"(max_bytes={cache_store.max_bytes}) does not match "
                f"cache_dir={cfg.cache_dir!r} "
                f"(cache_max_bytes={cfg.cache_max_bytes})"
            )
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
        if cfg.cache_url is not None:
            store = RemoteCacheStore(cfg.cache_url, timeout=cfg.cache_timeout)
        elif cache_store is not None:
            store = cache_store
        elif cfg.cache_dir is not None:
            store = DiskCacheStore(cfg.cache_dir, max_bytes=cfg.cache_max_bytes)
        else:
            store = None
        self._cache = FeatureCache(store=store)
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
        # The corpus fingerprint the detector was fitted on (None while
        # untrained): a run on any other corpus retrains first.
        self._trained_on: str | None = None
        # The ontology terms' occurrence records, kept along the corpus
        # fingerprint chain, and the training set of the last fit.
        self._training_records = KeptOccurrenceRecords(
            window=self._feature_extractor.window
        )
        self._fitted_on: PolysemyDataset | None = None
        self._senses: dict[SenseKey, SenseInductionResult] = {}
        # The stages, kept across runs: Step II's keeps its candidates'
        # contexts, and Step IV's the context space and neighbourhoods
        # (made by the first run that links).
        self._extract = ExtractStage(self._extractor)
        self._detect = DetectStage(
            self._detector,
            self._feature_extractor,
            trained=False,
            cache=self._cache,
        )
        self._induce = InduceStage(self._inducer, self._senses)
        self._link = LinkStage()
        self._index_dir = None if cfg.index_dir is None else Path(cfg.index_dir)

    # -- introspection (the streaming delta path builds on these) ----------

    @property
    def feature_cache(self) -> FeatureCache:
        """The Step II feature cache (in memory unless the config names a store)."""
        return self._cache

    @property
    def feature_extractor(self) -> PolysemyFeatureExtractor:
        """The Step II feature extractor (its spec digest keys the cache)."""
        return self._feature_extractor

    @property
    def detector_trained(self) -> bool:
        """Whether Step II currently holds a fitted classifier."""
        return self._trained_on is not None

    # -- step II training -------------------------------------------------

    def train_polysemy_detector(
        self, corpus: Corpus, *, index: CorpusIndex | None = None
    ) -> None:
        """Fit Step II on labelled terms of the ontology found in ``corpus``.

        :meth:`enrich` calls this whenever the corpus fingerprint differs
        from the one the detector was last fitted on: the detector trains
        on the corpus, so a grown corpus must retrain for its report to
        equal a fresh enricher's.  The ontology terms' occurrence records
        are kept along the corpus fingerprint chain, so a grown corpus
        reads only its new documents, and the training vectors come warm
        from the feature cache.  When the training set is byte-identical
        to the last fitted one, the seeded fit would be too, so it is
        skipped.
        """
        if index is None:
            index = corpus.index()
        self._trained_on = None
        dataset = build_polysemy_dataset(
            self.ontology,
            corpus,
            extractor=self._feature_extractor,
            min_contexts=self.config.min_contexts,
            seed=self.config.seed,
            index=index,
            cache=self._cache,
            records=self._training_records,
        )
        if not _same_dataset(dataset, self._fitted_on):
            self._fitted_on = None
            self._detector.fit(dataset)
            self._fitted_on = dataset
        self._trained_on = index.fingerprint()

    # -- the staged workflow --------------------------------------------------

    def stages(self) -> list:
        """The pipeline's stages, in execution order.

        Exposed so callers can run or instrument stages individually;
        :meth:`enrich` composes exactly this list.  The enricher keeps
        the stage objects (and what they keep) across runs.
        """
        self._detect.trained = self.detector_trained
        return [self._extract, self._detect, self._induce, self._link]

    def enrich(
        self, corpus: Corpus, *, index: CorpusIndex | None = None
    ) -> EnrichmentReport:
        """Run Steps I–IV over ``corpus`` and report per-candidate results.

        Pass a prebuilt ``index`` to amortise the corpus index across
        repeated ``enrich`` calls on the same corpus (it is also cached
        on the corpus itself, so the second call is cheap either way).
        The feature cache also persists on the enricher, so repeated
        calls skip Step II featurisation for unchanged corpora; with
        ``cache_dir`` set it persists on disk, so even a fresh enricher
        in a fresh process starts warm.

        With ``EnrichmentConfig(index_dir=...)`` the corpus index
        itself persists in an
        :class:`~repro.corpus.index_store.IndexStore`: the first run
        builds and saves it, and every later run (even in a fresh
        process) mmap-reopens it in O(1).  A corpus that already
        remembers that store keeps its adopted index, which
        :meth:`~repro.corpus.corpus.Corpus.add` grows in memory: a
        grown corpus is neither fingerprinted again nor written to
        the store.
        """
        timings: dict[str, float] = {}
        cache_before = self._cache.counters()
        started = time.perf_counter()
        if index is None:
            index_dir = self._index_dir
            remembered = corpus.index_store
            if index_dir is None or (
                remembered is not None and remembered.directory == index_dir
            ):
                index = corpus.index()
            else:
                from repro.corpus.index_store import IndexStore

                store = IndexStore(index_dir)
                index = store.load_or_build(corpus)
                # Cache the opened index on the corpus so repeated
                # enrich calls (and anything else asking the corpus for
                # its index) reuse it, grown along with the corpus.
                corpus.adopt_index(index, store=store)
        timings["index"] = time.perf_counter() - started

        # Step II needs a trained classifier; label source is the ontology.
        train_started = time.perf_counter()
        train_warning: str | None = None
        if self._trained_on != index.fingerprint():
            try:
                self.train_polysemy_detector(corpus, index=index)
            except CorpusError as exc:
                # Degenerate corpora (no labelled terms of both classes
                # with enough contexts) fall back to treating every
                # candidate as monosemous; programming errors propagate.
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
        ctx.report.detector_trained = self.detector_trained
        if train_warning is not None:
            ctx.report.warnings.append(train_warning)
        for stage in self.stages():
            stage_started = time.perf_counter()
            stage.run(ctx)
            timings[stage.name] = time.perf_counter() - stage_started
        ctx.report.timings = timings
        # Hits/misses/disk_hits/evictions are this call's delta (the
        # cache itself is cumulative across the enricher's lifetime);
        # entries and store_bytes are the absolute state of the backing
        # store after the call.
        after = self._cache.stats
        ctx.report.cache = {
            "hits": after["hits"] - cache_before["hits"],
            "misses": after["misses"] - cache_before["misses"],
            "disk_hits": after["disk_hits"] - cache_before["disk_hits"],
            "evictions": after["evictions"] - cache_before["evictions"],
            "remote_hits": after["remote_hits"] - cache_before["remote_hits"],
            "remote_errors": (
                after["remote_errors"] - cache_before["remote_errors"]
            ),
            "entries": after["entries"],
            "store_bytes": after["store_bytes"],
        }
        return ctx.report
