"""The staged pipeline: stage wiring, determinism, and timings."""

import numpy as np
import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.errors import ValidationError
from repro.extraction.extractor import RankedTerm
from repro.ontology.model import Concept, Ontology
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import MemoryCacheStore
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import (
    CandidateWork,
    DetectStage,
    ExtractStage,
    InduceStage,
    LinkStage,
    OntologyEnricher,
    PipelineContext,
)
from repro.workflow.report import TermReport


def report_fingerprint(report):
    """Everything the report decided, as a comparable structure."""
    rows = []
    for t in report.terms:
        senses = None
        if t.senses is not None:
            senses = (
                t.senses.k,
                tuple(
                    (s.sense_id, s.top_features, s.context_indices)
                    for s in t.senses.senses
                ),
            )
        rows.append(
            (
                t.term,
                t.extraction_score,
                t.extraction_rank,
                t.n_contexts,
                t.polysemic,
                senses,
                tuple(
                    (p.rank, p.term, p.concept_ids, p.cosine)
                    for p in t.propositions
                ),
                t.skipped_reason,
            )
        )
    return tuple(rows)


@pytest.fixture(scope="module")
def scenario():
    return make_enrichment_scenario(
        seed=7, n_concepts=25, docs_per_concept=5,
        polysemy_histogram={2: 3},
    )


def enrich(scenario, **config_kwargs):
    config = EnrichmentConfig(
        n_candidates=6, min_contexts=3, **config_kwargs
    )
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )
    return enricher.enrich(scenario.corpus)


class TestStagedPipelineParity:
    def test_rerun_is_deterministic(self, scenario):
        first = enrich(scenario)
        second = enrich(scenario)
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_prebuilt_index_reuse_matches(self, scenario):
        baseline = enrich(scenario)
        index = scenario.corpus.index()
        config = EnrichmentConfig(n_candidates=6, min_contexts=3)
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        reused = enricher.enrich(scenario.corpus, index=index)
        again = enricher.enrich(scenario.corpus, index=index)
        assert report_fingerprint(baseline) == report_fingerprint(reused)
        assert report_fingerprint(baseline) == report_fingerprint(again)


class TestStageUnits:
    @pytest.fixture(scope="class")
    def enricher_and_ctx(self, scenario):
        config = EnrichmentConfig(n_candidates=6, min_contexts=3)
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        ctx = PipelineContext(
            corpus=scenario.corpus,
            ontology=scenario.ontology,
            config=config,
            index=scenario.corpus.index(),
        )
        return enricher, ctx

    def test_stage_order_and_names(self, enricher_and_ctx):
        enricher, __ = enricher_and_ctx
        stages = enricher.stages()
        assert [type(s) for s in stages] == [
            ExtractStage, DetectStage, InduceStage, LinkStage,
        ]
        assert [s.name for s in stages] == [
            "extract", "detect", "induce", "link",
        ]

    def test_extract_stage_selects_candidates(self, enricher_and_ctx):
        enricher, ctx = enricher_and_ctx
        ExtractStage(enricher._extractor).run(ctx)
        assert 1 <= len(ctx.work) <= ctx.config.n_candidates
        assert len(ctx.ranked) >= len(ctx.work)
        for item in ctx.work:
            assert not ctx.ontology.has_term(item.candidate.term)
            assert item.report in ctx.report.terms
            assert item.contexts is None  # detect not yet run

    def test_detect_stage_materialises_contexts(self, enricher_and_ctx):
        enricher, ctx = enricher_and_ctx
        DetectStage(
            enricher._detector,
            enricher._feature_extractor,
            trained=False,
            cache=enricher.feature_cache,
        ).run(ctx)
        for item in ctx.work:
            assert item.report.n_contexts >= 0
            if item.active:
                assert item.contexts
                assert len(item.contexts) >= ctx.config.min_contexts
                assert len(item.contexts) <= ctx.config.max_contexts_per_term
                assert item.report.polysemic is False  # untrained fallback
            else:
                assert "contexts" in item.report.skipped_reason

    def test_induce_stage_fills_senses(self, enricher_and_ctx):
        __, ctx = enricher_and_ctx
        InduceStage(OntologyEnricher(
            ctx.ontology, config=ctx.config,
        )._inducer).run(ctx)
        for item in ctx.work:
            if item.active:
                assert item.report.senses is not None
                assert item.report.n_senses >= 1

    def test_link_stage_fills_propositions(self, enricher_and_ctx):
        __, ctx = enricher_and_ctx
        LinkStage().run(ctx)
        for item in ctx.work:
            if item.active:
                assert item.report.propositions


class TestTimingsAndConfig:
    def test_timings_cover_every_stage(self, scenario):
        report = enrich(scenario)
        assert set(report.timings) == {
            "index", "train", "extract", "detect", "induce", "link",
        }
        for seconds in report.timings.values():
            assert seconds >= 0.0

    def test_max_contexts_per_term_caps_contexts(self, scenario):
        report = enrich(scenario, max_contexts_per_term=3)
        for t in report.terms:
            if t.senses is not None:
                covered = {
                    i for s in t.senses.senses for i in s.context_indices
                }
                assert len(covered) <= 3

    def test_doc_frequency_counted_over_kept_contexts(self, scenario):
        # Parity with the legacy loop: when the cap binds, doc_frequency
        # is computed over the stride-subsampled occurrences, not all.
        config = EnrichmentConfig(
            n_candidates=6, min_contexts=3, max_contexts_per_term=3
        )
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        ctx = PipelineContext(
            corpus=scenario.corpus,
            ontology=scenario.ontology,
            config=config,
            index=scenario.corpus.index(),
        )
        for stage in enricher.stages()[:2]:  # extract + detect
            stage.run(ctx)
        capped = [
            item for item in ctx.work
            if item.active and item.report.n_contexts > 3
        ]
        assert capped, "scenario produced no candidate above the cap"
        for item in capped:
            occurrences = ctx.index.contexts_for_term(
                item.candidate.term, window=config.context_window
            )
            step = len(occurrences) / 3
            kept = [occurrences[int(i * step)] for i in range(3)]
            assert item.doc_frequency == len({c.doc_id for c in kept})

    def test_max_contexts_below_min_rejected(self):
        with pytest.raises(ValidationError, match="max_contexts_per_term"):
            EnrichmentConfig(min_contexts=5, max_contexts_per_term=4)


class TestFeatureCacheWiring:
    def test_report_exposes_cache_counters(self, scenario):
        report = enrich(scenario)
        assert set(report.cache) == {
            "hits", "misses", "disk_hits", "evictions", "entries",
            "store_bytes", "remote_hits", "remote_errors",
        }
        assert report.cache["misses"] > 0
        assert report.cache["entries"] > 0
        # In-memory backend: nothing is ever served from (or evicted
        # off) disk or a cache service, but the resident vectors have a
        # measurable size.
        assert report.cache["disk_hits"] == 0
        assert report.cache["evictions"] == 0
        assert report.cache["remote_hits"] == 0
        assert report.cache["remote_errors"] == 0
        assert report.cache["store_bytes"] > 0

    def test_repeated_enrich_hits_and_is_identical(self, scenario):
        config = EnrichmentConfig(
            n_candidates=6, min_contexts=3
        )
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        first = enricher.enrich(scenario.corpus)
        second = enricher.enrich(scenario.corpus)
        assert second.cache["hits"] > first.cache["hits"]
        assert report_fingerprint(first) == report_fingerprint(second)


class TestTrainingFallback:
    """Step II training failures: degrade loudly on bad data only."""

    def test_successful_training_is_recorded(self, scenario):
        report = enrich(scenario)
        assert report.detector_trained is True
        assert report.warnings == []

    def test_degenerate_training_falls_back_with_warning(self):
        # No ontology term occurs in the corpus, so the Step II dataset
        # build fails with CorpusError: the workflow must survive,
        # record the fallback, and treat candidates as monosemous.
        scenario = make_enrichment_scenario(
            seed=5, n_concepts=12, docs_per_concept=3,
        )
        ontology = Ontology()
        ontology.add_concept(Concept("C1", "zzz qqq"))
        config = EnrichmentConfig(n_candidates=3, min_contexts=2)
        enricher = OntologyEnricher(
            ontology, config=config, pos_lexicon=scenario.pos_lexicon
        )
        report = enricher.enrich(scenario.corpus)
        assert report.detector_trained is False
        assert len(report.warnings) == 1
        assert "polysemy detector not trained" in report.warnings[0]
        for t in report.terms:
            assert t.polysemic in (False, None)

    def test_programming_errors_propagate(self, scenario):
        # Regression: a bare `except Exception` used to swallow even
        # TypeError from the training path.
        config = EnrichmentConfig(n_candidates=3, min_contexts=3)
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )

        def boom(corpus, *, index=None):
            raise TypeError("boom")

        enricher.train_polysemy_detector = boom
        with pytest.raises(TypeError, match="boom"):
            enricher.enrich(scenario.corpus)


class _StubExtractor:
    """Deterministic ranking of ``n_total`` synthetic terms; records the
    ``top_k`` of every call."""

    def __init__(self, n_total: int = 30) -> None:
        self.n_total = n_total
        self.requests: list[int | None] = []

    def extract(self, corpus, *, top_k=None, index=None):
        self.requests.append(top_k)
        count = self.n_total if top_k is None else min(top_k, self.n_total)
        return [
            RankedTerm(
                term=f"term {i}",
                tokens=("term", str(i)),
                score=float(self.n_total - i),
                frequency=1,
                rank=i + 1,
            )
            for i in range(count)
        ]


class _StubOntology:
    def __init__(self, known) -> None:
        self._known = set(known)

    def has_term(self, term: str) -> bool:
        return term in self._known


class TestExtractBatchFilling:
    """Regression: a fixed 3x over-fetch under-filled the batch when
    skip_known_terms filtered more than 2/3 of the ranking."""

    def make_ctx(self, known_count: int, n_candidates: int = 5):
        known = {f"term {i}" for i in range(known_count)}
        config = EnrichmentConfig(n_candidates=n_candidates, min_contexts=1)
        ctx = PipelineContext(
            corpus=None,
            ontology=_StubOntology(known),
            config=config,
            index=None,
        )
        return _StubExtractor(n_total=30), ctx

    def test_heavy_filtering_still_fills_the_batch(self):
        # 14 of the top 15 (the old 3x5 window) are known terms: the old
        # code selected a single candidate and stopped.
        extractor, ctx = self.make_ctx(known_count=14)
        ExtractStage(extractor).run(ctx)
        assert [item.candidate.term for item in ctx.work] == [
            f"term {i}" for i in range(14, 19)
        ]
        # The 3x window ran out, so the stage asked for twice as many.
        assert extractor.requests == [15, 30]

    def test_exhausted_candidates_stop_cleanly(self):
        extractor, ctx = self.make_ctx(known_count=28)  # only 2 unknown
        ExtractStage(extractor).run(ctx)
        assert [item.candidate.term for item in ctx.work] == [
            "term 28", "term 29",
        ]

    def test_overfetch_window_preserved_when_batch_fills_early(self):
        extractor, ctx = self.make_ctx(known_count=0)
        ExtractStage(extractor).run(ctx)
        assert len(ctx.work) == 5
        assert len(ctx.ranked) == 15  # the historical 3x window

    def test_batch_that_fills_early_asks_only_for_the_window(self):
        extractor, ctx = self.make_ctx(known_count=3)
        ExtractStage(extractor).run(ctx)
        assert [item.candidate.term for item in ctx.work] == [
            f"term {i}" for i in range(3, 8)
        ]
        assert extractor.requests == [15]

    def test_ranked_covers_the_consumed_prefix_when_filtering_deep(self):
        extractor, ctx = self.make_ctx(known_count=14)
        ExtractStage(extractor).run(ctx)
        assert len(ctx.ranked) == 19  # every candidate scanned


class TestSkippedCandidateFeatureInvariant:
    def test_cache_prefilled_features_cleared_on_skip(self):
        # Regression: a cache-prefilled vector used to survive on work
        # items skipped during materialisation, violating the invariant
        # contexts is None => features is None.  The stage looks keys
        # up only for candidates it kept, so a store that holds a
        # vector under every key must leave a skipped one empty.
        class HoldsEveryKey(MemoryCacheStore):
            def get(self, key):
                return np.zeros(3)

        corpus = Corpus([Document("d", [["rare", "pair", "x", "y"]])])
        index = corpus.index()
        config = EnrichmentConfig(n_candidates=1, min_contexts=4)
        enricher = OntologyEnricher(Ontology(), config=config)
        cache = FeatureCache(HoldsEveryKey())
        item = CandidateWork(
            candidate=RankedTerm(
                term="rare pair", tokens=("rare", "pair"),
                score=1.0, frequency=1, rank=1,
            ),
            report=TermReport(
                term="rare pair", extraction_score=1.0, extraction_rank=1
            ),
        )
        ctx = PipelineContext(
            corpus=corpus,
            ontology=Ontology(),
            config=config,
            index=index,
            work=[item],
        )
        DetectStage(
            enricher._detector,
            enricher._feature_extractor,
            trained=True,
            cache=cache,
        ).run(ctx)
        assert (cache.stats["hits"], cache.stats["misses"]) == (0, 0)
        assert item.report.skipped_reason is not None
        assert item.contexts is None
        assert item.features is None
