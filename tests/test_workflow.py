"""Integration tests: the assembled four-step workflow and scenarios."""

import pytest

from repro.errors import ValidationError
from repro.scenarios import make_corneal_scenario, make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.report import EnrichmentReport, TermReport


class TestScenarios:
    def test_enrichment_scenario_wiring(self):
        scenario = make_enrichment_scenario(seed=0, n_concepts=20,
                                            docs_per_concept=3)
        assert len(scenario.ontology) == 20
        assert scenario.corpus.n_documents() == 60
        # every corpus word has a gold POS tag
        for doc in list(scenario.corpus)[:5]:
            for token in doc.tokens():
                assert token in scenario.pos_lexicon

    def test_corneal_scenario_has_paper_terms(self):
        scenario = make_corneal_scenario(seed=0, docs_per_concept=3)
        assert scenario.ontology.has_term("corneal injuries")
        assert scenario.ontology.has_term("corneal trauma")

    def test_scenarios_deterministic(self):
        a = make_enrichment_scenario(seed=5, n_concepts=15, docs_per_concept=2)
        b = make_enrichment_scenario(seed=5, n_concepts=15, docs_per_concept=2)
        assert a.ontology.terms() == b.ontology.terms()
        assert [d.tokens() for d in a.corpus] == [d.tokens() for d in b.corpus]


class TestEnrichmentConfig:
    def test_defaults_valid(self):
        config = EnrichmentConfig()
        assert config.sense_index == "fk"
        assert config.top_k_positions == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_candidates": 0},
            {"min_contexts": 0},
            {"top_k_positions": 0},
            {"language": "de"},
            {"extraction_measure": "nope"},
            {"polysemy_classifier": "nope"},
            # Needs non-negative counts; the detector standardises.
            {"polysemy_classifier": "multinomial_nb"},
            {"sense_algorithm": "nope"},
            {"sense_index": "nope"},
            {"sense_representation": "nope"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EnrichmentConfig(**kwargs)


class TestOntologyEnricher:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_enrichment_scenario(
            seed=3, n_concepts=40, docs_per_concept=8,
            polysemy_histogram={2: 5, 3: 2},
        )

    @pytest.fixture(scope="class")
    def report(self, scenario):
        enricher = OntologyEnricher(
            scenario.ontology,
            config=EnrichmentConfig(n_candidates=8, min_contexts=3),
            pos_lexicon=scenario.pos_lexicon,
        )
        return enricher.enrich(scenario.corpus)

    def test_report_has_candidates(self, report):
        assert 1 <= report.n_candidates <= 8

    def test_candidates_not_already_in_ontology(self, scenario, report):
        for term_report in report.terms:
            assert not scenario.ontology.has_term(term_report.term)

    def test_completed_terms_have_all_steps(self, report):
        completed = report.completed_terms()
        assert completed, "no candidate made it through all four steps"
        for term_report in completed:
            assert term_report.polysemic is not None
            assert term_report.senses is not None
            assert term_report.n_senses >= 1
            assert term_report.propositions
            ranks = [p.rank for p in term_report.propositions]
            assert ranks == sorted(ranks)

    def test_skipped_terms_have_reasons(self, report):
        for term_report in report.terms:
            if not term_report.completed:
                assert term_report.skipped_reason

    def test_report_table_renders(self, report):
        table = report.to_table()
        assert "candidate" in table
        assert "best position" in table

    def test_monosemous_candidates_get_one_sense(self, report):
        for term_report in report.completed_terms():
            if term_report.polysemic is False:
                assert term_report.n_senses == 1

    def test_report_helpers(self):
        report = EnrichmentReport(
            terms=[
                TermReport("a", 1.0, 1, polysemic=True),
                TermReport("b", 0.5, 2, skipped_reason="too few contexts"),
            ]
        )
        assert report.n_candidates == 2
        assert len(report.polysemic_terms()) == 1
        assert len(report.completed_terms()) == 1
