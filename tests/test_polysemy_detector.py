"""Tests for the polysemy dataset builder and detector (Step II end-to-end)."""

import numpy as np
import pytest

from repro.corpus.pubmed import PubMedSimulator, PubMedSpec
from repro.errors import CorpusError, NotFittedError, ValidationError
from repro.lexicon import BioLexicon
from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.polysemy.dataset import PolysemyDataset, build_polysemy_dataset
from repro.polysemy.detector import PolysemyDetector
from repro.polysemy.features import PolysemyFeatureExtractor


def make_scenario(seed=0, n_concepts=40, polysemy={2: 6, 3: 2}, docs_per_concept=4):
    lexicon = BioLexicon(seed=seed)
    spec = GeneratorSpec(
        n_concepts=n_concepts,
        n_roots=3,
        mean_synonyms=0.6,
        polysemy_histogram=dict(polysemy),
    )
    onto = OntologyGenerator(spec, lexicon=lexicon, seed=seed).generate()
    sim = PubMedSimulator(
        onto,
        lexicon,
        spec=PubMedSpec(mention_prob=0.9, related_mention_prob=0.2),
        seed=seed,
    )
    corpus = sim.generate_balanced(docs_per_concept)
    return onto, corpus


class TestDatasetBuilder:
    def test_builds_both_classes(self):
        onto, corpus = make_scenario()
        dataset = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=0)
        assert dataset.n_samples > 10
        assert 0.0 < dataset.class_balance() < 1.0
        assert dataset.X.shape[1] == 23

    def test_labels_match_ontology(self):
        onto, corpus = make_scenario(seed=1)
        dataset = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=0)
        for term, label in zip(dataset.terms, dataset.y):
            assert bool(label) == onto.is_polysemic(term)

    def test_max_monosemous_cap(self):
        onto, corpus = make_scenario(seed=2)
        dataset = build_polysemy_dataset(
            onto, corpus, min_contexts=3, max_monosemous=5, seed=0
        )
        assert int((dataset.y == 0).sum()) == 5

    def test_deterministic(self):
        onto, corpus = make_scenario(seed=3)
        a = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=7)
        b = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=7)
        assert a.terms == b.terms
        np.testing.assert_array_equal(a.X, b.X)

    def test_fails_without_polysemy(self):
        onto, corpus = make_scenario(seed=4, polysemy={})
        with pytest.raises(CorpusError):
            build_polysemy_dataset(onto, corpus, min_contexts=3)

    def test_alignment_validated(self):
        with pytest.raises(ValidationError):
            PolysemyDataset(
                X=np.zeros((2, 23)),
                y=np.zeros(3, dtype=int),
                terms=("a", "b"),
                feature_names=("f",) * 23,
            )


class TestDetector:
    def test_fit_predict_roundtrip(self):
        onto, corpus = make_scenario(seed=5)
        dataset = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=0)
        detector = PolysemyDetector("forest", seed=0).fit(dataset)
        predictions = detector.predict_features(dataset.X)
        # training accuracy should be near-perfect for a forest
        assert float((predictions == dataset.y).mean()) > 0.95

    def test_predict_before_fit_raises(self):
        detector = PolysemyDetector("logistic")
        with pytest.raises(NotFittedError):
            detector.predict_features(np.zeros((1, 23)))

    def test_is_polysemic_on_corpus_term(self):
        onto, corpus = make_scenario(seed=6)
        dataset = build_polysemy_dataset(onto, corpus, min_contexts=3, seed=0)
        detector = PolysemyDetector("forest", seed=0).fit(dataset)
        extractor = detector.extractor

        def polysemic_count(terms):
            """Terms the detector calls polysemic, from their corpus contexts."""
            items = []
            for term in terms:
                found = corpus.index().contexts_for_term(term, window=extractor.window)
                contexts = [context.tokens for context in found]
                items.append((term, contexts, len({c.doc_id for c in found})))
            return int((detector.predict_features(extractor.featurise(items)) == 1).sum())

        poly_terms = [t for t, y in zip(dataset.terms, dataset.y) if y == 1]
        mono_terms = [t for t, y in zip(dataset.terms, dataset.y) if y == 0][:20]
        poly_hits = polysemic_count(poly_terms)
        mono_hits = polysemic_count(mono_terms)
        assert poly_hits / len(poly_terms) > 0.8
        assert mono_hits / len(mono_terms) < 0.2

    def test_cross_validation_high_f1_on_entity_benchmark(self):
        """The paper's protocol: MSH-WSD-quality contexts → F ≈ 0.98."""
        from repro.corpus.mshwsd import MshWsdSimulator
        from repro.polysemy.dataset import build_entity_polysemy_dataset

        sim = MshWsdSimulator(
            n_entities=60,
            sense_distribution={1: 30, 2: 25, 3: 5},
            contexts_per_sense=24,
            contexts_mode="per_entity",
            sense_overlap=0.75,
            background_fraction=0.65,
            seed=0,
        )
        dataset = build_entity_polysemy_dataset(sim.generate())
        detector = PolysemyDetector("forest", seed=0)
        scores = detector.cross_validate_f1(dataset, n_splits=5, seed=0)
        assert scores.mean() > 0.9

    def test_cross_validation_reasonable_f1_on_corpus_scenario(self):
        """The harder realistic path: ontology + PubMed-like corpus."""
        onto, corpus = make_scenario(
            seed=7, n_concepts=60, polysemy={2: 10, 3: 3}, docs_per_concept=8
        )
        dataset = build_polysemy_dataset(onto, corpus, min_contexts=5, seed=0)
        detector = PolysemyDetector("forest", seed=0)
        n_poly = int(dataset.y.sum())
        scores = detector.cross_validate_f1(
            dataset, n_splits=min(5, n_poly), seed=0
        )
        assert scores.mean() > 0.7

    def test_classifier_instance_accepted(self):
        from repro.ml.logistic import LogisticRegression

        detector = PolysemyDetector(LogisticRegression())
        assert isinstance(detector.classifier, LogisticRegression)

    def test_custom_extractor_dimensionality(self):
        onto, corpus = make_scenario(seed=8)
        extractor = PolysemyFeatureExtractor(feature_set="direct")
        dataset = build_polysemy_dataset(
            onto, corpus, extractor=extractor, min_contexts=3, seed=0
        )
        assert dataset.X.shape[1] == 11
