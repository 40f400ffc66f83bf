"""Edge cases and failure injection across modules."""

import json

import numpy as np
import pytest

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterStats
from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.errors import LinkageError, OntologyError
from repro.linkage.linker import SemanticLinker
from repro.ontology.io import ontology_from_json
from repro.ontology.model import Concept, Ontology
from repro.senses.predictor import SenseCountPredictor


class TestCorruptedOntologyPayloads:
    def test_missing_concept_fields(self):
        payload = {"format_version": 1, "concepts": [{"id": "A"}]}
        with pytest.raises(KeyError):
            ontology_from_json(payload)

    def test_dangling_father_rejected(self):
        payload = {
            "format_version": 1,
            "concepts": [
                {"id": "A", "preferred_term": "a term", "fathers": ["GHOST"]}
            ],
        }
        with pytest.raises(OntologyError):
            ontology_from_json(payload)

    def test_cyclic_payload_rejected(self):
        payload = {
            "format_version": 1,
            "concepts": [
                {"id": "A", "preferred_term": "a", "fathers": ["B"]},
                {"id": "B", "preferred_term": "b", "fathers": ["A"]},
            ],
        }
        with pytest.raises(OntologyError, match="cycle"):
            ontology_from_json(payload)

    def test_duplicate_ids_rejected(self):
        payload = {
            "format_version": 1,
            "concepts": [
                {"id": "A", "preferred_term": "a"},
                {"id": "A", "preferred_term": "again"},
            ],
        }
        with pytest.raises(OntologyError, match="duplicate"):
            ontology_from_json(payload)


class TestDegenerateCorpora:
    def test_empty_document_tokens(self):
        doc = Document("d", [])
        assert doc.tokens() == []
        assert doc.n_tokens() == 0

    def test_corpus_of_empty_documents(self):
        corpus = Corpus([Document("d1", []), Document("d2", [])])
        assert corpus.n_tokens() == 0
        assert corpus.index().contexts_for_term("anything") == []

    def test_single_token_documents(self):
        corpus = Corpus([Document(f"d{i}", [["solo"]]) for i in range(3)])
        contexts = corpus.index().contexts_for_term("solo", window=5)
        assert len(contexts) == 3
        assert all(ctx.tokens == () for ctx in contexts)


class TestLinkerDegenerate:
    def make_tiny(self):
        onto = Ontology("tiny")
        onto.add_concept(Concept("A", "alpha term"))
        onto.add_concept(Concept("B", "beta term"), fathers=["A"])
        corpus = Corpus(
            [
                Document("d1", [["alpha", "term", "near", "beta", "term"]]),
                Document("d2", [["beta", "term", "alone", "here"]]),
            ]
        )
        return onto, corpus

    def test_linker_on_tiny_scenario(self):
        onto, corpus = self.make_tiny()
        linker = SemanticLinker(onto, corpus, top_k=5)
        propositions = linker.propose("beta term")
        assert propositions
        assert propositions[0].term == "alpha term"

    def test_candidate_without_context_raises(self):
        onto, corpus = self.make_tiny()
        linker = SemanticLinker(onto, corpus)
        with pytest.raises(LinkageError, match="no context"):
            linker.propose("missing term")

    @staticmethod
    def count_prepares(linker, monkeypatch):
        calls = []
        prepare = linker.prepare

        def counting_prepare():
            calls.append(1)
            return prepare()

        monkeypatch.setattr(linker, "prepare", counting_prepare)
        return calls

    def test_prepare_is_idempotent(self, monkeypatch):
        onto, corpus = self.make_tiny()
        linker = SemanticLinker(onto, corpus)
        linker.prepare()
        calls = self.count_prepares(linker, monkeypatch)
        linker.propose("beta term")
        linker.positions_for("alpha term")
        assert calls == []  # no rebuild for known terms

    def test_unanticipated_candidate_triggers_one_rebuild(self, monkeypatch):
        onto, corpus = self.make_tiny()
        corpus.add(Document("d3", [["novel", "thing", "near", "alpha", "term"]]))
        linker = SemanticLinker(onto, corpus)
        linker.prepare()
        calls = self.count_prepares(linker, monkeypatch)
        propositions = linker.propose("novel thing")
        assert calls == [1]
        assert propositions
        linker.propose("novel thing")  # now a known extra term
        assert calls == [1]


class TestClusteringDegenerate:
    def test_kmeans_single_point(self):
        solution = spherical_kmeans(np.array([[1.0, 0.0]]), 1, seed=0)
        assert solution.k == 1

    def test_stats_single_object(self):
        stats = ClusterStats.from_labels(
            np.array([[1.0, 0.0]]), np.array([0])
        )
        assert stats.k == 1
        assert stats.isim[0] == pytest.approx(1.0)
        assert stats.esim[0] == 0.0

    def test_kmeans_more_clusters_than_distinct_points(self):
        matrix = np.tile([1.0, 0.0], (5, 1))
        solution = spherical_kmeans(matrix, 3, seed=0)
        assert solution.k == 3
        assert len(set(solution.labels.tolist())) == 3


class TestPredictorTieBreaks:
    def test_equal_values_within_float_noise(self):
        predictor = SenseCountPredictor(index="ak", seed=0)
        # identical vectors: every clustering has ISIM ~1.0 for all k
        contexts = [("same", "words", "here")] * 8
        prediction = predictor.predict(contexts)
        values = set(round(v, 6) for v in prediction.index_values.values())
        assert values == {1.0}
        # the chosen k is an arg-optimum of the raw values
        raw = prediction.index_values
        assert raw[prediction.k] == max(raw.values())

    def test_min_direction_consistent(self):
        predictor = SenseCountPredictor(index="bk", seed=0)
        contexts = [("same", "words", "here")] * 8
        prediction = predictor.predict(contexts)
        raw = prediction.index_values
        assert raw[prediction.k] == min(raw.values())
