"""Tests for repro.linkage (context index, neighbourhood, linker, evaluation)."""

import numpy as np
import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.pubmed import PubMedSimulator, PubMedSpec
from repro.errors import LinkageError
from repro.lexicon import BioLexicon
from repro.linkage.context import TermContextIndex, find_occurrences
from repro.linkage.evaluation import evaluate_linkage, gold_positions
from repro.linkage.linker import SemanticLinker
from repro.linkage.neighborhood import candidate_positions
from repro.ontology.mesh import make_eye_fragment
from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.ontology.snapshot import HeldOutTerm, held_out_terms

from graph_oracles import build_term_graph, mesh_neighborhood


def simple_corpus():
    return Corpus(
        [
            Document("d1", [["corneal", "injuries", "and", "corneal", "injury",
                             "need", "treatment"]]),
            Document("d2", [["corneal", "injuries", "near", "eye", "injuries",
                             "were", "seen"]]),
            Document("d3", [["unrelated", "text", "about", "amniotic",
                             "membrane", "grafts"]]),
        ]
    )


class TestFindOccurrences:
    def test_single_pass_finds_all_terms(self):
        corpus = simple_corpus()
        occurrences = find_occurrences(
            corpus, ["corneal injuries", "eye injuries", "membrane"], window=3
        )
        assert len(occurrences["corneal injuries"]) == 2
        assert len(occurrences["eye injuries"]) == 1
        assert len(occurrences["membrane"]) == 1

    def test_longest_match_priority(self):
        corpus = Corpus([Document("d", [["corneal", "injury", "report"]])])
        occurrences = find_occurrences(
            corpus, ["corneal injury", "corneal"], window=2
        )
        assert len(occurrences["corneal injury"]) == 1
        # the shorter term does not also fire at the same start position
        assert len(occurrences["corneal"]) == 0

    def test_window_excludes_occurrence_tokens(self):
        corpus = Corpus([Document("d", [["left", "corneal", "injury", "right"]])])
        occurrences = find_occurrences(corpus, ["corneal injury"], window=2)
        assert occurrences["corneal injury"] == [("left", "right")]

    def test_unseen_term_empty(self):
        occurrences = find_occurrences(simple_corpus(), ["ghost term"])
        assert occurrences["ghost term"] == []


class TestTermContextIndex:
    def test_build_and_cosine(self):
        index = TermContextIndex(simple_corpus(), window=5)
        index.build(["corneal injuries", "corneal injury", "amniotic membrane"])
        same = index.cosine("corneal injuries", "corneal injury")
        other = index.cosine("corneal injuries", "amniotic membrane")
        assert same > other

    def test_vector_unit_norm(self):
        index = TermContextIndex(simple_corpus(), window=5)
        index.build(["corneal injuries"])
        assert np.linalg.norm(index.vector("corneal injuries")) == pytest.approx(1.0)

    def test_unbuilt_raises(self):
        index = TermContextIndex(simple_corpus())
        with pytest.raises(LinkageError):
            index.vector("anything")

    def test_unknown_term_raises(self):
        index = TermContextIndex(simple_corpus()).build(["corneal injuries"])
        with pytest.raises(LinkageError):
            index.vector("never indexed")

    def test_n_contexts(self):
        index = TermContextIndex(simple_corpus(), window=3)
        index.build(["corneal injuries", "ghost"])
        assert index.n_contexts("corneal injuries") == 2
        assert index.n_contexts("ghost") == 0


def eye_scenario(seed=0, docs_per_concept=14):
    onto = make_eye_fragment()
    lexicon = BioLexicon(seed=seed)
    sim = PubMedSimulator(
        onto,
        lexicon,
        spec=PubMedSpec(
            mention_prob=0.85, related_mention_prob=0.35, noise_mention_prob=0.05
        ),
        seed=seed,
    )
    corpus = sim.generate_balanced(docs_per_concept)
    return onto, corpus


class TestNeighborhood:
    def test_term_graph_contains_cooccurring_terms(self):
        onto, corpus = eye_scenario()
        graph = build_term_graph(corpus, onto, "corneal injuries")
        assert "corneal injuries" in graph
        assert len(graph["corneal injuries"]) > 0

    def test_neighborhood_contains_related_terms(self):
        onto, corpus = eye_scenario()
        graph = build_term_graph(corpus, onto, "corneal injuries")
        positions = mesh_neighborhood(graph, onto, "corneal injuries")
        assert positions
        assert "corneal injuries" not in positions
        joined = " ".join(positions)
        assert "corneal" in joined  # synonyms/fathers present

    def test_expansion_adds_hierarchy_terms(self):
        onto, corpus = eye_scenario()
        graph = build_term_graph(corpus, onto, "corneal injuries")
        bare = mesh_neighborhood(graph, onto, "corneal injuries",
                                 expand_hierarchy=False)
        expanded = mesh_neighborhood(graph, onto, "corneal injuries",
                                     expand_hierarchy=True)
        assert set(bare) <= set(expanded)
        assert len(expanded) >= len(bare)

    def test_unseen_candidate_falls_back_to_all(self):
        onto, corpus = eye_scenario()
        positions = candidate_positions(corpus, onto, "zzz unseen zzz")
        assert set(positions) == set(onto.terms())

    def test_unseen_candidate_without_fallback_raises(self):
        onto, corpus = eye_scenario()
        with pytest.raises(LinkageError):
            candidate_positions(
                corpus, onto, "zzz unseen zzz", fallback_to_all=False
            )


class TestSemanticLinker:
    def test_corneal_injuries_table3_shape(self):
        onto, corpus = eye_scenario(seed=1)
        linker = SemanticLinker(onto, corpus, top_k=10)
        propositions = linker.propose("corneal injuries")
        assert 1 <= len(propositions) <= 10
        assert [p.rank for p in propositions] == list(range(1, len(propositions) + 1))
        cosines = [p.cosine for p in propositions]
        assert cosines == sorted(cosines, reverse=True)
        assert all(0.0 <= c <= 1.0 for c in cosines)
        # the paper finds 5/10 correct: synonyms + fathers must show up
        gold = gold_positions(onto, "D065306", "corneal injuries")
        hits = [p.term for p in propositions if p.term in gold]
        assert hits, f"no gold positions among {[p.term for p in propositions]}"

    def test_synonym_ranks_above_unrelated(self):
        onto, corpus = eye_scenario(seed=2)
        propositions = SemanticLinker(onto, corpus, top_k=20).propose(
            "corneal injuries"
        )
        ranks = {p.term: p.rank for p in propositions}
        synonym_ranks = [
            ranks[t] for t in ("corneal injury", "corneal damage", "corneal trauma")
            if t in ranks
        ]
        assert synonym_ranks, "no synonym proposed at all"
        assert min(synonym_ranks) <= 5

    def test_candidate_itself_never_proposed(self):
        onto, corpus = eye_scenario(seed=3)
        propositions = SemanticLinker(onto, corpus).propose("corneal injuries")
        assert all(p.term != "corneal injuries" for p in propositions)

    def test_no_context_candidate_raises(self):
        onto, corpus = eye_scenario(seed=4)
        with pytest.raises(LinkageError):
            SemanticLinker(onto, corpus).propose("phantom term here")

    def test_bad_top_k(self):
        onto, corpus = eye_scenario(seed=5)
        with pytest.raises(LinkageError):
            SemanticLinker(onto, corpus, top_k=0)

    def test_proposition_concept_ids_resolve(self):
        onto, corpus = eye_scenario(seed=6)
        propositions = SemanticLinker(onto, corpus).propose("corneal injuries")
        for p in propositions:
            assert p.concept_ids
            for cid in p.concept_ids:
                assert cid in onto


class TestEvaluation:
    def test_gold_positions_of_corneal_injuries(self):
        onto = make_eye_fragment()
        gold = gold_positions(onto, "D065306", "corneal injuries")
        for expected in ("corneal injury", "corneal damage", "corneal trauma",
                         "corneal diseases", "eye injuries"):
            assert expected in gold
        assert "corneal injuries" not in gold

    def test_evaluate_linkage_on_generated_scenario(self):
        lexicon = BioLexicon(seed=7)
        spec = GeneratorSpec(
            n_concepts=30, n_roots=2, mean_synonyms=1.0,
            recent_fraction=0.25, year_range=(1990, 2015),
        )
        onto = OntologyGenerator(spec, lexicon=lexicon, seed=7).generate()
        sim = PubMedSimulator(
            onto, lexicon,
            spec=PubMedSpec(mention_prob=0.9, related_mention_prob=0.35),
            seed=7,
        )
        corpus = sim.generate_balanced(10)
        held = held_out_terms(onto, 2009, 2015)[:8]
        assert held, "scenario produced no held-out terms"
        linker = SemanticLinker(onto, corpus, top_k=10)
        evaluation = evaluate_linkage(linker, held)
        assert evaluation.n_terms == len(held)
        row = evaluation.as_row()
        assert set(row) == {1, 2, 5, 10}
        # precision must be monotone in k
        assert row[1] <= row[2] <= row[5] <= row[10]
        # and the pipeline must find something for most terms
        assert row[10] > 0.3

    def test_failed_linkage_counts_as_miss(self):
        onto, corpus = eye_scenario(seed=8)
        linker = SemanticLinker(onto, corpus)
        held = [HeldOutTerm(term="not in corpus at all", concept_id="D065306",
                            year_added=2014)]
        evaluation = evaluate_linkage(linker, held)
        assert evaluation.n_terms == 1
        assert evaluation.precision_at(10) == 0.0
        assert evaluation.outcomes[0].error is not None
