"""Tests for repro.extraction (candidates, measures, extractor, evaluation)."""

import math

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.errors import ExtractionError
from repro.extraction.candidates import harvest_candidates
from repro.extraction.evaluation import (
    precision_curve,
    reference_terms_from_ontology,
)
from repro.extraction.extractor import BioTexExtractor
from repro.extraction.measures import MEASURE_NAMES, compute_measure
from repro.ontology.model import Concept, Ontology
from repro.text.postag import LexiconTagger

from test_harvest_oracle import candidate_records

LEXICON = {
    "corneal": "ADJ", "injury": "NOUN", "wound": "NOUN", "healing": "NOUN",
    "eye": "NOUN", "disease": "NOUN", "patient": "NOUN", "chronic": "ADJ",
    "heals": "VERB", "observed": "VERB", "treatment": "NOUN",
}


def make_corpus():
    return Corpus(
        [
            Document("d1", [["corneal", "injury", "heals"],
                            ["wound", "healing", "observed"]]),
            Document("d2", [["corneal", "injury", "treatment"],
                            ["chronic", "eye", "disease"]]),
            Document("d3", [["patient", "wound", "healing"]]),
        ]
    )


def make_context(min_frequency=1):
    return harvest_candidates(
        make_corpus(),
        tagger=LexiconTagger(LEXICON),
        min_frequency=min_frequency,
    )


class TestHarvestCandidates:
    def test_pattern_filtered_candidates_found(self):
        candidates = candidate_records(make_context())
        assert ("corneal", "injury") in candidates
        assert ("wound", "healing") in candidates
        # verbs break the noun-phrase patterns
        assert ("injury", "heals") not in candidates

    def test_counts(self):
        ci = candidate_records(make_context())[("corneal", "injury")]
        assert ci.frequency == 2
        assert ci.doc_frequency == 2
        assert ci.per_doc == {"d1": 1, "d2": 1}

    def test_doc_lengths_and_avg(self):
        context = make_context()
        assert context.doc_lengths["d1"] == 6
        assert context.avg_doc_length == pytest.approx((6 + 6 + 3) / 3)

    def test_min_frequency_filter(self):
        candidates = candidate_records(make_context(min_frequency=2))
        assert ("corneal", "injury") in candidates
        assert ("chronic", "eye") not in candidates

    def test_nested_in(self):
        # "injury" is nested in "corneal injury" (frequency 2), "injury
        # treatment" (1) and "corneal injury treatment" (1): the fold
        # keeps their count and frequency sum on its row.
        columns = make_context().columns()
        row = columns.tokens(range(len(columns))).index(("injury",))
        assert columns.nested_counts[row] == 3
        assert columns.nested_sums[row] == 4

    def test_empty_corpus_rejected(self):
        with pytest.raises(ExtractionError):
            harvest_candidates(Corpus())

    def test_bad_min_frequency(self):
        with pytest.raises(ExtractionError):
            harvest_candidates(make_corpus(), min_frequency=0)

    def test_pattern_weight_recorded(self):
        candidates = candidate_records(make_context())
        assert candidates[("corneal", "injury")].pattern_weight > 0


def measure_scores(name, context):
    """``{candidate tokens: score}``: the score column in row order."""
    scores = compute_measure(name, context)
    columns = context.columns()
    return dict(
        zip(columns.tokens(range(len(columns))), scores.tolist(), strict=True)
    )


class TestMeasures:
    def test_all_measures_cover_all_candidates(self):
        context = make_context()
        for name in MEASURE_NAMES:
            scores = compute_measure(name, context)
            assert scores.shape == (len(context.columns()),), name

    def test_unknown_measure(self):
        with pytest.raises(ExtractionError, match="unknown measure"):
            compute_measure("pagerank", make_context())

    def test_c_value_length_factor(self):
        context = make_context()
        scores = measure_scores("c_value", context)
        # "chronic eye disease" occurs once, length 3 → log2(4)*1 = 2
        assert scores[("chronic", "eye", "disease")] == pytest.approx(2.0)

    def test_c_value_nested_correction(self):
        context = make_context()
        scores = measure_scores("c_value", context)
        # "injury" (freq 2) is nested in "corneal injury" (2),
        # "injury treatment" (1), "corneal injury treatment" (1):
        # corrected freq = 2 - (2+1+1)/3 = 2/3 → ×log2(2) = 2/3.
        assert scores[("injury",)] == pytest.approx(2 / 3)
        # and it must score below the maximal term that contains it
        assert scores[("injury",)] < scores[("corneal", "injury")]

    def test_tf_idf_favours_rare_terms(self):
        context = make_context()
        scores = measure_scores("tf_idf", context)
        # same frequency, lower df → higher score
        assert scores[("chronic", "eye", "disease")] > 0

    def test_okapi_positive_and_finite(self):
        scores = measure_scores("okapi", make_context())
        assert all(math.isfinite(v) and v >= 0 for v in scores.values())

    def test_fusion_zero_when_either_zero(self):
        context = make_context()
        cval = measure_scores("c_value", context)
        fused = measure_scores("f_tfidf_c", context)
        for tokens, value in cval.items():
            if value <= 0:
                assert fused[tokens] == 0.0

    def test_lidf_uses_pattern_weight(self):
        context = make_context()
        scores = measure_scores("lidf_value", context)
        assert scores[("corneal", "injury")] > 0

    def test_tergraph_finite(self):
        scores = measure_scores("tergraph", make_context())
        assert all(math.isfinite(v) and v >= 0 for v in scores.values())


class TestBioTexExtractor:
    def test_extract_ranks_descending(self):
        extractor = BioTexExtractor(
            tagger=LexiconTagger(LEXICON), measure="lidf_value"
        )
        ranked = extractor.extract(make_corpus())
        scores = [t.score for t in ranked]
        assert scores == sorted(scores, reverse=True)
        assert [t.rank for t in ranked] == list(range(1, len(ranked) + 1))

    def test_min_length_filters_single_words(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON), min_length=2)
        ranked = extractor.extract(make_corpus())
        assert all(len(t.tokens) >= 2 for t in ranked)

    def test_top_k(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON))
        ranked = extractor.extract(make_corpus(), top_k=3)
        assert len(ranked) == 3

    def test_bad_top_k(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON))
        with pytest.raises(ExtractionError):
            extractor.extract(make_corpus(), top_k=0)

    def test_bad_min_frequency(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON), min_frequency=0)
        with pytest.raises(ExtractionError):
            extractor.extract(make_corpus())

    def test_measure_override(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON), measure="tf_idf")
        a = extractor.extract(make_corpus(), measure="c_value")
        assert extractor.measure == "tf_idf"  # instance unchanged
        assert a  # ran with the override

    def test_unknown_measure_rejected_at_init(self):
        with pytest.raises(ExtractionError):
            BioTexExtractor(measure="bm42")

    def test_deterministic(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON))
        a = extractor.extract(make_corpus())
        b = extractor.extract(make_corpus())
        assert [(t.term, t.score) for t in a] == [(t.term, t.score) for t in b]

    def test_context_retained(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON))
        extractor.extract(make_corpus())
        assert extractor.context_ is not None
        assert extractor.context_.n_documents == 3


class TestEvaluation:
    def make_ranked(self):
        extractor = BioTexExtractor(tagger=LexiconTagger(LEXICON), min_length=2)
        return extractor.extract(make_corpus())

    def test_reference_from_ontology(self):
        onto = Ontology("ref")
        onto.add_concept(Concept("A", "Corneal Injury", synonyms=["wound healing"]))
        reference = reference_terms_from_ontology(onto)
        assert "corneal injury" in reference
        assert "wound healing" in reference

    def test_precision_at_k(self):
        ranked = self.make_ranked()
        reference = {"corneal injury", "wound healing"}
        curve = precision_curve(ranked, reference, ks=(len(ranked), 2))
        assert 0 < curve[len(ranked)] <= 1.0
        # good measures front-load correct terms
        assert curve[2] >= curve[len(ranked)]

    def test_precision_k_beyond_list(self):
        ranked = self.make_ranked()
        assert precision_curve(ranked, {"corneal injury"}, ks=(1000,))[1000] <= 1.0

    def test_precision_empty_list(self):
        assert precision_curve([], {"x"}, ks=(5,)) == {5: 0.0}

    def test_bad_k(self):
        with pytest.raises(ExtractionError):
            precision_curve(self.make_ranked(), set(), ks=(10, 0))
        with pytest.raises(ExtractionError):
            precision_curve(self.make_ranked(), set(), ks=(-3,))

    def test_precision_curve_monotone_ks(self):
        ranked = self.make_ranked()
        curve = precision_curve(ranked, {"corneal injury"}, ks=(1, 2, 4))
        assert set(curve) == {1, 2, 4}
        assert all(0.0 <= v <= 1.0 for v in curve.values())
