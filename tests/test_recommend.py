"""Tests for the repro.recommend subsystem (trie, annotator, engine, CLI)."""

import json

import pytest

from repro.cli import main
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.errors import ValidationError
from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.ontology.io import write_ontology_json
from repro.ontology.model import Concept, Ontology
from repro.recommend import (
    CRITERIA,
    Annotator,
    LabelTrie,
    OntologyRegistry,
    RecommendConfig,
    Recommender,
    ScoringContext,
    aggregate_score,
    default_scorers,
)
from repro.recommend.scoring import (
    AcceptanceScorer,
    CoverageScorer,
    DetailScorer,
    SpecializationScorer,
)
from repro.scenarios import make_enrichment_scenario

from timing import fastest


def naive_longest_matches(labels, tokens):
    """The per-label scan with :class:`LabelTrie` semantics (the oracle).

    Scans the input once per label, O(tokens x labels), then keeps the
    longest match at each start: the answer
    :meth:`LabelTrie.longest_matches` must give.
    """
    best = {}
    n = len(tokens)
    for label in labels:
        needle = label.split()
        span = len(needle)
        if not span or span > n:
            continue
        for start in range(n - span + 1):
            if list(tokens[start : start + span]) == needle:
                incumbent = best.get(start)
                if incumbent is None or span > incumbent[0]:
                    best[start] = (span, label)
    return [(start, span, label) for start, (span, label) in sorted(best.items())]


def eye_ontology() -> Ontology:
    """A small hierarchy about eye diseases, with synonyms."""
    onto = Ontology("eye")
    onto.add_concept(Concept("E0", "disease"))
    onto.add_concept(
        Concept(
            "E1",
            "eye diseases",
            synonyms=["ocular disorders"],
            tree_numbers=["C11"],
        ),
        fathers=["E0"],
    )
    onto.add_concept(
        Concept("E2", "retinal degeneration", year_added=1999),
        fathers=["E1"],
    )
    onto.add_concept(
        Concept("E3", "macular degeneration", synonyms=["amd"]),
        fathers=["E2"],
    )
    return onto


def heart_ontology() -> Ontology:
    """A flat vocabulary about the heart — no hierarchy, no metadata."""
    onto = Ontology("heart")
    onto.add_concept(Concept("H1", "heart"))
    onto.add_concept(Concept("H2", "myocardial infarction"))
    onto.add_concept(Concept("H3", "heart attack"))
    return onto


def two_ontology_registry() -> OntologyRegistry:
    registry = OntologyRegistry()
    registry.register("eye", eye_ontology())
    registry.register("heart", heart_ontology())
    return registry


class TestLabelTrie:
    def test_longest_match_per_start(self):
        trie = LabelTrie(["heart", "heart attack", "attack rate"])
        matches = trie.longest_matches("a heart attack rate".split())
        assert matches == [(1, 2, "heart attack"), (2, 2, "attack rate")]

    def test_empty_and_missing(self):
        trie = LabelTrie(["x y"])
        assert trie.longest_matches([]) == []
        assert trie.longest_matches(["z", "z"]) == []

    def test_len_dedupes_and_max_depth(self):
        trie = LabelTrie(["a b c", "a b c", "d"])
        assert len(trie) == 2
        assert trie.max_depth == 3

    def test_parity_with_naive_on_generated_ontology(self):
        onto = OntologyGenerator(
            GeneratorSpec(n_concepts=40, polysemy_histogram={2: 3}), seed=11
        ).generate()
        labels = onto.terms()
        # A token stream that actually hits labels: label tokens + noise.
        tokens = []
        for label in labels[:20]:
            tokens.extend(label.split())
            tokens.append("noise")
        assert LabelTrie(labels).longest_matches(tokens) == (
            naive_longest_matches(labels, tokens)
        )

    def test_trie_beats_the_per_label_scan(self):
        # The annotator's cost must not grow with the label count (NCBO
        # Recommender 2.0): building a trie and walking a scenario's
        # 10,150 tokens once must stay >= 5x cheaper than scanning them
        # once per label, with only 37 labels.  ~50-70x on a 2-core Xeon
        # VM under CPython 3.11.
        scenario = make_enrichment_scenario(
            seed=17, n_concepts=20, docs_per_concept=6,
            polysemy_histogram={2: 3},
        )
        registry = OntologyRegistry()
        registry.register("full", scenario.ontology)
        labels = list(registry.get("full").labels)
        tokens = [token for doc in scenario.corpus for token in doc.tokens()]
        assert (len(labels), len(tokens)) == (37, 10_150)
        trie_matches, trie_seconds = fastest(
            lambda: LabelTrie(labels).longest_matches(tokens)
        )
        naive_matches, naive_seconds = fastest(
            lambda: naive_longest_matches(labels, tokens)
        )
        assert trie_matches == naive_matches
        assert naive_seconds >= 5 * trie_seconds, (naive_seconds, trie_seconds)


class TestAnnotator:
    def test_text_matches_and_coverage(self):
        registered = two_ontology_registry().get("eye")
        result = Annotator(registered).annotate_text(
            "Ocular disorders include macular degeneration."
        )
        assert result.n_tokens == 5  # tokenizer drops the punctuation
        by_label = {m.label: m for m in result.matches}
        assert by_label["ocular disorders"].preferred is False
        assert by_label["macular degeneration"].preferred is True
        assert by_label["macular degeneration"].concept_ids == ("E3",)
        assert result.covered_fraction() == pytest.approx(4 / 5)  # "include" missed
        assert result.concept_ids() == ("E1", "E3")

    def test_longest_match_shadows_inner_label(self):
        registered = two_ontology_registry().get("heart")
        result = Annotator(registered).annotate_text("heart attack")
        assert [m.label for m in result.matches] == ["heart attack"]
        assert result.n_matches == 1

    def test_index_annotation_agrees_with_text(self):
        registered = two_ontology_registry().get("eye")
        annotator = Annotator(registered)
        texts = [
            "retinal degeneration is an eye disease process",
            "amd denotes macular degeneration of the retina",
        ]
        index = CorpusIndex(
            Document.from_text(f"d{i}", text) for i, text in enumerate(texts)
        )
        from_index = annotator.annotate_index(index)
        joined = annotator.annotate_text(" ".join(texts))
        assert {m.label for m in from_index.matches} == {
            m.label for m in joined.matches
        }
        assert from_index.n_matches == joined.n_matches
        assert len(from_index.covered) == len(joined.covered)


class TestScorers:
    def _annotation(self, text="macular degeneration and amd"):
        registered = two_ontology_registry().get("eye")
        return Annotator(registered).annotate_text(text), registered

    def test_coverage_weighting(self):
        annotation, registered = self._annotation()
        config = RecommendConfig(multiword_factor=1.0, synonym_factor=1.0)
        score = CoverageScorer().score(
            annotation, registered, ScoringContext(config=config)
        )
        # 3 of 4 tokens matched, no multipliers.
        assert score == pytest.approx(3 / 4)
        boosted = CoverageScorer().score(
            annotation,
            registered,
            ScoringContext(config=RecommendConfig(multiword_factor=2.0)),
        )
        assert boosted > score

    def test_synonym_factor_downweights(self):
        annotation, registered = self._annotation(text="amd")
        config = RecommendConfig(synonym_factor=0.5, multiword_factor=1.0)
        score = CoverageScorer().score(
            annotation, registered, ScoringContext(config=config)
        )
        assert score == pytest.approx(0.5)

    def test_acceptance_needs_an_index(self):
        annotation, registered = self._annotation()
        context = ScoringContext(config=RecommendConfig())
        assert AcceptanceScorer().score(annotation, registered, context) == 0.0
        index = CorpusIndex(
            [
                Document.from_text("d0", "macular degeneration study"),
                Document.from_text("d1", "macular degeneration followup"),
                Document.from_text("d2", "unrelated text"),
            ]
        )
        with_index = ScoringContext(
            config=RecommendConfig(), acceptance_index=index
        )
        score = AcceptanceScorer().score(annotation, registered, with_index)
        # labels: "macular degeneration" (df 2) and "amd" (df 0), 3 docs.
        assert score == pytest.approx(2 / (2 * 3))

    def test_detail_and_specialization(self):
        annotation, registered = self._annotation()
        context = ScoringContext(config=RecommendConfig())
        assert 0 < DetailScorer().score(annotation, registered, context) <= 1
        # E3 sits at depth 3 of max depth 3.
        spec = SpecializationScorer().score(annotation, registered, context)
        assert spec == pytest.approx(1.0)

    def test_flat_ontology_specialization_is_zero(self):
        registered = two_ontology_registry().get("heart")
        annotation = Annotator(registered).annotate_text("heart attack")
        context = ScoringContext(config=RecommendConfig())
        score = SpecializationScorer().score(annotation, registered, context)
        assert score == 0.0

    def test_aggregate_normalises_by_weight_sum(self):
        scores = {name: 1.0 for name in CRITERIA}
        assert aggregate_score(scores, RecommendConfig()) == pytest.approx(1.0)
        assert aggregate_score(
            scores,
            RecommendConfig(
                coverage_weight=55,
                acceptance_weight=15,
                detail_weight=15,
                specialization_weight=15,
            ),
        ) == pytest.approx(1.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            RecommendConfig(coverage_weight=-1)
        with pytest.raises(ValidationError):
            RecommendConfig(
                coverage_weight=0,
                acceptance_weight=0,
                detail_weight=0,
                specialization_weight=0,
            )
        with pytest.raises(ValidationError):
            RecommendConfig(max_set_size=0)


class TestRegistry:
    def test_register_precomputes(self):
        registered = OntologyRegistry()
        registered.register("eye", eye_ontology())
        info = registered.get("eye")
        assert info.n_concepts == 4
        assert info.labels["ocular disorders"].preferred is False
        assert info.labels["eye diseases"].preferred is True
        assert info.max_depth == 3
        assert info.concepts["E3"].depth == 3

    def test_duplicate_and_unknown_names(self):
        registry = OntologyRegistry()
        registry.register("eye", eye_ontology())
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("eye", eye_ontology())
        with pytest.raises(ValidationError, match="unknown ontology"):
            registry.get("nope")

    def test_register_path_json(self, tmp_path):
        path = tmp_path / "eye.json"
        write_ontology_json(eye_ontology(), path)
        registry = OntologyRegistry()
        registry.register_path("eye", path)
        assert registry.names() == ["eye"]
        with pytest.raises(ValidationError, match="no ontology file"):
            registry.register_path("ghost", tmp_path / "missing.json")


class TestRecommender:
    def test_ranking_is_input_driven(self):
        recommender = Recommender(two_ontology_registry())
        eye_first = recommender.recommend_text(
            "macular degeneration and retinal degeneration"
        )
        assert [s.name for s in eye_first.ranking] == ["eye", "heart"]
        heart_first = recommender.recommend_text(
            "myocardial infarction known as heart attack"
        )
        assert [s.name for s in heart_first.ranking] == ["heart", "eye"]
        for score in eye_first.ranking:
            assert set(score.scores) == set(CRITERIA)
            assert 0.0 <= score.aggregate <= 1.0

    def test_set_recommendation_unions_coverage(self):
        recommender = Recommender(two_ontology_registry())
        report = recommender.recommend_text(
            "macular degeneration complicates myocardial infarction"
        )
        members = set(report.ontology_set.members)
        assert members == {"eye", "heart"}
        assert report.ontology_set.coverage == pytest.approx(4 / 5)
        assert report.ontology_set.coverage >= max(
            s.covered_fraction for s in report.ranking
        )

    def test_redundant_ontology_not_admitted(self):
        registry = two_ontology_registry()
        clone = eye_ontology()
        clone.name = "eye-clone"
        registry.register("eye-clone", clone)
        recommender = Recommender(registry)
        report = recommender.recommend_text("macular degeneration")
        assert list(report.ontology_set.members) == ["eye"]

    def test_corpus_input_defaults_acceptance_to_input(self):
        index = CorpusIndex(
            [Document.from_text("d0", "macular degeneration case report")]
        )
        recommender = Recommender(two_ontology_registry())
        report = recommender.recommend_index(index)
        assert report.input_kind == "corpus"
        assert report.acceptance_source == "input"
        top = report.ranking[0]
        assert top.name == "eye"
        assert top.scores["acceptance"] > 0

    def test_text_without_acceptance_index_records_none(self):
        recommender = Recommender(two_ontology_registry())
        report = recommender.recommend_text("macular degeneration")
        assert report.acceptance_source is None
        assert report.ranking[0].scores["acceptance"] == 0.0

    def test_empty_registry_rejected(self):
        with pytest.raises(ValidationError, match="no ontologies"):
            Recommender(OntologyRegistry()).recommend_text("anything")

    def test_unknown_ontology_selection_rejected(self):
        recommender = Recommender(two_ontology_registry())
        with pytest.raises(ValidationError, match="unknown ontology"):
            recommender.recommend_text("x", ontologies=["ghost"])

    def test_report_wire_shape_is_stable(self):
        recommender = Recommender(two_ontology_registry())
        report = recommender.recommend_text("macular degeneration")
        document = report.to_dict()
        assert set(document) == {"input", "config", "ranking", "set"}
        assert document["input"]["kind"] == "text"
        wire = json.dumps(document, sort_keys=True)
        assert wire == json.dumps(report.to_dict(), sort_keys=True)
        table = report.to_table()
        assert "eye" in table and "coverage" in table


class TestRecommendCli:
    @pytest.fixture()
    def ontology_files(self, tmp_path):
        eye = tmp_path / "eye.json"
        heart = tmp_path / "heart.json"
        write_ontology_json(eye_ontology(), eye)
        write_ontology_json(heart_ontology(), heart)
        return eye, heart

    def test_json_output_ranks_both(self, ontology_files, tmp_path, capsys):
        eye, heart = ontology_files
        text = tmp_path / "input.txt"
        text.write_text("macular degeneration and heart attack")
        code = main(
            [
                "recommend",
                "--ontology", f"eye={eye}",
                "--ontology", f"heart={heart}",
                "--text", str(text),
                "--format", "json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in document["ranking"]] == [
            "eye",
            "heart",
        ]
        assert set(document["set"]["members"]) == {"eye", "heart"}

    def test_table_output(self, ontology_files, tmp_path, capsys):
        eye, heart = ontology_files
        text = tmp_path / "input.txt"
        text.write_text("macular degeneration")
        code = main(
            [
                "recommend",
                "--ontology", f"eye={eye}",
                "--ontology", f"heart={heart}",
                "--text", str(text),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eye" in out and "score" in out

    def test_requires_input(self, ontology_files, capsys):
        eye, _ = ontology_files
        code = main(["recommend", "--ontology", f"eye={eye}"])
        assert code == 2
        assert "--text" in capsys.readouterr().err

    def test_bad_ontology_spec_exits(self, tmp_path, capsys):
        text = tmp_path / "input.txt"
        text.write_text("x")
        with pytest.raises(SystemExit):
            main(["recommend", "--ontology", "not-a-spec", "--text", str(text)])
