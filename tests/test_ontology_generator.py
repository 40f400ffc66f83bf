"""Tests for repro.ontology.generator, mesh, umls."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.lexicon import BioLexicon
from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.ontology.mesh import assign_tree_numbers, make_eye_fragment
from repro.ontology.stats import polysemy_histogram
from repro.ontology.umls import (
    PAPER_TABLE1,
    PolysemyProfile,
    SyntheticMetathesaurus,
    paper_profiles,
)


class TestGeneratorSpec:
    def test_defaults_valid(self):
        GeneratorSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_concepts": 0},
            {"n_roots": 0},
            {"n_roots": 10, "n_concepts": 5},
            {"mean_synonyms": -1},
            {"second_father_prob": 1.5},
            {"polysemy_histogram": {1: 5}},
            {"polysemy_histogram": {2: -1}},
            {"year_range": (2020, 2010)},
            {"recent_fraction": 2.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            GeneratorSpec(**kwargs)


class TestOntologyGenerator:
    def test_generates_requested_size(self):
        onto = OntologyGenerator(GeneratorSpec(n_concepts=50), seed=0).generate()
        assert len(onto) == 50
        onto.validate()

    def test_deterministic_under_seed(self):
        a = OntologyGenerator(GeneratorSpec(n_concepts=40), seed=9).generate()
        b = OntologyGenerator(GeneratorSpec(n_concepts=40), seed=9).generate()
        assert [c.preferred_term for c in a] == [c.preferred_term for c in b]
        assert all(a.fathers(cid) == b.fathers(cid) for cid in a.concept_ids())

    def test_root_count(self):
        onto = OntologyGenerator(
            GeneratorSpec(n_concepts=30, n_roots=3), seed=1
        ).generate()
        assert len(onto.roots()) == 3

    def test_all_non_roots_have_fathers(self):
        onto = OntologyGenerator(
            GeneratorSpec(n_concepts=30, n_roots=2), seed=2
        ).generate()
        for cid in onto.concept_ids():
            if cid not in onto.roots():
                assert onto.fathers(cid)

    def test_polysemy_histogram_realised_exactly(self):
        spec = GeneratorSpec(
            n_concepts=120, polysemy_histogram={2: 8, 3: 4, 4: 2, 5: 1}
        )
        onto = OntologyGenerator(spec, seed=3).generate()
        measured = polysemy_histogram(onto)
        assert measured[2] >= 8 and measured[3] >= 4 and measured[4] >= 2
        assert measured[5] >= 1
        total_injected = 8 + 4 + 2 + 1
        assert sum(measured.values()) == total_injected

    def test_years_within_range(self):
        spec = GeneratorSpec(n_concepts=60, year_range=(2000, 2015))
        onto = OntologyGenerator(spec, seed=4).generate()
        years = [c.year_added for c in onto]
        assert all(2000 <= y <= 2015 for y in years)

    def test_recent_fraction_populates_window(self):
        spec = GeneratorSpec(
            n_concepts=100, year_range=(1990, 2015),
            recent_fraction=0.3, recent_years=6,
        )
        onto = OntologyGenerator(spec, seed=5).generate()
        recent = [c for c in onto if c.year_added >= 2010]
        assert len(recent) >= 20

    def test_shared_lexicon_is_used(self):
        lexicon = BioLexicon(seed=0)
        OntologyGenerator(
            GeneratorSpec(n_concepts=10), lexicon=lexicon, seed=0
        ).generate()
        # All preferred-term words must be in the shared POS lexicon.
        assert lexicon.pos_lexicon  # non-empty and shared

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_any_size_is_structurally_valid(self, n):
        spec = GeneratorSpec(n_concepts=n, n_roots=min(2, n))
        onto = OntologyGenerator(spec, seed=n).generate()
        onto.validate()
        assert len(onto) == n


def mesh_like(n_concepts, seed):
    """A generated ontology dressed with MeSH tree numbers."""
    spec = GeneratorSpec(n_concepts=n_concepts, polysemy_histogram={})
    onto = OntologyGenerator(spec, seed=seed).generate("mesh-like")
    assign_tree_numbers(onto)
    return onto


class TestMesh:
    def test_tree_numbers_assigned_everywhere(self):
        onto = mesh_like(40, seed=0)
        for concept in onto:
            assert concept.tree_numbers

    def test_tree_numbers_extend_fathers(self):
        onto = mesh_like(40, seed=1)
        for cid in onto.concept_ids():
            for father in onto.fathers(cid):
                father_numbers = onto.concept(father).tree_numbers
                son_numbers = onto.concept(cid).tree_numbers
                assert any(
                    son.startswith(f"{fn}.")
                    for fn in father_numbers
                    for son in son_numbers
                )

    def test_builder_exposes_lexicon(self):
        generator = OntologyGenerator(GeneratorSpec(n_concepts=5), seed=0)
        generator.generate("mesh-like")
        assert generator.lexicon.pos_lexicon

    def test_reassignment_resets(self):
        onto = mesh_like(10, seed=2)
        before = {c.concept_id: list(c.tree_numbers) for c in onto}
        assign_tree_numbers(onto)
        after = {c.concept_id: list(c.tree_numbers) for c in onto}
        assert before == after


class TestEyeFragment:
    def test_corneal_injuries_present_with_paper_synonyms(self):
        onto = make_eye_fragment()
        cids = onto.concepts_for_term("corneal injuries")
        assert len(cids) == 1
        concept = onto.concept(cids[0])
        assert set(concept.synonyms) == {
            "corneal injury",
            "corneal damage",
            "corneal trauma",
        }

    def test_paper_fathers(self):
        onto = make_eye_fragment()
        cid = onto.concepts_for_term("corneal injuries")[0]
        father_terms = {onto.concept(f).preferred_term for f in onto.fathers(cid)}
        assert father_terms == {"corneal diseases", "eye injuries"}

    def test_added_in_window(self):
        onto = make_eye_fragment()
        cid = onto.concepts_for_term("corneal injuries")[0]
        assert 2009 <= onto.concept(cid).year_added <= 2015

    def test_distractors_present(self):
        onto = make_eye_fragment()
        for term in ("chemical burns", "corneal ulcer", "amniotic membrane",
                     "re-epithelialization", "wound"):
            assert onto.has_term(term), term


class TestUmlsProfiles:
    def test_paper_table1_em_dash_counts(self):
        assert PAPER_TABLE1[("umls", "en")][2] == 54_257
        assert PAPER_TABLE1[("mesh", "en")][2] == 178

    def test_profiles_scaled_preserve_shape(self):
        profiles = paper_profiles(scale=1000)
        en = profiles[("umls", "en")]
        assert en.histogram[2] == 54  # 54257/1000 rounded
        assert en.histogram[3] == 8
        # tiny but non-zero counts survive scaling
        assert profiles[("umls", "fr")].histogram[4] == 1

    def test_zero_counts_stay_zero(self):
        profiles = paper_profiles(scale=10)
        assert profiles[("mesh", "es")].histogram[2] == 0

    def test_ratio_about_one_in_200_for_umls_en(self):
        profile = paper_profiles(scale=1.0)[("umls", "en")]
        ratio = profile.polysemy_ratio()
        assert 1 / 300 < ratio < 1 / 100

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValidationError):
            PolysemyProfile("umls", "en", total_terms=2, histogram={2: 5})
        with pytest.raises(ValidationError):
            paper_profiles(scale=1.0)[("umls", "en")].scaled(0)


class TestSyntheticMetathesaurus:
    def test_generates_all_six_terminologies(self):
        meta = SyntheticMetathesaurus(scale=5000, seed=0)
        ontologies = meta.generate()
        assert set(ontologies) == set(PAPER_TABLE1)

    def test_histograms_match_profiles(self):
        meta = SyntheticMetathesaurus(scale=5000, seed=1)
        ontologies = meta.generate()
        for key, onto in ontologies.items():
            expected = meta.profiles[key].histogram
            measured = polysemy_histogram(onto)
            for k in (2, 3, 4):
                assert measured[k] == expected.get(k, 0), (key, k)
            assert measured[5] == expected.get(5, 0), key

    def test_deterministic(self):
        a = SyntheticMetathesaurus(scale=5000, seed=7).generate()
        b = SyntheticMetathesaurus(scale=5000, seed=7).generate()
        key = ("umls", "en")
        assert a[key].terms() == b[key].terms()
