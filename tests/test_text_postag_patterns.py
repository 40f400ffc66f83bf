"""Tests for repro.text.postag, repro.text.patterns, repro.text.ngrams."""

import pytest

from repro.text.ngrams import extract_pattern_phrases
from repro.text.patterns import TermPattern, TermPatternMatcher, default_patterns
from repro.text.postag import COARSE_TAGS, LexiconTagger, TaggedToken


class TestLexiconTagger:
    def test_lexicon_lookup_wins(self):
        tagger = LexiconTagger({"cornea": "NOUN", "heal": "VERB"})
        assert tagger.tag_word("Cornea") == "NOUN"
        assert tagger.tag_word("heal") == "VERB"

    def test_closed_class_words(self):
        tagger = LexiconTagger()
        assert tagger.tag_word("the") == "DET"
        assert tagger.tag_word("of") == "ADP"
        assert tagger.tag_word("and") == "CONJ"

    def test_suffix_rules(self):
        tagger = LexiconTagger()
        assert tagger.tag_word("epithelialization") == "NOUN"
        assert tagger.tag_word("corneal") == "ADJ"
        assert tagger.tag_word("rapidly") == "ADV"
        assert tagger.tag_word("keratitis") == "NOUN"

    def test_digits_tagged_num(self):
        assert LexiconTagger().tag_word("2015") == "NUM"

    def test_default_tag_fallback(self):
        assert LexiconTagger().tag_word("xyzq") == "NOUN"

    def test_stopword_fallback_is_function_word(self):
        tagger = LexiconTagger()
        assert tagger.tag_word("whether") == "DET"

    def test_tag_sequence(self):
        tagger = LexiconTagger({"cornea": "NOUN"})
        tagged = tagger.tag(["the", "cornea"])
        assert tagged == [TaggedToken("the", "DET"), TaggedToken("cornea", "NOUN")]

    def test_update_lexicon(self):
        tagger = LexiconTagger()
        tagger.update_lexicon({"qqq": "ADJ"})
        assert tagger.tag_word("qqq") == "ADJ"
        assert tagger.lexicon_size == 1

    def test_update_lexicon_retags_a_word_tagged_before(self):
        tagger = LexiconTagger({"cornea": "NOUN"})
        assert tagger.tag(["Cornea", "qqq"]) == [
            TaggedToken("Cornea", "NOUN"),
            TaggedToken("qqq", "NOUN"),
        ]
        tagger.update_lexicon({"CORNEA": "ADJ", "qqq": "VERB"})
        assert tagger.tag(["Cornea", "qqq"]) == [
            TaggedToken("Cornea", "ADJ"),
            TaggedToken("qqq", "VERB"),
        ]

    def test_repeated_tagging_matches_a_fresh_tagger(self):
        lexicon = {"cornea": "NOUN", "heal": "VERB"}
        sentence = ["The", "cornea", "CORNEA", "Cornea", "heals", "Heal", "the", "2015"]
        tagger = LexiconTagger(lexicon)
        first = tagger.tag(sentence)
        again = tagger.tag(list(reversed(sentence)))
        assert first == LexiconTagger(lexicon).tag(sentence)
        assert again == LexiconTagger(lexicon).tag(list(reversed(sentence)))
        assert [token.text for token in first] == sentence

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            LexiconTagger({"w": "NOPE"})
        tagger = LexiconTagger()
        with pytest.raises(ValueError):
            tagger.update_lexicon({"w": "NOPE"})

    def test_invalid_default_rejected(self):
        with pytest.raises(ValueError):
            LexiconTagger(default_tag="NOPE")

    def test_is_content(self):
        assert TaggedToken("cornea", "NOUN").is_content()
        assert not TaggedToken("the", "DET").is_content()


class TestPatterns:
    @pytest.mark.parametrize("language", ["en", "fr", "es"])
    def test_default_patterns_valid_tags(self, language):
        for pattern in default_patterns(language):
            assert all(tag in COARSE_TAGS for tag in pattern.tags)
            assert 0.0 < pattern.weight <= 1.0

    def test_weights_decay_with_rank(self):
        patterns = default_patterns("en")
        weights = [p.weight for p in patterns]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_matcher_exact_match(self):
        matcher = TermPatternMatcher(language="en")
        assert matcher.matches(("ADJ", "NOUN"))
        assert not matcher.matches(("DET", "NOUN"))

    def test_matcher_weight_lookup(self):
        matcher = TermPatternMatcher(language="en")
        assert matcher.weight(("NOUN",)) == 1.0
        assert matcher.weight(("VERB", "VERB")) is None

    def test_matcher_respects_length_bounds(self):
        matcher = TermPatternMatcher(language="en", min_length=2, max_length=2)
        assert matcher.matches(("ADJ", "NOUN"))
        assert not matcher.matches(("NOUN",))

    def test_matcher_bad_bounds(self):
        with pytest.raises(ValueError):
            TermPatternMatcher(min_length=0)
        with pytest.raises(ValueError):
            TermPatternMatcher(min_length=3, max_length=2)

    def test_custom_patterns_dedupe_keeps_max_weight(self):
        patterns = [
            TermPattern(("NOUN",), 0.2),
            TermPattern(("NOUN",), 0.9),
        ]
        matcher = TermPatternMatcher(patterns)
        assert matcher.weight(("NOUN",)) == 0.9


class TestNgrams:
    def test_pattern_phrases(self):
        tagger = LexiconTagger({"corneal": "ADJ", "injury": "NOUN", "heals": "VERB"})
        tagged = tagger.tag(["corneal", "injury", "heals"])
        matcher = TermPatternMatcher(language="en")
        phrases = extract_pattern_phrases(tagged, matcher)
        texts = [p for p, _w in phrases]
        assert ("corneal", "injury") in texts
        assert ("injury",) in texts
        assert ("corneal", "injury", "heals") not in texts
