"""Part-of-speech tagging.

The paper's term extraction (BioTex) filters candidate phrases through
part-of-speech patterns computed by TreeTagger.  TreeTagger is a closed
binary, so we provide :class:`LexiconTagger`: a lexicon lookup backed by
suffix rules, the classical architecture for resource-light taggers.

The synthetic corpus generator (:mod:`repro.corpus.lexicon`) knows the true
POS of every word it mints and exports that lexicon, so on generated
corpora the tagger is essentially gold; on out-of-lexicon tokens the
suffix rules provide a reasonable guess.

Tagset (coarse, universal-style): ``NOUN, ADJ, VERB, ADV, ADP, DET, PRON,
CONJ, NUM, PUNCT, X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from repro.text.stopwords import stopwords_for

COARSE_TAGS = (
    "NOUN",
    "ADJ",
    "VERB",
    "ADV",
    "ADP",
    "DET",
    "PRON",
    "CONJ",
    "NUM",
    "PUNCT",
    "X",
)


@dataclass(frozen=True)
class TaggedToken:
    """A token together with its part-of-speech tag."""

    text: str
    tag: str

    def is_content(self) -> bool:
        """True for open-class tokens that can be part of a term."""
        return self.tag in ("NOUN", "ADJ", "VERB", "ADV")


# Suffix → tag rules, tried longest-first.  These cover the derivational
# morphology the synthetic lexicon uses plus common English endings.
_SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("ization", "NOUN"),
    ("isation", "NOUN"),
    ("ectomy", "NOUN"),
    ("ostomy", "NOUN"),
    ("otomy", "NOUN"),
    ("plasty", "NOUN"),
    ("graphy", "NOUN"),
    ("scopy", "NOUN"),
    ("pathy", "NOUN"),
    ("itis", "NOUN"),
    ("osis", "NOUN"),
    ("emia", "NOUN"),
    ("oma", "NOUN"),
    ("ment", "NOUN"),
    ("ness", "NOUN"),
    ("tion", "NOUN"),
    ("sion", "NOUN"),
    ("ity", "NOUN"),
    ("ism", "NOUN"),
    ("ase", "NOUN"),
    ("ide", "NOUN"),
    ("ine", "NOUN"),
    ("ogen", "NOUN"),
    ("cyte", "NOUN"),
    ("blast", "NOUN"),
    ("ical", "ADJ"),
    ("ous", "ADJ"),
    ("ary", "ADJ"),
    ("ive", "ADJ"),
    ("able", "ADJ"),
    ("ible", "ADJ"),
    ("al", "ADJ"),
    ("ic", "ADJ"),
    ("ar", "ADJ"),
    ("oid", "ADJ"),
    ("ly", "ADV"),
    ("ize", "VERB"),
    ("ise", "VERB"),
    ("ate", "VERB"),
    ("ify", "VERB"),
    ("ing", "VERB"),
    ("ed", "VERB"),
)

# A few closed-class English words so raw (non-generated) text tags sanely.
_CLOSED_CLASS = {
    "the": "DET", "a": "DET", "an": "DET", "this": "DET", "that": "DET",
    "these": "DET", "those": "DET", "each": "DET", "every": "DET",
    "of": "ADP", "in": "ADP", "on": "ADP", "at": "ADP", "by": "ADP",
    "for": "ADP", "with": "ADP", "from": "ADP", "to": "ADP", "into": "ADP",
    "under": "ADP", "over": "ADP", "between": "ADP", "during": "ADP",
    "after": "ADP", "before": "ADP", "without": "ADP", "within": "ADP",
    "and": "CONJ", "or": "CONJ", "but": "CONJ", "nor": "CONJ",
    "because": "CONJ", "although": "CONJ", "while": "CONJ", "if": "CONJ",
    "it": "PRON", "they": "PRON", "we": "PRON", "he": "PRON", "she": "PRON",
    "is": "VERB", "are": "VERB", "was": "VERB", "were": "VERB",
    "be": "VERB", "been": "VERB", "has": "VERB", "have": "VERB",
    "had": "VERB", "do": "VERB", "does": "VERB", "did": "VERB",
    "can": "VERB", "may": "VERB", "must": "VERB", "should": "VERB",
    "not": "ADV", "also": "ADV", "very": "ADV", "often": "ADV",
}


class LexiconTagger:
    """Lexicon + suffix-rule part-of-speech tagger.

    Parameters
    ----------
    lexicon:
        Mapping of lower-cased word → coarse tag.  Typically exported by the
        corpus generator (gold tags); may be empty.
    language:
        Used to tag that language's stopwords as function words when the
        lexicon does not know them.
    default_tag:
        Tag for tokens no rule covers; ``"NOUN"`` is the best open-class
        prior in technical text.
    """

    def __init__(
        self,
        lexicon: Mapping[str, str] | None = None,
        *,
        language: str = "en",
        default_tag: str = "NOUN",
    ) -> None:
        if default_tag not in COARSE_TAGS:
            raise ValueError(f"default_tag must be a coarse tag, got {default_tag!r}")
        self._lexicon: dict[str, str] = {}
        if lexicon:
            for word, tag in lexicon.items():
                if tag not in COARSE_TAGS:
                    raise ValueError(f"unknown tag {tag!r} for word {word!r}")
                self._lexicon[word.lower()] = tag
        self._language = language
        self._stopwords = stopwords_for(language)
        self._default_tag = default_tag
        self._lexicon_version = 0
        # Raw token -> its TaggedToken, shared by every tag() call.
        self._tagged: dict[str, TaggedToken] = {}

    @property
    def lexicon_size(self) -> int:
        """Number of words with a known (gold) tag."""
        return len(self._lexicon)

    @property
    def lexicon_version(self) -> int:
        """Count of :meth:`update_lexicon` calls; keys memoised tags."""
        return self._lexicon_version

    def update_lexicon(self, entries: Mapping[str, str]) -> None:
        """Merge additional gold ``word → tag`` entries into the lexicon."""
        for word, tag in entries.items():
            if tag not in COARSE_TAGS:
                raise ValueError(f"unknown tag {tag!r} for word {word!r}")
        for word, tag in entries.items():
            self._lexicon[word.lower()] = tag
        self._lexicon_version += 1
        self._tagged = {}

    def tag_word(self, token: str) -> str:
        """Return the coarse tag of a single ``token``."""
        lower = token.lower()
        if lower in self._lexicon:
            return self._lexicon[lower]
        if lower in _CLOSED_CLASS:
            return _CLOSED_CLASS[lower]
        if lower in self._stopwords:
            # Unknown stopword: treat as determiner-like function word so it
            # breaks term patterns, which is what matters downstream.
            return "DET"
        if lower.isdigit():
            return "NUM"
        if not any(ch.isalpha() for ch in lower):
            return "PUNCT"
        for suffix, tag in _SUFFIX_RULES:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
                return tag
        return self._default_tag

    def tag(self, tokens: Iterable[str]) -> list[TaggedToken]:
        """Tag a token sequence.

        Tags depend on the token alone, so each distinct token is tagged
        once and its (immutable) :class:`TaggedToken` reused until the
        next :meth:`update_lexicon`.
        """
        memo = self._tagged
        out = []
        for token in tokens:
            tagged = memo.get(token)
            if tagged is None:
                tagged = memo[token] = TaggedToken(token, self.tag_word(token))
            out.append(tagged)
        return out
