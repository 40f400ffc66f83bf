"""Step I harvest against its per-window loop oracle.

:func:`harvest_candidates` folds a corpus on arrays into a column
store.  The loop below is the harvest it replaced: every matching
window of every tagged sentence, from :func:`extract_pattern_phrases`,
counted into a dict of per-candidate records one match at a time.  The
two must agree on everything a context holds, candidate and per-document
orders included, for any tagger, matcher, stop list and split of the
corpus into folds.
"""

from dataclasses import dataclass, field

from hypothesis import example, given, settings, strategies as st

from repro.corpus.document import Document
from repro.errors import ExtractionError
from repro.extraction.candidates import harvest_candidates
from repro.text.ngrams import extract_pattern_phrases
from repro.text.patterns import TermPattern, TermPatternMatcher
from repro.text.postag import LexiconTagger, TaggedToken


@dataclass
class OracleCandidate:
    """The loop harvest's counters for one candidate term."""

    tokens: tuple[str, ...]
    frequency: int = 0
    pattern_weight: float = 0.0
    per_doc: dict[str, int] = field(default_factory=dict)

    @property
    def doc_frequency(self):
        return len(self.per_doc)

    @property
    def length(self):
        return len(self.tokens)


@dataclass
class OracleContext:
    """The loop harvest's aggregate: token tuple -> record, in entry order."""

    candidates: dict
    n_documents: int
    doc_lengths: dict
    language: str = "en"

    @property
    def avg_doc_length(self):
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths.values()) / len(self.doc_lengths)

    def filtered(self, min_frequency):
        if min_frequency <= 1:
            return self
        return OracleContext(
            {
                tokens: record
                for tokens, record in self.candidates.items()
                if record.frequency >= min_frequency
            },
            self.n_documents,
            self.doc_lengths,
            self.language,
        )


def candidate_records(context):
    """An :class:`~repro.extraction.candidates.ExtractionContext`'s
    candidates as oracle records, read off its columns and triplets."""
    columns = context.columns()
    records = [
        OracleCandidate(tokens, frequency, weight)
        for tokens, frequency, weight in zip(
            columns.tokens(range(len(columns))),
            columns.frequency.tolist(),
            columns.pattern_weight.tolist(),
            strict=True,
        )
    ]
    for row, doc, count in zip(
        columns.triplet_row.tolist(),
        columns.triplet_doc.tolist(),
        columns.triplet_count.tolist(),
        strict=True,
    ):
        per_doc = records[row].per_doc
        doc_id = columns.doc_ids[doc]
        assert doc_id not in per_doc, "a (candidate, document) triplet repeats"
        per_doc[doc_id] = count
    assert columns.doc_frequency.tolist() == [r.doc_frequency for r in records]
    return {record.tokens: record for record in records}


def oracle_context(context):
    """``context`` (a column store) as an :class:`OracleContext`."""
    if isinstance(context, OracleContext):
        return context
    return OracleContext(
        candidate_records(context),
        context.n_documents,
        context.doc_lengths,
        context.language,
    )


def context_snapshot(context):
    """Everything a context holds, with dict orders made explicit."""
    context = oracle_context(context)
    return (
        context.n_documents,
        list(context.doc_lengths.items()),
        context.language,
        [
            (tokens, stats.frequency, stats.pattern_weight, list(stats.per_doc.items()))
            for tokens, stats in context.candidates.items()
        ],
    )


def loop_harvest(
    documents, *, tagger, matcher, language, min_frequency, stop_words, into
):
    """The per-window harvest: the reference the array fold must equal."""
    if min_frequency < 1:
        raise ExtractionError(f"min_frequency must be >= 1, got {min_frequency}")
    stop = frozenset(w.lower() for w in stop_words) if stop_words else frozenset()
    context = into
    if context is None:
        context = OracleContext(
            candidates={}, n_documents=0, doc_lengths={}, language=language
        )
    candidates = context.candidates
    for doc in documents:
        context.n_documents += 1
        context.doc_lengths[doc.doc_id] = doc.n_tokens()
        for sentence in doc.sentences:
            tagged = tagger.tag(sentence)
            for phrase, weight in extract_pattern_phrases(tagged, matcher):
                if stop and any(word in stop for word in phrase):
                    continue
                if len(set(phrase)) != len(phrase):
                    continue
                stats = candidates.get(phrase)
                if stats is None:
                    stats = OracleCandidate(tokens=phrase)
                    candidates[phrase] = stats
                stats.frequency += 1
                stats.pattern_weight = max(stats.pattern_weight, weight)
                stats.per_doc[doc.doc_id] = stats.per_doc.get(doc.doc_id, 0) + 1
    if context.n_documents == 0:
        raise ExtractionError("cannot extract terms from an empty corpus")
    return context.filtered(min_frequency)


# Mixed case on purpose ("Cornea"/"cornea" are one word), with suffixes
# the rules know (-itis, -al, -ly, -ing), digits and punctuation.
VOCABULARY = (
    "cornea", "Cornea", "injury", "INJURY", "corneal", "ulcer", "the", "of",
    "keratitis", "acute", "Acute", "rapidly", "healing", "2015", ",",
    "study", "de", "la", "xqzt",
)
LEXICON_WORDS = ("cornea", "injury", "ulcer", "acute", "study", "xqzt", "de")
TAGS = ("NOUN", "ADJ", "VERB", "ADP", "DET")
#: Tags outside ``COARSE_TAGS`` that only the positional tagger returns.
EXTRA_TAGS = ("TERM", "MOD")
#: The positional tagger's tags for odd positions 1, 3, 5, 7.
ODD_POSITION_TAGS = ("ADJ", EXTRA_TAGS[0], "NOUN", EXTRA_TAGS[1])


class PositionalTagger(LexiconTagger):
    """Tags that depend on a token's position, some outside COARSE_TAGS.

    One phrase then matches different patterns, of different weights,
    at different places.
    """

    def tag(self, tokens):
        return [
            TaggedToken(token.text, ODD_POSITION_TAGS[i // 2 % 4]) if i % 2 else token
            for i, token in enumerate(super().tag(tokens))
        ]


sentences = st.lists(st.sampled_from(VOCABULARY), max_size=8)
documents = st.lists(
    st.builds(
        Document,
        # Few ids, so a plain list repeats some.
        doc_id=st.sampled_from(["d0", "d1", "d2", "d3", "d4"]),
        sentences=st.lists(sentences, max_size=4),
    ),
    max_size=6,
)
patterns = st.lists(
    st.builds(
        TermPattern,
        tags=st.lists(
            st.sampled_from(TAGS + EXTRA_TAGS), min_size=1, max_size=4
        ).map(tuple),
        weight=st.sampled_from([0.25, 0.5, 1.0]),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def matchers(draw):
    language = draw(st.sampled_from(["en", "fr", "es", "custom"]))
    if language != "custom":
        return TermPatternMatcher(language=language), language
    min_length = draw(st.integers(min_value=1, max_value=2))
    max_length = draw(st.integers(min_value=min_length, max_value=4))
    return (
        TermPatternMatcher(
            draw(patterns), min_length=min_length, max_length=max_length
        ),
        "en",
    )


def run_folds(harvest, docs, bounds, *, tagger, min_frequency, **kwargs):
    """Harvest ``docs`` in folds split at ``bounds``, each extending the
    first's unfiltered aggregate; the outcome is the last call's
    (filtered) snapshot and the aggregate's, or the error raised."""
    folds = list(zip(bounds, bounds[1:]))
    aggregate = None
    try:
        for i, (lo, hi) in enumerate(folds):
            last = i == len(folds) - 1
            returned = harvest(
                docs[lo:hi],
                tagger=tagger,
                min_frequency=min_frequency if last else 1,
                into=aggregate,
                **kwargs,
            )
            if aggregate is None and not last:
                aggregate = returned
    except ExtractionError as exc:
        return "error", str(exc)
    return (
        context_snapshot(returned),
        None if aggregate is None else context_snapshot(aggregate),
    )


class TestHarvestOracle:
    @given(
        docs=documents,
        cuts=st.lists(st.integers(min_value=1, max_value=6), max_size=2),
        lexicon=st.dictionaries(
            st.sampled_from(LEXICON_WORDS), st.sampled_from(TAGS), max_size=5
        ),
        positional=st.booleans(),
        matcher=matchers(),
        stop_words=st.one_of(
            st.just(None),
            st.just(frozenset()),
            st.frozensets(st.sampled_from(VOCABULARY), min_size=1, max_size=3),
        ),
        min_frequency=st.integers(min_value=1, max_value=3),
    )
    # "cornea injury" is ADJ NOUN (weight 1/3) in the first fold and
    # NOUN ADJ (1/8) in the second: the aggregate keeps the higher.
    @example(
        docs=[
            Document("d0", [["ulcer", "cornea", "injury"]]),
            Document("d1", [["cornea", "injury"]]),
        ],
        cuts=[1],
        lexicon={},
        positional=True,
        matcher=(TermPatternMatcher(language="en"), "en"),
        stop_words=None,
        min_frequency=1,
    )
    @settings(max_examples=300, deadline=None)
    def test_array_fold_matches_the_loop(
        self, docs, cuts, lexicon, positional, matcher, stop_words, min_frequency
    ):
        matcher, language = matcher
        # 1-3 folds; a later one may be empty.
        bounds = [0, *sorted(min(cut, len(docs)) for cut in cuts), len(docs)]
        tagger_class = PositionalTagger if positional else LexiconTagger
        outcomes = [
            run_folds(
                harvest,
                docs,
                bounds,
                tagger=tagger_class(lexicon),
                min_frequency=min_frequency,
                matcher=matcher,
                language=language,
                stop_words=stop_words,
            )
            for harvest in (harvest_candidates, loop_harvest)
        ]
        assert outcomes[0] == outcomes[1]
