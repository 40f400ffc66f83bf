"""Step I's column measures and lexsort ranking against the dict oracle.

The measures score the aggregate's numpy columns, which the harvest fold
keeps, and the extractor ranks the score column with one lexsort.
``tests/dict_measures.py`` keeps the per-candidate measures and the
two-sort ranking they replaced.  After every fold of a corpus split in
1-3 parts, the columns must hold what the dict holds, every measure's
column must equal the oracle's scores bit for bit, and ``extract`` must
return the oracle's ranking.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.errors import ExtractionError
from repro.extraction.extractor import BioTexExtractor
from repro.extraction.measures import MEASURE_NAMES, compute_measure
from repro.text.patterns import TermPattern, TermPatternMatcher
from repro.text.postag import LexiconTagger

import dict_measures
from test_harvest_oracle import (
    EXTRA_TAGS,
    LEXICON_WORDS,
    TAGS,
    VOCABULARY,
    PositionalTagger,
    sentences,
)

documents = st.lists(
    st.lists(sentences, max_size=4), max_size=6
).map(
    lambda docs: [
        Document(f"d{i}", doc_sentences) for i, doc_sentences in enumerate(docs)
    ]
)


@st.composite
def matchers(draw):
    """A language's matcher, or custom patterns up to length 5."""
    language = draw(st.sampled_from(["en", "fr", "custom", "custom"]))
    if language != "custom":
        return TermPatternMatcher(language=language), language
    min_length = draw(st.integers(min_value=1, max_value=2))
    max_length = draw(st.integers(min_value=min_length, max_value=5))
    patterns = draw(
        st.lists(
            st.builds(
                TermPattern,
                tags=st.lists(
                    st.sampled_from(TAGS + EXTRA_TAGS),
                    min_size=min_length,
                    max_size=max_length,
                ).map(tuple),
                weight=st.sampled_from([0.25, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return (
        TermPatternMatcher(patterns, min_length=min_length, max_length=max_length),
        "en",
    )


def assert_columns_hold_the_dict(context):
    columns = context.columns()
    stats = list(context.candidates.values())
    assert columns.length.tolist() == [s.length for s in stats]
    assert columns.frequency.tolist() == [s.frequency for s in stats]
    assert columns.doc_frequency.tolist() == [s.doc_frequency for s in stats]
    assert [w.hex() for w in columns.pattern_weight.tolist()] == [
        s.pattern_weight.hex() for s in stats
    ]
    words = [
        tuple(columns.words[i] for i in row if i >= 0) for row in columns.ids.tolist()
    ]
    assert words == list(context.candidates)
    for row, candidate in zip(columns.ids.tolist(), stats, strict=True):
        assert row[candidate.length :] == [-1] * (len(row) - candidate.length)


def ranked_rows(terms):
    return [(t.tokens, t.score.hex(), t.frequency, t.rank) for t in terms]


def oracle_rows(rows):
    return [
        (tokens, score.hex(), frequency, rank)
        for rank, (tokens, score, frequency) in enumerate(rows, start=1)
    ]


class TestMeasureOracle:
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
            st.frozensets(st.sampled_from(VOCABULARY), min_size=1, max_size=3),
        ),
        min_frequency=st.integers(min_value=1, max_value=3),
        min_length=st.integers(min_value=1, max_value=2),
    )
    # A filtered-out container: "cornea" is nested in "cornea injury"
    # (frequency 1) only before min_frequency=2 drops that.
    @example(
        docs=[Document("d0", [["cornea", "cornea", "injury"]])],
        cuts=[],
        lexicon={},
        positional=False,
        matcher=(TermPatternMatcher(language="en"), "en"),
        stop_words=None,
        min_frequency=2,
        min_length=1,
    )
    # Okapi adds three different BM25 terms for "cornea".
    @example(
        docs=[
            Document("d0", [["cornea", "cornea", "cornea"]]),
            Document("d1", [["cornea"]]),
            Document("d2", [["cornea", "cornea"]]),
        ],
        cuts=[1],
        lexicon={},
        positional=False,
        matcher=(TermPatternMatcher(language="en"), "en"),
        stop_words=None,
        min_frequency=1,
        min_length=1,
    )
    # Every tergraph score ties: the token tuples decide, and "injury"
    # sorts before its extension "injury cornea" although the last word
    # id ("ulcer") sorts after "cornea".
    @example(
        docs=[Document("d0", [["injury", "cornea"], ["ulcer"]])],
        cuts=[],
        lexicon={"cornea": "NOUN", "injury": "NOUN", "ulcer": "NOUN"},
        positional=False,
        matcher=(TermPatternMatcher(language="en"), "en"),
        stop_words=None,
        min_frequency=1,
        min_length=1,
    )
    @settings(max_examples=250, deadline=None)
    def test_columns_scores_and_rankings_match_the_dict_oracle(
        self,
        docs,
        cuts,
        lexicon,
        positional,
        matcher,
        stop_words,
        min_frequency,
        min_length,
    ):
        matcher, language = matcher
        tagger_class = PositionalTagger if positional else LexiconTagger
        extractor = BioTexExtractor(
            language=language,
            tagger=tagger_class(lexicon),
            matcher=matcher,
            min_frequency=min_frequency,
            min_length=min_length,
            stop_words=stop_words,
        )
        # 1-3 folds: each call folds the documents after the last one.
        for bound in sorted({min(cut, len(docs)) for cut in cuts} | {len(docs)}):
            corpus = Corpus(docs[:bound])
            try:
                context = extractor.build_context(corpus)
            except ExtractionError:
                continue  # nothing folded yet
            assert_columns_hold_the_dict(context)
            for measure in MEASURE_NAMES:
                column = compute_measure(measure, context)
                assert column.dtype == np.float64
                oracle = dict_measures.MEASURES[measure](context)
                assert [s.hex() for s in column.tolist()] == [
                    oracle[tokens].hex() for tokens in context.candidates
                ], measure
            for measure in MEASURE_NAMES:
                for top_k in (None, 1, 3):
                    expected = dict_measures.ranking(
                        context, measure, min_length=min_length, top_k=top_k
                    )
                    assert ranked_rows(
                        extractor.extract(corpus, top_k=top_k, measure=measure)
                    ) == oracle_rows(expected), (measure, top_k)
