"""Step I's column measures and prefix ranking against the dict oracle.

The measures score the aggregate's numpy columns and the nested sums the
harvest fold keeps, and the extractor orders only the prefix asked for.
``tests/dict_measures.py`` keeps the per-candidate measures, the
two-sort ranking, and the whole-aggregate nested sums and lexsort
ranking they replaced.  After every fold of a corpus split in 1-3
parts, the kept nested sums and counts must equal the whole-aggregate
ones (for the live aggregate and for the filtered context), every
measure's column must equal the oracle's scores bit for bit, and
``extract`` must return the oracles' ranking.
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
    oracle_context,
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


def assert_columns_are_consistent(columns):
    """Lengths, padding and triplets agree with each other."""
    ids = columns.ids.tolist()
    assert columns.length.tolist() == [sum(i >= 0 for i in row) for row in ids]
    for row, length in zip(ids, columns.length.tolist(), strict=True):
        assert row[length:] == [-1] * (len(row) - length)
    assert np.bincount(columns.triplet_row, minlength=len(columns)).tolist() == (
        columns.doc_frequency.tolist()
    )


def assert_kept_sums_match(columns):
    sums, counts = dict_measures.nested_sums(columns)
    assert columns.nested_sums.tolist() == sums.tolist()
    assert columns.nested_counts.tolist() == counts.tolist()


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
            # The fold keeps the nested sums of the whole aggregate; a
            # filtered context's copy covers its own rows only.
            assert_kept_sums_match(extractor._harvest.aggregate.columns())
            columns = context.columns()
            assert_columns_are_consistent(columns)
            assert_kept_sums_match(columns)
            tokens = columns.tokens(range(len(columns)))
            oracle_view = oracle_context(context)
            assert list(oracle_view.candidates) == tokens
            for measure in MEASURE_NAMES:
                column = compute_measure(measure, context)
                assert column.dtype == np.float64
                oracle = dict_measures.MEASURES[measure](oracle_view)
                assert [s.hex() for s in column.tolist()] == [
                    oracle[t].hex() for t in tokens
                ], measure
            for measure in MEASURE_NAMES:
                whole = dict_measures.lexsort_ranking(
                    columns, compute_measure(measure, context), min_length=min_length
                )
                for top_k in (None, 1, 3):
                    expected = dict_measures.ranking(
                        oracle_view, measure, min_length=min_length, top_k=top_k
                    )
                    ranked = extractor.extract(corpus, top_k=top_k, measure=measure)
                    assert ranked_rows(ranked) == oracle_rows(expected), (
                        measure,
                        top_k,
                    )
                    assert [t.tokens for t in ranked] == columns.tokens(
                        whole[:top_k]
                    ), (measure, top_k)
