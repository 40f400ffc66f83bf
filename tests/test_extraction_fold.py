"""Step I harvest as a fold: a reused extractor against fresh ones.

A :class:`BioTexExtractor` keeps the aggregate of the last corpus it
harvested.  Whatever it folds, skips or restarts, every call must give
exactly what a fresh extractor gives on the same corpus: the same
ranking for every measure (okapi sums floats in triplet order, so
iteration order matters) and the same ``context_``, candidate and
per-document orders included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.extraction.extractor import BioTexExtractor
from repro.extraction.measures import MEASURE_NAMES
from repro.lexicon import BioLexicon
from repro.scenarios import make_enrichment_scenario
from repro.text.postag import LexiconTagger

from test_harvest_oracle import context_snapshot

STOP_WORDS = frozenset(
    BioLexicon.filler_nouns() + BioLexicon.core_verbs() + BioLexicon.core_adverbs()
)
CHANGES = ("edit", "reorder", "resplit", "remove", "lexicon")


class CountingTagger(LexiconTagger):
    """Counts :meth:`tag` calls, one per tagged sentence."""

    calls = 0

    def tag(self, tokens):
        self.calls += 1
        return super().tag(tokens)


def assert_matches_fresh(extractor, documents, lexicon):
    corpus = Corpus(documents)
    fresh = BioTexExtractor(
        tagger=LexiconTagger(lexicon),
        stop_words=STOP_WORDS,
        min_frequency=extractor.min_frequency,
    )
    for measure in MEASURE_NAMES:
        assert extractor.extract(corpus, measure=measure) == fresh.extract(
            corpus, measure=measure
        ), measure
    assert context_snapshot(extractor.context_) == context_snapshot(fresh.context_)
    assert (extractor.context_.columns().frequency >= extractor.min_frequency).all()


def n_sentences(documents):
    return sum(len(doc.sentences) for doc in documents)


def changed(kind, documents, tagger, lexicon):
    """``documents`` after one change a fold cannot extend."""
    documents_before, documents = documents, list(documents)
    first, last = documents[0], documents[-1]
    if kind == "edit":
        documents[0] = Document(first.doc_id, last.sentences)
    elif kind == "reorder":
        documents[0], documents[-1] = last, first
    elif kind == "resplit":
        tokens = first.tokens()
        sentences = [tokens] if len(first.sentences) > 1 else [tokens[:1], tokens[1:]]
        documents[0] = Document(first.doc_id, [s for s in sentences if s])
    elif kind == "remove":
        del documents[len(documents) // 2]
    else:
        word = first.sentences[0][0].lower()
        update = {word: "VERB" if lexicon.get(word) != "VERB" else "NOUN"}
        tagger.update_lexicon(update)
        lexicon.update(update)
        return documents
    assert [(d.doc_id, d.sentences) for d in documents] != [
        (d.doc_id, d.sentences) for d in documents_before
    ]
    return documents


class TestHarvestFold:
    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        batches=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
        min_frequency=st.sampled_from([1, 2]),
        change=st.sampled_from(CHANGES),
    )
    @settings(max_examples=15, deadline=None)
    def test_reused_extractor_matches_fresh_one(
        self, seed, batches, min_frequency, change
    ):
        scenario = make_enrichment_scenario(seed=seed, n_concepts=8, docs_per_concept=2)
        documents = list(scenario.corpus)
        lexicon = dict(scenario.pos_lexicon)
        tagger = CountingTagger(lexicon)
        extractor = BioTexExtractor(
            tagger=tagger, stop_words=STOP_WORDS, min_frequency=min_frequency
        )

        # Grow the corpus one document at a time, then in batches: each
        # step tags only the arriving documents.
        end = 0
        for size in [1, 1, *batches]:
            arriving = documents[end : end + size]
            end += len(arriving)
            tagger.calls = 0
            assert_matches_fresh(extractor, documents[:end], lexicon)
            assert tagger.calls == n_sentences(arriving)

        # An unchanged corpus (even a new Corpus object) tags nothing.
        tagger.calls = 0
        assert_matches_fresh(extractor, documents[:end], lexicon)
        assert tagger.calls == 0

        # Anything else harvests from empty, and the fold resumes after.
        current = changed(change, documents[:end], tagger, lexicon)
        tagger.calls = 0
        assert_matches_fresh(extractor, current, lexicon)
        assert tagger.calls == n_sentences(current)
        rest = documents[end:]
        tagger.calls = 0
        assert_matches_fresh(extractor, current + rest, lexicon)
        assert tagger.calls == n_sentences(rest)

    def test_mutating_a_ranking_leaves_the_next_call_intact(self):
        scenario = make_enrichment_scenario(seed=3, n_concepts=8, docs_per_concept=2)
        extractor = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        ranking = extractor.extract(scenario.corpus)
        expected = list(ranking)
        ranking.reverse()
        ranking.pop()
        assert extractor.extract(scenario.corpus) == expected
        top = extractor.extract(scenario.corpus, top_k=3)
        assert top == expected[:3]
        top.clear()
        assert extractor.extract(scenario.corpus) == expected

    def test_failed_fold_leaves_no_half_extended_aggregate(self):
        scenario = make_enrichment_scenario(seed=4, n_concepts=8, docs_per_concept=2)
        documents = list(scenario.corpus)

        class FailingTagger(LexiconTagger):
            fail = False

            def tag(self, tokens):
                if self.fail:
                    raise RuntimeError("tagger down")
                return super().tag(tokens)

        tagger = FailingTagger(scenario.pos_lexicon)
        extractor = BioTexExtractor(tagger=tagger)
        extractor.extract(Corpus(documents[:5]))
        tagger.fail = True
        with pytest.raises(RuntimeError):
            extractor.extract(Corpus(documents))
        tagger.fail = False
        fresh = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        assert extractor.extract(Corpus(documents)) == fresh.extract(
            Corpus(documents)
        )
        assert context_snapshot(extractor.context_) == context_snapshot(
            fresh.context_
        )


class TestRankingPrefix:
    """Only the prefix asked for is ordered and turned into terms; any
    prefix must be the head of the whole ranking, also where the k-th
    score ties with the next."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return make_enrichment_scenario(seed=6, n_concepts=8, docs_per_concept=2)

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    @pytest.mark.parametrize("whole_first", [True, False])
    def test_prefix_is_the_head_of_the_whole_ranking(
        self, scenario, measure, whole_first
    ):
        corpus = scenario.corpus
        whole = BioTexExtractor(
            tagger=LexiconTagger(scenario.pos_lexicon), measure=measure
        ).extract(corpus)
        assert len(whole) > 60
        # The first k whose k-th score equals the next one: the rows
        # tied at the boundary must all be ordered before any is cut.
        tie = next(
            k
            for k in range(1, len(whole))
            if whole[k - 1].score == whole[k].score
        )
        extractor = BioTexExtractor(
            tagger=LexiconTagger(scenario.pos_lexicon), measure=measure
        )
        if whole_first:
            assert extractor.extract(corpus) == whole
        # Shrinking and growing prefixes, past the end of the ranking.
        for k in (3, 1, tie, tie + 1, 60, len(whole) + 5):
            top = extractor.extract(corpus, top_k=k)
            assert top == whole[:k]
            ranks = [term.rank for term in top]
            assert ranks == list(range(1, min(k, len(whole)) + 1))
        if not whole_first:
            assert extractor.extract(corpus) == whole

    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    def test_tied_prefix_asked_first(self, scenario, measure):
        # A fresh ranking whose first prefix ends inside a tie group.
        corpus = scenario.corpus
        whole = BioTexExtractor(
            tagger=LexiconTagger(scenario.pos_lexicon), measure=measure
        ).extract(corpus)
        tie = next(
            k
            for k in range(1, len(whole))
            if whole[k - 1].score == whole[k].score
        )
        for k in (tie, tie + 1):
            extractor = BioTexExtractor(
                tagger=LexiconTagger(scenario.pos_lexicon), measure=measure
            )
            assert extractor.extract(corpus, top_k=k) == whole[:k]
            assert extractor.extract(corpus) == whole

    def test_prefix_then_grown_corpus_matches_fresh(self, scenario):
        documents = list(scenario.corpus)
        extractor = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        assert len(extractor.extract(Corpus(documents[:-1]), top_k=3)) == 3
        grown = Corpus(documents)
        fresh = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        assert extractor.extract(grown) == fresh.extract(grown)
