"""Parity tests: CorpusIndex answers must match the legacy document scans.

The reference implementations below are verbatim ports of the pre-index
retrieval code (``Corpus.contexts_for_term``'s greedy document scan and
``linkage.context.find_occurrence_records``'s one-pass multi-term scan).
Randomized corpora over a tiny vocabulary force the hard cases: repeated
tokens, overlapping occurrences, multi-token needles, and windows clipped
at document boundaries.  An index extended through ``add_documents``
must answer every query — and carry the fingerprint — of a fresh build
over the same documents (:func:`assert_full_parity`, shared with the
index-store suite).
"""

import random

import pytest

from repro.corpus.corpus import Corpus, TermContext
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.errors import CorpusError


# -- reference (legacy) implementations -------------------------------------


def scan_contexts(corpus, term, *, window=10):
    """The pre-index Corpus.contexts_for_term document scan, verbatim."""
    if isinstance(term, str):
        needle = tuple(term.lower().split())
    else:
        needle = tuple(t.lower() for t in term)
    span = len(needle)
    contexts = []
    for doc in corpus:
        tokens = doc.tokens()
        n = len(tokens)
        i = 0
        while i <= n - span:
            if tuple(tokens[i : i + span]) == needle:
                left = tokens[max(0, i - window) : i]
                right = tokens[i + span : i + span + window]
                contexts.append(
                    TermContext(
                        doc_id=doc.doc_id,
                        tokens=tuple(left + right),
                        position=i,
                    )
                )
                i += span
            else:
                i += 1
    return contexts


def scan_occurrence_records(corpus, terms, *, window=10):
    """The pre-index find_occurrence_records one-pass scan, verbatim."""
    needles = {}
    by_first = {}
    for term in terms:
        tokens = tuple(term.lower().split())
        if not tokens:
            continue
        needles[" ".join(tokens)] = []
        by_first.setdefault(tokens[0], []).append(tokens)
    for candidates in by_first.values():
        candidates.sort(key=len, reverse=True)
    for doc in corpus:
        tokens = doc.tokens()
        n = len(tokens)
        for i, token in enumerate(tokens):
            for needle in by_first.get(token, ()):
                span = len(needle)
                if i + span <= n and tuple(tokens[i : i + span]) == needle:
                    left = tokens[max(0, i - window) : i]
                    right = tokens[i + span : i + span + window]
                    needles[" ".join(needle)].append(
                        (doc.doc_id, tuple(left + right))
                    )
                    break
    return needles


def random_documents(rng, *, n_docs=9, vocab=("a", "b", "c", "d")):
    docs = []
    for i in range(n_docs):
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(1, 4))
        ]
        docs.append(Document(f"d{i}", sentences))
    return docs


def random_corpus(rng, *, n_docs=6, vocab=("a", "b", "c", "d")):
    return Corpus(random_documents(rng, n_docs=n_docs, vocab=vocab))


def random_terms(rng, *, vocab=("a", "b", "c", "d"), n_terms=8):
    terms = set()
    while len(terms) < n_terms:
        length = rng.randint(1, 3)
        terms.add(" ".join(rng.choice(vocab) for _ in range(length)))
    return sorted(terms)


def token_documents(index):
    """Every document's decoded tokens, in corpus order."""
    return [index.document_tokens(i) for i in range(index.n_documents())]


def assert_full_parity(candidate, reference, terms):
    """Every query method of ``candidate`` matches ``reference``."""
    assert candidate.fingerprint() == reference.fingerprint()
    assert candidate.n_documents() == reference.n_documents()
    assert candidate.n_tokens() == reference.n_tokens()
    assert candidate.vocabulary_size() == reference.vocabulary_size()
    assert candidate.doc_lengths() == reference.doc_lengths()
    assert token_documents(candidate) == token_documents(reference)
    for term in terms:
        assert candidate.phrase_occurrences(term) == \
            reference.phrase_occurrences(term), term
        assert candidate.term_frequency(term) == \
            reference.term_frequency(term), term
        assert candidate.document_frequency(term) == \
            reference.document_frequency(term), term
        for window in (1, 3, 50):
            assert candidate.contexts_for_term(term, window=window) == \
                reference.contexts_for_term(term, window=window), (term, window)
        for token in term.split():
            assert candidate.token_frequency(token) == \
                reference.token_frequency(token)
    for window in (1, 20):
        assert candidate.occurrence_records(terms, window=window) == \
            reference.occurrence_records(terms, window=window)


# -- randomized parity -------------------------------------------------------


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_contexts_match_legacy_scan(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        index = CorpusIndex(corpus)
        for term in random_terms(rng):
            for window in (1, 2, 5, 50):
                assert index.contexts_for_term(term, window=window) == \
                    scan_contexts(corpus, term, window=window), (term, window)

    @pytest.mark.parametrize("seed", range(12))
    def test_frequencies_match_legacy_scan(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        index = CorpusIndex(corpus)
        for term in random_terms(rng):
            legacy = scan_contexts(corpus, term, window=1)
            assert index.term_frequency(term) == len(legacy)
            assert index.document_frequency(term) == \
                len({c.doc_id for c in legacy})

    @pytest.mark.parametrize("seed", range(12))
    def test_occurrence_records_match_legacy_scan(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        index = CorpusIndex(corpus)
        terms = random_terms(rng)
        for window in (1, 3, 20):
            assert index.occurrence_records(terms, window=window) == \
                scan_occurrence_records(corpus, terms, window=window)

    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_delegates_to_index(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        for term in random_terms(rng, n_terms=4):
            assert corpus.contexts_for_term(term, window=3) == \
                scan_contexts(corpus, term, window=3)
            assert corpus.term_frequency(term) == \
                len(scan_contexts(corpus, term, window=1))


# -- targeted edge cases -----------------------------------------------------


class TestEdgeSemantics:
    def test_self_overlapping_term_consumed_greedily(self):
        # "a a" in "a a a a a": the scan steps over matched tokens.
        corpus = Corpus([Document("d", [["a", "a", "a", "a", "a"]])])
        index = CorpusIndex(corpus)
        contexts = index.contexts_for_term("a a", window=2)
        assert [c.position for c in contexts] == [0, 2]
        assert index.term_frequency("a a") == 2

    def test_occurrence_records_report_overlaps(self):
        # The multi-term retrieval reports every start position instead.
        corpus = Corpus([Document("d", [["a", "a", "a", "a"]])])
        index = CorpusIndex(corpus)
        records = index.occurrence_records(["a a"], window=1)
        assert len(records["a a"]) == 3

    def test_longest_match_wins_at_shared_start(self):
        corpus = Corpus(
            [Document("d", [["corneal", "injury", "repair", "done"]])]
        )
        index = CorpusIndex(corpus)
        records = index.occurrence_records(
            ["corneal injury", "corneal injury repair"], window=2
        )
        assert records["corneal injury"] == []
        assert records["corneal injury repair"] == [("d", ("done",))]

    def test_window_clips_at_document_boundaries(self):
        corpus = Corpus(
            [
                Document("d1", [["x", "term", "y"]]),
                Document("d2", [["term"]]),
            ]
        )
        index = CorpusIndex(corpus)
        contexts = index.contexts_for_term("term", window=50)
        assert contexts[0].tokens == ("x", "y")
        assert contexts[1].tokens == ()

    def test_window_never_crosses_documents(self):
        corpus = Corpus(
            [
                Document("d1", [["alpha", "beta"]]),
                Document("d2", [["term", "gamma"]]),
            ]
        )
        index = CorpusIndex(corpus)
        (ctx,) = index.contexts_for_term("term", window=10)
        assert "beta" not in ctx.tokens

    def test_multi_token_needle_anchors_on_rarest_token(self):
        # "b" is rarer than "a"; lookup must still find every occurrence.
        corpus = Corpus(
            [Document("d", [["a", "a", "b", "a", "a", "b", "a"]])]
        )
        index = CorpusIndex(corpus)
        contexts = index.contexts_for_term("a b a", window=1)
        assert [c.position for c in contexts] == [1, 4]

    def test_case_insensitive_lookup(self):
        corpus = Corpus([Document("d", [["corneal", "injury"]])])
        index = CorpusIndex(corpus)
        assert index.term_frequency(["Corneal", "Injury"]) == 1

    def test_mixed_case_document_is_findable(self):
        # Regression: postings used to keep raw doc.tokens() while every
        # lookup lower-cased its needle, so a Document constructed
        # directly with mixed-case sentences silently returned zero
        # occurrences.  Tokens are now normalised at build time.
        corpus = Corpus([Document("d", [["Corneal", "INJURY", "heals"]])])
        index = CorpusIndex(corpus)
        assert index.term_frequency("corneal injury") == 1
        assert index.term_frequency("Corneal Injury") == 1
        assert index.token_frequency("INJURY") == 1
        (context,) = index.contexts_for_term("corneal injury")
        assert context.tokens == ("heals",)
        assert index.occurrence_records(["corneal injury"]) == {
            "corneal injury": [("d", ("heals",))]
        }
        assert token_documents(index) == [["corneal", "injury", "heals"]]

    def test_mixed_case_and_lower_case_corpora_share_fingerprint(self):
        mixed = CorpusIndex(Corpus([Document("d", [["Corneal", "Injury"]])]))
        lower = CorpusIndex(Corpus([Document("d", [["corneal", "injury"]])]))
        assert mixed.fingerprint() == lower.fingerprint()

    def test_unknown_term_is_empty_not_error(self):
        index = CorpusIndex(Corpus([Document("d", [["a"]])]))
        assert index.contexts_for_term("zzz") == []
        assert index.term_frequency("zzz") == 0
        assert index.document_frequency("zzz z") == 0

    def test_empty_term_raises(self):
        index = CorpusIndex(Corpus([Document("d", [["a"]])]))
        with pytest.raises(CorpusError):
            index.contexts_for_term("")
        with pytest.raises(CorpusError):
            index.term_frequency([])

    def test_bad_window_raises(self):
        index = CorpusIndex(Corpus([Document("d", [["a"]])]))
        with pytest.raises(CorpusError):
            index.contexts_for_term("a", window=0)

    def test_statistics(self):
        corpus = Corpus(
            [
                Document("d1", [["a", "b"], ["c"]]),
                Document("d2", [["a"]]),
            ]
        )
        index = CorpusIndex(corpus)
        assert index.n_documents() == 2
        assert index.n_tokens() == 4
        assert index.vocabulary_size() == 3
        assert index.doc_lengths() == {"d1": 3, "d2": 1}
        assert token_documents(index) == [["a", "b", "c"], ["a"]]
        assert index.token_frequency("a") == 2
        assert index.token_frequency("zzz") == 0


# -- the corpus-level cache --------------------------------------------------


class TestCorpusIndexCache:
    def test_index_is_cached(self):
        corpus = Corpus([Document("d", [["a", "b"]])])
        assert corpus.index() is corpus.index()

    def test_add_patches_cached_index_in_place(self):
        corpus = Corpus([Document("d1", [["a"]])])
        first = corpus.index()
        corpus.add(Document("d2", [["a"]]))
        patched = corpus.index()
        assert patched is first  # extended, not rebuilt
        assert patched.n_documents() == 2
        assert corpus.term_frequency("a") == 2
        assert patched.fingerprint() == CorpusIndex(corpus).fingerprint()

    def test_add_before_first_index_builds_covering_index(self):
        corpus = Corpus([Document("d1", [["a"]])])
        corpus.add(Document("d2", [["a", "b"]]))
        assert corpus.index().n_documents() == 2
        assert corpus.term_frequency("a") == 2

    def test_add_duplicate_id_raises_identical_error(self):
        corpus = Corpus([Document("d1", [["a"]])])
        with pytest.raises(CorpusError, match="duplicate document id 'd1'"):
            corpus.add(Document("d1", [["b"]]))

    def test_init_duplicate_ids_raise(self):
        with pytest.raises(CorpusError, match="duplicate document ids"):
            Corpus([Document("d", [["a"]]), Document("d", [["b"]])])

    def test_document_lookup_after_add(self):
        corpus = Corpus([Document("d1", [["a"]])])
        corpus.add(Document("d2", [["b"]]))
        assert corpus.document("d2").doc_id == "d2"
        with pytest.raises(CorpusError, match="unknown document id"):
            corpus.document("d3")


class TestDocLengthsCache:
    """`doc_lengths()` returns one cached dict, invalidated on growth."""

    def test_repeat_calls_share_one_dict(self):
        index = CorpusIndex(
            [Document("d1", [["a", "b"]]), Document("d2", [["c"]])]
        )
        first = index.doc_lengths()
        assert first == {"d1": 2, "d2": 1}
        assert index.doc_lengths() is first  # allocation-free repeat

    def test_add_documents_invalidates(self):
        index = CorpusIndex([Document("d1", [["a", "b"]])])
        before = index.doc_lengths()
        index.add_documents([Document("d2", [["c", "d", "e"]])])
        after = index.doc_lengths()
        assert after is not before
        assert after == {"d1": 2, "d2": 3}
        assert index.doc_lengths() is after

    def test_empty_add_keeps_cache(self):
        index = CorpusIndex([Document("d1", [["a"]])])
        cached = index.doc_lengths()
        index.add_documents([])
        assert index.doc_lengths() is cached


class TestIncrementalParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_add_documents_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        docs = random_documents(rng)
        split = rng.randint(0, len(docs))
        incremental = CorpusIndex(docs[:split])
        incremental.add_documents(docs[split:])
        assert_full_parity(incremental, CorpusIndex(docs), random_terms(rng))

    def test_fingerprint_extends_chain_per_document(self):
        docs = [Document(f"d{i}", [["x", "y"]]) for i in range(4)]
        grown = CorpusIndex([])
        for doc in docs:
            grown.add_documents([doc])
        assert grown.fingerprint() == CorpusIndex(docs).fingerprint()

    def test_add_documents_changes_fingerprint(self):
        index = CorpusIndex([Document("d0", [["a"]])])
        before = index.fingerprint()
        index.add_documents([Document("d1", [["a"]])])
        assert index.fingerprint() != before

    def test_duplicate_ids_rejected_before_any_mutation(self):
        index = CorpusIndex([Document("d0", [["a"]])])
        fingerprint = index.fingerprint()
        with pytest.raises(CorpusError, match="duplicate document id"):
            index.add_documents(
                [Document("d1", [["b"]]), Document("d0", [["c"]])]
            )
        # The batch was rejected atomically: d1 was never applied.
        assert index.n_documents() == 1
        assert index.fingerprint() == fingerprint
        with pytest.raises(CorpusError, match="duplicate document id"):
            index.add_documents(
                [Document("dup", [["b"]]), Document("dup", [["c"]])]
            )

    def test_mixed_case_documents_normalised_on_add(self):
        index = CorpusIndex([Document("d0", [["corneal", "injury"]])])
        index.add_documents([Document("d1", [["Corneal", "Injury"]])])
        assert index.term_frequency("corneal injury") == 2
        assert index.document_frequency("corneal injury") == 2


class TestAllOrNothingAdds:
    """Regression: a rejected batch must leave no trace whatsoever.

    A document whose tokenisation raises mid-batch must not leave the
    index partially extended with the fingerprint chain advanced.
    """

    @staticmethod
    def snapshot(index, terms):
        return (
            index.fingerprint(),
            index.n_documents(),
            index.n_tokens(),
            index.doc_lengths(),
            {t: index.phrase_occurrences(t) for t in terms},
        )

    def test_failing_tokenisation_mid_batch_leaves_no_trace(self):
        rng = random.Random(23)
        docs = random_documents(rng)
        terms = random_terms(rng)
        index = CorpusIndex(docs)
        before = self.snapshot(index, terms)
        # tokens() runs caller code; a non-string "token" makes the
        # build-time lower-casing raise after a good document.
        with pytest.raises(AttributeError):
            index.add_documents(
                [Document("n0", [["fine"]]), Document("n1", [["a", 3]])]
            )
        assert self.snapshot(index, terms) == before
        # The index still works and accepts the valid part afterwards.
        index.add_documents([Document("n0", [["fine"]])])
        assert index.term_frequency("fine") == 1
