"""Step IV's context space against the reference ``TfidfVectorizer``.

:class:`~repro.linkage.context.TermContextIndex` builds its TF-IDF space
with numpy from (term, word) counts, and reuses it while the corpus
fingerprint, the window and the term list stay the same.  The oracle is
the route it replaced: one document per term from the windows of
:meth:`~repro.corpus.index.CorpusIndex.occurrence_records`, fitted by
the reference vectoriser of ``tests/context_oracles.py`` and densified.  Every row and
cosine must equal the oracle's bytes, a repeated build must retrieve
nothing, a grown corpus must be read through its new documents only,
and after any change a reused index must equal a fresh build.
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.linkage.context import TermContextIndex

from context_oracles import TfidfVectorizer

WORDS = ("cornea", "injury", "ulcer", "acute", "healing", "of", "the", "lens")

sentences = st.lists(
    st.sampled_from(WORDS).map(str.lower) | st.sampled_from(WORDS).map(str.title),
    max_size=8,
)
documents = st.lists(st.lists(sentences, max_size=3), min_size=1, max_size=5)
# Terms: one to three words in any case and spacing, so that some repeat
# after normalisation, some are token-prefixes of others and some never
# occur ("zzz" is in no document).
terms = st.lists(
    st.lists(
        st.sampled_from(WORDS + ("zzz",)).map(str.lower)
        | st.sampled_from(WORDS).map(str.upper),
        min_size=1,
        max_size=3,
    ).map(" ".join)
    | st.sampled_from(["Cornea  Injury", "cornea injury", "zzz qqq"]),
    min_size=1,
    max_size=8,
)


def make_corpus(docs, first=0):
    return Corpus(
        Document(f"d{first + i}", doc_sentences) for i, doc_sentences in enumerate(docs)
    )


def oracle(corpus, term_list, window):
    """``{term: (dense row, n_contexts)}`` from the vectoriser route."""
    records = corpus.index().occurrence_records(term_list, window=window)
    documents = [
        [token for __, context in entries for token in context]
        for entries in records.values()
    ]
    matrix = TfidfVectorizer().fit_transform(documents).toarray()
    return {
        term: (matrix[i], len(entries))
        for i, (term, entries) in enumerate(records.items())
    }


def space(index, keys):
    """Every row's bytes, context count and pairwise cosine, as hex."""
    return (
        [(index.vector(key).tobytes(), index.n_contexts(key)) for key in keys],
        [index.cosine(a, b).hex() for a in keys for b in keys],
    )


def assert_matches_oracle(index, corpus, term_list, window):
    expected = oracle(corpus, term_list, window)
    keys = list(expected)
    assert space(index, keys) == (
        [(row.tobytes(), n) for row, n in expected.values()],
        [float(expected[a][0] @ expected[b][0]).hex() for a in keys for b in keys],
    )


def counting_retrievals():
    """Patch ``CorpusIndex.occurrence_records`` to count its calls."""
    return mock.patch.object(
        CorpusIndex,
        "occurrence_records",
        autospec=True,
        side_effect=CorpusIndex.occurrence_records,
    )


class TestContextIndexOracle:
    @given(
        docs=documents,
        added=documents,
        term_list=terms,
        extra=terms,
        window=st.integers(min_value=1, max_value=4),
    )
    # A second abstract adds contexts of a term that had none, and
    # "ulcer" is a term without contexts beside one with some.
    @example(
        docs=[[["acute", "cornea", "injury", "of", "the", "lens"]]],
        added=[[["ulcer", "healing"]]],
        term_list=["cornea injury", "ulcer", "Cornea"],
        extra=["lens"],
        window=2,
    )
    @settings(max_examples=200, deadline=None)
    def test_space_equals_the_vectorizer_route_and_reuse_equals_a_rebuild(
        self, docs, added, term_list, extra, window
    ):
        corpus = make_corpus(docs)
        index = TermContextIndex(corpus, window=window).build(term_list)
        assert_matches_oracle(index, corpus, term_list, window)

        # The same fingerprint, window and terms: nothing is retrieved.
        with counting_retrievals() as retrievals:
            assert index.build(list(term_list)) is index
        assert retrievals.call_count == 0
        assert_matches_oracle(index, corpus, term_list, window)

        # Another term list, another window, a grown corpus (its cached
        # index patched in place): each equals a fresh build.
        grown = term_list + extra
        index.build(grown)
        assert_matches_oracle(index, corpus, grown, window)
        index.build(term_list)
        assert_matches_oracle(index, corpus, term_list, window)
        index.attach(corpus, window=window + 1).build(term_list)
        assert_matches_oracle(index, corpus, term_list, window + 1)
        for doc in make_corpus(added, first=len(docs)):
            corpus.add(doc)
        with counting_retrievals() as retrievals:
            index.build(term_list)
        # One retrieval, over an index of the added documents only.
        assert [call.args[0].n_documents() for call in retrievals.call_args_list] == [
            len(added)
        ]
        assert_matches_oracle(index, corpus, term_list, window + 1)
