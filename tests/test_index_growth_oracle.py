"""Grown indexes against a fresh build over all their documents.

:meth:`CorpusIndex.add_documents` appends to the token column and
inserts each new posting at the end of its token's run.  Whether the
index was built in memory or opened from an :class:`IndexStore`
generation, every query of the grown index must answer exactly as a
fresh build over the whole document sequence does; a snapshot taken
before a growth must keep answering as the index did then, and grow
on a branch of its own; growing an
opened index must leave its generation's files as they were; a grown
index must save and reopen unchanged; and a rejected batch must leave
no trace.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import IndexStore
from repro.errors import CorpusError

WORDS = ("cornea", "injury", "acute", "ulcer", "of", "the")

tokens = st.sampled_from(WORDS).flatmap(
    lambda word: st.sampled_from([word, word.upper(), word.title()])
)
# Empty sentences and empty documents included.
documents = st.lists(st.lists(st.lists(tokens, max_size=8), max_size=3), max_size=12)
# 1–3 tokens, mixed case, repeats after normalisation, absent tokens.
terms = st.lists(
    st.lists(
        st.sampled_from(WORDS + ("zzz",)).flatmap(
            lambda word: st.sampled_from([word, word.title()])
        ),
        min_size=1,
        max_size=3,
    ).map(" ".join),
    min_size=1,
    max_size=8,
)
# Cut points: the base, then one to three appended batches.
cuts = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3)
KINDS = ["built", "opened"]


def answers(index, term_list):
    """Every query of ``index``, over ``term_list`` where one is asked."""
    return {
        "fingerprint": index.fingerprint(),
        "n_documents": index.n_documents(),
        "n_tokens": index.n_tokens(),
        "vocabulary_size": index.vocabulary_size(),
        "doc_lengths": index.doc_lengths(),
        "document_tokens": [
            index.document_tokens(i) for i in range(index.n_documents())
        ],
        "terms": {
            term: (
                index.phrase_occurrences(term),
                index.term_frequency(term),
                index.document_frequency(term),
                index.contexts_for_term(term, window=1),
                index.contexts_for_term(term, window=4),
            )
            for term in term_list
        },
        "records": [
            index.occurrence_records(term_list, window=window) for window in (1, 4)
        ],
    }


def generation_files(store, fingerprint):
    return {
        path.name: path.read_bytes()
        for path in store.path_for(fingerprint).iterdir()
    }


def indexed(kind, store, docs):
    """An index over ``docs``: built in memory, or opened from ``store``."""
    if kind == "built":
        return CorpusIndex(docs)
    return store.open(store.save(CorpusIndex(docs)).name)


class TestGrowthOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @given(drawn=documents, cut_points=cuts, term_list=terms)
    @settings(max_examples=60, deadline=None)
    def test_grown_index_answers_as_a_fresh_build(
        self, kind, drawn, cut_points, term_list
    ):
        docs = [Document(f"d{i}", sentences) for i, sentences in enumerate(drawn)]
        bounds = sorted(min(cut, len(docs)) for cut in cut_points) + [len(docs)]
        with tempfile.TemporaryDirectory() as root:
            store = IndexStore(Path(root) / "store")
            index = indexed(kind, store, docs[: bounds[0]])
            base = answers(CorpusIndex(docs[: bounds[0]]), term_list)
            assert answers(index, term_list) == base
            files = (
                generation_files(store, index.fingerprint())
                if kind == "opened"
                else None
            )
            snapshot = index.snapshot()
            for start, end in zip(bounds, bounds[1:]):
                index.add_documents(docs[start:end])
                assert answers(index, term_list) == answers(
                    CorpusIndex(docs[:end]), term_list
                )
                assert answers(snapshot, term_list) == base
            if files is not None:
                assert generation_files(store, base["fingerprint"]) == files
            # The snapshot grows on a branch of its own, in another order,
            # and leaves the index it was taken from as it was.
            grown = answers(index, term_list)
            branch = docs[: bounds[0]] + docs[bounds[0] :][::-1]
            snapshot.add_documents(branch[bounds[0] :])
            assert answers(snapshot, term_list) == answers(CorpusIndex(branch), term_list)
            assert answers(index, term_list) == grown
            reopened = store.open(store.save(index).name)
            assert answers(reopened, term_list) == answers(index, term_list)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "rejected",
        [
            Document("d0", [["acute"]]),  # a duplicate id
            Document("bad", [["cornea", ""]]),  # an empty token
            Document("bad", [["cornea", 3]]),  # tokenisation fails
        ],
        ids=["duplicate", "empty-token", "tokeniser-error"],
    )
    @given(drawn=documents, term_list=terms)
    @settings(max_examples=15, deadline=None)
    def test_rejected_batch_leaves_no_trace(self, kind, rejected, drawn, term_list):
        docs = [Document(f"d{i}", sentences) for i, sentences in enumerate(drawn)]
        docs = docs or [Document("d0", [["zzz"]])]
        with tempfile.TemporaryDirectory() as root:
            index = indexed(kind, IndexStore(Path(root) / "store"), docs)
            before = answers(index, term_list)
            with pytest.raises((CorpusError, AttributeError)):
                index.add_documents([Document("fresh", [["zzz", "ulcer"]]), rejected])
            assert answers(index, term_list) == before
            index.add_documents([Document("fresh", [["zzz", "ulcer"]])])
            assert index.term_frequency("zzz ulcer") == 1
