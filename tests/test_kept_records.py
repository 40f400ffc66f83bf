"""Kept occurrence records against a from-scratch retrieval.

:class:`~repro.corpus.index.KeptOccurrenceRecords` rests on two facts
about :meth:`CorpusIndex.occurrence_records`, checked here over the
in-memory index, the mmap-backed one, and one opened from a store over
a prefix of the documents, then grown by the rest, alike:

* the records over a corpus are the records of its first ``k``
  documents followed by those of the rest, term by term, for every
  split point ``k``;
* a term's records under a term list equal its records under only the
  list terms that share its first token.

After any sequence of updates (appended batches, term-list edits, a
corpus that does not extend the kept one) the kept records must equal
a from-scratch ``occurrence_records``, and the Step IV space built on
them the ``TfidfVectorizer`` route byte for byte.  A one-document delta
must retrieve occurrences from indexes of that document only.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex, KeptOccurrenceRecords
from repro.corpus.index_store import IndexStore
from repro.extraction.extractor import RankedTerm
from repro.linkage.context import TermContextIndex
from repro.ontology.model import Ontology
from repro.polysemy.cache import FeatureCache, context_digest
from repro.polysemy.detector import PolysemyDetector
from repro.polysemy.features import PolysemyFeatureExtractor
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import (
    CandidateWork,
    DetectStage,
    OntologyEnricher,
    PipelineContext,
)
from repro.workflow.report import TermReport
from repro.workflow.streaming import StreamingEnricher
from test_context_index_oracle import assert_matches_oracle

WORDS = ("acute", "cornea", "injury", "ulcer", "of", "the", "lens", "healing")

sentences = st.lists(
    st.sampled_from(WORDS) | st.sampled_from(WORDS).map(str.title), max_size=8
)
batches = st.lists(st.lists(sentences, max_size=3), max_size=4)
# Terms sharing first tokens, nested in one another (token prefixes and
# suffixes), repeated after normalisation, and absent ("zzz").
terms = st.lists(
    st.lists(st.sampled_from(WORDS + ("zzz",)), min_size=1, max_size=3).map(" ".join)
    | st.sampled_from(
        ["cornea injury", "Cornea  Injury", "cornea", "cornea injury ulcer", "zzz qqq"]
    ),
    max_size=10,
)
windows = st.integers(min_value=1, max_value=12)
KINDS = ["memory", "mmap", "grown"]


def documents(batch, first):
    return [Document(f"d{first + i}", doc) for i, doc in enumerate(batch)]


@contextmanager
def indexer(kind):
    """A function from documents to an index of ``kind``.

    ``grown`` opens a store generation over the first half of the
    documents and grows it by the rest.
    """
    if kind == "memory":
        yield CorpusIndex
        return
    with tempfile.TemporaryDirectory() as root:
        store = IndexStore(Path(root))
        if kind == "mmap":
            yield store.load_or_build
            return

        def grown(docs):
            index = store.load_or_build(docs[: len(docs) // 2])
            index.add_documents(docs[len(docs) // 2 :])
            return index

        yield grown


def first_token(term):
    return term.lower().split()[0] if term.split() else None


class TestFacts:
    @pytest.mark.parametrize("kind", KINDS)
    @given(batch=batches, term_list=terms, window=windows)
    @settings(max_examples=60, deadline=None)
    def test_records_split_at_every_document(self, kind, batch, term_list, window):
        docs = documents(batch, 0)
        with indexer(kind) as index_of:
            whole = index_of(docs).occurrence_records(term_list, window=window)
            for k in range(len(docs) + 1):
                head = index_of(docs[:k]).occurrence_records(term_list, window=window)
                tail = index_of(docs[k:]).occurrence_records(term_list, window=window)
                assert list(head) == list(tail) == list(whole)
                for key, records in whole.items():
                    assert records == head[key] + tail[key]

    @pytest.mark.parametrize("kind", KINDS)
    @given(batch=batches, term_list=terms, window=windows)
    @settings(max_examples=60, deadline=None)
    def test_records_depend_only_on_the_first_token_group(
        self, kind, batch, term_list, window
    ):
        with indexer(kind) as index_of:
            index = index_of(documents(batch, 0))
            whole = index.occurrence_records(term_list, window=window)
            for key, records in whole.items():
                group = [t for t in term_list if first_token(t) == key.split()[0]]
                assert index.occurrence_records(group, window=window)[key] == records


# One step: documents to append, and the term list from then on (None
# keeps it).
steps = st.lists(st.tuples(batches, st.none() | terms), min_size=1, max_size=3)


class TestKeptRecords:
    @pytest.mark.parametrize("kind", KINDS)
    @given(
        base=batches,
        term_list=terms,
        window=windows,
        updates=steps,
        drop=st.integers(min_value=0, max_value=20),
    )
    # Growth that changes which term wins at a start position, then an
    # edit that adds a longer term sharing a first token.
    @example(
        base=[[["acute", "cornea", "injury"]]],
        term_list=["cornea", "cornea injury ulcer"],
        window=1,
        updates=[
            ([[["cornea", "injury", "ulcer", "of"]]], None),
            ([], ["cornea", "cornea injury", "lens"]),
        ],
        drop=0,
    )
    @settings(max_examples=80, deadline=None)
    def test_kept_records_equal_a_fresh_retrieval(
        self, kind, base, term_list, window, updates, drop
    ):
        corpus = Corpus(documents(base, 0))
        kept = KeptOccurrenceRecords(window=window)
        with indexer(kind) as index_of:

            def check(corpus, term_list):
                index = index_of(list(corpus))
                before = dict(kept.records)
                changed = kept.update(corpus, index, term_list)
                expected = index.occurrence_records(term_list, window=window)
                assert kept.records == expected
                assert list(kept.records) == list(expected)
                # Every key outside ``changed`` kept its records.
                for key in set(expected) - changed:
                    assert before.get(key) == expected[key]

            check(corpus, term_list)
            for batch, edited in updates:
                for doc in documents(batch, len(corpus)):
                    corpus.add(doc)
                term_list = term_list if edited is None else edited
                check(corpus, term_list)
            # A corpus that does not extend the kept one: a document
            # dropped, or a document appended to a shorter prefix.
            docs = list(corpus)
            if docs:
                del docs[drop % len(docs)]
                check(Corpus(docs), term_list)
                check(Corpus(docs + documents([[["acute", "ulcer"]]], 99)), term_list)

    @given(base=batches, term_list=terms, window=windows, updates=steps)
    @settings(max_examples=60, deadline=None)
    def test_updated_space_equals_the_vectorizer_route(
        self, base, term_list, window, updates
    ):
        corpus = Corpus(documents(base, 0))
        space = TermContextIndex(corpus, window=window).build(term_list)
        assert_matches_oracle(space, corpus, term_list, window)
        for batch, edited in updates:
            for doc in documents(batch, len(corpus)):
                corpus.add(doc)
            term_list = term_list if edited is None else edited
            space.build(term_list)
            assert_matches_oracle(space, corpus, term_list, window)
        shorter = Corpus(list(corpus)[:-1])
        space.attach(shorter, window=window).build(term_list)
        assert_matches_oracle(space, shorter, term_list, window)


@pytest.fixture(scope="module")
def scenario():
    return make_enrichment_scenario(seed=4, n_concepts=20, docs_per_concept=4)


def comparable(report) -> dict:
    """``to_dict()`` minus the run-time measurements."""
    return {
        k: v for k, v in report.to_dict().items() if k not in ("timings", "cache")
    }


class TestDeltaReadsOnlyTheDelta:
    @staticmethod
    def delta(scenario, tmp_path, persisted, source):
        """Stream abstract ``source`` again; return (diff, retrievals, lists).

        ``retrievals`` holds ``(documents indexed, terms asked)`` per
        ``occurrence_records`` call, and ``lists`` the Step IV term list
        before and after the delta.
        """
        config = EnrichmentConfig(index_dir=str(tmp_path) if persisted else None)
        docs = list(scenario.corpus)
        streamer = StreamingEnricher(
            scenario.ontology,
            Corpus(docs),
            enricher=OntologyEnricher(
                scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
            ),
        )
        streamer.baseline()
        arrival = Document("late-1", docs[source].sentences)
        retrievals = []
        original = CorpusIndex.occurrence_records

        def counting(index, term_list, *, window=10):
            term_list = list(term_list)
            retrievals.append((index.n_documents(), term_list))
            return original(index, term_list, window=window)

        kept = streamer.enricher._link.context_index._records
        before = list(kept.records)
        with mock.patch.object(CorpusIndex, "occurrence_records", counting):
            diff = streamer.add_documents([arrival])
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus([*docs, arrival]))
        assert comparable(streamer.report) == comparable(fresh)
        assert diff.changed_terms, "the arrival must mention known terms"
        return diff, retrievals, (before, list(kept.records))

    @pytest.mark.parametrize("persisted", [False, True])
    def test_one_document_delta_retrieves_from_its_document_only(
        self, scenario, tmp_path, persisted
    ):
        # This abstract leaves the Step IV term list as it was.
        __, retrievals, (before, after) = self.delta(
            scenario, tmp_path, persisted, source=9
        )
        assert before == after
        # The changed-term probe, Step II training and Step IV.
        assert [n for n, __ in retrievals] == [1, 1, 1]

    @pytest.mark.parametrize("persisted", [False, True])
    def test_a_changed_term_list_looks_up_only_the_groups_it_touched(
        self, scenario, tmp_path, persisted
    ):
        # This abstract moves candidates into and out of Step IV's list.
        __, retrievals, (before, after) = self.delta(
            scenario, tmp_path, persisted, source=7
        )
        assert before != after
        touched = {key.split()[0] for key in set(before) ^ set(after)}
        whole = [terms for n, terms in retrievals if n > 1]
        assert len(whole) == 1
        assert {term.split()[0] for term in whole[0]} == touched
        assert len(whole[0]) < len(after)


def candidates(term_list):
    """One Step I candidate per term, in order."""
    return [
        CandidateWork(
            candidate=RankedTerm(
                term=term, tokens=tuple(term.split()), score=1.0, frequency=1,
                rank=rank,
            ),
            report=TermReport(term=term, extraction_score=1.0, extraction_rank=rank),
        )
        for rank, term in enumerate(term_list, start=1)
    ]


class TestKeptContexts:
    """Step II's kept candidate contexts against a fresh retrieval.

    After every update the kept contexts must equal
    ``index.contexts_for_term``, and each candidate's capped windows,
    document frequency and digest what the stride cap derives from
    those fresh contexts.
    """

    @pytest.mark.parametrize("kind", KINDS)
    @given(
        base=batches,
        term_list=terms.filter(bool),
        window=windows,
        cap=st.integers(min_value=1, max_value=5),
        updates=steps,
        drop=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_contexts_equal_a_fresh_retrieval(
        self, kind, base, term_list, window, cap, updates, drop
    ):
        config = EnrichmentConfig(
            context_window=window, min_contexts=1, max_contexts_per_term=cap
        )
        stage = DetectStage(
            PolysemyDetector(),
            PolysemyFeatureExtractor(window=window),
            trained=False,
            cache=FeatureCache(),
        )
        corpus = Corpus(documents(base, 0))
        with indexer(kind) as index_of:

            def check(corpus, term_list):
                index = index_of(list(corpus))
                before = dict(stage._kept.contexts)
                derived = dict(stage._kept.memo)
                ctx = PipelineContext(
                    corpus=corpus,
                    ontology=Ontology(),
                    config=config,
                    index=index,
                    work=candidates(term_list),
                )
                stage.run(ctx)
                kept = stage._kept
                fresh = {
                    term: index.contexts_for_term(term, window=window)
                    for term in term_list
                }
                assert kept.contexts == fresh
                # A derivation kept from an earlier run is one of a term
                # whose contexts did not change.
                for term, value in kept.memo.items():
                    if derived.get(term) is value:
                        assert before[term] == fresh[term]
                for item in ctx.work:
                    occurrences = fresh[item.candidate.term]
                    assert item.report.n_contexts == len(occurrences)
                    if not occurrences:
                        assert item.contexts is None
                        continue
                    if len(occurrences) > cap:
                        step = len(occurrences) / cap
                        occurrences = [occurrences[int(i * step)] for i in range(cap)]
                    windows_ = [c.tokens for c in occurrences]
                    frequency = len({c.doc_id for c in occurrences})
                    assert item.contexts == windows_
                    assert item.doc_frequency == frequency
                    assert item.context_digest == context_digest(windows_, frequency)

            check(corpus, term_list)
            # One document at a time, then whole batches, each with an
            # optional change of the candidate list.
            for doc in documents(updates[0][0][:1], len(corpus)):
                corpus.add(doc)
                check(corpus, term_list)
            for batch, edited in updates:
                for doc in documents(batch, len(corpus)):
                    if doc.doc_id not in {d.doc_id for d in corpus}:
                        corpus.add(doc)
                term_list = term_list if edited is None else edited or term_list
                check(corpus, term_list)
            # A corpus that does not extend the kept one: a document
            # dropped, then an unrelated corpus.
            docs = list(corpus)
            if docs:
                del docs[drop % len(docs)]
                check(Corpus(docs), term_list)
            check(Corpus(documents([[["the", "lens", "of", "acute", "ulcer"]]], 50)), term_list)
