"""Step IV neighbourhoods from postings against the whole-corpus graph.

The oracle is the graph the linker used to build: a
:class:`CooccurrenceGraphBuilder` over every document with every known
term merged, read through the graph-based ``mesh_neighborhood``,
falling back to all ontology terms when the neighbourhood is empty.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import IndexStore, MmapCorpusIndex
from repro.extraction.extractor import BioTexExtractor
from repro.linkage.linker import SemanticLinker
from repro.linkage.neighborhood import TermNeighborhoods
from repro.ontology.model import Concept, Ontology
from repro.scenarios import make_enrichment_scenario
from repro.text.cooccurrence import CooccurrenceGraphBuilder, TermMerger
from repro.text.postag import LexiconTagger

from graph_oracles import build_term_graph, mesh_neighborhood

INDEX_KINDS = ("monolithic", "mmap", "grown")


def make_index(kind, corpus, directory):
    """An index of ``kind`` over ``corpus``; ``grown`` opens a store
    generation over the first half of the documents, then grows it."""
    if kind == "monolithic":
        return CorpusIndex(corpus)
    documents = list(corpus)
    split = len(documents) if kind == "mmap" else len(documents) // 2
    index = IndexStore(directory).load_or_build(documents[:split])
    assert isinstance(index, MmapCorpusIndex)
    index.add_documents(documents[split:])
    return index


def oracle(ontology, corpus, known_terms, *, window, expand_hierarchy):
    """term -> positions, read off the whole-corpus co-occurrence graph."""
    builder = CooccurrenceGraphBuilder(
        window=window,
        stop_language=None,
        terms=[tuple(term.split()) for term in sorted(known_terms)],
    )
    __, graph = builder.build([document.tokens() for document in corpus])

    def positions(term):
        found = mesh_neighborhood(
            graph, ontology, term, expand_hierarchy=expand_hierarchy
        )
        return found or sorted(t for t in ontology.terms() if t != term)

    return positions


def nested_subterms(ontology):
    """Proper sub-spans of multi-word ontology terms that name nothing."""
    nested = set()
    for term in ontology.terms():
        tokens = term.split()
        if len(tokens) >= 2:
            nested.update({" ".join(tokens[1:]), " ".join(tokens[:-1])})
    return sorted(t for t in nested if not ontology.has_term(t))


class TestPostingsNeighborhoodsMatchGraph:
    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        n_concepts=st.integers(min_value=6, max_value=14),
        window=st.sampled_from([1, 2, 8]),
        expand_hierarchy=st.booleans(),
        kind=st.sampled_from(INDEX_KINDS),
    )
    @settings(max_examples=30, deadline=None)
    def test_positions_for_equals_graph_oracle(
        self, seed, n_concepts, window, expand_hierarchy, kind
    ):
        scenario = make_enrichment_scenario(
            seed=seed, n_concepts=n_concepts, docs_per_concept=2
        )
        ontology, corpus = scenario.ontology, scenario.corpus
        extractor = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        ranked = [t.term for t in extractor.extract(corpus, top_k=40)]
        unknown = [t for t in ranked if not ontology.has_term(t)]
        # Declare all but one unknown candidate, plus nested sub-terms;
        # the held-back candidate arrives unanticipated later.
        late = unknown[-1:]
        declared = [t for t in ranked if t not in late]
        declared += nested_subterms(ontology)[:4]
        with tempfile.TemporaryDirectory() as directory:
            index = make_index(kind, corpus, directory)
            linker = SemanticLinker(
                ontology,
                corpus,
                extra_terms=declared,
                graph_window=window,
                expand_hierarchy=expand_hierarchy,
                index=index,
            )
            known = set(ontology.terms()) | set(declared)
            expected = oracle(
                ontology,
                corpus,
                known,
                window=window,
                expand_hierarchy=expand_hierarchy,
            )
            for term in sorted(known):
                assert linker.positions_for(term) == expected(term), term

            if late:
                # An unanticipated candidate grows the known terms, which
                # can change the merge for every term: all must follow.
                known |= set(late)
                expected = oracle(
                    ontology,
                    corpus,
                    known,
                    window=window,
                    expand_hierarchy=expand_hierarchy,
                )
                assert linker.positions_for(late[0]) == expected(late[0])
                for term in sorted(known):
                    assert linker.positions_for(term) == expected(term), term

    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        window=st.sampled_from([1, 2, 8]),
        expand_hierarchy=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_candidate_positions_equals_term_graph(
        self, seed, window, expand_hierarchy
    ):
        scenario = make_enrichment_scenario(
            seed=seed, n_concepts=8, docs_per_concept=2
        )
        ontology, corpus = scenario.ontology, scenario.corpus
        candidates = ontology.terms()[:3] + nested_subterms(ontology)[:3]
        candidates.append("never seen anywhere")
        for candidate in candidates:
            graph = build_term_graph(corpus, ontology, candidate, window=window)
            found = mesh_neighborhood(
                graph, ontology, candidate, expand_hierarchy=expand_hierarchy
            ) or sorted(t for t in ontology.terms() if t != candidate)
            neighborhoods = TermNeighborhoods(
                ontology, corpus.index(), extra_terms=[candidate], window=window
            )
            assert neighborhoods.positions(
                candidate, expand_hierarchy=expand_hierarchy
            ) == found, candidate

    def test_term_held_as_one_token(self):
        # Documents given as token lists (the service accepts them) can
        # hold a whole multi-word term in one token; the merge keeps it,
        # so it is an occurrence the phrase postings alone do not find.
        ontology = Ontology("tiny")
        ontology.add_concept(Concept("A", "alpha term"))
        ontology.add_concept(Concept("B", "beta term"), fathers=["A"])
        ontology.add_concept(Concept("C", "gamma term"))
        corpus = Corpus(
            [
                Document("d1", [["beta term", "near", "alpha", "term"]]),
                Document("d2", [["gamma", "term", "alone"]]),
            ]
        )
        linker = SemanticLinker(ontology, corpus)
        expected = oracle(
            ontology,
            corpus,
            set(ontology.terms()),
            window=linker.graph_window,
            expand_hierarchy=True,
        )
        assert expected("beta term") == ["alpha term"]
        for term in ontology.terms():
            assert linker.positions_for(term) == expected(term), term


class TestKeptNeighborhoods:
    """One :class:`TermNeighborhoods` kept across corpus growth and term
    list changes answers what the graph oracle gives at every state."""

    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        window=st.sampled_from([1, 2, 8]),
        expand_hierarchy=st.booleans(),
        kind=st.sampled_from(INDEX_KINDS),
        first=st.integers(min_value=1, max_value=12),
        declared=st.lists(
            st.integers(min_value=0, max_value=12), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_kept_instance_matches_graph_oracle(
        self, seed, window, expand_hierarchy, kind, first, declared
    ):
        scenario = make_enrichment_scenario(
            seed=seed, n_concepts=8, docs_per_concept=2
        )
        ontology, documents = scenario.ontology, list(scenario.corpus)
        extractor = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
        unknown = [
            t.term
            for t in extractor.extract(scenario.corpus, top_k=40)
            if not ontology.has_term(t.term)
        ] + nested_subterms(ontology)
        first = min(first, len(documents) - 1)
        # (documents, declared candidates): growth with the same terms,
        # a term list change alone, then both at once.
        states = [
            (first, unknown[: declared[0]]),
            (first + 1, unknown[: declared[0]]),
            (first + 1, unknown[declared[1] :]),
            (len(documents), unknown[declared[2] : declared[2] + 6]),
        ]
        kept = None
        for n_documents, extra in states:
            corpus = Corpus(documents[:n_documents])
            with tempfile.TemporaryDirectory() as directory:
                index = make_index(kind, corpus, directory)
                if kept is None:
                    kept = TermNeighborhoods(
                        ontology, index, extra_terms=extra, window=window
                    )
                else:
                    kept.update(
                        ontology, corpus, index, extra_terms=extra, window=window
                    )
                known = set(ontology.terms()) | set(extra)
                expected = oracle(
                    ontology,
                    corpus,
                    known,
                    window=window,
                    expand_hierarchy=expand_hierarchy,
                )
                for term in sorted(known):
                    assert kept.positions(
                        term, expand_hierarchy=expand_hierarchy
                    ) == expected(term), (n_documents, term)

    def test_merges_only_what_changed(self, monkeypatch):
        scenario = make_enrichment_scenario(seed=3, n_concepts=8, docs_per_concept=2)
        ontology, documents = scenario.ontology, list(scenario.corpus)
        merged = []
        merge = TermMerger.merge

        def counting_merge(self, tokens):
            merged.append(tuple(tokens))
            return merge(self, tokens)

        monkeypatch.setattr(TermMerger, "merge", counting_merge)
        corpus = Corpus(documents[:-1])
        kept = TermNeighborhoods(ontology, corpus.index())
        terms = sorted(ontology.terms())

        def positions():
            return [kept.positions(term) for term in terms]

        positions()
        assert merged
        # An unchanged corpus and term list merge nothing.
        merged.clear()
        kept.update(ontology, corpus, corpus.index())
        positions()
        assert merged == []
        # Growth merges the new document only.
        corpus.add(documents[-1])
        kept.update(ontology, corpus, corpus.index())
        positions()
        assert merged == [tuple(corpus.index().document_tokens(len(documents) - 1))]
        # A new known term re-merges only documents holding its first token.
        merged.clear()
        extra = "zzqx " + terms[0]
        corpus.add(Document("extra", [extra.split(), terms[1].split()]))
        kept.update(ontology, corpus, corpus.index(), extra_terms=[extra])
        positions()
        holding = {
            tuple(corpus.index().document_tokens(ordinal))
            for ordinal, __ in corpus.index().phrase_occurrences(["zzqx"])
        }
        assert set(merged) <= holding
        assert kept.positions(terms[1]) == oracle(
            ontology,
            corpus,
            set(terms) | {extra},
            window=kept.window,
            expand_hierarchy=True,
        )(terms[1])
