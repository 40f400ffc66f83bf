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
from repro.linkage.neighborhood import candidate_positions
from repro.ontology.model import Concept, Ontology
from repro.scenarios import make_enrichment_scenario
from repro.text.cooccurrence import CooccurrenceGraphBuilder
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
    __, graph = builder.build(corpus.token_documents())

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
            assert candidate_positions(
                corpus,
                ontology,
                candidate,
                window=window,
                expand_hierarchy=expand_hierarchy,
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
