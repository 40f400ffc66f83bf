"""Corpus substrate: documents, synthetic PubMed, and the MSH-WSD benchmark.

The paper's pipeline consumes PubMed abstracts (333 M tokens for Step IV)
and evaluates Step III on the MSH WSD data set.  Neither is available
offline, so this subpackage generates topic-model-driven equivalents whose
statistical structure (Zipfian vocabulary, hierarchy-correlated concept
topics, sense-separated contexts) exercises the same code paths — see
DESIGN.md §1.
"""

from repro.corpus.document import Document
from repro.corpus.corpus import Corpus, TermContext
from repro.corpus.index import CorpusIndex
from repro.corpus.io import read_corpus_jsonl, write_corpus_jsonl
from repro.corpus.mshwsd import MshWsdEntity, MshWsdSimulator
from repro.corpus.pubmed import PubMedSimulator
from repro.corpus.topics import ConceptTopicModel, Topic

__all__ = [
    "ConceptTopicModel",
    "Corpus",
    "CorpusIndex",
    "Document",
    "TermContext",
    "MshWsdEntity",
    "MshWsdSimulator",
    "PubMedSimulator",
    "Topic",
    "read_corpus_jsonl",
    "write_corpus_jsonl",
]
