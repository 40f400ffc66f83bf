"""Step IV — semantic linkage: positioning a candidate term in the ontology.

The paper's protocol: (1) build a term co-occurrence graph from the
corpus, keeping the candidate term's MeSH neighbourhood; (2) rank that
neighbourhood — plus the fathers and sons of its members — by the cosine
similarity between the candidate's context and each position's context;
propose the top 10.

Only the candidate's own edges of the graph matter, so (1) is answered
from the corpus postings (:class:`TermNeighborhoods`): the documents
that mention the candidate are merged and windowed, and no whole-corpus
graph is built.  The whole-corpus graph gives identical neighbourhoods
and is built only by the tests, as the oracle.
"""

from repro.linkage.context import (
    TermContextIndex,
    find_occurrence_records,
    find_occurrences,
)
from repro.linkage.evaluation import LinkageEvaluation, evaluate_linkage
from repro.linkage.linker import Proposition, SemanticLinker
from repro.linkage.neighborhood import TermNeighborhoods
from repro.linkage.relations import RELATION_TYPES, RelationTyper, TypedRelation

__all__ = [
    "LinkageEvaluation",
    "Proposition",
    "RELATION_TYPES",
    "RelationTyper",
    "SemanticLinker",
    "TermContextIndex",
    "TermNeighborhoods",
    "TypedRelation",
    "evaluate_linkage",
    "find_occurrence_records",
    "find_occurrences",
]
