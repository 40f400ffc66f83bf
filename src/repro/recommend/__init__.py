"""Ontology recommendation: rank ontologies against text or a corpus.

The `repro.recommend` package implements the NCBO Ontology Recommender
2.0 evaluation model on top of the repo's existing ontology and corpus
machinery: a registry of annotation-ready ontology snapshots, a
trie-based annotator (with a postings-backed path for indexed corpora),
four weighted criterion scorers, and a deterministic report that is the
single wire shape shared by the CLI and the service.
"""

from repro.recommend.annotator import (
    AnnotationResult,
    Annotator,
    LabelMatch,
)
from repro.recommend.config import RecommendConfig
from repro.recommend.engine import Recommender
from repro.recommend.registry import OntologyRegistry, RegisteredOntology
from repro.recommend.report import (
    OntologyScore,
    RecommendationReport,
    SetRecommendation,
    SetStep,
)
from repro.recommend.scoring import (
    CRITERIA,
    AcceptanceScorer,
    CoverageScorer,
    CriterionScorer,
    DetailScorer,
    ScoringContext,
    SpecializationScorer,
    aggregate_score,
    default_scorers,
)
from repro.recommend.trie import LabelTrie

__all__ = [
    "CRITERIA",
    "AcceptanceScorer",
    "AnnotationResult",
    "Annotator",
    "CoverageScorer",
    "CriterionScorer",
    "DetailScorer",
    "LabelMatch",
    "LabelTrie",
    "OntologyRegistry",
    "OntologyScore",
    "RecommendConfig",
    "RecommendationReport",
    "Recommender",
    "RegisteredOntology",
    "ScoringContext",
    "SetRecommendation",
    "SetStep",
    "SpecializationScorer",
    "aggregate_score",
    "default_scorers",
]
