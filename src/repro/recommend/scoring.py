"""The four criterion scorers of the recommendation model.

The evaluation model follows NCBO Ontology Recommender 2.0: each
candidate ontology is scored against the input on four independent
criteria, each normalised to ``[0, 1]``:

=================  ====================================================
**coverage**       how much of the input the ontology annotates, with
                   multi-word and preferred-term matches weighted up
**acceptance**     how established the matched labels are — proxied by
                   their document frequencies in a reference corpus
                   index (the biomedical community's usage signal)
**detail**         synonym/relation/metadata density of the matched
                   concepts (how much an annotation gives back)
**specialization** how deep in the hierarchy the matched concepts sit
                   (a specialised ontology beats a broad one whose
                   matches are all near the root)
=================  ====================================================

Every scorer is a :class:`CriterionScorer` so deployments can reweight
(:class:`~repro.recommend.config.RecommendConfig`) or substitute
criteria without touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.index import CorpusIndex
from repro.recommend.annotator import AnnotationResult
from repro.recommend.config import RecommendConfig
from repro.recommend.registry import RegisteredOntology

#: Criterion names in report order.
CRITERIA = ("coverage", "acceptance", "detail", "specialization")


@dataclass(frozen=True)
class ScoringContext:
    """Input-level state shared by every scorer call of one request."""

    config: RecommendConfig
    acceptance_index: CorpusIndex | None = None


class CriterionScorer:
    """One criterion: a name and a ``[0, 1]`` score per annotation."""

    name = "criterion"

    def score(
        self,
        annotation: AnnotationResult,
        registered: RegisteredOntology,
        context: ScoringContext,
    ) -> float:
        raise NotImplementedError


class CoverageScorer(CriterionScorer):
    """Weighted annotation mass over the input size, capped at 1.

    Each matched occurrence contributes its token span, multiplied by
    ``multiword_factor`` for multi-word labels (unlikely-accidental
    matches) and down-weighted by ``synonym_factor`` when the label is
    only a synonym — the Recommender 2.0 shape of "how much, and how
    confidently, does this ontology annotate the input".
    """

    name = "coverage"

    def score(
        self,
        annotation: AnnotationResult,
        registered: RegisteredOntology,
        context: ScoringContext,
    ) -> float:
        if not annotation.n_tokens:
            return 0.0
        config = context.config
        mass = 0.0
        for match in annotation.matches:
            weight = float(match.n_tokens)
            if match.n_tokens >= 2:
                weight *= config.multiword_factor
            if not match.preferred:
                weight *= config.synonym_factor
            mass += weight * match.occurrences
        return min(1.0, mass / annotation.n_tokens)


class AcceptanceScorer(CriterionScorer):
    """Mean document frequency of the matched labels in a reference index.

    A label that appears across many reference documents is an
    established term; one the reference corpus never uses is either
    novel or idiosyncratic.  Without a reference index the criterion
    scores 0 for every ontology (the report records the absent source,
    and the weight can be reassigned via the config).
    """

    name = "acceptance"

    def score(
        self,
        annotation: AnnotationResult,
        registered: RegisteredOntology,
        context: ScoringContext,
    ) -> float:
        index = context.acceptance_index
        if index is None or not annotation.matches:
            return 0.0
        n_documents = index.n_documents()
        if not n_documents:
            return 0.0
        total = sum(
            index.document_frequency(match.label)
            for match in annotation.matches
        )
        return total / (len(annotation.matches) * n_documents)


class DetailScorer(CriterionScorer):
    """Mean detail density of the distinct matched concepts.

    Per-concept densities (synonyms, hierarchy relations, structured
    metadata) are precomputed at registration
    (:func:`repro.recommend.registry._detail_density`).
    """

    name = "detail"

    def score(
        self,
        annotation: AnnotationResult,
        registered: RegisteredOntology,
        context: ScoringContext,
    ) -> float:
        concept_ids = annotation.concept_ids()
        if not concept_ids:
            return 0.0
        return sum(
            registered.concepts[cid].detail for cid in concept_ids
        ) / len(concept_ids)


class SpecializationScorer(CriterionScorer):
    """Mean normalised hierarchy depth of the distinct matched concepts.

    Depth is normalised by the ontology's own maximum depth, so a flat
    two-level vocabulary cannot out-specialise a deep one by matching
    its deepest (still shallow) nodes.
    """

    name = "specialization"

    def score(
        self,
        annotation: AnnotationResult,
        registered: RegisteredOntology,
        context: ScoringContext,
    ) -> float:
        concept_ids = annotation.concept_ids()
        if not concept_ids or not registered.max_depth:
            return 0.0
        return sum(
            registered.concepts[cid].depth for cid in concept_ids
        ) / (len(concept_ids) * registered.max_depth)


def default_scorers() -> tuple[CriterionScorer, ...]:
    """The four Recommender 2.0 criteria, in report order."""
    return (
        CoverageScorer(),
        AcceptanceScorer(),
        DetailScorer(),
        SpecializationScorer(),
    )


def aggregate_score(scores: dict[str, float], config: RecommendConfig) -> float:
    """The weighted criterion combination, normalised by the weight sum."""
    weighted = (
        config.coverage_weight * scores.get("coverage", 0.0)
        + config.acceptance_weight * scores.get("acceptance", 0.0)
        + config.detail_weight * scores.get("detail", 0.0)
        + config.specialization_weight * scores.get("specialization", 0.0)
    )
    return weighted / config.weight_sum()
