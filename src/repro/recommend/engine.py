"""The recommendation engine: annotate, score, rank, build the set.

:class:`Recommender` ties the registry, annotator, and criterion
scorers together.  Everything is deterministic: ranking sorts by
``(-aggregate, name)``, the greedy set admission breaks ties the same
way, and the report rounds at the wire boundary — so the CLI and the
service produce byte-identical documents for the same input.

The **set recommendation** answers Recommender 2.0's second question:
"no single ontology covers my input — which small set does?".  Greedy
max-marginal-coverage over the exact covered-position sets, pruned by
``min_coverage_gain`` (a member must grow coverage meaningfully, never
just ride along) and capped at ``max_set_size``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ValidationError
from repro.corpus.index import CorpusIndex
from repro.recommend.annotator import AnnotationResult, Annotator
from repro.recommend.config import RecommendConfig
from repro.recommend.registry import OntologyRegistry
from repro.recommend.report import (
    OntologyScore,
    RecommendationReport,
    SetRecommendation,
    SetStep,
)
from repro.recommend.scoring import (
    CriterionScorer,
    ScoringContext,
    aggregate_score,
    default_scorers,
)


class Recommender:
    """Score registered ontologies against text or an indexed corpus.

    Parameters
    ----------
    registry:
        The :class:`~repro.recommend.registry.OntologyRegistry` holding
        the candidate ontologies.
    config:
        Criterion weights and set knobs
        (:class:`~repro.recommend.config.RecommendConfig`).
    scorers:
        The criteria; defaults to the four Recommender 2.0 scorers.
    """

    def __init__(
        self,
        registry: OntologyRegistry,
        config: RecommendConfig | None = None,
        *,
        scorers: Sequence[CriterionScorer] | None = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else RecommendConfig()
        self.scorers = (
            tuple(scorers) if scorers is not None else default_scorers()
        )

    # -- entry points ------------------------------------------------------

    def recommend_text(
        self,
        text: str,
        *,
        ontologies: Sequence[str] | None = None,
        acceptance_index: CorpusIndex | None = None,
        acceptance_source: str | None = None,
    ) -> RecommendationReport:
        """Rank ontologies against raw text.

        ``acceptance_index`` (optional) supplies the acceptance
        criterion's reference document frequencies; without it the
        criterion scores 0 and the report records the absent source.
        """
        names = self._names(ontologies)
        annotations = {
            name: Annotator(self.registry.get(name)).annotate_text(text)
            for name in names
        }
        n_tokens = next(iter(annotations.values())).n_tokens if names else 0
        return self._report(
            annotations,
            input_kind="text",
            n_tokens=n_tokens,
            acceptance_index=acceptance_index,
            acceptance_source=(
                acceptance_source
                if acceptance_index is not None
                else None
            ),
        )

    def recommend_index(
        self,
        index: CorpusIndex,
        *,
        ontologies: Sequence[str] | None = None,
        acceptance_index: CorpusIndex | None = None,
        acceptance_source: str | None = "input",
    ) -> RecommendationReport:
        """Rank ontologies against an indexed corpus.

        The corpus doubles as the acceptance reference unless a
        separate ``acceptance_index`` is given.
        """
        names = self._names(ontologies)
        annotations = {
            name: Annotator(self.registry.get(name)).annotate_index(index)
            for name in names
        }
        return self._report(
            annotations,
            input_kind="corpus",
            n_tokens=index.n_tokens(),
            acceptance_index=(
                acceptance_index if acceptance_index is not None else index
            ),
            acceptance_source=acceptance_source,
        )

    # -- internals ---------------------------------------------------------

    def _names(self, ontologies: Sequence[str] | None) -> list[str]:
        if ontologies is None:
            names = self.registry.names()
        else:
            names = list(dict.fromkeys(ontologies))  # dedupe, keep order
            for name in names:
                self.registry.get(name)  # raises on unknown
        if not names:
            raise ValidationError("no ontologies registered to recommend")
        return sorted(names)

    def _report(
        self,
        annotations: dict[str, AnnotationResult],
        *,
        input_kind: str,
        n_tokens: int,
        acceptance_index: CorpusIndex | None,
        acceptance_source: str | None,
    ) -> RecommendationReport:
        context = ScoringContext(
            config=self.config, acceptance_index=acceptance_index
        )
        scored: list[OntologyScore] = []
        for name, annotation in annotations.items():
            registered = self.registry.get(name)
            scores = {
                scorer.name: scorer.score(annotation, registered, context)
                for scorer in self.scorers
            }
            scored.append(
                OntologyScore(
                    name=name,
                    scores=scores,
                    aggregate=aggregate_score(scores, self.config),
                    n_matches=annotation.n_matches,
                    n_labels_matched=len(annotation.matches),
                    n_concepts_matched=len(annotation.concept_ids()),
                    covered_fraction=annotation.covered_fraction(),
                )
            )
        scored.sort(key=lambda score: (-score.aggregate, score.name))
        return RecommendationReport(
            input_kind=input_kind,
            n_tokens=n_tokens,
            config=self.config,
            ranking=tuple(scored),
            ontology_set=self._recommend_set(scored, annotations, n_tokens),
            acceptance_source=acceptance_source,
        )

    def _recommend_set(
        self,
        ranking: list[OntologyScore],
        annotations: dict[str, AnnotationResult],
        n_tokens: int,
    ) -> SetRecommendation:
        """Greedy max-marginal-coverage set, pruned by min_coverage_gain.

        The first member is admitted on any positive coverage (a
        recommendation must exist whenever anything matched); every
        later member must add at least ``min_coverage_gain`` of newly
        covered input — this is what keeps near-duplicate ontologies
        from padding the set.
        """
        config = self.config
        aggregate_by_name = {score.name: score for score in ranking}
        remaining = [score.name for score in ranking]
        covered: set[tuple[int, int]] = set()
        steps: list[SetStep] = []
        while remaining and len(steps) < config.max_set_size and n_tokens:
            best_name: str | None = None
            best_gain = -1
            # `remaining` is ranking-ordered, so on tied gains the
            # higher-aggregate (then lexicographically first) name wins.
            for name in remaining:
                gain = len(annotations[name].covered - covered)
                if gain > best_gain:
                    best_name, best_gain = name, gain
            assert best_name is not None
            gain_fraction = best_gain / n_tokens
            if steps:
                if gain_fraction < config.min_coverage_gain:
                    break
            elif best_gain <= 0:
                break
            covered |= annotations[best_name].covered
            steps.append(
                SetStep(
                    name=best_name,
                    coverage_gain=gain_fraction,
                    set_coverage=len(covered) / n_tokens,
                )
            )
            remaining.remove(best_name)
        members = tuple(step.name for step in steps)
        return SetRecommendation(
            members=members,
            coverage=len(covered) / n_tokens if n_tokens else 0.0,
            aggregate=self._set_aggregate(members, aggregate_by_name, covered, n_tokens),
            steps=tuple(steps),
        )

    def _set_aggregate(
        self,
        members: tuple[str, ...],
        scores: dict[str, OntologyScore],
        covered: set[tuple[int, int]],
        n_tokens: int,
    ) -> float:
        """Combined set score: union coverage + coverage-weighted criteria.

        The set's coverage criterion is the *union* covered fraction;
        acceptance/detail/specialization are the members' scores
        weighted by how much each member individually covers (a member
        admitted for a sliver of coverage should barely perturb them).
        """
        if not members or not n_tokens:
            return 0.0
        weights = {
            name: max(scores[name].covered_fraction, 1e-9)
            for name in members
        }
        total = sum(weights.values())
        combined = {
            criterion: sum(
                scores[name].scores.get(criterion, 0.0) * weights[name]
                for name in members
            )
            / total
            for criterion in ("acceptance", "detail", "specialization")
        }
        combined["coverage"] = min(1.0, len(covered) / n_tokens)
        return aggregate_score(combined, self.config)
