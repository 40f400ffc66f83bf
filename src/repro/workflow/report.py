"""Result objects of the enrichment workflow."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.linkage.linker import Proposition
from repro.senses.induction import SenseInductionResult
from repro.utils.tables import format_table


@dataclass
class TermReport:
    """Everything the workflow decided about one candidate term.

    Attributes
    ----------
    term:
        The candidate term (Step I output).
    extraction_score / extraction_rank:
        Step I evidence.
    n_contexts:
        Corpus occurrences found.
    polysemic:
        Step II verdict (None when the step was skipped).
    senses:
        Step III result (None when skipped).
    propositions:
        Step IV ranked ontology positions.
    skipped_reason:
        Why the term never reached the end (too few contexts, already in
        the ontology, linkage failure), or None for complete rows.
    """

    term: str
    extraction_score: float
    extraction_rank: int
    n_contexts: int = 0
    polysemic: bool | None = None
    senses: SenseInductionResult | None = None
    propositions: list[Proposition] = field(default_factory=list)
    skipped_reason: str | None = None

    @property
    def completed(self) -> bool:
        """True when the term went through all four steps."""
        return self.skipped_reason is None

    @property
    def n_senses(self) -> int:
        """Number of induced senses (0 when Step III did not run)."""
        return self.senses.k if self.senses is not None else 0

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the row (the service's wire shape).

        Propositions and senses are flattened to plain lists/dicts;
        per-sense detail keeps the defining words and support counts
        (the sweep internals — index values, label arrays — stay
        server-side).
        """
        senses = None
        if self.senses is not None:
            senses = {
                "k": self.senses.k,
                "senses": [
                    {
                        "sense_id": sense.sense_id,
                        "top_features": list(sense.top_features),
                        "support": sense.support,
                    }
                    for sense in self.senses.senses
                ],
            }
        return {
            "term": self.term,
            "extraction_score": self.extraction_score,
            "extraction_rank": self.extraction_rank,
            "n_contexts": self.n_contexts,
            "polysemic": self.polysemic,
            "n_senses": self.n_senses,
            "senses": senses,
            "propositions": [
                {
                    "rank": p.rank,
                    "term": p.term,
                    "concept_ids": list(p.concept_ids),
                    "cosine": p.cosine,
                }
                for p in self.propositions
            ],
            "skipped_reason": self.skipped_reason,
        }


@dataclass
class EnrichmentReport:
    """The workflow's full output: one :class:`TermReport` per candidate.

    Attributes
    ----------
    terms:
        One report per examined candidate, in extraction-rank order.
    timings:
        Wall-clock seconds per pipeline stage (``index``, ``train``,
        ``extract``, ``detect``, ``induce``, ``link``), filled in by
        :meth:`repro.workflow.pipeline.OntologyEnricher.enrich`.
    cache:
        Feature-cache effectiveness counters (see
        :class:`repro.polysemy.cache.FeatureCache`): ``hits``,
        ``misses``, ``disk_hits`` (lookups served by reading the
        persistent store), and ``evictions`` are this ``enrich``
        call's delta;
        ``entries`` and ``store_bytes`` are the absolute state of the
        backing store after the call.
    detector_trained:
        Whether Step II classified with a trained polysemy detector.
        ``False`` means training fell back on degenerate data and every
        candidate was treated as monosemous (the reason lands in
        ``warnings``).
    warnings:
        Non-fatal degradations the workflow survived (e.g. the Step II
        training fallback); empty for a fully clean run.
    """

    terms: list[TermReport] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)
    detector_trained: bool = False
    warnings: list[str] = field(default_factory=list)

    @property
    def n_candidates(self) -> int:
        """Number of candidates examined."""
        return len(self.terms)

    def completed_terms(self) -> list[TermReport]:
        """Candidates that produced propositions."""
        return [t for t in self.terms if t.completed]

    def polysemic_terms(self) -> list[TermReport]:
        """Candidates Step II flagged as polysemic."""
        return [t for t in self.terms if t.polysemic]

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the whole report.

        This is what the enrichment service returns from
        ``GET /jobs/<id>`` — stable, structural, diffable: two runs
        over the same inputs serialise byte-identically (timings and
        cache counters are runtime measurements, so they live in
        separate keys callers can drop when comparing).
        """
        return {
            "n_candidates": self.n_candidates,
            "terms": [term.to_dict() for term in self.terms],
            "timings": dict(self.timings),
            "cache": dict(self.cache),
            "detector_trained": self.detector_trained,
            "warnings": list(self.warnings),
        }

    def to_table(self, *, max_rows: int | None = None) -> str:
        """Human-readable summary table."""
        rows = []
        for report in self.terms[:max_rows]:
            best = report.propositions[0].term if report.propositions else "-"
            rows.append(
                [
                    report.term,
                    f"{report.extraction_score:.3f}",
                    report.n_contexts,
                    {True: "yes", False: "no", None: "-"}[report.polysemic],
                    report.n_senses or "-",
                    best,
                    report.skipped_reason or "ok",
                ]
            )
        return format_table(
            ["candidate", "score", "ctx", "polysemic", "k", "best position", "status"],
            rows,
            title="Enrichment report",
        )
