"""Continuous enrichment: delta re-runs for a growing corpus.

The paper's enrichment loop is naturally *incremental* — documents keep
arriving (new abstracts, new clinical notes) and each batch perturbs
only the terms it actually mentions.  :class:`StreamingEnricher` turns
corpus growth into a delta:

1. index the arriving documents alone and mark every known term they
   mention as *changed* (the diff's ``changed_terms``);
2. grow the corpus (the cached index is patched in place, or rebuilt
   through its remembered :class:`~repro.corpus.index_store.IndexStore`);
3. re-run the pipeline: the enricher sees the new corpus fingerprint
   and retrains the detector (it is corpus-dependent), and everything
   else it keeps follows the corpus along its fingerprint chain.  Step
   II vectors are keyed by their own inputs (a term's capped windows
   and document frequency, see :mod:`repro.polysemy.cache`), so every
   term the documents do not mention keeps its key and comes warm from
   the cache, and only changed terms are featurised.  Step III
   re-induces only the terms whose contexts or verdict changed;
4. emit a :class:`ReportDiff` describing exactly what moved.

The result composes: ``diff.apply(previous_report)`` reconstructs the
full report a from-scratch run over the grown corpus would produce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex, check_document
from repro.errors import CorpusError, ValidationError
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.report import EnrichmentReport, TermReport

__all__ = ["ReportDiff", "StreamingEnricher"]


@dataclass
class ReportDiff:
    """What one document delta changed in the enrichment report.

    Attributes
    ----------
    base_fingerprint / fingerprint:
        Corpus fingerprints before and after the delta (the provenance
        chain: a diff only applies to a report produced at
        ``base_fingerprint``).
    documents:
        Ids of the documents this delta added.
    changed_terms:
        Known terms (prior candidates plus ontology terms) whose corpus
        postings changed — the only known terms whose feature vectors
        can be recomputed; everything else comes warm from the cache.
    added:
        Candidate rows that exist only in the new report.
    dropped:
        Candidate terms of the base report that disappeared.
    rescored:
        Rows present in both reports whose content changed.
    unchanged:
        Terms carried over verbatim from the base report.
    term_order:
        The new report's full candidate order (extraction-rank order) —
        :meth:`apply` reconstructs the report in exactly this order.
    detector_trained / timings / cache / warnings:
        The delta run's report metadata (see
        :class:`~repro.workflow.report.EnrichmentReport`); ``timings``
        additionally carries ``delta_total``, the wall-clock seconds of
        the whole delta (validation, change probe, growth and re-run).
    """

    base_fingerprint: str
    fingerprint: str
    documents: list[str] = field(default_factory=list)
    changed_terms: list[str] = field(default_factory=list)
    added: list[TermReport] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)
    rescored: list[TermReport] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)
    term_order: list[str] = field(default_factory=list)
    detector_trained: bool = False
    timings: dict[str, float] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def n_recomputed(self) -> int:
        """Known terms this delta changed (``len(changed_terms)``).

        Their vectors are featurised again unless the cache already
        holds one for the same windows (``cache["misses"]`` counts
        those that were).
        """
        return len(self.changed_terms)

    def apply(self, base: EnrichmentReport) -> EnrichmentReport:
        """Compose this diff onto ``base``: the full post-delta report.

        ``base`` must be the report the diff was computed against (the
        one produced at :attr:`base_fingerprint`); composing onto
        anything else raises :class:`~repro.errors.ValidationError`
        when a carried-over term is missing.  The composed report
        equals what a from-scratch run over the grown corpus reports
        (timings and cache counters are the delta run's measurements).
        """
        patched = {report.term: report for report in self.added}
        patched.update({report.term: report for report in self.rescored})
        base_rows = {report.term: report for report in base.terms}
        for term in self.dropped:
            if term not in base_rows:
                raise ValidationError(
                    f"diff drops {term!r} which the base report never had"
                )
        terms: list[TermReport] = []
        for term in self.term_order:
            row = patched.get(term, base_rows.get(term))
            if row is None:
                raise ValidationError(
                    f"diff carries {term!r} over from a base report that "
                    "does not contain it — wrong base?"
                )
            terms.append(row)
        return EnrichmentReport(
            terms=terms,
            timings=dict(self.timings),
            cache=dict(self.cache),
            detector_trained=self.detector_trained,
            warnings=list(self.warnings),
        )

    def to_dict(self) -> dict:
        """JSON-safe snapshot (the service's ``/deltas`` wire shape)."""
        return {
            "base_fingerprint": self.base_fingerprint,
            "fingerprint": self.fingerprint,
            "documents": list(self.documents),
            "changed_terms": list(self.changed_terms),
            "n_recomputed": self.n_recomputed,
            "added": [report.to_dict() for report in self.added],
            "dropped": list(self.dropped),
            "rescored": [report.to_dict() for report in self.rescored],
            "unchanged": list(self.unchanged),
            "term_order": list(self.term_order),
            "detector_trained": self.detector_trained,
            "timings": dict(self.timings),
            "cache": dict(self.cache),
            "warnings": list(self.warnings),
        }


class StreamingEnricher:
    """Owns a corpus and re-enriches it incrementally as documents arrive.

    Parameters
    ----------
    ontology:
        The ontology to enrich (also the detector's label source).
    corpus:
        The initial corpus; it is grown in place by
        :meth:`add_documents`.
    enricher:
        Optional pre-built :class:`OntologyEnricher`; pass one to
        control configuration (cache dir, index store).  A
        default enricher is built otherwise.
    pos_lexicon:
        Forwarded to the default enricher (ignored when ``enricher`` is
        given).

    Example
    -------
    >>> from repro.scenarios import make_enrichment_scenario
    >>> scenario = make_enrichment_scenario(seed=0, n_concepts=20,
    ...                                     docs_per_concept=4)
    >>> streamer = StreamingEnricher(scenario.ontology, scenario.corpus,
    ...                              pos_lexicon=scenario.pos_lexicon)
    >>> baseline = streamer.baseline()
    >>> from repro.corpus.document import Document
    >>> diff = streamer.add_documents(
    ...     [Document("late-1", [["wound", "healing", "study"]])])
    >>> diff.fingerprint == streamer.fingerprint
    True
    """

    def __init__(
        self,
        ontology,
        corpus: Corpus,
        *,
        enricher: OntologyEnricher | None = None,
        pos_lexicon: dict[str, str] | None = None,
    ) -> None:
        self.ontology = ontology
        self.corpus = corpus
        self.enricher = (
            enricher
            if enricher is not None
            else OntologyEnricher(ontology, pos_lexicon=pos_lexicon)
        )
        self.report: EnrichmentReport | None = None
        self.deltas: list[ReportDiff] = []

    @property
    def fingerprint(self) -> str:
        """The current corpus fingerprint (builds the index if needed)."""
        return self.corpus.index().fingerprint()

    def baseline(self) -> EnrichmentReport:
        """Run (or return) the full enrichment of the current corpus.

        The first :meth:`add_documents` call runs this implicitly; call
        it eagerly to front-load the expensive cold run.
        """
        if self.report is None:
            self.report = self.enricher.enrich(self.corpus)
        return self.report

    # -- the delta path ----------------------------------------------------

    def add_documents(self, documents: list[Document]) -> ReportDiff:
        """Grow the corpus by ``documents`` and re-enrich incrementally.

        Only terms whose postings actually changed — the known terms
        the arriving documents mention, plus genuinely new candidates —
        are re-featurised; every other term keeps its windows, hence
        its cache key, and is served from the warm cache.  The emitted
        :class:`ReportDiff` composes onto the previous report
        (``diff.apply(previous)``) to yield exactly what a from-scratch
        run over the grown corpus would report.

        Validation is all-or-nothing: duplicate ids (within the batch
        or against the corpus) and documents no index accepts (see
        :func:`~repro.corpus.index.check_document`) raise before
        anything mutates.
        """
        started = time.perf_counter()
        if not documents:
            raise ValidationError("add_documents needs at least one document")
        seen: set[str] = set()
        for doc in documents:
            if doc.doc_id in seen:
                raise CorpusError(
                    f"duplicate document id {doc.doc_id!r} in batch"
                )
            seen.add(doc.doc_id)
            if self._corpus_has(doc.doc_id):
                raise CorpusError(
                    f"duplicate document id {doc.doc_id!r} already in corpus"
                )
            check_document(doc)

        base_report = self.baseline()
        base_fp = self.fingerprint

        # 1. Which known terms do the arriving documents mention?  A
        #    throwaway index over just the delta answers in O(delta).
        universe = sorted(
            {report.term for report in base_report.terms}
            | set(self.ontology.terms())
        )
        changed = self._changed_terms(documents, universe)

        for doc in documents:
            self.corpus.add(doc)
        new_fp = self.fingerprint

        # 2. Re-run.  The enricher retrains on the grown corpus (its
        #    fingerprint moved); unchanged terms keep their cache keys,
        #    so their vectors come warm.
        new_report = self.enricher.enrich(self.corpus)

        diff = self._diff(base_report, new_report, base_fp, new_fp)
        diff.documents = [doc.doc_id for doc in documents]
        diff.changed_terms = sorted(changed)
        diff.timings["delta_total"] = time.perf_counter() - started
        self.report = new_report
        self.deltas.append(diff)
        return diff

    # -- internals ---------------------------------------------------------

    def _corpus_has(self, doc_id: str) -> bool:
        try:
            self.corpus.document(doc_id)
        except CorpusError:
            return False
        return True

    def _changed_terms(
        self, documents: list[Document], universe: list[str]
    ) -> set[str]:
        """Known terms whose postings the delta documents perturb."""
        delta_index = CorpusIndex(documents)
        records = delta_index.occurrence_records(
            universe, window=self.enricher.feature_extractor.window
        )
        return {term for term in universe if records.get(term)}

    @staticmethod
    def _diff(
        base: EnrichmentReport,
        new: EnrichmentReport,
        base_fp: str,
        new_fp: str,
    ) -> ReportDiff:
        base_rows = {report.term: report for report in base.terms}
        new_rows = {report.term: report for report in new.terms}
        added, rescored, unchanged = [], [], []
        for report in new.terms:
            old = base_rows.get(report.term)
            if old is None:
                added.append(report)
            elif old.to_dict() != report.to_dict():
                rescored.append(report)
            else:
                unchanged.append(report.term)
        dropped = [
            report.term for report in base.terms if report.term not in new_rows
        ]
        return ReportDiff(
            base_fingerprint=base_fp,
            fingerprint=new_fp,
            added=added,
            dropped=dropped,
            rescored=rescored,
            unchanged=unchanged,
            term_order=[report.term for report in new.terms],
            detector_trained=new.detector_trained,
            timings=dict(new.timings),
            cache=dict(new.cache),
            warnings=list(new.warnings),
        )
