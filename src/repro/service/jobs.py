"""Server-side enrichment jobs: submit, poll, fetch.

The service is not just a vector cache — it *runs* enrichment too, the
Aber-OWL deployment shape: corpora registered at startup, clients
submitting jobs over HTTP and polling for the finished
:class:`~repro.workflow.report.EnrichmentReport`.

A job names a registered corpus and may override a whitelisted subset
of :class:`~repro.workflow.config.EnrichmentConfig` fields (anything
structural — cache wiring — is forced server-side so every job shares
the service's one store).  Jobs run on a small worker pool
(``job_workers``, default 1 so the single-writer discipline of the
shared :class:`~repro.polysemy.cache_store.DiskCacheStore` matches the
pipeline's); loaded corpora/ontologies are cached per name, so the
second job against a corpus skips the parse.

Jobs run on kept enrichers: one
:class:`~repro.workflow.pipeline.OntologyEnricher` per (scenario,
config), at most :data:`MAX_KEPT_ENRICHERS` of them, least recently
used dropped first.  A scenario's streamer runs on its default-config
entry.  A repeated job on an unchanged corpus therefore reuses the
fitted detector, the Step III memo and the Step IV context space
instead of repeating a cold run; each of those is bound to the corpus
fingerprint it was made from, so a job after a delta reports what a
fresh enricher would.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import typing
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.io import read_corpus_jsonl
from repro.errors import CorpusError, ValidationError
from repro.ontology.io import read_ontology_json
from repro.ontology.model import Ontology
from repro.corpus.index import CorpusIndex, check_document
from repro.corpus.index_store import IndexStore
from repro.polysemy.cache_store import DiskCacheStore
from repro.recommend.config import RecommendConfig
from repro.recommend.engine import Recommender
from repro.recommend.registry import OntologyRegistry
from repro.service.metrics import ServiceMetrics
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.streaming import StreamingEnricher

#: Config fields a job may NOT override: the service owns cache and
#: index wiring (every job must share the server's stores).  A job's
#: ``cache_timeout`` could change nothing it does (there is no
#: ``cache_url`` to time out), yet each value would key a kept enricher
#: of its own that runs cold and evicts a warm one.
_LOCKED_CONFIG_FIELDS = frozenset(
    {
        "cache_dir",
        "cache_max_bytes",
        "cache_timeout",
        "cache_url",
        "index_dir",
    }
)

#: Finished/failed jobs kept for polling before the oldest are dropped
#: (the server is long-lived; unbounded retention would leak reports).
DEFAULT_MAX_FINISHED_JOBS = 256

#: Delta diff documents retained per scenario for ``GET .../deltas``
#: (sequence numbers stay monotonic across the drop, so a poller that
#: fell behind sees the gap instead of silently missing diffs).
DEFAULT_MAX_DELTAS = 256

#: Longest accepted ``Idempotency-Key`` (these are client-chosen opaque
#: tokens, typically UUIDs; anything longer is a confused client).
MAX_IDEMPOTENCY_KEY_LENGTH = 200

#: Enrichers kept for reuse across jobs, keyed by (scenario, config);
#: past the cap the least recently used is dropped.  Each holds one
#: scenario's Step I aggregate, fitted detector and Step IV space.
MAX_KEPT_ENRICHERS = 4


def _check_override_types(overrides: dict) -> None:
    """Reject overrides whose JSON type does not match the field's.

    A string for an int field, ``true`` for an int field or a list for
    anything would otherwise pass submission and fail the job later
    (and an unhashable value cannot key a kept enricher).
    """
    hints = typing.get_type_hints(EnrichmentConfig)
    for name, value in overrides.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if not any(_json_matches(value, kind) for kind in kinds):
            expected = " or ".join(
                "null" if kind is type(None) else kind.__name__
                for kind in kinds
            )
            raise ValidationError(
                f"config field {name!r} must be {expected}, "
                f"got {type(value).__name__} {value!r}"
            )


def _json_matches(value, kind: type) -> bool:
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


class IdempotencyConflictError(ValidationError):
    """The same ``Idempotency-Key`` arrived with a *different* payload.

    Replaying a submission is safe only when it is byte-for-byte the
    same request; a reused key on different work is a client bug the
    server must surface (HTTP 409), never silently resolve either way.
    """


@dataclass
class Job:
    """One job's lifecycle record.

    ``kind`` names the work and the shape of ``report``: a full
    enrichment run (``"enrich"``, an
    :meth:`~repro.workflow.report.EnrichmentReport.to_dict` document), a
    streaming delta re-enrichment (``"delta"``, a
    :meth:`~repro.workflow.streaming.ReportDiff.to_dict` document) or a
    queued recommendation (``"recommend"``, a
    :meth:`~repro.recommend.report.RecommendationReport.to_dict`
    document).
    """

    job_id: str
    corpus: str
    overrides: dict
    kind: str = "enrich"
    status: str = "queued"  # queued | running | done | failed
    error: str | None = None
    report: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    idempotency_key: str | None = None

    def to_dict(self) -> dict:
        """JSON document served by ``GET /jobs/<id>``."""
        document = {
            "job": self.job_id,
            "corpus": self.corpus,
            "overrides": self.overrides,
            "kind": self.kind,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            document["error"] = self.error
        if self.report is not None:
            document["report"] = self.report
        if self.idempotency_key is not None:
            document["idempotency_key"] = self.idempotency_key
        return document


class JobManager:
    """Run enrichment jobs against named corpora on a shared store.

    Parameters
    ----------
    corpora:
        ``name -> (ontology_json_path, corpus_jsonl_path)`` of the
        corpora clients may enrich (the ``repro generate`` layout).
    store:
        The service's shared cache store; jobs are forced onto it so
        their Step II vectors land where every other client reads.
    job_workers:
        Concurrent enrichment jobs (default 1: jobs queue behind each
        other, matching the store's single-writer discipline).  Jobs
        and deltas on one scenario still run one at a time, under the
        scenario's lock, so a job sees the corpus wholly before or
        wholly after each delta.
    index_dir:
        Optional :class:`~repro.corpus.index_store.IndexStore` root:
        registered corpora's indexes persist there, so the first use
        of a scenario builds (and saves) its index and every restart
        of the service mmap-reopens it in O(1).  Deltas grow the
        opened index in memory and write no generation.  Like the
        cache wiring, the field is service-owned and cannot be
        overridden per job.
    max_finished_jobs:
        Finished/failed job documents retained for polling; submitting
        past the cap drops the oldest finished ones (queued and running
        jobs are never dropped).
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics`; when
        given, submissions and completions land in the job counters and
        the job-latency histogram served by ``/metrics``.
    registry:
        Optional :class:`~repro.recommend.registry.OntologyRegistry`
        (``repro serve --ontology NAME=PATH``): the candidate
        ontologies of ``POST /recommend``.  Recommendation against a
        registered *corpus* queries an O(1)
        :meth:`~repro.corpus.index.CorpusIndex.snapshot` of the
        scenario's own index, taken after its last whole delta.
    """

    def __init__(
        self,
        corpora: dict[str, tuple[str | Path, str | Path]] | None = None,
        *,
        store: DiskCacheStore | None = None,
        job_workers: int = 1,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
        index_dir: str | Path | None = None,
        metrics: ServiceMetrics | None = None,
        registry: OntologyRegistry | None = None,
    ) -> None:
        if job_workers < 1:
            raise ValidationError(
                f"job_workers must be >= 1, got {job_workers}"
            )
        if max_finished_jobs < 1:
            raise ValidationError(
                f"max_finished_jobs must be >= 1, got {max_finished_jobs}"
            )
        self._max_finished_jobs = max_finished_jobs
        self._corpora = {
            name: (Path(ontology), Path(corpus))
            for name, (ontology, corpus) in (corpora or {}).items()
        }
        self._store = store
        self._index_dir = Path(index_dir) if index_dir is not None else None
        self._metrics = metrics
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: ``Idempotency-Key -> (job_id, payload fingerprint)``.  The
        #: fingerprint detects key reuse across *different* payloads;
        #: mappings live exactly as long as their job record does.
        self._idempotency: dict[str, tuple[str, str]] = {}
        self._loaded: dict[str, tuple[Ontology, Corpus]] = {}
        self._ids = itertools.count(1)
        #: Streaming state per scenario: the enricher that owns the
        #: growing corpus, a lock serialising its deltas and full jobs
        #: (the pool may run several workers, but one scenario's corpus
        #: must grow one batch at a time, and never under a running
        #: job), and the bounded diff history.
        self.registry = registry if registry is not None else OntologyRegistry()
        #: Scenario name -> snapshot of its corpus index for /recommend,
        #: taken at load and after every delta: a recommendation sees
        #: whole deltas only, and never waits for one.
        self._snapshots: dict[str, CorpusIndex] = {}
        #: (scenario, config) -> kept enricher, least recently used
        #: first.  Dropping an entry only drops this reference: a
        #: streamer keeps its enricher.
        self._enrichers: OrderedDict[
            tuple[str, EnrichmentConfig], OntologyEnricher
        ] = OrderedDict()
        self._streamers: dict[str, StreamingEnricher] = {}
        self._scenario_locks: dict[str, threading.Lock] = {}
        self._delta_history: dict[str, list[dict]] = {}
        self._delta_seq: dict[str, int] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )

    def corpora(self) -> list[str]:
        """Registered corpus names, sorted."""
        return sorted(self._corpora)

    def jobs(self) -> list[dict]:
        """Status documents of every job, newest first."""
        with self._lock:
            # job_id breaks submitted_at ties (ids are zero-padded and
            # monotonic, so lexicographic order is submission order).
            records = sorted(
                self._jobs.values(),
                key=lambda job: (job.submitted_at, job.job_id),
                reverse=True,
            )
            return [job.to_dict() for job in records]

    def job(self, job_id: str) -> dict | None:
        """One job's status document, or None for an unknown id."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job.to_dict() if job is not None else None

    def submit(
        self,
        corpus: str,
        overrides: dict | None = None,
        *,
        idempotency_key: str | None = None,
    ) -> str:
        """Queue one enrichment run; returns the (new or replayed) job id.

        Raises :class:`~repro.errors.ValidationError` for an unknown
        corpus or a rejected override: an unknown field, one of the
        cache/index fields the service owns, a value of the wrong JSON
        type, or one :class:`~repro.workflow.config.EnrichmentConfig`
        rejects.
        """
        job_id, _ = self.submit_detailed(
            corpus, overrides, idempotency_key=idempotency_key
        )
        return job_id

    def submit_detailed(
        self,
        corpus: str,
        overrides: dict | None = None,
        *,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool]:
        """:meth:`submit` returning ``(job_id, replayed)``.

        ``replayed`` is True when ``idempotency_key`` matched an earlier
        submission with the identical payload: no new job is queued and
        the original id is returned.  The same key on a *different*
        payload raises :class:`IdempotencyConflictError` (HTTP 409 at
        the route).
        """
        overrides = dict(overrides or {})
        self._check_corpus(corpus)
        allowed = {f.name for f in fields(EnrichmentConfig)}
        for name in overrides:
            if name in _LOCKED_CONFIG_FIELDS:
                raise ValidationError(
                    f"config field {name!r} is owned by the service"
                )
            if name not in allowed:
                raise ValidationError(f"unknown config field {name!r}")
        # A job that can only fail is a 400 now, not a failed poll.
        _check_override_types(overrides)
        self._config(overrides)
        return self._enqueue(
            "enrich", corpus, overrides,
            request={"corpus": corpus, "overrides": overrides},
            idempotency_key=idempotency_key, work=self._enrich,
        )

    def _enqueue(
        self,
        kind: str,
        corpus: str,
        overrides: dict,
        *,
        request: dict,
        idempotency_key: str | None,
        work: Callable[[Job], dict],
    ) -> tuple[str, bool]:
        """Admit one validated submission; returns ``(job_id, replayed)``.

        The one submission path of every job kind.  ``request`` is what
        the ``Idempotency-Key`` fingerprints: the key on an equal
        request replays its job, on any other request (another kind's
        included) it raises :class:`IdempotencyConflictError`.  A new
        job is created here, after its route's validation, so
        ``submitted_at`` orders accepted work only; ``work`` computes
        its report document on the pool (see :meth:`_run`).
        """
        if idempotency_key is not None:
            if not idempotency_key:
                raise ValidationError("Idempotency-Key must be non-empty")
            if len(idempotency_key) > MAX_IDEMPOTENCY_KEY_LENGTH:
                raise ValidationError(
                    "Idempotency-Key exceeds "
                    f"{MAX_IDEMPOTENCY_KEY_LENGTH} characters"
                )
        fingerprint = json.dumps(request, sort_keys=True)
        with self._lock:
            known = (
                self._idempotency.get(idempotency_key) if idempotency_key else None
            )
            if known is None:
                job = Job(
                    job_id=f"job-{next(self._ids):06d}",
                    corpus=corpus,
                    overrides=overrides,
                    kind=kind,
                    idempotency_key=idempotency_key,
                )
                self._jobs[job.job_id] = job
                if idempotency_key is not None:
                    self._idempotency[idempotency_key] = (job.job_id, fingerprint)
                self._prune_finished_locked()
            elif known[1] != fingerprint:
                raise IdempotencyConflictError(
                    f"Idempotency-Key {idempotency_key!r} was "
                    "already used for a different submission"
                )
        if self._metrics is not None:
            self._metrics.job_submitted(corpus, replayed=known is not None)
        if known is not None:
            return known[0], True
        self._pool.submit(self._run, job, work)
        return job.job_id, False

    def _run(self, job: Job, work: Callable[[Job], dict]) -> None:
        """Run one queued job: mark it running, do its work, finish it.

        The job's metrics (``work`` records its kind's own) land before
        its terminal status is published, so a poller that reads
        ``done`` or ``failed`` finds the job counted on ``/metrics``.
        """
        with self._lock:
            job.status = "running"
            job.started_at = started = time.time()
        report: dict | None = None
        error: str | None = None
        try:
            report = work(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary:
            # Deliberately broad: this is the service's last line of
            # defence around arbitrary workflow code.  A failed job must
            # answer its poll with status="failed" and the error string,
            # not kill the worker thread — narrowing here would turn an
            # unanticipated exception type into a silently-hung job.
            # The failure *is* accounted: job.error carries it to the
            # poller and job_finished() counts it in /metrics.
            error = f"{type(exc).__name__}: {exc}"
        finished = time.time()
        status = "done" if error is None else "failed"
        if self._metrics is not None:
            self._metrics.job_finished(
                job.corpus, status=status, seconds=finished - started
            )
        with self._lock:
            job.report = report
            job.error = error
            job.status = status
            job.finished_at = finished

    def _enrich(self, job: Job) -> dict:
        """An enrich job's work: its kept enricher's report document."""
        _, corpus = self._load(job.corpus)
        config = self._config(job.overrides)
        # Deltas grow this shared corpus under the same lock, and kept
        # enrichers are only used under it.
        with self._scenario_lock(job.corpus):
            enricher = self._enricher(job.corpus, config)
            try:
                report = enricher.enrich(corpus)
            except Exception:
                # Never hand a failed run's enricher to a later job.
                with self._lock:
                    self._enrichers.pop((job.corpus, config), None)
                raise
        return report.to_dict()

    # -- streaming deltas --------------------------------------------------

    def submit_documents(
        self,
        corpus: str,
        documents: list[dict],
        *,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool]:
        """Queue a streaming delta: add ``documents``, re-enrich, diff.

        ``documents`` is the corpus JSONL wire shape — dicts with a
        ``doc_id`` plus either ``sentences`` (token lists) or ``text``
        (raw, tokenised server-side).  The delta runs as an ordinary
        job (``kind="delta"``): poll ``GET /jobs/<id>`` for the
        :class:`~repro.workflow.streaming.ReportDiff` document, which
        also lands in the scenario's :meth:`deltas` history.  Returns
        ``(job_id, replayed)`` with the same ``Idempotency-Key``
        semantics as :meth:`submit_detailed` — replaying a document
        batch must not grow the corpus twice.
        """
        self._check_corpus(corpus)
        parsed = self._parse_documents(documents)
        return self._enqueue(
            "delta", corpus, {"documents": [doc.doc_id for doc in parsed]},
            request={"corpus": corpus, "documents": documents},
            idempotency_key=idempotency_key,
            work=lambda job: self._delta(job, parsed),
        )

    def _delta(self, job: Job, documents: list[Document]) -> dict:
        """A delta job's work: grow the scenario, diff, keep the history."""
        with self._scenario_lock(job.corpus):
            streamer = self._streamer(job.corpus)
            try:
                diff = streamer.add_documents(documents)
            finally:
                snapshot = streamer.corpus.index().snapshot()
                with self._lock:
                    self._snapshots[job.corpus] = snapshot
            document = diff.to_dict()
            with self._lock:
                seq = self._delta_seq.get(job.corpus, 0) + 1
                self._delta_seq[job.corpus] = seq
                document["seq"] = seq
                document["job"] = job.job_id
                history = self._delta_history.setdefault(job.corpus, [])
                history.append(document)
                del history[:-DEFAULT_MAX_DELTAS]
        if self._metrics is not None:
            self._metrics.delta_finished(
                job.corpus,
                seconds=document["timings"].get("delta_total", 0.0),
                terms_recomputed=document["n_recomputed"],
            )
        return document

    def deltas(
        self, corpus: str, *, since: int = 0
    ) -> list[dict] | None:
        """The scenario's diff history (``seq > since``), oldest first.

        ``None`` for an unregistered corpus (the route's 404); an empty
        list for a registered scenario with no deltas yet.
        """
        if corpus not in self._corpora:
            return None
        with self._lock:
            history = self._delta_history.get(corpus, [])
            return [delta for delta in history if delta["seq"] > since]

    # -- ontology recommendation -------------------------------------------

    def run_recommend(self, payload: dict) -> dict:
        """Execute one recommendation request; returns the wire document.

        ``payload`` is the validated ``POST /recommend`` body: ``text``
        (raw input) or ``corpus`` (a registered scenario, annotated
        through its index), optional ``ontologies`` (a subset of
        registered names), ``acceptance_corpus`` (a registered scenario
        backing the acceptance criterion for text input), and
        ``config`` (:class:`~repro.recommend.config.RecommendConfig`
        field overrides).  Shared by the synchronous route and the job
        runner, so both produce the identical document.
        """
        config = self._recommend_config(payload.get("config"))
        recommender = Recommender(self.registry, config)
        ontologies = payload.get("ontologies")
        if payload.get("corpus") is not None:
            index = self._snapshot(str(payload["corpus"]))
            report = recommender.recommend_index(
                index, ontologies=ontologies
            )
        else:
            acceptance = payload.get("acceptance_corpus")
            acceptance_index = (
                self._snapshot(str(acceptance))
                if acceptance is not None
                else None
            )
            report = recommender.recommend_text(
                str(payload.get("text", "")),
                ontologies=ontologies,
                acceptance_index=acceptance_index,
                acceptance_source=(
                    "corpus" if acceptance_index is not None else None
                ),
            )
        return report.to_dict()

    def submit_recommend(
        self,
        payload: dict,
        *,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool]:
        """Queue a recommendation job (``kind="recommend"``).

        Used by ``POST /recommend`` for corpus inputs and oversized
        text, where running in the handler thread would stall the
        keep-alive connection.  Same ``Idempotency-Key`` contract as
        :meth:`submit_detailed`; poll ``GET /jobs/<id>`` for the
        :meth:`~repro.recommend.report.RecommendationReport.to_dict`
        document.
        """
        # Fail fast on an unknown config field or unknown names; a job
        # that can only fail must be rejected at submit time (400), not
        # discovered by the poller.
        self._recommend_config(payload.get("config"))
        corpus = payload.get("corpus")
        corpus_label = str(corpus) if corpus is not None else "text"
        # The job document shows the request minus the (possibly large)
        # text body, which is summarised by its size instead.
        overrides = {k: v for k, v in payload.items() if k != "text"}
        if "text" in payload:
            overrides["text_bytes"] = len(
                str(payload["text"]).encode("utf-8")
            )
        return self._enqueue(
            "recommend", corpus_label, overrides,
            request={"recommend": payload},
            idempotency_key=idempotency_key,
            work=lambda job: self._recommend(job, payload),
        )

    def _recommend(self, job: Job, payload: dict) -> dict:
        """A recommend job's work: the :meth:`run_recommend` document."""
        document = self.run_recommend(payload)
        if self._metrics is not None:
            ranking = document.get("ranking", [])
            self._metrics.recommend_finished(
                mode="job",
                seconds=time.time() - (job.started_at or 0.0),
                top_scores=ranking[0]["scores"] if ranking else {},
            )
        return document

    @staticmethod
    def _recommend_config(overrides: dict | None) -> RecommendConfig:
        """Build the request's config; unknown fields are a 400."""
        overrides = dict(overrides or {})
        allowed = {f.name for f in fields(RecommendConfig)}
        for name in overrides:
            if name not in allowed:
                raise ValidationError(f"unknown recommend config field {name!r}")
        return RecommendConfig(**overrides)

    def _check_corpus(self, name: str) -> None:
        if name not in self._corpora:
            raise ValidationError(
                f"unknown corpus {name!r}; registered: {self.corpora()}"
            )

    def _snapshot(self, name: str) -> CorpusIndex:
        """The scenario's corpus index as of its last whole delta (O(1))."""
        self._check_corpus(name)
        self._load(name)
        with self._lock:
            return self._snapshots[name]

    @staticmethod
    def _parse_documents(documents) -> list[Document]:
        """Validate the POSTed batch and build :class:`Document` rows."""
        if not isinstance(documents, list) or not documents:
            raise ValidationError(
                '"documents" must be a non-empty list of objects'
            )
        parsed: list[Document] = []
        for position, payload in enumerate(documents):
            if not isinstance(payload, dict) or "doc_id" not in payload:
                raise ValidationError(
                    f'document #{position} must be an object with a "doc_id"'
                )
            doc_id = str(payload["doc_id"])
            if "sentences" in payload:
                sentences = payload["sentences"]
                if not isinstance(sentences, list) or not all(
                    isinstance(sentence, list)
                    and all(isinstance(token, str) for token in sentence)
                    for sentence in sentences
                ):
                    raise ValidationError(
                        f'document {doc_id!r}: "sentences" must be a list '
                        "of token lists"
                    )
                parsed.append(
                    Document(
                        doc_id=doc_id,
                        sentences=[
                            [token.lower() for token in sentence]
                            for sentence in sentences
                        ],
                    )
                )
            elif "text" in payload:
                parsed.append(
                    Document.from_text(doc_id, str(payload["text"]))
                )
            else:
                raise ValidationError(
                    f'document {doc_id!r} needs "sentences" or "text"'
                )
            try:
                check_document(parsed[-1])
            except CorpusError as exc:
                raise ValidationError(str(exc)) from None
        return parsed

    def _streamer(self, name: str) -> StreamingEnricher:
        """The scenario's streaming enricher (created on first delta).

        The streamer wraps the *shared* loaded corpus and the scenario's
        default-config kept enricher, so a full enrichment job submitted
        after a delta sees the grown corpus, and a default-config job
        runs on the streamer's own enricher.  Called under the scenario
        lock.
        """
        with self._lock:
            streamer = self._streamers.get(name)
        if streamer is not None:
            return streamer
        ontology, corpus = self._load(name)
        enricher = self._enricher(name, self._config({}))
        streamer = StreamingEnricher(ontology, corpus, enricher=enricher)
        with self._lock:
            # Lost-race duplicates: first one in wins (its corpus object
            # is the shared loaded one either way).
            streamer = self._streamers.setdefault(name, streamer)
        return streamer

    def _enricher(
        self, name: str, config: EnrichmentConfig
    ) -> OntologyEnricher:
        """The kept enricher for ``(name, config)``, built on first use.

        Called under the scenario lock, which every use of the enricher
        holds too.  A missing default-config entry of a streaming
        scenario is the streamer's enricher.
        """
        key = (name, config)
        with self._lock:
            enricher = self._enrichers.get(key)
            streamer = self._streamers.get(name)
        if enricher is None and streamer is not None:
            if streamer.enricher.config == config:
                enricher = streamer.enricher
        if enricher is None:
            ontology, _ = self._load(name)
            enricher = OntologyEnricher(
                ontology, config=config, cache_store=self._store
            )
        with self._lock:
            self._enrichers[key] = enricher
            self._enrichers.move_to_end(key)
            while len(self._enrichers) > MAX_KEPT_ENRICHERS:
                self._enrichers.popitem(last=False)
        return enricher

    def _scenario_lock(self, name: str) -> threading.Lock:
        with self._lock:
            return self._scenario_locks.setdefault(name, threading.Lock())

    def _prune_finished_locked(self) -> None:
        """Drop the oldest finished jobs beyond the retention cap."""
        finished = [
            job for job in self._jobs.values() if job.status in ("done", "failed")
        ]
        excess = len(finished) - self._max_finished_jobs
        if excess <= 0:
            return
        finished.sort(key=lambda job: (job.submitted_at, job.job_id))
        for job in finished[:excess]:
            del self._jobs[job.job_id]
            if job.idempotency_key is not None:
                # The mapping's job is gone; a replay of that key would
                # point at a 404, so retire the key with the record.
                self._idempotency.pop(job.idempotency_key, None)

    def shutdown(self, *, wait: bool = False) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        self._pool.shutdown(wait=wait, cancel_futures=True)

    # -- internals ---------------------------------------------------------

    def _load(self, name: str) -> tuple[Ontology, Corpus]:
        """The scenario's (ontology, corpus), read on first use.

        The corpus's index is built, or opened through the service's
        store, before the pair is published.  Of two racing first
        loads the first one stored wins, and both callers use it:
        deltas grow this one corpus, so every job must read it.
        """
        with self._lock:
            loaded = self._loaded.get(name)
        if loaded is not None:
            return loaded
        ontology_path, corpus_path = self._corpora[name]
        ontology = read_ontology_json(ontology_path)
        corpus = read_corpus_jsonl(corpus_path)
        if self._index_dir is None:
            corpus.index()
        else:
            store = IndexStore(self._index_dir)
            corpus.adopt_index(store.load_or_build(corpus), store=store)
        with self._lock:
            loaded = self._loaded.setdefault(name, (ontology, corpus))
            if loaded[1] is corpus:
                self._snapshots[name] = corpus.index().snapshot()
        return loaded

    def _config(self, overrides: dict) -> EnrichmentConfig:
        forced: dict = {}
        if self._store is not None:
            forced["cache_dir"] = str(self._store.cache_dir)
            forced["cache_max_bytes"] = self._store.max_bytes
        if self._index_dir is not None:
            forced["index_dir"] = str(self._index_dir)
        return EnrichmentConfig(**{**overrides, **forced})
