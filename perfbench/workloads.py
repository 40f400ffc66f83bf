"""The benchmark's three seeded workloads: ``cold``, ``stream`` and ``served``.

All inputs come from :func:`make_inputs`, which follows the paper's
protocol: the ontology being enriched is the generated ontology as it
stood before 2009, the full ontology is the 2015 gold, and a few
abstracts spread evenly over the corpus are held out as *arrivals*.

Every workload reports the same end-to-end metrics (see ``E2E`` in
``run.py``); ``ROLE_NAMES`` gives the name each timing has on each
workload, and each workload's docstring says why the workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.io import read_corpus_jsonl, write_corpus_jsonl
from repro.linkage.evaluation import gold_positions
from repro.ontology.io import read_ontology_json, write_ontology_json
from repro.ontology.model import Ontology, normalize_term
from repro.ontology.snapshot import snapshot_before
from repro.recommend import OntologyRegistry, Recommender
from repro.scenarios import make_enrichment_scenario
from repro.service.client import ServiceClient
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.streaming import StreamingEnricher

from hostspeed import read_samples

HERE = Path(__file__).resolve().parent

#: The release the enriched ontology predates; concepts added from this
#: year up to ``GOLD_YEAR`` are the new terms the quality metrics score.
CUTOFF_YEAR = 2009
GOLD_YEAR = 2015

#: Times each workload's set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The least ops a run times.  A run takes the median of several ops
#: spread over its whole timed phase (``stream`` times one warm re-run
#: and one delta per arrival), so no single op's inputs or host phase
#: sets the result.
COLD_OPS = 2
SERVED_CYCLES = 8
#: Sync ``/recommend`` calls per served cycle: eight cycles give 512
#: samples, so the 95th percentile has more than ten samples above it.
RECOMMEND_BATCH = 64
#: Fixed interval at which the served client polls ``GET /jobs/<id>``.
POLL_SECONDS = 0.01
#: An op that has not finished after this long counts as failed.
OP_TIMEOUT_SECONDS = 120.0


@dataclass(frozen=True)
class Rung:
    """One size of the generated scenario ladder."""

    n_concepts: int
    docs_per_concept: int
    n_arrivals: int


RUNGS = {
    # 180 docs, with an arrival for every served cycle a run can make.
    "S": Rung(n_concepts=30, docs_per_concept=6, n_arrivals=12),
    # 960 docs.  Each arrival changes different terms, so the median
    # delta needs several of them to settle.
    "M": Rung(n_concepts=120, docs_per_concept=8, n_arrivals=5),
    # 1,920 docs.
    "L": Rung(n_concepts=240, docs_per_concept=8, n_arrivals=3),
}

#: Each workload's rung.  ``stream`` runs on M: on L one run takes over
#: a minute (two cold enrichments besides its ops), which the benchmark's
#: time budget for all runs cannot afford.
DEFAULT_RUNGS = {"cold": "L", "stream": "M", "served": "S"}

#: The name each end-to-end timing has on each workload.  ``enrich_s``
#: is one full enrichment of the current corpus; ``arrival_s`` is the
#: time until one arriving abstract is in the report, which without a
#: streaming enricher is a cold run over the grown corpus.
ROLE_NAMES = {
    "cold": {"enrich_s": "cold_s", "arrival_s": "cold_s"},
    "stream": {"enrich_s": "warm_s", "arrival_s": "delta_s"},
    "served": {"enrich_s": "job_s", "arrival_s": "feed_delta_s"},
}


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """One seeded scenario, split the way every workload uses it."""

    gold: Ontology
    ontology: Ontology
    pos_lexicon: dict[str, str]
    others: list[Document]
    arrivals: list[Document]


def make_inputs(seed: int, rung: Rung) -> Inputs:
    """The seeded scenario of ``rung`` with its arrivals held out.

    Arrivals sit at evenly spaced positions of the generated corpus, so
    they are real abstracts that each touch a few known terms.
    """
    scenario = make_enrichment_scenario(
        seed=seed,
        n_concepts=rung.n_concepts,
        docs_per_concept=rung.docs_per_concept,
    )
    documents = list(scenario.corpus)
    count, k = len(documents), rung.n_arrivals
    picks = [int((i + 0.5) * count / k) for i in range(k)]
    return Inputs(
        gold=scenario.ontology,
        ontology=snapshot_before(scenario.ontology, CUTOFF_YEAR),
        pos_lexicon=scenario.pos_lexicon,
        others=[doc for i, doc in enumerate(documents) if i not in picks],
        arrivals=[documents[i] for i in picks],
    )


# -- output checks and quality -----------------------------------------------


def digest(report: dict) -> str:
    """Hash of a report's ``to_dict()`` minus its run-time measurements."""
    body = {k: v for k, v in report.items() if k not in ("timings", "cache")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def quality(report: dict, gold: Ontology) -> dict[str, float]:
    """Candidate precision, Table 4 P@10 and sense accuracy of a report.

    New terms are the terms of concepts the gold ontology added from
    ``CUTOFF_YEAR`` on.  A skipped or failed candidate misses P@10.
    """
    new_terms = {
        term
        for concept in gold
        if CUTOFF_YEAR <= (concept.year_added or 0) <= GOLD_YEAR
        for term in concept.all_terms()
    }
    terms = report["terms"]
    new = [row for row in terms if normalize_term(row["term"]) in new_terms]
    linked = sensed = 0
    for row in new:
        concepts = gold.concepts_for_term(row["term"])
        positions = set().union(
            *(gold_positions(gold, concept, row["term"]) for concept in concepts)
        )
        top = {normalize_term(p["term"]) for p in row["propositions"][:10]}
        if row["skipped_reason"] is None and positions & top:
            linked += 1
        if row["n_senses"] == len(concepts):
            sensed += 1
    return {
        "candidate_precision": len(new) / len(terms) if terms else 0.0,
        "link_p_at_10": linked / len(new) if new else 0.0,
        "sense_accuracy": sensed / len(new) if new else 0.0,
    }


# -- one run -----------------------------------------------------------------


class Run:
    """Samples, op counts and checks of one benchmark run."""

    def __init__(
        self, *, seed: int, seconds: float, rung: Rung, tracer, trace: bool, workdir
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rung = rung
        self.tracer = tracer
        self.trace = trace
        self.workdir = workdir
        #: Op kind (``enrich``, ``arrival``, ``recommend``) -> (start,
        #: end) ``perf_counter`` intervals of the ops that succeeded.
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: Set-up as parts that add up; each part is the median of its
        #: repeats, given as (start, end) intervals.
        self.setup_parts: list[list[tuple[float, float]]] = []
        #: Host-speed probes taken by the served child (see hostspeed.py).
        self.child_probes: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Per-layer values read from reports and job documents.
        self.layer: dict[str, float] = defaultdict(float)
        self.quality: dict[str, float] = {}
        self.peak_rss_mb = 0.0
        #: Start of the timed phase, and the served child's span records.
        self.timed_from = 0.0
        self.child_spans: dict | None = None

    @property
    def samples(self) -> dict[str, list[float]]:
        """Op kind -> wall seconds of each op that succeeded."""
        return {
            kind: [end - start for start, end in intervals]
            for kind, intervals in self.intervals.items()
        }

    def measure(self, kind: str, fn, *args):
        """Time one op of ``kind``; an exception fails the op."""
        self.attempted += 1
        started = perf_counter()
        try:
            with self.tracer.span("op." + kind):
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.intervals[kind].append((started, perf_counter()))
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check; a failed one fails the op it checks."""
        if not ok:
            self.fail(message)

    def recording(self, on: bool) -> None:
        """Record spans only around timed ops."""
        if on and not self.timed_from:
            self.timed_from = perf_counter()
        self.tracer.recording = on

    def timed_loop(self, minimum: int):
        """Yield once per op: at least ``minimum`` times, then while one
        more op as long as the last would still end within ``seconds``."""
        began = perf_counter()
        count = 0
        while True:
            started = perf_counter()
            yield
            count += 1
            last = perf_counter() - started
            if count >= minimum and perf_counter() - began + last > self.seconds:
                return

    def setup_inputs(self) -> Inputs:
        """Generate the scenario ``SETUP_REPEATS`` times, as one set-up
        part; return the last inputs."""
        intervals = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            inputs = make_inputs(self.seed, self.rung)
            intervals.append((started, perf_counter()))
        self.setup_parts.append(intervals)
        return inputs

    def count_cache(self, cache: dict) -> None:
        self.layer["polysemy.cache.hits"] += cache.get("hits", 0)
        self.layer["polysemy.cache.misses"] += cache.get("misses", 0)

    def count_delta(self, diff: dict) -> None:
        """Per-layer values of one ``ReportDiff.to_dict()``."""
        carried = diff["timings"].get("carry_forward", 0.0)
        self.layer["workflow.carry_forward.s"] += carried
        self.layer["workflow.changed_terms"] += len(diff["changed_terms"])
        self.count_cache(diff["cache"])

    def count_job(self, job: dict) -> None:
        """Server-side wait and run time of one served job document."""
        self.layer["service.job_wait.s"] += job["started_at"] - job["submitted_at"]
        self.layer["service.job_run.s"] += job["finished_at"] - job["started_at"]

    def self_peak_rss(self) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.peak_rss_mb = usage.ru_maxrss / 1024


def _enrich_cold(inputs: Inputs, documents: list[Document]):
    enricher = OntologyEnricher(inputs.ontology, pos_lexicon=inputs.pos_lexicon)
    return enricher.enrich(Corpus(documents))


# -- the workloads -----------------------------------------------------------


def cold(run: Run) -> None:
    """Cold enrichment of the L rung, arrivals appended to the corpus.

    Why: this is the first run a curator pays for.  Step II featurisation
    is its largest part, so graph-build and Louvain work shows here and
    nowhere else.  Each op is one ``enrich`` by a fresh
    ``OntologyEnricher`` on a fresh ``Corpus``, so nothing is cached.
    """
    inputs = run.setup_inputs()
    documents = inputs.others + inputs.arrivals
    reports = []
    run.recording(True)
    for _ in run.timed_loop(COLD_OPS):
        report = run.measure("enrich", _enrich_cold, inputs, documents)
        if report is None:
            break
        reports.append(report.to_dict())
        run.count_cache(report.cache)
    run.recording(False)
    run.intervals["arrival"] = list(run.intervals["enrich"])
    run.self_peak_rss()
    if reports:
        run.check(
            len({digest(report) for report in reports}) == 1,
            "cold: repeated cold runs disagree",
        )
        run.check(
            reports[0]["detector_trained"] and reports[0]["n_candidates"] > 0,
            "cold: no trained detector or no candidates",
        )
        run.quality = quality(reports[0], inputs.gold)


def stream(run: Run) -> None:
    """Warm re-runs and one-abstract deltas of a streaming enricher (M rung).

    Why: this is the daemon's steady state.  Step II is served from the
    feature cache, and whole-corpus Step I/IV rescans plus the detector
    refit make up most of a delta, so O(delta) work shows here while
    the featurisation that dominates ``cold`` is bypassed.  Set-up runs
    the baseline over the corpus without the arrivals; then, per arrival,
    one warm ``enrich`` re-run of the unchanged corpus and one
    ``add_documents`` of the arrival.
    """
    inputs = run.setup_inputs()
    started = perf_counter()
    streamer = StreamingEnricher(
        inputs.ontology, Corpus(inputs.others), pos_lexicon=inputs.pos_lexicon
    )
    streamer.baseline()
    run.setup_parts.append([(started, perf_counter())])
    run.recording(True)
    for arrival in inputs.arrivals:
        base = streamer.report
        report = run.measure("enrich", streamer.enricher.enrich, streamer.corpus)
        if report is not None:
            run.count_cache(report.cache)
            run.check(
                digest(report.to_dict()) == digest(base.to_dict()),
                "stream: a warm re-run changed the report",
            )
        diff = run.measure("arrival", streamer.add_documents, [arrival])
        if diff is None:
            continue
        run.count_delta(diff.to_dict())
        run.check(
            digest(diff.apply(base).to_dict()) == digest(streamer.report.to_dict()),
            "stream: diff.apply(base) differs from the delta's report",
        )
    run.recording(False)
    run.self_peak_rss()
    final = streamer.report.to_dict()
    run.quality = quality(final, inputs.gold)
    reference = _enrich_cold(inputs, inputs.others + inputs.arrivals)
    run.check(
        digest(final) == digest(reference.to_dict()),
        "stream: final report differs from a cold run over the same documents",
    )


# -- served ------------------------------------------------------------------


class ServerChild:
    """A ``repro serve`` child process started through ``serve_child.py``.

    ``probes`` holds the child's host-speed probes once it has stopped.
    """

    def __init__(self, config: dict, workdir: Path) -> None:
        config_path = workdir / "serve.json"
        config_path.write_text(json.dumps(config))
        self._probes_path = Path(config["probes_out"])
        self.probes: list[tuple[float, float]] = []
        self._log = open(workdir / "serve.log", "w")  # noqa: SIM115 - see stop()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), str(config_path)],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=env,
        )
        try:
            self.url = self._wait_for_url(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self, *, deadline: float) -> str:
        """The address from the server's first line of output."""
        while time.monotonic() < deadline:
            remaining = deadline - time.monotonic()
            if not select.select([self.process.stdout], [], [], remaining)[0]:
                break
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.process.wait()}")
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                return match.group(1)
        raise RuntimeError("server did not report its address in time")

    def peak_rss_mb(self) -> float:
        """The child's peak resident set size, from ``/proc``."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM (the server's graceful shutdown), wait for exit, then
        read the probes the child wrote on its way out."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        if not self.probes and self._probes_path.is_file():
            self.probes = read_samples(self._probes_path)


def _write_layout(inputs: Inputs, root: Path) -> dict:
    """Write the ``repro generate`` layout the server registers."""
    corpora = {}
    for name, documents in (
        ("jobs", inputs.others + inputs.arrivals),
        ("feed", inputs.others),
    ):
        directory = root / name
        directory.mkdir(parents=True)
        paths = [directory / "ontology.json", directory / "corpus.jsonl"]
        write_ontology_json(inputs.ontology, paths[0])
        write_corpus_jsonl(Corpus(documents), paths[1])
        corpora[name] = [str(path) for path in paths]
    ontologies = {}
    for year, ontology in ((GOLD_YEAR, inputs.gold), (CUTOFF_YEAR, inputs.ontology)):
        path = root / f"mesh{year}.json"
        write_ontology_json(ontology, path)
        ontologies[f"mesh{year}"] = str(path)
    return {"corpora": corpora, "ontologies": ontologies}


def _wait_job(client: ServiceClient, job_id: str) -> dict:
    """Poll every ``POLL_SECONDS`` until the job is done; raise otherwise."""
    deadline = time.monotonic() + OP_TIMEOUT_SECONDS
    while True:
        document = client.job(job_id)
        if document["status"] == "done":
            return document
        if document["status"] == "failed":
            raise RuntimeError(f"job {job_id} failed: {document.get('error')}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {document['status']}")
        time.sleep(POLL_SECONDS)


def _run_job(client: ServiceClient) -> dict:
    return _wait_job(client, client.submit_job("jobs"))


def _post_arrival(client: ServiceClient, arrival: Document) -> dict:
    document = {"doc_id": arrival.doc_id, "sentences": arrival.sentences}
    job_id, _ = client.post_documents("feed", [document])
    return _wait_job(client, job_id)


def _boot(run: Run, attempt: int) -> tuple[Inputs, Path, ServerChild]:
    """Generate and write the scenario, then boot a server over it."""
    inputs = make_inputs(run.seed, run.rung)
    root = run.workdir / f"setup{attempt}"
    config = _write_layout(inputs, root)
    config.update(
        cache_dir=str(root / "cache"),
        index_dir=str(root / "index"),
        trace_out=str(root / "spans.json") if run.trace else None,
        probes_out=str(root / "probes.json"),
    )
    return inputs, root, ServerChild(config, root)


def served(run: Run) -> None:
    """A ``repro serve`` child over HTTP, driven by one closed-loop client.

    Why: the only workload that runs ``repro.service``,
    ``repro.recommend``, the disk cache store and the mmap index store.
    The S rung keeps the service's share of each op visible, and a
    closed loop matches callers that wait for each reply.  The scenario
    is registered twice, as ``jobs`` with all abstracts and as ``feed``
    without the arrivals.  Set-up boots the server, runs a warm-up job
    and posts the first arrival, which runs the feed's baseline.  Each
    cycle runs a full job on ``jobs``, posts one arrival to ``feed``,
    then sends a batch of sync ``POST /recommend`` calls.  The server
    runs on one CPU (see ``serve_child.py``), the client on the others.
    """
    setup_intervals = []
    servers: list[ServerChild] = []
    try:
        for attempt in range(SETUP_REPEATS):
            if servers:
                client.close()
                servers[-1].stop()
            started = perf_counter()
            inputs, root, server = _boot(run, attempt)
            servers.append(server)
            client = ServiceClient(server.url, timeout=OP_TIMEOUT_SECONDS)
            _run_job(client)
            _post_arrival(client, inputs.arrivals[0])
            setup_intervals.append((started, perf_counter()))
        run.setup_parts.append(setup_intervals)
        jobs, deltas, answers = _served_cycles(run, client, inputs)
        run.peak_rss_mb = server.peak_rss_mb()
        client.close()
    finally:
        for server in servers:
            server.stop()
    for server in servers:
        run.child_probes += server.probes
    if run.trace:
        run.child_spans = json.loads((root / "spans.json").read_text())
    _check_served(run, root, inputs, jobs, deltas, answers)


def _served_cycles(run: Run, client: ServiceClient, inputs: Inputs):
    documents = inputs.others + inputs.arrivals
    jobs, deltas, answers = [], [], []
    sent = 0
    run.recording(True)
    for _, arrival in zip(run.timed_loop(SERVED_CYCLES), inputs.arrivals[1:]):
        job = run.measure("enrich", _run_job, client)
        if job is not None:
            jobs.append(job)
        delta = run.measure("arrival", _post_arrival, client, arrival)
        if delta is not None:
            deltas.append(delta)
        for _ in range(RECOMMEND_BATCH):
            # The generator lists each concept's abstracts together, so
            # stride across concepts (7 is coprime with the S rung's 180).
            text = documents[sent * 7 % len(documents)].text()
            sent += 1
            body = run.measure(
                "recommend",
                lambda text: client.recommend(text=text, acceptance_corpus="jobs"),
                text,
            )
            if body is not None:
                answers.append((text, body))
    run.recording(False)
    return jobs, deltas, answers


def _check_served(run: Run, root: Path, inputs: Inputs, jobs, deltas, answers):
    """Compare every served answer with its in-process reference."""
    ontology = read_ontology_json(root / "jobs" / "ontology.json")
    corpus = read_corpus_jsonl(root / "jobs" / "corpus.jsonl")
    # The CLI path: the files the server loaded, no POS lexicon.
    expected = digest(OntologyEnricher(ontology).enrich(corpus).to_dict())
    for job in jobs:
        run.check(digest(job["report"]) == expected, f"served: {job['job']} differs")
        run.count_cache(job["report"]["cache"])
        run.count_job(job)
    if jobs:
        run.quality = quality(jobs[0]["report"], inputs.gold)
    previous = None
    for delta in deltas:
        diff = delta["report"]
        run.check(
            previous in (None, diff["base_fingerprint"]),
            f"served: {delta['job']} does not extend the previous delta",
        )
        previous = diff["fingerprint"]
        run.count_delta(diff)
        run.count_job(delta)
    registry = OntologyRegistry()
    for year in (GOLD_YEAR, CUTOFF_YEAR):
        registry.register_path(f"mesh{year}", root / f"mesh{year}.json")
    recommender = Recommender(registry)
    index = CorpusIndex(read_corpus_jsonl(root / "jobs" / "corpus.jsonl"))
    expected_bodies: dict[str, dict] = {}
    for text, body in answers:
        if text not in expected_bodies:
            report = recommender.recommend_text(
                text, acceptance_index=index, acceptance_source="corpus"
            )
            expected_bodies[text] = json.loads(json.dumps(report.to_dict()))
        run.check(body == expected_bodies[text], "served: /recommend body differs")
