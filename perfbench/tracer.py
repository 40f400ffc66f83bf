"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program.  It replaces the attribute each
caller looks up -- the module global for a function, the class attribute
for a method -- with a wrapper that records a span around the original
call, and :meth:`Tracer.uninstall` puts the originals back.

Each span records its name, start, end and parent (spans nest per
thread) plus optional counters.  A span's self time is its duration
minus the time its children cover.  Spans stay in memory and are written
out when the run ends.  Timestamps come from ``time.perf_counter``,
which reads ``CLOCK_MONOTONIC`` on Linux, so spans written by the served
child process line up with the benchmark process's own.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, "module:Owner.attr" or "module:function", per-span counter).
# A counter maps the wrapped call's (args, kwargs) to {metric: amount}.
LAYER_TARGETS = [
    ("workflow.enrich", "repro.workflow.pipeline:OntologyEnricher.enrich", None),
    (
        "workflow.stage.train",
        "repro.workflow.pipeline:OntologyEnricher.train_polysemy_detector",
        None,
    ),
    ("workflow.stage.extract", "repro.workflow.pipeline:ExtractStage.run", None),
    ("workflow.stage.detect", "repro.workflow.pipeline:DetectStage.run", None),
    ("workflow.stage.induce", "repro.workflow.pipeline:InduceStage.run", None),
    ("workflow.stage.link", "repro.workflow.pipeline:LinkStage.run", None),
    (
        "workflow.add_documents",
        "repro.workflow.streaming:StreamingEnricher.add_documents",
        None,
    ),
    ("polysemy.dataset", "repro.workflow.pipeline:build_polysemy_dataset", None),
    (
        "polysemy.featurise",
        "repro.polysemy.features:PolysemyFeatureExtractor.features_from_contexts",
        None,
    ),
    ("polysemy.direct_features", "repro.polysemy.features:direct_features", None),
    ("polysemy.context_graph", "repro.polysemy.features:build_context_graph", None),
    ("polysemy.graph_features", "repro.polysemy.features:graph_features", None),
    ("clustering.louvain", "repro.clustering.community:louvain_labels", None),
    ("polysemy.fit", "repro.polysemy.detector:PolysemyDetector.fit", None),
    (
        "polysemy.predict",
        "repro.polysemy.detector:PolysemyDetector.predict_features",
        None,
    ),
    (
        "polysemy.cache.lookup_many",
        "repro.polysemy.cache:FeatureCache.lookup_many",
        None,
    ),
    (
        "polysemy.cache.store_many",
        "repro.polysemy.cache:FeatureCache.store_many",
        None,
    ),
    ("extraction.extract", "repro.extraction.extractor:BioTexExtractor.extract", None),
    ("extraction.harvest", "repro.extraction.extractor:harvest_candidates", None),
    ("extraction.score", "repro.extraction.extractor:compute_measure", None),
    ("linkage.prepare", "repro.linkage.linker:SemanticLinker.prepare", None),
    (
        "linkage.cooccurrence",
        "repro.text.cooccurrence:CooccurrenceGraphBuilder.build",
        lambda args, kwargs: {
            "linkage.cooccurrence.docs": len(
                args[1] if len(args) > 1 else kwargs["documents"]
            )
        },
    ),
    ("linkage.context_index", "repro.linkage.context:TermContextIndex.build", None),
    ("linkage.propose", "repro.linkage.linker:SemanticLinker.propose", None),
    ("corpus.index", "repro.corpus.corpus:Corpus.index", None),
    ("corpus.add_documents", "repro.corpus.index:CorpusIndex.add_documents", None),
    (
        "corpus.add_documents",
        "repro.corpus.index_store:MmapCorpusIndex.add_documents",
        None,
    ),
    (
        "corpus.occurrence_records",
        "repro.corpus.index:CorpusIndex.occurrence_records",
        None,
    ),
    (
        "corpus.contexts_for_term",
        "repro.corpus.index:CorpusIndex.contexts_for_term",
        None,
    ),
    (
        "corpus.index_store.load_or_build",
        "repro.corpus.index_store:IndexStore.load_or_build",
        None,
    ),
    ("senses.induce", "repro.senses.induction:SenseInducer.induce", None),
    ("service.submit_job", "repro.service.client:ServiceClient.submit_job", None),
    ("service.poll_job", "repro.service.client:ServiceClient.job", None),
    (
        "service.post_documents",
        "repro.service.client:ServiceClient.post_documents",
        None,
    ),
    ("service.recommend", "repro.service.client:ServiceClient.recommend", None),
    (
        "recommend.recommend_text",
        "repro.recommend.engine:Recommender.recommend_text",
        None,
    ),
    (
        "recommend.annotate_text",
        "repro.recommend.annotator:Annotator.annotate_text",
        None,
    ),
]

# Called once per sentence during Step I: counted, not timed, so the
# tracer adds no span per call.  The count lands on the innermost open
# span of the calling thread, which places it in time.
LAYER_COUNTERS = [
    ("extraction.tag.calls", "repro.text.postag:LexiconTagger.tag"),
]

# Span stems whose call count is reported as ``<stem>.calls``.
COUNTED_CALLS = (
    "polysemy.featurise",
    "clustering.louvain",
    "linkage.propose",
    "corpus.occurrence_records",
    "corpus.contexts_for_term",
    "senses.induce",
    "service.poll_job",
)


class Span:
    """One recorded call: name, interval, parent span and counters."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, int] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around wrapped calls while :attr:`recording` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (the benchmark's ops)."""
        if not self.recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        """Wrap every layer target and counter."""
        for stem, target, count in LAYER_TARGETS:
            self._wrap(target, self._timed(stem, count))
        for name, target in LAYER_COUNTERS:
            self._wrap(target, self._counted(name))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: str, make_wrapper) -> None:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def _timed(self, name: str, count):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                span = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                    if count is not None:
                        span.counts = {**(span.counts or {}), **count(args, kwargs)}

            return wrapper

        return make

    def _counted(self, name: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if tracer.recording:
                    stack = tracer._stack()
                    if stack:
                        counts = stack[-1].counts = stack[-1].counts or {}
                        counts[name] = counts.get(name, 0) + 1
                    else:
                        with tracer._lock:
                            tracer.counters[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def write(self, path) -> None:
        """Write every span and counter (see :func:`to_records`)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_records(self.spans, self.counters), handle)


def to_records(spans: list[Span], counters: dict[str, int]) -> dict:
    """Spans as JSON-safe records; parents become list indexes."""
    position = {id(span): i for i, span in enumerate(spans)}
    return {
        "spans": [
            [
                span.name,
                span.start,
                span.end,
                position.get(id(span.parent), -1),
                span.counts,
            ]
            for span in spans
        ],
        "counters": dict(counters),
    }


def spans_from_records(records: dict) -> list[Span]:
    """Rebuild spans written by :func:`to_records`."""
    spans = []
    for name, start, end, _, counts in records["spans"]:
        span = Span(name, None)
        span.start, span.end, span.counts = start, end, counts
        spans.append(span)
    for span, (_, _, _, parent, _) in zip(spans, records["spans"], strict=True):
        if parent >= 0:
            span.parent = spans[parent]
    return spans


# -- aggregation -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the time its children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered[id(span)] for span in spans}


def _outermost(span: Span) -> bool:
    """False for a span nested inside a span of the same name."""
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return False
        parent = parent.parent
    return True


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name ``.s``, ``.self_s`` and ``.calls``, plus counters.

    ``.s`` and ``.calls`` count only outermost spans of a name, so a
    method calling its own base implementation is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[f"{span.name}.self_s"] += selfs[id(span)]
        for key, amount in (span.counts or {}).items():
            totals[key] += amount
        if _outermost(span):
            totals[f"{span.name}.s"] += span.duration
            totals[f"{span.name}.calls"] += 1
    return totals


def enrich_coverage(spans: list[Span]) -> list[float]:
    """Share of each ``workflow.enrich`` span its direct children cover."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.parent.name == "workflow.enrich":
            children[id(span.parent)] += span.duration
    return [
        children[id(span)] / span.duration
        for span in spans
        if span.name == "workflow.enrich" and span.duration > 0
    ]


def shares_by_op(spans: list[Span], op_prefix: str = "op.") -> dict[str, dict]:
    """Per op kind: op count, op seconds, and per layer span name the
    seconds and self seconds spent inside those ops.

    A layer span belongs to the op whose interval contains its start.
    That works across processes too, since both clocks are
    ``CLOCK_MONOTONIC``.  Only outermost spans of a name add to the
    seconds.
    """
    selfs = self_times(spans)
    ops = sorted(
        (span for span in spans if span.name.startswith(op_prefix)),
        key=lambda span: span.start,
    )
    starts = [op.start for op in ops]
    result: dict[str, dict] = defaultdict(
        lambda: {
            "ops": 0,
            "s": 0.0,
            "layers": defaultdict(float),
            "self": defaultdict(float),
        }
    )
    for op in ops:
        entry = result[op.name[len(op_prefix) :]]
        entry["ops"] += 1
        entry["s"] += op.duration
    for span in spans:
        if span.name.startswith(op_prefix):
            continue
        at = bisect.bisect_right(starts, span.start) - 1
        if at < 0 or span.start > ops[at].end:
            continue
        entry = result[ops[at].name[len(op_prefix) :]]
        entry["self"][span.name] += selfs[id(span)]
        if _outermost(span):
            entry["layers"][span.name] += span.duration
    return result
