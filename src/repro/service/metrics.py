"""First-class observability for the served deployment: zero-dep metrics.

The serving layer needs to answer "is it healthy, is it fast, is the
cache working" without external dependencies (the repo is
stdlib+numpy only).  This module provides the three Prometheus-style
instrument kinds the service exposes on ``GET /metrics``:

* :class:`Counter` — monotonically increasing.  Each child keeps its
  value behind one lock, so increments from concurrent handler threads
  are never lost and a scrape never sees a value below an earlier one.
  (Striping the lock per thread measured no faster than one lock
  under CPython, at 1 and at 16 threads.)
* :class:`Gauge` — a current-value instrument (in-flight requests).
* :class:`Histogram` — fixed-boundary latency buckets (no dynamic
  resizing, no quantile sketches: scrapers derive p50/p99 from the
  cumulative bucket counts, which is exactly Prometheus' model).

Instruments carry labels (``route``, ``status``, ``corpus``, ...);
each distinct label combination is one independent *child* created on
first use.  :class:`MetricsRegistry.render` serialises everything in
the Prometheus text exposition format (version 0.0.4), which is also
trivially greppable by humans and CI smoke checks.

:class:`ServiceMetrics` bundles the registry plus the concrete
instruments the HTTP server and job manager record into — one object
handed through :class:`~repro.service.server.CacheService`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable
from typing import Any, Generic, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "DEFAULT_LATENCY_BUCKETS",
    "SCORE_BUCKETS",
    "CONTENT_TYPE",
]

#: The exposition Content-Type Prometheus scrapers expect.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request/job latency boundaries in seconds: sub-millisecond cache
#: hits through multi-second enrichment jobs.  Buckets are cumulative
#: upper bounds (``le``), Prometheus convention.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Recommendation-score boundaries: criterion scores live in [0, 1], so
#: ten equal buckets give the score distributions a stable shape.
SCORE_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _labels_text(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    """``{k="v",...}`` (empty string for an unlabelled child)."""
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values, strict=True)
    )
    return "{" + pairs + "}"


#: The per-label-set child type of a concrete instrument.
C = TypeVar("C")


class _Metric(Generic[C]):
    """Shared labelled-children plumbing of every instrument kind."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, label_names: tuple[str, ...] = ()
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], C] = {}
        self._children_lock = threading.Lock()

    def _child(self, labels: dict[str, str]) -> C:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._children_lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _new_child(self) -> C:  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def children(self) -> list[tuple[tuple[str, ...], C]]:
        """Stable (sorted) snapshot of the label-set → child mapping."""
        with self._children_lock:
            return sorted(self._children.items())


class _Value:
    """One counter or gauge child: a float behind one lock."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def value(self) -> float:
        with self._lock:
            return self._value


class _ValueMetric(_Metric[_Value]):
    """Counter and gauge plumbing: one :class:`_Value` per label set."""

    def _new_child(self) -> _Value:
        return _Value()

    def value(self, **labels: str) -> float:
        return self._child(labels).value()

    def samples(self) -> list[str]:
        return [
            f"{self.name}{_labels_text(self.label_names, key)} "
            f"{_format_value(child.value())}"
            for key, child in self.children()
        ]


class Counter(_ValueMetric):
    """A monotonically increasing counter.

    >>> c = Counter("repro_demo_total", "demo", ("kind",))
    >>> c.inc(kind="a"); c.inc(2, kind="a")
    >>> c.value(kind="a")
    3.0
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._child(labels).add(amount)


class Gauge(_ValueMetric):
    """A current-value instrument (e.g. in-flight requests)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).add(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).add(-amount)

    def set(self, value: float, **labels: str) -> None:
        self._child(labels).set(value)


class _HistogramChild:
    """Bucket counts + sum + count behind one small lock.

    An observation is a bisect plus three additions — cheap enough
    that striping would buy nothing over the single lock.
    """

    __slots__ = ("_buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # ``le`` is an inclusive upper bound: a value equal to a
        # boundary lands in that boundary's bucket (bisect_left).
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count)."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total_count = self._count
        cumulative = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return cumulative, total_sum, total_count


class Histogram(_Metric[_HistogramChild]):
    """Fixed-boundary histogram in the Prometheus cumulative model.

    >>> h = Histogram("repro_demo_seconds", "demo", buckets=(0.1, 1.0))
    >>> h.observe(0.1)  # boundary values are inclusive (le semantics)
    >>> h.snapshot()[0][:2]
    [1, 1]
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries or list(boundaries) != sorted(set(boundaries)):
            raise ValueError(
                f"buckets must be non-empty and strictly increasing, "
                f"got {buckets}"
            )
        self.buckets = boundaries

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self._child(labels).observe(value)

    def snapshot(self, **labels: str) -> tuple[list[int], float, int]:
        return self._child(labels).snapshot()

    def samples(self) -> list[str]:
        lines: list[str] = []
        for key, child in self.children():
            cumulative, total_sum, total_count = child.snapshot()
            # cumulative carries one extra entry (the +Inf overflow),
            # emitted separately below: truncation is the point.
            for boundary, running in zip(self.buckets, cumulative, strict=False):
                labels = _labels_text(
                    self.label_names + ("le",),
                    key + (_format_value(boundary),),
                )
                lines.append(f"{self.name}_bucket{labels} {running}")
            inf_labels = _labels_text(
                self.label_names + ("le",), key + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{inf_labels} {cumulative[-1]}")
            plain = _labels_text(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {repr(total_sum)}")
            lines.append(f"{self.name}_count{plain} {total_count}")
        return lines


#: Bound for :meth:`MetricsRegistry.register`'s pass-through typing.
M = TypeVar("M", bound=_Metric[Any])


class MetricsRegistry:
    """Named instruments + the text-format exposition of all of them."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric[Any]] = {}
        self._lock = threading.Lock()

    def register(self, metric: M) -> M:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Counter:
        return self.register(Counter(name, help_text, tuple(labels)))

    def gauge(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Gauge:
        return self.register(Gauge(name, help_text, tuple(labels)))

    def histogram(
        self, name: str, help_text: str, labels: Iterable[str] = (), *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(
            Histogram(name, help_text, tuple(labels), buckets=buckets)
        )

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        blocks: list[str] = []
        for metric in metrics:
            lines = [
                f"# HELP {metric.name} {metric.help_text}",
                f"# TYPE {metric.name} {metric.kind}",
            ]
            lines.extend(metric.samples())
            blocks.append("\n".join(lines))
        return "\n".join(blocks) + "\n"


class ServiceMetrics:
    """The served deployment's concrete instruments, ready to record.

    One instance lives on the
    :class:`~repro.service.server.CacheService`; the HTTP handler and
    the :class:`~repro.service.jobs.JobManager` record into it, and
    ``GET /metrics`` serves :meth:`render`.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route, and status.",
            ("method", "route", "status"),
        )
        self.http_seconds = self.registry.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by route.",
            ("route",),
        )
        self.inflight = self.registry.gauge(
            "repro_http_inflight_requests",
            "Requests currently being handled.",
        )
        self.cache_ops = self.registry.counter(
            "repro_cache_requests_total",
            "Vector cache operations by op (batch_get/batch_put), counted "
            "per key, and outcome (hit/miss/stored/error).",
            ("op", "outcome"),
        )
        self.batch_vectors = self.registry.counter(
            "repro_batch_vectors_total",
            "Vectors carried inside batch frames, by op.",
            ("op",),
        )
        self.jobs = self.registry.counter(
            "repro_jobs_total",
            "Enrichment jobs by corpus and status "
            "(submitted/replayed/done/failed).",
            ("corpus", "status"),
        )
        self.job_seconds = self.registry.histogram(
            "repro_job_seconds",
            "Server-side enrichment job duration by corpus.",
            ("corpus",),
        )
        self.delta_seconds = self.registry.histogram(
            "repro_delta_seconds",
            "Streaming delta re-enrichment duration by corpus.",
            ("corpus",),
        )
        self.delta_terms = self.registry.counter(
            "repro_delta_terms_recomputed_total",
            "Changed terms of streaming deltas, by corpus: known terms whose "
            "postings a delta changed (changed_terms). Only these can miss "
            "the Step II cache; a delta report's cache misses count the "
            "vectors actually featurised.",
            ("corpus",),
        )
        self.recommend_seconds = self.registry.histogram(
            "repro_recommend_seconds",
            "Ontology recommendation duration, by mode (sync/job).",
            ("mode",),
        )
        self.recommend_scores = self.registry.histogram(
            "repro_recommend_score",
            "Top-ranked ontology's per-criterion recommendation scores.",
            ("criterion",),
            buckets=SCORE_BUCKETS,
        )

    def render(self) -> str:
        """The ``GET /metrics`` response body."""
        return self.registry.render()

    # -- recording helpers (keep call sites one-liners) --------------------

    def observe_request(
        self, *, method: str, route: str, status: int, seconds: float
    ) -> None:
        self.http_requests.inc(
            method=method, route=route, status=str(status)
        )
        self.http_seconds.observe(seconds, route=route)

    def count_cache_op(self, op: str, outcome: str, n: int = 1) -> None:
        if n:
            self.cache_ops.inc(n, op=op, outcome=outcome)

    def job_submitted(self, corpus: str, *, replayed: bool) -> None:
        self.jobs.inc(
            corpus=corpus, status="replayed" if replayed else "submitted"
        )

    def job_finished(
        self, corpus: str, *, status: str, seconds: float
    ) -> None:
        self.jobs.inc(corpus=corpus, status=status)
        self.job_seconds.observe(seconds, corpus=corpus)

    def delta_finished(
        self, corpus: str, *, seconds: float, terms_recomputed: int
    ) -> None:
        self.delta_seconds.observe(seconds, corpus=corpus)
        if terms_recomputed:
            self.delta_terms.inc(terms_recomputed, corpus=corpus)

    def recommend_finished(
        self, *, mode: str, seconds: float, top_scores: dict[str, float]
    ) -> None:
        """Record one finished recommendation.

        ``top_scores`` is the winning ontology's per-criterion score
        map (empty when nothing was ranked): the score histograms track
        what the *best available* ontology offers over time, which is
        the "is our registry still adequate" signal.
        """
        self.recommend_seconds.observe(seconds, mode=mode)
        for criterion, score in sorted(top_scores.items()):
            self.recommend_scores.observe(score, criterion=criterion)
