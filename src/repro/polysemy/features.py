"""Assembly of the full 23-dimensional polysemy feature vector.

:meth:`PolysemyFeatureExtractor.featurise` is Step II's one featuriser:
it takes a batch of ``(term, contexts, doc_frequency)`` items and returns
one row per item.  Every Step II caller goes through it: training
(:func:`~repro.polysemy.dataset.build_polysemy_dataset` featurises all
its cache misses in one call), detection (``DetectStage`` featurises all
its candidates in one call), the entity data sets, and
:meth:`~PolysemyFeatureExtractor.features_from_contexts`, a batch of one.

Inside a batch, the contexts are encoded once
(:class:`~repro.polysemy.batch.ContextBatch`).  The direct half
(:func:`~repro.polysemy.direct_features.direct_feature_rows`) takes
TF-IDF rows from segmented id counts; the graph half builds every
context graph into one CSR batch
(:func:`~repro.polysemy.graph_features.build_context_graphs`) and
computes its structural features a chunk of graphs at a time.  Louvain
communities run level 0 through one of three bit-identical sweeps (see
:mod:`repro.clustering.louvain`):

* the **wavefront** moves one node of every graph per step, and runs
  when a batch holds at least ``WAVEFRONT_MIN_GRAPHS`` (64) graphs with
  edges, as a cold training batch does;
* the **list sweep** runs each graph on its own below that, as for a
  single term or a small detection batch, and for every upper level;
* the **numpy sweep** runs each graph on its own when it is wide and
  dense, which Step II's context graphs never are.

The direct and graph halves run one after the other, so their
intermediate arrays are never alive together.  Every vector is the same
bytes the per-term code produced, so cached and golden vectors stay
valid.

``direct_features``, ``build_context_graph`` and ``graph_features`` are
re-exported here as one-item entry points.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import CorpusError
from repro.polysemy.batch import ContextBatch
from repro.polysemy.direct_features import (
    DIRECT_FEATURE_NAMES,
    direct_feature_rows,
    direct_features,
)
from repro.polysemy.graph_features import (
    GRAPH_FEATURE_NAMES,
    build_context_graph,
    build_context_graphs,
    graph_feature_rows,
    graph_features,
)

__all__ = [
    "ALL_FEATURE_NAMES",
    "FeatureItem",
    "PolysemyFeatureExtractor",
    "build_context_graph",
    "direct_features",
    "graph_features",
]

#: One item to featurise: the term, its contexts (token sequences, term
#: excluded) and the number of documents it occurs in (``None`` counts
#: one document per context).
FeatureItem = tuple[str, Sequence[Sequence[str]], int | None]

#: All 23 feature names: 11 direct then 12 graph, matching the paper's split.
ALL_FEATURE_NAMES = DIRECT_FEATURE_NAMES + GRAPH_FEATURE_NAMES

assert len(DIRECT_FEATURE_NAMES) == 11, "the paper specifies 11 direct features"
assert len(GRAPH_FEATURE_NAMES) == 12, "the paper specifies 12 graph features"


class PolysemyFeatureExtractor:
    """Extract the paper's 23 features for candidate terms.

    Parameters
    ----------
    window:
        Context window (tokens each side) used when retrieving term
        occurrences from a corpus.
    graph_window:
        Sliding co-occurrence window inside a context for the graph
        features.
    feature_set:
        ``"all"`` (23), ``"direct"`` (11), or ``"graph"`` (12) — the A3
        ablation knob.
    community_seed:
        Seed of the Louvain communities behind the graph features
        (fixed by default so repeated extraction is deterministic).
    """

    def __init__(
        self,
        *,
        window: int = 10,
        graph_window: int = 4,
        feature_set: str = "all",
        community_seed: int = 0,
    ) -> None:
        if feature_set not in ("all", "direct", "graph"):
            raise ValueError(
                f"feature_set must be all|direct|graph, got {feature_set!r}"
            )
        self.window = window
        self.graph_window = graph_window
        self.feature_set = feature_set
        self.community_seed = community_seed

    def fingerprint(self) -> str:
        """Stable string encoding of every vector-shaping setting.

        The config component of feature-cache keys
        (:mod:`repro.polysemy.cache`): two extractors with equal
        fingerprints produce identical vectors from identical contexts.
        """
        # Louvain is the only community detector now, but the key keeps
        # the segment that named it: dropping it would change every key
        # and orphan every persisted disk and remote cache entry.
        return (
            f"window={self.window};graph_window={self.graph_window};"
            f"feature_set={self.feature_set};"
            "community_backend=louvain;"
            f"community_seed={self.community_seed}"
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features this extractor emits, in order."""
        if self.feature_set == "direct":
            return DIRECT_FEATURE_NAMES
        if self.feature_set == "graph":
            return GRAPH_FEATURE_NAMES
        return ALL_FEATURE_NAMES

    @property
    def n_features(self) -> int:
        """Dimensionality of the emitted vectors."""
        return len(self.feature_names)

    def featurise(self, items: Iterable[FeatureItem]) -> np.ndarray:
        """Feature rows, shape ``(n_items, n_features)``, for a batch.

        Each row is byte-identical to what featurising its item alone
        gives; batching only shares the encoding and the per-call
        overhead (see the module docstring).
        """
        items = list(items)
        out = np.empty((len(items), self.n_features), dtype=np.float64)
        if not items:
            return out
        batch = ContextBatch.encode([contexts for __, contexts, __ in items])
        column = 0
        if self.feature_set in ("all", "direct"):
            column = len(DIRECT_FEATURE_NAMES)
            out[:, :column] = direct_feature_rows(
                [term for term, __, __ in items],
                batch,
                [doc_frequency for __, __, doc_frequency in items],
            )
        if self.feature_set in ("all", "graph"):
            graphs = build_context_graphs(batch, window=self.graph_window)
            del batch  # free the encoding before the graph features run
            out[:, column:] = graph_feature_rows(graphs, seed=self.community_seed)
        return out

    def features_from_contexts(
        self,
        term: str,
        contexts: Sequence[Sequence[str]],
        *,
        doc_frequency: int | None = None,
    ) -> np.ndarray:
        """Feature vector from pre-retrieved ``contexts`` (a batch of one)."""
        return self.featurise([(term, contexts, doc_frequency)])[0]

    def features_from_corpus(
        self,
        term: str,
        corpus: Corpus,
        *,
        index: CorpusIndex | None = None,
    ) -> np.ndarray:
        """Retrieve the term's contexts through the index and featurise.

        Pass a prebuilt ``index`` to share one
        :class:`~repro.corpus.index.CorpusIndex` across extractors
        (defaults to the corpus's cached index).

        Raises :class:`~repro.errors.CorpusError` when the term never
        occurs — a candidate without context cannot be classified.
        """
        index = index if index is not None else corpus.index()
        occurrences = index.contexts_for_term(term, window=self.window)
        if not occurrences:
            raise CorpusError(f"term {term!r} has no context in the corpus")
        contexts = [ctx.tokens for ctx in occurrences]
        doc_frequency = len({ctx.doc_id for ctx in occurrences})
        return self.featurise([(term, contexts, doc_frequency)])[0]
