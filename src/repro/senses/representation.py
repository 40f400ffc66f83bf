"""Context representations for sense induction.

The paper represents the corpus "of two different manners: (i)
bag-of-words representation, and (ii) graph representation".  Both start
from a term's contexts encoded once as a
:class:`~repro.polysemy.batch.ContextBatch` of one term, the encoding
Step II featurises (:func:`batch_and_bow`):

* **bag-of-words** — TF-IDF rows over the contexts' lower-cased words,
  from :func:`~repro.polysemy.batch.tfidf_matrices` (IDF damps the
  background words that would otherwise dominate cosine);
* **graph** — the same rows smoothed by one diffusion step over the
  word co-occurrence graph of the contexts, built by
  :func:`~repro.polysemy.graph_features.build_context_graphs` with its
  nodes folded onto their lower-cased words (:func:`graph_smoothing`): a
  context also receives mass on words its words co-occur with.
  Second-order smoothing connects contexts that share no literal word
  but live in the same topical neighbourhood — the property graph-based
  WSD methods exploit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.polysemy.batch import ContextBatch, tfidf_matrices
from repro.polysemy.graph_features import build_context_graphs

#: The two representations of the paper's §2(III).
REPRESENTATION_NAMES = ("bow", "graph")


def batch_and_bow(
    contexts: Sequence[Sequence[str]],
) -> tuple[ContextBatch, np.ndarray]:
    """One term's contexts as a batch of one, and their bag-of-words rows.

    The rows are TF-IDF over the lower-cased words, one unit-norm row per
    context; column ``j`` is the ``j``-th of the contexts' distinct
    lower-cased words in ``sorted()`` order.
    """
    if not contexts:
        raise ValidationError("need at least one context to represent")
    batch = ContextBatch.encode([contexts])
    return batch, next(tfidf_matrices(batch))


def bow_representation(contexts: Sequence[Sequence[str]]) -> np.ndarray:
    """TF-IDF bag-of-words matrix, one unit-norm row per context."""
    return batch_and_bow(contexts)[1]


def graph_smoothing(
    batch: ContextBatch,
    bow: np.ndarray,
    *,
    diffusion: float = 0.5,
    window: int = 4,
) -> np.ndarray:
    """The bag-of-words rows ``bow`` of ``batch`` smoothed over its graph.

    ``batch`` holds one term's contexts and ``bow`` their rows, as
    :func:`batch_and_bow` returns them.  The word co-occurrence graph
    pairs each token with the next ``window - 1`` tokens of its context;
    each node is folded onto its lower-cased word, and pairs of equal
    words add nothing.  Its adjacency ``A`` is row-normalised, and the
    result is ``X + diffusion · X A`` re-normalised — i.e. each context
    spreads ``diffusion`` of its mass one hop along co-occurrence edges.

    Parameters
    ----------
    diffusion:
        Strength of the one-step smoothing (0 reduces to bag-of-words).
    window:
        Co-occurrence window inside a context.
    """
    if not 0.0 <= diffusion <= 1.0:
        raise ValidationError(f"diffusion must be in [0, 1], got {diffusion}")
    graph = build_context_graphs(batch, window=window)[0]
    # A batch of one ranks its own words from 0: a word's rank is its
    # bag-of-words column.
    rows = np.repeat(batch.ranks, np.diff(graph.indptr))
    cols = batch.ranks[graph.indices]
    distinct = rows != cols
    adjacency = np.zeros((bow.shape[1], bow.shape[1]))
    # The weights are whole counts, so any summation order is exact.
    np.add.at(adjacency, (rows[distinct], cols[distinct]), graph.weights[distinct])
    row_sums = adjacency.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    adjacency /= row_sums

    smoothed = bow + diffusion * (bow @ adjacency)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return smoothed / norms


def graph_representation(
    contexts: Sequence[Sequence[str]],
    *,
    diffusion: float = 0.5,
    window: int = 4,
) -> np.ndarray:
    """Graph-smoothed context matrix (see :func:`graph_smoothing`)."""
    return graph_smoothing(
        *batch_and_bow(contexts), diffusion=diffusion, window=window
    )


def represent_contexts(
    contexts: Sequence[Sequence[str]],
    representation: str = "bow",
    **kwargs,
) -> np.ndarray:
    """Dispatch to :func:`bow_representation` / :func:`graph_representation`."""
    if representation == "bow":
        return bow_representation(contexts)
    if representation == "graph":
        return graph_representation(contexts, **kwargs)
    raise ValidationError(
        f"unknown representation {representation!r}; "
        f"options: {', '.join(REPRESENTATION_NAMES)}"
    )
