"""Concept induction (Step III, task b).

Cluster a term's contexts into k groups (k from
:class:`~repro.senses.predictor.SenseCountPredictor`, or 1 for terms the
Step II detector called monosemous), then represent each induced concept
by its most important features — the highest-mass words of the cluster
centroid, exactly the "for each cluster it selects the most important
features, which represent the induced concept" of the paper.  A term's
bag-of-words rows are built once and serve the k-prediction, the final
clustering and the top features.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.clustering.algorithms import cluster
from repro.errors import ValidationError
from repro.polysemy.batch import ContextBatch
from repro.senses.predictor import KPrediction, SenseCountPredictor
from repro.senses.representation import batch_and_bow, graph_smoothing


@dataclass(frozen=True)
class InducedSense:
    """One induced concept of a term.

    Attributes
    ----------
    sense_id:
        0-based sense index.
    top_features:
        The concept's defining words, most important first.
    context_indices:
        Indices (into the input contexts) assigned to this sense.
    """

    sense_id: int
    top_features: tuple[str, ...]
    context_indices: tuple[int, ...]

    @property
    def support(self) -> int:
        """Number of contexts backing this sense."""
        return len(self.context_indices)


@dataclass(frozen=True)
class SenseInductionResult:
    """All induced senses of one term plus the k-prediction evidence."""

    term: str
    k: int
    senses: tuple[InducedSense, ...]
    prediction: KPrediction | None


class SenseInducer:
    """Induce the sense(s) of candidate terms from their contexts.

    Parameters
    ----------
    predictor:
        The k-predictor used for polysemic terms (paper defaults: rb
        algorithm, f_k index, bag-of-words representation); a forced
        k is clustered with its algorithm and representation too.
    n_top_features:
        Words kept to describe each induced concept.
    seed:
        RNG seed for the final clustering.
    """

    def __init__(
        self,
        predictor: SenseCountPredictor | None = None,
        *,
        n_top_features: int = 10,
        seed: int = 0,
    ) -> None:
        if n_top_features < 1:
            raise ValidationError(
                f"n_top_features must be >= 1, got {n_top_features}"
            )
        self.predictor = predictor if predictor is not None else SenseCountPredictor()
        self.n_top_features = n_top_features
        self._seed = seed

    def _clustering_matrix(self, batch: ContextBatch, bow: np.ndarray) -> np.ndarray:
        """The rows the predictor's representation clusters."""
        if self.predictor.representation == "graph":
            return graph_smoothing(batch, bow)
        return bow

    def _top_features_per_cluster(
        self,
        matrix: np.ndarray,
        names: Sequence[str],
        labels: np.ndarray,
        k: int,
    ) -> list[tuple[str, ...]]:
        out = []
        for sense in range(k):
            members = np.where(labels == sense)[0]
            if members.size == 0:
                out.append(())
                continue
            centroid = matrix[members].mean(axis=0)
            order = np.argsort(-centroid)
            top = tuple(
                names[int(i)] for i in order[: self.n_top_features]
                if centroid[int(i)] > 0
            )
            out.append(top)
        return out

    def induce(
        self,
        term: str,
        contexts: Sequence[Sequence[str]],
        *,
        polysemic: bool = True,
        k: int | None = None,
    ) -> SenseInductionResult:
        """Induce the concept(s) of ``term`` from its ``contexts``.

        Parameters
        ----------
        polysemic:
            The Step II verdict; monosemous terms get a single sense
            (k = 1) without running the predictor.
        k:
            Force a sense count, skipping prediction (used by ablations).
        """
        if not contexts:
            raise ValidationError(f"term {term!r} has no contexts to induce from")
        batch, bow = batch_and_bow(contexts)
        # Clustering and the top features share these rows: no
        # repro.clustering routine may write into its input.
        bow.flags.writeable = False
        prediction: KPrediction | None = None
        if k is None:
            if not polysemic:
                k = 1
            else:
                prediction = self.predictor.predict_from_matrix(
                    self._clustering_matrix(batch, bow)
                )
                k = prediction.k
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k = min(k, len(contexts))

        if k == 1:
            labels = np.zeros(len(contexts), dtype=np.int64)
        elif prediction is not None and k in prediction.labels_by_k:
            labels = prediction.labels_by_k[k]
        else:
            labels = cluster(
                self._clustering_matrix(batch, bow),
                k,
                method=self.predictor.algorithm,
                seed=self._seed,
            ).labels

        names = sorted({word.lower() for word in batch.words})
        features = self._top_features_per_cluster(bow, names, labels, k)
        senses = tuple(
            InducedSense(
                sense_id=sense,
                top_features=features[sense],
                context_indices=tuple(
                    int(i) for i in np.where(labels == sense)[0]
                ),
            )
            for sense in range(k)
        )
        return SenseInductionResult(
            term=term, k=k, senses=senses, prediction=prediction
        )
