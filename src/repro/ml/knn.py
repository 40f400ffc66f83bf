"""k-nearest-neighbours classifier (Euclidean or cosine)."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.ml.base import BaseClassifier


class KNeighborsClassifier(BaseClassifier):
    """Majority vote among the k nearest training samples.

    Parameters
    ----------
    n_neighbors:
        Vote pool size (clipped to the training-set size at fit time).
    metric:
        ``"euclidean"`` or ``"cosine"``.
    """

    def __init__(self, n_neighbors: int = 5, metric: str = "euclidean") -> None:
        if n_neighbors < 1:
            raise ValidationError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if metric not in ("euclidean", "cosine"):
            raise ValidationError(f"metric must be euclidean|cosine, got {metric!r}")
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.classes_ = None
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, X, y) -> "KNeighborsClassifier":
        """Memorise the training set."""
        X, y = self._check_X_y(X, y)
        encoded = self._encode_labels(y)
        self._X = X
        self._y = encoded
        return self

    def _distances(self, X: np.ndarray) -> np.ndarray:
        # One query row per product, shaped as a one-row predict: a
        # batched matmul rounds differently, and ties between distances
        # pick the neighbours, so a row's label would otherwise depend
        # on the rows predicted with it.
        dots = np.concatenate(
            [X[i : i + 1] @ self._X.T for i in range(X.shape[0])]
        )
        if self.metric == "euclidean":
            # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b  (clipped for stability)
            aa = (X**2).sum(axis=1)[:, None]
            bb = (self._X**2).sum(axis=1)[None, :]
            d2 = np.clip(aa + bb - 2.0 * dots, 0.0, None)
            return np.sqrt(d2)
        norms_q = np.linalg.norm(X, axis=1, keepdims=True)
        norms_t = np.linalg.norm(self._X, axis=1, keepdims=True).T
        norms_q[norms_q == 0] = 1.0
        norms_t[norms_t == 0] = 1.0
        sims = dots / (norms_q * norms_t)
        return 1.0 - sims

    def predict_proba(self, X) -> np.ndarray:
        """Neighbour vote shares per class."""
        self._require_fitted()
        X = self._check_X(X)
        k = min(self.n_neighbors, self._X.shape[0])
        distances = self._distances(X)
        nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
        out = np.zeros((X.shape[0], self.classes_.shape[0]))
        for i in range(X.shape[0]):
            votes = np.bincount(
                self._y[nearest[i]], minlength=self.classes_.shape[0]
            )
            out[i] = votes / votes.sum()
        return out
