"""CART decision-tree classifier (gini / entropy splits)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.ml.base import BaseClassifier
from repro.utils.rng import ensure_rng


@dataclass
class _Node:
    """A tree node; leaves carry a class distribution."""

    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None

    def is_leaf(self) -> bool:
        """True when the node has no split (carries a class distribution)."""
        return self.left is None


def _impurities(class_counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of every set of samples whose class counts are given.

    ``class_counts[c]`` holds class ``c``'s count in each set; every set
    holds at least one sample.  Totals and sums run class by class in
    class order, which is the order numpy's ``sum`` takes over fewer
    than 8 terms: with fewer than 8 classes each value is bit-identical
    to summing that set's counts, squares or entropy terms with
    ``np.sum``.
    """
    total = class_counts[0]
    for counts in class_counts[1:]:
        total = total + counts
    proportions = class_counts / total
    if criterion == "gini":
        squares = proportions**2
        acc = squares[0]
        for square in squares[1:]:
            acc = acc + square
        return 1.0 - acc
    terms = np.zeros_like(proportions)
    positive = proportions > 0
    p = proportions[positive]
    terms[positive] = p * np.log2(p)
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return -acc


class DecisionTreeClassifier(BaseClassifier):
    """CART with threshold splits on continuous features.

    Parameters
    ----------
    max_depth:
        Depth cap (None = grow until pure or below ``min_samples_split``).
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_features:
        Features sampled per split: None (all), an int, or ``"sqrt"``
        (used by the random forest).
    seed:
        RNG for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        criterion: str = "gini",
        max_features: int | str | None = None,
        seed: int | None = None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be gini|entropy, got {criterion!r}")
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.classes_ = None
        self._root: _Node | None = None
        self._rng = None

    # -- fitting ----------------------------------------------------------

    def _n_split_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, d)
        raise ValidationError(f"bad max_features {self.max_features!r}")

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, features: np.ndarray
    ) -> tuple[int, float, float] | None:
        """(feature, threshold, impurity decrease) of the best split, if any.

        Every split position of every candidate feature is scored at
        once from cumulative class counts.  The best is the first
        maximum: the lowest position within a feature, then the earliest
        feature in ``features``.
        """
        n = X.shape[0]
        k = self.classes_.shape[0]
        parent_counts = np.bincount(y, minlength=k)
        parent_imp = _impurities(parent_counts, self.criterion)
        columns = X[:, features].T
        order = np.argsort(columns, axis=1, kind="stable")
        values = np.take_along_axis(columns, order, axis=1)
        labels = y[order][:, :-1]
        # left[c, f, i]: samples of class c among the first i + 1 in
        # feature f's order; positions are splits after sample i.
        left = np.stack(
            [np.cumsum(labels == c, axis=1, dtype=np.float64) for c in range(k)]
        )
        right = parent_counts[:, None, None] - left
        n_left = np.arange(1, n)
        gain = parent_imp - (
            n_left / n * _impurities(left, self.criterion)
            + (n - n_left) / n * _impurities(right, self.criterion)
        )
        gain[values[:, :-1] == values[:, 1:]] = -np.inf
        positions = np.argmax(gain, axis=1)
        feature_gains = gain[np.arange(len(features)), positions]
        best = int(np.argmax(feature_gains))
        best_gain = float(feature_gains[best])
        if best_gain <= 1e-12:
            return None
        i = positions[best]
        low, high = values[best, i], values[best, i + 1]
        threshold = (low + high) / 2.0
        if threshold >= high:
            # Adjacent floats: the midpoint rounds up to ``high`` and
            # would send every sample left; ``low`` splits them.
            threshold = low
        return int(features[best]), float(threshold), best_gain

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        k = self.classes_.shape[0]
        counts = np.bincount(y, minlength=k)
        node = _Node(counts=counts.astype(np.float64))
        if (
            np.count_nonzero(counts) <= 1
            or X.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        d = X.shape[1]
        n_feat = self._n_split_features(d)
        features = (
            np.arange(d)
            if n_feat == d
            else self._rng.choice(d, size=n_feat, replace=False)
        )
        split = self._best_split(X, y, features)
        if split is None:
            return node
        feature, threshold, __ = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y)."""
        X, y = self._check_X_y(X, y)
        encoded = self._encode_labels(y)
        self._rng = ensure_rng(self.seed)
        self._root = self._grow(X, encoded, depth=0)
        return self

    # -- prediction ----------------------------------------------------------

    def _leaf_for(self, row: np.ndarray) -> _Node:
        node = self._root
        while not node.is_leaf():
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X) -> np.ndarray:
        """Leaf class distributions."""
        self._require_fitted()
        X = self._check_X(X)
        out = np.zeros((X.shape[0], self.classes_.shape[0]))
        for i, row in enumerate(X):
            counts = self._leaf_for(row).counts
            out[i] = counts / counts.sum()
        return out

    def depth(self) -> int:
        """Actual depth of the grown tree."""
        self._require_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf():
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
