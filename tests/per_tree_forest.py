"""The per-tree CART grower and forest, kept as the lockstep grower's oracle.

``OracleTree`` grows one tree by recursion: each node draws its split
features from the tree's RNG, scores every split of every drawn feature
with a stable ``argsort`` of the node's own rows, and recurses left then
right, so a tree's draws come in preorder.  ``OracleForest`` fits one
``OracleTree`` per bootstrap with the same RNG protocol as
:class:`repro.ml.forest.RandomForestClassifier`, and predicts row by row
and tree by tree.  :mod:`repro.ml.tree` must grow the same trees and
predict the same bytes; the tests compare the two.

The recursion caps a tree's depth at Python's recursion limit, so the
property tests keep their samples small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseClassifier
from repro.ml.tree import _impurities, check_tree_params, n_split_features
from repro.utils.rng import ensure_rng, spawn_rng


@dataclass
class Node:
    """A tree node; leaves carry a class distribution."""

    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None

    def is_leaf(self) -> bool:
        """True when the node has no split (carries a class distribution)."""
        return self.left is None


class OracleTree(BaseClassifier):
    """CART with threshold splits on continuous features, grown per node."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        criterion: str = "gini",
        max_features: int | str | None = None,
        seed: int | None = None,
    ) -> None:
        check_tree_params(max_depth, min_samples_split, criterion, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.classes_ = None
        self._root: Node | None = None
        self._rng = None

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
        with np.errstate(over="ignore"):
            threshold = (low + high) / 2.0
        if not np.isfinite(threshold):
            # The sum overflowed; halving first cannot.
            threshold = low / 2.0 + high / 2.0
        if threshold >= high:
            # Adjacent floats: the midpoint rounds up to ``high`` and
            # would send every sample left; ``low`` splits them.
            threshold = low
        return int(features[best]), float(threshold), best_gain

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> Node:
        k = self.classes_.shape[0]
        counts = np.bincount(y, minlength=k)
        node = Node(counts=counts.astype(np.float64))
        if (
            np.count_nonzero(counts) <= 1
            or X.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        d = X.shape[1]
        n_feat = n_split_features(self.max_features, d)
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

    def fit(self, X, y) -> "OracleTree":
        """Grow the tree on (X, y)."""
        X, y = self._check_X_y(X, y)
        encoded = self._encode_labels(y)
        self._rng = ensure_rng(self.seed)
        self._root = self._grow(X, encoded, depth=0)
        return self

    def _leaf_for(self, row: np.ndarray) -> Node:
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

        def walk(node: Node) -> int:
            if node.is_leaf():
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def preorder(self, classes: np.ndarray) -> list[tuple[int, float, tuple]]:
        """(feature, threshold, class counts over ``classes``) per node.

        Leaves read feature -1 and threshold 0.0; counts of classes the
        tree never saw read 0.0.
        """
        self._require_fitted()
        columns = np.searchsorted(classes, self.classes_)
        rows = []

        def walk(node: Node) -> None:
            counts = np.zeros(classes.shape[0])
            counts[columns] = node.counts
            threshold = 0.0 if node.is_leaf() else node.threshold
            rows.append((node.feature, threshold, tuple(counts.tolist())))
            if not node.is_leaf():
                walk(node.left)
                walk(node.right)

        walk(self._root)
        return rows


class OracleForest(BaseClassifier):
    """Bootstrap-aggregated ``OracleTree``s (probability averaging)."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        criterion: str = "gini",
        max_features: int | str | None = "sqrt",
        seed: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.classes_ = None
        self.estimators_: list[OracleTree] = []

    def fit(self, X, y) -> "OracleForest":
        """Fit ``n_estimators`` trees on bootstrap resamples of (X, y)."""
        X, y = self._check_X_y(X, y)
        self._encode_labels(y)  # sets classes_
        rng = ensure_rng(self.seed)
        tree_rngs = spawn_rng(rng, self.n_estimators)
        n = X.shape[0]
        self.estimators_ = []
        for tree_rng in tree_rngs:
            idx = tree_rng.integers(0, n, size=n)
            while np.unique(y[idx]).shape[0] < 2:
                idx = tree_rng.integers(0, n, size=n)
            tree = OracleTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                criterion=self.criterion,
                max_features=self.max_features,
                seed=int(tree_rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of tree probabilities, aligned to forest ``classes_``."""
        self._require_fitted()
        X = self._check_X(X)
        out = np.zeros((X.shape[0], self.classes_.shape[0]))
        class_pos = {label: i for i, label in enumerate(self.classes_.tolist())}
        for tree in self.estimators_:
            proba = tree.predict_proba(X)
            for j, label in enumerate(tree.classes_.tolist()):
                out[:, class_pos[label]] += proba[:, j]
        return out / len(self.estimators_)

    def depths(self) -> list[int]:
        """Each tree's depth, in tree order."""
        return [tree.depth() for tree in self.estimators_]

    def preorder(self) -> list[list[tuple[int, float, tuple]]]:
        """Each tree's nodes in preorder (see ``OracleTree.preorder``)."""
        return [tree.preorder(self.classes_) for tree in self.estimators_]
