"""Random forest: bagged CART trees with per-split feature sampling."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.ml.base import BaseClassifier
from repro.ml.tree import TreeArrays, check_tree_params, grow_trees
from repro.utils.rng import ensure_rng, spawn_rng


def bootstrap_samples(
    y: np.ndarray, n_estimators: int, seed: int | np.random.Generator | None
) -> tuple[np.ndarray, list[np.random.Generator]]:
    """Each tree's bootstrap rows and the RNG of its feature draws.

    Tree ``t`` draws from its own child of ``seed``'s RNG: ``len(y)``
    rows with replacement, again until they hold two classes, then the
    seed of its feature-draw RNG.
    """
    n = y.shape[0]
    samples = np.empty((n_estimators, n), np.intp)
    rngs = []
    for t, tree_rng in enumerate(spawn_rng(ensure_rng(seed), n_estimators)):
        idx = tree_rng.integers(0, n, size=n)
        while not np.any(y[idx] != y[idx[0]]):
            idx = tree_rng.integers(0, n, size=n)
        samples[t] = idx
        rngs.append(ensure_rng(int(tree_rng.integers(0, 2**31 - 1))))
    return samples, rngs


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated decision trees (probability averaging).

    All trees grow at once (:func:`repro.ml.tree.grow_trees`), each the
    tree a lone :class:`~repro.ml.tree.DecisionTreeClassifier` grows on
    its bootstrap with its seed.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_split / criterion:
        Passed to each tree.
    max_features:
        Features sampled per split (default ``"sqrt"``).
    seed:
        RNG seed for bootstraps and per-tree feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        criterion: str = "gini",
        max_features: int | str | None = "sqrt",
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        check_tree_params(max_depth, min_samples_split, criterion, max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.classes_ = None
        self.trees_: TreeArrays | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of (X, y)."""
        X, y = self._check_X_y(X, y)
        encoded = self._encode_labels(y)
        samples, rngs = bootstrap_samples(encoded, self.n_estimators, self.seed)
        self.trees_ = grow_trees(
            X,
            encoded,
            self.classes_.shape[0],
            samples,
            rngs,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            criterion=self.criterion,
            max_features=self.max_features,
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of tree probabilities, aligned to forest ``classes_``."""
        self._require_fitted()
        return self.trees_.predict_proba(self._check_X(X))
