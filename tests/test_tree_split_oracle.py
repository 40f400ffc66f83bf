"""The lockstep CART grower against the per-tree oracle's per-sample loop.

The oracle scans each candidate feature's sorted samples one at a time,
moving one sample's class count from the right side to the left and
scoring the split after it.  It runs inside the per-tree recursive
grower kept in ``tests/per_tree_forest.py``.  Trees and forests grown
by ``repro.ml.tree``'s batched lockstep search must predict
byte-identical probabilities at the same depths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from per_tree_forest import OracleForest, OracleTree
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, grow_trees


def impurity(counts, criterion):
    """Gini or entropy impurity of one set of class counts."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    if criterion == "gini":
        return float(1.0 - (p**2).sum())
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def loop_best_split(self, X, y, features):
    """(feature, threshold, impurity decrease) by a per-sample scan."""
    n = X.shape[0]
    k = self.classes_.shape[0]
    parent_counts = np.bincount(y, minlength=k)
    parent_imp = impurity(parent_counts, self.criterion)
    best = None
    for feature in features:
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        labels = y[order]
        left_counts = np.zeros(k)
        right_counts = parent_counts.astype(np.float64).copy()
        for i in range(n - 1):
            left_counts[labels[i]] += 1
            right_counts[labels[i]] -= 1
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            gain = parent_imp - (
                n_left / n * impurity(left_counts, self.criterion)
                + n_right / n * impurity(right_counts, self.criterion)
            )
            if best is None or gain > best[2]:
                threshold = (values[i] + values[i + 1]) / 2.0
                best = (int(feature), float(threshold), float(gain))
    if best is None or best[2] <= 1e-12:
        return None
    return best


def make_data(seed, n, d, k, column_kind):
    """``n`` samples of ``d`` features over ``k`` classes, all present."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if column_kind == "tied":
        X = np.round(X * 2.0) / 2.0
    elif column_kind == "discrete":
        X[:, : max(1, d // 2)] = rng.integers(0, 3, size=(n, max(1, d // 2)))
    # Shift the labels with the first feature so splits carry signal.
    y = (rng.integers(0, k, size=n) + (X[:, 0] > 0)) % k
    y[:k] = np.arange(k)
    return X, y


def fit_both(make_fast, make_slow, X, y):
    fast = make_fast().fit(X, y)
    with mock.patch.object(OracleTree, "_best_split", loop_best_split):
        slow = make_slow().fit(X, y)
    return fast, slow


def depths(model):
    if isinstance(model, RandomForestClassifier):
        return model.trees_.depths()
    if isinstance(model, OracleForest):
        return model.depths()
    return [model.depth()]


MODEL_PARAMS = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=8, max_value=70),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    column_kind=st.sampled_from(["continuous", "tied", "discrete"]),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_features=st.sampled_from([None, "sqrt", 2]),
    max_depth=st.sampled_from([None, 3]),
)


class _FixedDraws:
    """A stand-in RNG whose every feature draw is the same list."""

    def __init__(self, features):
        self.features = np.asarray(features)

    def choice(self, d, size, replace):
        return self.features[:size]


class TestSplitSearchMatchesLoop:
    @given(**MODEL_PARAMS)
    @settings(max_examples=30, deadline=None)
    def test_trees(
        self, seed, n, d, k, column_kind, criterion,
        max_features, max_depth,
    ):
        X, y = make_data(seed, n, d, k, column_kind)
        params = dict(
            criterion=criterion,
            max_features=max_features,
            max_depth=max_depth,
            seed=seed,
        )
        fast, slow = fit_both(
            lambda: DecisionTreeClassifier(**params),
            lambda: OracleTree(**params),
            X, y,
        )
        probe = np.vstack([X, make_data(seed + 1, n, d, k, column_kind)[0]])
        assert fast.predict_proba(probe).tobytes() == (
            slow.predict_proba(probe).tobytes()
        )
        assert depths(fast) == depths(slow)

    @given(**MODEL_PARAMS)
    @settings(max_examples=12, deadline=None)
    def test_forests(
        self, seed, n, d, k, column_kind, criterion,
        max_features, max_depth,
    ):
        X, y = make_data(seed, n, d, k, column_kind)
        params = dict(
            n_estimators=50,
            criterion=criterion,
            max_features=max_features,
            max_depth=max_depth,
            seed=seed,
        )
        fast, slow = fit_both(
            lambda: RandomForestClassifier(**params),
            lambda: OracleForest(**params),
            X, y,
        )
        probe = np.vstack([X, make_data(seed + 1, n, d, k, column_kind)[0]])
        assert fast.predict_proba(probe).tobytes() == (
            slow.predict_proba(probe).tobytes()
        )
        assert depths(fast) == depths(slow)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_constant_features_give_a_leaf(self, criterion):
        X = np.ones((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        tree = DecisionTreeClassifier(criterion=criterion).fit(X, y)
        assert tree.depth() == 0
        assert np.array_equal(tree.predict_proba(X), np.full((6, 2), 0.5))

    def test_ties_keep_the_first_best_split(self):
        # Columns 0 and 1 are equal, and within each the splits after
        # samples 1 and 3 score the same: the first of all four wins.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0],
                      [4.0, 4.0], [5.0, 5.0]])
        y = np.array([0, 0, 1, 1, 0, 0])
        oracle = OracleTree().fit(X, y)
        features = np.array([1, 0])
        fast = oracle._best_split(X, y, features)
        assert fast == loop_best_split(oracle, X, y, features)
        assert fast[:2] == (1, 1.5)
        # The lockstep search breaks the tie the same way, whichever
        # order the features are drawn in.
        X3 = np.hstack([X, np.zeros((6, 1))])
        for drawn in ([1, 0], [0, 1]):
            trees = grow_trees(
                X3, y, 2, np.arange(6)[None, :], [_FixedDraws(drawn)],
                max_depth=None, min_samples_split=2, criterion="gini",
                max_features=2,
            )
            assert (int(trees.feature[0]), float(trees.threshold[0])) == (
                drawn[0], 1.5
            )
