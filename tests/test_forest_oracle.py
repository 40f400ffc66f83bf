"""The lockstep forest grower against the per-tree recursive oracle.

``repro.ml.tree.grow_trees`` grows every tree of a forest at once over
presorted bootstrap columns; ``tests/per_tree_forest.py`` keeps the
recursive per-tree grower it replaced.  Both must grow the same trees,
node for node in preorder (feature, threshold bits and class counts),
and predict the same bytes.  A tree's feature draws must come in
preorder from its own RNG, so breadth-first pops or one RNG shared by
every tree change the trees; and a node's rows must keep their stable
order, which ``_presort`` must reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from per_tree_forest import OracleForest, OracleTree
from repro.ml.forest import RandomForestClassifier, bootstrap_samples
from repro.ml.tree import DecisionTreeClassifier, _presort

#: Adjacent floats: their midpoint rounds up to the larger one.
ADJACENT_LOW = 1.0 + 2.0**-52
ADJACENT_HIGH = float(np.nextafter(ADJACENT_LOW, 2.0))


def make_data(seed, n, d, k, column_kind, rare):
    """``n`` samples of ``d`` features over ``k`` classes, all present.

    With ``rare`` the last class holds a single sample, so many
    bootstraps miss it.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if column_kind == "tied":
        X = np.round(X * 2.0) / 2.0
    elif column_kind == "discrete":
        X[:, : max(1, d // 2)] = rng.integers(0, 3, size=(n, max(1, d // 2)))
    elif column_kind == "duplicated":
        X = X[rng.integers(0, max(2, n // 3), size=n)]
    elif column_kind == "adjacent":
        values = [ADJACENT_LOW, ADJACENT_HIGH, np.nextafter(ADJACENT_HIGH, 2.0)]
        X = rng.choice(values, size=(n, d))
    # Shift the labels with the first feature so splits carry signal.
    y = (rng.integers(0, k, size=n) + (X[:, 0] > np.median(X[:, 0]))) % k
    if rare:
        y[y == k - 1] = 0
        y[0] = k - 1
        y[1:k] = np.arange(k - 1)
    else:
        y[:k] = np.arange(k)
    return X, y


def lockstep_preorder(trees, t):
    """Tree ``t`` of ``TreeArrays`` as the oracle's preorder rows."""
    nodes = range(trees.offsets[t], trees.offsets[t + 1])
    return [
        (int(trees.feature[i]), float(trees.threshold[i]),
         tuple(trees.counts[i].tolist()))
        for i in nodes
    ]


def hexed(rows):
    """Preorder rows with thresholds as ``float.hex`` (bit for bit)."""
    return [(feature, threshold.hex(), counts) for feature, threshold, counts in rows]


def check_presort(X, samples):
    """``_presort`` lists each tree's column in stable ``argsort`` order."""
    n_trees, n = samples.shape
    d = X.shape[1]
    slots, ranks = _presort(X, samples)
    columns = X[samples].transpose(0, 2, 1)
    expected = np.argsort(columns, axis=2, kind="stable")
    positions = slots.reshape(n_trees, d, n) - (np.arange(n_trees) * n)[:, None, None]
    assert np.array_equal(positions, expected)
    values = np.take_along_axis(columns, expected, axis=2)
    ties = values[:, :, 1:] == values[:, :, :-1]
    rank_ties = ranks.reshape(n_trees, d, n)
    assert np.array_equal(rank_ties[:, :, 1:] == rank_ties[:, :, :-1], ties)


MODEL_PARAMS = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=8, max_value=60),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    column_kind=st.sampled_from(
        ["continuous", "tied", "discrete", "duplicated", "adjacent"]
    ),
    rare=st.booleans(),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_features=st.sampled_from([None, "sqrt", 2]),
    max_depth=st.sampled_from([None, 3]),
)

ADJACENT = dict(
    seed=3, n=8, d=1, k=2, column_kind="adjacent", rare=False,
    max_features=None, max_depth=None,
)


def assert_same_forest(fast, slow, probe):
    assert fast.trees_.n_trees == len(slow.estimators_)
    for t, rows in enumerate(slow.preorder()):
        assert hexed(lockstep_preorder(fast.trees_, t)) == hexed(rows)
    assert fast.trees_.depths() == slow.depths()
    assert fast.predict_proba(probe).tobytes() == slow.predict_proba(probe).tobytes()


class TestLockstepMatchesPerTreeOracle:
    @given(**MODEL_PARAMS)
    @example(criterion="gini", **ADJACENT)
    @example(criterion="entropy", **ADJACENT)
    @settings(max_examples=25, deadline=None)
    def test_forests(
        self, seed, n, d, k, column_kind, rare, criterion, max_features, max_depth
    ):
        X, y = make_data(seed, n, d, k, column_kind, rare)
        params = dict(
            n_estimators=50, criterion=criterion, max_features=max_features,
            max_depth=max_depth, seed=seed,
        )
        fast = RandomForestClassifier(**params).fit(X, y)
        slow = OracleForest(**params).fit(X, y)
        probe = np.vstack([X, make_data(seed + 1, n, d, k, column_kind, rare)[0]])
        assert_same_forest(fast, slow, probe)
        samples, __ = bootstrap_samples(y, 50, seed)
        check_presort(X, samples)

    @given(**MODEL_PARAMS)
    @example(criterion="gini", **ADJACENT)
    @example(criterion="entropy", **ADJACENT)
    @settings(max_examples=40, deadline=None)
    def test_trees(
        self, seed, n, d, k, column_kind, rare, criterion, max_features, max_depth
    ):
        X, y = make_data(seed, n, d, k, column_kind, rare)
        params = dict(
            criterion=criterion, max_features=max_features,
            max_depth=max_depth, seed=seed,
        )
        fast = DecisionTreeClassifier(**params).fit(X, y)
        slow = OracleTree(**params).fit(X, y)
        assert hexed(lockstep_preorder(fast.trees_, 0)) == hexed(
            slow.preorder(slow.classes_)
        )
        assert fast.depth() == slow.depth()
        probe = np.vstack([X, make_data(seed + 1, n, d, k, column_kind, rare)[0]])
        assert fast.predict_proba(probe).tobytes() == (
            slow.predict_proba(probe).tobytes()
        )
        check_presort(X, np.arange(n)[None, :])

    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_split_between_adjacent_floats(self, criterion, max_depth):
        X = np.array([ADJACENT_LOW, ADJACENT_LOW, ADJACENT_HIGH, ADJACENT_HIGH])[:, None]
        y = np.array([0, 0, 1, 1])
        params = dict(criterion=criterion, max_depth=max_depth, seed=0)
        fast = RandomForestClassifier(n_estimators=50, **params).fit(X, y)
        slow = OracleForest(n_estimators=50, **params).fit(X, y)
        assert_same_forest(fast, slow, X)
        tree = DecisionTreeClassifier(**params).fit(X, y)
        oracle = OracleTree(**params).fit(X, y)
        assert hexed(lockstep_preorder(tree.trees_, 0)) == hexed(
            oracle.preorder(oracle.classes_)
        )
        assert tree.predict_proba(X).tobytes() == oracle.predict_proba(X).tobytes()
