"""CART decision trees (gini / entropy splits), grown a forest at a time.

:func:`grow_trees` grows every tree of a forest in lockstep; a lone
:class:`DecisionTreeClassifier` is a forest of one.  Each tree keeps its
own RNG and its own depth-first stack, and each step pops the next node
of every tree, so each tree draws its split features in preorder, as
growing it alone by recursion would.  One batched search then scores
every split of every popped node's drawn features.  Grown trees are flat
node arrays (:class:`TreeArrays`), and prediction walks every tree for
every row at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.ml.base import BaseClassifier
from repro.utils.rng import ensure_rng


def _impurities(class_counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of every set of samples whose class counts are given.

    ``class_counts[c]`` holds class ``c``'s count in each set; every set
    holds at least one sample.  Totals and sums run class by class in
    class order, which is the order numpy's ``sum`` takes over fewer
    than 8 terms: with fewer than 8 classes each value is bit-identical
    to summing that set's counts, squares or entropy terms with
    ``np.sum``.  A class with zero count in every set adds exact zeros,
    so it leaves every value as it is.
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


def check_tree_params(
    max_depth: int | None,
    min_samples_split: int,
    criterion: str,
    max_features: int | str | None,
) -> None:
    """Raise :class:`ValidationError` for a tree parameter out of its domain."""
    if criterion not in ("gini", "entropy"):
        raise ValidationError(f"criterion must be gini|entropy, got {criterion!r}")
    if max_depth is not None and max_depth < 1:
        raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_split < 2:
        raise ValidationError(
            f"min_samples_split must be >= 2, got {min_samples_split}"
        )
    if max_features is None or max_features == "sqrt":
        return
    if (
        isinstance(max_features, bool)
        or not isinstance(max_features, (int, np.integer))
        or max_features < 1
    ):
        raise ValidationError(
            f"max_features must be None, 'sqrt' or an int >= 1, got {max_features!r}"
        )


def n_split_features(max_features: int | str | None, d: int) -> int:
    """Features drawn per split out of ``d`` (``max_features`` is checked)."""
    if max_features is None:
        return d
    if isinstance(max_features, str):
        return max(1, int(np.sqrt(d)))
    return min(int(max_features), d)


@dataclass(frozen=True)
class TreeArrays:
    """Grown trees as flat node arrays, tree after tree, each in preorder.

    Tree ``t`` holds nodes ``offsets[t]`` to ``offsets[t + 1] - 1``, its
    root first.  Node ``i`` sends a row ``x`` to ``left[i]`` when
    ``x[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise; a
    leaf has ``feature[i] == -1``.  ``counts[i]`` holds the node's
    training class counts over the forest's classes, ``depth[i]`` its
    depth.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    depth: np.ndarray
    offsets: np.ndarray

    @property
    def n_trees(self) -> int:
        """Number of trees."""
        return self.offsets.shape[0] - 1

    def depths(self) -> list[int]:
        """Each tree's depth, in tree order."""
        return np.maximum.reduceat(self.depth, self.offsets[:-1]).tolist()

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) ids of the leaf each row reaches in each tree."""
        n_rows = X.shape[0]
        node = np.repeat(self.offsets[:-1], n_rows)
        row = np.tile(np.arange(n_rows), self.n_trees)
        active = np.arange(node.shape[0])
        while active.size:
            at = node[active]
            feature = self.feature[at]
            inner = feature >= 0
            active, at, feature = active[inner], at[inner], feature[inner]
            go_left = X[row[active], feature] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
        return node.reshape(self.n_trees, n_rows)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf class distributions, added in tree order."""
        counts = self.counts[self.apply(X)]
        proba = counts / counts.sum(axis=2, keepdims=True)
        out = np.zeros(proba.shape[1:])
        for tree_proba in proba:
            out += tree_proba
        return out / self.n_trees


class _NodeTable:
    """Per-node arrays of a forest being grown, doubled as they fill."""

    def __init__(self, n_classes: int, capacity: int) -> None:
        self.size = 0
        self.tree = np.empty(capacity, np.int32)
        self.depth = np.empty(capacity, np.int32)
        self.counts = np.empty((capacity, n_classes), np.int64)
        self.feature = np.empty(capacity, np.int32)
        self.threshold = np.empty(capacity)
        self.left = np.empty(capacity, np.int32)
        self.right = np.empty(capacity, np.int32)

    def add(
        self, tree: np.ndarray, depth: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Append leaves with these trees, depths and class counts; their ids.

        A leaf's ``left`` and ``right`` stay unset: they are read only
        once it splits.
        """
        start, stop = self.size, self.size + tree.shape[0]
        if stop > self.tree.shape[0]:
            capacity = max(stop, 2 * self.tree.shape[0])
            for name in "tree depth counts feature threshold left right".split():
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:], old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        self.tree[start:stop] = tree
        self.depth[start:stop] = depth
        self.counts[start:stop] = counts
        self.feature[start:stop] = -1
        self.threshold[start:stop] = 0.0
        self.size = stop
        return np.arange(start, stop)


def _presort(X: np.ndarray, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every tree's sample positions sorted by every feature, stably.

    Row ``t * d + f`` of both returned (n_trees * d, n) arrays belongs to
    tree ``t`` and feature ``f``.  The first lists the slots ``t * n + j``
    of the tree's sample positions ``j`` ordered by (value, ``j``), which
    is a stable ``argsort`` of the tree's column; the second holds their
    values' dense ranks.  A position sorts as one int key, its rank then
    ``j``; the keys of a row are distinct, so any sort gives that order.
    """
    n_rows, d = X.shape
    n_trees, n = samples.shape
    column_order = np.argsort(X, axis=0)
    sorted_columns = np.take_along_axis(X, column_order, axis=0)
    fresh = np.ones((n_rows, d), dtype=bool)
    np.not_equal(sorted_columns[1:], sorted_columns[:-1], out=fresh[1:])
    shift = max(n - 1, 1).bit_length()
    fits = max((n_rows + 1) << shift, n_trees * n) < 2**31
    key_type = np.int32 if fits else np.int64
    # column_keys[f, i]: the dense rank of X[i, f], shifted past positions.
    dense = np.cumsum(fresh, axis=0, dtype=key_type) << shift
    column_keys = np.empty((d, n_rows), key_type)
    np.put_along_axis(column_keys, column_order.T, dense.T, axis=1)
    keys = column_keys[:, samples].transpose(1, 0, 2).reshape(n_trees * d, n)
    keys |= np.arange(n, dtype=key_type)
    keys.sort(axis=1)
    slots = keys & ((1 << shift) - 1)
    slots += (np.arange(n_trees, dtype=key_type) * n).repeat(d)[:, None]
    return slots, keys >> shift


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    samples: np.ndarray,
    rngs: list[np.random.Generator],
    *,
    max_depth: int | None,
    min_samples_split: int,
    criterion: str,
    max_features: int | str | None,
) -> TreeArrays:
    """Grow tree ``t`` on the rows ``samples[t]`` of (X, y), all at once.

    ``y`` holds class indices below ``n_classes``, and ``rngs[t]`` draws
    tree ``t``'s split features.  A node is a leaf when it is pure,
    holds fewer than ``min_samples_split`` samples, sits at
    ``max_depth``, or no split of its drawn features decreases impurity
    by more than 1e-12.  Otherwise it splits at the best (feature,
    position): the first maximum of the impurity decrease over the
    positions in a feature's sorted order, then over the features in
    drawing order.  The threshold is the midpoint of the values either
    side, or the lower value when the midpoint rounds up to the higher.
    Each tree is the tree the per-node recursion grows on its sample
    alone: its draws come in preorder, a node's rows in their sample's
    stable order, and a class its sample misses adds only zero counts.
    """
    n_trees, n = samples.shape
    d = X.shape[1]
    n_feat = n_split_features(max_features, d)
    slots, ranks = _presort(X, samples)
    labels = y[samples].ravel()
    tree_labels = labels + n_classes * np.arange(n_trees).repeat(n)
    root_counts = np.bincount(tree_labels, minlength=n_trees * n_classes)
    root_counts = root_counts.reshape(n_trees, n_classes)
    table = _NodeTable(n_classes, capacity=8 * n_trees)
    roots = table.add(np.arange(n_trees), np.zeros(n_trees), root_counts)
    # owner[t * n + j]: the node of tree t holding sample position j.
    owner = roots.astype(np.int32).repeat(n)
    stacks = [[root] for root in roots.tolist()]
    popped_per_step = []
    while True:
        popped = np.array([stack.pop() for stack in stacks if stack], np.intp)
        if not popped.size:
            break
        popped_per_step.append(popped)
        counts = table.counts[popped]
        splittable = np.count_nonzero(counts, axis=1) > 1
        splittable &= counts.sum(axis=1) >= min_samples_split
        if max_depth is not None:
            splittable &= table.depth[popped] < max_depth
        nodes = popped[splittable]
        if not nodes.size:
            continue
        trees = table.tree[nodes]
        if n_feat == d:
            features = np.broadcast_to(np.arange(d), (nodes.size, d))
        else:
            features = np.array(
                [rngs[t].choice(d, size=n_feat, replace=False) for t in trees.tolist()]
            )
        split = _split_nodes(
            X,
            samples,
            labels,
            owner,
            slots,
            ranks,
            nodes,
            trees,
            features,
            counts[splittable],
            criterion,
        )
        if split is None:
            continue
        at, feature, threshold, left_counts, moved, goes_left, lengths = split
        parents = nodes[at]
        parent_trees = trees[at]
        depth = table.depth[parents] + 1
        children = table.add(
            np.concatenate([parent_trees, parent_trees]),
            np.concatenate([depth, depth]),
            np.concatenate([left_counts, table.counts[parents] - left_counts]),
        )
        left, right = children[: at.size], children[at.size :]
        owner[moved] = np.where(goes_left, left.repeat(lengths), right.repeat(lengths))
        table.feature[parents] = feature
        table.threshold[parents] = threshold
        table.left[parents] = left
        table.right[parents] = right
        for t, left_id, right_id in zip(
            parent_trees.tolist(), left.tolist(), right.tolist(), strict=True
        ):
            stacks[t].append(right_id)
            stacks[t].append(left_id)
    # A tree pops its nodes in preorder, one a step: renumber them tree
    # after tree in pop order.
    order = np.concatenate(popped_per_step)
    order = order[np.argsort(table.tree[order], kind="stable")]
    new_id = np.empty(table.size, np.int32)
    new_id[order] = np.arange(order.size, dtype=np.int32)
    feature = table.feature[order]
    inner = feature >= 0
    left = np.full(order.size, -1, np.int32)
    right = np.full(order.size, -1, np.int32)
    left[inner] = new_id[table.left[order][inner]]
    right[inner] = new_id[table.right[order][inner]]
    offsets = np.zeros(n_trees + 1, np.intp)
    np.cumsum(np.bincount(table.tree[order], minlength=n_trees), out=offsets[1:])
    return TreeArrays(
        feature=feature,
        threshold=table.threshold[order],
        left=left,
        right=right,
        counts=table.counts[order].astype(np.float64),
        depth=table.depth[order],
        offsets=offsets,
    )


def _split_nodes(
    X: np.ndarray,
    samples: np.ndarray,
    labels: np.ndarray,
    owner: np.ndarray,
    slots: np.ndarray,
    ranks: np.ndarray,
    nodes: np.ndarray,
    trees: np.ndarray,
    features: np.ndarray,
    counts: np.ndarray,
    criterion: str,
) -> tuple[np.ndarray, ...] | None:
    """Score every split of every node's drawn features in one batch.

    Each (node, feature) pair reads one segment: its tree's presorted
    slots for that feature, filtered to the node's members, which is
    the stable order of the node's own column.  A node's segments lie
    in drawing order, so its best split is the first maximum over them.
    A split after segment position ``i`` is scored only where the rank
    changes from ``i`` to ``i + 1``, from the segment's cumulative class
    counts.  Splitting moves the first ``i + 1`` members of the chosen
    segment to the left child: exactly the members at or below the
    threshold.  Returns the splitting nodes' indices into ``nodes``,
    their features, thresholds and left class counts, then the moved
    slots, whether each goes left, and each splitting node's size; or
    None when no node splits.
    """
    n_nodes, n_feat = features.shape
    n_classes = counts.shape[1]
    rows = (trees[:, None] * X.shape[1] + features).ravel()
    row_slots = slots.take(rows, axis=0)
    member = owner.take(row_slots) == nodes.repeat(n_feat)[:, None]
    slot = row_slots[member]
    rank = ranks.take(rows, axis=0)[member]
    sizes = counts.sum(axis=1)
    seg_len = sizes.repeat(n_feat)
    seg_start = np.cumsum(seg_len) - seg_len
    changes = rank[1:] != rank[:-1]
    changes[seg_start[1:] - 1] = False
    at = np.flatnonzero(changes)
    if not at.size:
        return None
    # cumulative[c, i]: samples of class c among the first i in ``slot``.
    cumulative = np.zeros((n_classes, slot.shape[0] + 1), np.int32)
    classes = np.arange(n_classes, dtype=labels.dtype)[:, None]
    np.cumsum(
        labels.take(slot) == classes, axis=1, dtype=np.int32, out=cumulative[:, 1:]
    )
    seg = np.arange(seg_len.shape[0]).repeat(seg_len).take(at)
    node = seg // n_feat
    start = seg_start.take(seg)
    left = cumulative.take(at + 1, axis=1) - cumulative.take(start, axis=1)
    right = counts.T.take(node, axis=1) - left
    n_left = at + 1 - start
    size = sizes.take(node)
    # One impurity pass over the parents, the left and the right sides.
    sides = np.concatenate([counts.T, left, right], axis=1)
    impurity = _impurities(sides, criterion)
    n_scored = at.shape[0]
    gain = impurity.take(node) - (
        n_left / size * impurity[n_nodes : n_nodes + n_scored]
        + (size - n_left) / size * impurity[n_nodes + n_scored :]
    )
    # Each node's first maximum over its segments.
    fresh = np.ones(n_scored, dtype=bool)
    np.not_equal(node[1:], node[:-1], out=fresh[1:])
    group = np.flatnonzero(fresh)
    node_max = np.maximum.reduceat(gain, group)
    is_max = gain == node_max.take(np.cumsum(fresh) - 1)
    first = np.minimum.reduceat(np.where(is_max, np.arange(n_scored), n_scored), group)
    splitting = node_max > 1e-12
    if not splitting.any():
        return None
    first = first[splitting]
    i = at[first]
    pair = seg[first]
    feature = features.ravel()[pair]
    low = X[samples.ravel()[slot[i]], feature]
    high = X[samples.ravel()[slot[i + 1]], feature]
    threshold = (low + high) / 2.0
    # Adjacent floats: the midpoint rounds up to ``high`` and would send
    # every sample left; ``low`` splits them.
    threshold = np.where(threshold >= high, low, threshold)
    left_counts = (cumulative[:, i + 1] - cumulative[:, seg_start[pair]]).T
    lengths = seg_len[pair]
    flat = (seg_start[pair] - (np.cumsum(lengths) - lengths)).repeat(lengths)
    flat += np.arange(flat.shape[0])
    goes_left = flat <= i.repeat(lengths)
    return node[first], feature, threshold, left_counts, slot[flat], goes_left, lengths


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
        Features sampled per split: None (all), an int >= 1, or
        ``"sqrt"`` (used by the random forest).
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
        check_tree_params(max_depth, min_samples_split, criterion, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.classes_ = None
        self.trees_: TreeArrays | None = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y)."""
        X, y = self._check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.trees_ = grow_trees(
            X,
            encoded,
            self.classes_.shape[0],
            np.arange(X.shape[0])[None, :],
            [ensure_rng(self.seed)],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            criterion=self.criterion,
            max_features=self.max_features,
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Leaf class distributions."""
        self._require_fitted()
        return self.trees_.predict_proba(self._check_X(X))

    def depth(self) -> int:
        """Actual depth of the grown tree."""
        self._require_fitted()
        return self.trees_.depths()[0]
