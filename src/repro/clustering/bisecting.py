"""Repeated-bisection clustering: CLUTO's ``rb`` and ``rbr`` methods.

``rb`` grows a k-way clustering by k−1 successive 2-way spherical k-means
splits; at each step the cluster chosen for splitting is the one whose
bisection most improves the global I2 criterion (CLUTO's "best" cluster
selection).  ``rbr`` additionally refines the final k-way solution with
spherical k-means warm-started from the rb assignment.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterSolution
from repro.clustering.similarity import as_float_array, composite_vector, normalize_rows
from repro.errors import ClusteringError
from repro.utils.rng import ensure_rng, spawn_rng


def _i2_of(unit, indices: np.ndarray) -> float:
    if indices.size == 0:
        return 0.0
    return float(np.linalg.norm(composite_vector(unit, indices)))


def repeated_bisection(
    matrix,
    k: int,
    *,
    refine: bool = False,
    seed: int | np.random.Generator | None = None,
    max_iter: int = 50,
) -> ClusterSolution:
    """Cluster by repeated bisection (``rb``; ``refine=True`` gives ``rbr``).

    Parameters
    ----------
    matrix:
        (n, d) array; rows normalised internally.
    k:
        Target number of clusters.
    refine:
        Run a final global k-means refinement pass (CLUTO's ``rbr``).
    seed:
        RNG seed.
    """
    matrix = as_float_array(matrix)
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    unit = normalize_rows(matrix)
    rng = ensure_rng(seed)

    labels = np.zeros(n, dtype=np.int64)
    if k == 1:
        return ClusterSolution(labels=labels, k=1, algorithm="rb")

    n_clusters = 1
    while n_clusters < k:
        # Evaluate the I2 gain of bisecting each splittable cluster and
        # commit the best split (CLUTO cselect=best).
        best_gain, best_cluster, best_split = -np.inf, None, None
        child_rngs = spawn_rng(rng, n_clusters)
        for cluster_id in range(n_clusters):
            members = np.where(labels == cluster_id)[0]
            if members.size < 2:
                continue
            sub = unit[members]
            split = spherical_kmeans(
                sub, 2, seed=child_rngs[cluster_id], max_iter=max_iter, n_init=2
            )
            before = _i2_of(unit, members)
            left = members[split.labels == 0]
            right = members[split.labels == 1]
            gain = _i2_of(unit, left) + _i2_of(unit, right) - before
            if gain > best_gain:
                best_gain, best_cluster, best_split = gain, cluster_id, split
        if best_cluster is None:
            raise ClusteringError(
                f"cannot reach k={k}: all clusters are singletons"
            )
        members = np.where(labels == best_cluster)[0]
        labels[members[best_split.labels == 1]] = n_clusters
        n_clusters += 1

    algorithm = "rbr" if refine else "rb"
    if refine:
        refined = spherical_kmeans(
            unit, k, init_labels=labels, max_iter=max_iter, seed=rng
        )
        labels = refined.labels
    return ClusterSolution(labels=labels, k=k, algorithm=algorithm)
