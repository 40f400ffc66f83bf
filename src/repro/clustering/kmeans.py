"""Spherical k-means: the engine behind CLUTO's ``direct`` method.

Maximises the I2 criterion: assign each unit vector to the centroid with
the highest cosine similarity, recompute centroids as normalised cluster
means, repeat.  Seeding is k-means++-flavoured on cosine distance;
empty clusters are re-seeded with the worst-assigned object, so the
requested k is always realised.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.model import ClusterSolution
from repro.clustering.similarity import as_float_array, normalize_rows
from repro.errors import ClusteringError
from repro.utils.rng import ensure_rng


def _plusplus_seeds(
    unit: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ style seeding on cosine distance (1 − similarity)."""
    n = unit.shape[0]
    first = int(rng.integers(0, n))
    seeds = [first]
    best_sim = unit @ unit[first]
    while len(seeds) < k:
        dist = np.clip(1.0 - best_sim, 0.0, None)
        dist[seeds] = 0.0
        total = dist.sum()
        if total <= 0.0:
            # Degenerate data (all identical): pick distinct arbitrary rows.
            remaining = [i for i in range(n) if i not in seeds]
            seeds.append(remaining[int(rng.integers(0, len(remaining)))])
            continue
        pick = int(rng.choice(n, p=dist / total))
        seeds.append(pick)
        best_sim = np.maximum(best_sim, unit @ unit[pick])
    return np.asarray(seeds)


def _centroids_from_labels(unit: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    n_features = unit.shape[1]
    centroids = np.zeros((k, n_features))
    for i in range(k):
        members = np.where(labels == i)[0]
        if members.size == 0:
            continue
        mean = unit[members].mean(axis=0)
        norm = np.linalg.norm(mean)
        centroids[i] = mean / norm if norm > 0 else mean
    return centroids


def spherical_kmeans(
    matrix,
    k: int,
    *,
    max_iter: int = 50,
    n_init: int = 3,
    seed: int | np.random.Generator | None = None,
    init_labels: np.ndarray | None = None,
) -> ClusterSolution:
    """Cluster the rows of ``matrix`` into ``k`` groups (cosine k-means).

    Parameters
    ----------
    matrix:
        (n, d) array; rows are L2-normalised internally.
    k:
        Number of clusters, ``1 <= k <= n``.
    max_iter:
        Assignment/update iterations per restart.
    n_init:
        Independent restarts; the solution with the best I2 wins.
        Ignored when ``init_labels`` is given.
    seed:
        RNG seed.
    init_labels:
        Warm start (used by ``rbr`` refinement): skip seeding and refine
        this assignment instead.
    """
    matrix = as_float_array(matrix)
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    unit = normalize_rows(matrix)
    rng = ensure_rng(seed)

    if k == 1:
        return ClusterSolution(
            labels=np.zeros(n, dtype=np.int64), k=1, algorithm="direct"
        )

    def run(start_labels: np.ndarray | None) -> tuple[np.ndarray, float]:
        if start_labels is None:
            centroids = unit[_plusplus_seeds(unit, k, rng)]
        else:
            centroids = _centroids_from_labels(unit, start_labels, k)
        labels = start_labels
        for _ in range(max_iter):
            sims = unit @ centroids.T
            new_labels = sims.argmax(axis=1)
            # Re-seed empty clusters with the globally worst-fitting object.
            assigned_sim = sims[np.arange(n), new_labels]
            for i in range(k):
                if not np.any(new_labels == i):
                    worst = int(np.argmin(assigned_sim))
                    new_labels[worst] = i
                    assigned_sim[worst] = np.inf
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            centroids = _centroids_from_labels(unit, labels, k)
        # I2 = sum over clusters of the composite-vector norm.
        i2 = 0.0
        for i in range(k):
            members = np.where(labels == i)[0]
            if members.size:
                composite = unit[members].sum(axis=0)
                i2 += float(np.linalg.norm(composite))
        return labels, i2

    if init_labels is not None:
        init_labels = np.asarray(init_labels, dtype=np.int64)
        if init_labels.shape[0] != n:
            raise ClusteringError("init_labels length must match matrix rows")
        labels, _ = run(init_labels)
        return ClusterSolution(labels=labels, k=k, algorithm="direct")

    best_labels, best_i2 = None, -np.inf
    for _ in range(max(1, n_init)):
        labels, i2 = run(None)
        if i2 > best_i2:
            best_labels, best_i2 = labels, i2
    return ClusterSolution(labels=best_labels, k=k, algorithm="direct")
