"""The algorithm registry: the paper's five CLUTO methods by name."""

from __future__ import annotations

import numpy as np

from repro.clustering.agglomerative import agglomerative_cluster
from repro.clustering.bisecting import repeated_bisection
from repro.clustering.graphclust import graph_cluster
from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.model import ClusterSolution
from repro.errors import ClusteringError

#: The five algorithm names exactly as the paper lists them.
ALGORITHM_NAMES = ("rb", "rbr", "direct", "agglo", "graph")


def cluster(
    matrix,
    k: int,
    *,
    method: str = "rb",
    seed: int | np.random.Generator | None = None,
) -> ClusterSolution:
    """Cluster the rows of ``matrix`` into ``k`` groups with ``method``.

    Parameters
    ----------
    matrix:
        (n, d) array (rows normalised internally).
    k:
        Number of clusters.
    method:
        One of :data:`ALGORITHM_NAMES` — ``rb`` (repeated bisection),
        ``rbr`` (rb + refinement), ``direct`` (k-way spherical k-means),
        ``agglo`` (UPGMA), ``graph`` (kNN-graph partitioning).
    seed:
        RNG seed for the stochastic methods (``agglo`` is deterministic).

    Returns
    -------
    ClusterSolution
        Labels with ``stats`` attached (ISIM/ESIM per cluster), ready for
        the internal indexes.
    """
    if method not in ALGORITHM_NAMES:
        raise ClusteringError(
            f"unknown method {method!r}; options: {', '.join(ALGORITHM_NAMES)}"
        )
    if method == "rb":
        solution = repeated_bisection(matrix, k, refine=False, seed=seed)
    elif method == "rbr":
        solution = repeated_bisection(matrix, k, refine=True, seed=seed)
    elif method == "direct":
        solution = spherical_kmeans(matrix, k, seed=seed)
    elif method == "agglo":
        solution = agglomerative_cluster(matrix, k)
    else:
        solution = graph_cluster(matrix, k, seed=seed)
    return solution.with_stats(matrix)
