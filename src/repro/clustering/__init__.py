"""CLUTO-like clustering substrate.

The paper runs five clustering algorithms "implemented in the CLUTO
software: rb, rbr, direct, agglo, graph" and builds five new internal
indexes (its Table 2) from CLUTO's per-cluster ISIM/ESIM statistics.
CLUTO is a closed binary, so this subpackage re-implements:

* the cosine I2 criterion and ISIM/ESIM cluster statistics
  (:mod:`repro.clustering.similarity`, :mod:`repro.clustering.criterion`);
* the five algorithms (:mod:`repro.clustering.algorithms` registry);
* the paper's indexes a_k..f_k plus classic baselines
  (:mod:`repro.clustering.indexes`).
"""

from repro.clustering.agglomerative import agglomerative_cluster
from repro.clustering.algorithms import ALGORITHM_NAMES, cluster
from repro.clustering.bisecting import repeated_bisection
from repro.clustering.criterion import criterion_value
from repro.clustering.external import (
    EXTERNAL_INDEXES,
    adjusted_rand_index,
    compute_external_index,
    normalized_mutual_information,
    purity,
    rand_index,
)
from repro.clustering.graphclust import graph_cluster
from repro.clustering.indexes import (
    INDEX_DIRECTIONS,
    PAPER_INDEXES,
    compute_index,
    index_names,
)
from repro.clustering.kmeans import spherical_kmeans
from repro.clustering.louvain import (
    CSRGraph,
    louvain_labels,
    modularity_from_labels,
)
from repro.clustering.model import ClusterSolution, ClusterStats
from repro.clustering.similarity import (
    cosine_similarity_matrix,
    normalize_rows,
)

__all__ = [
    "ALGORITHM_NAMES",
    "CSRGraph",
    "ClusterSolution",
    "ClusterStats",
    "EXTERNAL_INDEXES",
    "INDEX_DIRECTIONS",
    "PAPER_INDEXES",
    "adjusted_rand_index",
    "agglomerative_cluster",
    "cluster",
    "compute_external_index",
    "compute_index",
    "cosine_similarity_matrix",
    "criterion_value",
    "graph_cluster",
    "index_names",
    "louvain_labels",
    "modularity_from_labels",
    "normalize_rows",
    "normalized_mutual_information",
    "purity",
    "rand_index",
    "repeated_bisection",
    "spherical_kmeans",
]
