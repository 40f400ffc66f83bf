"""Internal clustering-quality indexes — the paper's Table 2.

The paper's first contribution is five new internal indexes built from
CLUTO's per-cluster ISIM/ESIM statistics, used to predict the number of
senses k of a candidate term.  With ``a_k``.. ``f_k`` as printed:

=====  ============================================================  =========
index  definition                                                    direction
=====  ============================================================  =========
a_k    mean of ISIM_i over clusters                                  max
b_k    mean of ESIM_i over clusters                                  min
c_k    (1/k) Σ_i |S_i| · (ISIM_i − ESIM_i)                           max
e_k    Σ_i |S_i|·ISIM_i  /  Σ_i |S_i|·ESIM_i                          max
f_k    a_k / log10(k)                                                max
=====  ============================================================  =========

Note on c_k/e_k: the paper's printed formulas carry mismatched subscripts
(``ESIM_k`` in c_k, ``ISIM_k`` in e_k).  The sensible per-cluster reading
(above) is the default; ``paper_notation=True`` computes the literal
printed variant, where the ``_k`` quantities are the solution-level means.

Classic internal indexes (silhouette, Calinski–Harabasz, Davies–Bouldin)
are included as ablation baselines (DESIGN.md A1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.clustering.model import ClusterStats
from repro.clustering.similarity import cosine_similarity_matrix, normalize_rows
from repro.errors import ClusteringError

#: The paper's five new indexes, in Table 2 order.
PAPER_INDEXES = ("ak", "bk", "ck", "ek", "fk")

#: Baseline indexes used in the A1 ablation.
BASELINE_INDEXES = ("silhouette", "calinski_harabasz", "davies_bouldin")

#: Whether each index selects k by max or min over candidate solutions.
INDEX_DIRECTIONS: dict[str, str] = {
    "ak": "max",
    "bk": "min",
    "ck": "max",
    "ek": "max",
    "fk": "max",
    "silhouette": "max",
    "calinski_harabasz": "max",
    "davies_bouldin": "min",
}


def index_names(*, include_baselines: bool = True) -> tuple[str, ...]:
    """All known index names (paper's five first)."""
    if include_baselines:
        return PAPER_INDEXES + BASELINE_INDEXES
    return PAPER_INDEXES


# -- the paper's indexes ------------------------------------------------------


def ak_index(stats: ClusterStats) -> float:
    """a_k — average ISIM over clusters (maximise)."""
    return stats.mean_isim()


def bk_index(stats: ClusterStats) -> float:
    """b_k — average ESIM over clusters (minimise)."""
    return stats.mean_esim()


def ck_index(stats: ClusterStats, *, paper_notation: bool = False) -> float:
    """c_k — size-weighted mean ISIM−ESIM gap (maximise).

    ``paper_notation=True`` uses the printed ``ESIM_k`` (the solution-level
    mean ESIM) instead of each cluster's own ESIM_i.
    """
    esim = np.full_like(stats.esim, stats.mean_esim()) if paper_notation else stats.esim
    return float((stats.sizes * (stats.isim - esim)).sum() / stats.k)


def ek_index(stats: ClusterStats, *, paper_notation: bool = False) -> float:
    """e_k — ratio of size-weighted ISIM mass to ESIM mass (maximise).

    ``paper_notation=True`` uses the printed ``ISIM_k`` (solution-level
    mean ISIM) in the numerator.
    """
    isim = np.full_like(stats.isim, stats.mean_isim()) if paper_notation else stats.isim
    numerator = float((stats.sizes * isim).sum())
    denominator = float((stats.sizes * stats.esim).sum())
    if denominator == 0.0:
        # Perfectly separated clusters: make the ratio saturate rather
        # than blow up, so comparisons across k stay meaningful.
        return math.inf if numerator > 0 else 0.0
    return numerator / denominator


def fk_index(stats: ClusterStats) -> float:
    """f_k — mean ISIM divided by log10(k) (maximise); requires k ≥ 2."""
    if stats.k < 2:
        raise ClusteringError("f_k is undefined for k < 2 (log10(k) = 0)")
    return stats.mean_isim() / math.log10(stats.k)


# -- baseline indexes --------------------------------------------------------


def silhouette_index(matrix, labels: np.ndarray) -> float:
    """Mean silhouette coefficient under cosine distance (maximise)."""
    labels = np.asarray(labels)
    sims = cosine_similarity_matrix(matrix)
    dist = 1.0 - sims
    n = labels.shape[0]
    k = int(labels.max()) + 1
    if k < 2:
        raise ClusteringError("silhouette requires at least 2 clusters")
    members = [np.where(labels == i)[0] for i in range(k)]
    scores = np.zeros(n)
    for idx in range(n):
        own = labels[idx]
        own_members = members[own]
        if own_members.size <= 1:
            scores[idx] = 0.0
            continue
        a = dist[idx, own_members].sum() / (own_members.size - 1)
        b = min(
            dist[idx, other].mean()
            for j, other in enumerate(members)
            if j != own and other.size
        )
        denom = max(a, b)
        scores[idx] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


def calinski_harabasz_index(matrix, labels: np.ndarray) -> float:
    """Calinski–Harabasz (variance ratio) on unit-normalised rows (maximise)."""
    labels = np.asarray(labels)
    dense = normalize_rows(matrix)
    n, _ = dense.shape
    k = int(labels.max()) + 1
    if k < 2 or n <= k:
        raise ClusteringError("Calinski-Harabasz requires 2 <= k < n")
    overall = dense.mean(axis=0)
    between, within = 0.0, 0.0
    for i in range(k):
        cluster = dense[labels == i]
        if cluster.shape[0] == 0:
            continue
        centroid = cluster.mean(axis=0)
        between += cluster.shape[0] * float(((centroid - overall) ** 2).sum())
        within += float(((cluster - centroid) ** 2).sum())
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def davies_bouldin_index(matrix, labels: np.ndarray) -> float:
    """Davies–Bouldin on unit-normalised rows (minimise)."""
    labels = np.asarray(labels)
    dense = normalize_rows(matrix)
    k = int(labels.max()) + 1
    if k < 2:
        raise ClusteringError("Davies-Bouldin requires at least 2 clusters")
    centroids, spreads = [], []
    for i in range(k):
        cluster = dense[labels == i]
        centroid = cluster.mean(axis=0) if cluster.shape[0] else np.zeros(dense.shape[1])
        centroids.append(centroid)
        spreads.append(
            float(np.linalg.norm(cluster - centroid, axis=1).mean())
            if cluster.shape[0]
            else 0.0
        )
    worst = []
    for i in range(k):
        ratios = []
        for j in range(k):
            if i == j:
                continue
            gap = float(np.linalg.norm(centroids[i] - centroids[j]))
            ratios.append((spreads[i] + spreads[j]) / gap if gap > 0 else math.inf)
        worst.append(max(ratios))
    return float(np.mean(worst))


# -- dispatch -----------------------------------------------------------------


def compute_index(
    name: str,
    matrix,
    labels: np.ndarray,
    *,
    stats: ClusterStats | None = None,
    paper_notation: bool = False,
) -> float:
    """Compute index ``name`` for the clustering ``labels`` of ``matrix``.

    Parameters
    ----------
    name:
        One of :func:`index_names`.
    matrix / labels:
        The data and the clustering to score.
    stats:
        Precomputed :class:`ClusterStats` (saves recomputation when many
        indexes are evaluated on the same solution).
    paper_notation:
        Use the literally-printed Table 2 formulas for c_k / e_k.
    """
    if name in PAPER_INDEXES:
        if stats is None:
            stats = ClusterStats.from_labels(matrix, labels)
        if name == "ak":
            return ak_index(stats)
        if name == "bk":
            return bk_index(stats)
        if name == "ck":
            return ck_index(stats, paper_notation=paper_notation)
        if name == "ek":
            return ek_index(stats, paper_notation=paper_notation)
        return fk_index(stats)
    if name == "silhouette":
        return silhouette_index(matrix, labels)
    if name == "calinski_harabasz":
        return calinski_harabasz_index(matrix, labels)
    if name == "davies_bouldin":
        return davies_bouldin_index(matrix, labels)
    raise ClusteringError(
        f"unknown index {name!r}; options: {', '.join(index_names())}"
    )
