"""Cosine similarity kernels shared by the clustering algorithms.

Inputs are dense ``(n, d)`` arrays, and every routine of
:mod:`repro.clustering` only reads its input: Step III clusters the same
array it later reads its top features from.  Everything downstream
assumes **unit-norm rows**; :func:`normalize_rows` is the single place
that normalisation happens.  With unit rows, cosine similarity is a
plain dot product, and per-cluster statistics reduce to norms of
composite (summed) vectors — the trick CLUTO uses to compute ISIM/ESIM
without materialising the n×n similarity matrix.
"""

from __future__ import annotations

import numpy as np


def as_float_array(matrix) -> np.ndarray:
    """Coerce input to a 2-D float64 ndarray (a float64 array is not copied)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def normalize_rows(matrix) -> np.ndarray:
    """Return a copy of ``matrix`` with L2-normalised rows (zero rows kept)."""
    matrix = as_float_array(matrix)
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    return matrix / norms[:, None]


def cosine_similarity_matrix(matrix) -> np.ndarray:
    """Dense n×n cosine similarity of the rows of ``matrix``."""
    unit = normalize_rows(matrix)
    return np.clip(unit @ unit.T, -1.0, 1.0)


def composite_vector(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sum of the selected rows as a 1-D vector (CLUTO's D_i)."""
    return matrix[indices].sum(axis=0)


def isim_esim(matrix, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster (sizes, ISIM, ESIM) of a clustering of ``matrix``.

    Rows are L2-normalised internally, then (CLUTO conventions,
    self-pairs included):

    * ``ISIM_i`` — average pairwise cosine similarity among the objects of
      cluster i: ``‖D_i‖² / n_i²`` where ``D_i`` is the cluster's composite
      vector;
    * ``ESIM_i`` — average similarity between cluster-i objects and all
      objects outside the cluster: ``D_i · (D − D_i) / (n_i (N − n_i))``
      (0 when the cluster holds the entire collection).

    Returns arrays aligned with cluster ids ``0..k-1``.
    """
    matrix = normalize_rows(matrix)
    labels = np.asarray(labels)
    n = matrix.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"labels length {labels.shape[0]} != n rows {n}")
    k = int(labels.max()) + 1 if n else 0
    total = composite_vector(matrix, np.arange(n))
    sizes = np.zeros(k, dtype=np.int64)
    isim = np.zeros(k, dtype=np.float64)
    esim = np.zeros(k, dtype=np.float64)
    for i in range(k):
        members = np.where(labels == i)[0]
        n_i = members.size
        sizes[i] = n_i
        if n_i == 0:
            continue
        d_i = composite_vector(matrix, members)
        isim[i] = float(d_i @ d_i) / (n_i * n_i)
        outside = n - n_i
        if outside > 0:
            esim[i] = float(d_i @ (total - d_i)) / (n_i * outside)
    return sizes, isim, esim
