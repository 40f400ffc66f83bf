"""Feature scaling (the polysemy features mix very different ranges)."""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError, ValidationError


class StandardScaler:
    """Per-feature standardisation to zero mean / unit variance.

    Constant features scale to zero (their variance floor is 1), never NaN.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X) -> np.ndarray:
        """Standardise ``X`` with the fitted statistics."""
        if self.mean_ is None:
            raise NotFittedError("StandardScaler must be fitted before transform")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        """Fit on ``X`` and return its standardised copy."""
        return self.fit(X).transform(X)
