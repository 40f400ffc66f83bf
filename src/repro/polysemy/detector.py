"""The Step II detector: a classifier over the 23 polysemy features."""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.ml import make_classifier
from repro.ml.base import BaseClassifier, clone
from repro.ml.metrics import f1_score
from repro.ml.model_selection import stratified_kfold_indices
from repro.ml.preprocessing import StandardScaler
from repro.polysemy.dataset import PolysemyDataset
from repro.polysemy.features import PolysemyFeatureExtractor


class PolysemyDetector:
    """Predict whether a candidate term is polysemic.

    Wraps any :mod:`repro.ml` classifier behind feature extraction and
    standardisation, so callers deal in terms and corpora, not matrices.

    Parameters
    ----------
    classifier:
        A :mod:`repro.ml` estimator or a registry name (default
        ``"forest"``).
    extractor:
        The feature extractor (defaults to all 23 features).
    seed:
        Seed for registry-constructed classifiers.
    """

    def __init__(
        self,
        classifier: BaseClassifier | str = "forest",
        *,
        extractor: PolysemyFeatureExtractor | None = None,
        seed: int | None = 0,
    ) -> None:
        if isinstance(classifier, str):
            classifier = make_classifier(classifier, seed=seed)
        self.classifier = classifier
        self.extractor = (
            extractor if extractor is not None else PolysemyFeatureExtractor()
        )
        self._scaler: StandardScaler | None = None
        self._fitted: BaseClassifier | None = None

    def fit(self, dataset: PolysemyDataset) -> "PolysemyDetector":
        """Train on a labelled dataset."""
        self._scaler = StandardScaler().fit(dataset.X)
        model = clone(self.classifier)
        model.fit(self._scaler.transform(dataset.X), dataset.y)
        self._fitted = model
        return self

    def predict_features(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (1 = polysemic) for raw feature rows."""
        if self._fitted is None or self._scaler is None:
            raise NotFittedError("PolysemyDetector must be fitted first")
        return self._fitted.predict(self._scaler.transform(X))

    def cross_validate_f1(
        self,
        dataset: PolysemyDataset,
        *,
        n_splits: int = 10,
        seed: int | np.random.Generator | None = 0,
    ) -> np.ndarray:
        """Per-fold F-measure under stratified CV (the paper's metric).

        Scaling is fitted inside each training fold — no leakage.
        """
        scores = []
        folds = stratified_kfold_indices(dataset.y, n_splits, seed=seed)
        for train_idx, test_idx in folds:
            scaler = StandardScaler().fit(dataset.X[train_idx])
            model = clone(self.classifier)
            model.fit(scaler.transform(dataset.X[train_idx]), dataset.y[train_idx])
            predictions = model.predict(scaler.transform(dataset.X[test_idx]))
            scores.append(f1_score(dataset.y[test_idx], predictions, positive=1))
        return np.asarray(scores)
