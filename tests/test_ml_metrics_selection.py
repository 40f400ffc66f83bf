"""Tests for repro.ml.metrics, model_selection, preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotFittedError, ValidationError
from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import (
    cross_validate,
    stratified_kfold_indices,
    train_test_split,
)
from repro.ml.preprocessing import StandardScaler


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_perfect_prf(self):
        p, r, f = precision_recall_f1([1, 0, 1], [1, 0, 1])
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_known_prf_values(self):
        # TP=2, FP=1, FN=1 → P=2/3, R=2/3, F=2/3
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        p, r, f = precision_recall_f1(y_true, y_pred)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f == pytest.approx(2 / 3)

    def test_zero_division_graceful(self):
        p, r, f = precision_recall_f1([0, 0], [0, 0], positive=1)
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_macro_average(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [0, 0, 1, 1, 2, 2]
        assert f1_score(y_true, y_pred, average="macro") == 1.0

    def test_explicit_positive_label(self):
        y_true = ["a", "b", "a"]
        y_pred = ["a", "a", "a"]
        assert precision_score(y_true, y_pred, positive="a") == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred, positive="a") == 1.0

    def test_confusion_matrix(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])

    def test_confusion_matrix_explicit_labels(self):
        cm = confusion_matrix([0, 1], [0, 1], labels=np.array([1, 0]))
        np.testing.assert_array_equal(cm, [[1, 0], [0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy_score([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy_score([], [])

    def test_bad_average(self):
        with pytest.raises(ValidationError):
            precision_recall_f1([0, 1], [0, 1], average="micro")

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_f1_bounded(self, labels):
        y_true = np.array(labels)
        rng = np.random.default_rng(0)
        y_pred = rng.integers(0, 2, size=len(labels))
        f = f1_score(y_true, y_pred)
        assert 0.0 <= f <= 1.0


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(40).reshape(20, 2)
        y = np.array([0] * 10 + [1] * 10)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.3, seed=0)
        assert X_te.shape[0] == 6
        assert X_tr.shape[0] == 14
        assert y_tr.shape[0] == 14 and y_te.shape[0] == 6

    def test_stratification_preserves_classes(self):
        X = np.zeros((30, 1))
        y = np.array([0] * 27 + [1] * 3)
        __, __, y_tr, y_te = train_test_split(X, y, test_size=0.25, seed=1)
        assert set(np.unique(y_te)) == {0, 1}
        assert set(np.unique(y_tr)) == {0, 1}

    def test_deterministic(self):
        X = np.arange(20).reshape(10, 2)
        y = np.array([0, 1] * 5)
        a = train_test_split(X, y, seed=3)
        b = train_test_split(X, y, seed=3)
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_test_size(self):
        with pytest.raises(ValidationError):
            train_test_split(np.zeros((4, 1)), np.array([0, 1, 0, 1]), test_size=0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            train_test_split(np.zeros((4, 1)), np.array([0, 1]))


class TestStratifiedKfold:
    def test_folds_partition_everything(self):
        y = np.array([0] * 20 + [1] * 10)
        folds = stratified_kfold_indices(y, n_splits=5, seed=0)
        all_test = np.concatenate([test for __, test in folds])
        assert sorted(all_test.tolist()) == list(range(30))

    def test_no_leakage(self):
        y = np.array([0] * 12 + [1] * 12)
        for train, test in stratified_kfold_indices(y, n_splits=4, seed=1):
            assert set(train) & set(test) == set()

    def test_each_fold_has_both_classes(self):
        y = np.array([0] * 15 + [1] * 15)
        for __, test in stratified_kfold_indices(y, n_splits=5, seed=2):
            assert set(y[test]) == {0, 1}

    def test_too_many_splits_rejected(self):
        y = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValidationError, match="smallest class"):
            stratified_kfold_indices(y, n_splits=5)

    def test_min_splits(self):
        with pytest.raises(ValidationError):
            stratified_kfold_indices(np.array([0, 1]), n_splits=1)


class TestCrossValidate:
    def test_scores_shape_and_range(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(4, 1, (30, 3))])
        y = np.array([0] * 30 + [1] * 30)
        scores = cross_validate(LogisticRegression(), X, y, n_splits=5, seed=0)
        assert scores.shape == (5,)
        assert np.all((scores >= 0) & (scores <= 1))
        assert scores.mean() > 0.9

    def test_custom_scorer(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(5, 1, (20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        scores = cross_validate(
            KNeighborsClassifier(n_neighbors=3),
            X,
            y,
            n_splits=4,
            scorer=lambda t, p: f1_score(t, p),
            seed=0,
        )
        assert scores.mean() > 0.9


class TestScalers:
    def test_standard_scaler_moments(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_feature(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_separate_transform_consistency(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.transform(X[:5]), scaler.fit_transform(X)[:5]
        )
