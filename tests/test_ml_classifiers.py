"""API-conformance and accuracy tests across every repro.ml classifier."""

import numpy as np
import pytest

from repro.errors import NotFittedError, ValidationError
from repro.ml import DEFAULT_CLASSIFIERS, clone, make_classifier
from repro.ml.base import BaseClassifier


def gaussian_blobs(n_per=40, d=6, gap=3.0, seed=0, n_classes=2):
    """Linearly separable class-conditional Gaussians + labels."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(d)
        center[c % d] = gap
        X.append(rng.normal(loc=center, scale=1.0, size=(n_per, d)))
        y.extend([c] * n_per)
    return np.vstack(X), np.asarray(y)


def xor_data(n_per=60, seed=0):
    """The XOR pattern: non-linear, solvable by trees/forests/knn."""
    rng = np.random.default_rng(seed)
    centers = [(0, 0, 0), (3, 3, 0), (0, 3, 1), (3, 0, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        pts = rng.normal(loc=(cx, cy), scale=0.4, size=(n_per, 2))
        X.append(pts)
        y.extend([label] * n_per)
    return np.vstack(X), np.asarray(y)


@pytest.mark.parametrize("name", DEFAULT_CLASSIFIERS)
class TestClassifierContract:
    def _fit(self, name, X, y):
        model = make_classifier(name, seed=0)
        if name == "multinomial_nb":
            X = np.abs(X)  # multinomial needs non-negative features
        return model.fit(X, y), X

    def test_fit_returns_self(self, name):
        X, y = gaussian_blobs()
        model = make_classifier(name, seed=0)
        if name == "multinomial_nb":
            X = np.abs(X)
        assert model.fit(X, y) is model

    def test_separable_blobs_high_accuracy(self, name):
        X, y = gaussian_blobs(seed=1)
        model, X = self._fit(name, X, y)
        accuracy = float((model.predict(X) == y).mean())
        assert accuracy > 0.9, f"{name} accuracy {accuracy}"

    def test_string_labels_supported(self, name):
        X, y = gaussian_blobs(seed=2)
        labels = np.where(y == 0, "mono", "poly")
        model = make_classifier(name, seed=0)
        if name == "multinomial_nb":
            X = np.abs(X)
        model.fit(X, labels)
        predictions = model.predict(X)
        assert set(predictions.tolist()) <= {"mono", "poly"}

    def test_predict_before_fit_raises(self, name):
        X, __ = gaussian_blobs()
        with pytest.raises(NotFittedError):
            make_classifier(name, seed=0).predict(X)

    def test_rejects_mismatched_lengths(self, name):
        X, y = gaussian_blobs()
        with pytest.raises(ValidationError):
            make_classifier(name, seed=0).fit(X, y[:-1])

    def test_rejects_single_class(self, name):
        X, __ = gaussian_blobs()
        with pytest.raises(ValidationError):
            make_classifier(name, seed=0).fit(np.abs(X), np.zeros(X.shape[0]))

    def test_rejects_nan(self, name):
        X, y = gaussian_blobs()
        X[0, 0] = np.nan
        with pytest.raises(ValidationError):
            make_classifier(name, seed=0).fit(X, y)

    def test_clone_is_unfitted_with_same_params(self, name):
        model = make_classifier(name, seed=0)
        fresh = clone(model)
        assert type(fresh) is type(model)
        assert fresh.classes_ is None
        assert fresh.get_params() == model.get_params()

    def test_deterministic_given_seed(self, name):
        X, y = gaussian_blobs(seed=3)
        if name == "multinomial_nb":
            X = np.abs(X)
        a = make_classifier(name, seed=0).fit(X, y).predict(X)
        b = make_classifier(name, seed=0).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_multiclass_three_blobs(self, name):
        X, y = gaussian_blobs(seed=4, n_classes=3, gap=4.0)
        model, X = self._fit(name, X, y)
        accuracy = float((model.predict(X) == y).mean())
        assert accuracy > 0.85, f"{name} 3-class accuracy {accuracy}"


@pytest.mark.parametrize("name", ["gaussian_nb", "multinomial_nb", "logistic", "tree", "forest", "knn"])
class TestPredictProba:
    def test_rows_sum_to_one(self, name):
        X, y = gaussian_blobs(seed=5)
        model = make_classifier(name, seed=0)
        if name == "multinomial_nb":
            X = np.abs(X)
        model.fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (X.shape[0], 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)


class TestNonLinearModels:
    @pytest.mark.parametrize("name", ["tree", "forest", "knn"])
    def test_xor_solved(self, name):
        X, y = xor_data(seed=6)
        model = make_classifier(name, seed=0).fit(X, y)
        accuracy = float((model.predict(X) == y).mean())
        assert accuracy > 0.95

    def test_logistic_fails_xor(self):
        # Sanity check that XOR really is non-linear for our data.
        X, y = xor_data(seed=6)
        model = make_classifier("logistic").fit(X, y)
        accuracy = float((model.predict(X) == y).mean())
        assert accuracy < 0.8


class TestTreeSpecifics:
    def test_max_depth_respected(self):
        from repro.ml.tree import DecisionTreeClassifier

        X, y = xor_data(seed=7)
        tree = DecisionTreeClassifier(max_depth=2, seed=0).fit(X, y)
        assert tree.depth() <= 2

    def test_entropy_criterion_works(self):
        from repro.ml.tree import DecisionTreeClassifier

        X, y = gaussian_blobs(seed=8)
        tree = DecisionTreeClassifier(criterion="entropy", seed=0).fit(X, y)
        assert float((tree.predict(X) == y).mean()) > 0.9

    def test_bad_params(self):
        from repro.ml.tree import DecisionTreeClassifier

        with pytest.raises(ValidationError):
            DecisionTreeClassifier(criterion="nope")
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_deep_chain_needs_no_recursion(self):
        # Alternating labels on one sorted feature: every split peels a
        # single row off the end, so the tree is a chain as deep as the
        # data.  The grower's explicit stacks and depth() must not
        # recurse (a recursive grower raised RecursionError here).
        from repro.ml.tree import DecisionTreeClassifier

        X = np.arange(2200.0)[:, None]
        y = np.arange(2200) % 2
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert tree.depth() == 2199
        assert np.array_equal(tree.predict(X), y)
        assert np.array_equal(tree.predict_proba(X), np.eye(2)[y])

    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_split_between_adjacent_floats(self, max_depth):
        # Their midpoint rounds up to the larger value, which as a
        # threshold sends both values left: unbounded, the tree then
        # recursed until RecursionError, and bounded it grew an empty
        # leaf whose probabilities were NaN.
        from repro.ml.tree import DecisionTreeClassifier

        a = 1.0 + 2.0**-52
        b = float(np.nextafter(a, 2.0))
        assert (a + b) / 2.0 == b
        X = np.array([[a], [a], [b], [b]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=max_depth, seed=0).fit(X, y)
        assert tree.depth() == 1
        assert np.array_equal(tree.predict_proba(X), np.eye(2)[y])
        assert np.array_equal(tree.predict(X), y)


    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_split_whose_midpoint_sum_overflows(self, max_depth):
        # (low + high) / 2 is -inf here: training sent the lower rows
        # left while prediction sent every row right.
        from repro.ml.tree import DecisionTreeClassifier

        X = np.array([[-1.7e308], [-1.7e308], [-1.6e308], [-1.6e308]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=max_depth, seed=0).fit(X, y)
        assert tree.depth() == 1
        assert np.isfinite(tree.trees_.threshold).all()
        assert np.array_equal(tree.predict(X), y)
        assert np.array_equal(tree.predict_proba(X), np.eye(2)[y])


class TestForestSpecifics:
    def test_split_whose_midpoint_sum_overflows(self):
        from repro.ml.forest import RandomForestClassifier

        X = np.array([[-1.7e308], [-1.7e308], [-1.6e308], [-1.6e308]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        assert np.isfinite(forest.trees_.threshold).all()
        assert np.array_equal(forest.predict(X), y)

    def test_more_trees_not_worse_on_test(self):
        from repro.ml.forest import RandomForestClassifier

        X, y = xor_data(n_per=80, seed=9)
        X_test, y_test = xor_data(n_per=30, seed=10)
        small = RandomForestClassifier(n_estimators=3, seed=0).fit(X, y)
        large = RandomForestClassifier(n_estimators=40, seed=0).fit(X, y)
        acc_small = float((small.predict(X_test) == y_test).mean())
        acc_large = float((large.predict(X_test) == y_test).mean())
        assert acc_large >= acc_small - 0.05

    def test_bad_n_estimators(self):
        from repro.ml.forest import RandomForestClassifier

        with pytest.raises(ValidationError):
            RandomForestClassifier(n_estimators=0)


class TestTreeParamsCheckedAtConstruction:
    @pytest.mark.parametrize("name", ["tree", "forest"])
    @pytest.mark.parametrize(
        "params",
        [
            {"criterion": "nope"},
            {"max_depth": 0},
            {"min_samples_split": 1},
            {"max_features": "log2"},
            {"max_features": 0},
            {"max_features": -1},
            {"max_features": 2.5},
            {"max_features": True},
        ],
        ids=lambda params: "-".join(f"{k}={v!r}" for k, v in params.items()),
    )
    def test_rejected_before_fit(self, name, params):
        from repro.ml.forest import RandomForestClassifier
        from repro.ml.tree import DecisionTreeClassifier

        model = {"tree": DecisionTreeClassifier, "forest": RandomForestClassifier}
        with pytest.raises(ValidationError):
            model[name](**params)

    def test_unreached_split_no_longer_hides_a_bad_max_features(self):
        # Four rows never reach a split under min_samples_split=5, so a
        # check made only while splitting let this fit succeed.
        from repro.ml.tree import DecisionTreeClassifier

        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_features="log2", min_samples_split=5)

    @pytest.mark.parametrize("max_features", [None, "sqrt", 1, 3, 100])
    def test_valid_max_features_fit(self, max_features):
        from repro.ml.forest import RandomForestClassifier

        X, y = gaussian_blobs(seed=15)
        model = RandomForestClassifier(
            n_estimators=5, max_features=max_features, seed=0
        ).fit(X, y)
        assert float((model.predict(X) == y).mean()) > 0.9


class TestKnnSpecifics:
    def test_k_one_memorises(self):
        from repro.ml.knn import KNeighborsClassifier

        X, y = gaussian_blobs(seed=11)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert float((model.predict(X) == y).mean()) == 1.0

    def test_cosine_metric(self):
        from repro.ml.knn import KNeighborsClassifier

        X, y = gaussian_blobs(seed=12, gap=5.0)
        model = KNeighborsClassifier(n_neighbors=3, metric="cosine").fit(X, y)
        assert float((model.predict(X) == y).mean()) > 0.8

    def test_bad_params(self):
        from repro.ml.knn import KNeighborsClassifier

        with pytest.raises(ValidationError):
            KNeighborsClassifier(n_neighbors=0)
        with pytest.raises(ValidationError):
            KNeighborsClassifier(metric="hamming")


class TestSvmSpecifics:
    def test_decision_function_shapes(self):
        from repro.ml.svm import LinearSVC

        X, y = gaussian_blobs(seed=13)
        model = LinearSVC(seed=0).fit(X, y)
        assert model.decision_function(X).shape == (X.shape[0],)
        X3, y3 = gaussian_blobs(seed=13, n_classes=3)
        model3 = LinearSVC(seed=0).fit(X3, y3)
        assert model3.decision_function(X3).shape == (X3.shape[0], 3)

    def test_bad_params(self):
        from repro.ml.svm import LinearSVC

        with pytest.raises(ValidationError):
            LinearSVC(lam=0)
        with pytest.raises(ValidationError):
            LinearSVC(n_epochs=0)


class TestLogisticSpecifics:
    def test_converges_and_reports_iterations(self):
        from repro.ml.logistic import LogisticRegression

        X, y = gaussian_blobs(seed=14)
        model = LogisticRegression(max_iter=300).fit(X, y)
        assert 1 <= model.n_iter_ <= 300

    def test_bad_params(self):
        from repro.ml.logistic import LogisticRegression

        with pytest.raises(ValidationError):
            LogisticRegression(learning_rate=0)
        with pytest.raises(ValidationError):
            LogisticRegression(l2=-1)


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown classifier"):
            make_classifier("perceptron")

    def test_all_names_resolve(self):
        for name in DEFAULT_CLASSIFIERS:
            assert isinstance(make_classifier(name, seed=0), BaseClassifier)
