"""Machine-learning substrate for Step II (polysemy detection).

The paper reports "several machine learning algorithms" reaching a 98 %
F-measure on polysemy detection.  scikit-learn is not available offline,
so this subpackage implements six standard classifier families with a
uniform fit/predict API plus the model-selection and metric plumbing the
benchmark sweep needs.
"""

from repro.ml.base import BaseClassifier, clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import (
    group_permutation_importance,
    permutation_importance,
    rank_features,
)
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
from repro.ml.naive_bayes import GaussianNB, MultinomialNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVC
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseClassifier",
    "DecisionTreeClassifier",
    "GaussianNB",
    "KNeighborsClassifier",
    "LinearSVC",
    "LogisticRegression",
    "MultinomialNB",
    "RandomForestClassifier",
    "StandardScaler",
    "accuracy_score",
    "clone",
    "confusion_matrix",
    "cross_validate",
    "f1_score",
    "group_permutation_importance",
    "permutation_importance",
    "precision_recall_f1",
    "precision_score",
    "rank_features",
    "recall_score",
    "stratified_kfold_indices",
    "train_test_split",
]

#: The classifier families swept by the polysemy-detection benchmark.
DEFAULT_CLASSIFIERS = (
    "gaussian_nb",
    "multinomial_nb",
    "logistic",
    "tree",
    "forest",
    "knn",
    "svm",
)


def make_classifier(name: str, *, seed: int | None = 0) -> BaseClassifier:
    """Instantiate a classifier by registry name (see DEFAULT_CLASSIFIERS)."""
    if name == "gaussian_nb":
        return GaussianNB()
    if name == "multinomial_nb":
        return MultinomialNB()
    if name == "logistic":
        return LogisticRegression()
    if name == "tree":
        return DecisionTreeClassifier(seed=seed)
    if name == "forest":
        return RandomForestClassifier(seed=seed)
    if name == "knn":
        return KNeighborsClassifier()
    if name == "svm":
        return LinearSVC(seed=seed)
    raise ValueError(
        f"unknown classifier {name!r}; options: {', '.join(DEFAULT_CLASSIFIERS)}"
    )
