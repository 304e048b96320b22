"""Random forests built on the CART trees in :mod:`repro.ml.tree`.

Pond's latency-insensitivity model is "a simple random forest (RandomForest)
from Scikit-learn" (paper Section 5).  This module supplies a drop-in
equivalent: bootstrap sampling of training rows, per-split feature
subsampling, and soft-vote aggregation of the per-tree class probabilities.
A regressor variant is included because several ablation benchmarks compare
forest-based regression against the gradient-boosted model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _transposed

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list = []

    def _make_tree(self, seed: int):
        raise NotImplementedError

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        self._pre_fit(y)
        n = X.shape[0]
        for i in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            tree = self._make_tree(seed)
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            self.estimators_.append(tree)
        return self

    def _pre_fit(self, y: np.ndarray) -> None:
        """Hook for subclasses to record target metadata before fitting."""

    def _check_fitted(self) -> None:
        if not self.estimators_:
            raise RuntimeError("this forest has not been fitted yet")


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated CART classifier with soft voting.

    ``predict_proba`` averages the class-frequency estimates of every tree's
    reached leaf, which gives the smooth scores the paper needs to sweep the
    false-positive-rate / insensitive-fraction trade-off (Figure 17).
    """

    def _pre_fit(self, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)
        self.n_classes_ = len(self.classes_)

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        XT = _transposed(X)
        proba = np.zeros((XT.shape[1], self.n_classes_))
        for tree in self.estimators_:
            tree_proba = tree._leaf_values(XT)
            # Align the tree's class ordering with the forest's ordering; a
            # bootstrap sample can miss classes entirely.
            for j, cls in enumerate(tree.classes_):
                k = int(np.searchsorted(self.classes_, cls))
                proba[:, k] += tree_proba[:, j]
        proba /= len(self.estimators_)
        return proba

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated CART regressor (mean of per-tree predictions)."""

    def _make_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        XT = _transposed(X)
        preds = np.zeros(XT.shape[1])
        for tree in self.estimators_:
            preds += tree._leaf_values(XT)[:, 0]
        return preds / len(self.estimators_)

    def score(self, X, y) -> float:
        """Coefficient of determination (R^2)."""
        y = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot
