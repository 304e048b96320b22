"""Gradient-boosted regression trees, including quantile (pinball) regression.

The paper's untouched-memory model is a "gradient boosted regression model
(GBM) from LightGBM [that] makes a quantile regression prediction with a
configurable target percentile" (Section 5).  This module implements the
required functionality directly:

* :class:`GradientBoostingRegressor` -- standard least-squares boosting with
  shrinkage and optional row subsampling.
* :class:`QuantileGradientBoostingRegressor` -- boosting on the pinball loss.
  Each stage fits a regression tree to the loss gradient and then re-labels
  the leaves with the in-leaf residual quantile, the same leaf-refinement
  LightGBM performs for quantile objectives.  Predicting a *low* quantile of
  untouched memory (e.g. the 10th percentile) is exactly how Pond keeps its
  overprediction rate below the configured target.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.tree import DecisionTreeRegressor, _transposed

__all__ = ["GradientBoostingRegressor", "QuantileGradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting with shrinkage and subsampling."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.estimators_: list = []
        self.init_: float = 0.0

    # -- loss hooks ----------------------------------------------------------
    def _initial_prediction(self, y: np.ndarray) -> float:
        return float(np.mean(y))

    def _negative_gradient(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        return y - pred

    def _leaf_update(self, residuals: np.ndarray) -> float:
        return float(np.mean(residuals))

    # -- training ------------------------------------------------------------
    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        XT = _transposed(X)
        rng = np.random.default_rng(self.random_state)
        self.init_ = self._initial_prediction(y)
        pred = np.full(y.shape, self.init_)
        self.estimators_ = []
        n = X.shape[0]
        for _ in range(self.n_estimators):
            grad = self._negative_gradient(y, pred)
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                idx = rng.choice(n, size=m, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], grad[idx])
            # Re-label leaves with the loss-specific optimal update computed on
            # the *true* residuals (LightGBM-style leaf refinement), in the
            # tree and in its flattened form alike.
            flat = tree._flattened()
            leaf_of_row = tree._leaf_index(XT)
            residual = y - pred
            for i, node in enumerate(flat.nodes):
                if node.is_leaf:
                    mask = leaf_of_row == i
                    if mask.any():
                        node.value = np.array([self._leaf_update(residual[mask])])
                        flat.values[i] = node.value
            update = flat.values[leaf_of_row, 0]
            pred = pred + self.learning_rate * update
            self.estimators_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("this model has not been fitted yet")
        XT = _transposed(X)
        pred = np.full(XT.shape[1], self.init_)
        for tree in self.estimators_:
            pred = pred + self.learning_rate * tree._leaf_values(XT)[:, 0]
        return pred

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (for learning curves)."""
        if not self.estimators_:
            raise RuntimeError("this model has not been fitted yet")
        XT = _transposed(X)
        pred = np.full(XT.shape[1], self.init_)
        for tree in self.estimators_:
            pred = pred + self.learning_rate * tree._leaf_values(XT)[:, 0]
            yield pred.copy()


class QuantileGradientBoostingRegressor(GradientBoostingRegressor):
    """Gradient boosting on the pinball loss for a configurable quantile.

    ``alpha`` is the target quantile in (0, 1).  Pond uses a low quantile
    (e.g. 0.05-0.20) so that the predicted untouched memory is *exceeded* by
    the true untouched memory for most VMs, keeping overpredictions rare.
    """

    def __init__(
        self,
        alpha: float = 0.1,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        super().__init__(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            subsample=subsample,
            random_state=random_state,
        )
        self.alpha = alpha

    def _initial_prediction(self, y: np.ndarray) -> float:
        return float(np.quantile(y, self.alpha))

    def _negative_gradient(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        # Negative gradient of the pinball loss: alpha where under-predicted,
        # alpha - 1 where over-predicted.
        return np.where(y > pred, self.alpha, self.alpha - 1.0)

    def _leaf_update(self, residuals: np.ndarray) -> float:
        return float(np.quantile(residuals, self.alpha))
