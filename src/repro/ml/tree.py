"""CART decision trees (classification and regression).

These trees are the building blocks for the random forest used by Pond's
latency-insensitivity model and for the gradient-boosted regressor used by the
untouched-memory model.  They implement the classic CART algorithm:

* binary splits on a single feature threshold,
* greedy selection of the split that maximises impurity reduction
  (Gini impurity for classification, variance for regression),
* optional feature subsampling at every split (``max_features``), which is the
  ingredient random forests rely on for decorrelation.

The implementation is vectorised with numpy where it matters (candidate-split
scanning is done on sorted columns with cumulative statistics) so that the
test-suite and the benchmark harness run in seconds, not minutes.

Prediction runs through one kernel, :meth:`_BaseDecisionTree._leaf_index`,
which every tree, forest and boosting predict path shares.  It walks the
flattened tree node by node and carries a boolean *reach mask* per node:
an internal node compares one contiguous row of the transposed feature
matrix against its threshold, its left child's reach is ``go_left & reach``
and its right child's is the rest of ``reach``; a leaf stamps its index
into the rows it reaches.  Every node applies the same ``x[feature] <=
threshold`` test as a row-by-row walk of :class:`TreeNode`, so every row
reaches the same leaf bit for bit -- NaN compares false and goes right,
``-inf`` goes left, ``+inf`` right.  Its cost scales with the node count
times the row count, with one compare and two boolean ops per internal
node, instead of depth times row count gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "TreeNode",
]


@dataclass
class TreeNode:
    """A single node of a fitted CART tree.

    Leaves have ``feature is None``; internal nodes route samples with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    ``value`` holds the class-probability vector (classification) or the mean
    target (regression) of the training samples that reached the node.
    """

    value: np.ndarray
    n_samples: int
    impurity: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()

    def max_depth(self) -> int:
        if self.is_leaf:
            return self.depth
        return max(self.left.max_depth(), self.right.max_depth())


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate the ``max_features`` option into an integer column count."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)) if n_features > 1 else 1)
        raise ValueError(f"unknown max_features option: {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(round(max_features * n_features)))
    value = int(max_features)
    if value < 1:
        raise ValueError("max_features must be >= 1")
    return min(value, n_features)


class _FlatTree(NamedTuple):
    """A fitted tree in preorder arrays (see ``_flattened``)."""

    feature: List[int]  # split feature per node, -1 at leaves
    threshold: List[float]
    left: List[int]
    right: List[int]
    values: np.ndarray  # node value per node, one row each
    nodes: List[TreeNode]


def _transposed(X) -> np.ndarray:
    """Validated feature matrix as the kernel reads it: one row per feature.

    Ensembles transpose once per predict call and hand the result to every
    tree's :meth:`_BaseDecisionTree._leaf_index`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D array")
    return np.ascontiguousarray(X.T)


class _BaseDecisionTree:
    """Shared fitting machinery for classification and regression trees."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: Optional[int] = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: Optional[TreeNode] = None
        self.n_features_: Optional[int] = None
        self._flat = None

    # -- subclass hooks -----------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _best_split_for_feature(self, x_col, y, min_leaf):
        raise NotImplementedError

    # -- fitting ------------------------------------------------------------
    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._prepare_targets(y)
        self.root_ = self._grow(X, self._encoded_y, depth=0)
        self._flat = None
        return self

    def _prepare_targets(self, y: np.ndarray) -> None:
        """Subclasses encode targets (e.g. class labels to indices) here."""
        self._encoded_y = np.asarray(y, dtype=float)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            value=self._leaf_value(y),
            n_samples=len(y),
            impurity=self._impurity(y),
            depth=depth,
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(y) < self.min_samples_split
            or node.impurity <= 1e-12
        ):
            return node

        n_candidates = _resolve_max_features(self.max_features, self.n_features_)
        if n_candidates < self.n_features_:
            features = self._rng.choice(self.n_features_, size=n_candidates, replace=False)
        else:
            features = np.arange(self.n_features_)

        best_gain = 0.0
        best_feature = None
        best_threshold = 0.0
        parent_impurity = node.impurity
        n = len(y)
        for feature in features:
            gain, threshold = self._best_split_for_feature(
                X[:, feature], y, self.min_samples_leaf
            )
            if gain is None:
                continue
            improvement = parent_impurity - gain
            if improvement > best_gain + 1e-12:
                best_gain = improvement
                best_feature = int(feature)
                best_threshold = float(threshold)

        if best_feature is None:
            return node

        mask = X[:, best_feature] <= best_threshold
        if mask.sum() < self.min_samples_leaf or (n - mask.sum()) < self.min_samples_leaf:
            return node

        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    # -- pickling -----------------------------------------------------------
    def __getstate__(self):
        """Pickle only the model's value, never fit/predict scratch state.

        ``_flat`` (lazy prediction cache), ``_rng`` and ``_encoded_y``
        (fit-time scratch) are derivable or dead weight, and keeping them
        would make two pickles of the same trained tree differ -- e.g.
        before and after the first vectorised predict -- which breaks the
        value-based probe-memo fingerprints built on pickled model state.
        """
        state = {k: v for k, v in self.__dict__.items()
                 if k not in ("_rng", "_encoded_y")}
        state["_flat"] = None
        return state

    # -- prediction ---------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.root_ is None:
            raise RuntimeError("this tree has not been fitted yet")

    def _flattened(self) -> "_FlatTree":
        """Array form of the fitted tree for the prediction kernel.

        Built lazily at first predict and invalidated by refitting; the
        GBM's leaf refinement rewrites ``values`` and the leaf nodes
        together.  Nodes are numbered in preorder (left subtree first) as
        the walk visits them: a node's left child is the next index, and
        its right child's index is filled in when the walk reaches it.
        """
        flat = self._flat
        if flat is not None:
            return flat
        nodes: list = []
        feature: list = []
        threshold: list = []
        left: list = []
        right: list = []
        stack = [(self.root_, -1)]  # (node, index of the parent it is right of)
        while stack:
            node, right_of = stack.pop()
            i = len(nodes)
            nodes.append(node)
            if right_of >= 0:
                right[right_of] = i
            right.append(0)
            if node.is_leaf:
                feature.append(-1)
                threshold.append(0.0)
                left.append(0)
            else:
                feature.append(int(node.feature))
                threshold.append(float(node.threshold))
                left.append(i + 1)
                stack.append((node.right, i))
                stack.append((node.left, -1))
        values = np.array([node.value for node in nodes], dtype=float)
        self._flat = _FlatTree(feature, threshold, left, right, values, nodes)
        return self._flat

    def _leaf_index(self, XT: np.ndarray) -> np.ndarray:
        """Flat index of the leaf each sample reaches: the prediction kernel.

        ``XT`` is the transposed, C-contiguous feature matrix (one row per
        feature, one column per sample; see :func:`_transposed`), so each
        split reads one contiguous row.  The walk is depth first with one
        reach mask per pending node: an internal node computes ``go_left =
        XT[feature] <= threshold``, hands ``go_left & reach`` to its left
        child and ``reach ^ left`` to its right child, and a leaf stamps its
        index into the samples its reach covers.  Being the same ``<=`` per
        node as a nodewise walk, the result is identical bit for bit, NaN
        included (it compares false, so it goes right).  Cost: one compare
        and two boolean ops per internal node and one multiply-add per
        leaf, each over all samples -- node count times samples, whatever
        the tree's shape or depth.
        """
        self._check_fitted()
        if XT.shape[0] != self.n_features_:
            raise ValueError(
                f"X has {XT.shape[0]} features, expected {self.n_features_}"
            )
        feature, threshold, left, right, _, _ = self._flattened()
        leaf = np.zeros(XT.shape[1], dtype=np.int32)
        if feature[0] < 0:
            return leaf
        stamp = np.empty_like(leaf)
        stack = [(0, None)]  # the root's reach is every sample
        while stack:
            node, reach = stack.pop()
            f = feature[node]
            if f < 0:
                # Leaf reaches partition the samples, so adding ``node *
                # reach`` stamps the index; on a dense, scattered mask this
                # is several times faster than a masked ``np.copyto``.
                np.multiply(reach, node, out=stamp, dtype=np.int32)
                np.add(leaf, stamp, out=leaf)
                continue
            go_left = XT[f] <= threshold[node]
            if reach is None:
                go_right = ~go_left
            else:
                np.logical_and(go_left, reach, out=go_left)
                # ``reach`` belongs to this node alone, so the right
                # child's mask can reuse its buffer.
                go_right = np.logical_xor(reach, go_left, out=reach)
            stack.append((right[node], go_right))
            stack.append((left[node], go_left))
        return leaf

    def _leaf_values(self, XT: np.ndarray) -> np.ndarray:
        """Value of the reached leaf per sample of a transposed matrix."""
        # ``np.take`` is the same gather as ``values[leaf]``, minus the
        # generic fancy-index machinery (several times faster on 2-D).
        return np.take(self._flattened().values, self._leaf_index(XT), axis=0)

    def _node_values(self, X) -> np.ndarray:
        self._check_fitted()
        return self._leaf_values(_transposed(X))

    # -- introspection ------------------------------------------------------
    def node_count(self) -> int:
        self._check_fitted()
        return self.root_.node_count()

    def depth(self) -> int:
        self._check_fitted()
        return self.root_.max_depth()


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier using Gini impurity.

    Supports an arbitrary set of class labels; ``predict_proba`` returns the
    class frequency of the reached leaf which is the standard behaviour needed
    by the random forest's soft voting.
    """

    def _prepare_targets(self, y: np.ndarray) -> None:
        classes, encoded = np.unique(y, return_inverse=True)
        self.classes_ = classes
        self.n_classes_ = len(classes)
        self._encoded_y = encoded.astype(int)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(int), minlength=self.n_classes_)
        return counts / counts.sum()

    def _impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y.astype(int), minlength=self.n_classes_)
        p = counts / counts.sum()
        return float(1.0 - np.sum(p * p))

    def _best_split_for_feature(self, x_col, y, min_leaf):
        """Return (weighted child Gini, threshold) of the best split, or (None, None)."""
        order = np.argsort(x_col, kind="mergesort")
        xs = x_col[order]
        ys = y[order].astype(int)
        n = len(ys)
        if xs[0] == xs[-1]:
            return None, None

        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        total = left_counts[-1]

        # Candidate split after position i (1-indexed prefix length).
        sizes_left = np.arange(1, n, dtype=float)
        sizes_right = n - sizes_left
        valid = (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        # Cannot split between identical feature values.
        valid &= xs[1:] > xs[:-1]
        if not valid.any():
            return None, None

        lc = left_counts[:-1]
        rc = total - lc
        gini_left = 1.0 - np.sum((lc / sizes_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((rc / sizes_right[:, None]) ** 2, axis=1)
        weighted = (sizes_left * gini_left + sizes_right * gini_right) / n
        weighted[~valid] = np.inf
        best = int(np.argmin(weighted))
        if not np.isfinite(weighted[best]):
            return None, None
        threshold = (xs[best] + xs[best + 1]) / 2.0
        return float(weighted[best]), float(threshold)

    def predict_proba(self, X) -> np.ndarray:
        return self._node_values(X)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor using variance reduction (equivalent to MSE splitting)."""

    def _prepare_targets(self, y: np.ndarray) -> None:
        self._encoded_y = np.asarray(y, dtype=float)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([float(np.mean(y))])

    def _impurity(self, y: np.ndarray) -> float:
        return float(np.var(y))

    def _best_split_for_feature(self, x_col, y, min_leaf):
        """Return (weighted child variance, threshold) of the best split."""
        order = np.argsort(x_col, kind="mergesort")
        xs = x_col[order]
        ys = y[order]
        n = len(ys)
        if xs[0] == xs[-1]:
            return None, None

        cumsum = np.cumsum(ys)
        cumsum_sq = np.cumsum(ys * ys)
        total = cumsum[-1]
        total_sq = cumsum_sq[-1]

        sizes_left = np.arange(1, n, dtype=float)
        sizes_right = n - sizes_left
        valid = (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        valid &= xs[1:] > xs[:-1]
        if not valid.any():
            return None, None

        sum_l = cumsum[:-1]
        sumsq_l = cumsum_sq[:-1]
        sum_r = total - sum_l
        sumsq_r = total_sq - sumsq_l
        var_l = sumsq_l / sizes_left - (sum_l / sizes_left) ** 2
        var_r = sumsq_r / sizes_right - (sum_r / sizes_right) ** 2
        # Guard against tiny negative values from floating-point cancellation.
        var_l = np.maximum(var_l, 0.0)
        var_r = np.maximum(var_r, 0.0)
        weighted = (sizes_left * var_l + sizes_right * var_r) / n
        weighted[~valid] = np.inf
        best = int(np.argmin(weighted))
        if not np.isfinite(weighted[best]):
            return None, None
        threshold = (xs[best] + xs[best + 1]) / 2.0
        return float(weighted[best]), float(threshold)

    def predict(self, X) -> np.ndarray:
        return self._node_values(X)[:, 0]
