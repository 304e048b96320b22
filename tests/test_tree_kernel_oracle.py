"""Every tree-ensemble predict path against an obviously-correct oracle.

The oracle is a plain recursive walk over the fitted ``TreeNode`` tree,
one row at a time, with the ensembles' summation written out in the same
order as the models sum.  Each predict path -- single trees, both forests
and gradient boosting (``predict`` and ``staged_predict``) -- must agree
with it bit for bit, on query rows that sit exactly on split thresholds or
one ulp beside them, NaN, +-inf, signed zeros and arbitrary floats, on
empty queries, on a single-leaf tree and on an unbalanced tree with more
than 64 leaves.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor, QuantileGradientBoostingRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


# -- the oracle ---------------------------------------------------------------------
def reached_leaf(node, row):
    if node.is_leaf:
        return node
    child = node.left if row[node.feature] <= node.threshold else node.right
    return reached_leaf(child, row)


def oracle_values(tree, X):
    width = np.asarray(tree.root_.value).shape[0]
    out = np.empty((X.shape[0], width))
    for i, row in enumerate(X):
        out[i] = reached_leaf(tree.root_, row).value
    return out


def oracle_forest_proba(forest, X):
    proba = np.zeros((X.shape[0], forest.n_classes_))
    for tree in forest.estimators_:
        tree_proba = oracle_values(tree, X)
        for j, cls in enumerate(tree.classes_):
            k = int(np.searchsorted(forest.classes_, cls))
            proba[:, k] += tree_proba[:, j]
    proba /= len(forest.estimators_)
    return proba


def oracle_forest_regression(forest, X):
    preds = np.zeros(X.shape[0])
    for tree in forest.estimators_:
        preds += oracle_values(tree, X)[:, 0]
    return preds / len(forest.estimators_)


def oracle_gbm_stages(gbm, X):
    pred = np.full(X.shape[0], gbm.init_)
    stages = []
    for tree in gbm.estimators_:
        pred = pred + gbm.learning_rate * oracle_values(tree, X)[:, 0]
        stages.append(pred.copy())
    return stages


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


# -- fitted models --------------------------------------------------------------------
N_FEATURES = 3


def leaf_count(node):
    return 1 if node.is_leaf else leaf_count(node.left) + leaf_count(node.right)


@functools.lru_cache(maxsize=None)
def models():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(240, N_FEATURES))
    X[:, 2] = np.round(X[:, 2], 1)  # ties, so thresholds repeat in the data
    labels = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    target = X[:, 0] ** 2 + np.sin(3 * X[:, 1]) + 0.1 * rng.normal(size=240)
    # Exponential targets along one column grow a comb: the best variance
    # split keeps peeling the largest values off, one leaf at a time.
    comb_X = np.c_[np.arange(200.0), rng.random(200), rng.random(200)]
    comb_y = 2.0 ** (np.arange(200) / 8)
    built = {
        "tree_clf": DecisionTreeClassifier(max_depth=6, random_state=1).fit(X, labels),
        "tree_reg": DecisionTreeRegressor(max_depth=7, random_state=1).fit(X, target),
        "leaf_clf": DecisionTreeClassifier().fit(X, np.zeros(240, dtype=int)),
        "leaf_reg": DecisionTreeRegressor().fit(X, np.full(240, 1.5)),
        "comb_reg": DecisionTreeRegressor().fit(comb_X, comb_y),
        "forest_clf": RandomForestClassifier(
            n_estimators=6, max_depth=6, random_state=2).fit(X, labels),
        "forest_reg": RandomForestRegressor(
            n_estimators=5, max_depth=8, random_state=3).fit(X, target),
        "gbm": GradientBoostingRegressor(
            n_estimators=6, max_depth=3, subsample=0.7, random_state=4).fit(X, target),
        "quantile_gbm": QuantileGradientBoostingRegressor(
            alpha=0.2, n_estimators=5, max_depth=12, random_state=5,
        ).fit(comb_X, comb_y),
    }
    comb = built["comb_reg"]
    assert leaf_count(comb.root_) > 64
    assert comb.depth() > 8  # deeper than a balanced tree with that many leaves
    assert built["leaf_clf"].root_.is_leaf and built["leaf_reg"].root_.is_leaf
    return built


def trees_of(model):
    return getattr(model, "estimators_", [model])


def special_values(model):
    """Every split threshold, one ulp either side, and the IEEE specials."""
    values = {0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308}
    for tree in trees_of(model):
        stack = [tree.root_]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                t = node.threshold
                values.update({t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)})
                stack.extend((node.left, node.right))
    return sorted(values, key=repr)


def check_against_oracle(name, X):
    model = models()[name]
    if isinstance(model, DecisionTreeClassifier):
        proba = oracle_values(model, X)
        assert same(model.predict_proba(X), proba)
        assert same(model.predict(X), model.classes_[np.argmax(proba, axis=1)])
    elif isinstance(model, DecisionTreeRegressor):
        assert same(model.predict(X), oracle_values(model, X)[:, 0])
    elif isinstance(model, RandomForestClassifier):
        proba = oracle_forest_proba(model, X)
        assert same(model.predict_proba(X), proba)
        assert same(model.predict(X), model.classes_[np.argmax(proba, axis=1)])
    elif isinstance(model, RandomForestRegressor):
        assert same(model.predict(X), oracle_forest_regression(model, X))
    else:
        stages = oracle_gbm_stages(model, X)
        assert same(model.predict(X), stages[-1])
        staged = list(model.staged_predict(X))
        assert len(staged) == len(stages)
        assert all(same(a, b) for a, b in zip(staged, stages))


MODEL_NAMES = ["tree_clf", "tree_reg", "leaf_clf", "leaf_reg", "comb_reg",
               "forest_clf", "forest_reg", "gbm", "quantile_gbm"]


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_paths_match_oracle(name, data):
    cell = st.one_of(
        st.sampled_from(special_values(models()[name])),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    rows = data.draw(st.lists(
        st.lists(cell, min_size=N_FEATURES, max_size=N_FEATURES), max_size=24))
    X = np.array(rows, dtype=float).reshape(len(rows), N_FEATURES)
    check_against_oracle(name, X)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_rows_on_every_threshold_and_empty_queries(name):
    values = np.array(special_values(models()[name]))
    # Every special value in every column, with the other columns cycling
    # through the same list, so each split sees each value.
    X = np.stack([np.roll(values, k) for k in range(N_FEATURES)], axis=1)
    check_against_oracle(name, X)
    check_against_oracle(name, np.empty((0, N_FEATURES)))


ENSEMBLE_PATHS = {
    "forest_clf.predict_proba": lambda m, X: m["forest_clf"].predict_proba(X),
    "forest_reg.predict": lambda m, X: m["forest_reg"].predict(X),
    "gbm.predict": lambda m, X: m["gbm"].predict(X),
    "gbm.staged_predict": lambda m, X: list(m["gbm"].staged_predict(X)),
}


@pytest.mark.parametrize("path", sorted(ENSEMBLE_PATHS))
def test_ensembles_reject_bad_inputs(path):
    predict = ENSEMBLE_PATHS[path]
    with pytest.raises(ValueError, match=f"expected {N_FEATURES}"):
        predict(models(), np.zeros((4, N_FEATURES + 1)))
    with pytest.raises(ValueError, match="2-D"):
        predict(models(), np.zeros(N_FEATURES))
