"""Golden digests of the trained prediction policy and its outputs.

``PredictionPolicy`` drives the GBM (zNUMA sizing) and the random forest
(fully pool-backed VMs and the QoS monitor's slowdown estimate).  Its
training and predictions must stay byte-identical when the tree kernels
are reworked: every online perfbench digest and online fixture is
downstream of them.  This file pins the sha256 of the trained models' leaf
values (preorder, with the split that leads to them), of ``decide_batch``'s
output and stats, and of ``predict_slowdown_batch`` on a generated trace and
on one streamed chunk.  A digest here moves only when a model or a
prediction does.
"""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import PredictionPolicy

GOLDEN = {
    "gbm_leaves":
        "1c1269eb0f6b360a0b025b6dae2d0541ad5580e2eee6fe59197bd00fe0eb2405",
    "forest_leaves":
        "a8dcfa2e39915840d2ec6d3c8e9ba300e21398c312d5e56ca5608ebb4c10dec8",
    "decide_pool_gb":
        "6c0e0cba3f27739d85962d8ffeda499ea815d07c1d4cd64f40e10f100adc76e8",
    "decide_stats":
        "9a3ad3b47f646e9ea2827b7d14b1ede6c2c7282672ee1d085e081ca5d34120e6",
    "slowdown_trace":
        "5f9c5225490c09f019dfb1124c9923b2f97accc596c32197a70cf2f1ff1c517f",
    "slowdown_chunk":
        "593914f005c170c7ecc05d4c135394d3c206f7b0d0ecf0dc4dc97e0099ac8e2a",
}

TRACE_CONFIG = TraceGenConfig(n_servers=12, duration_days=1.0, seed=5)
CHUNK_SIZE = 500


def tree_digest(h, tree):
    """Feed a tree's preorder (split, value) sequence into ``h``."""
    stack = [tree.root_]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            h.update(b"L" + np.asarray(node.value, dtype=float).tobytes())
        else:
            h.update(f"N{node.feature}:{node.threshold!r};".encode())
            stack.append(node.right)
            stack.append(node.left)


def array_digest(values):
    values = np.ascontiguousarray(values)
    return hashlib.sha256(
        f"{values.dtype.str}{values.shape}".encode() + values.tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def trained():
    return PredictionPolicy.train(seed=3)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(TRACE_CONFIG).generate_bulk()


@pytest.fixture(scope="module")
def decided(trained, trace):
    policy = PredictionPolicy(trained.untouched_model, trained.latency_model)
    pool_gb = policy.decide_batch(trace)
    return pool_gb, policy.stats


def test_gbm_leaves_match_golden(trained):
    gbm = trained.untouched_model.gbm
    h = hashlib.sha256(f"init={gbm.init_!r};".encode())
    for tree in gbm.estimators_:
        tree_digest(h, tree)
    assert h.hexdigest() == GOLDEN["gbm_leaves"]


def test_forest_leaves_match_golden(trained):
    model = trained.latency_model
    h = hashlib.sha256(f"threshold={model.threshold_!r};".encode())
    for tree in model.forest.estimators_:
        h.update(f"classes={tree.classes_.tolist()!r};".encode())
        tree_digest(h, tree)
    assert h.hexdigest() == GOLDEN["forest_leaves"]


def test_decide_batch_matches_golden(decided):
    pool_gb, stats = decided
    assert array_digest(pool_gb) == GOLDEN["decide_pool_gb"]
    stats_repr = repr(astuple(stats)).encode()
    assert hashlib.sha256(stats_repr).hexdigest() == GOLDEN["decide_stats"]


def test_slowdown_on_trace_matches_golden(trained, trace, decided):
    pool_gb, _ = decided
    slowdown = trained.predict_slowdown_batch(trace, pool_gb)
    assert array_digest(slowdown) == GOLDEN["slowdown_trace"]


def test_slowdown_on_stream_chunk_matches_golden(trained):
    chunk = next(iter(TraceGenerator(TRACE_CONFIG).stream(CHUNK_SIZE).chunks()))
    assert len(chunk) == CHUNK_SIZE
    policy = PredictionPolicy(trained.untouched_model, trained.latency_model)
    pool_gb = policy.decide_batch(chunk)
    slowdown = trained.predict_slowdown_batch(chunk, pool_gb)
    assert array_digest(slowdown) == GOLDEN["slowdown_chunk"]
