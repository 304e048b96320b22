"""Work the online controls do once per block or hook, not once per VM.

* ``PredictionPolicy.predict_slowdown_batch`` reuses the forest scores of
  the block ``decide_batch`` just scored: the estimate must equal a
  never-decided policy's bit for bit, a decide must leave the policy's
  pickle bytes and probe fingerprint alone, and a block with other digests
  must be re-scored.
* ``FaultInjector`` re-clamps degraded pool groups once at the end of
  ``fire_next``/``retry_tick`` when its ladder released pool memory: after
  every such hook each degraded group's ``free_gb`` must read
  ``max(0, capacity - used)``.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    ClusterTrace,
    ServerConfig,
    TraceGenConfig,
    TraceGenerator,
)
from repro.cluster.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.cluster.fleet import _probe_fingerprint
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import PredictionPolicy, StaticFractionPolicy


def make_trace(seed, cluster_id="reuse"):
    cfg = TraceGenConfig(cluster_id=cluster_id, n_servers=8,
                         duration_days=0.3, mean_lifetime_hours=2.0,
                         target_core_utilization=0.85, seed=seed)
    return TraceGenerator(cfg).generate_bulk()


@pytest.fixture(scope="module")
def trained():
    return pickle.dumps(PredictionPolicy.train(seed=3, n_samples=256))


@pytest.fixture(scope="module")
def trace():
    return make_trace(11)


def fresh(trained):
    return pickle.loads(trained)


def pool_shares(trace):
    return np.linspace(0.0, 1.0, len(trace)) * trace.columns().memory_gb


class TestScoreReuse:
    def test_estimate_after_decide_equals_undecided(self, trained, trace):
        decided = fresh(trained)
        decided.decide_batch(trace)
        pool_gb = pool_shares(trace)
        reused = decided.predict_slowdown_batch(trace, pool_gb)
        scored = fresh(trained).predict_slowdown_batch(trace, pool_gb)
        assert reused.tobytes() == scored.tobytes()
        # A second estimate re-scores and still agrees.
        again = decided.predict_slowdown_batch(trace, pool_gb)
        assert again.tobytes() == scored.tobytes()

    def test_decide_leaves_pickle_and_fingerprint(self, trained, trace):
        def decision_state(policy):
            # Everything but the accounting, which every decide adds to.
            return pickle.dumps({k: v for k, v in vars(policy).items()
                                 if k != "stats"})

        policy = fresh(trained)
        state = decision_state(policy)
        fingerprint = _probe_fingerprint(policy)
        policy.decide_batch(trace)
        assert decision_state(policy) == state
        assert _probe_fingerprint(policy) == fingerprint

    def test_other_digests_are_rescored(self, trained, trace):
        # Same length, other VM ids: only the digests differ.
        other = ClusterTrace([replace(r, vm_id=r.vm_id + "-x")
                              for r in trace.records])
        pool_gb = pool_shares(trace)
        policy = fresh(trained)
        policy.decide_batch(trace)
        estimate = policy.predict_slowdown_batch(other, pool_gb)
        expected = fresh(trained).predict_slowdown_batch(other, pool_gb)
        assert estimate.tobytes() == expected.tobytes()
        assert estimate.tobytes() != policy.predict_slowdown_batch(
            trace, pool_gb).tobytes()

    def test_other_model_is_rescored(self, trained, trace):
        policy = fresh(trained)
        policy.decide_batch(trace)
        # Same tag and seed, so the same digests array: only the model
        # differs.
        retrained = PredictionPolicy.train(seed=4, n_samples=256)
        other = fresh(trained)
        other.latency_model = retrained.latency_model
        pool_gb = pool_shares(trace)
        estimate = other.predict_slowdown_batch(trace, pool_gb)
        expected = retrained.predict_slowdown_batch(trace, pool_gb)
        assert estimate.tobytes() == expected.tobytes()


class TestOncePerHookReclamp:
    """A constrained replay whose failures run the whole ladder, at fault
    events and at retry ticks."""

    def replay(self, monkeypatch):
        released = {"fire_next": 0, "retry_tick": 0}

        def moved(injector):
            return sum(s.vms_migrated_local + s.vms_live_migrated
                       + s.vms_killed for s in injector.stats)

        def spy(name):
            original = getattr(FaultInjector, name)

            def hook(injector, *args):
                before = moved(injector)
                original(injector, *args)
                if moved(injector) == before:
                    return
                released[name] += 1
                ledger = injector.ledger
                for group in ledger.degraded_groups:
                    room = ledger.capacity_gb[group] - ledger.used_gb[group]
                    assert ledger.free_gb[group] == (
                        room if room > 0.0 else 0.0), (name, group)
            monkeypatch.setattr(FaultInjector, name, hook)

        spy("fire_next")
        spy("retry_tick")
        srv = ServerConfig(name="tight", sockets=2, cores_per_socket=24,
                           dram_per_socket_gb=48.0)
        cfg = TraceGenConfig(n_servers=12, duration_days=1.0,
                             mean_lifetime_hours=6.0,
                             target_core_utilization=0.95, seed=13,
                             server_config=srv)
        sim = ClusterSimulator(n_servers=12, server_config=srv,
                               pool_size_sockets=8,
                               pool_capacity_gb_per_group=500.0,
                               constrain_memory=True,
                               sample_interval_s=3600.0)
        result = sim.run(
            TraceGenerator(cfg).generate(),
            StaticFractionPolicy(fraction=0.6),
            online=OnlineControlConfig(qos_threshold_percent=50.0),
            faults=FaultSchedule([FaultEvent(30000.0, "fail", 0, 0.5),
                                  FaultEvent(33000.0, "fail", 1)],
                                 migration_retry_budget=4))
        return result, released

    def test_degraded_free_is_clamped_after_every_releasing_hook(
            self, monkeypatch):
        result, released = self.replay(monkeypatch)
        stats = result.fault_stats
        assert stats.vms_migrated_local and stats.vms_live_migrated
        # Both hooks released memory at least once, so both were checked.
        assert released["fire_next"] > 0
        assert released["retry_tick"] > 0
