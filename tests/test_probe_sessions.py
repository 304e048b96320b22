"""Reusable probe sessions: reuse, invalidation, and lifecycle.

``FleetSimulator.capacity_search`` runs its probes on one session that
lives across calls (one worker pool, one shipped trace per input set);
``PoolDimensioner.evaluate_capacity_search`` is a call on a one-shard
fleet the dimensioner keeps.  The contracts tested here:

* reused sessions return ``PoolSavings`` identical to fresh-executor runs;
* sessions are invalidated when the trace/input set or the owner's
  configuration changes;
* pools shut down on every exception path, ``close()`` is idempotent, and
  the context-manager protocol closes on exit.
"""

import pytest

from repro.cluster.fleet import FleetSimulator, static_policy_factory
from repro.cluster.pool import FixedFractionPolicy, PoolDimensioner
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator

N_SERVERS = 6


@pytest.fixture(scope="module")
def trace():
    cfg = TraceGenConfig(cluster_id="sess", n_servers=N_SERVERS,
                         duration_days=0.3, mean_lifetime_hours=2.0,
                         target_core_utilization=0.85, seed=11)
    return TraceGenerator(cfg).generate_bulk()


def fleet_config(**kwargs):
    defaults = dict(cluster_id="sess-fleet", n_servers=4, duration_days=0.25,
                    mean_lifetime_hours=2.0, target_core_utilization=0.85,
                    seed=9)
    defaults.update(kwargs)
    return TraceGenConfig(**defaults)


class BoomPolicy:
    """Policy whose batch path always fails (exception-path probe)."""

    def __call__(self, record):
        raise RuntimeError("boom")

    def decide_batch(self, trace):
        raise RuntimeError("boom")


class TestDimensionerSession:
    def test_sequential_session_reused_across_grid(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        policy = FixedFractionPolicy(0.3)
        first = dim.evaluate_capacity_search(trace, 4, policy)
        session = dim._fleet._probe_session
        assert session is not None and not session.parallel
        second = dim.evaluate_capacity_search(trace, 8, policy)
        assert dim._fleet._probe_session is session
        # Fresh dimensioners (fresh sessions) agree exactly.
        fresh = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        assert first == fresh.evaluate_capacity_search(trace, 4,
                                                       FixedFractionPolicy(0.3))
        fresh2 = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        assert second == fresh2.evaluate_capacity_search(
            trace, 8, FixedFractionPolicy(0.3)
        )

    def test_parallel_session_reused_and_identical(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=3,
                              max_workers=2)
        policy = FixedFractionPolicy(0.3)
        with dim:
            first = dim.evaluate_capacity_search(trace, 4, policy)
            session = dim._fleet._probe_session
            assert session is not None and session.parallel
            # Same session across pool sizes *and* across policies (the
            # policy ships with each probe task, not with the executor).
            second = dim.evaluate_capacity_search(trace, 8, policy)
            third = dim.evaluate_capacity_search(trace, 4,
                                                 FixedFractionPolicy(0.15))
            assert dim._fleet._probe_session is session
        assert dim._fleet is None  # context manager closed it
        sequential = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        assert first == sequential.evaluate_capacity_search(
            trace, 4, FixedFractionPolicy(0.3)
        )
        assert second == sequential.evaluate_capacity_search(
            trace, 8, FixedFractionPolicy(0.3)
        )
        assert third == sequential.evaluate_capacity_search(
            trace, 4, FixedFractionPolicy(0.15)
        )

    def test_new_trace_invalidates_session(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        session = dim._fleet._probe_session
        other = TraceGenerator(TraceGenConfig(
            cluster_id="other", n_servers=N_SERVERS, duration_days=0.2,
            seed=5,
        )).generate_bulk()
        dim.evaluate_capacity_search(other, 4, FixedFractionPolicy(0.2))
        assert dim._fleet._probe_session is not session
        assert dim._fleet._capacity_cache_key[0] is other

    def test_config_change_invalidates_memoised_outcomes(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        loose = dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        session = dim._fleet._probe_session
        # A config change must not let stale memoised outcomes answer for a
        # different cluster shape.
        dim.sample_interval_s = 1800.0
        dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        assert dim._fleet._probe_session is not session
        assert dim._fleet.sample_interval_s == 1800.0
        # Sanity: the searches agree with fresh dimensioners at each config.
        fresh = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        assert loose == fresh.evaluate_capacity_search(
            trace, 4, FixedFractionPolicy(0.2)
        )

    @pytest.mark.parametrize("knob, value, baseline_gb", [
        ("search_steps", 6, 1548.0),
        ("rejection_tolerance", 0.05, 1152.0),
        ("n_servers", 5, 1440.0),
    ])
    def test_knob_change_refreshes_baseline(self, trace, knob, value,
                                            baseline_gb):
        """A knob changed between searches must not serve the baseline
        memoised under the old value."""
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        first = dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        assert first.baseline_dram_gb == 1728.0
        setattr(dim, knob, value)
        got = dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        fresh = PoolDimensioner(**{"n_servers": N_SERVERS, "search_steps": 2,
                                   knob: value})
        assert got == fresh.evaluate_capacity_search(
            trace, 4, FixedFractionPolicy(0.2))
        assert got.baseline_dram_gb == baseline_gb

    def test_inplace_policy_mutation_invalidates_memos(self, trace):
        """Memo keys are value-based: mutating a policy must not serve the
        pre-mutation outcome from a reused session."""
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        policy = FixedFractionPolicy(0.3)
        before = dim.evaluate_capacity_search(trace, 4, policy)
        policy.fraction = 0.05
        after = dim.evaluate_capacity_search(trace, 4, policy)
        fresh = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        expected = fresh.evaluate_capacity_search(trace, 4,
                                                  FixedFractionPolicy(0.05))
        assert after == expected
        assert after.average_pool_fraction != before.average_pool_fraction

    def test_inplace_mutation_parallel_session(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=3,
                              max_workers=2)
        with dim:
            policy = FixedFractionPolicy(0.3)
            dim.evaluate_capacity_search(trace, 4, policy)
            policy.fraction = 0.05
            after = dim.evaluate_capacity_search(trace, 4, policy)
        fresh = PoolDimensioner(n_servers=N_SERVERS, search_steps=3)
        assert after == fresh.evaluate_capacity_search(
            trace, 4, FixedFractionPolicy(0.05)
        )

    def test_exception_closes_session(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        with pytest.raises(RuntimeError, match="boom"):
            dim.evaluate_capacity_search(trace, 4, BoomPolicy())
        assert dim._fleet._probe_session is None

    def test_close_is_idempotent(self, trace):
        dim = PoolDimensioner(n_servers=N_SERVERS, search_steps=2)
        dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        dim.close()
        dim.close()
        assert dim._fleet is None
        # Still usable after close: a fresh session is built lazily.
        result = dim.evaluate_capacity_search(trace, 4, FixedFractionPolicy(0.2))
        assert result.pool_size_sockets == 4


class TestFleetSession:
    def test_parallel_session_reused_and_identical(self):
        factory = static_policy_factory(fraction=0.25, seed=1)
        sequential = FleetSimulator.sharded(2, fleet_config(),
                                            pool_size_sockets=4)
        traces = sequential.generate_traces()
        ref4 = sequential.capacity_search(factory, traces=traces,
                                          search_steps=3)
        ref2 = sequential.capacity_search(factory, traces=traces,
                                          search_steps=3, pool_size_sockets=2)

        with FleetSimulator.sharded(2, fleet_config(), pool_size_sockets=4,
                                    max_workers=2) as fleet:
            got4 = fleet.capacity_search(factory, traces=traces,
                                         search_steps=3)
            session = fleet._probe_session
            assert session is not None
            got2 = fleet.capacity_search(factory, traces=traces,
                                         search_steps=3, pool_size_sockets=2)
            assert fleet._probe_session is session
            # A different policy factory reuses the session too.
            other = fleet.capacity_search(
                static_policy_factory(fraction=0.1, seed=2),
                traces=traces, search_steps=3,
            )
            assert fleet._probe_session is session
        assert got4.savings == ref4.savings
        assert got2.savings == ref2.savings
        assert other.savings == sequential.capacity_search(
            static_policy_factory(fraction=0.1, seed=2),
            traces=traces, search_steps=3,
        ).savings

    def test_new_traces_invalidate_session_and_inputs(self):
        factory = static_policy_factory(fraction=0.25, seed=1)
        fleet = FleetSimulator.sharded(2, fleet_config(), pool_size_sockets=4,
                                       max_workers=2)
        traces = fleet.generate_traces()
        fleet.capacity_search(factory, traces=traces, search_steps=2)
        session = fleet._probe_session
        inputs = fleet._capacity_inputs
        assert inputs is not None
        other = fleet.generate_traces()
        fleet.capacity_search(factory, traces=other, search_steps=2)
        assert fleet._probe_session is not session
        assert fleet._capacity_inputs is not inputs
        fleet.close()

    def test_exception_closes_fleet_session(self):
        def boom_factory(shard_index):
            return BoomPolicy()

        fleet = FleetSimulator.sharded(2, fleet_config(), pool_size_sockets=4)
        traces = fleet.generate_traces()
        with pytest.raises(RuntimeError, match="boom"):
            fleet.capacity_search(boom_factory, traces=traces, search_steps=2)
        assert fleet._probe_session is None

    def test_run_executor_reused_across_calls(self):
        factory = static_policy_factory(fraction=0.25, seed=1)
        with FleetSimulator.sharded(2, fleet_config(), pool_size_sockets=4,
                                    max_workers=2) as fleet:
            traces = fleet.generate_traces()
            first = fleet.run(factory, traces=traces)
            pool = fleet._shard_pool
            assert pool is not None
            second = fleet.run(factory, traces=traces)
            assert fleet._shard_pool is pool
            baselines = fleet.compute_baselines(traces)
            assert fleet._shard_pool is pool
        assert fleet._shard_pool is None
        assert first.savings == second.savings
        serial = FleetSimulator.sharded(2, fleet_config(), pool_size_sockets=4)
        assert serial.run(factory, traces=traces).savings == first.savings
        assert serial.compute_baselines(traces) == baselines


class TestTopologySessionDifferential:
    """Parallel topology capacity search == sequential, stats drained.

    Every capacity probe replays one pool-connected component of the
    topology as one worker task, and a candidate submits all of its
    components at once; the parallel path must reproduce the sequential
    search verbatim, memoise warm repeats, and surface speculation stats
    only when a pool ran.
    """

    N_SHARDS = 3
    N_SERVERS = 8

    @pytest.fixture(scope="class")
    def shard_configs(self):
        from repro.cluster.tracegen import fleet_shard_configs
        base = fleet_config(cluster_id="topo-sess", n_servers=self.N_SERVERS,
                            duration_days=0.3, mean_lifetime_hours=1.2,
                            target_core_utilization=0.92, seed=11)
        return fleet_shard_configs(self.N_SHARDS, base)

    @staticmethod
    def _factory(shard):
        from repro.core.policies import StaticFractionPolicy
        return StaticFractionPolicy(fraction=0.35, seed=1000 + shard)

    def _search(self, fleet, topo):
        return fleet.capacity_search(policy_factory=self._factory,
                                     search_steps=3, pool_topology=topo)

    @pytest.mark.parametrize("topo_name", ["per_shard", "spanning"])
    def test_parallel_matches_sequential(self, shard_configs, topo_name):
        from repro.cluster.pool_topology import PoolTopology
        make = (PoolTopology.per_shard if topo_name == "per_shard"
                else PoolTopology.spanning)
        topo = make([self.N_SERVERS] * self.N_SHARDS, 2, 16)
        rs = self._search(FleetSimulator(shard_configs), topo)
        with FleetSimulator(shard_configs, max_workers=2) as par_fleet:
            rp = self._search(par_fleet, topo)
            rp2 = self._search(par_fleet, topo)  # warm: memoised outcomes
        assert rs.savings == rp.savings
        assert rs.baseline_per_server_gb == rp.baseline_per_server_gb
        assert rs.pooled_per_server_gb == rp.pooled_per_server_gb
        assert rs.per_shard_pool_capacity_gb == rp.per_shard_pool_capacity_gb
        assert rs.pool_capacity_gb_by_group == rp.pool_capacity_gb_by_group
        assert rs.rejection_budget == rp.rejection_budget
        assert rs.total_vms == rp.total_vms
        assert rp2.savings == rp.savings
        assert rp2.pooled_per_server_gb == rp.pooled_per_server_gb
        # Stats contract: sequential searches never speculate; parallel
        # searches drain a fresh SpeculationStats per call.
        assert rs.speculation is None
        assert rp.speculation is not None
        assert rp.speculation.issued >= 0
        assert rp2.speculation is not None


class TestAdaptiveSpeculationDeterminism:
    """Speculation depth never changes probe verdicts or dimensioning.

    Probes are deterministic and memoised per key, so speculation only
    changes which outcomes are warm when the bisection asks for them.
    Pinning the controller to depths 1/2/4 and letting it adapt must all
    yield the sequential search's exact ``PoolSavings``.
    """

    @pytest.fixture(scope="class")
    def spec_trace(self):
        cfg = TraceGenConfig(cluster_id="spec", n_servers=8,
                             duration_days=0.3, mean_lifetime_hours=1.2,
                             target_core_utilization=0.92, seed=5)
        return TraceGenerator(cfg).generate()

    def _search(self, trace, workers, depth=None, monkeypatch=None):
        import repro.cluster.fleet as fleetmod
        dim = PoolDimensioner(n_servers=8, search_steps=3,
                              max_workers=workers)
        if depth is not None:
            monkeypatch.setattr(fleetmod, "_SPEC_DEPTH_INITIAL", depth)
            monkeypatch.setattr(fleetmod, "_SPEC_WINDOW", 10**9)
        try:
            savings = dim.evaluate_capacity_search(
                trace, 16, FixedFractionPolicy(fraction=0.35))
            return savings, dim.last_speculation
        finally:
            dim.close()

    def test_depth_never_changes_dimensioning(self, spec_trace, monkeypatch):
        base, spec0 = self._search(spec_trace, None)
        assert spec0 is not None and spec0.issued == 0  # sequential: zeros
        for depth in (1, 2, 4):
            s, spec = self._search(spec_trace, 3, depth, monkeypatch)
            assert s == base, f"depth={depth} changed the dimensioning"
            assert spec is not None
            monkeypatch.undo()
        s, spec = self._search(spec_trace, 3)  # adaptive controller
        assert s == base
        assert spec is not None
        assert spec.issued == spec.hits + spec.wasted

    def test_last_speculation_drained_per_call(self, spec_trace):
        with PoolDimensioner(n_servers=8, search_steps=3,
                             max_workers=2) as dim:
            dim.evaluate_capacity_search(spec_trace, 16,
                                         FixedFractionPolicy(fraction=0.35))
            first = dim.last_speculation
            dim.evaluate_capacity_search(spec_trace, 16,
                                         FixedFractionPolicy(fraction=0.35))
            second = dim.last_speculation
        assert first is not None and second is not None
        assert first is not second  # drained, not accumulated


class TestModelStateFingerprints:
    """Probe memo keys must track prediction-model state.

    Reused sessions memoise capacity probes keyed on a value-based
    fingerprint of the policy factory (``_probe_fingerprint``).  The
    prediction factory binds trained GBM/forest models, so retraining a
    model **in place** must change the fingerprint -- otherwise a reused
    session would keep serving capacity outcomes computed with the stale
    model.  Conversely the fingerprint must NOT change when only lazy
    prediction caches are populated, or every memo would be spuriously
    invalidated by the first predict call.
    """

    @staticmethod
    def _trained_policy(seed):
        from repro.core.policies import PredictionPolicy

        return PredictionPolicy.train(seed=seed, n_samples=256)

    def test_fingerprint_stable_across_predict(self, trace):
        import numpy as np

        from repro.cluster.fleet import _probe_fingerprint

        policy = self._trained_policy(3)
        before = _probe_fingerprint(policy)
        assert before is not None
        policy.predict_slowdown_batch(trace, np.zeros(len(trace)))
        policy.decide_batch(trace)
        assert _probe_fingerprint(policy) == before

    def test_factory_fingerprint_tracks_in_place_retrain(self):
        from repro.cluster.fleet import (
            _probe_fingerprint,
            prediction_policy_factory,
        )

        policy = self._trained_policy(3)
        factory = prediction_policy_factory(policy=policy)
        before = _probe_fingerprint(factory)
        assert before is not None  # partials must stay fingerprintable
        # Retrain the bound untouched-memory model in place: same objects,
        # new fitted state (as a real ``fit`` call would leave behind).
        other = self._trained_policy(4)
        policy.untouched_model.gbm.__dict__.update(
            other.untouched_model.gbm.__dict__)
        after = _probe_fingerprint(factory)
        assert after is not None
        assert after != before

    def test_session_token_invalidates_on_retrain(self):
        from repro.cluster.fleet import _ProbeSession, prediction_policy_factory

        policy = self._trained_policy(3)
        factory = prediction_policy_factory(policy=policy)
        session = _ProbeSession([], [], 3600.0, max_workers=None)
        token_before = session._token(factory)
        other = self._trained_policy(4)
        policy.untouched_model.gbm.__dict__.update(
            other.untouched_model.gbm.__dict__)
        assert session._token(factory) != token_before

    def test_tree_pickles_exclude_fit_scratch(self):
        import pickle

        import numpy as np

        from repro.ml.tree import DecisionTreeRegressor

        rng = np.random.default_rng(0)
        X = rng.random((64, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        tree = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        before = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        tree.predict(X)  # populates the lazy _flat arrays
        after = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        assert before == after
        restored = pickle.loads(after)
        assert not hasattr(restored, "_encoded_y")
        assert restored._flat is None
        assert np.array_equal(restored.predict(X), tree.predict(X))
