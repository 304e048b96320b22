"""Tests for the placement engine and the parallel capacity search.

* ``ArrayPlacementEngine`` unit behaviour: best-fit server and NUMA-node
  choice, fit tolerances, pool-group capacity, and accounting.
* Differentials: ``ClusterSimulator.run`` must be byte-identical to the
  brute-force reference replay (``reference_replay.py``), and parallel
  capacity-search probes must return exactly the sequential search's
  ``PoolSavings``.
"""

import numpy as np
import pytest

from reference_replay import reference_replay
from repro.analysis.sanitizer import SanitizerError
from repro.cluster import pool_topology
from repro.cluster.engine import ArrayPlacementEngine, PlacementError
from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.pool import FixedFractionPolicy, PoolDimensioner
from repro.cluster.server import ServerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import PondTracePolicy
from repro.core.prediction.combined import CombinedOperatingPoint

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def bulk_trace(seed, n_servers=10, duration_days=0.6, utilization=0.85):
    cfg = TraceGenConfig(
        cluster_id=f"engine-{seed}", n_servers=n_servers,
        duration_days=duration_days, target_core_utilization=utilization,
        mean_lifetime_hours=2.0, seed=seed,
    )
    return TraceGenerator(cfg).generate_bulk()


def assert_identical(result, reference):
    """Byte equality of everything a simulation result exposes."""
    assert result.placements == reference.placements
    assert result.placed_vms == reference.placed_vms
    assert result.rejected_vms == reference.rejected_vms
    assert result.server_peak_local_gb == reference.server_peak_local_gb
    assert result.server_peak_total_gb == reference.server_peak_total_gb
    assert result.pool_peak_gb == reference.pool_peak_gb
    assert result.total_pool_gb_allocated == reference.total_pool_gb_allocated
    assert result.total_memory_gb_allocated \
        == reference.total_memory_gb_allocated
    assert (result.sample_buffer.rows() == reference.sample_buffer.rows()).all()


def run_both(trace_or_stream, policy=None, **kwargs):
    """``(ClusterSimulator.run result, reference replay result)``."""
    kwargs.setdefault("sample_interval_s", 1800.0)
    return (ClusterSimulator(**kwargs).run(trace_or_stream, policy=policy),
            reference_replay(trace_or_stream, policy, **kwargs))


class TestArrayObjectDifferential:
    """``ClusterSimulator.run`` == the brute-force reference replay (which
    reproduces the retired object engine: test_object_engine_fixture)."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_memory_constrained_replay(self, seed):
        trace = bulk_trace(seed=seed)
        result, reference = run_both(trace, n_servers=10)
        assert_identical(result, reference)

    def test_rejection_heavy_replay(self):
        trace = bulk_trace(seed=7, n_servers=10, utilization=0.95)
        result, reference = run_both(trace, n_servers=3)
        assert result.rejected_vms > 0
        assert_identical(result, reference)

    def test_pooled_replay_with_capacity_limit(self):
        trace = bulk_trace(seed=41, n_servers=8, utilization=0.9)
        result, reference = run_both(
            trace, policy=FixedFractionPolicy(0.4), n_servers=8,
            pool_size_sockets=8, pool_capacity_gb_per_group=600.0,
            constrain_memory=False,
        )
        assert result.total_pool_gb_allocated > 0
        assert_identical(result, reference)

    def test_pond_policy_batch_and_callback_paths(self):
        trace = bulk_trace(seed=23, n_servers=8, utilization=0.9)
        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        result, reference = run_both(
            trace, policy=policy, n_servers=8, pool_size_sockets=16,
            constrain_memory=False,
        )
        assert_identical(result, reference)
        callback = PondTracePolicy(OPERATING_POINT, seed=3)
        result_cb, reference_cb = run_both(
            trace, policy=callback.__call__, n_servers=8, pool_size_sockets=16,
            constrain_memory=False,
        )
        assert_identical(result_cb, reference_cb)
        assert result_cb.placements == result.placements

    def test_precomputed_pool_array(self):
        """A ``decide_batch`` policy's allocation array drives the replay
        and the reference identically."""
        trace = bulk_trace(seed=11, n_servers=6)
        result, reference = run_both(
            trace, policy=FixedFractionPolicy(0.3), n_servers=6,
            pool_size_sockets=8, constrain_memory=False,
        )
        assert result.total_pool_gb_allocated > 0
        assert_identical(result, reference)

    def test_streamed_replay(self):
        cfg = TraceGenConfig(cluster_id="engine-stream", n_servers=8,
                             duration_days=0.5, target_core_utilization=0.9,
                             seed=13)
        stream = TraceGenerator(cfg).stream(chunk_size=256)
        result, reference = run_both(stream, n_servers=8)
        assert_identical(result, reference)
        # And streamed == materialised.
        materialised = ClusterSimulator(
            n_servers=8, sample_interval_s=1800.0
        ).run(TraceGenerator(cfg).generate_bulk())
        assert_identical(result, materialised)

    def test_streamed_out_of_order_raises_same_error(self):
        records = [
            VMTraceRecord(vm_id="a", cluster_id="t", arrival_s=100.0,
                          lifetime_s=60.0, cores=1, memory_gb=1.0),
            VMTraceRecord(vm_id="b", cluster_id="t", arrival_s=50.0,
                          lifetime_s=60.0, cores=1, memory_gb=1.0),
        ]

        class BadStream:
            cluster_id = "t"

            def chunks(self):
                from repro.cluster.trace import TraceColumns
                yield TraceColumns.from_records(records)

        with pytest.raises(ValueError, match="sorted by arrival"):
            ClusterSimulator(n_servers=1).run(BadStream())
        with pytest.raises(ValueError, match="sorted by arrival"):
            reference_replay(BadStream(), n_servers=1)

    def test_horizon_variants(self):
        """The horizon is the last arrival: off the sample grid, and
        landing exactly on a grid tick (the replaced pre-arrival row)."""
        trace = bulk_trace(seed=19, n_servers=4, duration_days=0.3)
        span = max(r.arrival_s for r in trace)
        on_grid = 1800.0 * (int(span // 1800.0) + 1)
        tail = VMTraceRecord(vm_id="tail", cluster_id=trace.cluster_id,
                             arrival_s=on_grid, lifetime_s=600.0, cores=2,
                             memory_gb=8.0)
        extended = ClusterTrace(list(trace.records) + [tail],
                                cluster_id=trace.cluster_id)
        for variant, horizon in ((trace, span), (extended, on_grid)):
            result, reference = run_both(variant, n_servers=4)
            assert_identical(result, reference)
            assert result.samples[-1].time_s == horizon


class TestStreamedVsMaterialised:
    """``run`` feeds a stream's chunks through the same inlined loop that
    replays the materialised trace in slices; every chunk size gives the
    materialised result."""

    @pytest.mark.parametrize("pool_size_sockets, constrain", [
        (0, True), (0, False), (8, True), (16, False)])
    def test_stream_chunks(self, pool_size_sockets, constrain, forbid):
        trace = bulk_trace(seed=31, n_servers=8, utilization=0.92)
        sim = ClusterSimulator(
            n_servers=8, pool_size_sockets=pool_size_sockets,
            pool_capacity_gb_per_group=400.0, constrain_memory=constrain,
            sample_interval_s=1800.0)
        policy = FixedFractionPolicy(0.3)
        forbid(pool_topology, "_Controls")
        materialised = sim.run(trace, policy)
        for chunk_size in (1, 97, 4096, 10 * len(trace)):
            assert_identical(
                sim.run(trace.stream(chunk_size=chunk_size), policy),
                materialised)
        assert (materialised.total_pool_gb_allocated > 0) == bool(
            pool_size_sockets)


class TestArrayPlacementEngine:
    """Unit behaviour of the one placement engine."""

    @staticmethod
    def make(n_servers=2, pool_free=None, **config):
        groups = [0] * n_servers if pool_free is not None else None
        return ArrayPlacementEngine(n_servers, ServerConfig(**config),
                                    group_of=groups, pool_free_gb=pool_free)

    def test_placement_updates_counters(self):
        engine = self.make(1, pool_free={0: 100.0})
        handle = engine.place(8, 32.0, 4.0)
        assert engine.vm_node[handle] in (0, 1)
        assert engine.used_cores == engine.used_cores_srv[0] == 8
        assert engine.used_local_gb == engine.used_gb_srv[0] == 32.0
        assert engine.pool_used_srv[0] == engine.pool_used_gb[0] == 4.0
        assert engine.running_vms == 1

    def test_best_fit_node_choice(self):
        """The fullest NUMA node that still fits wins."""
        engine = self.make(1)
        engine.place(20, 10.0, 0.0)  # fills one node to 20/24 cores
        handle = engine.place(4, 10.0, 0.0)
        assert engine.node_used_cores[engine.vm_node[handle]] == 24

    def test_numa_fit_respected(self):
        # One socket has 24 cores: a 25-core VM fits no single node.
        engine = self.make(1)
        assert engine.place(25, 10.0, 0.0) == -1
        assert engine.place(24, 10.0, 0.0) >= 0

    def test_fit_tolerance_is_1e9_gb(self):
        """A node fits a request up to 1e-9 GB over its free DRAM."""
        engine = self.make(1, sockets=1, dram_per_socket_gb=64.0)
        assert engine.place(1, 64.0 + 0.5e-9, 0.0) >= 0
        engine = self.make(1, sockets=1, dram_per_socket_gb=64.0)
        assert engine.place(1, 64.0 + 1e-8, 0.0) == -1

    def test_best_fit_prefers_fuller_server(self):
        engine = self.make(2)
        engine.place(20, 64.0, 0.0)  # lands on server 0
        handle = engine.place(4, 16.0, 0.0)
        assert engine.vm_server[handle] == 0

    def test_placement_error_when_nothing_fits(self):
        engine = self.make(1)
        assert engine.place(1000, 16.0, 0.0) == -1
        assert engine.running_vms == 0

    def test_pool_capacity_limits_placement(self):
        """A request is rejected when its pool group lacks capacity."""
        engine = self.make(1, pool_free={0: 8.0})
        assert engine.place(4, 8.0, 32.0) == -1
        assert engine.place(4, 8.0, 8.0 + 0.5e-9) >= 0

    def test_pool_accounting_on_place_and_remove(self):
        """``remove`` returns the VM's pool memory to its group."""
        engine = self.make(2, pool_free={0: 100.0})
        handle = engine.place(4, 8.0, 32.0)
        assert engine.pool_free_gb[0] == 68.0
        engine.remove(handle)
        assert engine.pool_free_gb[0] == 100.0
        assert engine.pool_used_gb[0] == 0.0

    def test_pool_request_without_group_rejected(self):
        engine = self.make(1)
        assert engine.place(2, 4.0, 4.0) == -1
        # The failed placement must not leak core/memory accounting.
        assert engine.used_cores_srv[0] == engine.used_cores == 0
        assert engine.used_gb_srv[0] == 0.0

    def test_pool_request_within_slack_without_group_raises(self):
        """A request within the 1e-9 GB slack passes the pool check but
        finds no group to draw from."""
        engine = self.make(1)
        with pytest.raises(PlacementError):
            engine.place(2, 4.0, 0.5e-9)
        # The failed placement must not leak core/memory accounting.
        assert engine.used_cores_srv[0] == engine.used_cores == 0
        assert engine.used_gb_srv[0] == 0.0

    def test_remove_restores_capacity(self):
        engine = self.make(2)
        handle = engine.place(8, 32.0, 0.0)
        engine.remove(handle)
        assert engine.used_cores == engine.used_local_gb == 0
        # REPRO_SANITIZE=1 diagnoses the double remove before the engine.
        with pytest.raises((KeyError, SanitizerError)):
            engine.remove(handle)
        # State is intact: the freed slot is reusable.
        assert engine.place(8, 32.0, 0.0) == handle
        assert engine.running_vms == 1

    def test_stranding_requires_full_cores(self):
        engine = self.make(1)
        engine.place(24, 64.0, 0.0)
        assert engine.stranded_gb == 0.0
        engine.place(24, 64.0, 0.0)
        assert engine.used_cores_srv[0] == 48
        assert engine.stranded_gb == 384.0 - 128.0

    def test_peak_tracking(self):
        engine = self.make(1)
        first = engine.place(4, 100.0, 0.0)
        engine.place(4, 50.0, 0.0)
        engine.remove(first)
        assert engine.peak_local_gb[0] == 150.0
        assert engine.used_gb_srv[0] == 50.0

    def test_empty_server_list_rejected(self):
        with pytest.raises(ValueError):
            ArrayPlacementEngine(0, ServerConfig())


class TestParallelCapacitySearch:
    @pytest.fixture(scope="class")
    def trace(self):
        cfg = TraceGenConfig(n_servers=10, duration_days=0.8,
                             target_core_utilization=0.85, seed=7)
        return TraceGenerator(cfg).generate_bulk()

    def test_dimensioner_parallel_equals_sequential(self, trace):
        policy = FixedFractionPolicy(0.3)
        sequential = PoolDimensioner(n_servers=10, search_steps=4)
        parallel = PoolDimensioner(n_servers=10, search_steps=4, max_workers=2)
        assert parallel.evaluate_capacity_search(trace, 8, policy) \
            == sequential.evaluate_capacity_search(trace, 8, policy)

    def test_dimensioner_parallel_with_pond_policy(self, trace):
        sequential = PoolDimensioner(n_servers=10, search_steps=3)
        parallel = PoolDimensioner(n_servers=10, search_steps=3, max_workers=2)
        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        assert parallel.evaluate_capacity_search(trace, 16, policy) \
            == sequential.evaluate_capacity_search(trace, 16, policy)

    def test_fleet_parallel_equals_sequential(self):
        base = TraceGenConfig(cluster_id="cap", n_servers=8, duration_days=0.6,
                              target_core_utilization=0.85, seed=11)
        factory = pond_policy_factory(OPERATING_POINT, seed=3)
        sequential = FleetSimulator.sharded(
            2, base, pool_size_sockets=8
        ).capacity_search(factory, search_steps=3)
        parallel = FleetSimulator.sharded(
            2, base, pool_size_sockets=8, max_workers=2
        ).capacity_search(factory, search_steps=3)
        assert parallel.savings == sequential.savings
        assert parallel.baseline_per_server_gb == sequential.baseline_per_server_gb
        assert parallel.pooled_per_server_gb == sequential.pooled_per_server_gb
        assert parallel.per_shard_pool_capacity_gb \
            == sequential.per_shard_pool_capacity_gb
        assert parallel.rejection_budget == sequential.rejection_budget
        assert parallel.total_vms == sequential.total_vms

    def test_fleet_parallel_streamed_pool_size_sweep(self):
        base = TraceGenConfig(cluster_id="cap-stream", n_servers=8,
                              duration_days=0.5, target_core_utilization=0.85,
                              seed=13)
        factory = pond_policy_factory(OPERATING_POINT, seed=3)
        sequential = FleetSimulator.sharded(
            2, base, pool_size_sockets=8, stream_chunk_size=256
        )
        parallel = FleetSimulator.sharded(
            2, base, pool_size_sockets=8, stream_chunk_size=256, max_workers=2
        )
        for pool_size in (8, 16, 0):
            assert parallel.capacity_search(
                factory, search_steps=3, pool_size_sockets=pool_size
            ).savings == sequential.capacity_search(
                factory, search_steps=3, pool_size_sockets=pool_size
            ).savings

    def test_parallel_dimensioner_still_accumulates_policy_stats(self, trace):
        """Worker probes run policy copies; their stat deltas must flow back
        into the caller's policy (fig21 reads policy.stats after the
        search), with the same ratios the sequential search produces."""
        sequential_policy = PondTracePolicy(OPERATING_POINT, seed=3)
        parallel_policy = PondTracePolicy(OPERATING_POINT, seed=3)
        PoolDimensioner(n_servers=10, search_steps=3).evaluate_capacity_search(
            trace, 8, sequential_policy
        )
        PoolDimensioner(
            n_servers=10, search_steps=3, max_workers=2
        ).evaluate_capacity_search(trace, 8, parallel_policy)
        assert parallel_policy.stats.n_vms > 0
        assert parallel_policy.stats.misprediction_percent == pytest.approx(
            sequential_policy.stats.misprediction_percent
        )
        assert parallel_policy.stats.pool_fraction_percent == pytest.approx(
            sequential_policy.stats.pool_fraction_percent
        )

    def test_parallel_policy_reuse_does_not_compound_stats(self, trace):
        """Probe copies must zero their stats: a policy reused across two
        parallel searches would otherwise ship its accumulated counts to the
        workers and get them merged back once per probe."""
        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        dimensioner = PoolDimensioner(n_servers=10, search_steps=3, max_workers=2)
        dimensioner.evaluate_capacity_search(trace, 8, policy)
        first_ratio = policy.stats.pool_fraction_percent
        first_n = policy.stats.n_vms
        dimensioner.evaluate_capacity_search(trace, 8, policy)
        assert policy.stats.pool_fraction_percent == pytest.approx(first_ratio)
        # Memoised probes are not re-run, so the second call adds nothing
        # wildly disproportionate; without the reset the counts compound
        # (first_n shipped into every probe's delta).
        assert policy.stats.n_vms <= 2 * first_n

    def test_max_workers_validation(self):
        with pytest.raises(ValueError):
            PoolDimensioner(n_servers=1, max_workers=0)


class TestPolicyPickling:
    def test_batch_policies_pickle_without_digest_cache(self):
        import pickle

        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        trace = bulk_trace(seed=3, n_servers=2, duration_days=0.1)
        before = policy.decide_batch(trace)
        clone = pickle.loads(pickle.dumps(policy))
        after = clone.decide_batch(trace)
        assert np.array_equal(before, after)
