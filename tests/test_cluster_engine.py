"""Differential tests for the array placement engine and the parallel
capacity search: the struct-of-arrays hot path (engine="array") must be
byte-identical to the object path, and parallel capacity-search probes must
return exactly the sequential search's PoolSavings."""

import numpy as np
import pytest

from repro.cluster import pool_topology
from repro.cluster.engine import (
    ArrayPlacementEngine,
    PLACEMENT_ENGINES,
    resolve_engine,
    validate_engine,
)
from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.pool import FixedFractionPolicy, PoolDimensioner
from repro.cluster.scheduler import PlacementError, VMScheduler
from repro.cluster.server import ClusterServer, ServerConfig
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


def assert_identical(array_result, object_result):
    """Byte equality of everything a simulation result exposes."""
    assert array_result.placements == object_result.placements
    assert array_result.placed_vms == object_result.placed_vms
    assert array_result.rejected_vms == object_result.rejected_vms
    assert array_result.server_peak_local_gb == object_result.server_peak_local_gb
    assert array_result.server_peak_total_gb == object_result.server_peak_total_gb
    assert array_result.pool_peak_gb == object_result.pool_peak_gb
    assert array_result.total_pool_gb_allocated \
        == object_result.total_pool_gb_allocated
    assert array_result.total_memory_gb_allocated \
        == object_result.total_memory_gb_allocated
    assert (array_result.sample_buffer.rows()
            == object_result.sample_buffer.rows()).all()


def run_both(trace_or_stream, policy=None, **kwargs):
    kwargs.setdefault("sample_interval_s", 1800.0)
    results = {}
    for engine in PLACEMENT_ENGINES:
        sim = ClusterSimulator(engine=engine, **kwargs)
        results[engine] = sim.run(trace_or_stream, policy=policy)
    return results["array"], results["object"]


class TestEngineResolution:
    def test_default_engine_is_array_under_indexed(self):
        assert resolve_engine(None, "indexed") == "array"
        assert ClusterSimulator(n_servers=1).engine == "array"

    def test_linear_strategy_defaults_to_object(self):
        assert resolve_engine(None, "linear") == "object"
        sim = ClusterSimulator(n_servers=1, scheduler_strategy="linear")
        assert sim.engine == "object"

    def test_array_engine_rejects_linear_strategy(self):
        with pytest.raises(ValueError):
            resolve_engine("array", "linear")
        with pytest.raises(ValueError):
            ClusterSimulator(n_servers=1, scheduler_strategy="linear",
                             engine="array")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            validate_engine("quantum")
        with pytest.raises(ValueError):
            ClusterSimulator(n_servers=1, engine="quantum")
        with pytest.raises(ValueError):
            PoolDimensioner(n_servers=1, engine="quantum")
        with pytest.raises(ValueError):
            FleetSimulator.sharded(1, TraceGenConfig(), engine="quantum")


class TestArrayObjectDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_memory_constrained_replay(self, seed):
        trace = bulk_trace(seed=seed)
        array_result, object_result = run_both(trace, n_servers=10)
        assert_identical(array_result, object_result)

    def test_rejection_heavy_replay(self):
        trace = bulk_trace(seed=7, n_servers=10, utilization=0.95)
        array_result, object_result = run_both(trace, n_servers=3)
        assert array_result.rejected_vms > 0
        assert_identical(array_result, object_result)

    def test_pooled_replay_with_capacity_limit(self):
        trace = bulk_trace(seed=41, n_servers=8, utilization=0.9)
        array_result, object_result = run_both(
            trace, policy=FixedFractionPolicy(0.4), n_servers=8,
            pool_size_sockets=8, pool_capacity_gb_per_group=600.0,
            constrain_memory=False,
        )
        assert array_result.total_pool_gb_allocated > 0
        assert_identical(array_result, object_result)

    def test_pond_policy_batch_and_callback_paths(self):
        trace = bulk_trace(seed=23, n_servers=8, utilization=0.9)
        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        array_result, object_result = run_both(
            trace, policy=policy, n_servers=8, pool_size_sockets=16,
            constrain_memory=False,
        )
        assert_identical(array_result, object_result)
        callback = PondTracePolicy(OPERATING_POINT, seed=3)
        array_cb, object_cb = run_both(
            trace, policy=callback.__call__, n_servers=8, pool_size_sockets=16,
            constrain_memory=False,
        )
        assert_identical(array_cb, object_cb)
        assert array_cb.placements == array_result.placements

    def test_precomputed_pool_array(self):
        """A ``decide_batch`` policy's allocation array drives both
        engines identically."""
        trace = bulk_trace(seed=11, n_servers=6)
        array_result, object_result = run_both(
            trace, policy=FixedFractionPolicy(0.3), n_servers=6,
            pool_size_sockets=8, constrain_memory=False,
        )
        assert array_result.total_pool_gb_allocated > 0
        assert_identical(array_result, object_result)

    def test_streamed_replay(self):
        cfg = TraceGenConfig(cluster_id="engine-stream", n_servers=8,
                             duration_days=0.5, target_core_utilization=0.9,
                             seed=13)
        stream = TraceGenerator(cfg).stream(chunk_size=256)
        array_result, object_result = run_both(stream, n_servers=8)
        assert_identical(array_result, object_result)
        # And streamed == materialised on the array engine.
        materialised = ClusterSimulator(
            n_servers=8, sample_interval_s=1800.0, engine="array"
        ).run(TraceGenerator(cfg).generate_bulk())
        assert_identical(array_result, materialised)

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

        for engine in PLACEMENT_ENGINES:
            sim = ClusterSimulator(n_servers=1, engine=engine)
            with pytest.raises(ValueError, match="sorted by arrival"):
                sim.run(BadStream())

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
            array_result, object_result = run_both(variant, n_servers=4)
            assert_identical(array_result, object_result)
            assert array_result.samples[-1].time_s == horizon


class TestCalendarVsOneShard:
    """``run``'s two array targets agree: a materialised trace replayed on
    the calendar loop equals its one-shard inlined cross-shard replay."""

    @pytest.mark.parametrize("pool_size_sockets, constrain", [
        (0, True), (0, False), (8, True), (16, False)])
    def test_materialised_trace(self, pool_size_sockets, constrain, forbid):
        trace = bulk_trace(seed=31, n_servers=8, utilization=0.92)
        sim = ClusterSimulator(
            n_servers=8, pool_size_sockets=pool_size_sockets,
            pool_capacity_gb_per_group=400.0, constrain_memory=constrain,
            sample_interval_s=1800.0)
        policy = FixedFractionPolicy(0.3)
        calendar = sim._run_array_calendar(trace, policy)
        forbid(ClusterSimulator, "_run_array_calendar")
        forbid(pool_topology, "_replay_crossshard_events")
        inlined = sim.run(trace, policy)
        assert_identical(inlined, calendar)
        assert (inlined.total_pool_gb_allocated > 0) == bool(
            pool_size_sockets)


class TestVMSchedulerArrayFacade:
    def test_placements_and_mirrored_objects_match_under_churn(self):
        def build(engine):
            servers = [ClusterServer(f"s{i}", ServerConfig()) for i in range(6)]
            pool_free = {0: 500.0, 1: 500.0}
            groups = {f"s{i}": i // 3 for i in range(6)}
            return servers, VMScheduler(servers, pool_free, groups, engine=engine)

        array_servers, array_sched = build("array")
        object_servers, object_sched = build("object")
        rng = np.random.default_rng(5)
        live = []
        for step in range(300):
            if live and rng.uniform() < 0.35:
                vm_id, a_srv, o_srv = live.pop(int(rng.integers(len(live))))
                array_sched.remove(vm_id, a_srv)
                object_sched.remove(vm_id, o_srv)
                continue
            cores = int(rng.choice([1, 2, 4, 8, 16]))
            mem = float(cores * rng.choice([2.0, 4.0, 8.0]))
            pool = float(rng.choice([0.0, 4.0]))
            vm_id = f"vm-{step}"
            try:
                a_srv = array_sched.place(vm_id, cores, mem, pool)
            except PlacementError:
                a_srv = None
            try:
                o_srv = object_sched.place(vm_id, cores, mem, pool)
            except PlacementError:
                o_srv = None
            assert (a_srv is None) == (o_srv is None)
            if a_srv is None:
                continue
            assert a_srv.server_id == o_srv.server_id
            live.append((vm_id, a_srv, o_srv))
        assert array_sched.used_cores == object_sched.used_cores
        assert array_sched.used_local_gb == object_sched.used_local_gb
        assert array_sched.stranded_gb == object_sched.stranded_gb
        assert array_sched.running_vms == object_sched.running_vms
        assert array_sched.pool_free_gb == object_sched.pool_free_gb
        # The facade mirrors every mutation onto the server objects.
        for a_srv, o_srv in zip(array_servers, object_servers):
            assert a_srv.summary() == o_srv.summary()

    def test_snapshot_of_preplaced_servers(self):
        servers = [ClusterServer(f"s{i}", ServerConfig()) for i in range(2)]
        servers[0].place("warm", 20, 64.0, 0.0)
        scheduler = VMScheduler(servers, engine="array")
        assert scheduler.select_server(4, 16.0, 0.0).server_id == "s0"
        assert scheduler.used_cores == 20
        scheduler.remove("warm", servers[0])
        assert scheduler.used_cores == 0

    def test_heterogeneous_servers_rejected(self):
        servers = [
            ClusterServer("s0", ServerConfig()),
            ClusterServer("s1", ServerConfig(cores_per_socket=12)),
        ]
        with pytest.raises(ValueError, match="homogeneous"):
            VMScheduler(servers, engine="array")

    def test_pool_request_without_group_rejected(self):
        servers = [ClusterServer("s0", ServerConfig())]
        scheduler = VMScheduler(servers, engine="array")
        with pytest.raises(PlacementError):
            scheduler.place("vm1", 2, 4.0, 4.0)
        assert servers[0].used_cores == 0

    def test_wrong_server_remove_leaves_state_intact(self):
        servers = [ClusterServer(f"s{i}", ServerConfig()) for i in range(2)]
        scheduler = VMScheduler(servers, engine="array")
        placed_on = scheduler.place("vm1", 4, 8.0, 0.0)
        other = servers[1] if placed_on is servers[0] else servers[0]
        with pytest.raises(KeyError):
            scheduler.remove("vm1", other)
        # Engine and mirror are still in sync: the VM is removable properly.
        assert scheduler.running_vms == 1
        scheduler.remove("vm1", placed_on)
        assert scheduler.running_vms == 0
        assert scheduler.used_cores == 0

    def test_engine_select_matches_place(self):
        engine = ArrayPlacementEngine.for_cluster(4, ServerConfig())
        idx = engine.select(4, 16.0, 0.0)
        handle = engine.place(4, 16.0, 0.0)
        assert engine.vm_server[handle] == idx
        engine.remove(handle)
        assert engine.running_vms == 0
        assert engine.used_cores == 0


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
