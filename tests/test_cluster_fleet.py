"""Tests for the sharded fleet simulator and its batch-vs-callback parity."""

import numpy as np
import pytest

from dataclasses import replace

from repro.cluster import ClusterSimulator, ServerConfig
from repro.cluster.fleet import (
    FleetSimulator,
    all_local_policy_factory,
    pond_policy_factory,
    static_policy_factory,
)
from repro.cluster.pool_topology import PoolTopology
from repro.cluster.tracegen import (
    TraceGenConfig,
    TraceGenerator,
    fleet_shard_configs,
)
from repro.core.prediction.combined import CombinedOperatingPoint

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def base_config(**kwargs):
    # Seed chosen so the pooled fleet shows positive DRAM savings at this
    # deliberately tiny scale (6 servers / 0.4 days is noisy: one shard's
    # worst-case pool-group peak can dominate and flip the sign).
    defaults = dict(cluster_id="fleet", n_servers=6, duration_days=0.4,
                    mean_lifetime_hours=2.0, target_core_utilization=0.85, seed=16)
    defaults.update(kwargs)
    return TraceGenConfig(**defaults)


@pytest.fixture(scope="module")
def pooled_fleet_runs():
    """One small pooled fleet run on each policy path (batch and callback)."""
    fleet = FleetSimulator.sharded(3, base_config(), pool_size_sockets=4)
    traces = fleet.generate_traces()
    factory = pond_policy_factory(OPERATING_POINT, seed=3)
    return {
        "fleet": fleet,
        "traces": traces,
        "batch": fleet.run(factory, traces=traces, batch=True),
        "callback": fleet.run(factory, traces=traces, batch=False),
    }


class TestFleetShape:
    def test_shard_ids_and_seeds_are_distinct(self):
        fleet = FleetSimulator.sharded(4, base_config())
        ids = [cfg.cluster_id for cfg in fleet.shard_configs]
        seeds = [cfg.seed for cfg in fleet.shard_configs]
        assert len(set(ids)) == 4
        assert seeds == [16, 17, 18, 19]

    def test_utilization_sweep_matches_tracegen_helper(self):
        base = base_config()
        fleet = FleetSimulator.utilization_sweep(
            3, base, utilization_range=(0.6, 0.9), seed=5
        )
        expected = fleet_shard_configs(3, base, (0.6, 0.9), seed=5)
        assert fleet.shard_configs == expected
        utils = [cfg.target_core_utilization for cfg in fleet.shard_configs]
        assert utils == pytest.approx([0.6, 0.75, 0.9])

    def test_shards_preserve_all_base_config_fields(self):
        base = base_config(shift_day=0.2, shift_memory_factor=4.0, warm_start=False)
        for fleet in (
            FleetSimulator.sharded(2, base),
            FleetSimulator.utilization_sweep(2, base, seed=5),
        ):
            for cfg in fleet.shard_configs:
                assert cfg.shift_day == 0.2
                assert cfg.shift_memory_factor == 4.0
                assert cfg.warm_start is False

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSimulator([])
        with pytest.raises(ValueError):
            FleetSimulator.sharded(0, base_config())
        duplicate = [base_config(), base_config()]
        with pytest.raises(ValueError):
            FleetSimulator(duplicate)
        fleet = FleetSimulator.sharded(2, base_config())
        with pytest.raises(ValueError):
            fleet.run(traces=[])
        with pytest.raises(ValueError):
            fleet.run(baselines=[1.0])


class TestBatchCallbackParity:
    def test_identical_placement_outcomes(self, pooled_fleet_runs):
        batch, callback = pooled_fleet_runs["batch"], pooled_fleet_runs["callback"]
        assert batch.placed_vms == callback.placed_vms
        assert batch.rejected_vms == callback.rejected_vms
        assert batch.server_peak_local_gb == callback.server_peak_local_gb
        assert batch.pool_peak_gb == callback.pool_peak_gb

    def test_identical_savings(self, pooled_fleet_runs):
        batch, callback = pooled_fleet_runs["batch"], pooled_fleet_runs["callback"]
        assert batch.savings == callback.savings
        for shard_b, shard_c in zip(batch.shards, callback.shards):
            assert shard_b.savings == shard_c.savings

    def test_policy_stats_merge_across_shards(self, pooled_fleet_runs):
        batch = pooled_fleet_runs["batch"]
        merged = batch.policy_stats
        assert merged.n_vms == batch.n_vms
        assert merged.n_vms == sum(s.policy_stats.n_vms for s in batch.shards)
        assert merged.n_mispredictions == sum(
            s.policy_stats.n_mispredictions for s in batch.shards
        )
        callback = pooled_fleet_runs["callback"]
        assert merged.n_mispredictions == callback.policy_stats.n_mispredictions


class TestFleetAggregation:
    def test_savings_equal_sum_of_shard_savings(self, pooled_fleet_runs):
        fleet_savings = pooled_fleet_runs["batch"].savings
        shards = pooled_fleet_runs["batch"].shards
        assert fleet_savings.baseline_dram_gb == pytest.approx(
            sum(s.savings.baseline_dram_gb for s in shards)
        )
        assert fleet_savings.required_local_dram_gb == pytest.approx(
            sum(s.savings.required_local_dram_gb for s in shards)
        )
        assert fleet_savings.required_pool_dram_gb == pytest.approx(
            sum(s.savings.required_pool_dram_gb for s in shards)
        )

    def test_merged_views_cover_every_shard(self, pooled_fleet_runs):
        result = pooled_fleet_runs["batch"]
        assert result.n_vms == sum(len(t) for t in pooled_fleet_runs["traces"])
        assert result.placed_vms + result.rejected_vms == result.n_vms
        peaks = result.server_peak_local_gb
        assert len(peaks) == 3 * 6  # shards x servers, shard-prefixed keys
        assert all("/" in key for key in peaks)
        assert set(result.results()) == {
            cfg.cluster_id for cfg in pooled_fleet_runs["fleet"].shard_configs
        }

    def test_pooling_saves_dram_at_fleet_scale(self, pooled_fleet_runs):
        savings = pooled_fleet_runs["batch"].savings
        assert savings.savings_percent > 0.0
        assert savings.required_pool_dram_gb > 0.0

    def test_compute_baselines_parallel_matches_serial(self, pooled_fleet_runs):
        traces = pooled_fleet_runs["traces"]
        serial = pooled_fleet_runs["fleet"].compute_baselines(traces)
        parallel_fleet = FleetSimulator.sharded(3, base_config(),
                                                pool_size_sockets=4, max_workers=2)
        assert parallel_fleet.compute_baselines(traces) == serial
        # Workers can also generate their own traces (deterministic per seed).
        assert parallel_fleet.compute_baselines() == serial

    def test_precomputed_baselines_match_in_run_baselines(self, pooled_fleet_runs):
        fleet = pooled_fleet_runs["fleet"]
        traces = pooled_fleet_runs["traces"]
        baselines = fleet.compute_baselines(traces)
        reused = fleet.run(
            pond_policy_factory(OPERATING_POINT, seed=3),
            traces=traces, baselines=baselines, compute_baseline=False,
        )
        assert reused.savings == pooled_fleet_runs["batch"].savings
        assert [s.baseline_required_dram_gb for s in reused.shards] == baselines

    def test_missing_baseline_raises(self):
        fleet = FleetSimulator.sharded(2, base_config(), pool_size_sockets=4)
        result = fleet.run(static_policy_factory(fraction=0.2),
                           compute_baseline=False)
        with pytest.raises(ValueError):
            result.savings
        with pytest.raises(ValueError):
            result.shards[0].savings


class TestStrandingMode:
    def test_no_pool_fleet_produces_stranding_series(self):
        fleet = FleetSimulator.utilization_sweep(
            2, base_config(), utilization_range=(0.7, 0.95), seed=9,
            constrain_memory=True,
        )
        result = fleet.run()
        assert result.pool_peak_gb == {}
        for shard_result in result.results().values():
            assert shard_result.n_samples > 0
            assert (shard_result.sample_array("stranded_percent") >= 0.0).all()

    def test_all_local_factory_reports_stats(self):
        fleet = FleetSimulator.sharded(2, base_config(), pool_size_sockets=4)
        result = fleet.run(all_local_policy_factory())
        stats = result.policy_stats
        assert stats.n_all_local == stats.n_vms == result.n_vms
        assert result.savings.required_pool_dram_gb == 0.0

    def test_unpooled_topology_equals_no_topology(self):
        """An unpooled topology hands no policy a pool: a fleet with
        ``PoolTopology.per_shard(sizes, s, 0)`` replays exactly as the same
        fleet without a topology, which ignores the policy's pool shares."""
        config = base_config(n_servers=4)
        sizes = [config.n_servers] * 2
        topology = PoolTopology.per_shard(
            sizes, config.server_config.sockets, 0)
        factory = static_policy_factory(fraction=0.5, seed=2)
        plain = FleetSimulator.sharded(2, config).run(factory)
        unpooled = FleetSimulator.sharded(
            2, config, pool_topology=topology).run(factory)
        assert unpooled.placed_vms == plain.placed_vms > 0
        assert unpooled.rejected_vms == plain.rejected_vms
        for got, ref in zip(unpooled.shards, plain.shards):
            assert np.array_equal(got.result.sample_buffer.rows(),
                                  ref.result.sample_buffer.rows())
        assert unpooled.policy_stats == plain.policy_stats


class TestMixedSkuFleet:
    """A fleet without a topology whose shards differ in ``ServerConfig``:
    each shard is its own component, so it replays as its own cluster."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_equals_per_shard_cluster_runs(self, workers):
        small = ServerConfig(name="small", dram_per_socket_gb=96.0)
        big = ServerConfig(name="big", dram_per_socket_gb=192.0)
        configs = [base_config(cluster_id="sku-small", server_config=small),
                   base_config(cluster_id="sku-big", server_config=big, seed=17)]
        fleet = FleetSimulator(configs, pool_size_sockets=4,
                               pool_capacity_gb_per_group=200.0,
                               constrain_memory=True, max_workers=workers)
        factory = static_policy_factory(fraction=0.3, seed=2)
        with fleet:
            result = fleet.run(factory)
            baselines = fleet.compute_baselines()
        for shard, cfg in enumerate(configs):
            trace = TraceGenerator(cfg).generate_bulk()
            ref = ClusterSimulator(
                n_servers=cfg.n_servers, server_config=cfg.server_config,
                pool_size_sockets=4, pool_capacity_gb_per_group=200.0,
                constrain_memory=True, record_placements=False,
            ).run(trace, factory(shard))
            baseline = ClusterSimulator(
                n_servers=cfg.n_servers, server_config=cfg.server_config,
                constrain_memory=False,
            ).run(trace).uniform_required_local_dram_gb
            got = result.shards[shard]
            assert got.shard_id == cfg.cluster_id
            assert got.result.placed_vms == ref.placed_vms
            assert got.result.rejected_vms == ref.rejected_vms
            assert got.result.server_peak_local_gb == ref.server_peak_local_gb
            assert got.result.pool_peak_gb == ref.pool_peak_gb
            assert np.array_equal(got.result.sample_buffer.rows(),
                                  ref.sample_buffer.rows())
            assert got.baseline_required_dram_gb == baseline
            assert baselines[shard] == baseline
        assert result.shards[0].result.server_peak_local_gb \
            != result.shards[1].result.server_peak_local_gb


class TestProcessPoolPath:
    def test_process_pool_matches_serial(self):
        serial_fleet = FleetSimulator.sharded(2, base_config(duration_days=0.3),
                                              pool_size_sockets=4)
        pooled_fleet = FleetSimulator.sharded(2, base_config(duration_days=0.3),
                                              pool_size_sockets=4, max_workers=2)
        factory = static_policy_factory(fraction=0.25, seed=1)
        serial = serial_fleet.run(factory)
        parallel = pooled_fleet.run(factory)
        assert serial.server_peak_local_gb == parallel.server_peak_local_gb
        assert serial.pool_peak_gb == parallel.pool_peak_gb
        assert serial.savings == parallel.savings
        assert parallel.policy_stats.n_vms == parallel.n_vms
