"""Degenerate trace inputs: empty traces, single records, oversized chunks.

These shapes show up at the edges of real studies (a cluster with no
arrivals in its window, a trace filtered down to one VM, a chunk size tuned
for a bigger fleet) and must replay cleanly -- and identically -- through
``ClusterSimulator.run``, the brute-force reference replay, the fleet
runner, and the cross-shard topology path.
"""

import numpy as np
import pytest

from reference_replay import reference_replay
from repro.cluster.fleet import (
    FleetSimulator,
    PoolTopology,
    static_policy_factory,
)
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator

EMPTY = ClusterTrace([], cluster_id="empty")
SINGLE = ClusterTrace([
    VMTraceRecord(vm_id="only", cluster_id="one", arrival_s=30.0,
                  lifetime_s=7200.0, cores=2, memory_gb=16.0),
], cluster_id="one")

#: ``ClusterSimulator.run`` and the reference replay it must match.
ENGINES = ("array", "reference")


def replay(engine, trace, policy=None, **kwargs):
    cluster = dict(n_servers=3, pool_size_sockets=2,
                   constrain_memory=False, sample_interval_s=600.0)
    cluster.update(kwargs)
    if engine == "reference":
        return reference_replay(trace, policy, **cluster)
    return ClusterSimulator(**cluster).run(trace, policy)


class TestClusterSimulatorDegenerate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_trace(self, engine):
        result = replay(engine, EMPTY, FixedFractionPolicy(0.3))
        assert result.placed_vms == 0
        assert result.rejected_vms == 0
        # One horizon sample at t=0 capturing the empty cluster.
        assert result.n_samples == 1
        assert result.samples[0].time_s == 0.0
        assert result.samples[0].running_vms == 0
        assert result.total_memory_gb_allocated == 0.0
        assert result.average_pool_fraction == 0.0

    def test_empty_trace_engines_identical(self):
        rows = [
            replay(engine, EMPTY).sample_buffer.rows()
            for engine in ENGINES
        ]
        assert np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_record_trace(self, engine):
        result = replay(engine, SINGLE, FixedFractionPolicy(0.5))
        assert result.placed_vms == 1
        assert result.total_memory_gb_allocated == 16.0
        assert result.total_pool_gb_allocated == 8.0
        assert max(result.server_peak_local_gb.values()) == 8.0
        assert result.pool_peak_gb[0] == 8.0
        # Horizon == the single arrival; the sample grid has t=0 plus it.
        assert result.samples[-1].time_s == 30.0
        assert result.samples[-1].running_vms == 1

    def test_single_record_engines_identical(self):
        results = [
            replay(engine, SINGLE, FixedFractionPolicy(0.5))
            for engine in ENGINES
        ]
        assert results[0].server_peak_local_gb == results[1].server_peak_local_gb
        assert results[0].pool_peak_gb == results[1].pool_peak_gb
        assert np.array_equal(results[0].sample_buffer.rows(),
                              results[1].sample_buffer.rows())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stream_chunk_larger_than_trace(self, engine):
        cfg = TraceGenConfig(cluster_id="tiny", n_servers=3,
                             duration_days=0.1, seed=4)
        trace = TraceGenerator(cfg).generate_bulk()
        direct = replay(engine, trace, FixedFractionPolicy(0.3))
        streamed = replay(
            engine, trace.stream(chunk_size=10 * max(1, len(trace))),
            FixedFractionPolicy(0.3),
        )
        assert streamed.placed_vms == direct.placed_vms
        assert streamed.server_peak_local_gb == direct.server_peak_local_gb
        assert np.array_equal(streamed.sample_buffer.rows(),
                              direct.sample_buffer.rows())

    @pytest.mark.parametrize("trace", [EMPTY, SINGLE], ids=["empty", "single"])
    @pytest.mark.parametrize("stream", [False, True])
    def test_unpooled_engines_identical(self, trace, stream):
        """Unpooled one-shard replays, materialised or streamed, match the
        reference replay on the edge traces."""
        results = [
            replay(engine, trace.stream(chunk_size=8) if stream else trace,
                   FixedFractionPolicy(0.5), pool_size_sockets=0)
            for engine in ENGINES
        ]
        assert results[0].placed_vms == results[1].placed_vms == len(trace)
        assert results[0].total_pool_gb_allocated == 0.0
        assert results[0].pool_peak_gb == results[1].pool_peak_gb == {}
        assert results[0].server_peak_local_gb \
            == results[1].server_peak_local_gb
        assert np.array_equal(results[0].sample_buffer.rows(),
                              results[1].sample_buffer.rows())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_stream(self, engine):
        result = replay(engine, EMPTY.stream(chunk_size=8))
        assert result.placed_vms == 0
        assert result.n_samples == 1


class TestFleetDegenerate:
    def _configs(self):
        return [
            TraceGenConfig(cluster_id=f"deg-{i}", n_servers=3,
                           duration_days=0.1, seed=i)
            for i in range(2)
        ]

    def test_fleet_run_with_empty_and_single_shards(self):
        fleet = FleetSimulator(self._configs(), pool_size_sockets=4)
        result = fleet.run(static_policy_factory(fraction=0.2, seed=1),
                           traces=[EMPTY, SINGLE])
        assert result.n_vms == 1
        assert result.placed_vms == 1
        assert result.shards[0].n_vms == 0
        # Savings stay computable: the empty shard contributes zeros.
        assert result.shards[0].savings.baseline_dram_gb == 0.0
        assert result.savings.required_pool_dram_gb >= 0.0

    def test_fleet_capacity_search_single_record(self):
        fleet = FleetSimulator(self._configs()[:1], pool_size_sockets=2)
        search = fleet.capacity_search(
            static_policy_factory(fraction=0.2, seed=1),
            traces=[SINGLE], search_steps=2,
        )
        assert search.total_vms == 1
        assert search.rejection_budget >= 1

    def test_crossshard_run_with_empty_and_single_shards(self):
        topo = PoolTopology.spanning([3, 3], 2, 8)
        fleet = FleetSimulator(self._configs(), pool_topology=topo)
        result = fleet.run(static_policy_factory(fraction=0.2, seed=1),
                           traces=[EMPTY, SINGLE])
        assert result.n_vms == 1
        assert result.placed_vms == 1
        # The empty shard still produces its single horizon sample at t=0.
        assert result.shards[0].result.n_samples == 1
        assert result.shards[0].result.samples[0].time_s == 0.0
        assert result.fleet_pool_peak_gb[0] >= 0.0

    def test_crossshard_degenerate_matches_legacy_on_edge_traces(self):
        """Empty + single-record shards: the fleet run, with or without the
        per-shard topology, equals each shard's own cluster replay."""
        topo = PoolTopology.per_shard([3, 3], 2, 4)
        factory = static_policy_factory(fraction=0.2, seed=1)
        traces = [EMPTY, SINGLE]
        reference = [
            ClusterSimulator(n_servers=cfg.n_servers,
                             server_config=cfg.server_config,
                             pool_size_sockets=4, constrain_memory=False,
                             ).run(trace, factory(shard))
            for shard, (cfg, trace) in enumerate(zip(self._configs(), traces))
        ]
        for fleet in (FleetSimulator(self._configs(), pool_size_sockets=4),
                      FleetSimulator(self._configs(), pool_topology=topo)):
            result = fleet.run(factory, traces=traces)
            for got, ref in zip(result.shards, reference):
                assert got.result.placed_vms == ref.placed_vms
                assert got.result.pool_peak_gb == ref.pool_peak_gb
                assert np.array_equal(got.result.sample_buffer.rows(),
                                      ref.sample_buffer.rows())

    def test_crossshard_stream_chunk_larger_than_trace(self):
        cfgs = self._configs()
        topo = PoolTopology.spanning([3, 3], 2, 8)
        factory = static_policy_factory(fraction=0.2, seed=1)
        traces = [
            TraceGenerator(cfg).generate_bulk() for cfg in cfgs
        ]
        direct = FleetSimulator(cfgs, pool_topology=topo).run(
            factory, traces=traces
        )
        oversized = [t.stream(chunk_size=10 * max(1, len(t))) for t in traces]
        streamed = FleetSimulator(cfgs, pool_topology=topo).run(
            factory, traces=oversized
        )
        assert streamed.savings == direct.savings
        for got, ref in zip(streamed.shards, direct.shards):
            assert np.array_equal(got.result.sample_buffer.rows(),
                                  ref.result.sample_buffer.rows())
