"""Cross-shard pool topologies: construction, differentials, and spanning.

The load-bearing guarantees:

* the degenerate per-shard topology reproduces the classic shardwise
  ``FleetSimulator.run`` / ``capacity_search`` results **byte-identically**
  (the ``engine="object"`` / ``strategy="linear"`` differential pattern);
* a spanning group is genuinely fleet-owned: concurrent demand from two
  shards adds up in its peak, and its finite capacity is contended across
  shard boundaries at simulation time.
"""

import numpy as np
import pytest

from repro.cluster.fleet import (
    FleetSimulator,
    PoolTopology,
    pond_policy_factory,
    static_policy_factory,
)
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.pool_topology import PoolGroupLedger, replay_crossshard
from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig
from repro.core.prediction.combined import CombinedOperatingPoint

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def base_config(**kwargs):
    defaults = dict(cluster_id="topo", n_servers=6, duration_days=0.4,
                    mean_lifetime_hours=2.0, target_core_utilization=0.85,
                    seed=16)
    defaults.update(kwargs)
    return TraceGenConfig(**defaults)


class TestTopologyShape:
    def test_per_shard_matches_simulator_grouping(self):
        topo = PoolTopology.per_shard([5, 3], sockets_per_server=2,
                                      pool_size_sockets=4)
        # servers_per_group = 2: shard 0 -> groups 0,0,1,1,2; shard 1 (new
        # fleet ids) -> 3,3,4.
        assert topo.group_of == ((0, 0, 1, 1, 2), (3, 3, 4))
        assert topo.is_per_shard
        assert topo.spanning_group_ids == ()
        assert topo.groups_of_shard(1) == (3, 4)
        assert topo.local_group_ids(1) == {3: 0, 4: 1}
        assert topo.domain_of_group == (0, 0, 0, 1, 1)

    def test_spanning_blocks_ignore_shard_seams(self):
        topo = PoolTopology.spanning([3, 3], sockets_per_server=2,
                                     pool_size_sockets=4)
        # Fleet-wide enumeration: group = server_index // 2.
        assert topo.group_of == ((0, 0, 1), (1, 2, 2))
        assert not topo.is_per_shard
        assert topo.spanning_group_ids == (1,)
        assert topo.group_shards[1] == (0, 1)
        assert topo.group_server_count == (2, 2, 2)

    def test_provision_capacities_per_domain(self):
        topo = PoolTopology.per_shard([4, 2], 2, 4)
        peaks = {0: 10.0, 1: 30.0, 2: 5.0}
        caps, total = topo.provision_capacities(peaks, headroom=1.1)
        # Domain 0 (shard 0): groups 0,1 at 1.1 * 30; domain 1: group 2.
        assert caps == {0: 1.1 * 30.0, 1: 1.1 * 30.0, 2: 1.1 * 5.0}
        assert total == pytest.approx(2 * 1.1 * 30.0 + 1.1 * 5.0)

    def test_unpooled_per_shard(self):
        topo = PoolTopology.per_shard([3, 2], 2, 0)
        assert topo.group_of == ((-1, -1, -1), (-1, -1))
        assert topo.n_groups == 0
        assert topo.groups_of_shard(0) == ()
        assert topo.local_group_ids(1) == {}
        assert topo.is_per_shard
        assert PoolGroupLedger.for_topology(topo, 100.0).capacity_gb == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolTopology([], 2, 4)
        with pytest.raises(ValueError):
            PoolTopology([[0], [1]], 2, 3)  # not a sockets multiple
        with pytest.raises(ValueError):
            PoolTopology([[0, 2]], 2, 4)  # non-contiguous group ids
        with pytest.raises(ValueError):
            PoolTopology([[0], [0]], 2, 4, domain_of_group=[0, 1])
        with pytest.raises(ValueError):
            PoolTopology.per_shard([2], 2, -2)  # negative pool size
        with pytest.raises(ValueError):
            PoolTopology([[0, 0]], 2, 0)  # unpooled servers need group -1
        with pytest.raises(ValueError):
            PoolTopology([[-1, 0]], 2, 4)  # pooled fleets pool every server
        topo = PoolTopology.per_shard([2, 2], 2, 4)
        with pytest.raises(ValueError):  # shard sizes disagree with fleet
            FleetSimulator.sharded(2, base_config(), pool_topology=topo)
        with pytest.raises(ValueError):  # conflicting explicit pool size
            FleetSimulator.sharded(
                2, base_config(n_servers=2), pool_size_sockets=8,
                pool_topology=topo,
            )

    def test_object_engine_rejected_with_topology(self):
        # replay_crossshard only exists on the array engine; configuring the
        # object/linear differential paths with a topology must fail loudly
        # instead of silently replaying on the array engine.
        topo = PoolTopology.per_shard([6, 6], 2, 4)
        with pytest.raises(ValueError, match="array engine"):
            FleetSimulator.sharded(2, base_config(), pool_topology=topo,
                                   engine="object")
        with pytest.raises(ValueError, match="array engine"):
            FleetSimulator.sharded(2, base_config(), pool_topology=topo,
                                   scheduler_strategy="linear")
        fleet = FleetSimulator.sharded(2, base_config(), engine="object",
                                       pool_size_sockets=4)
        with pytest.raises(ValueError, match="array engine"):
            fleet.capacity_search(pool_topology=topo)

    def test_ledger_capacity_validation(self):
        topo = PoolTopology.per_shard([2], 2, 2)
        with pytest.raises(ValueError):
            PoolGroupLedger.for_topology(topo, {0: 1.0})  # group 1 missing


@pytest.fixture(scope="module")
def fleet_traces():
    fleet = FleetSimulator.sharded(3, base_config(), pool_size_sockets=4)
    return fleet.generate_traces()


class TestDegenerateDifferential:
    """Per-shard topology == classic shardwise path, byte for byte."""

    @pytest.mark.parametrize("factory_name", ["pond", "static"])
    def test_run_byte_identical(self, fleet_traces, factory_name):
        factory = (
            pond_policy_factory(OPERATING_POINT, seed=3)
            if factory_name == "pond"
            else static_policy_factory(fraction=0.25, seed=1)
        )
        legacy = FleetSimulator.sharded(3, base_config(), pool_size_sockets=4)
        reference = legacy.run(factory, traces=fleet_traces)

        topo = PoolTopology.per_shard([6, 6, 6], 2, 4)
        fleet = FleetSimulator.sharded(3, base_config(), pool_topology=topo)
        result = fleet.run(factory, traces=fleet_traces)

        assert result.savings == reference.savings
        for got, ref in zip(result.shards, reference.shards):
            assert got.result.placed_vms == ref.result.placed_vms
            assert got.result.rejected_vms == ref.result.rejected_vms
            assert got.result.server_peak_local_gb \
                == ref.result.server_peak_local_gb
            assert got.result.server_peak_total_gb \
                == ref.result.server_peak_total_gb
            assert got.result.pool_peak_gb == ref.result.pool_peak_gb
            assert got.result.total_pool_gb_allocated \
                == ref.result.total_pool_gb_allocated
            assert got.baseline_required_dram_gb \
                == ref.baseline_required_dram_gb
            assert np.array_equal(got.result.sample_buffer.rows(),
                                  ref.result.sample_buffer.rows())
            assert got.savings == ref.savings

    def test_run_byte_identical_streamed(self):
        factory = static_policy_factory(fraction=0.3, seed=2)
        legacy = FleetSimulator.sharded(2, base_config(), pool_size_sockets=4,
                                        stream_chunk_size=64)
        reference = legacy.run(factory)
        topo = PoolTopology.per_shard([6, 6], 2, 4)
        fleet = FleetSimulator.sharded(2, base_config(), pool_topology=topo,
                                       stream_chunk_size=64)
        result = fleet.run(factory)
        assert result.savings == reference.savings
        for got, ref in zip(result.shards, reference.shards):
            assert got.result.server_peak_local_gb \
                == ref.result.server_peak_local_gb
            assert got.result.pool_peak_gb == ref.result.pool_peak_gb
            assert np.array_equal(got.result.sample_buffer.rows(),
                                  ref.result.sample_buffer.rows())

    def test_per_vm_callback_path_matches_batch(self, fleet_traces):
        topo = PoolTopology.per_shard([6, 6, 6], 2, 4)
        factory = pond_policy_factory(OPERATING_POINT, seed=3)
        fleet = FleetSimulator.sharded(3, base_config(), pool_topology=topo)
        batch = fleet.run(factory, traces=fleet_traces, batch=True)
        callback = fleet.run(factory, traces=fleet_traces, batch=False,
                             compute_baseline=False)
        assert batch.placed_vms == callback.placed_vms
        for got, ref in zip(batch.shards, callback.shards):
            assert got.result.server_peak_local_gb \
                == ref.result.server_peak_local_gb
            assert got.result.pool_peak_gb == ref.result.pool_peak_gb

    def test_capacity_search_byte_identical(self, fleet_traces):
        factory = static_policy_factory(fraction=0.25, seed=1)
        legacy = FleetSimulator.sharded(3, base_config(), pool_size_sockets=4)
        reference = legacy.capacity_search(factory, traces=fleet_traces,
                                           search_steps=4)
        topo = PoolTopology.per_shard([6, 6, 6], 2, 4)
        fleet = FleetSimulator.sharded(3, base_config(), pool_topology=topo)
        result = fleet.capacity_search(factory, traces=fleet_traces,
                                       search_steps=4)
        assert result.savings == reference.savings
        assert result.baseline_per_server_gb == reference.baseline_per_server_gb
        assert result.pooled_per_server_gb == reference.pooled_per_server_gb
        assert result.per_shard_pool_capacity_gb \
            == reference.per_shard_pool_capacity_gb
        assert result.total_vms == reference.total_vms
        assert result.rejection_budget == reference.rejection_budget
        assert result.pool_topology is topo


def _two_shard_setup():
    """Two single-server shards with hand-built overlapping pooled VMs."""
    server = ServerConfig(name="tiny", sockets=2, cores_per_socket=4,
                          dram_per_socket_gb=64.0)
    cfgs = [
        TraceGenConfig(cluster_id=f"c{i}", n_servers=1, server_config=server,
                       duration_days=0.1, seed=i)
        for i in range(2)
    ]
    trace_a = ClusterTrace([
        VMTraceRecord(vm_id="a0", cluster_id="c0", arrival_s=0.0,
                      lifetime_s=100.0, cores=1, memory_gb=20.0),
    ], cluster_id="c0")
    trace_b = ClusterTrace([
        VMTraceRecord(vm_id="b0", cluster_id="c1", arrival_s=50.0,
                      lifetime_s=100.0, cores=1, memory_gb=20.0),
    ], cluster_id="c1")
    return cfgs, [trace_a, trace_b]


class TestSpanningSemantics:
    def test_concurrent_demand_adds_in_spanning_peak(self):
        cfgs, traces = _two_shard_setup()
        # One group over both servers (pool_size 4 sockets = 2 servers).
        topo = PoolTopology.spanning([1, 1], 2, 4)
        results, ledger = replay_crossshard(
            traces, [FixedFractionPolicy(0.5)] * 2, [1, 1],
            [cfg.server_config for cfg in cfgs], topo,
            float("inf"), False, 3600.0,
        )
        # Both VMs put 10 GB on the shared group; lifetimes overlap at
        # t in [50, 100], so the fleet-level peak is 20 -- not the 10 either
        # shard would report alone.
        assert ledger.peak_gb == {0: 20.0}
        assert [r.placed_vms for r in results] == [1, 1]
        # Spanned groups belong to the fleet, not to a shard.
        assert results[0].pool_peak_gb == {}

    def test_finite_capacity_contended_across_shards(self):
        cfgs, traces = _two_shard_setup()
        topo = PoolTopology.spanning([1, 1], 2, 4)
        results, ledger = replay_crossshard(
            traces, [FixedFractionPolicy(0.5)] * 2, [1, 1],
            [cfg.server_config for cfg in cfgs], topo,
            15.0, False, 3600.0,
        )
        # Shard 0 drew 10 of the 15 GB; shard 1's request for 10 more must
        # be rejected while the first VM is still running.
        assert results[0].placed_vms == 1
        assert results[1].rejected_vms == 1
        assert ledger.peak_gb == {0: 10.0}

        # The degenerate topology gives each shard its own 15 GB group, so
        # both fit: spanning genuinely changes feasibility.
        per_shard = PoolTopology.per_shard([1, 1], 2, 4)
        results2, _ = replay_crossshard(
            traces, [FixedFractionPolicy(0.5)] * 2, [1, 1],
            [cfg.server_config for cfg in cfgs], per_shard,
            15.0, False, 3600.0,
        )
        assert [r.placed_vms for r in results2] == [1, 1]

    def test_fleet_run_exposes_topology_views(self, fleet_traces):
        topo = PoolTopology.spanning([6, 6, 6], 2, 8)
        fleet = FleetSimulator.sharded(3, base_config(), pool_topology=topo)
        factory = static_policy_factory(fraction=0.25, seed=1)
        result = fleet.run(factory, traces=fleet_traces)
        assert result.pool_topology is topo
        assert set(result.fleet_pool_peak_gb) == set(range(topo.n_groups))
        assert result.required_pool_dram_gb > 0.0
        assert result.savings.required_pool_dram_gb \
            == result.required_pool_dram_gb
        # Shard-level pool peaks are deliberately empty under spanning.
        assert all(s.result.pool_peak_gb == {} for s in result.shards)

    def test_spanning_capacity_search_runs_and_provisions(self, fleet_traces):
        topo = PoolTopology.spanning([6, 6, 6], 2, 8)
        fleet = FleetSimulator.sharded(3, base_config())
        factory = static_policy_factory(fraction=0.25, seed=1)
        search = fleet.capacity_search(factory, traces=fleet_traces,
                                       search_steps=3, pool_topology=topo)
        assert search.pool_topology is topo
        caps = search.pool_capacity_gb_by_group
        assert set(caps) == set(range(topo.n_groups))
        # One fleet-wide provisioning domain: every group shares a capacity.
        assert len(set(caps.values())) == 1
        assert search.per_shard_pool_capacity_gb == ()
        assert search.savings.required_pool_dram_gb == pytest.approx(
            sum(caps.values())
        )


class BatchFractionPolicy:
    """Minimal decide_batch policy with per-shard fractions (no digests)."""

    def __init__(self, fraction):
        self.fraction = fraction

    def __call__(self, record):
        return self.fraction * record.memory_gb

    def decide_batch(self, block):
        cols = block.columns() if hasattr(block, "columns") else block
        return self.fraction * cols.memory_gb


class TestInlinedLoopDifferential:
    """The inlined cross-shard pump == the engine-method reference loop.

    ``replay_crossshard`` dispatches materialised uniform-SKU inputs to the
    flat-array inlined loop (`_replay_crossshard_inlined`); the
    engine-method event loop (`_replay_crossshard_events`) stays as the
    differential reference.  Everything observable must match byte for
    byte: placements, rejections, totals, per-server peaks, per-group
    ledger state, and the full sample matrices.
    """

    @pytest.fixture(scope="class")
    def shard_traces(self):
        from repro.cluster.tracegen import TraceGenerator
        traces = []
        for s, n in enumerate([6, 8, 5]):
            cfg = base_config(cluster_id=f"inl-{s}", n_servers=n,
                              target_core_utilization=0.93, seed=40 + s)
            traces.append(TraceGenerator(cfg).generate())
        return traces

    @staticmethod
    def _run(fn, traces, topo, policies, capacity):
        n_servers = [6, 8, 5]
        cfgs = [ServerConfig() for _ in n_servers]
        return fn(traces, policies, n_servers, cfgs, topo, capacity,
                  False, 3600.0, record_placements=True)

    @staticmethod
    def _assert_identical(a_out, b_out):
        (ra, la), (rb, lb) = a_out, b_out
        assert la.capacity_gb == lb.capacity_gb
        assert la.free_gb == lb.free_gb
        assert la.used_gb == lb.used_gb
        assert la.peak_gb == lb.peak_gb
        for x, y in zip(ra, rb):
            assert x.placed_vms == y.placed_vms
            assert x.rejected_vms == y.rejected_vms
            assert x.total_memory_gb_allocated == y.total_memory_gb_allocated
            assert x.total_pool_gb_allocated == y.total_pool_gb_allocated
            assert x.server_peak_local_gb == y.server_peak_local_gb
            assert x.server_peak_total_gb == y.server_peak_total_gb
            assert x.pool_peak_gb == y.pool_peak_gb
            assert x.placements == y.placements
            assert np.array_equal(x.sample_buffer.rows(),
                                  y.sample_buffer.rows())

    @pytest.mark.parametrize("topo_name", ["per_shard", "spanning"])
    @pytest.mark.parametrize("pol_name", ["callable", "batch", "zero"])
    @pytest.mark.parametrize("capacity", [120.0, 1e6])
    def test_byte_identical(self, shard_traces, topo_name, pol_name,
                            capacity):
        from repro.cluster.pool_topology import _replay_crossshard_events
        make = (PoolTopology.per_shard if topo_name == "per_shard"
                else PoolTopology.spanning)
        topo = make([6, 8, 5], 2, 16)
        policies = {
            "callable": [lambda r: 0.4 * r.memory_gb] * 3,
            "batch": [BatchFractionPolicy(0.3), BatchFractionPolicy(0.5),
                      BatchFractionPolicy(0.2)],
            "zero": [lambda r: 0.0] * 3,
        }[pol_name]
        self._assert_identical(
            self._run(replay_crossshard, shard_traces, topo, policies,
                      capacity),
            self._run(_replay_crossshard_events, shard_traces, topo,
                      policies, capacity),
        )

    def test_byte_identical_dict_capacity(self, shard_traces):
        from repro.cluster.pool_topology import _replay_crossshard_events
        topo = PoolTopology.spanning([6, 8, 5], 2, 16)
        caps = {g: 100.0 + 10.0 * g for g in range(topo.n_groups)}
        policies = [BatchFractionPolicy(0.4)] * 3
        self._assert_identical(
            self._run(replay_crossshard, shard_traces, topo, policies, caps),
            self._run(_replay_crossshard_events, shard_traces, topo,
                      policies, caps),
        )

    @pytest.mark.parametrize("slice_rows", [1, 7, 10**9])
    @pytest.mark.parametrize("topo_name", ["per_shard", "spanning"])
    def test_arrival_slices_byte_identical(self, shard_traces, slice_rows,
                                           topo_name, monkeypatch):
        """The merged arrival rows reach the inlined loop in slices; no
        slice boundary -- every row, mid-pump, or none at all -- may
        change a result."""
        import repro.cluster.pool_topology as pt
        monkeypatch.setattr(pt, "_ARRIVAL_SLICE_ROWS", slice_rows)
        make = (PoolTopology.per_shard if topo_name == "per_shard"
                else PoolTopology.spanning)
        topo = make([6, 8, 5], 2, 16)
        policies = [BatchFractionPolicy(0.5)] * 3
        inlined = self._run(pt._replay_crossshard_inlined, shard_traces,
                            topo, policies, 120.0)
        self._assert_identical(
            inlined,
            self._run(pt._replay_crossshard_events, shard_traces, topo,
                      policies, 120.0),
        )
        # 7 rows splits the fleet's arrivals; 10**9 holds them all.
        assert 7 < sum(len(trace) for trace in shard_traces) < 10**9
        assert sum(r.rejected_vms for r in inlined[0]) > 0

    def test_dispatcher_uses_inlined_loop(self, shard_traces, monkeypatch):
        """Materialised uniform-SKU inputs must take the inlined path."""
        import repro.cluster.pool_topology as pt
        calls = []
        inlined = pt._replay_crossshard_inlined

        def spy(*args, **kwargs):
            calls.append(1)
            return inlined(*args, **kwargs)

        monkeypatch.setattr(pt, "_replay_crossshard_inlined", spy)
        topo = PoolTopology.spanning([6, 8, 5], 2, 16)
        replay_crossshard(
            shard_traces, [BatchFractionPolicy(0.4)] * 3, [6, 8, 5],
            [ServerConfig()] * 3, topo, 120.0, False, 3600.0,
        )
        assert calls == [1]

    def test_dispatcher_falls_back_on_mixed_skus(self, shard_traces,
                                                 monkeypatch):
        """Mixed server SKUs must use the engine-method reference loop."""
        import repro.cluster.pool_topology as pt
        monkeypatch.setattr(
            pt, "_replay_crossshard_inlined",
            lambda *a, **k: pytest.fail("inlined loop used for mixed SKUs"),
        )
        cfgs = [ServerConfig(),
                ServerConfig(name="fat", dram_per_socket_gb=512.0),
                ServerConfig()]
        topo = PoolTopology.spanning([6, 8, 5], 2, 16)
        results, _ = replay_crossshard(
            shard_traces, [BatchFractionPolicy(0.4)] * 3, [6, 8, 5],
            cfgs, topo, 120.0, False, 3600.0,
        )
        assert sum(r.placed_vms for r in results) > 0
