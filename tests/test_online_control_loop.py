"""The online prediction-driven control loop (paper Sections 4.2-4.4).

Lock-down for the ``online=OnlineControlConfig(...)`` replay stage:

* **Differential**: with mitigation disabled (QoS threshold ``inf``) the
  online loop must be byte-identical to the static replay of the same
  policy -- sample rows, peaks, placements, counters -- through
  ``ClusterSimulator.run``, against the brute-force reference replay, and
  through the cross-shard topology pump (per-shard and spanning).
* **Determinism**: bit-reproducible across process-pool shard fan-out and
  under ``PYTHONHASHSEED`` variation (the mitigations fire from model
  predictions keyed on VM digests, so any hash()-order leak would show).
* **Monotonicity**: a stricter QoS threshold mitigates a superset of VMs.
* **Fault paths**: NaN/zero-sample telemetry, VMs departing
  mid-mitigation, and node-headroom exhaustion degrade gracefully with no
  negative pool-ledger drift.

Never compare two ``SimulationResult`` objects with ``==``: the sample
buffer compares by identity, so whole-object equality is always False for
independent runs.  Compare ``sample_buffer.rows()`` and the scalar fields.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from reference_replay import reference_replay
from repro.cluster import (
    ClusterSimulator,
    TraceGenConfig,
    TraceGenerator,
    pool_topology,
)
from repro.cluster.engine import ArrayPlacementEngine
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.cluster.fleet import (
    FleetSimulator,
    PoolTopology,
    prediction_policy_factory,
)
from repro.cluster.pool_topology import (
    _replay_crossshard_inlined,
    replay_crossshard,
)
from repro.cluster.server import ServerConfig
from repro.core.control_plane.online import (
    FALLBACK_SLOWDOWN_SCALE_PERCENT,
    OnlineControlConfig,
    OnlineControlStats,
    at_risk_mask,
    estimate_slowdown_batch,
)
from repro.core.policies import PredictionPolicy

DISABLED = OnlineControlConfig(qos_threshold_percent=float("inf"))


@pytest.fixture(scope="module")
def policy():
    return PredictionPolicy.train(seed=3)


@pytest.fixture(scope="module")
def trace():
    cfg = TraceGenConfig(n_servers=24, duration_days=1.0,
                         mean_lifetime_hours=2.0,
                         target_core_utilization=0.85, seed=11)
    return TraceGenerator(cfg).generate()


def assert_results_identical(a, b):
    """Byte-identity of two replays, field by field."""
    assert np.array_equal(a.sample_buffer.rows(), b.sample_buffer.rows())
    assert a.server_peak_local_gb == b.server_peak_local_gb
    assert a.server_peak_total_gb == b.server_peak_total_gb
    assert a.pool_peak_gb == b.pool_peak_gb
    assert a.placed_vms == b.placed_vms
    assert a.rejected_vms == b.rejected_vms
    assert a.total_memory_gb_allocated == b.total_memory_gb_allocated


CLUSTER = dict(n_servers=24, pool_size_sockets=8, constrain_memory=False,
               sample_interval_s=3600.0)


def make_simulator(**kwargs):
    return ClusterSimulator(**dict(CLUSTER, **kwargs))


class TestDisabledMitigationIsStatic:
    """QoS threshold ``inf`` is an "off" switch: ``run``/``replay_crossshard``
    drop it before the replay, so no QoS tick runs, the result stays
    byte-identical and still reports zeroed ``online_stats``.  The
    ``*_reference_loop`` tests hand the disabled config to the replay loop
    directly and pin it to the same output."""

    def test_array_engine_byte_identity(self, trace, policy, forbid):
        static = make_simulator().run(trace, policy)
        forbid(pool_topology._Controls, "_qos_tick")
        online = make_simulator().run(trace, policy, online=DISABLED)
        assert_results_identical(static, online)
        assert static.online_stats is None
        assert online.fault_stats is None
        stats = online.online_stats
        assert stats is not None
        assert stats.n_ticks == 0
        assert stats.n_checks == 0
        assert stats.n_mitigations == 0
        assert stats.mitigated_vm_ids == []

    def test_matches_object_engine_buffers(self, trace, policy):
        """The online replay reproduces the brute-force reference replay
        (which the retired object engine's pinned outputs also match)."""
        reference = reference_replay(trace, policy, **CLUSTER)
        online = make_simulator().run(trace, policy, online=DISABLED)
        assert_results_identical(reference, online)

    def test_constrained_replay_byte_identity(self, trace, policy, forbid):
        kwargs = dict(constrain_memory=True, pool_capacity_gb_per_group=600.0)
        static = make_simulator(**kwargs).run(trace, policy)
        forbid(pool_topology._Controls, "_qos_tick")
        online = make_simulator(**kwargs).run(trace, policy, online=DISABLED)
        assert_results_identical(static, online)

    @pytest.mark.parametrize("topology", ["per_shard", "spanning"])
    def test_crossshard_topologies(self, policy, topology, crossshard_case,
                                   forbid):
        common = crossshard_case(policy, topology, float("inf"), False)
        static_results, static_ledger = replay_crossshard(*common)
        forbid(pool_topology._Controls, "_qos_tick")
        online_results, online_ledger = replay_crossshard(*common,
                                                          online=DISABLED)
        for static, online in zip(static_results, online_results):
            assert_results_identical(static, online)
            assert online.online_stats == OnlineControlStats()
            assert online.fault_stats is None
        # One stats object per shard, never shared.
        assert online_results[0].online_stats is not \
            online_results[1].online_stats
        assert static_ledger.peak_gb == online_ledger.peak_gb

    def test_disabled_with_seeded_faults_keeps_fault_loop(self, trace,
                                                          policy):
        schedule = FaultSchedule([FaultEvent(30000.0, "fail", 0),
                                  FaultEvent(40000.0, "repair", 0)])
        kwargs = dict(constrain_memory=True, pool_capacity_gb_per_group=600.0)
        faulted = make_simulator(**kwargs).run(trace, policy,
                                               faults=schedule)
        both = make_simulator(**kwargs).run(trace, policy, online=DISABLED,
                                            faults=schedule)
        assert_results_identical(faulted, both)
        assert both.fault_stats.as_dict() == faulted.fault_stats.as_dict()
        assert both.fault_stats.n_fail_events == 1
        assert both.online_stats == OnlineControlStats()

    @pytest.mark.parametrize("kwargs", [
        {}, dict(constrain_memory=True, pool_capacity_gb_per_group=600.0)])
    def test_array_engine_reference_loop(self, trace, policy, kwargs,
                                         one_shard):
        static = make_simulator(**kwargs).run(trace, policy)
        (online,), _ = _replay_crossshard_inlined(
            *one_shard(make_simulator(**kwargs), trace, policy),
            online=DISABLED)
        assert_results_identical(static, online)
        assert online.online_stats == OnlineControlStats()

    @pytest.mark.parametrize("topology", ["per_shard", "spanning"])
    def test_crossshard_reference_loop(self, policy, topology,
                                       crossshard_case):
        common = crossshard_case(policy, topology, float("inf"), False)
        static_results, static_ledger = replay_crossshard(*common)
        online_results, online_ledger = _replay_crossshard_inlined(
            *common, online=DISABLED)
        for static, online in zip(static_results, online_results):
            assert_results_identical(static, online)
            assert online.online_stats == OnlineControlStats()
        assert static_ledger.peak_gb == online_ledger.peak_gb
        assert static_ledger.used_gb == online_ledger.used_gb

    def test_crossshard_shard_agrees_with_single_cluster(self, policy):
        """Per-shard topology online replay == the same shard run alone."""
        cfg = TraceGenConfig(cluster_id="solo", n_servers=8,
                             duration_days=0.6, mean_lifetime_hours=2.0,
                             target_core_utilization=0.85, seed=33)
        shard_trace = TraceGenerator(cfg).generate()
        online = OnlineControlConfig(qos_threshold_percent=5.0)
        topo = PoolTopology.per_shard([8], 2, 8)
        results, _ = replay_crossshard(
            [shard_trace], [policy], [8], [cfg.server_config], topo,
            float("inf"), False, 3600.0, online=online,
        )
        solo = make_simulator(n_servers=8, pool_size_sockets=8).run(
            shard_trace, policy, online=online)
        assert_results_identical(solo, results[0])
        assert solo.online_stats.n_mitigations == \
            results[0].online_stats.n_mitigations
        assert solo.online_stats.mitigated_vm_ids == \
            results[0].online_stats.mitigated_vm_ids
        assert solo.online_stats.migrated_gb == \
            results[0].online_stats.migrated_gb


class TestMitigationEffects:
    def test_enabled_mitigation_reaches_online_loop(self, trace, policy,
                                                    monkeypatch):
        calls = []
        original = pool_topology._replay_crossshard_inlined

        def spy(*args, **kwargs):
            calls.append(kwargs["online"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pool_topology, "_replay_crossshard_inlined", spy)
        enabled = OnlineControlConfig(qos_threshold_percent=5.0)
        result = make_simulator().run(trace, policy, online=enabled)
        assert calls == [enabled]
        assert result.online_stats.n_ticks > 0
    def test_mitigation_fires_and_accounts(self, trace, policy):
        online = OnlineControlConfig(qos_threshold_percent=5.0,
                                     migration_cost_s_per_gb=0.25)
        result = make_simulator().run(trace, policy, online=online)
        stats = result.online_stats
        assert stats.n_ticks > 0
        assert stats.n_mitigations > 0
        assert stats.migrated_gb > 0.0
        assert stats.migration_time_s == pytest.approx(
            0.25 * stats.migrated_gb)
        assert stats.mean_mitigation_s == pytest.approx(
            stats.migration_time_s / stats.n_mitigations)
        assert len(stats.mitigated_vm_ids) == stats.n_mitigations
        # A VM is mitigated at most once (its pool share is gone after).
        assert len(set(stats.mitigated_vm_ids)) == stats.n_mitigations

    def test_at_risk_mask_monotone_in_threshold(self, trace, policy):
        """The flagging predicate itself is monotone: lowering the
        threshold can only grow the mask (pure function of the batch)."""
        pool_gb = policy.decide_batch(trace)
        slowdowns = estimate_slowdown_batch(policy, trace, pool_gb)
        previous = None
        for threshold in (1.0, 3.0, 8.0, 20.0, float("inf")):
            mask = at_risk_mask(slowdowns, pool_gb, threshold)
            if previous is not None:
                assert np.all(previous | ~mask)  # mask subset of previous
            previous = mask
        assert not at_risk_mask(slowdowns, pool_gb, float("inf")).any()

    def test_threshold_monotone_superset(self, trace, policy):
        """Stricter threshold => superset of mitigated VMs end to end.

        Flagging depends only on (policy, trace, threshold) -- never on
        placement -- and the unconstrained replay cannot fail a
        mitigation, so the mitigated set is the flagged subset of the
        placed VMs and shrinks as the threshold loosens.
        """
        mitigated, rejected = {}, set()
        for threshold in (3.0, 8.0, 20.0):
            online = OnlineControlConfig(qos_threshold_percent=threshold)
            result = make_simulator().run(trace, policy, online=online)
            assert result.online_stats.n_failed_mitigations == 0
            rejected.add(result.rejected_vms)
            mitigated[threshold] = set(result.online_stats.mitigated_vm_ids)
        # Core-fragmentation rejections must not vary with the threshold,
        # or the placed population itself would confound the comparison.
        assert len(rejected) == 1
        assert mitigated[3.0] >= mitigated[8.0] >= mitigated[20.0]
        assert mitigated[3.0] > mitigated[20.0]  # thresholds actually bite


class TestDeterminism:
    def _fleet(self, max_workers):
        base = TraceGenConfig(cluster_id="det", n_servers=8,
                              duration_days=0.6, mean_lifetime_hours=2.0,
                              target_core_utilization=0.85, seed=5)
        return FleetSimulator.sharded(2, base, pool_size_sockets=8,
                                      max_workers=max_workers)

    def test_serial_equals_process_pool(self, policy):
        online = OnlineControlConfig(qos_threshold_percent=5.0)
        factory = prediction_policy_factory(policy=policy)
        serial = self._fleet(max_workers=None).run(factory, online=online)
        pooled = self._fleet(max_workers=2).run(factory, online=online)
        for a, b in zip(serial.shards, pooled.shards):
            assert_results_identical(a.result, b.result)
            assert a.result.online_stats.mitigated_vm_ids == \
                b.result.online_stats.mitigated_vm_ids
        merged_a, merged_b = serial.online_stats, pooled.online_stats
        assert merged_a.n_mitigations == merged_b.n_mitigations
        assert merged_a.migrated_gb == merged_b.migrated_gb
        assert merged_a.n_mitigations > 0

    _SUBPROCESS_SNIPPET = """
import numpy as np
from repro.cluster import (
    ClusterSimulator,
    TraceGenConfig,
    TraceGenerator,
    pool_topology,
)
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import PredictionPolicy

cfg = TraceGenConfig(n_servers=8, duration_days=0.5, mean_lifetime_hours=2.0,
                     target_core_utilization=0.85, seed=11)
trace = TraceGenerator(cfg).generate()
policy = PredictionPolicy.train(seed=3, n_samples=256)
sim = ClusterSimulator(n_servers=8, pool_size_sockets=8,
                       constrain_memory=False, sample_interval_s=3600.0)
result = sim.run(trace, policy,
                 online=OnlineControlConfig(qos_threshold_percent=5.0))
stats = result.online_stats
print(stats.n_mitigations, repr(stats.mitigated_vm_ids))
print(repr(result.sample_buffer.rows().tobytes().hex()))
"""

    def _replay_output(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self._SUBPROCESS_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    def test_online_replay_independent_of_hash_seed(self):
        baseline = self._replay_output("0")
        n_mitigations = int(baseline.split()[0])
        assert n_mitigations > 0  # the loop actually mitigated something
        assert self._replay_output("12345") == baseline
        assert self._replay_output("random") == baseline


class TestSlowdownEstimation:
    def test_nan_predictions_become_infinite_slowdown(self, trace):
        class NaNPolicy:
            def predict_slowdown_batch(self, chunk, pool_gb):
                return np.full(len(pool_gb), np.nan)

        pool_gb = np.array([1.0, 0.0, 2.0])
        slowdowns = estimate_slowdown_batch(NaNPolicy(), trace[:3], pool_gb)
        assert np.all(np.isinf(slowdowns))
        # NaN telemetry must flag, not silently pass, the at-risk check.
        mask = at_risk_mask(slowdowns, pool_gb, 5.0)
        assert mask.tolist() == [True, False, True]

    def test_zero_sample_telemetry(self, policy):
        slowdowns = estimate_slowdown_batch(
            policy, [], np.zeros(0, dtype=np.float64))
        assert slowdowns.shape == (0,)
        assert at_risk_mask(slowdowns, np.zeros(0), 5.0).shape == (0,)

    def test_fallback_estimator_without_batch_policy(self, trace):
        records = list(trace[:4])
        pool_gb = np.array([r.memory_gb * 0.5 for r in records])
        slowdowns = estimate_slowdown_batch(None, records, pool_gb)
        spill = np.array([
            max(p - r.untouched_fraction * r.memory_gb, 0.0)
            for r, p in zip(records, pool_gb)
        ])
        expected = FALLBACK_SLOWDOWN_SCALE_PERCENT * spill / np.array(
            [max(r.memory_gb, 1e-12) for r in records])
        assert np.allclose(slowdowns, expected)


class TestEngineFaultPaths:
    def _engine(self, dram_per_socket_gb=64.0, pool_capacity_gb=100.0):
        config = ServerConfig(name="tiny", sockets=2, cores_per_socket=8,
                              dram_per_socket_gb=dram_per_socket_gb)
        return ArrayPlacementEngine.for_cluster(
            1, config, pool_size_sockets=2,
            pool_capacity_gb_per_group=pool_capacity_gb)

    def test_migrate_no_pool_is_noop(self):
        engine = self._engine()
        handle = engine.place(2, 10.0, 0.0)
        assert engine.migrate_pool_to_local(handle) == 0.0

    def test_migrate_moves_ledger_consistently(self):
        engine = self._engine()
        handle = engine.place(2, 10.0, 30.0)
        assert engine.pool_used_gb[0] == 30.0
        moved = engine.migrate_pool_to_local(handle)
        assert moved == 30.0
        assert engine.pool_used_gb[0] == 0.0
        assert engine.pool_free_gb[0] == 100.0
        assert engine.used_local_gb == 40.0
        # Second call: the pool share is gone, nothing to move.
        assert engine.migrate_pool_to_local(handle) == 0.0
        # Departure after mitigation must not drive the ledger negative.
        engine.remove(handle)
        assert engine.pool_used_gb[0] == 0.0
        assert engine.pool_free_gb[0] == 100.0

    def test_migrate_fails_without_headroom_and_keeps_ledger(self):
        engine = self._engine(dram_per_socket_gb=32.0)
        # 30 GB local on one node; the 20 GB pool share cannot fit back.
        handle = engine.place(2, 30.0, 20.0)
        assert engine.migrate_pool_to_local(handle) == -1.0
        # A failed mitigation leaves every ledger untouched.
        assert engine.pool_used_gb[0] == 20.0
        assert engine.used_local_gb == 30.0
        engine.remove(handle)
        assert engine.pool_used_gb[0] == 0.0
        assert engine.pool_free_gb[0] == 100.0

    def test_failed_mitigations_counted_and_retried(self, policy):
        """A replay where mitigation cannot fit records failures, keeps
        retrying, and never drives pool ledgers negative."""
        small_servers = ServerConfig(name="cramped", sockets=2,
                                     cores_per_socket=24,
                                     dram_per_socket_gb=48.0)
        cfg = TraceGenConfig(n_servers=6, duration_days=0.6,
                             mean_lifetime_hours=2.0,
                             target_core_utilization=0.95, seed=13,
                             server_config=small_servers)
        tight_trace = TraceGenerator(cfg).generate()
        sim = ClusterSimulator(n_servers=6, server_config=small_servers,
                               pool_size_sockets=8, constrain_memory=True,
                               sample_interval_s=1800.0)
        result = sim.run(tight_trace, policy,
                         online=OnlineControlConfig(qos_threshold_percent=1.0))
        stats = result.online_stats
        assert stats.n_checks > 0
        # Graceful degradation: every ledger sample stays non-negative.
        rows = result.sample_buffer.rows()
        assert np.all(rows[:, 4] >= 0.0)  # pool_used column
        assert all(peak >= 0.0 for peak in result.pool_peak_gb.values())


class TestControlPlaneFaults:
    def _vm(self, host, pool_gb=8.0, local_gb=8.0, touched=None):
        from repro.hypervisor.vm import VMRequest
        request = VMRequest(vm_id="vm-1", cores=2,
                            memory_gb=local_gb + pool_gb)
        vm = host.place_vm(request, local_gb=local_gb, pool_gb=pool_gb,
                           start_time_s=0.0)
        vm.record_touch(touched if touched is not None
                        else local_gb + pool_gb)
        return vm

    def _host(self):
        from repro.hypervisor.host import Host
        host = Host("h0", total_cores=16, local_memory_gb=64.0)
        host.online_pool_memory(32.0)
        return host

    def test_nan_telemetry_mitigates(self):
        from repro.core.config import PondConfig
        from repro.core.control_plane.qos_monitor import QoSMonitor, QoSVerdict

        host = self._host()
        vm = self._vm(host)
        monitor = QoSMonitor(PondConfig(),
                             slowdown_estimator=lambda vm: float("nan"))
        decision = monitor.check_vm(vm)
        assert decision.verdict is QoSVerdict.MITIGATE
        assert math.isnan(decision.estimated_slowdown_percent)

    def test_departed_vm_mitigation_missing_ok(self):
        from repro.core.control_plane.mitigation import MitigationManager

        host = self._host()
        self._vm(host)
        host.terminate_vm("vm-1", time_s=10.0)
        manager = MitigationManager()
        record = manager.mitigate(host, "vm-1", missing_ok=True)
        assert record.method == "vm_departed"
        assert record.moved_gb == 0.0
        # Departed-race records are neither mitigations nor failures.
        assert manager.n_mitigations == 0
        assert manager.n_failures == 0
        # The default contract is unchanged: unknown VM raises.
        with pytest.raises(KeyError):
            manager.mitigate(host, "vm-1")


class TestOnlineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineControlConfig(qos_threshold_percent=0.0)
        with pytest.raises(ValueError):
            OnlineControlConfig(qos_threshold_percent=5.0,
                                migration_cost_s_per_gb=-1.0)

    def test_mitigation_enabled(self):
        assert OnlineControlConfig(qos_threshold_percent=5.0).mitigation_enabled
        assert not DISABLED.mitigation_enabled

    def test_stats_merge(self):
        a = OnlineControlStats(n_ticks=2, n_checks=5, n_mitigations=1,
                               migrated_gb=4.0, migration_time_s=0.8,
                               mitigated_vm_ids=["x"])
        b = OnlineControlStats(n_ticks=1, n_checks=2, n_mitigations=2,
                               n_failed_mitigations=1, migrated_gb=6.0,
                               migration_time_s=1.2,
                               mitigated_vm_ids=["y", "z"])
        merged = OnlineControlStats().add(a).add(b)
        assert merged.n_ticks == 3
        assert merged.n_checks == 7
        assert merged.n_mitigations == 3
        assert merged.n_failed_mitigations == 1
        assert merged.migrated_gb == pytest.approx(10.0)
        assert merged.mitigated_vm_ids == ["x", "y", "z"]
        assert merged.mean_mitigation_s == pytest.approx(2.0 / 3.0)
        assert OnlineControlStats().mean_mitigation_s == 0.0
