"""EMC fault injection and graceful pool degradation (DESIGN.md section 11).

Lock-down for the ``faults=FaultSchedule(...)`` replay stage:

* **Differential**: an empty schedule is dropped before dispatch, so the
  replay takes the static loops; the fault-aware events loop, called
  directly with it, must stay byte-identical to the static replay -- on a
  single cluster (a one-shard fleet), composed with the online control
  loop, and on both cross-shard topologies.
* **Determinism**: seeded schedules replay bit-identically across
  process-pool vs serial fleet fan-out (``as_dict`` canonical forms).
* **Degradation ladder**: pool-to-local first, live migration second,
  recorded kill last -- every affected VM accounted, never silently
  dropped; killing a spanning group yields nonzero stranding and blast
  radius with no negative ledger values.
* **Ledger invariants**: free/used/peak never negative across arbitrary
  degrade/allocate/release/repair interleavings.
"""

import random

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    ServerConfig,
    TraceGenConfig,
    TraceGenerator,
    pool_topology,
)
from repro.cluster.faults import (
    FaultEvent,
    FaultImpactStats,
    FaultSchedule,
)
from repro.cluster.fleet import (
    FleetSimulator,
    PoolTopology,
    static_policy_factory,
)
from repro.cluster.pool_topology import (
    PoolGroupLedger,
    _replay_crossshard_events,
    replay_crossshard,
)
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import StaticFractionPolicy


@pytest.fixture(scope="module")
def policy():
    return StaticFractionPolicy(fraction=0.3)


@pytest.fixture(scope="module")
def trace():
    cfg = TraceGenConfig(n_servers=24, duration_days=1.0,
                         mean_lifetime_hours=2.0,
                         target_core_utilization=0.85, seed=11)
    return TraceGenerator(cfg).generate()


def make_simulator(**kwargs):
    defaults = dict(n_servers=24, pool_size_sockets=8,
                    constrain_memory=False, sample_interval_s=3600.0,
                    engine="array")
    defaults.update(kwargs)
    return ClusterSimulator(**defaults)


def assert_results_identical(a, b):
    assert np.array_equal(a.sample_buffer.rows(), b.sample_buffer.rows())
    assert a.server_peak_local_gb == b.server_peak_local_gb
    assert a.server_peak_total_gb == b.server_peak_total_gb
    assert a.pool_peak_gb == b.pool_peak_gb
    assert a.placed_vms == b.placed_vms
    assert a.rejected_vms == b.rejected_vms
    assert a.total_memory_gb_allocated == b.total_memory_gb_allocated


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "explode", 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FaultEvent(-1.0, "fail", 0)

    @pytest.mark.parametrize("severity", [0.0, -0.5, 1.5])
    def test_severity_bounds(self, severity):
        with pytest.raises(ValueError, match="severity"):
            FaultEvent(0.0, "fail", 0, severity=severity)

    def test_negative_group_and_shard_rejected(self):
        with pytest.raises(ValueError, match="group"):
            FaultEvent(0.0, "fail", -1)
        with pytest.raises(ValueError, match="shard"):
            FaultEvent(0.0, "fail", 0, shard=-1)


class TestFaultSchedule:
    def test_events_time_sorted_stably(self):
        sched = FaultSchedule([
            FaultEvent(10.0, "repair", 1),
            FaultEvent(5.0, "fail", 0),
            FaultEvent(10.0, "fail", 2),
        ])
        assert [(e.time_s, e.kind) for e in sched] == [
            (5.0, "fail"), (10.0, "repair"), (10.0, "fail")]
        assert len(sched) == 3

    def test_retry_budget_validated(self):
        with pytest.raises(ValueError, match="migration_retry_budget"):
            FaultSchedule(migration_retry_budget=0)

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule([("fail", 0)])

    def test_seeded_is_deterministic(self):
        kwargs = dict(groups=(0, 1, 2), horizon_s=86400.0,
                      mean_time_between_failures_s=20000.0,
                      repair_delay_s=5000.0, seed=7)
        a = FaultSchedule.seeded(**kwargs)
        b = FaultSchedule.seeded(**kwargs)
        assert [e for e in a] == [e for e in b]
        assert len(a) > 0
        # Different seed, different timeline.
        c = FaultSchedule.seeded(**{**kwargs, "seed": 8})
        assert [e for e in a] != [e for e in c]

    def test_seeded_repairs_paired_inside_horizon(self):
        sched = FaultSchedule.seeded(groups=(0,), horizon_s=86400.0,
                                     mean_time_between_failures_s=10000.0,
                                     repair_delay_s=4000.0, seed=1)
        fails = [e for e in sched if e.kind == "fail"]
        repairs = [e for e in sched if e.kind == "repair"]
        assert len(fails) - len(repairs) in (0, 1)
        for e in sched:
            assert 0.0 <= e.time_s < 86400.0

    def test_for_shard_filters_and_rehomes(self):
        sched = FaultSchedule([
            FaultEvent(1.0, "fail", 0, shard=0),
            FaultEvent(2.0, "fail", 1, shard=1),
            FaultEvent(3.0, "repair", 1, shard=1),
        ], migration_retry_budget=5)
        sub = sched.for_shard(1)
        assert [(e.time_s, e.kind, e.group, e.shard) for e in sub] == [
            (2.0, "fail", 1, 0), (3.0, "repair", 1, 0)]
        assert sub.migration_retry_budget == 5
        assert sched.for_shard(2).events == ()

    def test_groups_listing(self):
        sched = FaultSchedule([FaultEvent(1.0, "fail", 3),
                               FaultEvent(2.0, "fail", 1),
                               FaultEvent(3.0, "repair", 3)])
        assert sched.groups() == (1, 3)

    def test_unknown_group_rejected_at_replay(self, trace, policy):
        sched = FaultSchedule([FaultEvent(0.0, "fail", 99)])
        with pytest.raises(ValueError, match="do not exist"):
            make_simulator().run(trace, policy, faults=sched)

    def test_object_engine_rejected(self, trace, policy):
        with pytest.raises(ValueError, match="array"):
            make_simulator(engine="object").run(
                trace, policy, faults=FaultSchedule())


class TestLedgerDegradation:
    def test_degrade_and_repair_roundtrip(self):
        ledger = PoolGroupLedger({0: 100.0, 1: 100.0})
        ledger.used_gb[0] = 30.0
        ledger.free_gb[0] = 70.0
        deficit = ledger.degrade(0, 1.0)
        assert deficit == pytest.approx(30.0)
        assert ledger.capacity_gb[0] == 0.0
        assert ledger.free_gb[0] == 0.0
        assert ledger.is_degraded(0)
        assert ledger.degraded_groups == (0,)
        ledger.repair(0)
        assert ledger.capacity_gb[0] == 100.0
        assert ledger.free_gb[0] == pytest.approx(70.0)
        assert not ledger.is_degraded(0)

    def test_partial_loss(self):
        ledger = PoolGroupLedger({0: 100.0})
        ledger.used_gb[0] = 40.0
        ledger.free_gb[0] = 60.0
        deficit = ledger.degrade(0, 0.5)
        assert ledger.capacity_gb[0] == pytest.approx(50.0)
        assert ledger.free_gb[0] == pytest.approx(10.0)
        assert deficit == 0.0

    def test_double_degrade_cuts_from_healthy(self):
        """Severity always applies to *healthy* capacity, not compounding."""
        ledger = PoolGroupLedger({0: 100.0})
        ledger.degrade(0, 0.5)
        ledger.degrade(0, 0.25)
        assert ledger.capacity_gb[0] == pytest.approx(75.0)
        ledger.repair(0)
        assert ledger.capacity_gb[0] == 100.0

    def test_degrade_validation(self):
        ledger = PoolGroupLedger({0: 100.0})
        with pytest.raises(KeyError):
            ledger.degrade(5, 1.0)
        with pytest.raises(ValueError):
            ledger.degrade(0, 0.0)
        with pytest.raises(ValueError):
            ledger.degrade(0, 1.5)

    def test_repair_without_degrade_is_noop(self):
        ledger = PoolGroupLedger({0: 100.0})
        ledger.free_gb[0] = 60.0
        ledger.used_gb[0] = 40.0
        ledger.repair(0)
        assert ledger.capacity_gb[0] == 100.0
        assert ledger.free_gb[0] == 60.0

    def test_resync_clamps_only_degraded(self):
        ledger = PoolGroupLedger({0: 100.0, 1: 100.0})
        ledger.used_gb[0] = 20.0
        ledger.degrade(0, 1.0)
        # Engine-style unconditional release credit overshoots...
        ledger.used_gb[0] = 10.0
        ledger.free_gb[0] += 10.0
        ledger.resync(0)
        assert ledger.free_gb[0] == 0.0  # ...and resync re-clamps it.
        ledger.free_gb[1] = 55.0
        ledger.resync(1)  # healthy group untouched
        assert ledger.free_gb[1] == 55.0

    def test_infinite_capacity_partial_loss_stays_infinite(self):
        ledger = PoolGroupLedger({0: float("inf")})
        ledger.degrade(0, 0.5)
        assert ledger.capacity_gb[0] == float("inf")
        ledger.degrade(0, 1.0)
        assert ledger.capacity_gb[0] == 0.0

    def test_property_style_invariants_random_cycles(self):
        """free/used/peak never negative under random engine-style traffic
        interleaved with degrade/resync/repair, on a multi-group ledger."""
        rng = random.Random(42)
        ledger = PoolGroupLedger({g: 200.0 for g in range(4)})
        live = {g: [] for g in range(4)}
        for _ in range(2000):
            g = rng.randrange(4)
            op = rng.random()
            if op < 0.45:  # engine draw
                want = rng.uniform(1.0, 40.0)
                if ledger.free_gb[g] >= want:
                    ledger.free_gb[g] -= want
                    ledger.used_gb[g] += want
                    ledger.peak_gb[g] = max(ledger.peak_gb[g],
                                            ledger.used_gb[g])
                    live[g].append(want)
            elif op < 0.8 and live[g]:  # engine release (+ resync clamp)
                amount = live[g].pop(rng.randrange(len(live[g])))
                ledger.used_gb[g] -= amount
                ledger.free_gb[g] += amount
                ledger.resync(g)
            elif op < 0.9:
                ledger.degrade(g, rng.choice([0.25, 0.5, 1.0]))
            else:
                ledger.repair(g)
            for group in range(4):
                assert ledger.free_gb[group] >= 0.0
                assert ledger.used_gb[group] >= -1e-9
                assert ledger.peak_gb[group] >= 0.0
                if ledger.is_degraded(group):
                    assert (ledger.free_gb[group]
                            <= ledger.capacity_gb[group] + 1e-9)


class TestEmptyScheduleByteIdentity:
    """An empty schedule is an "off" switch: ``run``/``replay_crossshard``
    drop it before dispatch, so the replay takes the static loops, stays
    byte-identical and still reports zeroed ``fault_stats``.  The
    ``*_reference_loop`` tests call the fault-aware loops directly and pin
    them to the same output."""

    def test_single_cluster(self, trace, policy, forbid):
        static = make_simulator().run(trace, policy)
        forbid(pool_topology, "_replay_crossshard_events")
        faulted = make_simulator().run(trace, policy, faults=FaultSchedule())
        assert_results_identical(static, faulted)
        assert static.fault_stats is None
        assert faulted.online_stats is None
        stats = faulted.fault_stats
        assert stats is not None
        assert stats.n_fail_events == 0
        assert stats.vms_affected == 0
        assert stats.as_dict() == FaultImpactStats().as_dict()

    def test_single_cluster_constrained(self, trace, policy, forbid):
        kwargs = dict(constrain_memory=True, pool_capacity_gb_per_group=600.0)
        static = make_simulator(**kwargs).run(trace, policy)
        forbid(pool_topology, "_replay_crossshard_events")
        faulted = make_simulator(**kwargs).run(trace, policy,
                                               faults=FaultSchedule())
        assert_results_identical(static, faulted)

    def test_composes_with_online_loop(self, trace, policy):
        online = OnlineControlConfig(qos_threshold_percent=5.0)
        plain = make_simulator().run(trace, policy, online=online)
        faulted = make_simulator().run(trace, policy, online=online,
                                       faults=FaultSchedule())
        assert_results_identical(plain, faulted)
        assert plain.online_stats.n_mitigations == \
            faulted.online_stats.n_mitigations
        assert plain.online_stats.mitigated_vm_ids == \
            faulted.online_stats.mitigated_vm_ids
        assert faulted.fault_stats.as_dict() == FaultImpactStats().as_dict()

    @pytest.mark.parametrize("topology", ["per_shard", "spanning"])
    def test_crossshard_topologies(self, policy, topology, crossshard_case,
                                   forbid):
        common = crossshard_case(policy, topology, 600.0, True)
        static_results, static_ledger = replay_crossshard(*common)
        forbid(pool_topology, "_replay_crossshard_events")
        faulted_results, faulted_ledger = replay_crossshard(
            *common, faults=FaultSchedule())
        for static, faulted in zip(static_results, faulted_results):
            assert_results_identical(static, faulted)
            assert faulted.fault_stats.as_dict() == \
                FaultImpactStats().as_dict()
            assert faulted.online_stats is None
        # One stats object per shard, never shared.
        assert faulted_results[0].fault_stats is not \
            faulted_results[1].fault_stats
        assert static_ledger.peak_gb == faulted_ledger.peak_gb
        assert static_ledger.free_gb == faulted_ledger.free_gb

    def test_fleet_run(self, forbid):
        cfg = TraceGenConfig(cluster_id="route", n_servers=8,
                             duration_days=0.4, mean_lifetime_hours=2.0,
                             seed=5)
        topo = PoolTopology.spanning([8, 8], 2, 8)
        fleet = FleetSimulator.sharded(2, cfg, pool_topology=topo)
        traces = fleet.generate_traces()
        factory = static_policy_factory(fraction=0.3)
        static = fleet.run(factory, traces=traces, compute_baseline=False)
        forbid(pool_topology, "_replay_crossshard_events")
        faulted = fleet.run(factory, traces=traces, compute_baseline=False,
                            faults=FaultSchedule())
        for a, b in zip(static.shards, faulted.shards):
            assert_results_identical(a.result, b.result)
            assert b.result.fault_stats is not None
        assert faulted.fault_stats.as_dict() == FaultImpactStats().as_dict()

    @pytest.mark.parametrize("kwargs", [
        {}, dict(constrain_memory=True, pool_capacity_gb_per_group=600.0)])
    def test_single_cluster_reference_loop(self, trace, policy, kwargs,
                                           one_shard):
        static = make_simulator(**kwargs).run(trace, policy)
        (faulted,), _ = _replay_crossshard_events(
            *one_shard(make_simulator(**kwargs), trace, policy),
            faults=FaultSchedule())
        assert_results_identical(static, faulted)
        assert faulted.fault_stats.as_dict() == FaultImpactStats().as_dict()

    @pytest.mark.parametrize("topology", ["per_shard", "spanning"])
    def test_crossshard_reference_loop(self, policy, topology,
                                       crossshard_case):
        common = crossshard_case(policy, topology, 600.0, True)
        static_results, static_ledger = replay_crossshard(*common)
        faulted_results, faulted_ledger = _replay_crossshard_events(
            *common, faults=FaultSchedule())
        for static, faulted in zip(static_results, faulted_results):
            assert_results_identical(static, faulted)
        assert static_ledger.peak_gb == faulted_ledger.peak_gb
        assert static_ledger.free_gb == faulted_ledger.free_gb
        assert static_ledger.used_gb == faulted_ledger.used_gb

    def test_online_reference_loop(self, trace, policy, one_shard):
        """Enabled mitigation next to an empty schedule: the fault-aware
        online loop (token-indirected departures, injector hooks) must
        match the online loop without faults."""
        online = OnlineControlConfig(qos_threshold_percent=5.0)
        plain = make_simulator().run(trace, policy, online=online)
        (faulted,), _ = _replay_crossshard_events(
            *one_shard(make_simulator(), trace, policy), online=online,
            faults=FaultSchedule())
        assert_results_identical(plain, faulted)
        assert plain.online_stats.n_mitigations > 0
        assert plain.online_stats == faulted.online_stats
        assert faulted.fault_stats.as_dict() == FaultImpactStats().as_dict()

    @pytest.mark.parametrize("topology", ["per_shard", "spanning"])
    def test_crossshard_online_reference_loop(self, policy, topology,
                                              crossshard_case):
        online = OnlineControlConfig(qos_threshold_percent=5.0)
        common = crossshard_case(policy, topology, 600.0, True)
        plain, plain_ledger = replay_crossshard(*common, online=online)
        public, public_ledger = replay_crossshard(*common, online=online,
                                                  faults=FaultSchedule())
        faulted, faulted_ledger = _replay_crossshard_events(
            *common, online=online, faults=FaultSchedule())
        for a, b, c in zip(plain, public, faulted):
            assert_results_identical(a, b)
            assert_results_identical(a, c)
            assert a.online_stats == b.online_stats == c.online_stats
            for result in (b, c):
                assert result.fault_stats.as_dict() == \
                    FaultImpactStats().as_dict()
        assert sum(r.online_stats.n_mitigations for r in plain) > 0
        for ledger in (public_ledger, faulted_ledger):
            assert plain_ledger.peak_gb == ledger.peak_gb
            assert plain_ledger.free_gb == ledger.free_gb
            assert plain_ledger.used_gb == ledger.used_gb


def tight_fault_run(retry_budget=1, events=None):
    """A constrained replay whose failures exhaust the whole ladder."""
    srv = ServerConfig(name="tight", sockets=2, cores_per_socket=24,
                       dram_per_socket_gb=48.0)
    cfg = TraceGenConfig(n_servers=12, duration_days=1.0,
                         mean_lifetime_hours=6.0,
                         target_core_utilization=0.95, seed=13,
                         server_config=srv)
    trace = TraceGenerator(cfg).generate()
    if events is None:
        events = [FaultEvent(30000.0, "fail", 0),
                  FaultEvent(33000.0, "fail", 1)]
    sched = FaultSchedule(events, migration_retry_budget=retry_budget)
    sim = ClusterSimulator(n_servers=12, server_config=srv,
                           pool_size_sockets=8,
                           pool_capacity_gb_per_group=500.0,
                           constrain_memory=True, sample_interval_s=3600.0,
                           engine="array")
    return sim.run(trace, StaticFractionPolicy(fraction=0.6), faults=sched)


class TestDegradationLadder:
    def test_seeded_schedule_reaches_fault_loop(self, monkeypatch):
        calls = []
        original = pool_topology._replay_crossshard_events

        def spy(*args, **kwargs):
            calls.append(kwargs["faults"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pool_topology, "_replay_crossshard_events", spy)
        result = tight_fault_run()
        assert len(calls) == 1 and calls[0].events
        assert result.fault_stats.n_fail_events > 0

    def test_unpooled_cluster_rejects_schedule(self, trace, policy):
        """An unpooled cluster is a one-shard fleet with no groups, so a
        schedule naming a group is an error, not a silent no-op."""
        schedule = FaultSchedule([FaultEvent(100.0, "fail", 0)])
        with pytest.raises(ValueError, match=r"pool groups \[0\] that do "
                                             r"not exist"):
            make_simulator(pool_size_sockets=0).run(trace, policy,
                                                     faults=schedule)

    def test_all_three_rungs_fire_and_account(self):
        result = tight_fault_run(retry_budget=1)
        stats = result.fault_stats
        assert stats.vms_migrated_local > 0
        assert stats.vms_live_migrated > 0
        assert stats.vms_killed > 0
        # Every affected VM resolved through exactly one rung (budget=1
        # means no VM can still be pending at the end).
        assert stats.vms_affected == (stats.vms_migrated_local
                                      + stats.vms_live_migrated
                                      + stats.vms_killed)
        assert stats.killed_gb > 0.0
        assert stats.stranded_gb > 0.0
        assert len(stats.killed_vm_ids) == stats.vms_killed
        assert len(set(stats.killed_vm_ids)) == stats.vms_killed
        assert 0.0 < stats.survival_rate < 1.0
        assert stats.n_unrecovered == 2  # no repairs scheduled

    def test_larger_retry_budget_kills_no_more(self):
        """More retries can only convert kills into migrations."""
        strict = tight_fault_run(retry_budget=1).fault_stats
        patient = tight_fault_run(retry_budget=6).fault_stats
        assert patient.vms_killed <= strict.vms_killed
        assert patient.survival_rate >= strict.survival_rate

    def test_repair_recovery_latency_recorded(self):
        result = tight_fault_run(events=[
            FaultEvent(30000.0, "fail", 0),
            FaultEvent(42000.0, "repair", 0),
        ])
        stats = result.fault_stats
        assert stats.n_fail_events == 1
        assert stats.n_repair_events == 1
        assert stats.n_recoveries == 1
        assert stats.n_unrecovered == 0
        assert stats.recovery_latency_s_total == pytest.approx(12000.0)
        assert stats.recovery_latency_s_max == pytest.approx(12000.0)
        assert stats.mean_recovery_latency_s == pytest.approx(12000.0)

    def test_partial_severity_strands_less(self):
        full = tight_fault_run(events=[
            FaultEvent(30000.0, "fail", 0, severity=1.0)]).fault_stats
        half = tight_fault_run(events=[
            FaultEvent(30000.0, "fail", 0, severity=0.5)]).fault_stats
        assert half.stranded_gb <= full.stranded_gb
        assert half.vms_affected <= full.vms_affected
        assert half.capacity_lost_gb <= full.capacity_lost_gb

    def test_stats_merge_matches_componentwise_sum(self):
        a = tight_fault_run(retry_budget=1).fault_stats
        b = tight_fault_run(events=[
            FaultEvent(30000.0, "fail", 0),
            FaultEvent(42000.0, "repair", 0)]).fault_stats
        merged = FaultImpactStats()
        merged.add(a)
        merged.add(b)
        assert merged.vms_killed == a.vms_killed + b.vms_killed
        assert merged.stranded_gb == pytest.approx(
            a.stranded_gb + b.stranded_gb)
        assert merged.n_recoveries == a.n_recoveries + b.n_recoveries
        assert merged.recovery_latency_s_max == max(
            a.recovery_latency_s_max, b.recovery_latency_s_max)
        for group in set(a.blast_radius_by_group) | set(
                b.blast_radius_by_group):
            assert merged.blast_radius_by_group[group] == (
                a.blast_radius_by_group.get(group, 0)
                + b.blast_radius_by_group.get(group, 0))


class TestSpanningGroupKill:
    def make_fleet_traces(self):
        srv = ServerConfig(name="tight", sockets=2, cores_per_socket=24,
                           dram_per_socket_gb=48.0)
        cfgs = [
            TraceGenConfig(cluster_id=f"sg-{i}", n_servers=6,
                           duration_days=0.8, mean_lifetime_hours=4.0,
                           target_core_utilization=0.95, seed=40 + i,
                           server_config=srv)
            for i in range(2)
        ]
        return cfgs, [TraceGenerator(cfg).generate() for cfg in cfgs]

    def test_spanning_group_failure_hits_both_shards(self):
        cfgs, traces = self.make_fleet_traces()
        topo = PoolTopology.spanning([6, 6], 2, 8)
        assert topo.spanning_group_ids == (1,)
        sched = FaultSchedule([FaultEvent(20000.0, "fail", 1)],
                              migration_retry_budget=1)
        policies = [StaticFractionPolicy(fraction=0.6)] * 2
        results, ledger = replay_crossshard(
            traces, policies, [6, 6], [cfg.server_config for cfg in cfgs],
            topo, 150.0, True, 3600.0, faults=sched)
        per_shard = [r.fault_stats for r in results]
        # Both shards' VMs land on the ladder; event-level stats live on
        # the group's home shard (shard 0) only, so merging cannot
        # double-count the spanning failure.
        assert per_shard[0].vms_affected > 0
        assert per_shard[1].vms_affected > 0
        assert per_shard[0].n_fail_events == 1
        assert per_shard[1].n_fail_events == 0
        assert per_shard[0].stranded_gb > 0.0
        assert per_shard[1].stranded_gb == 0.0
        blast = per_shard[0].blast_radius_by_group
        assert blast[1] == (per_shard[0].vms_affected
                            + per_shard[1].vms_affected)
        assert per_shard[1].blast_radius_by_group == {}
        for group in ledger.capacity_gb:
            assert ledger.free_gb[group] >= 0.0
            assert ledger.used_gb[group] >= -1e-9
            assert ledger.peak_gb[group] >= 0.0
        assert ledger.capacity_gb[1] == 0.0  # still failed at the end

    def test_fleet_merge_attributes_spanning_failure_once(self):
        cfgs, traces = self.make_fleet_traces()
        topo = PoolTopology.spanning([6, 6], 2, 8)
        sched = FaultSchedule([FaultEvent(20000.0, "fail", 1)],
                              migration_retry_budget=1)
        fleet = FleetSimulator(cfgs, pool_capacity_gb_per_group=150.0,
                               constrain_memory=True, pool_topology=topo)
        result = fleet.run(static_policy_factory(fraction=0.6),
                           traces=traces, compute_baseline=False,
                           faults=sched)
        merged = result.fault_stats
        assert merged.n_fail_events == 1
        assert merged.vms_affected > 0
        assert merged.stranded_gb > 0.0
        assert merged.blast_radius_by_group == {1: merged.vms_affected}


class TestFleetDeterminism:
    def run_fleet(self, workers):
        base = TraceGenConfig(n_servers=8, duration_days=0.5,
                              mean_lifetime_hours=2.0,
                              target_core_utilization=0.9, seed=7)
        sched = FaultSchedule.seeded(
            groups=(0, 1), horizon_s=0.5 * 86400.0,
            mean_time_between_failures_s=15000.0, repair_delay_s=6000.0,
            seed=0)
        events = []
        for i, e in enumerate(sched.events):
            events.append(FaultEvent(e.time_s, e.kind, e.group, e.severity,
                                     shard=i % 2))
        sharded = FaultSchedule(events)
        fleet = FleetSimulator.sharded(2, base, pool_size_sockets=8,
                                       pool_capacity_gb_per_group=500.0,
                                       constrain_memory=True,
                                       max_workers=workers)
        with fleet:
            return fleet.run(static_policy_factory(fraction=0.4),
                             compute_baseline=False, faults=sharded)

    def test_process_pool_matches_serial(self):
        serial = self.run_fleet(None)
        pooled = self.run_fleet(2)
        assert serial.fault_stats.as_dict() == pooled.fault_stats.as_dict()
        assert serial.fault_stats.n_fail_events > 0
        for a, b in zip(serial.shards, pooled.shards):
            assert a.result.fault_stats.as_dict() == \
                b.result.fault_stats.as_dict()
            assert np.array_equal(a.result.sample_buffer.rows(),
                                  b.result.sample_buffer.rows())

    def test_shardwise_fleet_matches_single_cluster(self):
        """for_shard routing: each shard replays exactly its own events."""
        base = TraceGenConfig(n_servers=8, duration_days=0.5,
                              mean_lifetime_hours=2.0,
                              target_core_utilization=0.9, seed=7)
        sched = FaultSchedule([FaultEvent(15000.0, "fail", 0, shard=1)])
        fleet = FleetSimulator.sharded(2, base, pool_size_sockets=8,
                                       pool_capacity_gb_per_group=500.0,
                                       constrain_memory=True)
        result = fleet.run(static_policy_factory(fraction=0.4),
                           compute_baseline=False, faults=sched)
        shard0, shard1 = (s.result.fault_stats for s in result.shards)
        assert shard0.n_fail_events == 0
        assert shard0.vms_affected == 0
        assert shard1.n_fail_events == 1
        # The addressed shard replayed alone reproduces the same impact.
        cfg = fleet.shard_configs[1]
        solo = ClusterSimulator(
            n_servers=cfg.n_servers, server_config=cfg.server_config,
            pool_size_sockets=8, pool_capacity_gb_per_group=500.0,
            constrain_memory=True, sample_interval_s=3600.0, engine="array",
        ).run(TraceGenerator(cfg).generate_bulk(),
              StaticFractionPolicy(fraction=0.4),
              faults=sched.for_shard(1))
        assert solo.fault_stats.as_dict() == shard1.as_dict()
