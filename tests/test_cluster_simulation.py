"""Tests for the cluster simulator, stranding analysis, and pooling."""

import numpy as np
import pytest

from repro.cluster.pool import PoolDimensioner, fixed_fraction_policy
from repro.cluster.simulator import ClusterSimulator, SampleBuffer
from repro.cluster.stranding import StrandingAnalyzer, stranding_vs_utilization
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator


def make_trace(n_vms=60, cores=4, memory_gb=16.0, lifetime_s=7200.0, spacing_s=60.0,
               untouched=0.5):
    records = [
        VMTraceRecord(
            vm_id=f"vm-{i}", cluster_id="test", arrival_s=i * spacing_s,
            lifetime_s=lifetime_s, cores=cores, memory_gb=memory_gb,
            untouched_fraction=untouched,
        )
        for i in range(n_vms)
    ]
    return ClusterTrace(records)


class ConstantBatchPolicy:
    """``decide_batch`` returns ``gb`` for every VM, in an array of
    ``len(trace) + extra`` entries (``extra != 0`` breaks the contract)."""

    def __init__(self, gb, extra=0):
        self.gb = gb
        self.extra = extra

    def decide_batch(self, trace):
        return np.full(len(trace) + self.extra, self.gb)


class TestClusterSimulator:
    def test_all_vms_placed_on_adequate_cluster(self):
        trace = make_trace(n_vms=40)
        sim = ClusterSimulator(n_servers=4, sample_interval_s=600.0)
        result = sim.run(trace)
        assert result.placed_vms == 40
        assert result.rejected_vms == 0

    def test_departures_release_capacity(self):
        # VMs live 1 hour and arrive every 6 minutes: concurrency ~10 VMs.
        trace = make_trace(n_vms=100, lifetime_s=3600.0, spacing_s=360.0)
        sim = ClusterSimulator(n_servers=2, sample_interval_s=600.0)
        result = sim.run(trace)
        assert result.placed_vms == 100
        running = result.sample_array("running_vms")
        assert running.max() <= 15

    def test_rejections_when_cluster_too_small(self):
        trace = make_trace(n_vms=60, cores=16, spacing_s=1.0, lifetime_s=864000.0)
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        assert result.rejected_vms > 0

    def test_stranding_reported_when_cores_exhausted(self):
        # 24-core VMs with tiny memory: cores run out long before memory.
        trace = make_trace(n_vms=8, cores=24, memory_gb=8.0, spacing_s=1.0,
                           lifetime_s=86400.0)
        sim = ClusterSimulator(n_servers=2, sample_interval_s=600.0)
        result = sim.run(trace)
        stranded = result.sample_array("stranded_percent")
        assert stranded.max() > 50.0

    def test_pool_policy_moves_memory_to_pool(self):
        trace = make_trace(n_vms=30)
        sim = ClusterSimulator(n_servers=4, pool_size_sockets=4,
                               constrain_memory=False, sample_interval_s=600.0)
        result = sim.run(trace, policy=fixed_fraction_policy(0.5))
        assert result.average_pool_fraction == pytest.approx(0.5, abs=0.01)
        assert result.required_pool_dram_gb > 0

    def test_peak_accounting_consistency(self):
        trace = make_trace(n_vms=30)
        sim = ClusterSimulator(n_servers=4, constrain_memory=False,
                               sample_interval_s=600.0)
        result = sim.run(trace)
        assert result.required_local_dram_gb <= result.uniform_required_local_dram_gb + 1e-6
        assert result.uniform_required_local_dram_gb <= 4 * max(
            result.server_peak_local_gb.values()
        ) + 1e-6

    def test_pool_size_must_align_with_sockets(self):
        with pytest.raises(ValueError):
            ClusterSimulator(n_servers=2, pool_size_sockets=3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(n_servers=0)
        with pytest.raises(ValueError):
            ClusterSimulator(n_servers=1, sample_interval_s=0.0)

    def test_precomputed_pool_array_matches_policy_callback(self):
        trace = make_trace(n_vms=30)
        policy = fixed_fraction_policy(0.5)
        sim = lambda: ClusterSimulator(n_servers=4, pool_size_sockets=4,
                                       constrain_memory=False,
                                       sample_interval_s=600.0)
        from_callback = sim().run(trace, policy=policy.__call__)
        from_array = sim().run(trace, policy=policy)
        assert from_array.placements == from_callback.placements
        assert from_array.pool_peak_gb == from_callback.pool_peak_gb
        assert from_array.server_peak_local_gb == from_callback.server_peak_local_gb

    def test_pool_array_is_clipped_to_vm_memory(self):
        trace = make_trace(n_vms=10, memory_gb=16.0)
        sim = ClusterSimulator(n_servers=2, pool_size_sockets=4,
                               constrain_memory=False, sample_interval_s=600.0)
        result = sim.run(trace, policy=ConstantBatchPolicy(1e6))
        assert result.total_pool_gb_allocated == pytest.approx(10 * 16.0)

    def test_pool_array_length_must_match_trace(self):
        trace = make_trace(n_vms=5)
        sim = ClusterSimulator(n_servers=2, pool_size_sockets=4,
                               constrain_memory=False, sample_interval_s=600.0)
        with pytest.raises(ValueError, match="decide_batch"):
            sim.run(trace, policy=ConstantBatchPolicy(0.0, extra=-1))

    def test_pool_array_ignored_without_pool(self):
        trace = make_trace(n_vms=5)
        sim = ClusterSimulator(n_servers=2, sample_interval_s=600.0)
        result = sim.run(trace, policy=ConstantBatchPolicy(8.0))
        assert result.total_pool_gb_allocated == 0.0


class TestSampleBuffer:
    N_COLUMNS = 8  # matches _SAMPLE_COLUMNS

    def row(self, value):
        return [float(value)] * self.N_COLUMNS

    def test_growth_beyond_initial_capacity(self):
        buffer = SampleBuffer(initial_capacity=2)
        for i in range(9):
            buffer.append_row(self.row(i))
        assert len(buffer) == 9
        assert buffer.rows().shape == (9, self.N_COLUMNS)
        assert buffer.column("time_s").tolist() == [float(i) for i in range(9)]
        # Backing storage doubled 2 -> 4 -> 8 -> 16.
        assert buffer._data.shape[0] == 16

    def test_growth_preserves_existing_rows_exactly(self):
        buffer = SampleBuffer(initial_capacity=1)
        rows = [self.row(v) for v in (3.5, -1.25, 7.0)]
        for row in rows:
            buffer.append_row(row)
        assert np.array_equal(buffer.rows(), np.array(rows))

    def test_drop_last_then_append_reuses_slot(self):
        buffer = SampleBuffer(initial_capacity=2)
        buffer.append_row(self.row(1))
        buffer.append_row(self.row(2))
        buffer.drop_last()
        assert len(buffer) == 1
        buffer.append_row(self.row(5))
        assert buffer.column("time_s").tolist() == [1.0, 5.0]

    def test_drop_last_on_empty_buffer_raises(self):
        buffer = SampleBuffer()
        with pytest.raises(IndexError):
            buffer.drop_last()
        buffer.append_row(self.row(1))
        buffer.drop_last()
        with pytest.raises(IndexError):
            buffer.drop_last()

    def test_dropped_row_is_not_visible_in_views(self):
        buffer = SampleBuffer(initial_capacity=4)
        buffer.append_row(self.row(1))
        buffer.append_row(self.row(2))
        buffer.drop_last()
        assert buffer.rows().shape == (1, self.N_COLUMNS)
        assert buffer.column("time_s").tolist() == [1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleBuffer(initial_capacity=0)
        buffer = SampleBuffer()
        with pytest.raises(AttributeError):
            buffer.column("nope")

    def test_version_bumps_on_every_mutation(self):
        buffer = SampleBuffer()
        v0 = buffer.version
        buffer.append_row(self.row(1))
        assert buffer.version == v0 + 1
        buffer.drop_last()
        assert buffer.version == v0 + 2


class TestSamplesCacheInvalidation:
    """`SimulationResult.samples` must not serve stale entries after a
    drop_last + append_row pair (same length, different content)."""

    def make_result(self):
        from repro.cluster.simulator import SimulationResult

        result = SimulationResult()
        result.sample_buffer.append_row([1.0] * 8)
        result.sample_buffer.append_row([2.0] * 8)
        return result

    def test_mutation_with_same_length_invalidates_cache(self):
        result = self.make_result()
        assert result.samples[-1].time_s == 2.0  # build + cache
        result.sample_buffer.drop_last()
        result.sample_buffer.append_row([9.0] * 8)
        assert len(result.sample_buffer) == 2
        assert result.samples[-1].time_s == 9.0  # stale cache would say 2.0

    def test_cache_reused_when_unchanged(self):
        result = self.make_result()
        first = result.samples
        assert result.samples is first

    def test_drop_alone_invalidates(self):
        result = self.make_result()
        assert len(result.samples) == 2
        result.sample_buffer.drop_last()
        assert len(result.samples) == 1


class TestHorizonGridReplacement:
    """The horizon sample replaces a grid sample landing exactly on the
    horizon (pre-arrival state) with the post-arrival end state.  The
    horizon is the trace's last arrival."""

    def trace_with_arrival_at(self, time_s):
        records = [
            VMTraceRecord(vm_id="vm-early", cluster_id="t", arrival_s=0.0,
                          lifetime_s=500.0, cores=2, memory_gb=8.0),
            VMTraceRecord(vm_id="vm-final", cluster_id="t", arrival_s=time_s,
                          lifetime_s=500.0, cores=2, memory_gb=8.0),
        ]
        return ClusterTrace(records)

    def test_explicit_horizon_on_grid_emits_single_post_arrival_sample(self):
        trace = self.trace_with_arrival_at(7200.0)
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        times = result.sample_array("time_s")
        assert times.tolist() == [0.0, 3600.0, 7200.0]
        assert (np.diff(times) > 0).all()
        # The replaced sample reflects the arrival at the horizon.
        assert result.sample_array("running_vms").tolist() == [0, 0, 1]

    def test_explicit_horizon_off_grid_appends_final_sample(self):
        trace = self.trace_with_arrival_at(5400.0)
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        assert result.sample_array("time_s").tolist() == [0.0, 3600.0, 5400.0]
        assert result.sample_array("running_vms").tolist() == [0, 0, 1]

    def test_zero_length_trace_horizon(self):
        trace = ClusterTrace([
            VMTraceRecord(vm_id="vm-0", cluster_id="t", arrival_s=0.0,
                          lifetime_s=100.0, cores=1, memory_gb=4.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        # Arrival span is 0: exactly one sample, at t=0, post-arrival.
        assert result.sample_array("time_s").tolist() == [0.0]
        assert result.sample_array("running_vms").tolist() == [1]


class TestStrandingAnalysis:
    def run_cluster(self, utilization, seed=0):
        cfg = TraceGenConfig(n_servers=6, duration_days=1.0,
                             target_core_utilization=utilization, seed=seed)
        trace = TraceGenerator(cfg).generate()
        sim = ClusterSimulator(n_servers=6, sample_interval_s=3600.0)
        return sim.run(trace)

    def test_stranding_increases_with_utilization(self):
        low = self.run_cluster(0.5, seed=1)
        high = self.run_cluster(0.95, seed=1)
        assert (high.sample_array("stranded_percent").mean()
                >= low.sample_array("stranded_percent").mean())

    def test_bucketed_curve_structure(self):
        results = [self.run_cluster(u, seed=i) for i, u in enumerate((0.6, 0.8, 0.95))]
        buckets = stranding_vs_utilization(results)
        assert len(buckets) >= 1
        for bucket in buckets:
            assert bucket.p5_stranded_percent <= bucket.mean_stranded_percent
            assert bucket.mean_stranded_percent <= bucket.p95_stranded_percent

    def test_analyzer_percentiles_and_series(self):
        result = self.run_cluster(0.9, seed=2)
        analyzer = StrandingAnalyzer({"c0": result})
        assert analyzer.fleet_percentile(95) >= analyzer.fleet_percentile(5)
        days, series = analyzer.daily_average("c0")
        assert len(days) == len(series)
        with pytest.raises(KeyError):
            analyzer.time_series("missing")

    def test_analyzer_requires_results(self):
        with pytest.raises(ValueError):
            StrandingAnalyzer({})


class TestPoolDimensioner:
    @pytest.fixture(scope="class")
    def trace(self):
        cfg = TraceGenConfig(n_servers=8, duration_days=1.0,
                             target_core_utilization=0.85, seed=3)
        return TraceGenerator(cfg).generate()

    def test_pooling_reduces_required_dram(self, trace):
        dimensioner = PoolDimensioner(n_servers=8)
        savings = dimensioner.evaluate(trace, pool_size_sockets=8,
                                       policy=fixed_fraction_policy(0.5))
        assert savings.required_dram_percent < 100.0
        assert savings.savings_percent > 0.0

    def test_larger_pools_save_at_least_as_much(self, trace):
        dimensioner = PoolDimensioner(n_servers=8)
        sweep = dimensioner.sweep_pool_sizes(trace, [2, 8, 16],
                                             fixed_fraction_policy(0.5))
        required = [s.required_dram_percent for s in sweep]
        assert required[0] >= required[1] >= required[2] - 1.0

    def test_higher_pool_fraction_saves_more(self, trace):
        dimensioner = PoolDimensioner(n_servers=8)
        grid = dimensioner.sweep_fixed_fractions(trace, [16], [0.1, 0.5])
        assert (grid[0.5][0].required_dram_percent
                <= grid[0.1][0].required_dram_percent)

    def test_pool_size_zero_degenerates_to_baseline(self, trace):
        dimensioner = PoolDimensioner(n_servers=8)
        savings = dimensioner.evaluate(trace, 0, fixed_fraction_policy(0.3))
        assert savings.required_dram_percent == pytest.approx(100.0)
        assert savings.required_pool_dram_gb == 0.0

    def test_average_pool_fraction_reported(self, trace):
        dimensioner = PoolDimensioner(n_servers=8)
        savings = dimensioner.evaluate(trace, 8, fixed_fraction_policy(0.3))
        assert savings.average_pool_fraction == pytest.approx(0.3, abs=0.02)

    def test_capacity_search_mode_runs(self, trace):
        dimensioner = PoolDimensioner(n_servers=8, search_steps=4)
        savings = dimensioner.evaluate_capacity_search(
            trace, 8, fixed_fraction_policy(0.3)
        )
        assert savings.required_total_dram_gb > 0
        assert savings.baseline_dram_gb > 0

    def test_fixed_fraction_policy_validation(self):
        with pytest.raises(ValueError):
            fixed_fraction_policy(1.5)

    def test_fixed_fraction_batch_accepts_record_sequences(self, trace):
        policy = fixed_fraction_policy(0.3)
        whole = policy.decide_batch(trace)
        sliced = policy.decide_batch(trace.records[0::2])
        assert np.array_equal(sliced, whole[0::2])
        assert np.array_equal(whole, np.array([policy(r) for r in trace]))
