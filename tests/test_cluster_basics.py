"""Unit tests for server configs, VM types, traces, and the trace generator."""

import numpy as np
import pytest

from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator, generate_fleet
from repro.cluster.vm_types import (
    DEFAULT_FAMILY_WEIGHTS,
    VM_TYPE_CATALOG,
    family_probabilities,
    get_vm_type,
    sample_vm_type,
    vm_mix_dram_per_core,
)


class TestServerConfig:
    def test_defaults_are_two_socket(self):
        config = ServerConfig()
        assert config.sockets == 2
        assert config.total_cores == 48
        assert config.total_dram_gb == pytest.approx(384.0)
        assert config.dram_per_core_gb == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(sockets=0)
        with pytest.raises(ValueError):
            ServerConfig(cores_per_socket=0)
        with pytest.raises(ValueError):
            ServerConfig(dram_per_socket_gb=0)


class TestVMTypes:
    def test_catalog_memory_ratios(self):
        d8 = get_vm_type("D8")
        e8 = get_vm_type("E8")
        f8 = get_vm_type("F8")
        assert d8.memory_per_core_gb == pytest.approx(4.0)
        assert e8.memory_per_core_gb == pytest.approx(8.0)
        assert f8.memory_per_core_gb == pytest.approx(2.0)

    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            get_vm_type("Z99")

    def test_sampling_respects_family_weights(self):
        rng = np.random.default_rng(0)
        only_general = {f: 0.0 for f in DEFAULT_FAMILY_WEIGHTS}
        only_general["general"] = 1.0
        for _ in range(50):
            assert sample_vm_type(rng, only_general).family == "general"

    def test_sampling_rejects_all_zero_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_vm_type(rng, {f: 0.0 for f in DEFAULT_FAMILY_WEIGHTS})

    def test_mix_ratio_below_server_ratio(self):
        rng = np.random.default_rng(1)
        ratio = vm_mix_dram_per_core(rng, n_samples=2000)
        assert ratio < ServerConfig().dram_per_core_gb
        assert ratio > 2.0

    def test_small_vms_are_most_common(self):
        rng = np.random.default_rng(2)
        cores = [sample_vm_type(rng).cores for _ in range(1000)]
        assert np.median(cores) <= 4


class TestTraceRecords:
    def make_record(self, **kw):
        defaults = dict(vm_id="v1", cluster_id="c1", arrival_s=10.0, lifetime_s=100.0,
                        cores=4, memory_gb=16.0, untouched_fraction=0.5)
        defaults.update(kw)
        return VMTraceRecord(**defaults)

    def test_derived_fields(self):
        record = self.make_record()
        assert record.departure_s == pytest.approx(110.0)
        assert record.untouched_gb == pytest.approx(8.0)
        assert record.touched_gb == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_record(lifetime_s=0.0)
        with pytest.raises(ValueError):
            self.make_record(cores=0)
        with pytest.raises(ValueError):
            self.make_record(untouched_fraction=1.5)

    def test_trace_ordering_and_span(self):
        records = [self.make_record(vm_id=f"v{i}", arrival_s=100.0 - i) for i in range(5)]
        trace = ClusterTrace(records)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert trace.arrival_span_s == pytest.approx(100.0)
        assert trace.duration_s == pytest.approx(200.0)

    def test_trace_csv_roundtrip(self, tmp_path):
        records = [self.make_record(vm_id=f"v{i}", arrival_s=float(i)) for i in range(10)]
        trace = ClusterTrace(records)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = ClusterTrace.from_csv(path)
        assert len(loaded) == len(trace)
        assert loaded[0].vm_id == trace[0].vm_id
        assert loaded[3].memory_gb == pytest.approx(trace[3].memory_gb)

    def test_for_cluster_filter_and_merge(self):
        a = ClusterTrace([self.make_record(vm_id="a", cluster_id="c1")])
        b = ClusterTrace([self.make_record(vm_id="b", cluster_id="c2")])
        merged = a.merge(b)
        assert len(merged) == 2
        assert merged.clusters() == ["c1", "c2"]
        assert len(merged.for_cluster("c2")) == 1


class TestTraceGenerator:
    def test_generates_nonempty_trace_with_warm_start(self):
        cfg = TraceGenConfig(n_servers=4, duration_days=0.5, seed=0)
        trace = TraceGenerator(cfg).generate()
        assert len(trace) > 20
        assert any(r.arrival_s == 0.0 for r in trace)  # warm-start population

    def test_no_warm_start_option(self):
        cfg = TraceGenConfig(n_servers=4, duration_days=0.5, warm_start=False, seed=0)
        trace = TraceGenerator(cfg).generate()
        assert all(r.arrival_s > 0.0 for r in trace)

    def test_higher_target_utilization_generates_more_arrivals(self):
        low = TraceGenerator(TraceGenConfig(n_servers=4, duration_days=0.5,
                                            target_core_utilization=0.4, seed=1)).generate()
        high = TraceGenerator(TraceGenConfig(n_servers=4, duration_days=0.5,
                                             target_core_utilization=0.9, seed=1)).generate()
        assert len(high) > len(low)

    def test_deterministic_given_seed(self):
        cfg = TraceGenConfig(n_servers=2, duration_days=0.3, seed=5)
        a = TraceGenerator(cfg).generate()
        b = TraceGenerator(cfg).generate()
        assert len(a) == len(b)
        assert [r.vm_id for r in a][:10] == [r.vm_id for r in b][:10]

    def test_workload_shift_increases_memory_share(self):
        cfg = TraceGenConfig(n_servers=4, duration_days=2.0, shift_day=1.0,
                             shift_memory_factor=5.0, warm_start=False, seed=2)
        trace = TraceGenerator(cfg).generate()
        before = [r for r in trace if r.arrival_s < 86_400]
        after = [r for r in trace if r.arrival_s >= 86_400]
        share_before = np.mean([r.vm_family == "memory_optimized" for r in before])
        share_after = np.mean([r.vm_family == "memory_optimized" for r in after])
        assert share_after > share_before

    @pytest.mark.parametrize("overrides, expected", [
        (None, DEFAULT_FAMILY_WEIGHTS["memory_optimized"] * 3.0),
        ({"memory_optimized": 0.1}, 0.3),
        ({"general": 0.5}, DEFAULT_FAMILY_WEIGHTS["memory_optimized"] * 3.0),
    ])
    def test_workload_shift_scales_merged_memory_weight(self, overrides, expected):
        """The shift multiplies the weight the sampler would otherwise use:
        the default merged with the overrides, not a stale 0.20."""
        cfg = TraceGenConfig(shift_day=1.0, shift_memory_factor=3.0,
                             family_weights=overrides)
        gen = TraceGenerator(cfg)
        before = family_probabilities(gen._family_weights_at(0.0))
        after = family_probabilities(gen._family_weights_at(86_400.0))
        assert before[0] == after[0]
        base = dict(DEFAULT_FAMILY_WEIGHTS, **(overrides or {}))
        shifted = dict(base, memory_optimized=expected)
        assert after[1] == pytest.approx(
            [shifted[f] / sum(shifted.values()) for f in after[0]])

    def test_fleet_generation_varies_utilization(self):
        traces = generate_fleet(3, TraceGenConfig(n_servers=2, duration_days=0.3), seed=7)
        assert len(traces) == 3
        assert len({t.cluster_id for t in traces}) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceGenConfig(n_servers=0)
        with pytest.raises(ValueError):
            TraceGenConfig(target_core_utilization=1.5)
        with pytest.raises(ValueError):
            generate_fleet(0)
