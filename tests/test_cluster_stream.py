"""Streamed-vs-materialised equivalence tests for the trace-streaming layer.

DESIGN.md section 4 guarantees that replaying a trace through ``TraceStream``
chunks is *identical* to replaying the materialised trace -- same records,
same simulator samples, same savings -- for any chunk size.  These tests
enforce that contract, the CSV streaming path, the trace-metadata fixes, and
the fleet-level capacity search differential (DESIGN.md section 5).
"""

import numpy as np
import pytest

from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.pool import FixedFractionPolicy, PoolDimensioner
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import (
    ClusterTrace,
    CsvTraceStream,
    MaterializedTraceStream,
    TraceColumns,
    TraceStream,
    VMTraceRecord,
    write_csv,
)
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import PondTracePolicy
from repro.core.prediction.combined import CombinedOperatingPoint

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def gen_config(**kwargs):
    defaults = dict(
        cluster_id="stream", n_servers=6, duration_days=1.4,
        mean_lifetime_hours=2.0, target_core_utilization=0.85, seed=29,
    )
    defaults.update(kwargs)
    return TraceGenConfig(**defaults)


@pytest.fixture(scope="module")
def config():
    return gen_config()


@pytest.fixture(scope="module")
def trace(config):
    return TraceGenerator(config).generate_bulk()


def chunk_sizes_for(trace):
    """Several chunk sizes, including chunk=1 and chunk > len(trace)."""
    return (1, 7, 256, len(trace) + 10)


class TestStreamedGenerationEquality:
    def test_streamed_equals_materialised_byte_for_byte(self, config, trace):
        for chunk_size in chunk_sizes_for(trace):
            stream = TraceGenerator(config).stream(chunk_size)
            records = [r for chunk in stream.chunks() for r in chunk.records]
            assert records == trace.records, chunk_size

    def test_stream_is_reiterable(self, config):
        stream = TraceGenerator(config).stream(64)
        first = [r for chunk in stream.chunks() for r in chunk.records]
        second = [r for chunk in stream.chunks() for r in chunk.records]
        assert first == second

    def test_chunk_sizes_are_respected(self, config, trace):
        stream = TraceGenerator(config).stream(50)
        lengths = [len(chunk) for chunk in stream.chunks()]
        assert sum(lengths) == len(trace)
        assert all(n == 50 for n in lengths[:-1])
        assert 1 <= lengths[-1] <= 50

    def test_chunks_carry_aligned_columns(self, config):
        for chunk in TraceGenerator(config).stream(33).chunks():
            assert chunk.records is not None
            assert len(chunk) == len(chunk.records)
            np.testing.assert_array_equal(
                chunk.memory_gb,
                np.array([r.memory_gb for r in chunk.records]),
            )
            assert chunk.vm_ids == tuple(r.vm_id for r in chunk.records)

    def test_materialize_roundtrip(self, config, trace):
        rebuilt = TraceGenerator(config).stream(128).materialize()
        assert rebuilt.records == trace.records
        assert rebuilt.cluster_id == trace.cluster_id

    def test_arrivals_sorted_across_chunk_boundaries(self, config):
        last = -1.0
        for chunk in TraceGenerator(config).stream(17).chunks():
            for record in chunk.records:
                assert record.arrival_s >= last
                last = record.arrival_s

    def test_chunk_size_validation(self, config, trace):
        with pytest.raises(ValueError):
            TraceGenerator(config).stream(0)
        with pytest.raises(ValueError):
            trace.stream(-1)


class TestStreamedReplayEquality:
    """The acceptance property: identical SimulationResult samples and savings."""

    def make_simulator(self, config, pool_size_sockets):
        return ClusterSimulator(
            n_servers=config.n_servers,
            pool_size_sockets=pool_size_sockets,
            constrain_memory=False,
        )

    def assert_results_identical(self, expected, got):
        assert got.placed_vms == expected.placed_vms
        assert got.rejected_vms == expected.rejected_vms
        assert got.placements == expected.placements
        assert got.server_peak_local_gb == expected.server_peak_local_gb
        assert got.pool_peak_gb == expected.pool_peak_gb
        assert got.total_pool_gb_allocated == expected.total_pool_gb_allocated
        assert got.total_memory_gb_allocated == expected.total_memory_gb_allocated
        np.testing.assert_array_equal(
            got.sample_buffer.rows(), expected.sample_buffer.rows()
        )
        # Savings inputs (uniform provisioning model) are therefore identical.
        assert got.uniform_required_local_dram_gb \
            == expected.uniform_required_local_dram_gb
        assert got.required_pool_dram_gb == expected.required_pool_dram_gb

    def test_batch_policy_replay_identical(self, config, trace):
        expected = self.make_simulator(config, 4).run(
            trace, policy=PondTracePolicy(OPERATING_POINT, seed=3)
        )
        for chunk_size in chunk_sizes_for(trace):
            stream = TraceGenerator(config).stream(chunk_size)
            got = self.make_simulator(config, 4).run(
                stream, policy=PondTracePolicy(OPERATING_POINT, seed=3)
            )
            self.assert_results_identical(expected, got)

    def test_no_pool_memory_constrained_replay_identical(self, config, trace):
        expected = ClusterSimulator(n_servers=config.n_servers).run(trace)
        for chunk_size in chunk_sizes_for(trace):
            got = ClusterSimulator(n_servers=config.n_servers).run(
                TraceGenerator(config).stream(chunk_size)
            )
            self.assert_results_identical(expected, got)

    def test_per_record_callback_replay_identical(self, config, trace):
        expected = self.make_simulator(config, 4).run(
            trace, policy=PondTracePolicy(OPERATING_POINT, seed=3).__call__
        )
        got = self.make_simulator(config, 4).run(
            trace.stream(37),
            policy=PondTracePolicy(OPERATING_POINT, seed=3).__call__,
        )
        self.assert_results_identical(expected, got)

    def test_precomputed_pool_gb_replay_identical(self, config, trace):
        """Per-chunk ``decide_batch`` arrays equal the whole-trace one."""
        policy = PondTracePolicy(OPERATING_POINT, seed=3)
        expected = self.make_simulator(config, 4).run(trace, policy=policy)
        got = self.make_simulator(config, 4).run(trace.stream(64),
                                                 policy=policy)
        self.assert_results_identical(expected, got)
        assert got.total_pool_gb_allocated \
            == expected.total_pool_gb_allocated > 0

    def test_pool_gb_length_mismatch_detected_on_stream(self, config, trace):
        class Miscounting:
            def __init__(self, extra):
                self.extra = extra

            def decide_batch(self, block):
                return np.zeros(len(block) + self.extra)

        simulator = self.make_simulator(config, 4)
        for extra in (-1, 1):
            with pytest.raises(ValueError, match="decide_batch"):
                simulator.run(trace.stream(64), policy=Miscounting(extra))

    def test_unsorted_stream_rejected(self, trace):
        class ShuffledStream(TraceStream):
            cluster_id = "shuffled"

            def __init__(self, records):
                self._records = records

            def chunks(self):
                yield TraceColumns.from_records(self._records)

        records = list(reversed(trace.records))
        simulator = ClusterSimulator(n_servers=4)
        with pytest.raises(ValueError, match="sorted by arrival"):
            simulator.run(ShuffledStream(records))

    def test_fleet_streamed_savings_identical(self, config):
        factory = pond_policy_factory(OPERATING_POINT, seed=3)
        materialised = FleetSimulator.sharded(
            2, config, pool_size_sockets=4
        ).run(factory)
        streamed = FleetSimulator.sharded(
            2, config, pool_size_sockets=4, stream_chunk_size=128
        ).run(factory)
        assert streamed.savings == materialised.savings
        assert streamed.n_vms == materialised.n_vms
        assert streamed.placed_vms == materialised.placed_vms


class TestBatchPoliciesOnChunks:
    def test_chunked_decide_batch_equals_whole_trace(self, trace):
        whole = PondTracePolicy(OPERATING_POINT, seed=5).decide_batch(trace)
        chunked_policy = PondTracePolicy(OPERATING_POINT, seed=5)
        pieces = [
            chunked_policy.decide_batch(chunk)
            for chunk in trace.stream(41).chunks()
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        assert chunked_policy.stats.n_vms == len(trace)

    def test_fixed_fraction_accepts_chunks(self, trace):
        policy = FixedFractionPolicy(0.25)
        chunk = next(iter(trace.stream(10)))
        np.testing.assert_allclose(
            policy.decide_batch(chunk), chunk.memory_gb * 0.25
        )


class TestCsvTraceStream:
    def test_csv_stream_matches_from_csv(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = ClusterTrace.from_csv(path)
        for chunk_size in (1, 100, len(trace) + 5):
            stream = CsvTraceStream(path, chunk_size=chunk_size)
            records = [r for chunk in stream.chunks() for r in chunk.records]
            assert records == loaded.records, chunk_size

    def test_csv_stream_is_reiterable_and_replayable(self, config, trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        stream = CsvTraceStream(path, chunk_size=97)
        expected = ClusterSimulator(n_servers=config.n_servers).run(trace)
        got = ClusterSimulator(n_servers=config.n_servers).run(stream)
        assert got.placements == expected.placements
        np.testing.assert_array_equal(
            got.sample_buffer.rows(), expected.sample_buffer.rows()
        )
        # second pass over the same stream object works (fresh file handle)
        again = ClusterSimulator(n_servers=config.n_servers).run(stream)
        assert again.placed_vms == got.placed_vms

    def test_unsorted_csv_raises_with_line_number(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        records = [
            VMTraceRecord(vm_id="a", cluster_id="c", arrival_s=100.0,
                          lifetime_s=60.0, cores=2, memory_gb=8.0),
            VMTraceRecord(vm_id="b", cluster_id="c", arrival_s=5.0,
                          lifetime_s=60.0, cores=2, memory_gb=8.0),
        ]
        # Bypass ClusterTrace (which would sort) to write an unsorted file.
        trace = ClusterTrace([])
        trace.records = records
        trace.to_csv(path)
        with pytest.raises(ValueError, match="line 3.*not sorted"):
            list(CsvTraceStream(path).chunks())

    def test_csv_stream_default_cluster_id_is_file_stem(self, trace, tmp_path):
        path = tmp_path / "cluster-west.csv"
        trace.to_csv(path)
        assert CsvTraceStream(path).cluster_id == "cluster-west"
        assert CsvTraceStream(path, cluster_id="x").cluster_id == "x"


class TestStreamingCsvWriter:
    """The streaming CSV *writer*: exporting without materialising."""

    def test_stream_export_matches_materialised_export(self, config, trace,
                                                       tmp_path):
        materialised_path = tmp_path / "materialised.csv"
        streamed_path = tmp_path / "streamed.csv"
        trace.to_csv(materialised_path)
        rows = TraceGenerator(config).stream(chunk_size=128).to_csv(streamed_path)
        assert rows == len(trace)
        assert streamed_path.read_bytes() == materialised_path.read_bytes()

    def test_chunk_size_does_not_change_output(self, trace, tmp_path):
        reference = tmp_path / "reference.csv"
        trace.to_csv(reference)
        for chunk_size in (1, 7, len(trace) + 5):
            path = tmp_path / f"chunk-{chunk_size}.csv"
            written = write_csv(trace, path, chunk_size=chunk_size)
            assert written == len(trace)
            assert path.read_bytes() == reference.read_bytes(), chunk_size

    def test_round_trip_through_both_readers(self, config, tmp_path):
        path = tmp_path / "roundtrip.csv"
        stream = TraceGenerator(config).stream(chunk_size=64)
        stream.to_csv(path)
        expected = stream.materialize()
        assert ClusterTrace.from_csv(path).records == expected.records
        assert CsvTraceStream(path, chunk_size=51).materialize().records \
            == expected.records

    def test_materialized_stream_export(self, trace, tmp_path):
        path = tmp_path / "view.csv"
        reference = tmp_path / "reference.csv"
        trace.to_csv(reference)
        MaterializedTraceStream(trace, chunk_size=33).to_csv(path)
        assert path.read_bytes() == reference.read_bytes()

    def test_chunks_without_records_rejected(self, tmp_path):
        class BareStream(TraceStream):
            def chunks(self):
                yield TraceColumns(
                    vm_ids=("a",),
                    memory_gb=np.array([1.0]),
                    untouched_fraction=np.array([0.5]),
                )

        with pytest.raises(ValueError, match="records"):
            BareStream().to_csv(tmp_path / "bare.csv")


class TestTraceMetadata:
    def record(self, vm_id, cluster_id, arrival_s=0.0):
        return VMTraceRecord(vm_id=vm_id, cluster_id=cluster_id,
                             arrival_s=arrival_s, lifetime_s=60.0,
                             cores=2, memory_gb=8.0)

    def test_merge_same_cluster_keeps_id(self):
        a = ClusterTrace([self.record("a", "c1")])
        b = ClusterTrace([self.record("b", "c1", 10.0)])
        assert a.merge(b).cluster_id == "c1"

    def test_merge_different_clusters_joins_ids(self):
        a = ClusterTrace([self.record("a", "c1")])
        b = ClusterTrace([self.record("b", "c2")])
        assert a.merge(b).cluster_id == "c1+c2"
        assert b.merge(a).cluster_id == "c2+c1"

    def test_merge_with_empty_preserves_nonempty_id(self):
        a = ClusterTrace([self.record("a", "c1")])
        empty = ClusterTrace([], cluster_id="ignored")
        assert a.merge(empty).cluster_id == "c1"
        assert empty.merge(a).cluster_id == "c1"

    def test_merge_id_does_not_depend_on_arrival_order(self):
        # Before the fix the merged id collapsed to the earliest-arriving
        # record's cluster, so swapping arrival times changed the metadata.
        a = ClusterTrace([self.record("a", "c1", 50.0)])
        b = ClusterTrace([self.record("b", "c2", 1.0)])
        assert a.merge(b).cluster_id == "c1+c2"

    def test_for_cluster_preserves_requested_id_when_empty(self):
        trace = ClusterTrace([self.record("a", "c1")])
        filtered = trace.for_cluster("missing")
        assert len(filtered) == 0
        assert filtered.cluster_id == "missing"

    def test_materialized_stream_preserves_cluster_id(self):
        trace = ClusterTrace([self.record("a", "c9")])
        assert MaterializedTraceStream(trace, 4).cluster_id == "c9"
        assert trace.stream().materialize().cluster_id == "c9"


class TestFleetCapacitySearch:
    @pytest.fixture(scope="class")
    def search_config(self):
        return gen_config(cluster_id="search", n_servers=8, duration_days=1.0,
                          seed=33)

    def test_single_shard_matches_pool_dimensioner(self, search_config):
        """Differential: the fleet search on one shard IS the dimensioner."""
        trace = TraceGenerator(search_config).generate_bulk()
        dimensioner = PoolDimensioner(
            n_servers=search_config.n_servers, search_steps=5
        )
        expected = dimensioner.evaluate_capacity_search(
            trace, 8, FixedFractionPolicy(0.3)
        )
        fleet = FleetSimulator([search_config], pool_size_sockets=8)
        got = fleet.capacity_search(
            lambda index: FixedFractionPolicy(0.3),
            traces=[trace], search_steps=5,
        )
        assert got.savings == expected

    def test_single_shard_streamed_matches_dimensioner(self, search_config):
        trace = TraceGenerator(search_config).generate_bulk()
        expected = PoolDimensioner(
            n_servers=search_config.n_servers, search_steps=5
        ).evaluate_capacity_search(trace, 8, FixedFractionPolicy(0.3))
        fleet = FleetSimulator(
            [search_config], pool_size_sockets=8, stream_chunk_size=200
        )
        got = fleet.capacity_search(
            lambda index: FixedFractionPolicy(0.3), search_steps=5
        )
        assert got.savings == expected

    def test_no_pool_degenerates_to_baseline(self, search_config):
        fleet = FleetSimulator([search_config], pool_size_sockets=0)
        result = fleet.capacity_search(search_steps=3)
        assert result.savings.pool_size_sockets == 0
        assert result.savings.required_total_dram_gb \
            == result.savings.baseline_dram_gb
        assert result.savings.required_pool_dram_gb == 0.0

    def test_multi_shard_search_properties(self, search_config):
        fleet = FleetSimulator.sharded(
            2, search_config, pool_size_sockets=8, stream_chunk_size=500
        )
        result = fleet.capacity_search(
            pond_policy_factory(OPERATING_POINT, seed=3), search_steps=4
        )
        total_servers = sum(cfg.n_servers for cfg in fleet.shard_configs)
        # One shared per-server DRAM size across the whole fleet.
        assert result.savings.required_local_dram_gb == pytest.approx(
            result.pooled_per_server_gb * total_servers
        )
        assert result.savings.baseline_dram_gb == pytest.approx(
            result.baseline_per_server_gb * total_servers
        )
        assert len(result.per_shard_pool_capacity_gb) == 2
        assert result.total_vms > 0
        assert result.rejection_budget >= 1
        assert result.policy_stats.n_vms > 0

    def test_heterogeneous_server_config_rejected(self, search_config):
        from dataclasses import replace

        from repro.cluster.server import ServerConfig

        other = replace(
            search_config, cluster_id="other",
            server_config=ServerConfig(name="fat", sockets=2,
                                       cores_per_socket=24,
                                       dram_per_socket_gb=384.0),
        )
        fleet = FleetSimulator([search_config, other], pool_size_sockets=8)
        with pytest.raises(ValueError, match="homogeneous"):
            fleet.capacity_search()

    def test_knob_validation(self, search_config):
        fleet = FleetSimulator([search_config], pool_size_sockets=8)
        with pytest.raises(ValueError):
            fleet.capacity_search(search_steps=0)
        with pytest.raises(ValueError):
            fleet.capacity_search(rejection_tolerance=-0.1)
        with pytest.raises(ValueError):
            fleet.capacity_search(pool_headroom=0.9)
        with pytest.raises(ValueError):
            fleet.capacity_search(traces=[])
