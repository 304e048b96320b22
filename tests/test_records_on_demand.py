"""Generated traces carry columns; records are built on demand.

A generated :class:`TraceColumns` block -- a stream chunk, or the one
block a :meth:`TraceGenerator.generate_bulk` trace holds -- builds its
``VMTraceRecord``s only when a consumer reads them (a per-record policy
callback, ``materialize``, CSV export, iterating or indexing the trace).
Batch policies and the replay loops read columns, so neither a streamed
replay nor a replay of a generated trace builds a record at all.  The
records built on demand must equal the records-first path's, at every
chunk size, before and after a pickle round trip, and every generated VM
is still validated, in bulk, per window.
"""

import dataclasses
import io
import pickle

import numpy as np
import pytest

import repro.cluster.tracegen as tracegen
from replay_fixtures import digest
from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import (
    ClusterTrace,
    TraceColumns,
    TraceStream,
    VMTraceRecord,
    check_record_columns,
)
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import AllLocalPolicy
from repro.core.prediction.combined import CombinedOperatingPoint
from repro.experiments.fig21_end_to_end import run_end_to_end_study

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)

CONFIG = TraceGenConfig(cluster_id="lazy", n_servers=6, duration_days=1.4,
                        mean_lifetime_hours=2.0, seed=29)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(CONFIG).generate_bulk()


def chunk_sizes(trace):
    return (1, 97, len(trace) + 10)


@pytest.fixture
def no_generated_records(monkeypatch):
    """Make building a record in the trace generator fail the test."""
    def refuse(*args, **kwargs):
        pytest.fail("the trace generator built a VMTraceRecord")
    monkeypatch.setattr(tracegen, "VMTraceRecord", refuse)


class ColumnsOnlyStream(TraceStream):
    """A stream of hand-built chunks that carry replay columns only."""

    def __init__(self, trace, chunk_size):
        self.columns = trace.columns()
        self.chunk_size = chunk_size
        self.cluster_id = trace.cluster_id

    def chunks(self):
        c = self.columns
        for lo in range(0, len(c), self.chunk_size):
            rows = slice(lo, lo + self.chunk_size)
            yield TraceColumns(
                vm_ids=c.vm_ids[rows], memory_gb=c.memory_gb[rows],
                untouched_fraction=c.untouched_fraction[rows],
                arrival_s=c.arrival_s[rows], departure_s=c.departure_s[rows],
                cores=c.cores[rows],
            )


def simulator():
    return ClusterSimulator(n_servers=CONFIG.n_servers, pool_size_sockets=4,
                            constrain_memory=False)


# -- columns-only chunks ------------------------------------------------------
@pytest.mark.parametrize("policy", [
    None, AllLocalPolicy(), FixedFractionPolicy(0.25)],
    ids=["no_policy", "all_local", "fixed_fraction"])
def test_columns_only_chunks_replay_like_the_materialised_trace(trace, policy):
    expected = digest(simulator().run(trace, policy))
    for size in chunk_sizes(trace):
        streamed = simulator().run(ColumnsOnlyStream(trace, size), policy)
        assert digest(streamed) == expected, size


def test_columns_only_chunks_refuse_record_readers(trace, tmp_path):
    stream = ColumnsOnlyStream(trace, 97)
    with pytest.raises(ValueError, match="per-record policy needs trace records"):
        simulator().run(stream, lambda record: 0.0)
    with pytest.raises(ValueError, match="write_csv needs trace records"):
        stream.to_csv(tmp_path / "bare.csv")
    with pytest.raises(ValueError, match="materialize needs trace records"):
        stream.materialize()


# -- static streamed replays build no records ---------------------------------
def test_streamed_fleet_run_builds_no_records(no_generated_records):
    base = TraceGenConfig(cluster_id="guard", n_servers=6, duration_days=1.0,
                          target_core_utilization=0.85, seed=5)
    fleet = FleetSimulator.sharded(2, base, pool_size_sockets=4,
                                   stream_chunk_size=97)
    result = fleet.run(pond_policy_factory(OPERATING_POINT))
    assert len(result.shards) == 2 and result.placed_vms > 0


def test_streamed_fig21_study_builds_no_records(no_generated_records):
    study = run_end_to_end_study(n_shards=2, n_servers=6, duration_days=0.5,
                                 seed=3)
    assert study.savings and all(study.savings.values())


def test_generate_bulk_replay_builds_no_records(no_generated_records):
    """A generated trace replayed under a batch policy builds no record:
    generation keeps columns, and the replay reads only those."""
    trace = TraceGenerator(CONFIG).generate_bulk()
    result = simulator().run(trace, FixedFractionPolicy(0.25))
    assert result.placed_vms + result.rejected_vms == len(trace)
    assert trace.duration_s > trace.arrival_span_s > 0.0


def test_generate_bulk_keeps_its_window_columns(monkeypatch):
    """``generate_bulk`` hands the trace the columns it generated: its
    ``columns()`` view is never rebuilt from records, and equals that
    rebuild bit for bit."""
    for config in (CONFIG, TraceGenConfig(cluster_id="cold", n_servers=4,
                                          duration_days=0.6, seed=5,
                                          warm_start=False)):
        fresh = TraceGenerator(config).generate_bulk()
        rebuilt = TraceColumns.from_records(fresh.records)
        with monkeypatch.context() as patch:
            patch.setattr(TraceColumns, "from_records", None)
            columns = fresh.columns()
        assert columns.record_source is None
        assert_columns_equal(columns, rebuilt)


def assert_columns_equal(got, want):
    """Equal ids, and equal columns bit for bit and dtype for dtype."""
    assert got.vm_ids == want.vm_ids
    for name in ("memory_gb", "untouched_fraction", "arrival_s",
                 "departure_s", "cores"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# -- records built on demand equal the materialised trace's ------------------
def test_lazy_records_equal_generate_bulk(trace):
    for size in chunk_sizes(trace):
        stream = TraceGenerator(CONFIG).stream(size)
        assert stream.materialize().records == trace.records, size
        assert all(c.records is c.records for c in stream.chunks())  # cached


def test_lazy_records_export_the_materialised_csv(trace):
    expected = io.StringIO()
    trace.to_csv(expected)
    for size in chunk_sizes(trace):
        exported = io.StringIO()
        assert TraceGenerator(CONFIG).stream(size).to_csv(exported) == len(trace)
        assert exported.getvalue() == expected.getvalue(), size


def test_per_record_callback_sees_the_materialised_records(trace):
    def callback(seen):
        def policy(record):
            seen.append(record)
            return 0.3 * record.untouched_gb
        return policy

    materialised = []
    expected = digest(simulator().run(trace, callback(materialised)))
    assert materialised == trace.records
    for size in chunk_sizes(trace):
        streamed = []
        result = simulator().run(TraceGenerator(CONFIG).stream(size),
                                 callback(streamed))
        assert streamed == trace.records, size
        assert digest(result) == expected, size


def record_fields(record):
    return [(type(value), value) for value in dataclasses.astuple(record)]


def test_generated_trace_reads_records_like_a_records_block():
    """A generated trace's records, built on first read through any of
    ``records``, iteration or indexing, equal field for field (and type
    for type) the records a :meth:`TraceColumns.from_records` block keeps."""
    stream = TraceGenerator(CONFIG).stream(97)
    expected = [record_fields(r) for r in TraceColumns.from_records(
        r for chunk in stream.chunks() for r in chunk.records).records]
    readers = {
        "records": lambda t: t.records,
        "iter": list,
        "getitem": lambda t: [t[i] for i in range(len(t))],
    }
    for name, read in readers.items():
        fresh = TraceGenerator(CONFIG).generate_bulk()
        got = read(fresh)
        assert [record_fields(r) for r in got] == expected, name
        assert fresh.records == got and fresh.records is fresh.records


def test_generated_trace_pickles_before_its_records_are_read(
        trace, no_generated_records):
    fresh = TraceGenerator(CONFIG).generate_bulk()
    restored = pickle.loads(pickle.dumps(fresh))
    assert (restored.cluster_id, len(restored)) == (CONFIG.cluster_id,
                                                    len(trace))
    assert_columns_equal(restored.columns(), trace.columns())
    assert digest(simulator().run(restored, FixedFractionPolicy(0.25))) == \
        digest(simulator().run(fresh, FixedFractionPolicy(0.25)))


def test_generated_trace_pickles_after_its_records_are_read(trace):
    fresh = TraceGenerator(CONFIG).generate_bulk()
    assert fresh.records == trace.records
    restored = pickle.loads(pickle.dumps(fresh))
    assert restored.records == trace.records
    assert_columns_equal(restored.columns(), trace.columns())
    assert [c.records for c in restored.stream(97).chunks()] == \
        [c.records for c in trace.stream(97).chunks()]


def test_time_spans_read_the_columns_exactly(trace, tmp_path):
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    for case in (TraceGenerator(CONFIG).generate_bulk(),
                 ClusterTrace.from_csv(path)):
        records = case.records
        assert case.duration_s == max(r.departure_s for r in records)
        assert case.arrival_span_s == max(r.arrival_s for r in records)
        assert type(case.duration_s) is type(case.arrival_span_s) is float
    empty = ClusterTrace([])
    assert (empty.duration_s, empty.arrival_span_s) == (0.0, 0.0)


def test_from_block_reorders_like_the_record_sort(trace):
    """An unordered block is put in the stable arrival order that
    ``ClusterTrace(records)`` gives its records."""
    whole = next(TraceGenerator(CONFIG).stream(len(trace) + 10).chunks())
    shuffled = whole.take(np.random.default_rng(3).permutation(len(trace)))
    reordered = ClusterTrace.from_block(shuffled)
    expected = ClusterTrace(shuffled.records)
    assert reordered.cluster_id == expected.cluster_id == CONFIG.cluster_id
    assert reordered.records == expected.records
    assert_columns_equal(reordered.columns(), expected.columns())


def test_from_records_blocks_keep_their_records(trace):
    records = tuple(trace.records[:5])
    assert TraceColumns.from_records(records).records is records
    assert trace.columns().records is None


# -- bulk validation ----------------------------------------------------------
NAN = float("nan")


@pytest.mark.parametrize("rows", [
    [(0.0, 60.0, 2, 8.0, 0.5)],
    [(-1.0, 60.0, 2, 8.0, 0.5)],
    [(0.0, 0.0, 2, 8.0, 0.5)],
    [(0.0, 60.0, 0, 8.0, 0.5)],
    [(0.0, 60.0, 2, -8.0, 0.5)],
    [(0.0, 60.0, 2, 8.0, 1.5)],
    [(NAN, NAN, 2, NAN, 0.5)],           # NaN passes these comparisons...
    [(0.0, 60.0, 2, 8.0, NAN)],          # ...and fails this one
    [(0.0, 60.0, 2, 8.0, 0.5), (0.0, 60.0, 2, 8.0, -0.1),
     (-1.0, 60.0, 2, 8.0, 0.5)],         # the first invalid row decides
    [(0.0, 60.0, 0, 8.0, 2.0), (0.0, -1.0, 2, 8.0, 0.5)],
])
def test_bulk_validation_matches_the_record_constructor(rows):
    def record_error():
        try:
            for i, (arrival, lifetime, cores, memory, untouched) in enumerate(rows):
                VMTraceRecord(f"vm-{i}", "c", arrival, lifetime, cores, memory,
                              untouched_fraction=untouched)
        except ValueError as exc:
            return str(exc)
        return None

    def bulk_error():
        arrival, lifetime, cores, memory, untouched = (
            np.array(column) for column in zip(*rows))
        try:
            check_record_columns(arrival, lifetime, cores, memory, untouched)
        except ValueError as exc:
            return str(exc)
        return None

    assert bulk_error() == record_error()


def test_generated_windows_are_validated_without_records(monkeypatch):
    bad_memory = tracegen.CATALOG_MEMORY_GB.copy()
    bad_memory[:] = -1.0
    monkeypatch.setattr(tracegen, "CATALOG_MEMORY_GB", bad_memory)
    stream = TraceGenerator(CONFIG).stream(97)
    with pytest.raises(ValueError, match="memory must be positive"):
        for _chunk in stream.chunks():
            pass
