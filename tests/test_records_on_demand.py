"""Generated trace chunks carry columns; records are built on demand.

A generated :class:`TraceColumns` block builds its ``VMTraceRecord``s only
when a consumer reads ``block.records`` (a per-record policy callback,
``materialize``, CSV export).  Batch policies and the replay loops read
columns, so a static streamed replay builds no record at all.  The records
built on demand must equal the materialised trace's, at every chunk size,
and every generated VM is still validated, in bulk, per window.
"""

import io

import numpy as np
import pytest

import repro.cluster.tracegen as tracegen
from replay_fixtures import digest
from repro.cluster.fleet import FleetSimulator, pond_policy_factory
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import (
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


def test_generate_bulk_still_builds_records(no_generated_records):
    with pytest.raises(pytest.fail.Exception, match="built a VMTraceRecord"):
        TraceGenerator(CONFIG).generate_bulk()


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
        assert columns.vm_ids == rebuilt.vm_ids
        for name in ("memory_gb", "untouched_fraction", "arrival_s",
                     "departure_s", "cores"):
            got, want = getattr(columns, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


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
