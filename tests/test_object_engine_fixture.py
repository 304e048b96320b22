"""Pinned outputs of the retired object-engine replay.

Static replays used to run on two placement engines: the struct-of-arrays
engine ``ClusterSimulator.run`` uses today, and an object engine (a
scheduler over per-server objects, with an indexed and a full-scan server
selection) kept only as a differential reference.
``fixtures/object_engine.json`` holds the object engine's outputs on the
cases below, written before it was deleted.  Entries ending in
``@full_scan`` were replayed with the full-scan selection and must equal
their indexed twin.

Both :func:`reference_replay.reference_replay` (the test-only oracle) and
``ClusterSimulator.run`` must reproduce every entry byte for byte.  The
fixture also pins the cluster-scale benchmark trace under ``scale_trace``;
``benchmarks/test_bench_cluster_scale.py`` checks those.
"""

import pytest

from reference_replay import reference_replay
from replay_fixtures import digest, load_fixture, raw_record
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import PondTracePolicy
from repro.core.prediction.combined import CombinedOperatingPoint

OPERATING_POINT = CombinedOperatingPoint(
    fp_percent=1.5, op_percent=2.0, li_percent=30.0, um_percent=22.0
)


def bulk_trace(seed, n_servers=10, duration_days=0.6, utilization=0.85):
    cfg = TraceGenConfig(
        cluster_id=f"engine-{seed}", n_servers=n_servers,
        duration_days=duration_days, target_core_utilization=utilization,
        mean_lifetime_hours=2.0, seed=seed,
    )
    return TraceGenerator(cfg).generate_bulk()


def tied_lifetimes_trace():
    """Arrivals tied with each other and with the 600 s sample grid;
    departures tied with arrivals; zero and negative lifetimes."""
    arrivals = [0.0, 0.0, 300.0, 600.0, 600.0, 900.0, 1200.0, 1200.0]
    lifetimes = [0.0, 600.0, -100.0, 600.0, 1200.0, 300.0, 0.0, -600.0]
    records = [
        raw_record(f"deg-{i}", arrivals[i % 8] + 1200.0 * (i // 8),
                   lifetimes[(3 * i) % 8] + 900.0 * (i % 3),
                   cores=(1, 4, 8, 16)[i % 4], memory_gb=(4.0, 24.0, 96.0)[i % 3])
        for i in range(48)
    ]
    return ClusterTrace(records, cluster_id="tied")


def horizon_on_grid_trace():
    trace = bulk_trace(seed=19, n_servers=4, duration_days=0.3)
    span = max(r.arrival_s for r in trace)
    tail = VMTraceRecord(vm_id="tail", cluster_id=trace.cluster_id,
                         arrival_s=1800.0 * (int(span // 1800.0) + 1),
                         lifetime_s=600.0, cores=2, memory_gb=8.0)
    return ClusterTrace(list(trace.records) + [tail], cluster_id=trace.cluster_id)


EMPTY = ClusterTrace([], cluster_id="empty")
SINGLE = ClusterTrace([
    VMTraceRecord(vm_id="only", cluster_id="one", arrival_s=30.0,
                  lifetime_s=7200.0, cores=2, memory_gb=16.0),
], cluster_id="one")
EDGE = dict(n_servers=3, pool_size_sockets=2, constrain_memory=False,
            sample_interval_s=600.0)
POOLED_FINITE = dict(n_servers=8, pool_size_sockets=8,
                     pool_capacity_gb_per_group=600.0, constrain_memory=False,
                     sample_interval_s=1800.0)
PRESSURED = dict(n_servers=8, pool_size_sockets=8,
                 pool_capacity_gb_per_group=400.0, constrain_memory=True,
                 sample_interval_s=1800.0)
POND = dict(n_servers=8, pool_size_sockets=16, constrain_memory=False,
            sample_interval_s=1800.0)


def case(trace, policy=None, **cluster):
    return dict(trace=trace, policy=policy, cluster=cluster)


#: name -> function returning ``{"trace", "policy", "cluster"}``; ``cluster`` holds
#: ``ClusterSimulator`` keyword arguments.
CASES = {
    **{f"constrained_seed{seed}": (
        lambda seed=seed: case(bulk_trace(seed), n_servers=10,
                               sample_interval_s=1800.0))
       for seed in (3, 17, 29)},
    "rejection_heavy": lambda: case(
        bulk_trace(7, utilization=0.95), n_servers=3, sample_interval_s=1800.0),
    "pooled_finite_capacity": lambda: case(
        bulk_trace(41, n_servers=8, utilization=0.9),
        FixedFractionPolicy(0.4), **POOLED_FINITE),
    "pooled_finite_streamed": lambda: case(
        bulk_trace(41, n_servers=8, utilization=0.9).stream(chunk_size=97),
        FixedFractionPolicy(0.4), **POOLED_FINITE),
    "pooled_constrained_stranding": lambda: case(
        bulk_trace(31, n_servers=8, utilization=0.92),
        FixedFractionPolicy(0.3), **PRESSURED),
    "pond_policy_infinite_pool": lambda: case(
        bulk_trace(23, n_servers=8, utilization=0.9),
        PondTracePolicy(OPERATING_POINT, seed=3), **POND),
    "pond_callback_infinite_pool": lambda: case(
        bulk_trace(23, n_servers=8, utilization=0.9),
        PondTracePolicy(OPERATING_POINT, seed=3).__call__, **POND),
    "unpooled_streamed": lambda: case(
        TraceGenerator(TraceGenConfig(
            cluster_id="engine-stream", n_servers=8, duration_days=0.5,
            target_core_utilization=0.9, seed=13)).stream(chunk_size=256),
        n_servers=8, sample_interval_s=1800.0),
    "horizon_on_grid": lambda: case(
        horizon_on_grid_trace(), n_servers=4, sample_interval_s=1800.0),
    "unrecorded_placements": lambda: case(
        bulk_trace(11, n_servers=6), FixedFractionPolicy(0.3), n_servers=6,
        pool_size_sockets=8, constrain_memory=False, sample_interval_s=1800.0,
        record_placements=False),
    "edge_empty": lambda: case(EMPTY, FixedFractionPolicy(0.3), **EDGE),
    "edge_empty_streamed": lambda: case(EMPTY.stream(chunk_size=8), **EDGE),
    "edge_single": lambda: case(SINGLE, FixedFractionPolicy(0.5), **EDGE),
    "edge_single_unpooled_streamed": lambda: case(
        SINGLE.stream(chunk_size=8), FixedFractionPolicy(0.5),
        **dict(EDGE, pool_size_sockets=0)),
    "tied_lifetimes": lambda: case(
        tied_lifetimes_trace(), FixedFractionPolicy(0.5), n_servers=3,
        pool_size_sockets=2, pool_capacity_gb_per_group=60.0,
        sample_interval_s=600.0),
    "tied_lifetimes_streamed": lambda: case(
        tied_lifetimes_trace().stream(chunk_size=7), FixedFractionPolicy(0.5),
        n_servers=3, pool_size_sockets=2, pool_capacity_gb_per_group=60.0,
        sample_interval_s=600.0),
}

#: Cases the object engine also replayed with its full-scan selection.
FULL_SCAN = ("constrained_seed3", "constrained_seed17", "constrained_seed29",
             "pooled_finite_capacity", "tied_lifetimes")


@pytest.fixture(scope="module")
def expected():
    return load_fixture()["cases"]


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(
        list(CASES) + [f"{name}@full_scan" for name in FULL_SCAN])


def test_fixture_exercises_every_input_class(expected):
    """Rejections, finite-pool refusals, stranding and pooled memory all
    occur somewhere in the pinned cases."""
    assert expected["rejection_heavy"]["rejected_vms"] > 0
    assert expected["pooled_finite_capacity"]["rejected_vms"] > 0
    assert expected["pooled_constrained_stranding"]["rejected_vms"] > 0
    assert expected["pond_policy_infinite_pool"]["total_pool_gb_allocated"] > 0
    assert expected["tied_lifetimes"]["rejected_vms"] > 0
    assert expected["unrecorded_placements"]["n_placements"] == 0


@pytest.mark.parametrize("name", FULL_SCAN)
def test_full_scan_selection_agreed(name, expected):
    assert expected[f"{name}@full_scan"] == expected[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_replay_reproduces_fixture(name, expected):
    built = CASES[name]()
    got = digest(reference_replay(built["trace"], built["policy"],
                                  **built["cluster"]))
    assert got == expected[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_fixture(name, expected):
    built = CASES[name]()
    result = ClusterSimulator(**built["cluster"]).run(built["trace"],
                                                      built["policy"])
    assert digest(result) == expected[name]
