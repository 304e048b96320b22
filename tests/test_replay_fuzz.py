"""Property-based differentials for the replay kernels.

* ``ClusterSimulator.run`` against :func:`reference_replay.reference_replay`
  on small random clusters: 1-6 servers, 1-2 sockets, up to 60 VMs whose
  arrivals tie with each other and with the sample grid and whose
  departures tie with arrivals; lifetimes may be zero or negative and VMs
  may ask for zero cores; pooled and unpooled, finite pool capacity,
  memory-constrained or not, materialised or streamed at odd chunk sizes.
* ``replay_crossshard`` against
  :func:`reference_replay.reference_fleet_replay` on small static
  spanning and per-shard fleets of up to three shards, with the same
  degenerate rows; every shard may replay a stream at chunk size 1, 3 or
  7 (multi-shard streams go through the loop's k-way chunk merge).

Both compare byte for byte.  The search is derandomized and keeps no
example database, so every run checks the same examples.  Shrunk
counterexamples are pinned with ``@example``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_replay import reference_fleet_replay, reference_replay
from replay_fixtures import digest, raw_record
from repro.cluster.pool import FixedFractionPolicy
from repro.cluster.pool_topology import PoolTopology, replay_crossshard
from repro.cluster.server import ServerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import ClusterTrace

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=120)

#: Sample interval: arrivals and lifetimes are drawn on a 60 s grid, so
#: every interval below ties events with samples.
INTERVALS = (60.0, 180.0, 600.0)


@st.composite
def vm_rows(draw, max_vms, degenerate):
    """Sorted ``(arrival, lifetime, cores, memory)`` rows."""
    n = draw(st.integers(0, max_vms))
    ticks = sorted(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))
    low_life, low_cores = (-3, 0) if degenerate else (1, 1)
    rows = []
    for tick in ticks:
        lifetime = 60.0 * draw(st.integers(low_life, 12))
        if draw(st.booleans()):
            lifetime += draw(st.sampled_from([0.5, 17.25, 333.3]))
        rows.append((60.0 * tick, lifetime, draw(st.integers(low_cores, 10)),
                     draw(st.sampled_from([0.5, 2.0, 7.3, 16.0, 33.0]))))
    return rows


def trace_of(rows, prefix="vm"):
    return ClusterTrace([raw_record(f"{prefix}-{i}", *row)
                         for i, row in enumerate(rows)], cluster_id=prefix)


@st.composite
def cluster_cases(draw):
    sockets = draw(st.integers(1, 2))
    config = ServerConfig(name="fuzz", sockets=sockets,
                          cores_per_socket=draw(st.sampled_from([4, 8])),
                          dram_per_socket_gb=draw(st.sampled_from([24.0, 40.0])))
    pool_size_sockets = sockets * draw(st.integers(0, 3))
    cluster = dict(
        n_servers=draw(st.integers(1, 6)), server_config=config,
        pool_size_sockets=pool_size_sockets,
        pool_capacity_gb_per_group=draw(
            st.sampled_from([0.0, 10.0, 35.5, float("inf")])),
        constrain_memory=draw(st.booleans()),
        sample_interval_s=draw(st.sampled_from(INTERVALS)),
        record_placements=draw(st.booleans()),
    )
    fraction = draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 1.0]))
    chunk = draw(st.sampled_from([None, 1, 3, 7, 64]))
    return cluster, draw(vm_rows(60, degenerate=True)), fraction, chunk


#: Shrunk counterexample: a zero-core VM placed on, then leaving, a server
#: whose cores are all rented.  A replay loop that assumes a placement never
#: starts on (and a departure never leaves) a full server counts the
#: server's stranded memory twice; the inlined loop's full-server branches
#: use the general update.
ZERO_CORE_ON_FULL_SERVER = (
    dict(n_servers=1, pool_size_sockets=0, pool_capacity_gb_per_group=0.0,
         constrain_memory=True, sample_interval_s=60.0, record_placements=True,
         server_config=ServerConfig(name="fuzz", sockets=1, cores_per_socket=4,
                                    dram_per_socket_gb=24.0)),
    [(0.0, 120.0, 4, 0.5), (60.0, 60.0, 0, 0.5)], 0.0, None)


@FUZZ
@given(cluster_cases())
@example(ZERO_CORE_ON_FULL_SERVER)
def test_run_matches_reference_replay(case):
    cluster, rows, fraction, chunk = case
    trace = trace_of(rows)
    source = trace if chunk is None else trace.stream(chunk_size=chunk)
    policy = FixedFractionPolicy(fraction)
    assert digest(ClusterSimulator(**cluster).run(source, policy)) \
        == digest(reference_replay(source, policy, **cluster))


@st.composite
def fleet_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    sockets = draw(st.integers(1, 2))
    config = ServerConfig(name="fleet-fuzz", sockets=sockets, cores_per_socket=8,
                          dram_per_socket_gb=32.0)
    make = draw(st.sampled_from([PoolTopology.per_shard, PoolTopology.spanning]))
    topology = make(sizes, sockets, sockets * draw(st.integers(1, 3)))
    traces = [trace_of(draw(vm_rows(20, degenerate=True)), f"s{shard}")
              for shard in range(len(sizes))]
    chunk = draw(st.sampled_from([None, 1, 3, 7]))
    if chunk is not None:
        traces = [trace.stream(chunk_size=chunk) for trace in traces]
    policies = [FixedFractionPolicy(draw(st.sampled_from([0.0, 0.3, 1.0])))
                for _ in sizes]
    return (traces, policies, sizes, [config] * len(sizes), topology,
            draw(st.sampled_from([0.0, 20.0, 75.5, float("inf")])),
            draw(st.booleans()), draw(st.sampled_from(INTERVALS)))


@FUZZ
@given(fleet_cases())
def test_crossshard_matches_reference_fleet_replay(args):
    results, ledger = replay_crossshard(*args, True)
    reference, reference_ledger = reference_fleet_replay(*args, True)
    assert [digest(r) for r in results] == [digest(r) for r in reference]
    assert ledger.free_gb == reference_ledger.free_gb
    assert ledger.used_gb == reference_ledger.used_gb
    assert ledger.peak_gb == reference_ledger.peak_gb
