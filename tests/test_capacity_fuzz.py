"""Property test: a capacity probe split by pool-connected component equals
one whole-fleet replay.

``FleetSimulator.capacity_search`` replays every candidate one component
at a time (shards linked by shared pool groups, remapped to a sub-topology
with group ids ``0 .. k-1``).  Over random small fleets -- unpooled,
per-shard, spanning with and without seam groups, and random group
assignments whose components need not be contiguous -- and random candidate
DRAM and pool caps, the component outcomes must match one whole-fleet
:func:`~repro.cluster.pool_topology.replay_crossshard` exactly: rejected
and placed VMs, per-group peaks by fleet id, and per-shard pool/memory
totals (so their shard-order sums match too).  Derandomized, no database.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from replay_fixtures import raw_record
from repro.cluster.fleet import _ProbeSession
from repro.cluster.pool import FixedFractionPolicy, capacity_candidate_config
from repro.cluster.pool_topology import PoolTopology, replay_crossshard
from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace
from repro.cluster.tracegen import TraceGenConfig

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)

INTERVAL_S = 120.0


def shard_policy(fractions, shard):
    return FixedFractionPolicy(fractions[shard])


@st.composite
def shard_trace(draw, shard):
    n = draw(st.integers(0, 16))
    ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    return ClusterTrace([
        raw_record(f"s{shard}-{i}", 60.0 * tick,
                   60.0 * draw(st.integers(0, 10)),
                   draw(st.integers(1, 8)),
                   draw(st.sampled_from([2.0, 7.3, 16.0, 33.0])))
        for i, tick in enumerate(ticks)
    ], cluster_id=f"s{shard}")


@st.composite
def topologies(draw, sizes, sockets):
    kind = draw(st.sampled_from(
        ["unpooled", "per_shard", "spanning", "random"]))
    if kind == "unpooled":
        return PoolTopology.per_shard(sizes, sockets, 0)
    if kind != "random":
        make = getattr(PoolTopology, kind)
        # Group sizes of 1-4 servers: spanning fleets get seams whenever
        # the group size does not divide the shard sizes.
        return make(sizes, sockets, sockets * draw(st.integers(1, 4)))
    # Any server may join any group, so one group can link shards 0 and 2
    # but not 1.
    n_groups = draw(st.integers(1, sum(sizes)))
    raw = [[draw(st.integers(0, n_groups - 1)) for _ in range(n)]
           for n in sizes]
    used = sorted({g for shard in raw for g in shard})
    relabel = {g: i for i, g in enumerate(used)}
    return PoolTopology([[relabel[g] for g in shard] for shard in raw],
                        sockets, sockets)


@st.composite
def probe_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    sockets = draw(st.integers(1, 2))
    config = ServerConfig(name="cap-fuzz", sockets=sockets, cores_per_socket=8,
                          dram_per_socket_gb=32.0)
    topology = draw(topologies(sizes, sockets))
    traces = [draw(shard_trace(shard)) for shard in range(len(sizes))]
    fractions = tuple(draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in sizes)
    dram = draw(st.one_of(st.none(), st.sampled_from([8.0, 24.0, 40.5, 64.0])))
    caps = None
    if topology.n_groups and draw(st.booleans()):
        caps = {g: draw(st.sampled_from([0.0, 10.0, 35.5, float("inf")]))
                for g in range(topology.n_groups)}
    return sizes, config, topology, traces, fractions, dram, caps


@FUZZ
@given(probe_cases())
def test_component_probes_match_whole_fleet_replay(case):
    sizes, config, topology, traces, fractions, dram, caps = case
    factory = functools.partial(shard_policy, fractions)
    server = config if dram is None else capacity_candidate_config(config, dram)
    results, ledger = replay_crossshard(
        traces, [factory(shard) for shard in range(len(sizes))], sizes,
        [server] * len(sizes), topology,
        float("inf") if caps is None else caps, dram is not None, INTERVAL_S,
    )

    shard_configs = [TraceGenConfig(cluster_id=f"s{shard}", n_servers=n,
                                    server_config=config)
                     for shard, n in enumerate(sizes)]
    session = _ProbeSession(shard_configs, traces, INTERVAL_S, max_workers=None)
    caps_items = None if caps is None else tuple(sorted(caps.items()))
    outcomes = list(session.outcomes(factory, topology, caps_items, dram))

    assert len(outcomes) == len(topology.components)
    assert sum(o.rejected_vms for o in outcomes) \
        == sum(r.rejected_vms for r in results)
    assert sum(o.placed_vms for o in outcomes) \
        == sum(r.placed_vms for r in results)
    peaks = {}
    pool_gb = [None] * len(sizes)
    memory_gb = [None] * len(sizes)
    for component, outcome in zip(topology.components, outcomes):
        assert not peaks.keys() & outcome.pool_peak_gb.keys()
        peaks.update(outcome.pool_peak_gb)
        for shard, pool, memory in zip(component, outcome.pool_gb,
                                       outcome.memory_gb):
            pool_gb[shard] = pool
            memory_gb[shard] = memory
    assert peaks == ledger.peak_gb
    assert pool_gb == [r.total_pool_gb_allocated for r in results]
    assert memory_gb == [r.total_memory_gb_allocated for r in results]
