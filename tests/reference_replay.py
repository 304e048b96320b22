"""Brute-force reference replay: the oracle for placement differentials.

:func:`reference_fleet_replay` replays a fleet of shards (one cluster is
the one-shard fleet, :func:`reference_replay`) the slow, obvious way and
returns one ``SimulationResult`` per shard (placements, rejections,
peaks, totals, sample rows) plus the pool-group ledger, which
``replay_crossshard`` must reproduce byte for byte on static replays.

It keeps no indexes: each arrival scans every server of its shard for the
best fit -- fewest free cores, then least free local memory, then lowest
index -- among servers whose pool group has the requested pool GB (1e-9
GB slack) and that have a NUMA node with room for the cores and the local
GB (1e-9 GB slack); the VM goes to the fullest such node (lowest on a
tie).  Pool groups are fleet-wide: one dict per quantity, keyed by fleet
group id, shared by every shard.

Each float is updated by the same operations, in the same order, as in
the placement engine, and the stranded GB moves by ``after - before`` on
every change.  Every event sits on one global heap ordered by time, then
by :data:`PRIORITY` (the equal-time order of DESIGN.md sections 10-11),
then by a tie-break: departures in global placement order, samples and
horizons by shard, arrivals by shard and then trace order.  A shard's
grid samples stop at its horizon -- its last arrival (time 0 for an empty
shard), which becomes pending when that arrival is placed -- and the
horizon sample replaces a grid row at the same time.
"""

import heapq

import numpy as np

from repro.cluster.pool_topology import PoolGroupLedger, PoolTopology
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationResult,
    effective_server_config,
    iter_policy_blocks,
)
from repro.cluster.trace import ClusterTrace

#: Fit slack for NUMA-node GB and pool GB checks.
TOL = 1e-9

#: Equal-time priority of the event kinds (DESIGN.md sections 10-11).
#: Fault events and the per-shard QoS / evacuation-retry ticks that follow
#: each grid sample are not modelled here: this oracle is for static
#: replays.
PRIORITY = {"departure": 0, "fault": 1, "sample": 2, "horizon": 3,
            "arrival": 4}


def reference_replay(trace, policy=None, **cluster):
    """Replay ``trace`` on ``ClusterSimulator(**cluster)``'s cluster.

    Takes the arguments of ``ClusterSimulator(**cluster).run(trace,
    policy)`` for static replays and returns a ``SimulationResult``.
    """
    sim = ClusterSimulator(**cluster)
    topology = PoolTopology.per_shard(
        [sim.n_servers], sim.server_config.sockets, sim.pool_size_sockets)
    (result,), _ = reference_fleet_replay(
        [trace], [policy],
        [sim.n_servers], [sim.server_config], topology,
        sim.pool_capacity_gb_per_group, sim.constrain_memory,
        sim.sample_interval_s, sim.record_placements)
    return result


def _shard_rows(trace, policy):
    """``(record, pool_gb)`` pairs of one shard, in arrival order."""
    # Batch policies come through the shared block iterator; a per-record
    # callback is resolved here, one record at a time: float() first, then
    # the clip, so a numpy-scalar return is clipped in float64.
    batch = hasattr(policy, "decide_batch")
    streaming = not isinstance(trace, ClusterTrace)
    rows, last_arrival = [], 0.0
    for block, allocations in iter_policy_blocks(
            trace, policy if batch else None, policy is not None):
        for index, record in enumerate(block.records):
            if streaming and record.arrival_s < last_arrival:
                raise ValueError(
                    f"stream records must be sorted by arrival time "
                    f"({record.vm_id!r} arrives at {record.arrival_s} after "
                    f"{last_arrival})")
            last_arrival = record.arrival_s
            pool_gb = allocations[index]
            if policy is not None and not batch:
                pool_gb = float(np.clip(float(policy(record)), 0.0,
                                        record.memory_gb))
            rows.append((record, pool_gb))
    return rows


def reference_fleet_replay(inputs, policies, n_servers_per_shard,
                           server_configs, topology, capacity,
                           constrain_memory, sample_interval_s,
                           record_placements=False):
    """Replay a fleet; takes ``replay_crossshard``'s static arguments.

    Returns ``(results, ledger)`` like ``replay_crossshard``.  An unpooled
    topology consults no policy.
    """
    if not topology.pool_size_sockets:
        policies = [None] * len(policies)
    base = server_configs[0]
    cfg = effective_server_config(base, constrain_memory)
    sockets = cfg.sockets
    srv_cores, srv_dram = cfg.total_cores, cfg.total_dram_gb
    ledger = PoolGroupLedger.for_topology(topology, capacity)
    pool_free, pool_used, pool_peak = (
        ledger.free_gb, ledger.used_gb, ledger.peak_gb)
    shards = []
    for shard, n in enumerate(n_servers_per_shard):
        shards.append(dict(
            n=n, group_of=topology.group_of[shard],
            node_cores=[[0] * sockets for _ in range(n)],
            node_gb=[[0.0] * sockets for _ in range(n)],
            used_cores=[0] * n, used_gb=[0.0] * n, pool_srv=[0.0] * n,
            peak_local=[0.0] * n, peak_pool=[0.0] * n,
            cores=0, gb=0.0, stranded=0.0, running=0, alive=True,
            last_sample=None, result=SimulationResult(),
            total_cores=n * base.total_cores,
            total_dram=n * server_configs[shard].total_dram_gb,
        ))

    def stranded(sh, i):
        return (srv_dram - sh["used_gb"][i] if sh["used_cores"][i] >= srv_cores
                else 0.0)

    def fullest_node(sh, i, cores, local_gb):
        best = None
        for k in range(sockets):
            if (sh["node_cores"][i][k] + cores <= cfg.cores_per_socket
                    and sh["node_gb"][i][k]
                    <= cfg.dram_per_socket_gb - local_gb + TOL
                    and (best is None or sh["node_cores"][i][k]
                         > sh["node_cores"][i][best])):
                best = k
        return best

    def best_fit(sh, cores, local_gb, pool_gb):
        best = None
        for i in range(sh["n"]):
            if pool_gb > 0:
                group = sh["group_of"][i]
                free = pool_free[group] if group >= 0 else 0.0
                if pool_gb > free + TOL:
                    continue
            if fullest_node(sh, i, cores, local_gb) is None:
                continue
            key = (srv_cores - sh["used_cores"][i],
                   srv_dram - sh["used_gb"][i], i)
            if best is None or key < best:
                best = key
        return None if best is None else best[2]

    def place(sh, i, k, cores, local_gb, pool_gb):
        before = stranded(sh, i)
        sh["node_cores"][i][k] += cores
        sh["node_gb"][i][k] += local_gb
        sh["used_cores"][i] += cores
        sh["used_gb"][i] += local_gb
        sh["pool_srv"][i] += pool_gb
        sh["peak_local"][i] = max(sh["peak_local"][i], sh["used_gb"][i])
        sh["peak_pool"][i] = max(sh["peak_pool"][i], sh["pool_srv"][i])
        if pool_gb > 0:
            group = sh["group_of"][i]
            pool_free[group] -= pool_gb
            pool_used[group] += pool_gb
            pool_peak[group] = max(pool_peak[group], pool_used[group])
        sh["cores"] += cores
        sh["gb"] += local_gb
        sh["stranded"] += stranded(sh, i) - before
        sh["running"] += 1

    def remove(shard, i, k, cores, local_gb, pool_gb):
        sh = shards[shard]
        group = sh["group_of"][i]
        if group >= 0:
            remaining = pool_used[group] - pool_gb
            if remaining < 0.0:  # clamp float drift; real imbalances raise
                if remaining < -1e-6:
                    raise RuntimeError(f"pool group {group} went negative")
                remaining = 0.0
            pool_used[group] = remaining
        before = stranded(sh, i)
        sh["node_cores"][i][k] -= cores
        sh["node_gb"][i][k] -= local_gb
        sh["used_cores"][i] -= cores
        sh["used_gb"][i] -= local_gb
        sh["pool_srv"][i] -= pool_gb
        if pool_gb > 0:
            pool_free[group] += pool_gb
        sh["cores"] -= cores
        sh["gb"] -= local_gb
        sh["stranded"] += stranded(sh, i) - before
        sh["running"] -= 1

    def sample(shard, t):
        sh = shards[shard]
        cores, s = sh["cores"], max(sh["stranded"], 0.0)
        used_pool = 0.0
        for group in topology.groups_of_shard(shard):
            used_pool += pool_used[group]
        sh["result"].sample_buffer.append_row((
            t, cores / sh["total_cores"], 100.0 * cores / sh["total_cores"],
            sh["gb"], used_pool, s, 100.0 * s / sh["total_dram"],
            sh["running"]))
        sh["last_sample"] = t

    events = []  # (time, priority, tie-break..., payload)
    counts = []
    for shard, (trace, policy) in enumerate(zip(inputs, policies)):
        rows = _shard_rows(trace, policy)
        counts.append(len(rows))
        events.append((0.0, PRIORITY["sample"], shard))
        if not rows:
            events.append((0.0, PRIORITY["horizon"], shard))
        for pos, (record, pool_gb) in enumerate(rows):
            events.append((record.arrival_s, PRIORITY["arrival"], shard, pos,
                           record, pool_gb))
    heapq.heapify(events)
    seq = 0
    while events:
        event = heapq.heappop(events)
        time_s, kind, shard = event[:3]
        if kind == PRIORITY["departure"]:
            remove(*event[3])
        elif kind == PRIORITY["sample"]:
            if shards[shard]["alive"]:
                sample(shard, time_s)
                heapq.heappush(events, (time_s + sample_interval_s, kind,
                                        shard))
        elif kind == PRIORITY["horizon"]:
            sh = shards[shard]
            if sh["last_sample"] == time_s:
                sh["result"].sample_buffer.drop_last()
            sample(shard, time_s)
            sh["alive"] = False
        else:
            _, _, shard, pos, record, pool_gb = event
            sh = shards[shard]
            result = sh["result"]
            if pos == counts[shard] - 1:
                heapq.heappush(events, (time_s, PRIORITY["horizon"], shard))
            local_gb = record.memory_gb - pool_gb
            i = best_fit(sh, record.cores, local_gb, pool_gb)
            if i is None:
                result.rejected_vms += 1
                continue
            k = fullest_node(sh, i, record.cores, local_gb)
            place(sh, i, k, record.cores, local_gb, pool_gb)
            result.placed_vms += 1
            if record_placements:
                result.placements[record.vm_id] = f"server-{i:04d}"
            result.total_memory_gb_allocated += record.memory_gb
            result.total_pool_gb_allocated += pool_gb
            seq += 1
            heapq.heappush(events, (
                record.departure_s, PRIORITY["departure"], seq,
                (shard, i, k, record.cores, local_gb, pool_gb)))

    results = []
    for shard, sh in enumerate(shards):
        result = sh["result"]
        ids = [f"server-{i:04d}" for i in range(sh["n"])]
        result.server_peak_local_gb = dict(zip(ids, sh["peak_local"]))
        result.server_peak_total_gb = {
            ids[i]: sh["peak_local"][i] + sh["peak_pool"][i]
            for i in range(sh["n"])}
        result.pool_peak_gb = (
            {local: pool_peak[g]
             for g, local in topology.local_group_ids(shard).items()}
            if topology.is_per_shard else {})
        results.append(result)
    return results, ledger
