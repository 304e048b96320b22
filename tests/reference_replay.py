"""Brute-force reference replay: the oracle for placement differentials.

:func:`reference_replay` replays a trace the slow, obvious way and returns
a ``SimulationResult`` (placements, rejections, peaks, totals, sample
rows) that ``ClusterSimulator.run`` must reproduce byte for byte.

It keeps no indexes: each arrival scans every server for the best fit --
fewest free cores, then least free local memory, then lowest index --
among servers whose pool group has the requested pool GB (1e-9 GB slack)
and that have a NUMA node with room for the cores and the local GB (1e-9
GB slack); the VM goes to the fullest such node (lowest on a tie).

Each float is updated by the same operations, in the same order, as in
the placement engine, and the stranded GB moves by ``after - before`` on
every change.  At equal times, departures come before the grid sample and
the sample before the arrival; the horizon sample is taken after the last
arrival and replaces a grid row at the same time.
"""

import heapq

import numpy as np

from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationResult,
    effective_server_config,
    iter_policy_blocks,
)
from repro.cluster.trace import ClusterTrace

#: Fit slack for NUMA-node GB and pool GB checks.
TOL = 1e-9


def reference_replay(trace, policy=None, **cluster):
    """Replay ``trace`` on ``ClusterSimulator(**cluster)``'s cluster.

    Takes the arguments of ``ClusterSimulator(**cluster).run(trace,
    policy)`` for static replays and returns a ``SimulationResult``.
    """
    sim = ClusterSimulator(**cluster)
    base = sim.server_config
    cfg = effective_server_config(base, sim.constrain_memory)
    n, sockets = sim.n_servers, cfg.sockets
    srv_cores, srv_dram = cfg.total_cores, cfg.total_dram_gb
    node_cores = [[0] * sockets for _ in range(n)]
    node_gb = [[0.0] * sockets for _ in range(n)]
    used_cores, used_gb = [0] * n, [0.0] * n
    pool_srv, peak_local, peak_pool = [0.0] * n, [0.0] * n, [0.0] * n
    group_of = [None] * n
    pool_free, pool_used, pool_peak = {}, {}, {}
    use_pool = bool(sim.pool_size_sockets)
    if use_pool:
        per_group = max(1, sim.pool_size_sockets // base.sockets)
        for i in range(n):
            group_of[i] = i // per_group
            pool_free.setdefault(group_of[i], sim.pool_capacity_gb_per_group)
            pool_used[group_of[i]] = pool_peak[group_of[i]] = 0.0
    agg = {"cores": 0, "gb": 0.0, "stranded": 0.0, "running": 0}
    total_cores = n * base.total_cores
    total_dram = n * base.total_dram_gb
    result = SimulationResult()
    buffer = result.sample_buffer

    def stranded(i):
        return srv_dram - used_gb[i] if used_cores[i] >= srv_cores else 0.0

    def fullest_node(i, cores, local_gb):
        best = None
        for k in range(sockets):
            if (node_cores[i][k] + cores <= cfg.cores_per_socket
                    and node_gb[i][k] <= cfg.dram_per_socket_gb - local_gb + TOL
                    and (best is None or node_cores[i][k] > node_cores[i][best])):
                best = k
        return best

    def best_fit(cores, local_gb, pool_gb):
        best = None
        for i in range(n):
            if pool_gb > 0:
                free = pool_free[group_of[i]] if group_of[i] is not None else 0.0
                if pool_gb > free + TOL:
                    continue
            if fullest_node(i, cores, local_gb) is None:
                continue
            key = (srv_cores - used_cores[i], srv_dram - used_gb[i], i)
            if best is None or key < best:
                best = key
        return None if best is None else best[2]

    def place(i, k, cores, local_gb, pool_gb):
        before = stranded(i)
        node_cores[i][k] += cores
        node_gb[i][k] += local_gb
        used_cores[i] += cores
        used_gb[i] += local_gb
        pool_srv[i] += pool_gb
        peak_local[i] = max(peak_local[i], used_gb[i])
        peak_pool[i] = max(peak_pool[i], pool_srv[i])
        if pool_gb > 0:
            group = group_of[i]
            pool_free[group] -= pool_gb
            pool_used[group] += pool_gb
            pool_peak[group] = max(pool_peak[group], pool_used[group])
        agg["cores"] += cores
        agg["gb"] += local_gb
        agg["stranded"] += stranded(i) - before
        agg["running"] += 1

    def remove(i, k, cores, local_gb, pool_gb):
        group = group_of[i]
        if group is not None:
            remaining = pool_used[group] - pool_gb
            if remaining < 0.0:  # clamp float drift; real imbalances raise
                if remaining < -1e-6:
                    raise RuntimeError(f"pool group {group} went negative")
                remaining = 0.0
            pool_used[group] = remaining
        before = stranded(i)
        node_cores[i][k] -= cores
        node_gb[i][k] -= local_gb
        used_cores[i] -= cores
        used_gb[i] -= local_gb
        pool_srv[i] -= pool_gb
        if pool_gb > 0:
            pool_free[group] += pool_gb
        agg["cores"] -= cores
        agg["gb"] -= local_gb
        agg["stranded"] += stranded(i) - before
        agg["running"] -= 1

    def sample(t):
        cores, s = agg["cores"], max(agg["stranded"], 0.0)
        buffer.append_row((t, cores / total_cores, 100.0 * cores / total_cores,
                           agg["gb"], sum(pool_used.values()), s,
                           100.0 * s / total_dram, agg["running"]))

    departures, seq = [], 0
    next_sample, last_sample, last_arrival = 0.0, None, 0.0

    def advance(t):
        nonlocal next_sample, last_sample
        while True:
            due = departures[0][0] if departures else float("inf")
            if due <= next_sample:
                if due > t:
                    return
                remove(*heapq.heappop(departures)[2:])
            else:
                if next_sample > t:
                    return
                sample(next_sample)
                last_sample = next_sample
                next_sample += sim.sample_interval_s

    # Batch policies come through the shared block iterator; a per-record
    # callback is resolved here, one record at a time: float() first, then
    # the clip, so a numpy-scalar return is clipped in float64.
    batch = hasattr(policy, "decide_batch")
    streaming = not isinstance(trace, ClusterTrace)
    for block, allocations in iter_policy_blocks(
            trace, policy if batch else None, use_pool):
        for index, record in enumerate(block.records):
            if streaming and record.arrival_s < last_arrival:
                raise ValueError(
                    f"stream records must be sorted by arrival time "
                    f"({record.vm_id!r} arrives at {record.arrival_s} after "
                    f"{last_arrival})")
            last_arrival = record.arrival_s
            advance(last_arrival)
            pool_gb = allocations[index]
            if use_pool and policy is not None and not batch:
                pool_gb = float(np.clip(float(policy(record)), 0.0,
                                        record.memory_gb))
            local_gb = record.memory_gb - pool_gb
            i = best_fit(record.cores, local_gb, pool_gb)
            if i is None:
                result.rejected_vms += 1
                continue
            k = fullest_node(i, record.cores, local_gb)
            place(i, k, record.cores, local_gb, pool_gb)
            result.placed_vms += 1
            if sim.record_placements:
                result.placements[record.vm_id] = f"server-{i:04d}"
            result.total_memory_gb_allocated += record.memory_gb
            result.total_pool_gb_allocated += pool_gb
            seq += 1
            heapq.heappush(departures, (record.departure_s, seq, i, k,
                                        record.cores, local_gb, pool_gb))

    advance(last_arrival)
    if last_sample is None or last_sample <= last_arrival:
        if last_sample == last_arrival:
            buffer.drop_last()
        sample(last_arrival)
    while departures:
        remove(*heapq.heappop(departures)[2:])
    ids = [f"server-{i:04d}" for i in range(n)]
    result.server_peak_local_gb = dict(zip(ids, peak_local))
    result.server_peak_total_gb = {
        ids[i]: peak_local[i] + peak_pool[i] for i in range(n)}
    result.pool_peak_gb = dict(pool_peak)
    return result
