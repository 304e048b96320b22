"""Fleet-level pool topologies: pool groups that may span cluster shards.

The paper's pool-scope sensitivity result (Figure 4) is that how many
sockets share one CXL pool drives both the achievable DRAM savings and the
blast radius of a pool failure, with 16-64-socket pools spanning multiple
chassis or racks.  The sharded fleet simulator models each shard as one
independent cluster, so out of the box "pools never span shards" -- the
rack-scale regime where one pool serves servers from *two* clusters could
not be replayed.  This module lifts pool-group ownership out of the
single-cluster simulator:

* :class:`PoolTopology` maps every ``(shard, server)`` of a fleet to a
  *fleet-level* pool group id.  :meth:`PoolTopology.per_shard` reproduces
  the classic intra-shard grouping (the degenerate topology, byte-identical
  to the shardwise path -- differential-tested like ``engine="object"``);
  :meth:`PoolTopology.spanning` blocks groups across the concatenated fleet
  server list, ignoring shard boundaries, so one group can span clusters.
* :class:`PoolGroupLedger` owns the per-group free/used/peak accounting.
  Engines do not copy it: every shard's :class:`ArrayPlacementEngine` is
  constructed over the *same* ledger dicts, so a pool draw in one shard is
  immediately visible to placement feasibility checks in another.
* :func:`replay_crossshard` replays the shards of a fleet as **one merged
  time-ordered event stream** (arrivals k-way merged across shards,
  departures and per-shard samples in a single event heap), which is what
  makes a shared group's capacity constraint physically meaningful: two
  shards contending for one group contend at simulation time, not
  shard-serially.

Ordering contract (the same as ``ClusterSimulator``'s object and calendar
loops): at equal timestamps the order is departures, then samples, then
arrivals, with deterministic shard-index tie-breaks; per shard, the relative
event order is exactly a single cluster's, which is why the degenerate
per-shard topology reproduces ``FleetSimulator``'s classic results
byte-for-byte (enforced by ``tests/test_pool_topology.py``).  A single
cluster is the one-shard case: ``ClusterSimulator.run`` replays every
materialised static trace and every online or faulted replay through
:func:`replay_crossshard`.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, bisect_right, insort
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.engine import ArrayPlacementEngine
from repro.cluster.faults import FaultImpactStats, FaultInjector, FaultSchedule
from repro.cluster.scheduler import PlacementError
from repro.cluster.server import ServerConfig
from repro.cluster.simulator import (
    SimulationResult,
    TraceInput,
    active_controls,
    attach_control_stats,
    block_replay_columns,
    effective_server_config,
    iter_policy_blocks,
)
from repro.cluster.trace import ClusterTrace
from repro.core.control_plane.online import (
    OnlineControlConfig,
    OnlineControlStats,
    estimate_slowdown_batch,
)

__all__ = ["PoolTopology", "PoolGroupLedger", "replay_crossshard"]


class PoolTopology:
    """Fleet-wide mapping of servers to pool groups, with provisioning domains.

    ``group_of[shard][server]`` is the fleet-level pool group id serving that
    server.  Group ids are contiguous (``0 .. n_groups - 1``) and every
    server belongs to exactly one group -- the topology describes a fully
    pooled fleet.  The one exception is the unpooled topology
    (``pool_size_sockets=0``): every server maps to group ``-1`` and
    ``n_groups`` is 0, which is how ``ClusterSimulator`` replays a cluster
    without a pool as a one-shard fleet.

    ``domain_of_group`` partitions groups into **provisioning domains**: pool
    blades are bought uniformly within a domain, so the capacity search
    provisions every group of a domain at the domain's worst observed peak
    (times headroom).  The per-shard topology uses one domain per shard --
    exactly today's per-cluster provisioning -- while spanning topologies
    default to a single fleet-wide domain (one blade SKU for the whole
    deployment).
    """

    def __init__(
        self,
        group_of: Sequence[Sequence[int]],
        sockets_per_server: int,
        pool_size_sockets: int,
        domain_of_group: Optional[Sequence[int]] = None,
    ) -> None:
        if not group_of:
            raise ValueError("need at least one shard")
        if sockets_per_server < 1:
            raise ValueError("sockets_per_server must be >= 1")
        if pool_size_sockets < 0:
            raise ValueError("pool_size_sockets cannot be negative")
        if pool_size_sockets % sockets_per_server != 0:
            raise ValueError(
                "pool_size_sockets must be a multiple of the server socket count"
            )
        self.group_of: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(g) for g in shard) for shard in group_of
        )
        if any(not shard for shard in self.group_of):
            raise ValueError("every shard must have at least one server")
        self.sockets_per_server = sockets_per_server
        self.pool_size_sockets = pool_size_sockets
        self.shard_sizes: Tuple[int, ...] = tuple(len(s) for s in self.group_of)
        self.n_shards = len(self.group_of)
        self.total_servers = sum(self.shard_sizes)

        seen = sorted({g for shard in self.group_of for g in shard})
        if not pool_size_sockets:
            if seen != [-1]:
                raise ValueError(
                    "an unpooled topology maps every server to group -1")
            seen = []
        elif seen[0] != 0 or seen[-1] != len(seen) - 1:
            raise ValueError(
                f"group ids must be contiguous 0..n-1, got {seen[:8]}..."
            )
        self.n_groups = len(seen)

        # -- derived indices -------------------------------------------------------
        sizes = [0] * self.n_groups
        shards_of: List[set] = [set() for _ in range(self.n_groups)]
        by_shard: List[List[int]] = []
        for shard, assignment in enumerate(self.group_of):
            shard_groups: List[int] = []
            for group in assignment:
                if group < 0:
                    continue
                sizes[group] += 1
                shards_of[group].add(shard)
                if group not in shard_groups:
                    shard_groups.append(group)
            by_shard.append(sorted(shard_groups))
        #: servers attached to each group, fleet-wide.
        self.group_server_count: Tuple[int, ...] = tuple(sizes)
        #: shards each group touches (ascending).
        self.group_shards: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in shards_of
        )
        #: groups each shard's servers attach to (ascending fleet ids).
        self._groups_by_shard: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(g) for g in by_shard
        )

        if domain_of_group is None:
            domains: Tuple[int, ...] = (0,) * self.n_groups
        else:
            domains = tuple(int(d) for d in domain_of_group)
            if len(domains) != self.n_groups:
                raise ValueError("domain_of_group must have one entry per group")
        self.domain_of_group = domains
        #: domain id -> its groups, both ascending (provisioning iterates
        #: domains in this order, matching the shardwise accumulation order
        #: of the classic capacity search for per-shard topologies).
        by_domain: Dict[int, List[int]] = {}
        for group in range(self.n_groups):
            by_domain.setdefault(self.domain_of_group[group], []).append(group)
        self.groups_by_domain: Dict[int, Tuple[int, ...]] = {
            d: tuple(by_domain[d]) for d in sorted(by_domain)
        }

    # -- constructors --------------------------------------------------------------
    @classmethod
    def per_shard(cls, shard_sizes: Sequence[int], sockets_per_server: int,
                  pool_size_sockets: int) -> "PoolTopology":
        """The degenerate topology: groups confined to shards.

        Reproduces ``ClusterSimulator``'s grouping inside every shard
        (``server // servers_per_group``, fleet ids offset per shard) with
        one provisioning domain per shard -- the exact regime the shardwise
        fleet path models, kept as the differential anchor.  With
        ``pool_size_sockets=0`` the topology is unpooled: every server maps
        to group ``-1``.
        """
        if not pool_size_sockets:
            return cls([[-1] * n for n in shard_sizes], sockets_per_server, 0)
        servers_per_group = max(1, pool_size_sockets // sockets_per_server)
        group_of: List[List[int]] = []
        domains: List[int] = []
        next_group = 0
        for shard, n_servers in enumerate(shard_sizes):
            local = [i // servers_per_group for i in range(n_servers)]
            n_local = local[-1] + 1 if local else 0
            group_of.append([next_group + g for g in local])
            domains.extend([shard] * n_local)
            next_group += n_local
        return cls(group_of, sockets_per_server, pool_size_sockets, domains)

    @classmethod
    def spanning(cls, shard_sizes: Sequence[int], sockets_per_server: int,
                 pool_size_sockets: int) -> "PoolTopology":
        """Groups blocked across the concatenated fleet server list.

        Shard boundaries are ignored: server ``k`` of the fleet-wide
        enumeration joins group ``k // servers_per_group``, so a group at a
        shard seam serves servers from two (or more) clusters -- the
        rack-scale pooling regime.  One fleet-wide provisioning domain.
        """
        servers_per_group = max(1, pool_size_sockets // sockets_per_server)
        group_of: List[List[int]] = []
        offset = 0
        for n_servers in shard_sizes:
            group_of.append(
                [(offset + i) // servers_per_group for i in range(n_servers)]
            )
            offset += n_servers
        return cls(group_of, sockets_per_server, pool_size_sockets)

    # -- views ---------------------------------------------------------------------
    def groups_of_shard(self, shard: int) -> Tuple[int, ...]:
        """Fleet group ids a shard's servers attach to (ascending)."""
        return self._groups_by_shard[shard]

    def local_group_ids(self, shard: int) -> Dict[int, int]:
        """fleet group id -> shard-local group id (ascending enumeration).

        For :meth:`per_shard` topologies this recovers exactly the local ids
        ``ClusterSimulator`` would have used, which is how the degenerate
        replay reports byte-identical per-shard ``pool_peak_gb`` dicts.
        """
        return {g: i for i, g in enumerate(self._groups_by_shard[shard])}

    @property
    def spanning_group_ids(self) -> Tuple[int, ...]:
        """Groups whose servers live in more than one shard."""
        return tuple(
            g for g in range(self.n_groups) if len(self.group_shards[g]) > 1
        )

    @property
    def is_per_shard(self) -> bool:
        """True when no group spans shards *and* domains follow shards.

        This is the degenerate regime whose results are byte-identical to the
        classic shardwise fleet path; anything else is fleet-owned.
        """
        return all(
            len(self.group_shards[g]) == 1
            and self.domain_of_group[g] == self.group_shards[g][0]
            for g in range(self.n_groups)
        )

    # -- provisioning --------------------------------------------------------------
    def provision_capacities(
        self, peaks: Dict[int, float], headroom: float,
    ) -> Tuple[Dict[int, float], float]:
        """Uniform per-domain pool capacities from observed group peaks.

        Every group of a domain is provisioned at ``headroom`` times the
        domain's worst per-group peak (pool blades are bought uniformly
        within a domain).  Returns ``(capacity per group, total provisioned
        GB)``; the total is accumulated domain by domain as ``capacity *
        n_groups`` -- the same float arithmetic the classic per-shard search
        uses, so degenerate topologies provision byte-identically.
        """
        caps: Dict[int, float] = {}
        required_total = 0.0
        for _domain, groups in self.groups_by_domain.items():
            cap = headroom * max(peaks.get(g, 0.0) for g in groups)
            for group in groups:
                caps[group] = cap
            required_total += cap * len(groups)
        return caps, required_total

    def uniform_pool_requirement_gb(self, peaks: Dict[int, float]) -> float:
        """Fleet-owned uniform pool provisioning from observed group peaks.

        The per-server normalised analogue of
        :func:`repro.cluster.pool.uniform_pool_requirement_gb`: blades are
        deployed with one capacity per attached server fleet-wide, so the
        requirement is the worst per-server group demand times the fleet
        server count.  Used for the savings of spanning topologies, where no
        single shard owns a group.
        """
        if not peaks:
            return 0.0
        worst_per_server = 0.0
        for group, peak in peaks.items():
            size = self.group_server_count[group]
            if size <= 0:
                continue
            worst_per_server = max(worst_per_server, peak / size)
        return worst_per_server * self.total_servers


class PoolGroupLedger:
    """Fleet-owned pool-group accounting shared by every shard's engine.

    The three dicts are handed to each :class:`ArrayPlacementEngine` (which
    mutates them in place), so a draw in one shard is immediately visible to
    every other shard sharing the group -- capacity feasibility, usage
    samples, and peaks are all fleet-level facts.
    """

    def __init__(self, capacities: Dict[int, float]) -> None:
        self.capacity_gb: Dict[int, float] = dict(capacities)
        self.free_gb: Dict[int, float] = dict(capacities)
        self.used_gb: Dict[int, float] = {g: 0.0 for g in capacities}
        self.peak_gb: Dict[int, float] = {g: 0.0 for g in capacities}
        #: group -> healthy capacity while degraded (fault injection);
        #: absent means the group is healthy.  See DESIGN.md section 11.
        self._healthy_capacity_gb: Dict[int, float] = {}

    # -- fault degradation (EMC failures; see repro.cluster.faults) ---------------
    @property
    def degraded_groups(self) -> Tuple[int, ...]:
        """Groups currently running at degraded capacity (insertion order)."""
        return tuple(self._healthy_capacity_gb)

    def is_degraded(self, group: int) -> bool:
        return group in self._healthy_capacity_gb

    def degrade(self, group: int, loss_fraction: float) -> float:
        """Cut ``group`` to ``(1 - loss_fraction)`` of its *healthy* capacity.

        Repeated fails re-derive from the healthy capacity (losses do not
        compound -- a fail event states how much of the EMC is gone, not a
        delta).  A total loss (``loss_fraction >= 1``) zeroes the group even
        when its healthy capacity is infinite; a partial loss of an
        infinite group is a no-op (``inf * fraction`` is still ``inf``).

        While degraded, ``free_gb`` is pinned to ``max(0, capacity - used)``
        so the feasibility checks in placement see the surviving capacity;
        returns the **deficit** (``max(0, used - capacity)``): demand the
        failure strands until it is evacuated, killed, or repaired.
        """
        if group not in self.capacity_gb:
            raise KeyError(f"unknown pool group {group}")
        if not 0.0 < loss_fraction <= 1.0:
            raise ValueError("loss_fraction must be in (0, 1]")
        healthy = self._healthy_capacity_gb.setdefault(
            group, self.capacity_gb[group])
        if loss_fraction >= 1.0:
            capacity = 0.0
        else:
            capacity = healthy * (1.0 - loss_fraction)
        self.capacity_gb[group] = capacity
        used = self.used_gb[group]
        free = capacity - used
        self.free_gb[group] = free if free > 0.0 else 0.0
        deficit = used - capacity
        return deficit if deficit > 0.0 else 0.0

    def repair(self, group: int) -> None:
        """Restore a degraded group to its healthy capacity.

        ``free_gb`` becomes ``max(0, healthy - used)`` -- live draws made
        while degraded stay accounted.  Repairing a healthy group is a
        no-op.
        """
        healthy = self._healthy_capacity_gb.pop(group, None)
        if healthy is None:
            return
        self.capacity_gb[group] = healthy
        used = self.used_gb[group]
        free = healthy - used
        self.free_gb[group] = free if free > 0.0 else 0.0

    def resync(self, group: int) -> None:
        """Re-pin a *degraded* group's ``free_gb`` to ``capacity - used``.

        The placement engines return released pool memory with an
        unmediated ``free += gb``; on a degraded group that can overshoot
        the surviving capacity.  The fault injector calls this after any
        release it observes.  Healthy groups are left alone -- their free
        counter is the engines' incremental truth.
        """
        if group not in self._healthy_capacity_gb:
            return
        free = self.capacity_gb[group] - self.used_gb[group]
        self.free_gb[group] = free if free > 0.0 else 0.0

    @classmethod
    def for_topology(
        cls, topology: PoolTopology,
        capacity: Union[float, Dict[int, float]],
    ) -> "PoolGroupLedger":
        """Ledger over a topology's groups: one shared capacity, or per group."""
        if isinstance(capacity, dict):
            missing = [g for g in range(topology.n_groups) if g not in capacity]
            if missing:
                raise ValueError(f"capacity missing for groups {missing[:8]}")
            caps = {g: capacity[g] for g in range(topology.n_groups)}
        else:
            caps = {g: capacity for g in range(topology.n_groups)}
        return cls(caps)


def _shard_arrival_events(
    shard: int,
    trace: TraceInput,
    policy,
    use_pool: bool,
    with_slowdowns: bool = False,
) -> Iterator[Tuple[float, float, int, float, str, float]]:
    """One shard's ``(arrival, departure, cores, memory, vm_id, pool_gb)``
    stream, in arrival order, with pool allocations resolved exactly like
    ``ClusterSimulator``'s calendar loop (shared :func:`iter_policy_blocks`).

    With ``with_slowdowns`` (the online replay's mitigation path) each
    tuple carries a seventh element: the VM's estimated slowdown percent
    from :func:`estimate_slowdown_batch` under ``policy``, computed once
    per block."""
    streaming = not isinstance(trace, ClusterTrace)
    last_arrival = 0.0
    for block, records, allocations in iter_policy_blocks(
        trace, policy, use_pool
    ):
        vm_ids, arrivals, departs, cores_col, memory_col = (
            block_replay_columns(block, records)
        )
        n_block = len(vm_ids)
        if streaming and n_block:
            prev = last_arrival
            for index in range(n_block):
                arrival = arrivals[index]
                if arrival < prev:
                    raise ValueError(
                        f"stream records must be sorted by arrival time "
                        f"({vm_ids[index]!r} arrives at {arrival} after "
                        f"{prev})"
                    )
                prev = arrival
            last_arrival = prev
        if allocations is None:
            if policy is not None and use_pool:
                allocations = [
                    float(np.clip(policy(r), 0.0, r.memory_gb)) for r in records
                ]
            else:
                allocations = [0.0] * n_block
        if with_slowdowns and n_block:
            slowdowns = estimate_slowdown_batch(
                policy, block,
                np.asarray(allocations, dtype=np.float64),
            ).tolist()
            yield from zip(arrivals, departs, cores_col, memory_col, vm_ids,
                           allocations, slowdowns)
        else:
            yield from zip(arrivals, departs, cores_col, memory_col, vm_ids,
                           allocations)


#: Event kinds in the merged heap; at equal timestamps departures fire first,
#: then fault events, then grid samples, then horizon samples, then (outside
#: the heap) arrivals -- the single-cluster simulator's ordering, per shard
#: (DESIGN.md sections 10 and 11).
_KIND_DEPARTURE = 0
_KIND_FAULT = 1
_KIND_SAMPLE = 2
_KIND_HORIZON = 3
_KIND_ARRIVAL = 4  # sentinel used only in pump limits; arrivals are not heaped

#: Merged arrival rows the inlined loop converts to Python scalars at a
#: time (see :func:`_merged_slices`).  Purely a memory knob: results do not
#: depend on it.
_ARRIVAL_SLICE_ROWS = 16384


def replay_crossshard(
    inputs: Sequence[TraceInput],
    policies: Sequence[object],
    n_servers_per_shard: Sequence[int],
    server_configs: Sequence[ServerConfig],
    topology: PoolTopology,
    capacity: Union[float, Dict[int, float]],
    constrain_memory: bool,
    sample_interval_s: float,
    record_placements: bool = False,
    online: Optional[OnlineControlConfig] = None,
    faults: Optional[FaultSchedule] = None,
) -> Tuple[List[SimulationResult], PoolGroupLedger]:
    """Replay a fleet as one merged event stream over a shared group ledger.

    Each shard keeps its own placement engine, sample grid, and result (a
    shard is still one scheduling domain: VMs never migrate across shards);
    only the pool groups are fleet-owned.  Returns one
    :class:`SimulationResult` per shard plus the ledger, whose ``peak_gb``
    holds the fleet-level per-group peaks.

    For a :meth:`PoolTopology.per_shard` topology the per-shard results are
    byte-identical to running each shard through ``ClusterSimulator`` on its
    own (same floats, same sample rows, same peaks): disjoint shards never
    read each other's state, and per shard the event order and arithmetic
    match ``ClusterSimulator``'s calendar and object loops operation for
    operation.  Shard results of spanning topologies report
    ``pool_peak_gb = {}`` -- a spanned group's peak belongs to the fleet,
    not to any one shard (read it off the returned ledger).

    The replay has two loops.  Static replays of materialised traces whose
    departures all fall strictly after their arrivals (and whose VMs all
    request at least one core), on a fleet of shards sharing one server
    SKU, run on the **inlined** merged loop
    (:func:`_replay_crossshard_inlined`): the event heap is replaced by a
    precomputed global event order and the per-event engine method calls
    by hoisted locals (the loop hoists the SKU shape into scalars, hence the
    uniformity requirement).  Everything else -- online or faulted replays,
    streams, hand-built column blocks, degenerate lifetimes, zero-core VMs
    or mixed-SKU fleets -- runs on the engine-method event loop
    (:func:`_replay_crossshard_events`), which also serves as the
    differential reference pinning the inlined loop's byte-identical
    results.  ``ClusterSimulator.run`` calls this function as a one-shard
    fleet (``PoolTopology.per_shard([n_servers], ...)``, unpooled when the
    cluster has no pool, with ``None`` policies for unpooled shards).

    ``online`` activates the online QoS/mitigation stage (DESIGN.md section
    10): after each shard's grid sample a QoS tick migrates that shard's
    at-risk pool-exposed VMs to local DRAM, updating the shared ledger.
    Mitigation mutates per-VM state mid-replay, which the precomputed-order
    inlined loop cannot express, so an enabled stage runs on the
    engine-method event loop.  Each result gets a per-shard
    :class:`~repro.core.control_plane.online.OnlineControlStats`.

    ``faults`` activates deterministic EMC fault injection (DESIGN.md
    section 11): :class:`~repro.cluster.faults.FaultSchedule` events (fleet
    group ids) merge into the event heap -- after departures, before grid
    samples at equal timestamps -- degrading the shared ledger and running
    the degradation ladder over affected VMs; per-shard evacuation-retry
    ticks fire after each shard's QoS tick (or directly after its grid
    sample when ``online`` is off).  A schedule with events runs on the
    engine-method event loop too.  Impact accounting lands on each
    result's ``fault_stats`` (group-level counters on the group's home
    shard).

    Switched "off" -- mitigation disabled (threshold ``inf``) or a schedule
    without events -- a stage is dropped before dispatch
    (:func:`~repro.cluster.simulator.active_controls`), so the replay
    dispatches like a static one and costs what a static one costs.  The
    per-shard results are byte-identical to the static replay and still
    carry zeroed ``online_stats`` / ``fault_stats`` (differential-tested
    against the events loop run with the switches on it).
    """
    _validate_crossshard_args(
        inputs, policies, n_servers_per_shard, server_configs, topology)
    run_online, run_faults = active_controls(online, faults)
    if (run_online is None and run_faults is None
            and _inlinable(inputs, server_configs)):
        results, ledger = _replay_crossshard_inlined(
            inputs, policies, n_servers_per_shard, server_configs, topology,
            capacity, constrain_memory, sample_interval_s, record_placements)
    else:
        results, ledger = _replay_crossshard_events(
            inputs, policies, n_servers_per_shard, server_configs, topology,
            capacity, constrain_memory, sample_interval_s, record_placements,
            online=run_online, faults=run_faults)
    attach_control_stats(results, online, faults)
    return results, ledger


def _inlinable(inputs: Sequence[TraceInput],
               server_configs: Sequence[ServerConfig]) -> bool:
    """Whether a static replay may take :func:`_replay_crossshard_inlined`.

    Requires one server SKU fleet-wide and materialised traces whose
    departures all fall strictly after their arrivals and whose VMs all
    request at least one core.
    """
    if len({
        (cfg.sockets, cfg.cores_per_socket, cfg.dram_per_socket_gb)
        for cfg in server_configs
    }) > 1:
        return False
    for trace in inputs:
        if not isinstance(trace, ClusterTrace):
            return False
        columns = trace.columns()
        arrivals = columns.arrival_s
        if arrivals is None:
            return False
        if arrivals.shape[0] and not (
            bool((columns.departure_s > arrivals).all())
            and int(columns.cores.min()) >= 1
        ):
            return False
    return True


def _validate_crossshard_args(inputs, policies, n_servers_per_shard,
                              server_configs, topology) -> None:
    """Shared shape validation for both cross-shard replay loops."""
    n_shards = len(inputs)
    if not (len(policies) == len(n_servers_per_shard) == len(server_configs)
            == n_shards == topology.n_shards):
        raise ValueError("inputs/policies/configs/topology shard counts differ")
    for shard in range(n_shards):
        if n_servers_per_shard[shard] != topology.shard_sizes[shard]:
            raise ValueError(
                f"topology maps {topology.shard_sizes[shard]} servers for "
                f"shard {shard}, fleet has {n_servers_per_shard[shard]}"
            )


def _crossshard_setup(n_servers_per_shard, server_configs, topology, capacity,
                      constrain_memory):
    """Ledger, per-shard engines/results, and derived per-shard views."""
    n_shards = topology.n_shards
    ledger = PoolGroupLedger.for_topology(topology, capacity)
    engines: List[ArrayPlacementEngine] = []
    results: List[SimulationResult] = []
    for shard in range(n_shards):
        engines.append(ArrayPlacementEngine(
            n_servers_per_shard[shard],
            effective_server_config(server_configs[shard], constrain_memory),
            group_of=list(topology.group_of[shard]),
            pool_free_gb=ledger.free_gb,
            pool_used_gb=ledger.used_gb,
            pool_peak_gb=ledger.peak_gb,
        ))
        results.append(SimulationResult())
    shard_groups = [topology.groups_of_shard(s) for s in range(n_shards)]
    total_cores = [e.total_cores for e in engines]
    total_dram = [
        n_servers_per_shard[s] * server_configs[s].total_dram_gb
        for s in range(n_shards)
    ]
    return ledger, engines, results, shard_groups, total_cores, total_dram


def _replay_crossshard_events(
    inputs: Sequence[TraceInput],
    policies: Sequence[object],
    n_servers_per_shard: Sequence[int],
    server_configs: Sequence[ServerConfig],
    topology: PoolTopology,
    capacity: Union[float, Dict[int, float]],
    constrain_memory: bool,
    sample_interval_s: float,
    record_placements: bool = False,
    online: Optional[OnlineControlConfig] = None,
    faults: Optional[FaultSchedule] = None,
) -> Tuple[List[SimulationResult], PoolGroupLedger]:
    """The engine-method cross-shard event loop (differential reference).

    Events live in an explicit heap and every placement/removal goes through
    :class:`ArrayPlacementEngine` methods.  This is the loop the inlined
    fast path (:func:`_replay_crossshard_inlined`) is differentially pinned
    against; it also handles inputs the fast path cannot (streams,
    hand-built blocks, degenerate lifetimes, zero-core VMs) and is the only
    loop that carries the online QoS/mitigation stage (``online=...``:
    per-shard QoS ticks fire after that shard's grid samples) and EMC fault
    injection (``faults=...``).  Its ``pump`` is the one hand-scheduled
    implementation of the ordering contract (DESIGN.md sections 10-11),
    checked by ``repro.analysis.contracts``; online or faulted
    single-cluster replays run here as a one-shard fleet.
    """
    _validate_crossshard_args(
        inputs, policies, n_servers_per_shard, server_configs, topology)
    n_shards = len(inputs)
    ledger, engines, results, shard_groups, total_cores, total_dram = (
        _crossshard_setup(n_servers_per_shard, server_configs, topology,
                          capacity, constrain_memory)
    )
    last_sample: List[Optional[float]] = [None] * n_shards
    done = [False] * n_shards
    placed = [0] * n_shards
    rejected = [0] * n_shards
    total_memory = [0.0] * n_shards
    total_pool = [0.0] * n_shards
    placed_ids: List[List[str]] = [[] for _ in range(n_shards)]
    placed_srv: List[List[int]] = [[] for _ in range(n_shards)]

    # -- online QoS/mitigation state (one at-risk set + stats per shard) ----
    mitigate = online is not None and online.mitigation_enabled
    threshold = online.qos_threshold_percent if online is not None else 0.0
    cost_per_gb = online.migration_cost_s_per_gb if online is not None else 0.0
    stats_list: List[Optional[OnlineControlStats]] = [None] * n_shards
    if online is not None:
        for shard in range(n_shards):
            stats_list[shard] = OnlineControlStats()
            results[shard].online_stats = stats_list[shard]
    at_risk: List[Dict[int, str]] = [{} for _ in range(n_shards)]

    # -- fault injection (shared ledger degradation; DESIGN.md section 11) --
    if faults is not None:
        fstats = [FaultImpactStats() for _ in range(n_shards)]
        for shard in range(n_shards):
            results[shard].fault_stats = fstats[shard]
        injector = FaultInjector(
            faults, ledger, engines, at_risk, fstats,
            group_shards={g: topology.group_shards[g]
                          for g in range(topology.n_groups)},
            done=done,
        )
    else:
        injector = None

    def qos_tick(shard: int) -> None:
        stats = stats_list[shard]
        stats.n_ticks += 1
        flagged = at_risk[shard]
        if not flagged:
            return
        stats.n_checks += len(flagged)
        eng = engines[shard]
        for handle in list(flagged):
            moved = eng.migrate_pool_to_local(handle)
            if moved < 0.0:
                # No node headroom right now; retried next tick.
                stats.n_failed_mitigations += 1
                continue
            stats.n_mitigations += 1
            stats.migrated_gb += moved
            stats.migration_time_s += cost_per_gb * moved
            stats.mitigated_vm_ids.append(flagged.pop(handle))
        if injector is not None:
            # Engine releases credit the ledger's free pool unconditionally;
            # re-clamp any degraded group to its surviving capacity.
            injector.resync_degraded()

    def take_sample(shard: int, time_s: float) -> None:
        eng = engines[shard]
        stranded = eng.stranded_gb
        if stranded < 0.0:
            stranded = 0.0
        used_pool = 0.0
        for group in shard_groups[shard]:
            used_pool += ledger.used_gb[group]
        results[shard].sample_buffer.append_row((
            time_s,
            eng.used_cores / total_cores[shard],
            100.0 * eng.used_cores / total_cores[shard],
            eng.used_local_gb,
            used_pool,
            stranded,
            100.0 * stranded / total_dram[shard],
            eng.running_vms,
        ))
        last_sample[shard] = time_s

    # -- merged event heap: departures, faults, sample grids, horizons ------
    # Entries: (time, _KIND_DEPARTURE, seq, shard, handle-or-token)
    #          (time, _KIND_FAULT, event_index)
    #          (time, _KIND_SAMPLE, shard)
    #          (time, _KIND_HORIZON, shard)
    # The (time, kind, tie) prefix is unique, so heap order is total and
    # deterministic (seq is global, preserving per-shard placement order;
    # fault events at one timestamp fire in schedule order).
    events: list = [(0.0, _KIND_SAMPLE, shard) for shard in range(n_shards)]
    if faults is not None:
        for index, fault_event in enumerate(faults.events):
            events.append((fault_event.time_s, _KIND_FAULT, index))
    heapq.heapify(events)
    heappush = heapq.heappush
    heappop = heapq.heappop

    def pump(limit) -> None:
        """Apply every heaped event ordered before ``limit``."""
        while events and events[0] < limit:
            event = heappop(events)
            kind = event[1]
            if kind == _KIND_DEPARTURE:
                if injector is not None:
                    # Token-indirected (kills void the mapping, live
                    # migrations rewrite it; degraded groups re-clamped).
                    injector.on_departure(event[4])
                    continue
                shard = event[3]
                # Departed VMs leave the at-risk set before the handle is
                # recycled, or a later placement reusing the handle would
                # inherit the stale flag.
                at_risk[shard].pop(event[4], None)
                engines[shard].remove(event[4])
            elif kind == _KIND_FAULT:
                # Heap order matches schedule order, so the cursor fires
                # exactly this event; groups whose shards are all past
                # their horizons are skipped inside (each shard's faults
                # end at its own horizon).
                injector.fire_next()
            elif kind == _KIND_SAMPLE:
                shard = event[2]
                if done[shard]:
                    continue  # past this shard's horizon; grid ends here
                take_sample(shard, event[0])
                heappush(events, (event[0] + sample_interval_s,
                                  _KIND_SAMPLE, shard))
                if mitigate:
                    # QoS tick after the grid sample: samples always show
                    # the pre-mitigation state (DESIGN.md section 10).
                    qos_tick(shard)
                if injector is not None:
                    # Evacuation-retry tick after the QoS tick, scoped to
                    # this shard's pending VMs (DESIGN.md section 11).
                    injector.retry_tick(shard)
            else:  # _KIND_HORIZON
                shard = event[2]
                end_time = event[0]
                if last_sample[shard] is None or last_sample[shard] <= end_time:
                    if last_sample[shard] == end_time:
                        results[shard].sample_buffer.drop_last()
                    take_sample(shard, end_time)
                done[shard] = True

    # -- k-way arrival merge (ties broken by shard index) -------------------
    arrival_iters = [
        _shard_arrival_events(shard, inputs[shard], policies[shard], True,
                              with_slowdowns=mitigate)
        for shard in range(n_shards)
    ]
    shard_end = [0.0] * n_shards
    merge_heap: list = []
    for shard, it in enumerate(arrival_iters):
        first = next(it, None)
        if first is None:
            # Empty shard trace: its horizon is time 0.0, like the
            # single-cluster replay of an empty trace.
            heappush(events, (0.0, _KIND_HORIZON, shard))
        else:
            merge_heap.append((first[0], shard, first))
    heapq.heapify(merge_heap)

    seq = 0
    while merge_heap:
        arrival_s, shard, record = heappop(merge_heap)
        pump((arrival_s, _KIND_ARRIVAL))
        _, departure_s, cores_r, memory_gb, vm_id, vm_pool_gb = record[:6]
        local_gb = memory_gb - vm_pool_gb
        eng = engines[shard]
        try:
            handle = eng.place(cores_r, local_gb, vm_pool_gb)
        except PlacementError:
            # Group-less pool request corner: counted as a rejection, peaks
            # keep the transient placement (object-path parity).
            handle = -1
        if handle < 0:
            rejected[shard] += 1
        else:
            placed[shard] += 1
            if record_placements:
                placed_ids[shard].append(vm_id)
                placed_srv[shard].append(eng.vm_server[handle])
            total_memory[shard] += memory_gb
            total_pool[shard] += vm_pool_gb
            seq += 1
            if injector is not None:
                # Token indirection: kills and live migrations change or
                # void the handle before the departure fires.
                token = injector.note_place(shard, handle, vm_id, vm_pool_gb)
                heappush(events,
                         (departure_s, _KIND_DEPARTURE, seq, shard, token))
            else:
                heappush(events,
                         (departure_s, _KIND_DEPARTURE, seq, shard, handle))
            if mitigate and vm_pool_gb > 0.0 and record[6] > threshold:
                at_risk[shard][handle] = vm_id
        shard_end[shard] = arrival_s
        nxt = next(arrival_iters[shard], None)
        if nxt is None:
            # Shard exhausted: its horizon is its last arrival time.  The
            # horizon fires after every departure and grid sample <= it.
            heappush(events, (arrival_s, _KIND_HORIZON, shard))
        else:
            heappush(merge_heap, (nxt[0], shard, nxt))

    # Drain: remaining departures in time order, each shard's grid samples up
    # to its own horizon, then the horizon samples themselves; grid events
    # past a fired horizon are discarded by ``pump``.
    pump((float("inf"),))
    if injector is not None:
        injector.finalize()

    for shard in range(n_shards):
        res = results[shard]
        eng = engines[shard]
        res.placed_vms = placed[shard]
        res.rejected_vms = rejected[shard]
        res.total_memory_gb_allocated = total_memory[shard]
        res.total_pool_gb_allocated = total_pool[shard]
        res.server_peak_local_gb, res.server_peak_total_gb = eng.server_peaks()
        if topology.is_per_shard:
            local = topology.local_group_ids(shard)
            res.pool_peak_gb = {
                local[g]: ledger.peak_gb[g] for g in shard_groups[shard]
            }
        else:
            res.pool_peak_gb = {}
        if record_placements:
            res._placed_vm_ids = placed_ids[shard]
            res._placed_server_idx = placed_srv[shard]
            res._placement_server_ids = eng.server_ids
    return results, ledger


def _shard_allocations(trace: ClusterTrace, policy) -> np.ndarray:
    """One materialised shard's pool allocations, resolved exactly like
    :func:`_shard_arrival_events` resolves them for the events loop."""
    _block, records, allocations = next(iter(iter_policy_blocks(
        trace, policy, True)))
    if allocations is None:
        if policy is None:
            return np.zeros(len(records))
        # min/max matches np.clip bit-for-bit for finite values
        # (block_replay_columns' clamp), without the ufunc dispatch.
        allocations = [
            float(min(max(policy(r), 0.0), r.memory_gb)) for r in records
        ]
    return np.asarray(allocations, dtype=np.float64)


def _presorted_departures(
    departures: np.ndarray,
) -> Tuple[List[int], List[float]]:
    """(merged positions, times) of every departure, in drain order.

    A stable argsort orders equal times by merged position.
    """
    drain = np.argsort(departures, kind="stable")
    return drain.tolist(), departures[drain].tolist()


def _merged_slices(order: np.ndarray,
                   columns: Sequence[np.ndarray]) -> Iterator[Iterator[tuple]]:
    """The rows of ``columns`` taken in ``order``, one ``zip`` per slice.

    Each slice of ``_ARRIVAL_SLICE_ROWS`` rows is converted to Python
    scalars only when the loop reaches it, so the merged arrival columns
    never exist as whole lists.  ``tolist`` yields the same scalars either
    way.
    """
    step = _ARRIVAL_SLICE_ROWS
    for lo in range(0, order.shape[0], step):
        rows = order[lo:lo + step]
        yield zip(*[column[rows].tolist() for column in columns])


def _replay_crossshard_inlined(
    inputs: Sequence[TraceInput],
    policies: Sequence[object],
    n_servers_per_shard: Sequence[int],
    server_configs: Sequence[ServerConfig],
    topology: PoolTopology,
    capacity: Union[float, Dict[int, float]],
    constrain_memory: bool,
    sample_interval_s: float,
    record_placements: bool = False,
) -> Tuple[List[SimulationResult], PoolGroupLedger]:
    """The inlined cross-shard merged loop (heap-free, flat fleet state).

    Replaces :func:`_replay_crossshard_events`' event heap and per-event
    engine method calls with structures computed once up front, exploiting
    what a materialised uniform-SKU fleet already knows:

    * **arrival merge**: a stable ``np.lexsort`` over ``(arrival, shard)``
      reproduces the k-way merge heap's order exactly (the heap holds one
      entry per shard at a time, so ties resolve by shard, then by per-shard
      stream order); the merged rows reach the loop in fixed-size slices
      (:func:`_merged_slices`) instead of as whole Python lists;
    * **departures**: a stable argsort of the merged-order departure column
      is the heap's ``(time, seq)`` order -- the global placement sequence
      *is* the merged arrival position.  A placement stores its payload at
      its merged position; the drain walks the precomputed order through a
      pointer, batched by one ``bisect_right`` per pump bound, and clears
      each slot it drains.  A payload still ``None`` at drain time is a
      rejected VM (the dispatcher guarantees ``departure > arrival``, so
      "not yet arrived" is impossible);
    * **flat fleet state**: every shard engine's per-server and per-NUMA-node
      lists are concatenated into fleet-wide locals (a shard's server ``i``
      becomes fleet index ``offset + i``), so the hot loop reads plain
      locals instead of unpacking a per-shard state tuple per event.  The
      dispatcher only routes uniform-SKU fleets here, so the server shape
      (sockets, per-socket cores/DRAM, bucket count) hoists into scalars and
      a fleet server's first NUMA-node slot is just ``index * sockets``.
      Bucket entries carry fleet server ids during the run (a constant
      offset preserves within-shard order, so walk order is unchanged) and
      are translated back at the end;
    * **grid samples and horizons**: every shard's grid is the same
      ``k * sample_interval_s`` sequence, so one shared clock plus per-shard
      alive flags replaces per-shard heap entries (shards fire in shard
      order at each tick, exactly the heap's tie-break); horizons activate
      when their shard's last arrival is processed, matching the heap push,
      and wait in a tiny heap of their own whose min is cached in a local;
    * the per-event arithmetic is statement-for-statement
      :meth:`ArrayPlacementEngine.place` / ``remove``, with two structural
      cuts: **full-server elision** -- the best-fit walk starts at ``free
      >= cores >= 1``, so ``buckets[0]`` is never read; a placement that
      fills a server skips the insort and a departure from a full server
      skips the delete, and ``buckets[0]`` is rebuilt canonically per shard
      at the end -- and a **GC pause** for the duration of the loop (the
      payload and bucket-key tuples allocated per event otherwise trigger
      young-generation scans over long-lived state).  Departures of VMs
      that drew no pool memory skip the pool ledger block entirely: every
      write in it is a float no-op for ``pool_gb == 0`` (``x - 0.0 == x``;
      the quantities involved are never ``-0.0``), so results are
      unchanged.

    Every static materialised ``ClusterSimulator`` replay runs here as a
    one-shard fleet.  Byte-identical to the events loop by construction and
    pinned by the differential suite in ``tests/test_pool_topology.py`` and
    against ``ClusterSimulator``'s calendar loop in
    ``tests/test_cluster_engine.py``.
    """
    n_shards = len(inputs)
    ledger, engines, results, shard_groups, total_cores, total_dram = (
        _crossshard_setup(n_servers_per_shard, server_configs, topology,
                          capacity, constrain_memory)
    )
    # Group ids are contiguous 0..n_groups-1, so the shared ledger dicts
    # flatten into plain lists for the hot loop (a list subscript is ~2-3x
    # cheaper than a dict lookup); the ledger dicts -- shared with the shard
    # engines, which this loop never calls -- are refreshed at the end.
    n_groups = topology.n_groups
    pool_free = [ledger.free_gb[g] for g in range(n_groups)]
    pool_used = [ledger.used_gb[g] for g in range(n_groups)]
    pool_peak = [ledger.peak_gb[g] for g in range(n_groups)]

    # -- uniform server shape, hoisted into scalars --------------------------
    e0 = engines[0]
    sockets = e0.sockets
    cores_ps = e0.cores_per_socket
    dram_ps = e0.dram_per_socket_gb
    stc = e0.server_total_cores
    std = e0.server_total_dram_gb
    two_sockets = sockets == 2

    # -- flat fleet state: per-shard engine lists concatenated ---------------
    # (engines are freshly built, so this is a copy of all-zero state plus
    # the initial full-free bucket, re-keyed to fleet server indices)
    node_cores: List[int] = []
    node_gb: List[float] = []
    used_cores_srv: List[int] = []
    used_gb_srv: List[float] = []
    pool_used_srv: List[float] = []
    peak_local: List[float] = []
    peak_pool: List[float] = []
    group_of: List[int] = []
    srv_off: List[int] = []
    buckets_l: List[List[List[Tuple[float, int]]]] = []
    for eng in engines:
        off = len(used_cores_srv)
        srv_off.append(off)
        node_cores.extend(eng.node_used_cores)
        node_gb.extend(eng.node_used_gb)
        used_cores_srv.extend(eng.used_cores_srv)
        used_gb_srv.extend(eng.used_gb_srv)
        pool_used_srv.extend(eng.pool_used_srv)
        peak_local.extend(eng.peak_local_gb)
        peak_pool.extend(eng.peak_pool_gb)
        group_of.extend(eng.group_of)
        buckets_l.append([
            [(key_gb, idx + off) for key_gb, idx in bucket]
            for bucket in eng._buckets
        ])
    n_buckets = len(buckets_l[0])

    append_rows = [r.sample_buffer.append_row for r in results]
    agg_cores = [0] * n_shards
    agg_gb = [0.0] * n_shards
    agg_stranded = [0.0] * n_shards
    agg_running = [0] * n_shards
    placed = [0] * n_shards
    rejected = [0] * n_shards
    total_memory = [0.0] * n_shards
    total_pool = [0.0] * n_shards
    placed_ids: List[List[str]] = [[] for _ in range(n_shards)]
    placed_srv: List[List[int]] = [[] for _ in range(n_shards)]

    # -- merged arrival order and global presorted departures ----------------
    # Only the merged columns outlive this block (the hot loop reads them
    # in slices); per-shard temporaries die here, before the loop's peak.
    columns = [trace.columns() for trace in inputs]
    vm_ids_by_shard: List[Sequence[str]] = [c.vm_ids for c in columns]
    remaining = [c.arrival_s.shape[0] for c in columns]
    horizons = [
        float(c.arrival_s[n_s - 1]) if n_s else 0.0
        for c, n_s in zip(columns, remaining)
    ]
    alloc_all = np.concatenate([
        _shard_allocations(inputs[shard], policies[shard])
        for shard in range(n_shards)
    ])
    arrival_all = np.concatenate([c.arrival_s for c in columns])
    shard_all = np.repeat(np.arange(n_shards, dtype=np.int64), remaining)
    # Stable sort by (arrival, shard): the merge heap holds one entry per
    # shard, so equal arrivals tie-break by shard and, within a shard, by
    # stream order -- which lexsort's stability preserves.
    order = np.lexsort((shard_all, arrival_all))
    cores_all = np.concatenate([c.cores for c in columns])
    #: Columns of the merged arrival rows, read in ``order`` one slice at
    #: a time by the hot loop.
    merged_columns = (shard_all, arrival_all, cores_all,
                      np.concatenate([c.memory_gb for c in columns]),
                      alloc_all)
    m_pos = (
        np.concatenate([np.arange(n_s) for n_s in remaining])[order].tolist()
        if record_placements else None
    )
    # Ties in departure time resolve by merged position == global placement
    # sequence (rejected VMs leave a None payload and simply drain as
    # no-ops), exactly the events loop's (time, seq) heap prefix.
    dep_order, dep_times = _presorted_departures(
        np.concatenate([c.departure_s for c in columns])[order])
    n_total = order.shape[0]
    #: Reused walk ranges (one allocation per distinct core count, not
    #: one per placement); indices past the last bucket walk nothing.
    max_cr = int(cores_all.max()) if n_total else 0
    walk_ranges = [
        range(c, n_buckets) for c in range(max(n_buckets, max_cr + 1))
    ]
    payload: List[Optional[Tuple[int, int, int, int, float, float]]] = (
        [None] * n_total
    )

    bisect = bisect_left
    bisect_r = bisect_right
    insort_ = insort
    heappush = heapq.heappush
    heappop = heapq.heappop
    inf = float("inf")

    n_dep = n_total
    p = 0
    next_dep = dep_times[0] if n_dep else inf
    next_sample_time = 0.0
    last_sample: List[Optional[float]] = [None] * n_shards
    alive = [True] * n_shards
    n_alive = n_shards
    #: Horizons become pending when their shard's arrivals are exhausted
    #: (matching the events loop's push-after-last-arrival).  ``t_h`` caches
    #: the heap min (the heap changes at most ``2 * n_shards`` times, so
    #: maintaining the cache is far cheaper than peeking every pump round).
    hor_heap: List[Tuple[float, int]] = []
    for shard in range(n_shards):
        if not remaining[shard]:
            heappush(hor_heap, (0.0, shard))
    t_h = hor_heap[0][0] if hor_heap else inf
    #: Cached next grid tick (``inf`` once every shard's horizon passed).
    t_s = 0.0
    # next_event folds the pump-entry test into one compare per arrival
    # (the grid starts at 0.0, so the first arrival always pumps).
    next_event = next_dep if next_dep <= next_sample_time else next_sample_time
    if t_h < next_event:
        next_event = t_h

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        k = -1
        for s, arrival_s, cores_r, memory_gb, vm_pool_gb in chain.from_iterable(
            _merged_slices(order, merged_columns)
        ):
            k += 1
            # -- pump: all heaped-order events strictly before this arrival --
            if next_event <= arrival_s:
                nxt = t_s if t_s <= t_h else t_h
                if arrival_s < nxt:
                    # Fast path: only departures fire before this
                    # arrival (grid ticks and horizons are rare
                    # next to departure pumps), so skip the full
                    # pump round-trip machinery.
                    end = bisect_r(dep_times, arrival_s, p)
                    for m in dep_order[p:end]:
                        entry = payload[m]
                        if entry is None:
                            continue  # rejected VM: nothing placed
                        payload[m] = None  # drained; never read again
                        # -- departure (ArrayPlacementEngine.remove) -----
                        ds, sidx, pos, d_cores, d_local, d_pool = entry
                        if d_pool:
                            # place() rejects pool draws on group-less
                            # servers, so a pool-carrying payload always
                            # has a real group.
                            group = group_of[sidx]
                            remaining_gb = pool_used[group] - d_pool
                            if remaining_gb < 0.0:
                                # Clamp tiny negative float drift; real
                                # imbalances stay loud.
                                if remaining_gb < -1e-6:
                                    raise RuntimeError(
                                        f"pool group {group} accounting "
                                        f"went negative ({remaining_gb} "
                                        f"GB) -- simulator bug"
                                    )
                                remaining_gb = 0.0
                            pool_used[group] = remaining_gb
                            pool_free[group] += d_pool
                            pool_used_srv[sidx] -= d_pool
                        before_cores = used_cores_srv[sidx]
                        old_gb = used_gb_srv[sidx]
                        node_cores[pos] -= d_cores
                        node_gb[pos] -= d_local
                        new_cores = before_cores - d_cores
                        used_cores_srv[sidx] = new_cores
                        new_gb = old_gb - d_local
                        used_gb_srv[sidx] = new_gb
                        agg_cores[ds] -= d_cores
                        agg_gb[ds] -= d_local
                        buckets = buckets_l[ds]
                        if before_cores >= stc:
                            # stranded_after is exactly 0.0; full servers
                            # are unindexed (full-server elision).
                            agg_stranded[ds] += 0.0 - (std - old_gb)
                        else:
                            bucket = buckets[stc - before_cores]
                            del bucket[
                                bisect(bucket, (std - old_gb, sidx))
                            ]
                        insort_(
                            buckets[stc - new_cores], (std - new_gb, sidx)
                        )
                        agg_running[ds] -= 1
                    p = end
                    next_dep = dep_times[p] if p < n_dep else inf
                    next_event = next_dep if next_dep <= nxt else nxt
                else:
                    while True:
                        # Grid sample (kind 1) outranks horizon (kind 2) at ties.
                        fire_sample = t_s <= t_h
                        nxt_t = t_s if fire_sample else t_h
                        bound = nxt_t if nxt_t <= arrival_s else arrival_s
                        if next_dep <= bound:
                            end = bisect_r(dep_times, bound, p)
                            for m in dep_order[p:end]:
                                entry = payload[m]
                                if entry is None:
                                    continue  # rejected VM: nothing placed
                                payload[m] = None
                                # -- departure (ArrayPlacementEngine.remove) -----
                                ds, sidx, pos, d_cores, d_local, d_pool = entry
                                if d_pool:
                                    # place() rejects pool draws on group-less
                                    # servers, so a pool-carrying payload always
                                    # has a real group.
                                    group = group_of[sidx]
                                    remaining_gb = pool_used[group] - d_pool
                                    if remaining_gb < 0.0:
                                        # Clamp tiny negative float drift; real
                                        # imbalances stay loud.
                                        if remaining_gb < -1e-6:
                                            raise RuntimeError(
                                                f"pool group {group} accounting "
                                                f"went negative ({remaining_gb} "
                                                f"GB) -- simulator bug"
                                            )
                                        remaining_gb = 0.0
                                    pool_used[group] = remaining_gb
                                    pool_free[group] += d_pool
                                    pool_used_srv[sidx] -= d_pool
                                before_cores = used_cores_srv[sidx]
                                old_gb = used_gb_srv[sidx]
                                node_cores[pos] -= d_cores
                                node_gb[pos] -= d_local
                                new_cores = before_cores - d_cores
                                used_cores_srv[sidx] = new_cores
                                new_gb = old_gb - d_local
                                used_gb_srv[sidx] = new_gb
                                agg_cores[ds] -= d_cores
                                agg_gb[ds] -= d_local
                                buckets = buckets_l[ds]
                                if before_cores >= stc:
                                    # stranded_after is exactly 0.0; full servers
                                    # are unindexed (full-server elision).
                                    agg_stranded[ds] += 0.0 - (std - old_gb)
                                else:
                                    bucket = buckets[stc - before_cores]
                                    del bucket[
                                        bisect(bucket, (std - old_gb, sidx))
                                    ]
                                insort_(
                                    buckets[stc - new_cores], (std - new_gb, sidx)
                                )
                                agg_running[ds] -= 1
                            p = end
                            next_dep = dep_times[p] if p < n_dep else inf
                        if nxt_t > arrival_s:
                            break
                        if fire_sample:
                            # Grid tick: alive shards sample in shard order (the
                            # heap's tie-break for equal-time sample events).
                            for gs in range(n_shards):
                                if alive[gs]:
                                    stranded = agg_stranded[gs]
                                    if stranded < 0.0:
                                        stranded = 0.0
                                    used_pool_gb = 0.0
                                    for g in shard_groups[gs]:
                                        used_pool_gb += pool_used[g]
                                    append_rows[gs]((
                                        t_s,
                                        agg_cores[gs] / total_cores[gs],
                                        100.0 * agg_cores[gs] / total_cores[gs],
                                        agg_gb[gs],
                                        used_pool_gb,
                                        stranded,
                                        100.0 * stranded / total_dram[gs],
                                        agg_running[gs],
                                    ))
                                    last_sample[gs] = t_s
                            next_sample_time = t_s + sample_interval_s
                            t_s = next_sample_time
                        else:
                            h, hs = heappop(hor_heap)
                            t_h = hor_heap[0][0] if hor_heap else inf
                            ls = last_sample[hs]
                            if ls is None or ls <= h:
                                if ls == h:
                                    results[hs].sample_buffer.drop_last()
                                stranded = agg_stranded[hs]
                                if stranded < 0.0:
                                    stranded = 0.0
                                used_pool_gb = 0.0
                                for g in shard_groups[hs]:
                                    used_pool_gb += pool_used[g]
                                append_rows[hs]((
                                    h,
                                    agg_cores[hs] / total_cores[hs],
                                    100.0 * agg_cores[hs] / total_cores[hs],
                                    agg_gb[hs],
                                    used_pool_gb,
                                    stranded,
                                    100.0 * stranded / total_dram[hs],
                                    agg_running[hs],
                                ))
                                last_sample[hs] = h
                            alive[hs] = False
                            n_alive -= 1
                            if not n_alive:
                                t_s = inf
                    nxt = t_s if t_s <= t_h else t_h
                    next_event = next_dep if next_dep <= nxt else nxt

            buckets = buckets_l[s]
            local_gb = memory_gb - vm_pool_gb

            # -- best-fit bucket walk (ArrayPlacementEngine.place) -----------
            cores_limit = cores_ps - cores_r
            gb_limit = dram_ps - local_gb + 1e-9
            need_pool = vm_pool_gb > 0
            sidx = -1
            best_node = -1
            base = 0
            if two_sockets:
                for free in walk_ranges[cores_r]:
                    for _key_gb, idx in buckets[free]:
                        if need_pool:
                            group = group_of[idx]
                            avail = pool_free[group] if group >= 0 else 0.0
                            if vm_pool_gb > avail + 1e-9:
                                continue
                        base = idx + idx
                        used0 = node_cores[base]
                        used1 = node_cores[base + 1]
                        # Fullest feasible node; ties go to node 0
                        # (find_numa_node's strict ``>`` comparison).
                        if used1 > used0:
                            if (used1 <= cores_limit
                                    and node_gb[base + 1] <= gb_limit):
                                sidx = idx
                                best_node = 1
                                break
                            if (used0 <= cores_limit
                                    and node_gb[base] <= gb_limit):
                                sidx = idx
                                best_node = 0
                                break
                        else:
                            if (used0 <= cores_limit
                                    and node_gb[base] <= gb_limit):
                                sidx = idx
                                best_node = 0
                                break
                            if (used1 <= cores_limit
                                    and node_gb[base + 1] <= gb_limit):
                                sidx = idx
                                best_node = 1
                                break
                    if sidx >= 0:
                        break
            else:
                for free in walk_ranges[cores_r]:
                    for _key_gb, idx in buckets[free]:
                        if need_pool:
                            group = group_of[idx]
                            avail = pool_free[group] if group >= 0 else 0.0
                            if vm_pool_gb > avail + 1e-9:
                                continue
                        base = idx * sockets
                        cand_node = -1
                        cand_used = -1
                        for node in range(sockets):
                            used = node_cores[base + node]
                            if (used <= cores_limit and used > cand_used
                                    and node_gb[base + node] <= gb_limit):
                                cand_node = node
                                cand_used = used
                        if cand_node >= 0:
                            sidx = idx
                            best_node = cand_node
                            break
                    if sidx >= 0:
                        break
            if sidx < 0:
                rejected[s] += 1
            else:
                # -- commit (ArrayPlacementEngine.place, inlined) ------------
                pos = base + best_node
                node_cores[pos] += cores_r
                node_gb[pos] += local_gb
                before_cores = used_cores_srv[sidx]
                old_gb = used_gb_srv[sidx]
                new_cores = before_cores + cores_r
                used_cores_srv[sidx] = new_cores
                new_gb = old_gb + local_gb
                used_gb_srv[sidx] = new_gb
                if new_gb > peak_local[sidx]:
                    peak_local[sidx] = new_gb
                committed = True
                if need_pool:
                    pool_srv = pool_used_srv[sidx] + vm_pool_gb
                    pool_used_srv[sidx] = pool_srv
                    if pool_srv > peak_pool[sidx]:
                        peak_pool[sidx] = pool_srv
                    group = group_of[sidx]
                    if group < 0:
                        # Group-less pool request corner (unreachable for
                        # topology-built engines, where every server has a
                        # group; kept for exact parity with the events
                        # loop's PlacementError handling): roll usage back,
                        # peaks keep the transient placement.
                        node_cores[pos] -= cores_r
                        node_gb[pos] -= local_gb
                        used_cores_srv[sidx] = new_cores - cores_r
                        used_gb_srv[sidx] = new_gb - local_gb
                        pool_used_srv[sidx] = pool_srv - vm_pool_gb
                        rejected[s] += 1
                        committed = False
                    else:
                        pool_free[group] -= vm_pool_gb
                        g_used = pool_used[group] + vm_pool_gb
                        pool_used[group] = g_used
                        if g_used > pool_peak[group]:
                            pool_peak[group] = g_used
                if committed:
                    agg_cores[s] += cores_r
                    agg_gb[s] += local_gb
                    # Reindex with the full-server elision (buckets[0] is
                    # never read by the walk; rebuilt at the end).
                    bucket = buckets[stc - before_cores]
                    del bucket[bisect(bucket, (std - old_gb, sidx))]
                    if new_cores >= stc:
                        # stranded_before is exactly 0.0 (free core existed).
                        agg_stranded[s] += (std - new_gb) - 0.0
                    else:
                        insort_(buckets[stc - new_cores], (std - new_gb, sidx))
                    agg_running[s] += 1
                    placed[s] += 1
                    if record_placements:
                        placed_ids[s].append(vm_ids_by_shard[s][m_pos[k]])
                        placed_srv[s].append(sidx)
                    total_memory[s] += memory_gb
                    total_pool[s] += vm_pool_gb
                    # departure > arrival, so the presorted drain has not
                    # passed this position yet: storing the payload IS the
                    # push.
                    payload[k] = (s, sidx, pos, cores_r, local_gb, vm_pool_gb)

            remaining[s] -= 1
            if not remaining[s]:
                # Shard exhausted: its horizon (this arrival's time) becomes
                # pending, exactly like the events loop's push.
                h = horizons[s]
                heappush(hor_heap, (h, s))
                if h < t_h:
                    t_h = h
                if h < next_event:
                    next_event = h

        # -- drain: remaining grid samples, horizons, departures -------------
        while True:
            fire_sample = t_s <= t_h
            nxt_t = t_s if fire_sample else t_h
            if next_dep <= nxt_t:
                end = bisect_r(dep_times, nxt_t, p) if nxt_t != inf else n_dep
                for m in dep_order[p:end]:
                    entry = payload[m]
                    if entry is None:
                        continue
                    payload[m] = None
                    ds, sidx, pos, d_cores, d_local, d_pool = entry
                    if d_pool:
                        group = group_of[sidx]
                        remaining_gb = pool_used[group] - d_pool
                        if remaining_gb < 0.0:
                            if remaining_gb < -1e-6:
                                raise RuntimeError(
                                    f"pool group {group} accounting went "
                                    f"negative ({remaining_gb} GB) -- "
                                    f"simulator bug"
                                )
                            remaining_gb = 0.0
                        pool_used[group] = remaining_gb
                        pool_free[group] += d_pool
                        pool_used_srv[sidx] -= d_pool
                    before_cores = used_cores_srv[sidx]
                    old_gb = used_gb_srv[sidx]
                    node_cores[pos] -= d_cores
                    node_gb[pos] -= d_local
                    new_cores = before_cores - d_cores
                    used_cores_srv[sidx] = new_cores
                    new_gb = old_gb - d_local
                    used_gb_srv[sidx] = new_gb
                    agg_cores[ds] -= d_cores
                    agg_gb[ds] -= d_local
                    buckets = buckets_l[ds]
                    if before_cores >= stc:
                        agg_stranded[ds] += 0.0 - (std - old_gb)
                    else:
                        bucket = buckets[stc - before_cores]
                        del bucket[bisect(bucket, (std - old_gb, sidx))]
                    insort_(buckets[stc - new_cores], (std - new_gb, sidx))
                    agg_running[ds] -= 1
                p = end
                next_dep = dep_times[p] if p < n_dep else inf
            if nxt_t == inf:
                break
            if fire_sample:
                for gs in range(n_shards):
                    if alive[gs]:
                        stranded = agg_stranded[gs]
                        if stranded < 0.0:
                            stranded = 0.0
                        used_pool_gb = 0.0
                        for g in shard_groups[gs]:
                            used_pool_gb += pool_used[g]
                        append_rows[gs]((
                            t_s,
                            agg_cores[gs] / total_cores[gs],
                            100.0 * agg_cores[gs] / total_cores[gs],
                            agg_gb[gs],
                            used_pool_gb,
                            stranded,
                            100.0 * stranded / total_dram[gs],
                            agg_running[gs],
                        ))
                        last_sample[gs] = t_s
                next_sample_time = t_s + sample_interval_s
                t_s = next_sample_time
            else:
                h, hs = heappop(hor_heap)
                t_h = hor_heap[0][0] if hor_heap else inf
                ls = last_sample[hs]
                if ls is None or ls <= h:
                    if ls == h:
                        results[hs].sample_buffer.drop_last()
                    stranded = agg_stranded[hs]
                    if stranded < 0.0:
                        stranded = 0.0
                    used_pool_gb = 0.0
                    for g in shard_groups[hs]:
                        used_pool_gb += pool_used[g]
                    append_rows[hs]((
                        h,
                        agg_cores[hs] / total_cores[hs],
                        100.0 * agg_cores[hs] / total_cores[hs],
                        agg_gb[hs],
                        used_pool_gb,
                        stranded,
                        100.0 * stranded / total_dram[hs],
                        agg_running[hs],
                    ))
                    last_sample[hs] = h
                alive[hs] = False
                n_alive -= 1
                if not n_alive:
                    t_s = inf
    finally:
        if gc_was_enabled:
            gc.enable()

    # Refresh the shared ledger dicts (also referenced by the shard engines)
    # from the flattened group state before anything reads them back.
    for g in range(n_groups):
        ledger.free_gb[g] = pool_free[g]
        ledger.used_gb[g] = pool_used[g]
        ledger.peak_gb[g] = pool_peak[g]

    # -- hand the flat state back to the engines -----------------------------
    for shard in range(n_shards):
        res = results[shard]
        eng = engines[shard]
        off = srv_off[shard]
        n = eng.n_servers
        base0 = off * sockets
        n_nodes = n * sockets
        eng.node_used_cores[:] = node_cores[base0:base0 + n_nodes]
        eng.node_used_gb[:] = node_gb[base0:base0 + n_nodes]
        eng.used_cores_srv[:] = used_cores_srv[off:off + n]
        eng.used_gb_srv[:] = used_gb_srv[off:off + n]
        eng.pool_used_srv[:] = pool_used_srv[off:off + n]
        eng.peak_local_gb[:] = peak_local[off:off + n]
        eng.peak_pool_gb[:] = peak_pool[off:off + n]
        buckets = buckets_l[shard]
        # Rebuild the unmaintained full-server bucket (a full server's key
        # is its state at fill time, so sorting the recomputed keys is the
        # canonical index), then translate fleet ids back to shard-local.
        buckets[0] = sorted(
            (std - used_gb_srv[i], i)
            for i in range(off, off + n)
            if used_cores_srv[i] >= stc
        )
        eng._buckets = [
            [(key_gb, idx - off) for key_gb, idx in bucket]
            for bucket in buckets
        ]
        eng._bucket_key = [
            (stc - used_cores_srv[off + i], std - used_gb_srv[off + i])
            for i in range(n)
        ]
        eng.used_cores = agg_cores[shard]
        eng.used_local_gb = agg_gb[shard]
        eng.stranded_gb = agg_stranded[shard]
        eng.running_vms = agg_running[shard]
        res.placed_vms = placed[shard]
        res.rejected_vms = rejected[shard]
        res.total_memory_gb_allocated = total_memory[shard]
        res.total_pool_gb_allocated = total_pool[shard]
        res.server_peak_local_gb, res.server_peak_total_gb = eng.server_peaks()
        if topology.is_per_shard:
            local = topology.local_group_ids(shard)
            res.pool_peak_gb = {
                local[g]: ledger.peak_gb[g] for g in shard_groups[shard]
            }
        else:
            res.pool_peak_gb = {}
        if record_placements:
            res._placed_vm_ids = placed_ids[shard]
            res._placed_server_idx = [g - off for g in placed_srv[shard]]
            res._placement_server_ids = eng.server_ids
    return results, ledger
