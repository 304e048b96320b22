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
  to lone per-shard cluster replays by differential test);
  :meth:`PoolTopology.spanning` blocks groups across the concatenated fleet
  server list, ignoring shard boundaries, so one group can span clusters.
* :class:`PoolGroupLedger` owns the per-group free/used/peak accounting.
  Engines do not copy it: every shard's :class:`ArrayPlacementEngine` is
  constructed over the *same* ledger dicts, so a pool draw in one shard is
  immediately visible to placement feasibility checks in another.
* :func:`replay_crossshard` replays the shards of a fleet as **one merged
  time-ordered event stream** (arrivals merged across shards in
  ``(arrival, shard)`` order; departures, fault events, the shared sample
  grid and horizons on the pump's timelines), which is what makes a shared
  group's capacity constraint physically meaningful: two shards
  contending for one group contend at simulation time, not
  shard-serially.

Ordering contract (the priority table of the brute-force fleet oracle in
``tests/reference_replay.py``, DESIGN.md sections 10-11): at equal
timestamps the order is departures, fault events, grid samples (each
shard's sample followed by its QoS and evacuation-retry ticks), horizons,
then arrivals, with deterministic shard-index tie-breaks; per shard, the
relative event order is exactly a single cluster's, which is why the
degenerate per-shard topology reproduces each shard's single-cluster
results byte-for-byte (enforced by ``tests/test_pool_topology.py``).  A
single cluster is the one-shard case: ``ClusterSimulator.run`` replays
everything -- materialised traces, streams, online and faulted replays --
through :func:`replay_crossshard`, on its one loop.
"""

from __future__ import annotations

import gc
import heapq
import math
import sys
from bisect import bisect_left, bisect_right, insort
from itertools import compress, repeat
from operator import is_not
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.engine import ArrayPlacementEngine, _full_bucket
from repro.cluster.faults import FaultImpactStats, FaultInjector, FaultSchedule
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
        # Pool-connected components: label every shard with the lowest
        # shard it shares a group with, transitively.
        label = list(range(self.n_shards))
        for shards in self.group_shards:
            joined = {label[s] for s in shards}
            low = min(joined)
            label = [low if lab in joined else lab for lab in label]
        by_label: Dict[int, List[int]] = {}
        for shard, lab in enumerate(label):
            by_label.setdefault(lab, []).append(shard)
        #: shard sets linked by shared groups, ascending by first shard.  No
        #: replay state crosses two components, so each replays on its own.
        self.components: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(shards) for shards in by_label.values()
        )

        if domain_of_group is None:
            domains: Tuple[int, ...] = (0,) * self.n_groups
        else:
            domains = tuple(int(d) for d in domain_of_group)
            if len(domains) != self.n_groups:
                raise ValueError("domain_of_group must have one entry per group")
        self.domain_of_group = domains
        #: domain id -> its groups, both ascending (provisioning iterates
        #: domains in this order).
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
        one provisioning domain per shard -- the regime of a fleet without
        a topology, whose groups ``FleetSimulator`` numbers this way.  With
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

    def component_topology(
        self, shards: Sequence[int],
    ) -> Tuple["PoolTopology", Tuple[int, ...]]:
        """The sub-topology of one of :attr:`components`.

        Its group ids are the component's fleet ids remapped to
        ``0 .. k-1`` in ascending order; the second value maps them back
        (local id -> fleet id).  An unpooled topology stays unpooled.
        """
        fleet_ids = tuple(sorted(
            {g for s in shards for g in self._groups_by_shard[s]}))
        local = {g: i for i, g in enumerate(fleet_ids)}
        group_of = [[local.get(g, g) for g in self.group_of[s]]
                    for s in shards]
        sub = PoolTopology(group_of, self.sockets_per_server,
                           self.pool_size_sockets)
        return sub, fleet_ids

    @property
    def spanning_group_ids(self) -> Tuple[int, ...]:
        """Groups whose servers live in more than one shard."""
        return tuple(
            g for g in range(self.n_groups) if len(self.group_shards[g]) > 1
        )

    @property
    def is_per_shard(self) -> bool:
        """True when no group spans shards *and* domains follow shards.

        This is the degenerate regime whose results are byte-identical to
        lone per-shard cluster replays; anything else is fleet-owned.
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
        n_groups``.
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


def _check_arrival_order(arrivals: np.ndarray, vm_ids: Sequence[str],
                         previous: float) -> float:
    """Raise unless one stream block continues in arrival order.

    ``previous`` is the prior block's last arrival (``0.0`` before the
    first block).  The error names the first record that arrives before
    its predecessor.  Returns the block's last arrival, or ``previous``
    for an empty block.
    """
    n = arrivals.shape[0]
    if not n:
        return previous
    prior = np.empty(n, dtype=np.float64)
    prior[0] = previous
    prior[1:] = arrivals[:-1]
    late = np.flatnonzero(arrivals < prior)
    if late.size:
        index = int(late[0])
        raise ValueError(
            f"stream records must be sorted by arrival time "
            f"({vm_ids[index]!r} arrives at {float(arrivals[index])} after "
            f"{float(prior[index])})"
        )
    return float(arrivals[n - 1])


#: Most merged arrival rows per block (see :func:`_blocks`).  Purely a
#: memory knob: results do not depend on it.
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
    holds the fleet-level per-group peaks.  Every shard must share one
    server shape (sockets, cores per socket, DRAM per socket); a mixed-SKU
    fleet raises ``ValueError``.

    For a :meth:`PoolTopology.per_shard` topology the per-shard results are
    byte-identical to running each shard through ``ClusterSimulator`` on its
    own (same floats, same sample rows, same peaks): disjoint shards never
    read each other's state, and per shard the event order and arithmetic
    are a one-shard replay's, operation for operation.  Shard results of
    spanning topologies report ``pool_peak_gb = {}`` -- a spanned group's
    peak belongs to the fleet, not to any one shard (read it off the
    returned ledger).

    Every replay -- materialised traces or streams, any shard count,
    static or controlled -- runs on one loop,
    :func:`_replay_crossshard_inlined`.  ``ClusterSimulator.run`` calls
    this function as a one-shard fleet (``PoolTopology.per_shard([n_servers],
    ...)``, unpooled when the cluster has no pool).  An unpooled topology
    (``pool_size_sockets == 0``) consults no policy: every VM runs on local
    DRAM, as on a cluster without a pool.

    ``online`` activates the online QoS/mitigation stage (DESIGN.md section
    10): after each shard's grid sample a QoS tick migrates that shard's
    at-risk pool-exposed VMs to local DRAM, updating the shared ledger.
    Each result gets a per-shard
    :class:`~repro.core.control_plane.online.OnlineControlStats`.

    ``faults`` activates deterministic EMC fault injection (DESIGN.md
    section 11): :class:`~repro.cluster.faults.FaultSchedule` events (fleet
    group ids) fire on their own timeline in the loop's pump -- after
    departures, before grid samples at equal timestamps -- degrading the
    shared ledger and running the degradation ladder over affected VMs;
    per-shard evacuation-retry ticks fire after each shard's QoS tick (or
    directly after its grid sample when ``online`` is off).  Impact
    accounting lands on each result's ``fault_stats`` (group-level
    counters on the group's home shard).

    Switched "off" -- mitigation disabled (threshold ``inf``) or a schedule
    without events -- a stage is dropped before the replay
    (:func:`~repro.cluster.simulator.active_controls`), so the replay
    costs what a static one costs.  The per-shard results are
    byte-identical to the static replay and still carry zeroed
    ``online_stats`` / ``fault_stats``.
    """
    _validate_crossshard_args(
        inputs, policies, n_servers_per_shard, server_configs, topology)
    if not topology.pool_size_sockets:
        policies = [None] * len(policies)
    run_online, run_faults = active_controls(online, faults)
    results, ledger = _replay_crossshard_inlined(
        inputs, policies, n_servers_per_shard, server_configs, topology,
        capacity, constrain_memory, sample_interval_s, record_placements,
        online=run_online, faults=run_faults)
    attach_control_stats(results, online, faults)
    return results, ledger


def _validate_crossshard_args(inputs, policies, n_servers_per_shard,
                              server_configs, topology) -> None:
    """Shard counts, shard sizes and one server shape fleet-wide."""
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
    shapes = sorted({
        (cfg.sockets, cfg.cores_per_socket, cfg.dram_per_socket_gb)
        for cfg in server_configs
    })
    if len(shapes) > 1:
        raise ValueError(
            f"a cross-shard replay needs one server shape (sockets, "
            f"cores_per_socket, dram_per_socket_gb) fleet-wide; the shards "
            f"have {shapes}"
        )


class _Controls:
    """The cold hooks of a replay with online control or faults on.

    The loop holds one of these only when a control is on.  It keeps the
    per-VM bookkeeping inline (engine handles, at-risk flags, departure
    tokens and the injector's pool-VM index, all bound from here) and calls
    this object only at grid samples and fault times, through the existing
    engine and injector methods
    (:meth:`ArrayPlacementEngine.migrate_pool_to_local`,
    :meth:`FaultInjector.fire_next` / ``retry_tick``).  Those methods see
    the loop's live per-server and per-node state because the engines
    share its lists.  The pool groups are the exception: the loop keeps
    them in group-indexed lists, and those methods use the ledger dicts,
    so the loop calls :meth:`publish` before each hook and :meth:`collect`
    after it.  A class, not closures, so the loop's hot locals never become
    cell variables.
    """

    def __init__(self, online: Optional[OnlineControlConfig],
                 faults: Optional[FaultSchedule],
                 engines: List[ArrayPlacementEngine],
                 results: List[SimulationResult], ledger: PoolGroupLedger,
                 topology: PoolTopology, alive: List[bool],
                 pools: Tuple[List[float], List[float], List[float]]) -> None:
        n_shards = len(engines)
        self.engines = engines
        self.ledger = ledger
        #: The loop's group-indexed free, used and peak GB lists.
        self.pools = pools
        #: shard -> {handle: vm_id} of live VMs flagged at risk on arrival.
        self.at_risk: List[Dict[int, str]] = [{} for _ in range(n_shards)]
        self.mitigate = online is not None and online.mitigation_enabled
        self.cost_per_gb = online.migration_cost_s_per_gb if online else 0.0
        self.stats: List[Optional[OnlineControlStats]] = [None] * n_shards
        if online is not None:
            for shard in range(n_shards):
                self.stats[shard] = OnlineControlStats()
                results[shard].online_stats = self.stats[shard]
        self.injector: Optional[FaultInjector] = None
        if faults is not None:
            fstats = [FaultImpactStats() for _ in range(n_shards)]
            for shard in range(n_shards):
                results[shard].fault_stats = fstats[shard]
            self.injector = FaultInjector(
                faults, ledger, engines, self.at_risk, fstats,
                group_shards={g: topology.group_shards[g]
                              for g in range(topology.n_groups)},
                alive=alive,
            )

    def _pairs(self):
        ledger = self.ledger
        return zip((ledger.free_gb, ledger.used_gb, ledger.peak_gb),
                   self.pools)

    def publish(self) -> None:
        """Write the loop's group lists into the ledger dicts."""
        for by_group, values in self._pairs():
            for group, value in enumerate(values):
                by_group[group] = value

    def collect(self) -> None:
        """Read the ledger dicts back into the loop's group lists."""
        for by_group, values in self._pairs():
            for group in range(len(values)):
                values[group] = by_group[group]

    def next_fault(self) -> float:
        """Time of the next unfired fault event (``inf``: none left)."""
        return math.inf if self.injector is None else self.injector.next_time

    def fire(self) -> float:
        """Fire the next fault event; returns the one after it."""
        self.injector.fire_next()
        return self.injector.next_time

    def tick(self, shard: int) -> None:
        """A shard's QoS tick, then its evacuation-retry tick."""
        if self.mitigate:
            self._qos_tick(shard)
        if self.injector is not None:
            self.injector.retry_tick(shard)

    def _qos_tick(self, shard: int) -> None:
        stats = self.stats[shard]
        stats.n_ticks += 1
        flagged = self.at_risk[shard]
        if not flagged:
            return
        stats.n_checks += len(flagged)
        eng = self.engines[shard]
        cost_per_gb = self.cost_per_gb
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
        if self.injector is not None:
            # Engine releases credit the ledger's free pool unconditionally;
            # re-clamp any degraded group to its surviving capacity.
            self.injector.resync_degraded()

    def finish(self) -> None:
        if self.injector is not None:
            self.injector.finalize()


#: The loop reads ``(rows, arrivals, departures, cores, ends, flags)``
#: blocks: ``rows`` yields ``(shard, arrival, cores, memory_gb, pool_gb,
#: vm_id)`` tuples of plain scalars; the arrays hold the same rows' columns
#: for the departure presort and the cold-branch guards; ``ends`` lists the
#: ``(horizon, shard)`` pairs that become pending at the block's start;
#: ``flags`` holds each row's at-risk flag when mitigation is on, else
#: ``None``.  The last block is the sentinel: one row arriving at
#: ``+inf``, whose pump drains every remaining departure, fault event, grid
#: sample and horizon.
_SENTINEL_ROWS = ((0, math.inf, 0, 0.0, 0.0, None),)
_NO_TIMES = np.empty(0, dtype=np.float64)
_NO_CORES = np.empty(0, dtype=np.int64)


def _at_risk_flags(policy, block, allocations: np.ndarray,
                   threshold: float) -> np.ndarray:
    """Which of a block's VMs the QoS monitor flags on arrival.

    A VM is at risk when it draws pool memory and its estimated slowdown
    (:func:`estimate_slowdown_batch`, one call per block, looked up as
    this module's global) exceeds the threshold.
    """
    if not allocations.shape[0]:
        return np.zeros(0, dtype=bool)
    slowdown = estimate_slowdown_batch(policy, block, allocations)
    return (allocations > 0.0) & (slowdown > threshold)


def _shard_chunks(trace: TraceInput, policy, threshold: Optional[float]):
    """One shard's non-empty chunks as column lists, in arrival order.

    Each chunk is ``[arrival, departure, cores, memory, allocations,
    vm_ids, flags]``; a stream's chunks are checked to continue in arrival
    order (the error names the shard's first late record).
    """
    check = not isinstance(trace, ClusterTrace)
    last = 0.0
    for block, allocations in iter_policy_blocks(trace, policy, True):
        vm_ids, arrival, departure, cores, memory = block_replay_columns(block)
        if check:
            last = _check_arrival_order(arrival, vm_ids, last)
        if not arrival.shape[0]:
            continue
        flags = None
        if threshold is not None:
            flags = _at_risk_flags(
                policy, block, np.asarray(allocations, dtype=np.float64),
                threshold)
        yield [arrival, departure, cores, memory, allocations, vm_ids, flags]


def _blocks(inputs: Sequence[TraceInput], policies, with_ids: bool,
            threshold: Optional[float]):
    """The loop's blocks: a k-way merge of the shards' chunks.

    A materialised trace is one chunk.  Every shard buffers at most one
    chunk, and a buffered row is emitted once no other shard can still
    produce a row that precedes it in ``(arrival, shard)`` order -- a
    shard's later rows arrive no earlier than its buffer's last row -- so
    the rows come in stable ``(arrival, shard)`` order.  A shard is
    refilled only once its buffer is empty, so when it runs out its last
    row was the last row of the block before: its horizon rides on the
    next block (an empty shard's, time 0, on the first).
    """
    n_shards = len(inputs)
    sources = [_shard_chunks(inputs[s], policies[s], threshold)
               for s in range(n_shards)]
    buffers: List[Optional[list]] = [None] * n_shards
    last = [0.0] * n_shards
    live = [True] * n_shards
    ends: List[Tuple[float, int]] = []
    while True:
        for s in range(n_shards):
            if live[s] and buffers[s] is None:
                buffers[s] = next(sources[s], None)
                if buffers[s] is None:
                    live[s] = False
                    ends.append((last[s], s))
                else:
                    last[s] = float(buffers[s][0][-1])
        shards = [s for s in range(n_shards) if buffers[s] is not None]
        if not shards:
            break
        parts = []
        for s in shards:
            chunk = buffers[s]
            n_rows = count = chunk[0].shape[0]
            for other in shards:
                if other != s:
                    cut = int(np.searchsorted(
                        chunk[0], last[other],
                        "right" if s < other else "left"))
                    if cut < count:
                        count = cut
            if count == n_rows:
                parts.append((s, chunk))
                buffers[s] = None
            elif count:
                parts.append((s, [None if c is None else c[:count]
                                  for c in chunk]))
                buffers[s] = [None if c is None else c[count:] for c in chunk]
        yield from _sliced(parts, with_ids, tuple(ends))
        ends = []
    yield _SENTINEL_ROWS, _NO_TIMES, _NO_TIMES, _NO_CORES, tuple(ends), None


def _sliced(parts, with_ids: bool, ends):
    """Merge chunk parts, then yield them in ``_ARRIVAL_SLICE_ROWS``-row
    blocks, converted to Python scalars one block at a time (so whole
    traces never exist as row lists).  ``ends`` rides on the first."""
    if len(parts) == 1:
        s, (arrival, departure, cores, memory, allocations, vm_ids,
            flags) = parts[0]
        shard = None
    else:
        arrival = np.concatenate([c[0] for _, c in parts])
        shard = np.repeat(np.array([s for s, _ in parts], dtype=np.int64),
                          [c[0].shape[0] for _, c in parts])
        order = np.lexsort((shard, arrival))

        def merged(column: int) -> np.ndarray:
            return np.concatenate([c[column] for _, c in parts])[order]

        arrival = arrival[order]
        shard = shard[order]
        departure, cores, memory = merged(1), merged(2), merged(3)
        allocations = np.concatenate([
            np.asarray(c[4], dtype=np.float64) for _, c in parts])[order]
        vm_ids = None
        if with_ids:
            vm_ids = np.concatenate([
                np.array(c[5], dtype=object) for _, c in parts])[order]
        flags = None if parts[0][1][6] is None else merged(6)
    step = _ARRIVAL_SLICE_ROWS
    for lo in range(0, arrival.shape[0], step):
        hi = lo + step
        b_arrival = arrival[lo:hi]
        b_cores = cores[lo:hi]
        yield (zip(repeat(s) if shard is None else shard[lo:hi].tolist(),
                   b_arrival.tolist(), b_cores.tolist(),
                   memory[lo:hi].tolist(), _plain(allocations[lo:hi]),
                   repeat(None) if not with_ids else _plain(vm_ids[lo:hi])),
               b_arrival, departure[lo:hi], b_cores, ends,
               None if flags is None else flags[lo:hi].tolist())
        ends = ()


def _plain(column):
    """A list or tuple slice as is; an array slice as a list of scalars."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _sanitizer_installed() -> bool:
    """Whether the runtime sanitizer (``REPRO_SANITIZE=1``) is installed.

    Looked up, not imported: installing it loads the module, and importing
    the analysis package would cost every replaying process ~10 ms.
    """
    module = sys.modules.get("repro.analysis.sanitizer")
    return module is not None and module.is_installed()


def _checked_emit(emit, engines: List[ArrayPlacementEngine],
                  ledger: PoolGroupLedger, shard_groups, pool_free: List[float],
                  pool_used: List[float], payload: Optional[list]):
    """``emit`` behind the sanitizer's per-sample invariant checks.

    Before each sample row, :func:`~repro.analysis.sanitizer
    .check_replay_sample` checks the shard's node, server and pool-group
    accounting and its ``running_vms``: against its engine's live handles
    in a controlled replay (``payload is None``), else against the shard's
    live departure payloads.
    """
    from repro.analysis.sanitizer import check_replay_sample

    def checked(shard: int, time_s: float) -> None:
        eng = engines[shard]
        first, last = eng.offset, eng.offset + eng.n_servers
        nodes = slice(first * eng.sockets, last * eng.sockets)
        if payload is None:
            live = len(eng.vm_server) - len(eng._free_handles)
        else:
            live = sum(1 for entry in payload
                       if entry is not None and entry[0] == shard)
        check_replay_sample(
            f"shard {shard} at t={time_s}",
            (("node used cores", eng.node_used_cores[nodes]),
             ("node used GB", eng.node_used_gb[nodes]),
             ("server used cores", eng.used_cores_srv[first:last]),
             ("server used GB", eng.used_gb_srv[first:last]),
             ("server pool GB", eng.pool_used_srv[first:last])),
            [(g, pool_free[g], pool_used[g], ledger.capacity_gb[g],
              ledger.is_degraded(g)) for g in shard_groups[shard]],
            eng.running_vms, live)
        emit(shard, time_s)
    return checked


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
    online: Optional[OnlineControlConfig] = None,
    faults: Optional[FaultSchedule] = None,
) -> Tuple[List[SimulationResult], PoolGroupLedger]:
    """The replay loop: one merged, heap-free pass over a fleet.

    * **shared state**: the shard engines (:meth:`ArrayPlacementEngine.fleet`)
      share fleet-wide per-server and per-node lists and per-shard
      aggregate lists; the loop binds those objects to locals and inlines
      :meth:`ArrayPlacementEngine.place` / ``remove`` over them statement
      for statement, so engine methods called from a cold hook see live
      state and nothing is copied back.  The pool groups are the one copy:
      group ids are contiguous, so every replay keeps the ledger's three
      pool dicts as group-indexed lists (a list subscript is ~2x cheaper
      than a dict lookup), writes them into the dicts before each cold
      hook and reads them back right after it (the hooks' engine and
      injector methods use the dicts), and writes them back at the end.
      Bucket entries hold fleet server ids (a constant offset per shard
      preserves within-shard order).  The server shape is uniform
      (:func:`_validate_crossshard_args`), so it hoists into scalars and a
      fleet server's first NUMA-node slot is just ``index * sockets``;
    * **arrival blocks**: the loop reads merged arrival rows one block at a
      time from the k-way merge of the shards' chunks (:func:`_blocks`; a
      materialised trace is one chunk), in slices of at most
      ``_ARRIVAL_SLICE_ROWS`` rows, and ends with a sentinel block whose
      one row arrives at ``+inf``: its pump is the final drain;
    * **departures**: at each block start, the block's departures are
      sorted together with the payloads earlier blocks have not drained
      yet, equal times in placement sequence (carried payloads first, then
      the block's rows in order), in O(block + live VMs) memory.  A
      placement stores its payload in its row's slot; the drain walks the
      presorted order through a pointer, batched by one ``bisect_right``
      per pump bound, and clears each slot it drains.  Rejected, drained
      and not-yet-placed slots are ``None``;
    * **pump timelines**: departures (the presorted drain), fault events
      (``t_f``), the shared grid clock (``t_s``: every shard's grid is the
      same ``k * sample_interval_s`` sequence, fired for alive shards in
      shard order) and pending horizons (``t_h``, the min of a tiny heap;
      a shard's horizon becomes pending at the block after its last row,
      which the merge makes the last row of its block).  At equal times the order is the priority table of
      DESIGN.md sections 10-11: departures, faults, grid samples (each
      shard's sample followed by its QoS tick and its evacuation-retry
      tick), horizons, arrivals;
    * **controlled replays**: with a control on, the commit also does
      :meth:`ArrayPlacementEngine._new_handle`'s work and files the VM's
      at-risk flag and departure token (under faults, also the injector's
      pool-VM index), and a departure payload is the token.  The drain
      does :meth:`FaultInjector.on_departure`'s work: a killed VM's token
      maps to ``-1`` and its departure is a no-op; otherwise the VM leaves
      the at-risk, pool-VM and pending maps, the static removal statements
      run on its handle's fields, the handle is freed, and every degraded
      group's ``free`` is re-clamped to ``max(0, capacity - used)``.
      Static replays pay two ``controlled`` tests per departure and one
      per placement;
    * **cold hooks** (:class:`_Controls`): a fault event, and each alive
      shard's QoS-plus-retry tick right after its grid sample.  The pool
      lists are synced around each hook, per shard, because the next
      shard's sample reads group usage the tick changed.  Static replays
      pay one test per grid sample and one compare per pump round for the
      fault timeline;
    * **full-server elision** (shared with the engine): a placement that
      fills a server skips the insort and a departure from a full server
      skips the delete, so ``buckets[0]`` is stale until a zero-core
      request rebuilds it; and a **GC pause** for the duration of the loop
      (the payload and bucket-key tuples allocated per event otherwise
      trigger young-generation scans over long-lived state).  Departures of
      VMs that drew no pool memory skip the pool ledger block entirely:
      every write in it is a float no-op for ``pool_gb == 0``.

    Two row kinds only validation-bypassing records produce take cold
    branches, guarded per block: a VM departing at or before its arrival
    rewinds the drain pointer to its presorted rank (every slot between
    there and the old pointer is ``None``, so only this VM re-fires), and a
    zero-core VM, whose walk starts at ``buckets[0]``, rebuilds its shard's
    stale full-server bucket first.

    Pinned by the brute-force oracles in ``tests/reference_replay.py``
    (one cluster and static fleets) and by the fixtures the retired
    replay loops left (``tests/fixtures``).
    """
    n_shards = len(inputs)
    ledger = PoolGroupLedger.for_topology(topology, capacity)
    engines = ArrayPlacementEngine.fleet(
        n_servers_per_shard,
        effective_server_config(server_configs[0], constrain_memory),
        [g for groups in topology.group_of for g in groups],
        ledger.free_gb, ledger.used_gb, ledger.peak_gb)
    results = [SimulationResult() for _ in range(n_shards)]
    shard_groups = [topology.groups_of_shard(s) for s in range(n_shards)]
    total_cores = [e.total_cores for e in engines]
    total_dram = [
        n_servers_per_shard[s] * server_configs[s].total_dram_gb
        for s in range(n_shards)
    ]
    # Group ids are contiguous 0..n_groups-1, so the ledger dicts become
    # lists, synced around each cold hook and written back at the end.
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

    # -- the engines' shared fleet state -------------------------------------
    node_cores = e0.node_used_cores
    node_gb = e0.node_used_gb
    used_cores_srv = e0.used_cores_srv
    used_gb_srv = e0.used_gb_srv
    pool_used_srv = e0.pool_used_srv
    peak_local = e0.peak_local_gb
    peak_pool = e0.peak_pool_gb
    group_of = e0.group_of
    agg_cores = e0.agg_cores
    agg_gb = e0.agg_local_gb
    agg_stranded = e0.agg_stranded_gb
    agg_running = e0.agg_running
    buckets_l = [e._buckets for e in engines]
    n_buckets = len(buckets_l[0])

    append_rows = [r.sample_buffer.append_row for r in results]
    placed = [0] * n_shards
    rejected = [0] * n_shards
    total_memory = [0.0] * n_shards
    total_pool = [0.0] * n_shards
    placed_ids: List[List[str]] = [[] for _ in range(n_shards)]
    placed_srv: List[List[int]] = [[] for _ in range(n_shards)]
    last_sample: List[Optional[float]] = [None] * n_shards
    alive = [True] * n_shards
    n_alive = n_shards

    controlled = online is not None or faults is not None
    controls = None
    # The controlled replay's per-VM bookkeeping (see the docstring);
    # static replays never read these.
    at_risk = vm_lists = token_handle = token_shard = None
    token_group = pool_vms = retrying = degraded = capacities = None
    if controlled:
        controls = _Controls(
            online, faults, engines, results, ledger, topology, alive,
            (pool_free, pool_used, pool_peak))
        at_risk = controls.at_risk
        vm_lists = [(e._free_handles, e.vm_server, e.vm_node, e.vm_cores,
                     e.vm_local_gb, e.vm_pool_gb) for e in engines]
        injector = controls.injector
        if injector is None:
            # Online control alone: tokens still map to handles; no VM is
            # ever killed, moved or degraded.
            token_handle, token_shard = [], []
            token_group, retrying = {}, {}
        else:
            token_handle = injector._token_handle
            token_shard = injector._token_shard
            token_group = injector._token_group
            pool_vms = injector._pool_vms
            retrying = injector._pending
        degraded = ledger._healthy_capacity_gb
        capacities = ledger.capacity_gb

    def emit(shard: int, time_s: float, agg_cores=agg_cores, agg_gb=agg_gb,
             agg_stranded=agg_stranded, agg_running=agg_running,
             pool_used=pool_used) -> None:
        """Append one grid or horizon sample row to ``shard``'s result.

        The hot loop's lists come in as defaults: closing over them would
        make them cell variables, which every hot-loop access pays for.
        """
        stranded = agg_stranded[shard]
        if stranded < 0.0:
            stranded = 0.0
        used_pool_gb = 0.0
        for g in shard_groups[shard]:
            used_pool_gb += pool_used[g]
        append_rows[shard]((
            time_s,
            agg_cores[shard] / total_cores[shard],
            100.0 * agg_cores[shard] / total_cores[shard],
            agg_gb[shard],
            used_pool_gb,
            stranded,
            100.0 * stranded / total_dram[shard],
            agg_running[shard],
        ))
        last_sample[shard] = time_s

    # Departure slots (see the docstring), refilled in place at each block
    # start, so the sanitizer's sample check reads the live list.
    payload: list = []
    if _sanitizer_installed():
        emit = _checked_emit(emit, engines, ledger, shard_groups, pool_free,
                             pool_used, None if controlled else payload)

    threshold = None
    if online is not None and online.mitigation_enabled:
        threshold = online.qos_threshold_percent
    blocks = _blocks(inputs, policies, record_placements or controlled,
                     threshold)

    #: Walk ranges, one per requested core count (reused, not allocated per
    #: placement; grown per block); indices past the last bucket walk
    #: nothing.
    walk_ranges = [range(c, n_buckets) for c in range(n_buckets)]

    bisect = bisect_left
    bisect_r = bisect_right
    insort_ = insort
    heappush = heapq.heappush
    heappop = heapq.heappop
    inf = math.inf

    # -- departure drain state, rebuilt at every block start -----------------
    dep_order: List[int] = []
    dep_times: List[float] = []
    sorted_times = _NO_TIMES  # ``dep_times`` as an array
    p = 0
    #: Pending horizons (time, shard); ``t_h`` caches the heap min (the heap
    #: changes at most ``2 * n_shards`` times, so maintaining the cache is
    #: far cheaper than peeking every pump round).
    hor_heap: List[Tuple[float, int]] = []
    t_h = inf
    #: Cached next grid tick (``inf`` once every shard's horizon passed).
    t_s = 0.0
    #: Next fault event (``inf`` without faults or once all have fired).
    t_f = inf if controls is None else controls.next_fault()

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for rows, arrivals, departures, cores, ends, flags in blocks:
            for end_time, shard in ends:
                heappush(hor_heap, (end_time, shard))
            t_h = hor_heap[0][0] if hor_heap else inf

            # -- presort: this block's departures + undrained payloads -------
            # Slots hold the carried payloads, then the block's rows (row
            # ``j`` is slot ``n_carry + j``), so slot order is placement
            # sequence and a stable sort of the slots' departure times puts
            # equal times in placement order.
            entries = list(map(payload.__getitem__, dep_order[p:]))
            pending = np.fromiter(map(is_not, entries, repeat(None)),
                                  dtype=bool, count=len(entries))
            payload[:] = compress(entries, pending.tolist())
            n_carry = len(payload)
            n_block = departures.shape[0]
            payload += repeat(None, n_block)
            times = np.concatenate((sorted_times[p:][pending], departures))
            drain = np.argsort(times, kind="stable")
            sorted_times = times[drain]
            dep_times = sorted_times.tolist()
            dep_order = drain.tolist()
            n_dep = n_block + n_carry
            p = 0
            next_dep = dep_times[0] if n_dep else inf
            nxt = t_s if t_s <= t_h else t_h
            if t_f <= nxt:
                nxt = t_f
            # next_event folds the pump-entry test into one compare per
            # arrival (the grid starts at 0.0, so the first arrival pumps).
            next_event = next_dep if next_dep <= nxt else nxt

            # -- cold-branch guards (validation-bypassing rows only) ---------
            rewinds = None
            zero_core = False
            if n_block:
                late = np.flatnonzero(departures <= arrivals)
                if late.size:
                    rank = np.empty(n_dep, dtype=np.int64)
                    rank[drain] = np.arange(n_dep)
                    late += n_carry
                    rewinds = dict(zip(late.tolist(), rank[late].tolist()))
                zero_core = int(cores.min()) < 1
                top = int(cores.max())
                if top >= len(walk_ranges):
                    walk_ranges.extend(
                        range(c, n_buckets)
                        for c in range(len(walk_ranges), top + 1))

            k = n_carry - 1  # the slot of the current row
            for s, arrival_s, cores_r, memory_gb, vm_pool_gb, vm_id in rows:
                k += 1
                # -- pump: every earlier-ranked event before this arrival ----
                if next_event <= arrival_s:
                    while True:
                        # Priority at equal times: departures, faults, grid
                        # samples, horizons (DESIGN.md sections 10-11).
                        nxt = t_s if t_s <= t_h else t_h
                        if t_f <= nxt:
                            nxt = t_f
                        bound = nxt if nxt <= arrival_s else arrival_s
                        if next_dep <= bound:
                            end = bisect_r(dep_times, bound, p)
                            for m in dep_order[p:end]:
                                entry = payload[m]
                                if entry is None:
                                    continue  # rejected, drained or unplaced
                                payload[m] = None
                                if controlled:
                                    # -- FaultInjector.on_departure ----------
                                    handle = token_handle[entry]
                                    if handle < 0:
                                        continue  # killed: a no-op
                                    ds = token_shard[entry]
                                    # Departed VMs leave the at-risk set
                                    # before the handle is recycled.
                                    at_risk[ds].pop(handle, None)
                                    tg = token_group.pop(entry, None)
                                    if tg is not None:
                                        pool_vms[tg].pop(entry, None)
                                    if retrying:
                                        retrying.pop(entry, None)
                                    (free_h, v_srv, v_node, v_cores, v_local,
                                     v_pool) = vm_lists[ds]
                                    sidx = v_srv[handle]
                                    pos = sidx * sockets + v_node[handle]
                                    d_cores = v_cores[handle]
                                    d_local = v_local[handle]
                                    d_pool = v_pool[handle]
                                else:
                                    (ds, sidx, pos, d_cores, d_local,
                                     d_pool) = entry
                                # -- departure (ArrayPlacementEngine.remove) -
                                if d_pool:
                                    # place() rejects pool draws on group-less
                                    # servers, so a pool-carrying payload
                                    # always has a real group.
                                    group = group_of[sidx]
                                    remaining_gb = pool_used[group] - d_pool
                                    if remaining_gb < 0.0:
                                        # Clamp tiny negative float drift;
                                        # real imbalances stay loud.
                                        if remaining_gb < -1e-6:
                                            raise RuntimeError(
                                                f"pool group {group} "
                                                f"accounting went negative "
                                                f"({remaining_gb} GB) -- "
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
                                    # Full servers are unindexed (full-server
                                    # elision); only a zero-core VM leaves
                                    # one still full.
                                    agg_stranded[ds] += (
                                        std - new_gb if new_cores >= stc
                                        else 0.0
                                    ) - (std - old_gb)
                                else:
                                    bucket = buckets[stc - before_cores]
                                    del bucket[
                                        bisect(bucket, (std - old_gb, sidx))
                                    ]
                                insort_(buckets[stc - new_cores],
                                        (std - new_gb, sidx))
                                agg_running[ds] -= 1
                                if controlled:
                                    v_srv[handle] = -1
                                    free_h.append(handle)
                                    token_handle[entry] = -1
                                    # The release credited ``free``
                                    # unmediated; re-clamp degraded groups.
                                    for g in degraded:
                                        room = capacities[g] - pool_used[g]
                                        pool_free[g] = (room if room > 0.0
                                                        else 0.0)
                            p = end
                            next_dep = dep_times[p] if p < n_dep else inf
                        if nxt > arrival_s or nxt == inf:
                            # (``nxt == inf`` ends the sentinel's pump:
                            # every horizon and fault has fired.)
                            break
                        if t_f == nxt:
                            controls.publish()
                            t_f = controls.fire()
                            controls.collect()
                        elif t_s <= t_h:
                            # Grid tick: alive shards sample in shard order,
                            # each followed by its own control ticks (the
                            # next shard's sample reads what they changed).
                            for gs in range(n_shards):
                                if alive[gs]:
                                    emit(gs, t_s)
                                    if controlled:
                                        controls.publish()
                                        controls.tick(gs)
                                        controls.collect()
                            t_s += sample_interval_s
                        else:
                            h, hs = heappop(hor_heap)
                            t_h = hor_heap[0][0] if hor_heap else inf
                            ls = last_sample[hs]
                            if ls is None or ls <= h:
                                if ls == h:
                                    results[hs].sample_buffer.drop_last()
                                emit(hs, h)
                            alive[hs] = False
                            n_alive -= 1
                            if not n_alive:
                                t_s = inf
                    if arrival_s == inf:
                        break  # the sentinel: everything has drained
                    next_event = next_dep if next_dep <= nxt else nxt

                buckets = buckets_l[s]
                if zero_core and not cores_r:
                    # The walk starts at the full-server bucket, which the
                    # elision leaves stale.
                    buckets[0] = _full_bucket(
                        used_cores_srv, used_gb_srv, stc, std,
                        engines[s].offset, n_servers_per_shard[s])
                local_gb = memory_gb - vm_pool_gb

                # -- best-fit bucket walk (ArrayPlacementEngine.place) -------
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
                    # -- commit (ArrayPlacementEngine.place, inlined) --------
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
                            # topology-built engines, where every server has
                            # a group; kept for parity with place()'s
                            # PlacementError): roll usage back, peaks keep
                            # the transient placement.
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
                        # rebuilt before it is read).
                        bucket = buckets[stc - before_cores]
                        del bucket[bisect(bucket, (std - old_gb, sidx))]
                        if new_cores >= stc:
                            # Only a zero-core VM lands on a server that was
                            # already full.
                            agg_stranded[s] += (std - new_gb) - (
                                std - old_gb if before_cores >= stc else 0.0
                            )
                        else:
                            insort_(buckets[stc - new_cores],
                                    (std - new_gb, sidx))
                        agg_running[s] += 1
                        placed[s] += 1
                        if record_placements:
                            placed_ids[s].append(vm_id)
                            placed_srv[s].append(sidx)
                        total_memory[s] += memory_gb
                        total_pool[s] += vm_pool_gb
                        # Storing the payload is the push: the drain has not
                        # passed this slot yet...
                        if controlled:
                            # -- ArrayPlacementEngine._new_handle ------------
                            (free_h, v_srv, v_node, v_cores, v_local,
                             v_pool) = vm_lists[s]
                            if free_h:
                                handle = free_h.pop()
                                v_srv[handle] = sidx
                                v_node[handle] = best_node
                                v_cores[handle] = cores_r
                                v_local[handle] = local_gb
                                v_pool[handle] = vm_pool_gb
                            else:
                                handle = len(v_srv)
                                v_srv.append(sidx)
                                v_node.append(best_node)
                                v_cores.append(cores_r)
                                v_local.append(local_gb)
                                v_pool.append(vm_pool_gb)
                            # The departure token; under faults a pool VM
                            # also joins its group's evacuation list.
                            token = len(token_handle)
                            token_handle.append(handle)
                            token_shard.append(s)
                            if need_pool and pool_vms is not None:
                                pool_vms[group][token] = vm_id
                                token_group[token] = group
                            if flags is not None and flags[k - n_carry]:
                                at_risk[s][handle] = vm_id
                            payload[k] = token
                        else:
                            payload[k] = (s, sidx, pos, cores_r, local_gb,
                                          vm_pool_gb)
                        if rewinds is not None:
                            rank_k = rewinds.get(k)
                            if rank_k is not None:
                                # ...unless the VM departs at or before its
                                # arrival: rewind to its rank so the next
                                # pump fires it.
                                p = rank_k
                                next_dep = dep_times[p]
                                if next_dep < next_event:
                                    next_event = next_dep
        if controls is not None:
            controls.finish()
    finally:
        if gc_was_enabled:
            gc.enable()

    for g in range(n_groups):
        ledger.free_gb[g] = pool_free[g]
        ledger.used_gb[g] = pool_used[g]
        ledger.peak_gb[g] = pool_peak[g]
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
            off = eng.offset
            res._placed_vm_ids = placed_ids[shard]
            res._placed_server_idx = [g - off for g in placed_srv[shard]]
            res._placement_server_ids = eng.server_ids
    return results, ledger
