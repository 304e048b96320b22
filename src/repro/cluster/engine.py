"""Array-backed placement engine: the struct-of-arrays cluster state.

:class:`ArrayPlacementEngine` is the one placement engine every replay
uses.  It keeps cluster state as flat struct-of-arrays:

* per-NUMA-node used cores / GB in flat ``n_servers * sockets`` arrays,
* per-server scalars (used cores/GB, pool usage, peaks) in parallel arrays,
* cluster aggregates (used cores, used GB, stranded GB, running VMs)
  maintained incrementally, and
* live placements as parallel arrays indexed by an integer **VM handle**
  (handles are recycled through a free list), so a departure needs only
  the handle.

A fleet's shard engines (:meth:`ArrayPlacementEngine.fleet`) share one
set of these lists, which the replay loop also binds to locals.

Hot state lives in plain Python lists: the per-event operations are scalar
reads/writes, where list indexing is what CPython executes fastest (numpy
scalar indexing boxes a fresh float per access).

Placement is best fit: free-core buckets hold ``(free_local_gb,
server_index)`` sorted lists and are walked from the fewest feasible free
cores upwards, so the first server whose pool group and fullest fitting
NUMA node accept the request is the one with the fewest free cores, then
the least free memory, then the lowest index.  The replay loop inlines
:meth:`ArrayPlacementEngine.place` / :meth:`~ArrayPlacementEngine.remove`
statement for statement; ``tests/reference_replay.py`` is a brute-force
replay (linear scan, no indexes) that every replay is differential-tested
against byte for byte (DESIGN.md section 6).
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.server import ServerConfig

__all__ = ["ArrayPlacementEngine", "PlacementError"]


class PlacementError(RuntimeError):
    """Raised when a VM request cannot be placed."""


class ArrayPlacementEngine:
    """Struct-of-arrays cluster state with best-fit bucket-walk placement.

    Built for a fresh uniform cluster, directly or with :meth:`for_cluster`;
    :meth:`fleet` builds one engine per shard of a fleet over shared
    fleet-wide lists.  Placement and removal return and consume integer VM
    handles.

    Server indices are **fleet indices**: an engine owns servers
    ``offset .. offset + n_servers - 1`` of its (possibly shared) per-server
    and per-node lists, bucket entries and ``vm_server`` hold fleet indices,
    and a standalone engine is the one-shard fleet with ``offset == 0``.
    The cluster aggregates live in per-shard slots of shared lists
    (``agg_cores[shard]`` and so on), read through :attr:`used_cores`,
    :attr:`used_local_gb`, :attr:`stranded_gb` and :attr:`running_vms`.
    The replay loop inlines :meth:`place` and :meth:`remove` over the same
    lists, so both always see one live state.

    Full servers are not indexed (**full-server elision**): a placement that
    fills a server drops it from its bucket without inserting it into
    ``_buckets[0]``, so that bucket goes stale.  Only a zero-core request
    walks it, and such a request rebuilds it first (:func:`_full_bucket`).
    """

    def __init__(
        self,
        n_servers: int,
        config: ServerConfig,
        group_of: Optional[Sequence[int]] = None,
        pool_free_gb: Optional[Dict[int, float]] = None,
        pool_used_gb: Optional[Dict[int, float]] = None,
        pool_peak_gb: Optional[Dict[int, float]] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.config = config
        self.sockets = config.sockets
        self.cores_per_socket = config.cores_per_socket
        self.dram_per_socket_gb = config.dram_per_socket_gb
        self.server_total_cores = config.total_cores
        self.server_total_dram_gb = config.total_dram_gb

        # -- struct-of-arrays state ------------------------------------------------
        n_nodes = n_servers * self.sockets
        #: flat (n_servers, sockets) arrays, row-major by server index.
        self.node_used_cores: List[int] = [0] * n_nodes
        self.node_used_gb: List[float] = [0.0] * n_nodes
        #: per-server scalars.
        self.used_cores_srv: List[int] = [0] * n_servers
        self.used_gb_srv: List[float] = [0.0] * n_servers
        self.pool_used_srv: List[float] = [0.0] * n_servers
        self.peak_local_gb: List[float] = [0.0] * n_servers
        self.peak_pool_gb: List[float] = [0.0] * n_servers
        #: server index -> pool group id (-1: not pooled).
        self.group_of: List[int] = (
            list(group_of) if group_of is not None else [-1] * n_servers
        )
        if len(self.group_of) != n_servers:
            raise ValueError("group_of must have one entry per server")
        #: shared pool accounting, keyed by group id.  All three dicts may be
        #: the caller's (they are mutated in place); passing shared dicts
        #: lets a fleet-owned ledger span several engines (the cross-shard
        #: pool topology, repro.cluster.pool_topology).
        self.pool_free_gb: Dict[int, float] = (
            pool_free_gb if pool_free_gb is not None else {}
        )
        self.pool_used_gb: Dict[int, float] = (
            pool_used_gb if pool_used_gb is not None
            else {g: 0.0 for g in self.pool_free_gb}
        )
        self.pool_peak_by_group: Dict[int, float] = (
            pool_peak_gb if pool_peak_gb is not None
            else {g: 0.0 for g in self.pool_free_gb}
        )

        # -- cluster aggregates, one slot per shard --------------------------------
        self.agg_cores: List[int] = [0]
        self.agg_local_gb: List[float] = [0.0]
        self.agg_stranded_gb: List[float] = [0.0]
        self.agg_running: List[int] = [0]
        self._own(0, 0, n_servers)

    def _own(self, shard: int, offset: int, n_servers: int) -> None:
        """Set the state an engine does not share: its servers, its
        candidate index and its live placements."""
        self.shard = shard
        self.offset = offset
        self.n_servers = n_servers
        self.total_cores = n_servers * self.server_total_cores
        self.server_ids: List[str] = [f"server-{i:04d}" for i in range(n_servers)]
        #: free-core count -> sorted [(free_local_gb, server_index), ...];
        #: fresh servers share one key, so ascending index order is sorted.
        self._buckets: List[List[Tuple[float, int]]] = [
            [] for _ in range(self.server_total_cores + 1)
        ]
        self._buckets[self.server_total_cores] = [
            (self.server_total_dram_gb, offset + i) for i in range(n_servers)
        ]
        #: live placements, indexed by handle.
        self.vm_server: List[int] = []
        self.vm_node: List[int] = []
        self.vm_cores: List[int] = []
        self.vm_local_gb: List[float] = []
        self.vm_pool_gb: List[float] = []
        self._free_handles: List[int] = []

    @classmethod
    def fleet(
        cls,
        shard_sizes: Sequence[int],
        config: ServerConfig,
        group_of: Sequence[int],
        pool_free_gb: Dict[int, float],
        pool_used_gb: Dict[int, float],
        pool_peak_gb: Dict[int, float],
    ) -> List["ArrayPlacementEngine"]:
        """One engine per shard over shared fleet-wide state.

        ``group_of`` maps every fleet server (shards concatenated in order)
        to its pool group.  The engines share the per-server and per-node
        lists, the aggregate lists (one slot per shard) and the three pool
        dicts, so an operation through any engine -- or through the replay
        loop that inlines them -- is visible to all.
        """
        if any(n < 1 for n in shard_sizes):
            raise ValueError("need at least one server")
        whole = cls(sum(shard_sizes), config, group_of, pool_free_gb,
                    pool_used_gb, pool_peak_gb)
        n_shards = len(shard_sizes)
        whole.agg_cores = [0] * n_shards
        whole.agg_local_gb = [0.0] * n_shards
        whole.agg_stranded_gb = [0.0] * n_shards
        whole.agg_running = [0] * n_shards
        engines = []
        offset = 0
        for shard, n_servers in enumerate(shard_sizes):
            engine = copy.copy(whole)
            engine._own(shard, offset, n_servers)
            engines.append(engine)
            offset += n_servers
        return engines

    @property
    def used_cores(self) -> int:
        return self.agg_cores[self.shard]

    @property
    def used_local_gb(self) -> float:
        return self.agg_local_gb[self.shard]

    @property
    def stranded_gb(self) -> float:
        return self.agg_stranded_gb[self.shard]

    @property
    def running_vms(self) -> int:
        return self.agg_running[self.shard]

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def for_cluster(
        cls,
        n_servers: int,
        config: ServerConfig,
        pool_size_sockets: int = 0,
        pool_capacity_gb_per_group: float = float("inf"),
        base_sockets: Optional[int] = None,
    ) -> "ArrayPlacementEngine":
        """Fresh uniform cluster, grouped like ``PoolTopology.per_shard``.

        ``base_sockets`` is the socket count used to size pool groups (the
        simulator derives groups from its *base* config even when the replay
        runs a memory-unconstrained or capacity-candidate variant of it).
        """
        group_of: Optional[List[int]] = None
        pool_free: Optional[Dict[int, float]] = None
        if pool_size_sockets:
            sockets = base_sockets if base_sockets is not None else config.sockets
            servers_per_group = max(1, pool_size_sockets // sockets)
            group_of = [i // servers_per_group for i in range(n_servers)]
            pool_free = {}
            for group in group_of:
                pool_free.setdefault(group, pool_capacity_gb_per_group)
        return cls(n_servers, config, group_of=group_of, pool_free_gb=pool_free)

    # -- handle bookkeeping ------------------------------------------------------------
    def _new_handle(self, idx: int, node: int, cores: int,
                    local_gb: float, pool_gb: float) -> int:
        free = self._free_handles
        if free:
            handle = free.pop()
            self.vm_server[handle] = idx
            self.vm_node[handle] = node
            self.vm_cores[handle] = cores
            self.vm_local_gb[handle] = local_gb
            self.vm_pool_gb[handle] = pool_gb
        else:
            handle = len(self.vm_server)
            self.vm_server.append(idx)
            self.vm_node.append(node)
            self.vm_cores.append(cores)
            self.vm_local_gb.append(local_gb)
            self.vm_pool_gb.append(pool_gb)
        return handle

    # -- placement ---------------------------------------------------------------------
    def place(self, cores: int, local_gb: float, pool_gb: float) -> int:
        """Select + commit; returns the VM handle, or -1 when nothing fits.

        Updates per-server usage and peaks, the pool ledger, and the
        cluster aggregates in the fixed order the replay loop inlines.
        Raises :class:`PlacementError` for a pool request that lands on a
        server outside every pool group; usage is rolled back but the
        server's peaks keep the transient placement.
        """
        node_cores = self.node_used_cores
        node_gb = self.node_used_gb
        used_cores_srv = self.used_cores_srv
        used_gb_srv = self.used_gb_srv
        sockets = self.sockets
        stc = self.server_total_cores
        std = self.server_total_dram_gb
        cores_limit = self.cores_per_socket - cores
        gb_limit = self.dram_per_socket_gb - local_gb + 1e-9
        need_pool = pool_gb > 0
        group_of = self.group_of
        pool_free = self.pool_free_gb
        buckets = self._buckets
        if cores < 1:
            # The walk starts at the full-server bucket, which the elision
            # leaves stale.
            buckets[0] = _full_bucket(used_cores_srv, used_gb_srv, stc, std,
                                      self.offset, self.n_servers)

        sidx = -1
        best_node = -1
        for free in range(cores, len(buckets)):
            for _, idx in buckets[free]:
                if need_pool:
                    group = group_of[idx]
                    avail = pool_free.get(group, 0.0) if group >= 0 else 0.0
                    if pool_gb > avail + 1e-9:
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
            return -1

        # -- commit ---------------------------------------------------------------
        pos = sidx * sockets + best_node
        node_cores[pos] += cores
        node_gb[pos] += local_gb
        before_cores = used_cores_srv[sidx]
        old_gb = used_gb_srv[sidx]
        new_cores = before_cores + cores
        used_cores_srv[sidx] = new_cores
        new_gb = old_gb + local_gb
        used_gb_srv[sidx] = new_gb
        if new_gb > self.peak_local_gb[sidx]:
            self.peak_local_gb[sidx] = new_gb
        if need_pool:
            pool_srv = self.pool_used_srv[sidx] + pool_gb
            self.pool_used_srv[sidx] = pool_srv
            if pool_srv > self.peak_pool_gb[sidx]:
                self.peak_pool_gb[sidx] = pool_srv
            group = group_of[sidx]
            if group < 0:
                # No group to draw from: roll usage back (not the peaks).
                node_cores[pos] -= cores
                node_gb[pos] -= local_gb
                used_cores_srv[sidx] = new_cores - cores
                used_gb_srv[sidx] = new_gb - local_gb
                self.pool_used_srv[sidx] = pool_srv - pool_gb
                raise PlacementError(
                    f"server {self.server_ids[sidx - self.offset]} is not in "
                    f"any pool group but {pool_gb:.1f} GB of pool memory was "
                    f"requested"
                )
            pool_free[group] -= pool_gb
            g_used = self.pool_used_gb[group] + pool_gb
            self.pool_used_gb[group] = g_used
            if g_used > self.pool_peak_by_group[group]:
                self.pool_peak_by_group[group] = g_used

        shard = self.shard
        self.agg_cores[shard] += cores
        self.agg_local_gb[shard] += local_gb
        # -- reindex, with the full-server elision ----------------------------------
        bucket = buckets[stc - before_cores]
        del bucket[bisect_left(bucket, (std - old_gb, sidx))]
        if new_cores >= stc:
            # Only a zero-core VM lands on a server that was already full.
            self.agg_stranded_gb[shard] += (std - new_gb) - (
                std - old_gb if before_cores >= stc else 0.0)
        else:
            insort(buckets[stc - new_cores], (std - new_gb, sidx))
        self.agg_running[shard] += 1
        return self._new_handle(sidx, best_node, cores, local_gb, pool_gb)

    def remove(self, handle: int) -> None:
        """Release a placement by handle (departure path).

        Pool-used decrement with negative-drift clamping, pool free return,
        usage and aggregate decrements, stranding delta, reindex.  Raises
        ``KeyError`` for a handle that is not placed (removed twice).
        """
        sidx = self.vm_server[handle]
        if sidx < 0:
            raise KeyError(f"VM handle {handle} is not placed")
        cores = self.vm_cores[handle]
        local_gb = self.vm_local_gb[handle]
        pool_gb = self.vm_pool_gb[handle]
        if pool_gb:
            # place() rejects pool draws on group-less servers, so a
            # pool-carrying VM always has a real group.
            group = self.group_of[sidx]
            remaining = self.pool_used_gb[group] - pool_gb
            if remaining < 0.0:
                # Clamp the tiny negative float drift repeated +=/-= of
                # policy fractions accumulates; real imbalances stay loud.
                if remaining < -1e-6:
                    raise RuntimeError(
                        f"pool group {group} accounting went negative "
                        f"({remaining} GB) -- simulator bug"
                    )
                remaining = 0.0
            self.pool_used_gb[group] = remaining
            self.pool_free_gb[group] += pool_gb
            self.pool_used_srv[sidx] -= pool_gb

        used_cores_srv = self.used_cores_srv
        used_gb_srv = self.used_gb_srv
        stc = self.server_total_cores
        std = self.server_total_dram_gb
        before_cores = used_cores_srv[sidx]
        old_gb = used_gb_srv[sidx]
        pos = sidx * self.sockets + self.vm_node[handle]
        self.node_used_cores[pos] -= cores
        self.node_used_gb[pos] -= local_gb
        new_cores = before_cores - cores
        used_cores_srv[sidx] = new_cores
        new_gb = old_gb - local_gb
        used_gb_srv[sidx] = new_gb
        shard = self.shard
        self.agg_cores[shard] -= cores
        self.agg_local_gb[shard] -= local_gb
        buckets = self._buckets
        if before_cores >= stc:
            # Full servers are unindexed; only a zero-core VM leaves one
            # still full.
            self.agg_stranded_gb[shard] += (
                std - new_gb if new_cores >= stc else 0.0) - (std - old_gb)
        else:
            bucket = buckets[stc - before_cores]
            del bucket[bisect_left(bucket, (std - old_gb, sidx))]
        insort(buckets[stc - new_cores], (std - new_gb, sidx))
        self.agg_running[shard] -= 1

        self.vm_server[handle] = -1
        self._free_handles.append(handle)

    # -- online mitigation ----------------------------------------------------------------
    def migrate_pool_to_local(self, handle: int) -> float:
        """Move a live VM's pool share onto its NUMA-local node (mitigation).

        The online QoS loop's reconfiguration primitive (paper Section 4.2):
        the VM keeps its cores and node, its pool allocation is returned to
        the group ledger, and the same GBs are charged to local DRAM.

        Returns the moved GB; ``0.0`` when the VM has no pool exposure, and
        ``-1.0`` when the node lacks the DRAM headroom (same ``+ 1e-9``
        feasibility slack as placement) -- the caller records a failed
        mitigation and may retry after departures free memory.  Ledger
        updates reuse the departure path's negative-drift clamp, so
        ``pool_used`` can never drift negative through mitigations.
        """
        sidx = self.vm_server[handle]
        pool_gb = self.vm_pool_gb[handle]
        if pool_gb <= 0.0:
            return 0.0
        pos = sidx * self.sockets + self.vm_node[handle]
        if self.node_used_gb[pos] + pool_gb > self.dram_per_socket_gb + 1e-9:
            return -1.0

        group = self.group_of[sidx]
        if group >= 0:
            remaining = self.pool_used_gb[group] - pool_gb
            if remaining < 0.0:
                if remaining < -1e-6:
                    raise RuntimeError(
                        f"pool group {group} accounting went negative "
                        f"({remaining} GB) -- simulator bug"
                    )
                remaining = 0.0
            self.pool_used_gb[group] = remaining
            self.pool_free_gb[group] += pool_gb
        self.pool_used_srv[sidx] -= pool_gb

        stc = self.server_total_cores
        std = self.server_total_dram_gb
        cores_now = self.used_cores_srv[sidx]
        old_gb = self.used_gb_srv[sidx]
        self.node_used_gb[pos] += pool_gb
        new_gb = old_gb + pool_gb
        self.used_gb_srv[sidx] = new_gb
        if new_gb > self.peak_local_gb[sidx]:
            self.peak_local_gb[sidx] = new_gb
        shard = self.shard
        self.agg_local_gb[shard] += pool_gb
        if cores_now >= stc:
            # A full server is unindexed; its stranded memory shrinks.
            self.agg_stranded_gb[shard] += (std - new_gb) - (std - old_gb)
        else:
            bucket = self._buckets[stc - cores_now]
            del bucket[bisect_left(bucket, (std - old_gb, sidx))]
            insort(bucket, (std - new_gb, sidx))

        self.vm_local_gb[handle] = self.vm_local_gb[handle] + pool_gb
        self.vm_pool_gb[handle] = 0.0
        return pool_gb

    # -- result export -------------------------------------------------------------------
    def server_peaks(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(peak local GB, peak local+pool GB) per server id."""
        ids = self.server_ids
        off = self.offset
        local = {ids[i]: self.peak_local_gb[off + i]
                 for i in range(self.n_servers)}
        total = {
            ids[i]: self.peak_local_gb[off + i] + self.peak_pool_gb[off + i]
            for i in range(self.n_servers)
        }
        return local, total


def _full_bucket(used_cores: List[int], used_gb: List[float], stc: int,
                 std: float, first: int, count: int) -> List[Tuple[float, int]]:
    """Canonical full-server bucket of servers ``first .. first+count-1``.

    A full server's key is its current state, so sorting the recomputed
    keys reproduces the bucket an always-indexed engine would hold.
    """
    return sorted(
        (std - used_gb[i], i)
        for i in range(first, first + count)
        if used_cores[i] >= stc
    )
