"""Array-backed placement engine: the struct-of-arrays cluster state.

:class:`ArrayPlacementEngine` is the one placement engine every replay
uses.  It keeps cluster state as flat struct-of-arrays:

* per-NUMA-node used cores / GB in flat ``n_servers * sockets`` arrays,
* per-server scalars (used cores/GB, pool usage, peaks) in parallel arrays,
* cluster aggregates (used cores, used GB, stranded GB, running VMs)
  maintained incrementally, and
* live placements as parallel arrays indexed by an integer **VM handle**
  (handles are recycled through a free list), so the departure side stores
  only ``(time, seq, handle)`` triples and the event heap never carries
  strings or objects.

Hot state lives in plain Python lists: the per-event operations are scalar
reads/writes, where list indexing is what CPython executes fastest (numpy
scalar indexing boxes a fresh float per access).

Placement is best fit: free-core buckets hold ``(free_local_gb,
server_index)`` sorted lists and are walked from the fewest feasible free
cores upwards, so the first server whose pool group and fullest fitting
NUMA node accept the request is the one with the fewest free cores, then
the least free memory, then the lowest index.  The replay loops inline
:meth:`ArrayPlacementEngine.place` / :meth:`~ArrayPlacementEngine.remove`
statement for statement; ``tests/reference_replay.py`` is a brute-force
replay (linear scan, no indexes) that every replay is differential-tested
against byte for byte (DESIGN.md section 6).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.server import ServerConfig

__all__ = ["ArrayPlacementEngine", "PlacementError"]


class PlacementError(RuntimeError):
    """Raised when a VM request cannot be placed."""


class ArrayPlacementEngine:
    """Struct-of-arrays cluster state with best-fit bucket-walk placement.

    Built for a fresh uniform cluster, directly or with :meth:`for_cluster`.
    Placement and removal return and consume integer VM handles.
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
        self.n_servers = n_servers
        self.config = config
        self.sockets = config.sockets
        self.cores_per_socket = config.cores_per_socket
        self.dram_per_socket_gb = config.dram_per_socket_gb
        self.server_total_cores = config.total_cores
        self.server_total_dram_gb = config.total_dram_gb
        self.server_ids: List[str] = [f"server-{i:04d}" for i in range(n_servers)]

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
        #: the caller's (they are mutated in place);
        #: passing shared ``pool_used_gb`` / ``pool_peak_gb`` dicts lets a
        #: fleet-owned ledger span several engines -- the cross-shard pool
        #: topology (repro.cluster.pool_topology) builds one engine per shard
        #: over one shared ledger, so a pool group's draw/release/peak
        #: accounting is externally ownable.
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

        # -- cluster aggregates ----------------------------------------------------
        self.total_cores = n_servers * self.server_total_cores
        self.used_cores = 0
        self.used_local_gb = 0.0
        self.stranded_gb = 0.0
        self.running_vms = 0

        # -- candidate index -------------------------------------------------------
        #: free-core count -> sorted [(free_local_gb, server_index), ...]
        self._buckets: List[List[Tuple[float, int]]] = [
            [] for _ in range(self.server_total_cores + 1)
        ]
        full = (self.server_total_cores, self.server_total_dram_gb)
        self._bucket_key: List[Tuple[int, float]] = [full] * n_servers
        # Fresh servers share one key, so ascending index order is sorted.
        self._buckets[full[0]] = [(full[1], i) for i in range(n_servers)]

        # -- live placements, indexed by handle ------------------------------------
        self.vm_server: List[int] = []
        self.vm_node: List[int] = []
        self.vm_cores: List[int] = []
        self.vm_local_gb: List[float] = []
        self.vm_pool_gb: List[float] = []
        self._free_handles: List[int] = []

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
        cluster aggregates in the fixed order the replay loops inline.
        Raises :class:`PlacementError` for a pool request that lands on a
        server outside every pool group; usage is rolled back but the
        server's peaks keep the transient placement.
        """
        node_cores = self.node_used_cores
        node_gb = self.node_used_gb
        sockets = self.sockets
        cores_limit = self.cores_per_socket - cores
        gb_limit = self.dram_per_socket_gb - local_gb + 1e-9
        need_pool = pool_gb > 0
        group_of = self.group_of
        pool_free = self.pool_free_gb
        buckets = self._buckets

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
        used_cores_srv = self.used_cores_srv
        used_gb_srv = self.used_gb_srv
        pool_used_srv = self.pool_used_srv
        stc = self.server_total_cores
        std = self.server_total_dram_gb

        before_cores = used_cores_srv[sidx]
        stranded_before = std - used_gb_srv[sidx] if before_cores >= stc else 0.0

        pos = sidx * sockets + best_node
        node_cores[pos] += cores
        node_gb[pos] += local_gb
        new_cores = before_cores + cores
        used_cores_srv[sidx] = new_cores
        new_gb = used_gb_srv[sidx] + local_gb
        used_gb_srv[sidx] = new_gb
        pool_used_srv[sidx] += pool_gb
        if new_gb > self.peak_local_gb[sidx]:
            self.peak_local_gb[sidx] = new_gb
        if pool_used_srv[sidx] > self.peak_pool_gb[sidx]:
            self.peak_pool_gb[sidx] = pool_used_srv[sidx]

        if need_pool:
            group = group_of[sidx]
            if group < 0:
                # No group to draw from: roll usage back (not the peaks).
                node_cores[pos] -= cores
                node_gb[pos] -= local_gb
                used_cores_srv[sidx] = new_cores - cores
                used_gb_srv[sidx] = new_gb - local_gb
                pool_used_srv[sidx] -= pool_gb
                raise PlacementError(
                    f"server {self.server_ids[sidx]} is not in any pool group "
                    f"but {pool_gb:.1f} GB of pool memory was requested"
                )
            pool_free[group] -= pool_gb
            pool_used = self.pool_used_gb
            pool_used[group] += pool_gb
            if pool_used[group] > self.pool_peak_by_group[group]:
                self.pool_peak_by_group[group] = pool_used[group]

        self.used_cores += cores
        self.used_local_gb += local_gb
        stranded_after = std - new_gb if new_cores >= stc else 0.0
        self.stranded_gb += stranded_after - stranded_before
        self.running_vms += 1

        # -- reindex ---------------------------------------------------------------
        key = self._bucket_key[sidx]
        new_key = (stc - new_cores, std - new_gb)
        if new_key != key:
            bucket = buckets[key[0]]
            del bucket[bisect_left(bucket, (key[1], sidx))]
            insort(buckets[new_key[0]], (new_key[1], sidx))
            self._bucket_key[sidx] = new_key

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
        node = self.vm_node[handle]
        cores = self.vm_cores[handle]
        local_gb = self.vm_local_gb[handle]
        pool_gb = self.vm_pool_gb[handle]

        group = self.group_of[sidx]
        if group >= 0:
            pool_used = self.pool_used_gb
            remaining = pool_used[group] - pool_gb
            if remaining < 0.0:
                # Clamp the tiny negative float drift repeated +=/-= of
                # policy fractions accumulates; real imbalances stay loud.
                if remaining < -1e-6:
                    raise RuntimeError(
                        f"pool group {group} accounting went negative "
                        f"({remaining} GB) -- simulator bug"
                    )
                remaining = 0.0
            pool_used[group] = remaining
            if pool_gb > 0:
                self.pool_free_gb[group] += pool_gb

        used_cores_srv = self.used_cores_srv
        used_gb_srv = self.used_gb_srv
        stc = self.server_total_cores
        std = self.server_total_dram_gb
        before_cores = used_cores_srv[sidx]
        stranded_before = std - used_gb_srv[sidx] if before_cores >= stc else 0.0

        pos = sidx * self.sockets + node
        self.node_used_cores[pos] -= cores
        self.node_used_gb[pos] -= local_gb
        new_cores = before_cores - cores
        used_cores_srv[sidx] = new_cores
        new_gb = used_gb_srv[sidx] - local_gb
        used_gb_srv[sidx] = new_gb
        self.pool_used_srv[sidx] -= pool_gb

        self.used_cores -= cores
        self.used_local_gb -= local_gb
        stranded_after = std - new_gb if new_cores >= stc else 0.0
        self.stranded_gb += stranded_after - stranded_before
        self.running_vms -= 1

        key = self._bucket_key[sidx]
        new_key = (stc - new_cores, std - new_gb)
        if new_key != key:
            bucket = self._buckets[key[0]]
            del bucket[bisect_left(bucket, (key[1], sidx))]
            insort(self._buckets[new_key[0]], (new_key[1], sidx))
            self._bucket_key[sidx] = new_key

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
        node = self.vm_node[handle]
        pool_gb = self.vm_pool_gb[handle]
        if pool_gb <= 0.0:
            return 0.0
        pos = sidx * self.sockets + node
        std = self.server_total_dram_gb
        if self.node_used_gb[pos] + pool_gb > self.dram_per_socket_gb + 1e-9:
            return -1.0

        group = self.group_of[sidx]
        if group >= 0:
            pool_used = self.pool_used_gb
            remaining = pool_used[group] - pool_gb
            if remaining < 0.0:
                if remaining < -1e-6:
                    raise RuntimeError(
                        f"pool group {group} accounting went negative "
                        f"({remaining} GB) -- simulator bug"
                    )
                remaining = 0.0
            pool_used[group] = remaining
            self.pool_free_gb[group] += pool_gb
        self.pool_used_srv[sidx] -= pool_gb

        used_cores_srv = self.used_cores_srv
        used_gb_srv = self.used_gb_srv
        stc = self.server_total_cores
        cores_now = used_cores_srv[sidx]
        stranded_before = std - used_gb_srv[sidx] if cores_now >= stc else 0.0

        self.node_used_gb[pos] += pool_gb
        new_gb = used_gb_srv[sidx] + pool_gb
        used_gb_srv[sidx] = new_gb
        if new_gb > self.peak_local_gb[sidx]:
            self.peak_local_gb[sidx] = new_gb

        self.used_local_gb += pool_gb
        stranded_after = std - new_gb if cores_now >= stc else 0.0
        self.stranded_gb += stranded_after - stranded_before

        key = self._bucket_key[sidx]
        new_key = (stc - cores_now, std - new_gb)
        if new_key != key:
            bucket = self._buckets[key[0]]
            del bucket[bisect_left(bucket, (key[1], sidx))]
            insort(self._buckets[new_key[0]], (new_key[1], sidx))
            self._bucket_key[sidx] = new_key

        self.vm_local_gb[handle] = self.vm_local_gb[handle] + pool_gb
        self.vm_pool_gb[handle] = 0.0
        return pool_gb

    # -- result export -------------------------------------------------------------------
    def server_peaks(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(peak local GB, peak local+pool GB) per server id."""
        ids = self.server_ids
        local = {ids[i]: self.peak_local_gb[i] for i in range(self.n_servers)}
        total = {
            ids[i]: self.peak_local_gb[i] + self.peak_pool_gb[i]
            for i in range(self.n_servers)
        }
        return local, total
