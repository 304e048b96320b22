"""Array-backed placement engine: the struct-of-arrays scheduler hot path.

The object scheduler (:mod:`repro.cluster.scheduler`) walks ``ClusterServer``
instances on every placement: each candidate check is a chain of method calls
and attribute loads (``find_numa_node``, ``free_cores``, ``stranded_gb``,
per-node Python lists), and every commit touches half a dozen objects.  At
million-event trace scale that per-VM interpreter overhead dominates the run.

:class:`ArrayPlacementEngine` replaces the object model with flat
struct-of-arrays state:

* per-NUMA-node used cores / GB in flat ``n_servers * sockets`` arrays,
* per-server scalars (used cores/GB, pool usage, peaks) in parallel arrays,
* cluster aggregates (used cores, used GB, stranded GB, running VMs)
  maintained incrementally with the exact arithmetic the object path uses,
* live placements as parallel arrays indexed by an integer **VM handle**
  (handles are recycled through a free list; an optional intern table maps
  vm ids to handles for callers that address VMs by id), and
* the departure side stores only ``(time, seq, handle)`` triples, so the
  event heap never carries strings or objects.

Hot state lives in plain Python lists: the per-event operations are scalar
reads/writes, where list indexing is what CPython executes fastest (numpy
scalar indexing boxes a fresh float per access, which is *slower* than the
object path it would replace).

The selection walk is the **same best-fit bucket structure** as the indexed
scheduler -- free-core buckets holding ``(free_local_gb, server_index)``
sorted lists, walked from the fewest feasible free cores upwards -- and every
float update replays the object path's arithmetic operation-for-operation, so
placements, rejections, peaks, and sample rows are byte-identical to the
object engine (differential-tested; see DESIGN.md section 6).

``ClusterSimulator``, ``VMScheduler``, ``PoolDimensioner``, and
``FleetSimulator`` select the engine via ``engine="array" | "object"``; the
object path is kept for differential testing, exactly like the scheduler's
``strategy="linear"`` scan.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.server import ClusterServer, ServerConfig

__all__ = [
    "ArrayPlacementEngine",
    "PLACEMENT_ENGINES",
    "validate_engine",
    "resolve_engine",
]

#: Valid values for the ``engine`` argument grown by the scheduler/simulator.
PLACEMENT_ENGINES = ("array", "object")


def validate_engine(engine: str) -> str:
    """Validate a placement-engine name; returns it for chaining."""
    if engine not in PLACEMENT_ENGINES:
        raise ValueError(
            f"unknown placement engine {engine!r}; "
            f"expected one of {PLACEMENT_ENGINES}"
        )
    return engine


def resolve_engine(engine: Optional[str], scheduler_strategy: str) -> str:
    """Resolve the ``engine=None`` default and validate the combination.

    The array engine implements the *indexed* bucket walk; the legacy linear
    scan only exists on the object path.  ``None`` therefore resolves to
    ``"array"`` under the default indexed strategy and to ``"object"`` under
    ``strategy="linear"``; asking for the impossible combination is an error.
    """
    if engine is None:
        return "array" if scheduler_strategy == "indexed" else "object"
    validate_engine(engine)
    if engine == "array" and scheduler_strategy != "indexed":
        raise ValueError(
            "engine='array' implements the indexed bucket walk; use "
            "scheduler_strategy='indexed' with it (engine='object' keeps "
            f"the {scheduler_strategy!r} strategy)"
        )
    return engine


class ArrayPlacementEngine:
    """Struct-of-arrays cluster state with best-fit bucket-walk placement.

    The engine is constructed either for a fresh uniform cluster
    (:meth:`for_cluster`, the simulator's path) or from existing
    ``ClusterServer`` objects (:meth:`from_servers`, the scheduler facade's
    path, which snapshots their current occupancy).

    Placement/removal return and consume integer VM handles; callers that
    track VMs by id use :meth:`place_vm` / :meth:`remove_vm`, which maintain
    the interned id table.
    """

    def __init__(
        self,
        n_servers: int,
        config: ServerConfig,
        group_of: Optional[Sequence[int]] = None,
        pool_free_gb: Optional[Dict[int, float]] = None,
        server_ids: Optional[Sequence[str]] = None,
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
        self.server_ids: List[str] = (
            list(server_ids) if server_ids is not None
            else [f"server-{i:04d}" for i in range(n_servers)]
        )
        if len(self.server_ids) != n_servers:
            raise ValueError("server_ids must have one entry per server")

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
        #: the caller's (they are mutated in place like the object path);
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

        # -- candidate index (same structure as the indexed scheduler) -------------
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
        #: vm id -> handle, maintained by place_vm/remove_vm only.
        self._handle_of: Dict[str, int] = {}

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

    @classmethod
    def from_servers(
        cls,
        servers: Sequence[ClusterServer],
        pool_free_gb: Optional[Dict[int, float]] = None,
        server_pool_group: Optional[Dict[str, int]] = None,
    ) -> "ArrayPlacementEngine":
        """Snapshot existing servers (with any live placements) into arrays.

        All servers must share one :class:`ServerConfig`: a single bucket
        index assumes uniform capacity (the object path supports heterogeneous
        fleets; use ``engine="object"`` for those).
        """
        if not servers:
            raise ValueError("need at least one server")
        config = servers[0].config
        if any(s.config != config for s in servers):
            raise ValueError(
                "engine='array' requires a homogeneous ServerConfig across "
                "servers; use engine='object' for heterogeneous fleets"
            )
        server_pool_group = server_pool_group or {}
        group_of = [server_pool_group.get(s.server_id, -1) for s in servers]
        engine = cls(
            len(servers), config, group_of=group_of,
            pool_free_gb=pool_free_gb,
            server_ids=[s.server_id for s in servers],
        )
        for idx, server in enumerate(servers):
            for vm_id, placement in server._placements.items():
                engine._adopt(vm_id, idx, *placement)
        return engine

    def _adopt(self, vm_id: str, idx: int, node: int, cores: int,
               local_gb: float, pool_gb: float) -> None:
        """Intern one pre-existing placement (construction-time only)."""
        base = idx * self.sockets + node
        self.node_used_cores[base] += cores
        self.node_used_gb[base] += local_gb
        self.used_cores_srv[idx] += cores
        new_gb = self.used_gb_srv[idx] + local_gb
        self.used_gb_srv[idx] = new_gb
        self.pool_used_srv[idx] += pool_gb
        if new_gb > self.peak_local_gb[idx]:
            self.peak_local_gb[idx] = new_gb
        if self.pool_used_srv[idx] > self.peak_pool_gb[idx]:
            self.peak_pool_gb[idx] = self.pool_used_srv[idx]
        group = self.group_of[idx]
        if group >= 0 and pool_gb > 0:
            self.pool_used_gb[group] = self.pool_used_gb.get(group, 0.0) + pool_gb
        self.used_cores += cores
        self.used_local_gb += local_gb
        self.running_vms += 1
        self._reindex(idx)
        self.stranded_gb = sum(
            (self.server_total_dram_gb - self.used_gb_srv[i])
            for i in range(self.n_servers)
            if self.used_cores_srv[i] >= self.server_total_cores
        )
        self._handle_of[vm_id] = self._new_handle(idx, node, cores, local_gb, pool_gb)

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

    def _reindex(self, idx: int) -> None:
        key = self._bucket_key[idx]
        new_key = (
            self.server_total_cores - self.used_cores_srv[idx],
            self.server_total_dram_gb - self.used_gb_srv[idx],
        )
        if new_key == key:
            return
        bucket = self._buckets[key[0]]
        pos = bisect_left(bucket, (key[1], idx))
        del bucket[pos]
        insort(self._buckets[new_key[0]], (new_key[1], idx))
        self._bucket_key[idx] = new_key

    # -- selection ---------------------------------------------------------------------
    def select(self, cores: int, local_gb: float, pool_gb: float) -> int:
        """Best-fit server index for the request, or -1 when nothing fits.

        Walks the free-core buckets upwards exactly like the indexed
        scheduler's ``_select_indexed`` (same tie-breaks, same pool and NUMA
        feasibility checks), so decisions match the object path bit-for-bit.
        """
        node_cores = self.node_used_cores
        node_gb = self.node_used_gb
        sockets = self.sockets
        cores_limit = self.cores_per_socket - cores
        gb_limit = self.dram_per_socket_gb - local_gb + 1e-9
        need_pool = pool_gb > 0
        group_of = self.group_of
        pool_free = self.pool_free_gb
        for free in range(cores, len(self._buckets)):
            for _, idx in self._buckets[free]:
                if need_pool:
                    group = group_of[idx]
                    avail = pool_free.get(group, 0.0) if group >= 0 else 0.0
                    if pool_gb > avail + 1e-9:
                        continue
                base = idx * sockets
                best_used = -1
                for node in range(sockets):
                    used = node_cores[base + node]
                    if (used <= cores_limit and used > best_used
                            and node_gb[base + node] <= gb_limit):
                        best_used = used
                if best_used >= 0:
                    return idx
        return -1

    def _find_node(self, idx: int, cores: int, local_gb: float) -> int:
        """Fullest NUMA node of ``idx`` that fits (mirrors ``find_numa_node``)."""
        node_cores = self.node_used_cores
        node_gb = self.node_used_gb
        base = idx * self.sockets
        cores_limit = self.cores_per_socket - cores
        gb_limit = self.dram_per_socket_gb - local_gb + 1e-9
        best_node = -1
        best_used = -1
        for node in range(self.sockets):
            used = node_cores[base + node]
            if (used <= cores_limit and used > best_used
                    and node_gb[base + node] <= gb_limit):
                best_node = node
                best_used = used
        return best_node

    # -- placement ---------------------------------------------------------------------
    def place(self, cores: int, local_gb: float, pool_gb: float) -> int:
        """Select + commit; returns the VM handle, or -1 when nothing fits.

        Replays the object path's arithmetic operation-for-operation
        (scheduler aggregates, per-server usage, peaks, pool free/used/peak)
        so all downstream floats are byte-identical.  Raises
        :class:`~repro.cluster.scheduler.PlacementError` for the object
        path's group-less pool request corner (including its peak side
        effect: the transient placement's peaks survive the rollback).
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

        # -- commit: same mutation order and arithmetic as ClusterServer.place
        # + VMScheduler.place -------------------------------------------------
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
                # Object path: server.place succeeded, the group lookup failed,
                # server.remove rolled usage back -- but not the peaks.
                from repro.cluster.scheduler import PlacementError

                node_cores[pos] -= cores
                node_gb[pos] -= local_gb
                used_cores_srv[sidx] = new_cores - cores
                used_gb_srv[sidx] = new_gb - local_gb
                pool_used_srv[sidx] -= pool_gb
                error = PlacementError(
                    f"server {self.server_ids[sidx]} is not in any pool group "
                    f"but {pool_gb:.1f} GB of pool memory was requested"
                )
                # The scheduler facade mirrors the transient placement onto
                # the ClusterServer object; tell it which server was touched.
                error.server_index = sidx
                raise error
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

        # -- reindex (same bucket arithmetic as _reindex, inlined) -----------
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

        Mirrors the object simulator's departure sequence: pool-used
        decrement with negative-drift clamping, pool free return, usage and
        aggregate decrements, stranding delta, reindex.
        """
        sidx = self.vm_server[handle]
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

    # -- id-addressed API (scheduler facade) ---------------------------------------------
    def place_vm(self, vm_id: str, cores: int, local_gb: float,
                 pool_gb: float) -> int:
        """Place by vm id; returns the server index.  Raises on no fit."""
        from repro.cluster.scheduler import PlacementError

        if vm_id in self._handle_of:
            raise ValueError(f"VM {vm_id!r} already placed")
        handle = self.place(cores, local_gb, pool_gb)
        if handle < 0:
            raise PlacementError(
                f"no server fits {cores} cores, {local_gb:.1f} GB local, "
                f"{pool_gb:.1f} GB pool"
            )
        self._handle_of[vm_id] = handle
        return self.vm_server[handle]

    def placed_on(self, vm_id: str) -> int:
        """Server index a vm id is placed on, or -1 when unknown."""
        handle = self._handle_of.get(vm_id)
        return self.vm_server[handle] if handle is not None else -1

    def remove_vm(self, vm_id: str) -> int:
        """Remove by vm id; returns the server index it ran on."""
        handle = self._handle_of.pop(vm_id, None)
        if handle is None:
            raise KeyError(f"no VM {vm_id!r} placed")
        sidx = self.vm_server[handle]
        self.remove(handle)
        return sidx

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
