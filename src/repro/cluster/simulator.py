"""Event-driven cluster simulator.

The simulator replays a VM trace against a cluster of servers, mirroring the
paper's evaluation methodology: "The simulator implements different memory
allocation policies and tracks each server and each pool's memory capacity at
second accuracy" (Section 6.1).

Two usage modes matter:

* **Stranding analysis** (Figure 2): memory-constrained placement with no
  pool; the simulator samples core utilisation and stranded memory over time.
* **Pool dimensioning** (Figures 3 and 21): placement constrained by cores
  (memory effectively unconstrained), with a per-VM allocation policy deciding
  how much of each VM's memory goes to the pool.  The per-server local peaks
  and per-pool-group peaks then give the DRAM that *would have to be
  provisioned* under that policy, which is how DRAM savings are computed.

The main loop consumes one merged, time-ordered stream of arrival, departure,
and sample events.  At equal timestamps the order is departures, then the
sample, then the arrival: a snapshot at time *t* therefore reflects exactly
the VMs running at *t* (departures up to and including *t* applied, arrivals
at *t* not yet placed), which VM traces with millions of events rely on for
correct time series.  The one exception is the final horizon sample, which is
taken after every arrival has been placed so it captures the cluster's true
end state.  Samples are stored in preallocated numpy columns rather
than per-sample objects so multi-year traces sample cheaply.

Pool allocations come from the batch policy engine: policies exposing
``decide_batch`` (see DESIGN.md) are evaluated once per block as a
vectorized array, so the hot loop never calls back into Python per VM.
Plain per-record callables remain supported.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.engine import ArrayPlacementEngine
from repro.cluster.faults import FaultImpactStats, FaultSchedule
from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace, TraceStream, VMTraceRecord
from repro.core.control_plane.online import (  # noqa: F401
    OnlineControlConfig,
    OnlineControlStats,
    # perfbench/layers.py patches this name on this module to count
    # slowdown estimates, so it stays importable from here.
    estimate_slowdown_batch,
)

__all__ = [
    "ClusterSimulator",
    "SimulationResult",
    "SimulationSample",
    "iter_policy_blocks",
    "block_replay_columns",
    "effective_server_config",
    "active_controls",
    "attach_control_stats",
]

#: A policy maps a trace record to the GB of the VM's memory placed on the pool.
PoolPolicy = Callable[[VMTraceRecord], float]

#: ``ClusterSimulator.run`` replays either a materialised trace or a stream.
TraceInput = Union[ClusterTrace, TraceStream]

#: Calendar-queue window for the array loop's departure events.  Purely a
#: performance knob (the processing order is (time, seq) regardless); one
#: hour keeps bins in the thousands of events at fleet scale.
_DEPARTURE_BIN_S = 3600.0

#: Column order of the sample buffer; must match SimulationSample's fields.
_SAMPLE_COLUMNS = (
    "time_s",
    "core_utilization",
    "scheduled_cores_percent",
    "used_local_gb",
    "used_pool_gb",
    "stranded_gb",
    "stranded_percent",
    "running_vms",
)


@dataclass(frozen=True)
class SimulationSample:
    """One periodic snapshot of cluster state."""

    time_s: float
    core_utilization: float
    scheduled_cores_percent: float
    used_local_gb: float
    used_pool_gb: float
    stranded_gb: float
    stranded_percent: float
    running_vms: int


class SampleBuffer:
    """Preallocated columnar storage for simulation samples.

    Appending writes one row into a (capacity, n_columns) float array that
    doubles when full, so recording a sample is O(1) with no per-sample object
    allocation.  Columns are exposed as numpy views.
    """

    def __init__(self, initial_capacity: int = 256) -> None:
        if initial_capacity < 1:
            raise ValueError("initial capacity must be >= 1")
        self._data = np.empty((initial_capacity, len(_SAMPLE_COLUMNS)), dtype=np.float64)
        self._count = 0
        self._version = 0

    def __len__(self) -> int:
        return self._count

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every append or drop.

        Consumers caching derived views (``SimulationResult.samples``) key
        their cache on this, not on ``len``: a ``drop_last`` followed by an
        ``append_row`` changes the contents without changing the length.
        """
        return self._version

    def append_row(self, row: Sequence[float]) -> None:
        if self._count == self._data.shape[0]:
            grown = np.empty((2 * self._data.shape[0], self._data.shape[1]),
                             dtype=np.float64)
            grown[: self._count] = self._data
            self._data = grown
        self._data[self._count] = row
        self._count += 1
        self._version += 1

    def drop_last(self) -> None:
        if self._count < 1:
            raise IndexError("no samples to drop")
        self._count -= 1
        self._version += 1

    def column(self, name: str) -> np.ndarray:
        try:
            col = _SAMPLE_COLUMNS.index(name)
        except ValueError:
            raise AttributeError(f"unknown sample attribute {name!r}") from None
        return self._data[: self._count, col]

    def rows(self) -> np.ndarray:
        return self._data[: self._count]


@dataclass
class SimulationResult:
    """Output of one simulation run."""

    sample_buffer: SampleBuffer = field(default_factory=SampleBuffer)
    server_peak_local_gb: Dict[str, float] = field(default_factory=dict)
    server_peak_total_gb: Dict[str, float] = field(default_factory=dict)
    pool_peak_gb: Dict[int, float] = field(default_factory=dict)
    placed_vms: int = 0
    rejected_vms: int = 0
    total_pool_gb_allocated: float = 0.0
    total_memory_gb_allocated: float = 0.0
    #: Accounting of the online QoS/mitigation stage; ``None`` for static
    #: replays.  Excluded from equality so an online replay with mitigation
    #: disabled compares equal to the static replay it must reproduce.
    online_stats: Optional[OnlineControlStats] = field(
        default=None, repr=False, compare=False
    )
    #: Accounting of EMC fault injection (``faults=...``); ``None`` for
    #: fault-free replays.  Excluded from equality so a replay with an
    #: empty schedule compares equal to the static replay it reproduces.
    fault_stats: Optional[FaultImpactStats] = field(
        default=None, repr=False, compare=False
    )
    _samples_cache: Optional[List[SimulationSample]] = field(
        default=None, repr=False, compare=False
    )
    #: Buffer version the cache was built from (see SampleBuffer.version);
    #: -1 means "never built".  Length alone is not a valid key: dropping a
    #: row and appending a different one keeps the count but changes content.
    _samples_cache_version: int = field(default=-1, repr=False, compare=False)
    #: Columnar placement log (replay loops): placed vm ids + server indices
    #: into ``_placement_server_ids``.  ``placements`` materialises the dict
    #: view lazily, so recording a placement in the hot loop is two list
    #: appends instead of a string-keyed dict insert.
    _placed_vm_ids: Optional[List[str]] = field(
        default=None, repr=False, compare=False
    )
    _placed_server_idx: Optional[List[int]] = field(
        default=None, repr=False, compare=False
    )
    _placement_server_ids: Optional[List[str]] = field(
        default=None, repr=False, compare=False
    )
    _placements_dict: Optional[Dict[str, str]] = field(
        default=None, repr=False, compare=False
    )

    # -- placements --------------------------------------------------------------
    @property
    def placements(self) -> Dict[str, str]:
        """vm_id -> server_id for every placed VM (differential-testing hook).

        Built lazily from the columnar placement log when a replay loop
        recorded it; a plain (mutable) dict otherwise.  Repeated placements of
        the same vm id keep the last server, like a direct dict insert would.
        """
        if self._placements_dict is None:
            if self._placed_vm_ids is not None:
                server_ids = self._placement_server_ids
                self._placements_dict = {
                    vm_id: server_ids[idx]
                    for vm_id, idx in zip(
                        self._placed_vm_ids, self._placed_server_idx
                    )
                }
            else:
                self._placements_dict = {}
        return self._placements_dict

    # -- sample access -----------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self.sample_buffer)

    @property
    def samples(self) -> List[SimulationSample]:
        """Materialised per-sample view (compatibility with older callers).

        The list is built lazily from the columnar buffer and cached; the
        cache is invalidated by any buffer mutation, so repeated access after
        a run costs nothing beyond the first call.
        """
        if (self._samples_cache is not None
                and self._samples_cache_version == self.sample_buffer.version):
            return self._samples_cache
        self._samples_cache_version = self.sample_buffer.version
        rows = self.sample_buffer.rows()
        self._samples_cache = [
            SimulationSample(
                time_s=float(r[0]),
                core_utilization=float(r[1]),
                scheduled_cores_percent=float(r[2]),
                used_local_gb=float(r[3]),
                used_pool_gb=float(r[4]),
                stranded_gb=float(r[5]),
                stranded_percent=float(r[6]),
                running_vms=int(r[7]),
            )
            for r in rows
        ]
        return self._samples_cache

    def sample_array(self, attribute: str) -> np.ndarray:
        column = self.sample_buffer.column(attribute)
        if attribute == "running_vms":
            return column.astype(np.int64)
        return column.copy()

    # -- aggregate views ---------------------------------------------------------
    @property
    def required_local_dram_gb(self) -> float:
        """DRAM that must be provisioned across servers (sum of local peaks)."""
        return float(sum(self.server_peak_local_gb.values()))

    @property
    def required_pool_dram_gb(self) -> float:
        """DRAM that must be provisioned across pools (sum of pool peaks)."""
        return float(sum(self.pool_peak_gb.values()))

    @property
    def required_total_dram_gb(self) -> float:
        return self.required_local_dram_gb + self.required_pool_dram_gb

    @property
    def uniform_required_local_dram_gb(self) -> float:
        """Local DRAM when every server is provisioned identically.

        Servers are bought with one DRAM configuration, so without pooling the
        fleet must size *every* server for the worst per-server peak it might
        see -- which is exactly why the average server strands memory.  This
        is the provisioning model behind the paper's Figures 3 and 21.
        """
        if not self.server_peak_local_gb:
            return 0.0
        return float(len(self.server_peak_local_gb) * max(self.server_peak_local_gb.values()))

    @property
    def uniform_required_total_dram_gb(self) -> float:
        """Uniform per-server provisioning plus per-pool peaks."""
        return self.uniform_required_local_dram_gb + self.required_pool_dram_gb

    @property
    def average_pool_fraction(self) -> float:
        """Average fraction of allocated VM memory placed on pools."""
        if self.total_memory_gb_allocated <= 0:
            return 0.0
        return self.total_pool_gb_allocated / self.total_memory_gb_allocated


def effective_server_config(config: ServerConfig,
                            constrain_memory: bool) -> ServerConfig:
    """The replayed server shape (unconstrained replays get huge DRAM).

    Shared by :class:`ClusterSimulator` and the cross-shard fleet replay so
    memory-unconstrained engines are built byte-identically on both paths.
    """
    if constrain_memory:
        return config
    # Memory-unconstrained placement: provision servers with effectively
    # unlimited DRAM so the peak-tracking determines requirements.
    return ServerConfig(
        name=config.name + "-unconstrained",
        sockets=config.sockets,
        cores_per_socket=config.cores_per_socket,
        dram_per_socket_gb=1e9,
    )


def iter_policy_blocks(
    trace: TraceInput,
    policy: Optional[PoolPolicy],
    use_pool: bool,
) -> Iterator[Tuple[object, Sequence[VMTraceRecord], Optional[List[float]]]]:
    """Normalise a trace input into ``(block, records, pool_allocations)``.

    ``block`` is the columnar carrier (the trace itself, or one
    :class:`TraceColumns` chunk); the array-engine loops read its replay
    columns instead of touching record objects.

    A materialised trace is one block (its columnar view is cached on the
    trace); a stream yields one block per chunk, with ``decide_batch``
    evaluated per chunk so at most one chunk's allocations exist at a time.
    ``decide_batch`` allocations are clipped to ``[0, memory_gb]``; blocks
    without them return ``None`` and fall back to the per-record ``policy``
    callback in the replay loop.

    Shared by :meth:`ClusterSimulator.run` and the cross-shard fleet replay
    (:mod:`repro.cluster.pool_topology`), so both resolve allocations with
    identical arithmetic.
    """
    batch = use_pool and policy is not None and hasattr(policy, "decide_batch")

    def resolve(block, n, memory_gb) -> Optional[List[float]]:
        """One block's clipped ``decide_batch`` output, or ``None``
        (per-record callback or no pool).  Single definition so the
        materialised and streamed paths cannot drift apart (the
        byte-for-byte equivalence contract).  ``tolist()`` yields plain
        floats once, keeping the replay loop free of per-record numpy
        scalar boxing."""
        if not batch:
            return None
        decided = np.asarray(policy.decide_batch(block), dtype=np.float64)
        if decided.shape != (n,):
            raise ValueError(
                f"decide_batch must return one entry per record "
                f"({n}), got shape {decided.shape}"
            )
        return np.clip(decided, 0.0, memory_gb()).tolist()

    if isinstance(trace, ClusterTrace):
        yield trace, trace.records, resolve(
            trace, len(trace), lambda: trace.columns().memory_gb
        )
        return
    for chunk in trace.chunks():
        records = chunk.records
        if records is None:
            raise ValueError(
                "stream chunks must carry records "
                "(build them with TraceColumns.from_records)"
            )
        yield chunk, records, resolve(
            chunk, len(records), lambda: chunk.memory_gb)


def block_replay_columns(block, records):
    """(vm_ids, arrival, departure, cores, memory) lists for one block.

    Prefers the block's replay columns (``tolist`` converts to plain
    Python scalars at C speed); falls back to reading the record objects
    for hand-built :class:`TraceColumns` without them.  Either way the
    values are bit-identical to the record attributes.
    """
    if isinstance(block, ClusterTrace):
        block = block.columns()
        vm_ids = block.vm_ids
    else:
        vm_ids = block.vm_ids
    if block.arrival_s is not None:
        return (
            vm_ids,
            block.arrival_s.tolist(),
            block.departure_s.tolist(),
            block.cores.tolist(),
            block.memory_gb.tolist(),
        )
    return (
        vm_ids,
        [r.arrival_s for r in records],
        [r.departure_s for r in records],
        [r.cores for r in records],
        [r.memory_gb for r in records],
    )


def active_controls(
    online: Optional[OnlineControlConfig],
    faults: Optional[FaultSchedule],
) -> Tuple[Optional[OnlineControlConfig], Optional[FaultSchedule]]:
    """The control stages a replay has to run, with the "off" ones dropped.

    Disabled mitigation (threshold ``inf``) and a fault schedule without
    events change nothing a replay computes, so both become ``None`` and
    the replay dispatches like a static one -- onto the inlined loops when
    its inputs allow.  Shared by :meth:`ClusterSimulator.run` and the
    cross-shard fleet replay; pair it with :func:`attach_control_stats`.
    """
    if online is not None and not online.mitigation_enabled:
        online = None
    if faults is not None and not faults.events:
        faults = None
    return online, faults


def attach_control_stats(
    results: Sequence["SimulationResult"],
    online: Optional[OnlineControlConfig],
    faults: Optional[FaultSchedule],
) -> None:
    """Give each result the stats its caller's switches promise.

    A replay whose switches :func:`active_controls` dropped still reports a
    zeroed ``online_stats`` / ``fault_stats`` -- exactly what the control
    loops attach when no tick or fault event does any work.
    """
    for result in results:
        if online is not None and result.online_stats is None:
            result.online_stats = OnlineControlStats()
        if faults is not None and result.fault_stats is None:
            result.fault_stats = FaultImpactStats()


class ClusterSimulator:
    """Replays one cluster trace against a simulated cluster."""

    def __init__(
        self,
        n_servers: int,
        server_config: Optional[ServerConfig] = None,
        pool_size_sockets: int = 0,
        pool_capacity_gb_per_group: float = float("inf"),
        constrain_memory: bool = True,
        sample_interval_s: float = 3600.0,
        record_placements: bool = True,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        if pool_size_sockets < 0:
            raise ValueError("pool size cannot be negative")
        self.server_config = server_config or ServerConfig()
        if pool_size_sockets and pool_size_sockets % self.server_config.sockets != 0:
            raise ValueError(
                "pool_size_sockets must be a multiple of the server socket count"
            )
        self.n_servers = n_servers
        self.pool_size_sockets = pool_size_sockets
        self.pool_capacity_gb_per_group = pool_capacity_gb_per_group
        self.constrain_memory = constrain_memory
        self.sample_interval_s = sample_interval_s
        #: Recording vm_id -> server_id costs one dict insert per placement
        #: (and O(n_vms) memory); searches that never read it can turn it off.
        self.record_placements = record_placements

    # -- construction of the simulated cluster -----------------------------------
    def _effective_config(self) -> ServerConfig:
        """The replayed server shape (unconstrained replays get huge DRAM)."""
        return effective_server_config(self.server_config, self.constrain_memory)

    # -- main loop --------------------------------------------------------------------
    def run(self, trace: TraceInput, policy: Optional[PoolPolicy] = None,
            online: Optional[OnlineControlConfig] = None,
            faults: Optional[FaultSchedule] = None) -> SimulationResult:
        """Replay ``trace``; ``policy`` decides each VM's pool memory in GB.

        ``trace`` is either a materialised :class:`ClusterTrace` or a
        :class:`~repro.cluster.trace.TraceStream`.  Streams are replayed one
        chunk at a time -- batch policies are evaluated per chunk -- so peak
        trace memory is O(chunk + live VMs) on the simulator side -- a
        ``GeneratedTraceStream`` additionally buffers one generation window
        internally -- instead of O(trace); the result
        is identical to replaying the materialised trace (the batch policy
        contract keys every decision on the VM id, not on batch boundaries).

        Policies exposing ``decide_batch`` are evaluated once per block into
        an allocation array, so the hot loop never calls back into Python
        per VM; plain per-record callables remain supported.  Allocations
        are clipped to ``[0, memory_gb]`` on both paths.

        The sampling window ends at the last VM arrival, so long-lived VMs
        departing far in the future do not dilute the time series with an
        emptying cluster.

        The replay runs on the struct-of-arrays placement engine
        (:mod:`repro.cluster.engine`) and takes one of two targets:

        * static streams and degenerate static traces (zero/negative
          lifetimes, zero-core VMs) run on the calendar-queue loop
          (:meth:`_run_array_calendar`), the fast path for streams;
        * everything else is a one-shard fleet: one
          :func:`~repro.cluster.pool_topology.replay_crossshard` call over
          ``PoolTopology.per_shard([n_servers], ...)`` (unpooled when
          ``pool_size_sockets`` is 0), which sends static materialised
          traces to its inlined loop and online/fault replays to its
          engine-method events loop.

        Static replays on either target are differential-tested byte for
        byte against a brute-force reference replay
        (``tests/reference_replay.py``).

        ``online`` activates the online QoS/mitigation stage: after every
        grid sample a QoS tick scans live pool-exposed VMs whose estimated
        slowdown exceeds the configured threshold and migrates their pool
        share to local DRAM (see DESIGN.md section 10).

        ``faults`` activates deterministic EMC fault injection: a
        :class:`~repro.cluster.faults.FaultSchedule` fires timed
        fail/repair events for pool groups inside the merged event
        stream, degrading the group ledger and running the degradation
        ladder over affected VMs (DESIGN.md section 11).  Impact accounting
        lands on ``result.fault_stats``.  An unpooled cluster has no groups
        to fail, so a schedule with events raises ``ValueError``.

        Switched "off" -- mitigation disabled
        (``qos_threshold_percent=inf``) or a schedule without events -- a
        stage is dropped before dispatch (:func:`active_controls`), so the
        replay costs what a static replay costs; the result is
        byte-identical to the static replay and still carries zeroed
        ``online_stats`` / ``fault_stats``.
        """
        # pool_topology builds on this module, so import it lazily.
        from repro.cluster.pool_topology import (
            PoolTopology,
            _inlinable,
            replay_crossshard,
        )
        if (active_controls(online, faults) == (None, None)
                and not _inlinable([trace], [self.server_config])):
            result = self._run_array_calendar(trace, policy)
            attach_control_stats([result], online, faults)
            return result
        topology = PoolTopology.per_shard(
            [self.n_servers], self.server_config.sockets,
            self.pool_size_sockets)
        results, _ledger = replay_crossshard(
            [trace], [policy if self.pool_size_sockets else None],
            [self.n_servers], [self.server_config], topology,
            self.pool_capacity_gb_per_group, self.constrain_memory,
            self.sample_interval_s, self.record_placements,
            online=online, faults=faults)
        return results[0]

    # -- array-engine hot loop ---------------------------------------------------------
    def _run_array_calendar(self, trace: TraceInput,
                            policy: Optional[PoolPolicy]) -> SimulationResult:
        """:meth:`run` on the struct-of-arrays engine (calendar-queue loop).

        :meth:`run` sends static streams and degenerate static traces here;
        every other array replay is a one-shard ``replay_crossshard``.

        Same merged event stream, same event ordering, same arithmetic as the
        engine's methods -- but the per-event work is fully inlined over local
        bindings of the engine's flat arrays:

        * block columns are bulk-converted to plain Python scalars once per
          block (``tolist``), so the loop never touches record objects;
        * the best-fit bucket walk, the commit, and the departure release
          mirror :meth:`ArrayPlacementEngine.place` / ``remove`` statement
          for statement (two-socket servers get an unrolled NUMA check);
        * placements are logged as columnar (vm id, server index) appends and
          materialised into the ``placements`` dict lazily;
        * departures live in a **calendar queue**: events carry their
          placement data in ``(time, seq, server, node, cores, local_gb,
          pool_gb)`` tuples, binned by coarse time window and Timsorted once
          per bin.  The ``(time, seq)`` prefix is unique, so the bin-by-bin
          order is exactly the order a ``(time, seq)`` heap pops -- at an
          amortised cost per departure far below a heap sift.

        A stranded-memory delta is only computed when a server is full
        before or after the change: a VM with cores needs a free core to be
        placed and frees one when it leaves, so otherwise the delta is
        exactly ``0.0``.  The brute-force reference replay
        (``tests/reference_replay.py``) pins this loop by differential tests.
        """
        use_pool = bool(self.pool_size_sockets)
        streaming = not isinstance(trace, ClusterTrace)
        engine = ArrayPlacementEngine.for_cluster(
            self.n_servers,
            self._effective_config(),
            pool_size_sockets=self.pool_size_sockets,
            pool_capacity_gb_per_group=self.pool_capacity_gb_per_group,
            base_sockets=self.server_config.sockets,
        )
        result = SimulationResult()
        buffer = result.sample_buffer
        append_row = buffer.append_row

        # -- engine state as locals (the whole point of the array path) ------
        node_cores = engine.node_used_cores
        node_gb = engine.node_used_gb
        used_cores_srv = engine.used_cores_srv
        used_gb_srv = engine.used_gb_srv
        pool_used_srv = engine.pool_used_srv
        peak_local = engine.peak_local_gb
        peak_pool = engine.peak_pool_gb
        group_of = engine.group_of
        pool_free = engine.pool_free_gb
        pool_used = engine.pool_used_gb
        pool_peak = engine.pool_peak_by_group
        buckets = engine._buckets
        n_buckets = len(buckets)
        server_ids = engine.server_ids
        sockets = engine.sockets
        two_sockets = sockets == 2
        cores_per_socket = engine.cores_per_socket
        dram_per_socket = engine.dram_per_socket_gb
        stc = engine.server_total_cores
        std = engine.server_total_dram_gb
        pooled = bool(pool_free)

        bisect = bisect_left
        insort_ = insort

        # -- aggregates as plain locals (identical accumulation order) -------
        agg_used_cores = 0
        agg_used_gb = 0.0
        agg_stranded = 0.0
        agg_running = 0
        total_cores = engine.total_cores
        total_dram = self.n_servers * self.server_config.total_dram_gb

        # -- calendar departure queue ----------------------------------------
        # ``dep_bins[b]`` holds unsorted events for time window
        # [b*bin_w, (b+1)*bin_w); ``active`` is the current window, sorted,
        # consumed through ``cursor``.  Same-window pushes insort into the
        # unconsumed tail, so the global processing order is exactly
        # (time, seq) order.
        bin_w = _DEPARTURE_BIN_S
        dep_bins: Dict[int, List[Tuple[float, int, int, int, int, float, float]]] = {}
        active: List[Tuple[float, int, int, int, int, float, float]] = []
        cursor = 0
        active_len = 0
        current_bin = -1
        #: Lower bound on the next departure time (exact when ``active`` has
        #: unconsumed events; the next window start otherwise).
        next_dep_hint = 0.0

        seq = 0
        sample_interval = self.sample_interval_s
        next_sample_time = 0.0
        last_sample_time: Optional[float] = None
        record_placements = self.record_placements
        placed_ids: List[str] = []
        placed_srv: List[int] = []
        append_placed_id = placed_ids.append
        append_placed_srv = placed_srv.append
        placed_vms = 0
        rejected_vms = 0
        total_memory_allocated = 0.0
        total_pool_allocated = 0.0
        inf = float("inf")

        last_arrival = 0.0
        for block, records, allocations in iter_policy_blocks(
            trace, policy, use_pool
        ):
            vm_ids, arrivals, departs, cores_col, memory_col = (
                block_replay_columns(block, records)
            )
            n_block = len(vm_ids)
            if streaming and n_block:
                # Bulk order check per block.
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
            elif n_block:
                last_arrival = arrivals[n_block - 1]
            if allocations is None:
                if policy is not None and use_pool:
                    # Legacy per-record callback, evaluated in record order
                    # (decisions only see the record, so evaluating a block
                    # up front matches interleaved calls).
                    allocations = [
                        float(np.clip(policy(r), 0.0, r.memory_gb))
                        for r in records
                    ]
                else:
                    allocations = [0.0] * n_block

            for vm_id, arrival_s, departure_s, cores_r, memory_gb, vm_pool_gb in zip(
                vm_ids, arrivals, departs, cores_col, memory_col, allocations
            ):
                # -- merged departures/samples up to arrival_s ---------------
                if next_dep_hint <= arrival_s or next_sample_time <= arrival_s:
                    while True:
                        if cursor < active_len:
                            departure_time = active[cursor][0]
                        else:
                            # Refill: step to the next window that can hold a
                            # departure <= min(arrival_s, next_sample_time).
                            departure_time = inf
                            limit = (
                                arrival_s
                                if arrival_s <= next_sample_time
                                else next_sample_time
                            )
                            while True:
                                next_bin = current_bin + 1
                                if next_bin * bin_w > limit:
                                    break
                                current_bin = next_bin
                                pending = dep_bins.pop(next_bin, None)
                                if pending is not None:
                                    pending.sort()
                                    active = pending
                                    active_len = len(pending)
                                    cursor = 0
                                    departure_time = pending[0][0]
                                    break
                        if departure_time <= next_sample_time:
                            if departure_time > arrival_s:
                                next_dep_hint = departure_time
                                break
                            # ---- departure (ArrayPlacementEngine.remove) ---
                            _t, _s, sidx, d_node, d_cores, d_local, d_pool = (
                                active[cursor]
                            )
                            cursor += 1
                            if pooled:
                                group = group_of[sidx]
                                if group >= 0:
                                    remaining = pool_used[group] - d_pool
                                    if remaining < 0.0:
                                        # Clamp tiny negative float drift;
                                        # real imbalances stay loud.
                                        if remaining < -1e-6:
                                            raise RuntimeError(
                                                f"pool group {group} accounting "
                                                f"went negative ({remaining} GB) "
                                                f"-- simulator bug"
                                            )
                                        remaining = 0.0
                                    pool_used[group] = remaining
                                    if d_pool > 0:
                                        pool_free[group] += d_pool
                                    pool_used_srv[sidx] -= d_pool
                            before_cores = used_cores_srv[sidx]
                            old_gb = used_gb_srv[sidx]
                            pos = sidx * sockets + d_node
                            node_cores[pos] -= d_cores
                            node_gb[pos] -= d_local
                            new_cores = before_cores - d_cores
                            used_cores_srv[sidx] = new_cores
                            new_gb = old_gb - d_local
                            used_gb_srv[sidx] = new_gb
                            agg_used_cores -= d_cores
                            agg_used_gb -= d_local
                            if before_cores >= stc:
                                # stranded_after is exactly 0.0 unless a
                                # zero-core VM leaves a full server.
                                agg_stranded += (
                                    std - new_gb if new_cores >= stc else 0.0
                                ) - (std - old_gb)
                            agg_running -= 1
                            # Reindex: free cores always change (cores >= 1);
                            # the old key is recomputed from the exact
                            # pre-update state (same floats as when indexed).
                            bucket = buckets[stc - before_cores]
                            del bucket[bisect(bucket, (std - old_gb, sidx))]
                            insort_(
                                buckets[stc - new_cores], (std - new_gb, sidx)
                            )
                        else:
                            if next_sample_time > arrival_s:
                                if cursor < active_len:
                                    next_dep_hint = active[cursor][0]
                                else:
                                    next_dep_hint = (current_bin + 1) * bin_w
                                break
                            # ---- grid sample -------------------------------
                            stranded = agg_stranded
                            if stranded < 0.0:
                                stranded = 0.0
                            append_row((
                                next_sample_time,
                                agg_used_cores / total_cores,
                                100.0 * agg_used_cores / total_cores,
                                agg_used_gb,
                                sum(pool_used.values()),
                                stranded,
                                100.0 * stranded / total_dram,
                                agg_running,
                            ))
                            last_sample_time = next_sample_time
                            next_sample_time += sample_interval

                local_gb = memory_gb - vm_pool_gb

                # -- best-fit bucket walk (ArrayPlacementEngine.place) -------
                cores_limit = cores_per_socket - cores_r
                gb_limit = dram_per_socket - local_gb + 1e-9
                need_pool = vm_pool_gb > 0
                sidx = -1
                best_node = -1
                base = 0
                for free in range(cores_r, n_buckets):
                    for _key_gb, idx in buckets[free]:
                        if need_pool:
                            group = group_of[idx]
                            avail = pool_free.get(group, 0.0) if group >= 0 else 0.0
                            if vm_pool_gb > avail + 1e-9:
                                continue
                        base = idx * sockets
                        if two_sockets:
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
                        else:
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
                    rejected_vms += 1
                    continue

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
                if need_pool:
                    pool_srv = pool_used_srv[sidx] + vm_pool_gb
                    pool_used_srv[sidx] = pool_srv
                    if pool_srv > peak_pool[sidx]:
                        peak_pool[sidx] = pool_srv
                    # A pooled cluster puts every server in a group.
                    group = group_of[sidx]
                    pool_free[group] -= vm_pool_gb
                    group_used = pool_used[group] + vm_pool_gb
                    pool_used[group] = group_used
                    if group_used > pool_peak[group]:
                        pool_peak[group] = group_used

                agg_used_cores += cores_r
                agg_used_gb += local_gb
                if new_cores >= stc:
                    # stranded_before is exactly 0.0 (the server had a free
                    # core) unless a zero-core VM lands on a full server.
                    agg_stranded += (std - new_gb) - (
                        std - old_gb if before_cores >= stc else 0.0
                    )
                agg_running += 1

                # Reindex: free cores always change (cores >= 1), and the old
                # key is recomputed from the exact pre-update state (the same
                # floats as when the server was last indexed).
                bucket = buckets[stc - before_cores]
                del bucket[bisect(bucket, (std - old_gb, sidx))]
                insort_(buckets[stc - new_cores], (std - new_gb, sidx))

                placed_vms += 1
                if record_placements:
                    append_placed_id(vm_id)
                    append_placed_srv(sidx)
                total_memory_allocated += memory_gb
                total_pool_allocated += vm_pool_gb
                seq += 1
                entry = (
                    departure_s, seq, sidx, best_node, cores_r,
                    local_gb, vm_pool_gb,
                )
                dep_bin = int(departure_s / bin_w)
                if dep_bin > current_bin:
                    pending = dep_bins.get(dep_bin)
                    if pending is None:
                        dep_bins[dep_bin] = [entry]
                    else:
                        pending.append(entry)
                else:
                    # Departure falls into the window being consumed: insert
                    # into the unconsumed tail at its (time, seq) position.
                    insort_(active, entry, cursor)
                    active_len += 1
                if departure_s < next_dep_hint:
                    next_dep_hint = departure_s

        # -- horizon: finish sampling, replace an on-grid horizon sample -----
        end_time = last_arrival
        while True:
            if cursor < active_len:
                departure_time = active[cursor][0]
            else:
                departure_time = inf
                limit = end_time if end_time <= next_sample_time else next_sample_time
                while True:
                    next_bin = current_bin + 1
                    if next_bin * bin_w > limit:
                        break
                    current_bin = next_bin
                    pending = dep_bins.pop(next_bin, None)
                    if pending is not None:
                        pending.sort()
                        active = pending
                        active_len = len(pending)
                        cursor = 0
                        departure_time = pending[0][0]
                        break
            if departure_time <= next_sample_time:
                if departure_time > end_time:
                    break
                entry = active[cursor]
                cursor += 1
                agg_used_cores, agg_used_gb, agg_stranded, agg_running = (
                    self._release_entry(
                        engine, entry, pooled,
                        agg_used_cores, agg_used_gb, agg_stranded, agg_running,
                    )
                )
            else:
                if next_sample_time > end_time:
                    break
                stranded = agg_stranded
                if stranded < 0.0:
                    stranded = 0.0
                append_row((
                    next_sample_time,
                    agg_used_cores / total_cores,
                    100.0 * agg_used_cores / total_cores,
                    agg_used_gb,
                    sum(pool_used.values()),
                    stranded,
                    100.0 * stranded / total_dram,
                    agg_running,
                ))
                last_sample_time = next_sample_time
                next_sample_time += sample_interval
        if last_sample_time is None or last_sample_time <= end_time:
            if last_sample_time is not None and last_sample_time == end_time:
                buffer.drop_last()
            stranded = agg_stranded
            if stranded < 0.0:
                stranded = 0.0
            append_row((
                end_time,
                agg_used_cores / total_cores,
                100.0 * agg_used_cores / total_cores,
                agg_used_gb,
                sum(pool_used.values()),
                stranded,
                100.0 * stranded / total_dram,
                agg_running,
            ))
        # Drain: remaining windows in time order (bin order, sorted per bin).
        while True:
            for index in range(cursor, active_len):
                agg_used_cores, agg_used_gb, agg_stranded, agg_running = (
                    self._release_entry(
                        engine, active[index], pooled,
                        agg_used_cores, agg_used_gb, agg_stranded, agg_running,
                    )
                )
            if not dep_bins:
                break
            next_bin = min(dep_bins)
            pending = dep_bins.pop(next_bin)
            pending.sort()
            active = pending
            active_len = len(pending)
            cursor = 0
            current_bin = next_bin

        # Hand the mutated aggregates and bucket keys back to the engine so
        # its state stays coherent for callers inspecting it after the run.
        engine.used_cores = agg_used_cores
        engine.used_local_gb = agg_used_gb
        engine.stranded_gb = agg_stranded
        engine.running_vms = agg_running
        engine._bucket_key = [
            (stc - cores, std - gb)
            for cores, gb in zip(used_cores_srv, used_gb_srv)
        ]

        result.placed_vms = placed_vms
        result.rejected_vms = rejected_vms
        result.total_memory_gb_allocated = total_memory_allocated
        result.total_pool_gb_allocated = total_pool_allocated
        if record_placements:
            result._placed_vm_ids = placed_ids
            result._placed_server_idx = placed_srv
            result._placement_server_ids = server_ids
        result.server_peak_local_gb, result.server_peak_total_gb = engine.server_peaks()
        result.pool_peak_gb = dict(engine.pool_peak_by_group)
        return result

    @staticmethod
    def _release_entry(engine, entry, pooled, agg_used_cores, agg_used_gb,
                       agg_stranded, agg_running):
        """Release one departure-heap entry (the non-hot removal sites).

        Same statements as the inlined departure block in
        :meth:`_run_array_calendar` (which handles the per-arrival hot
        path); used for the horizon advance and the end-of-run drain, where
        call overhead is irrelevant.  Returns the updated aggregate tuple.
        """
        _t, _s, sidx, d_node, d_cores, d_local, d_pool = entry
        if pooled:
            group = engine.group_of[sidx]
            if group >= 0:
                pool_used = engine.pool_used_gb
                remaining = pool_used[group] - d_pool
                if remaining < 0.0:
                    if remaining < -1e-6:
                        raise RuntimeError(
                            f"pool group {group} accounting went negative "
                            f"({remaining} GB) -- simulator bug"
                        )
                    remaining = 0.0
                pool_used[group] = remaining
                if d_pool > 0:
                    engine.pool_free_gb[group] += d_pool
                engine.pool_used_srv[sidx] -= d_pool
        used_cores_srv = engine.used_cores_srv
        used_gb_srv = engine.used_gb_srv
        stc = engine.server_total_cores
        std = engine.server_total_dram_gb
        before_cores = used_cores_srv[sidx]
        old_gb = used_gb_srv[sidx]
        pos = sidx * engine.sockets + d_node
        engine.node_used_cores[pos] -= d_cores
        engine.node_used_gb[pos] -= d_local
        new_cores = before_cores - d_cores
        used_cores_srv[sidx] = new_cores
        new_gb = old_gb - d_local
        used_gb_srv[sidx] = new_gb
        agg_used_cores -= d_cores
        agg_used_gb -= d_local
        if before_cores >= stc:
            agg_stranded += (
                std - new_gb if new_cores >= stc else 0.0
            ) - (std - old_gb)
        agg_running -= 1
        buckets = engine._buckets
        bucket = buckets[stc - before_cores]
        del bucket[bisect_left(bucket, (std - old_gb, sidx))]
        insort(buckets[stc - new_cores], (std - new_gb, sidx))
        return agg_used_cores, agg_used_gb, agg_stranded, agg_running
