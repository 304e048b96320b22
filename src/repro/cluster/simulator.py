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

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

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
) -> Iterator[Tuple[object, List[float]]]:
    """Normalise a trace input into ``(block, pool_allocations)`` pairs.

    ``block`` is the columnar carrier (the trace itself, or one
    :class:`TraceColumns` chunk); the replay loops read its replay columns
    (:func:`block_replay_columns`) instead of touching record objects.

    A materialised trace is one block (its own, read through
    :meth:`ClusterTrace.columns`); a stream yields one block per chunk, with the policy evaluated
    per chunk so at most one chunk's allocations exist at a time.

    ``pool_allocations`` holds one plain float per VM: ``decide_batch``
    output, or the per-record callback's return converted with ``float()``,
    clipped to ``[0, memory_gb]``; zeros without a pool or policy.  Only a
    per-record callback reads a chunk's records, so a stream of
    columns-only chunks replays under any other policy.  Every replay
    resolves allocations here, so materialised and streamed replays
    cannot drift apart (the byte-for-byte equivalence contract).
    ``float()`` comes before the clip so a callback returning a numpy
    scalar (say ``np.float32``) is clipped in float64, never rounded back
    to its own precision.
    """

    def resolve(block, records, memory_gb) -> List[float]:
        n = len(block)
        if not use_pool or policy is None:
            return [0.0] * n
        if hasattr(policy, "decide_batch"):
            decided = np.asarray(policy.decide_batch(block), dtype=np.float64)
            if decided.shape != (n,):
                raise ValueError(
                    f"decide_batch must return one entry per record "
                    f"({n}), got shape {decided.shape}"
                )
        else:
            decided = np.fromiter((float(policy(r)) for r in records()),
                                  dtype=np.float64, count=n)
        return np.clip(decided, 0.0, memory_gb()).tolist()

    if isinstance(trace, ClusterTrace):
        yield trace, resolve(trace, lambda: trace.records,
                             lambda: trace.columns().memory_gb)
        return
    for chunk in trace.chunks():
        yield chunk, resolve(
            chunk, lambda: chunk.require_records("a per-record policy"),
            lambda: chunk.memory_gb)


def block_replay_columns(block):
    """(vm_ids, arrival, departure, cores, memory) of one block.

    The four numeric columns are numpy arrays: the block's replay columns
    when it has them, otherwise built from its record objects (a hand-built
    :class:`TraceColumns` without replay columns).  Either way ``tolist``
    yields values bit-identical to the record attributes.
    """
    if isinstance(block, ClusterTrace):
        block = block.columns()
    if block.arrival_s is not None:
        return (block.vm_ids, block.arrival_s, block.departure_s,
                block.cores, block.memory_gb)
    records = block.require_records("a block without replay columns")
    return (
        block.vm_ids,
        np.array([r.arrival_s for r in records], dtype=np.float64),
        np.array([r.departure_s for r in records], dtype=np.float64),
        np.array([r.cores for r in records], dtype=np.int64),
        np.array([r.memory_gb for r in records], dtype=np.float64),
    )


def active_controls(
    online: Optional[OnlineControlConfig],
    faults: Optional[FaultSchedule],
) -> Tuple[Optional[OnlineControlConfig], Optional[FaultSchedule]]:
    """The control stages a replay has to run, with the "off" ones dropped.

    Disabled mitigation (threshold ``inf``) and a fault schedule without
    events change nothing a replay computes, so both become ``None`` and
    the replay builds no control hooks, like a static one.  Shared by :meth:`ClusterSimulator.run` and the
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
    hooks attach when no tick or fault event does any work.
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

        The replay is a one-shard fleet: one
        :func:`~repro.cluster.pool_topology.replay_crossshard` call over
        ``PoolTopology.per_shard([n_servers], ...)`` (unpooled when
        ``pool_size_sockets`` is 0), which runs every replay -- static,
        online or faulted; materialised traces in fixed-size slices,
        streams one chunk at a time -- on its one loop, with the controls
        as cold hooks.  Static replays are differential-tested byte for
        byte against a brute-force reference replay
        (``tests/reference_replay.py``); controlled replays against pinned
        fixtures.

        ``online`` activates the online QoS/mitigation stage: after every
        grid sample a QoS tick scans live pool-exposed VMs whose estimated
        slowdown exceeds the configured threshold and migrates their pool
        share to local DRAM (see DESIGN.md section 10).

        ``faults`` activates deterministic EMC fault injection: a
        :class:`~repro.cluster.faults.FaultSchedule` fires timed
        fail/repair events for pool groups on the replay's fault
        timeline, degrading the group ledger and running the degradation
        ladder over affected VMs (DESIGN.md section 11).  Impact accounting
        lands on ``result.fault_stats``.  An unpooled cluster has no groups
        to fail, so a schedule with events raises ``ValueError``.

        Switched "off" -- mitigation disabled
        (``qos_threshold_percent=inf``) or a schedule without events -- a
        stage is dropped before the replay (:func:`active_controls`), so
        the replay costs what a static replay costs; the result is
        byte-identical to the static replay and still carries zeroed
        ``online_stats`` / ``fault_stats``.
        """
        # pool_topology builds on this module, so import it lazily.
        from repro.cluster.pool_topology import PoolTopology, replay_crossshard
        topology = PoolTopology.per_shard(
            [self.n_servers], self.server_config.sockets,
            self.pool_size_sockets)
        results, _ledger = replay_crossshard(
            [trace], [policy],
            [self.n_servers], [self.server_config], topology,
            self.pool_capacity_gb_per_group, self.constrain_memory,
            self.sample_interval_s, self.record_placements,
            online=online, faults=faults)
        return results[0]
