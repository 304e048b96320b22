"""Pool dimensioning and DRAM-savings estimation (paper Figures 3 and 21).

The DRAM-savings argument works as follows.  Servers are deployed with one
uniform DRAM configuration, so without pooling the fleet must size *every*
server so that the VM schedule still fits -- and because VM mixes differ
across servers, the average server then strands the difference.  With
pooling, a share of every VM's memory (fixed or predicted by Pond) is served
from a pool shared by ``pool_size_sockets`` sockets; servers can be
provisioned with less local DRAM, and each pool absorbs the per-server
deviations.  The bigger the pool, the better the statistical multiplexing,
with diminishing returns (Figure 3).

Following the paper's methodology ("the simulator ... schedules VMs on the
same nodes as in the trace and changes their memory allocation to match the
policy; for rare cases where a VM does not fit on a server, the simulator
moves the VMs to another server"), the *required* DRAM is found by a
capacity search: the smallest uniform per-server DRAM such that the
memory-constrained replay of the trace still places (almost) every VM, given
a pool provisioned from the observed per-group demand.  A faster
peak-observation mode is kept for ablations.
"""

from __future__ import annotations

import copy
import functools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.simulator import ClusterSimulator, PoolPolicy, SimulationResult
from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace, TraceColumns, VMTraceRecord
from repro.core.counters import Counters

__all__ = [
    "PoolSavings",
    "PoolDimensioner",
    "FixedFractionPolicy",
    "fixed_fraction_policy",
    "uniform_pool_requirement_gb",
    "capacity_candidate_config",
    "SpeculationStats",
]


class FixedFractionPolicy:
    """Policy allocating a fixed fraction of every VM's memory on the pool.

    Stateless (no stats, no randomness), so the batch and per-record paths
    agree trivially; used by the Figure 3 sweeps and as the simplest example
    of the batch policy contract (DESIGN.md).
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction

    def __call__(self, record: VMTraceRecord) -> float:
        return record.memory_gb * self.fraction

    def decide_batch(self, trace):
        """Batch path for a trace, a streamed chunk, or a record sequence."""
        if isinstance(trace, ClusterTrace):
            memory_gb = trace.columns().memory_gb
        elif isinstance(trace, TraceColumns):
            memory_gb = trace.memory_gb
        else:
            records = list(trace)
            memory_gb = np.fromiter(
                (r.memory_gb for r in records), np.float64, len(records)
            )
        return memory_gb * self.fraction


def fixed_fraction_policy(fraction: float) -> FixedFractionPolicy:
    """Backwards-compatible constructor for :class:`FixedFractionPolicy`."""
    return FixedFractionPolicy(fraction)


def capacity_candidate_config(base: ServerConfig,
                              dram_per_server_gb: float) -> ServerConfig:
    """Server config for one capacity-search candidate DRAM size (the
    servers every probe of that candidate replays on)."""
    return ServerConfig(
        name="search-candidate",
        sockets=base.sockets,
        cores_per_socket=base.cores_per_socket,
        dram_per_socket_gb=max(1.0, dram_per_server_gb / base.sockets),
    )


def uniform_pool_requirement_gb(
    result: SimulationResult,
    pool_size_sockets: int,
    sockets_per_server: int,
    n_servers: int,
) -> float:
    """Uniform pool provisioning from observed per-group peaks, per server.

    Pool blades are deployed with one capacity per attached server, so the
    requirement is the worst per-server pool demand across groups times the
    number of servers.  Normalising per server keeps the answer meaningful
    when the last pool group has fewer servers than the others.
    """
    if not result.pool_peak_gb:
        return 0.0
    servers_per_group = max(1, pool_size_sockets // sockets_per_server)
    worst_per_server = 0.0
    for group, peak in result.pool_peak_gb.items():
        group_start = group * servers_per_group
        group_size = min(servers_per_group, n_servers - group_start)
        if group_size <= 0:
            continue
        worst_per_server = max(worst_per_server, peak / group_size)
    return worst_per_server * n_servers


@dataclass(frozen=True)
class PoolSavings:
    """Required DRAM under a pooling configuration, relative to no pooling."""

    pool_size_sockets: int
    baseline_dram_gb: float
    required_local_dram_gb: float
    required_pool_dram_gb: float
    average_pool_fraction: float

    @property
    def required_total_dram_gb(self) -> float:
        return self.required_local_dram_gb + self.required_pool_dram_gb

    @property
    def required_dram_percent(self) -> float:
        """Required DRAM as a percent of the no-pooling baseline (Figure 3 y-axis)."""
        if self.baseline_dram_gb <= 0:
            return 100.0
        return 100.0 * self.required_total_dram_gb / self.baseline_dram_gb

    @property
    def savings_percent(self) -> float:
        return 100.0 - self.required_dram_percent


@dataclass
class SpeculationStats(Counters):
    """Speculative-probe accounting for one capacity-search call.

    Probes submitted by the search's speculative prefetch are *issued*; an
    issued probe whose outcome the search later blocks on is a *hit*;
    issued probes never consumed by the time the call drained its stats
    are *wasted* (a probe still in flight when drained counts as wasted
    even if a later call happens to reuse its memoised outcome -- the
    counters are per-call diagnostics, not global truth).  Speculation
    never changes probe verdicts or dimensioning: probes are deterministic
    per key, so depth only decides which outcomes are already warm.
    """

    #: Speculative probes submitted to the worker pool.
    issued: int = 0
    #: Issued probes the search actually blocked on.
    hits: int = 0
    #: Issued probes not consumed by the end of the call.
    wasted: int = 0
    #: The adaptive controller's depth when the call finished.
    final_depth: int = field(default=0, metadata={"merge": "last"})

    @property
    def hit_rate(self) -> float:
        return self.hits / self.issued if self.issued else 0.0


def _caller_policy(policy: PoolPolicy, shard_index: int) -> PoolPolicy:
    """The dimensioner's policy factory: a copy of the caller's policy with
    zeroed ``stats``, so every probe reports a clean delta (the search
    folds the deltas back into the caller's policy once, at the end)."""
    clone = copy.copy(policy)
    stats = getattr(policy, "stats", None)
    if stats is not None:
        clone.stats = type(stats)()
    return clone


class PoolDimensioner:
    """Estimates DRAM requirements for different pool sizes and policies."""

    def __init__(
        self,
        n_servers: int,
        server_config: Optional[ServerConfig] = None,
        sample_interval_s: float = 3600.0,
        search_steps: int = 7,
        rejection_tolerance: float = 0.002,
        pool_headroom: float = 1.05,
        max_workers: Optional[int] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        if search_steps < 1:
            raise ValueError("search_steps must be >= 1")
        if rejection_tolerance < 0:
            raise ValueError("rejection_tolerance cannot be negative")
        if pool_headroom < 1.0:
            raise ValueError("pool_headroom must be >= 1.0")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.n_servers = n_servers
        self.server_config = server_config or ServerConfig()
        self.sample_interval_s = sample_interval_s
        self.search_steps = search_steps
        self.rejection_tolerance = rejection_tolerance
        self.pool_headroom = pool_headroom
        #: When > 1, :meth:`evaluate_capacity_search` runs its replays as
        #: parallel probes on a process pool (speculative bisection); the
        #: returned savings are identical to the sequential search.
        self.max_workers = max_workers
        # Keyed on the trace object via weak references: ``id(trace)`` keys
        # are reused by CPython once a trace is garbage collected, which
        # would let a new trace silently inherit a stale baseline.
        self._peak_baseline_cache: "weakref.WeakKeyDictionary[ClusterTrace, float]" = (
            weakref.WeakKeyDictionary()
        )
        #: The one-shard fleet the capacity search runs on, and the cluster
        #: shape it was built for (see :meth:`_capacity_fleet`).
        self._fleet = None
        self._fleet_shape: Optional[tuple] = None
        #: Speculation accounting of the most recent
        #: :meth:`evaluate_capacity_search` call (drained per call; all
        #: zeros for sequential searches).  Purely diagnostic -- speculation
        #: never changes probe verdicts or the returned savings.
        self.last_speculation: Optional[SpeculationStats] = None

    # -- capacity-search fleet ---------------------------------------------------------
    def _capacity_fleet(self):
        """The one-shard ``FleetSimulator`` behind the capacity search.

        It keeps the search's memos (rejection budget, baseline per
        ``(search_steps, rejection_tolerance)``) and its probe session per
        trace, so a grid over pool sizes and policies pays for them once.
        A change to the cluster shape (``n_servers``, ``server_config``,
        ``sample_interval_s``) or to ``max_workers`` rebuilds it, memos
        and all.
        """
        # repro.cluster.fleet builds on this module: import it lazily.
        from repro.cluster.fleet import FleetSimulator
        from repro.cluster.tracegen import TraceGenConfig

        shape = (self.n_servers, self.server_config, self.sample_interval_s,
                 self.max_workers)
        if self._fleet is None or self._fleet_shape != shape:
            self.close()
            self._fleet = FleetSimulator(
                [TraceGenConfig(n_servers=self.n_servers,
                                server_config=self.server_config)],
                sample_interval_s=self.sample_interval_s,
                max_workers=self.max_workers,
            )
            self._fleet_shape = shape
        return self._fleet

    def close(self) -> None:
        """Shut down the capacity search's probe workers (idempotent).

        The dimensioner stays usable; the next capacity search lazily builds
        a fresh fleet.
        """
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None
        self._fleet_shape = None

    def __enter__(self) -> "PoolDimensioner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- simulation helpers -----------------------------------------------------------
    def _simulate(self, trace: ClusterTrace, policy: Optional[PoolPolicy],
                  pool_size_sockets: int) -> SimulationResult:
        """One memory-unconstrained replay (peak-observation mode)."""
        return ClusterSimulator(
            n_servers=self.n_servers,
            server_config=self.server_config,
            pool_size_sockets=pool_size_sockets,
            sample_interval_s=self.sample_interval_s,
            record_placements=False,
        ).run(trace, policy=policy)

    # -- baseline ------------------------------------------------------------------
    def baseline_required_dram_gb(self, trace: ClusterTrace) -> float:
        """Required DRAM with every VM entirely on local memory (no pooling)."""
        return self.evaluate_capacity_search(trace, 0, None).baseline_dram_gb

    # -- pooled configurations --------------------------------------------------------
    def evaluate(
        self,
        trace: ClusterTrace,
        pool_size_sockets: int,
        policy: PoolPolicy,
    ) -> PoolSavings:
        """Required DRAM when ``policy`` decides pool allocations.

        Uniform provisioning from observed demand: every server is bought with
        the DRAM of the worst per-server *local* peak, every pool blade with
        the worst per-group *pool* peak.  The no-pooling baseline provisions
        every server for the worst per-server *total* peak, which is exactly
        the over-provisioning that manifests as stranding.

        ``pool_size_sockets`` must be a multiple of the server socket count;
        a value of 0 degenerates to the no-pooling baseline.
        """
        baseline = self.peak_baseline_required_dram_gb(trace)
        if pool_size_sockets == 0:
            return PoolSavings(
                pool_size_sockets=0,
                baseline_dram_gb=baseline,
                required_local_dram_gb=baseline,
                required_pool_dram_gb=0.0,
                average_pool_fraction=0.0,
            )
        result = self._simulate(trace, policy, pool_size_sockets)
        uniform_pool_gb = uniform_pool_requirement_gb(
            result, pool_size_sockets, self.server_config.sockets,
            self.n_servers,
        )
        return PoolSavings(
            pool_size_sockets=pool_size_sockets,
            baseline_dram_gb=baseline,
            required_local_dram_gb=result.uniform_required_local_dram_gb,
            required_pool_dram_gb=uniform_pool_gb,
            average_pool_fraction=result.average_pool_fraction,
        )

    def peak_baseline_required_dram_gb(self, trace: ClusterTrace) -> float:
        """No-pooling baseline under uniform peak-observation provisioning."""
        if trace not in self._peak_baseline_cache:
            result = self._simulate(trace, None, 0)
            self._peak_baseline_cache[trace] = result.uniform_required_local_dram_gb
        return self._peak_baseline_cache[trace]

    def evaluate_capacity_search(
        self,
        trace: ClusterTrace,
        pool_size_sockets: int,
        policy: Optional[PoolPolicy],
    ) -> PoolSavings:
        """Capacity-search mode: the smallest uniform server DRAM that still fits.

        The memory-constrained replay lets the scheduler divert VMs to other
        servers (the paper's "moves the VMs to another server"), so this mode
        credits rescheduling slack to the *local* side; the pool is provisioned
        from the unconstrained per-group peak.  Used by the provisioning-
        methodology ablation benchmark.

        The search is :meth:`repro.cluster.fleet.FleetSimulator.capacity_search`
        on a one-shard fleet the dimensioner keeps (see
        :meth:`_capacity_fleet`), step by step:

        1. **Rejection budget.**  Replay the trace memory-unconstrained with
           no pool and count rejections -- those are due to core/NUMA
           fragmentation alone and can never be fixed by DRAM.  The budget is
           that count plus ``max(1, rejection_tolerance * len(trace))``
           (the paper tolerates "rare cases").
        2. **Baseline.**  The smallest uniform per-server DRAM that fits
           without a pool.
        3. **Pool provisioning.**  Replay once more, memory-unconstrained but
           *with* the pool and policy, and provision every pool group with
           ``pool_headroom`` times the worst observed per-group peak.
        4. **Binary search.**  Find the smallest uniform per-server DRAM such
           that the fully constrained replay (that DRAM, that pool) rejects
           no more VMs than the budget; ``search_steps`` bisection steps
           bracket it from an upper bound that is widened if infeasible.

        Worked example::

            cfg = TraceGenConfig(n_servers=12, duration_days=1.0, seed=7)
            trace = TraceGenerator(cfg).generate_bulk()
            dimensioner = PoolDimensioner(n_servers=12, search_steps=5)
            savings = dimensioner.evaluate_capacity_search(
                trace, pool_size_sockets=16, policy=FixedFractionPolicy(0.3)
            )
            # savings.baseline_dram_gb: smallest uniform DRAM, no pooling
            # savings.required_total_dram_gb: local search result + pools
            # savings.savings_percent: Figure 21's y-axis gap

        With ``max_workers > 1`` the replays run as parallel probes on a
        process pool, with speculative bisection; the returned savings are
        identical to the sequential search.  Probes replay copies of
        ``policy``; their ``stats`` deltas are added to ``policy.stats``
        once the search finishes.  Repeated searches over the same trace --
        a Figure-21 grid sweeping pool sizes and policies -- share one
        worker pool, one shipped trace, and the memoised probe outcomes;
        :meth:`close` (or the context-manager exit) releases them.
        """
        factory = (None if policy is None
                   else functools.partial(_caller_policy, policy))
        search = self._capacity_fleet().capacity_search(
            factory, traces=[trace], search_steps=self.search_steps,
            rejection_tolerance=self.rejection_tolerance,
            pool_headroom=self.pool_headroom,
            pool_size_sockets=pool_size_sockets,
        )
        stats = getattr(policy, "stats", None)
        if stats is not None:
            stats.add(search.policy_stats)
        self.last_speculation = search.speculation or SpeculationStats()
        return search.savings

    def sweep_pool_sizes(
        self,
        trace: ClusterTrace,
        pool_sizes: Sequence[int],
        policy: PoolPolicy,
    ) -> List[PoolSavings]:
        """Evaluate the same policy across multiple pool sizes (Figure 3 rows)."""
        return [self.evaluate(trace, size, policy) for size in pool_sizes]

    def sweep_fixed_fractions(
        self,
        trace: ClusterTrace,
        pool_sizes: Sequence[int],
        fractions: Sequence[float],
    ) -> Dict[float, List[PoolSavings]]:
        """The full Figure 3 grid: fixed pool fractions x pool sizes."""
        return {
            fraction: self.sweep_pool_sizes(trace, pool_sizes, fixed_fraction_policy(fraction))
            for fraction in fractions
        }
