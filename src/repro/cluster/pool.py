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
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.simulator import ClusterSimulator, PoolPolicy, SimulationResult
from repro.cluster.server import ServerConfig
from repro.cluster.trace import ClusterTrace, TraceColumns, VMTraceRecord

__all__ = [
    "PoolSavings",
    "PoolDimensioner",
    "FixedFractionPolicy",
    "fixed_fraction_policy",
    "uniform_pool_requirement_gb",
    "capacity_candidate_config",
    "CapacityProbeOutcome",
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
    """Server config for one capacity-search candidate DRAM size.

    Shared by :class:`PoolDimensioner` and the fleet-level
    :meth:`repro.cluster.fleet.FleetSimulator.capacity_search` so both
    searches probe byte-identical cluster configurations (which is what makes
    their single-shard results comparable in differential tests).
    """
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


# -- capacity-search probes ------------------------------------------------------------
@dataclass(frozen=True)
class CapacityProbeOutcome:
    """Everything a capacity search needs from one replay.

    A probe worker returns this instead of the full
    :class:`~repro.cluster.simulator.SimulationResult` so cross-process
    traffic stays tiny regardless of trace size.
    """

    placed_vms: int
    rejected_vms: int
    pool_peak_gb: Dict[int, float]
    total_pool_gb: float
    total_memory_gb: float
    #: Policy accounting of this probe (fleet probes only; the policy is
    #: rebuilt per probe in the worker, so these are per-probe deltas).
    policy_stats: Optional[object] = field(default=None, compare=False)

    @property
    def average_pool_fraction(self) -> float:
        if self.total_memory_gb <= 0:
            return 0.0
        return self.total_pool_gb / self.total_memory_gb


@dataclass
class SpeculationStats:
    """Speculative-probe accounting for one capacity-search call.

    Probes submitted by the speculative ``prefetch_bisection`` paths are
    *issued*; an issued probe whose outcome the search later blocks on is a
    *hit*; issued probes never consumed by the time the call drained its
    stats are *wasted* (a probe still in flight when drained counts as
    wasted even if a later call happens to reuse its memoised outcome --
    the counters are per-call diagnostics, not global truth).  Speculation
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
    final_depth: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.issued if self.issued else 0.0

    def add(self, other: "SpeculationStats") -> None:
        self.issued += other.issued
        self.hits += other.hits
        self.wasted += other.wasted
        self.final_depth = other.final_depth


#: Adaptive speculation-depth bounds (see ``_ProbeSessionBase._adaptive_depth``).
_SPEC_DEPTH_MIN = 1
_SPEC_DEPTH_MAX = 4
_SPEC_DEPTH_INITIAL = 2
#: Issued probes per adaptation window.
_SPEC_WINDOW = 8


def capacity_probe_replay(
    trace,
    policy: Optional[PoolPolicy],
    n_servers: int,
    server_config: ServerConfig,
    pool_size_sockets: int,
    pool_capacity_gb: float,
    dram_per_server_gb: Optional[float],
    sample_interval_s: float,
) -> SimulationResult:
    """One capacity-search replay.

    Single definition shared by :meth:`PoolDimensioner._simulate`, the
    dimensioner's probe workers, and the fleet search's probe workers, so
    in-process and worker probes build byte-identical simulators.
    """
    if dram_per_server_gb is None:
        config = server_config
        constrain = False
    else:
        config = capacity_candidate_config(server_config, dram_per_server_gb)
        constrain = True
    simulator = ClusterSimulator(
        n_servers=n_servers,
        server_config=config,
        pool_size_sockets=pool_size_sockets,
        pool_capacity_gb_per_group=pool_capacity_gb,
        constrain_memory=constrain,
        sample_interval_s=sample_interval_s,
        # Dimensioning only reads peaks and rejection counts.
        record_placements=False,
    )
    return simulator.run(trace, policy=policy)


def probe_outcome_of(result: SimulationResult,
                     policy: Optional[PoolPolicy] = None) -> CapacityProbeOutcome:
    """Compress a replay result into the probe outcome the searches consume."""
    stats = getattr(policy, "stats", None) if policy is not None else None
    return CapacityProbeOutcome(
        placed_vms=result.placed_vms,
        rejected_vms=result.rejected_vms,
        pool_peak_gb=dict(result.pool_peak_gb),
        total_pool_gb=result.total_pool_gb_allocated,
        total_memory_gb=result.total_memory_gb_allocated,
        policy_stats=stats,
    )


#: Per-process state for dimensioner probe workers, set by the pool
#: initializer (the heavy trace ships once per worker, not per probe;
#: policies -- small picklables -- travel with each task so one session
#: serves every policy of a study grid).
_PROBE_STATE: dict = {}


def _capacity_probe_init(trace, n_servers, server_config,
                         sample_interval_s) -> None:
    _PROBE_STATE.update(
        trace=trace, n_servers=n_servers,
        server_config=server_config, sample_interval_s=sample_interval_s,
    )


def _run_capacity_probe(
    task: Tuple[Optional[PoolPolicy], int, float, Optional[float]]
) -> CapacityProbeOutcome:
    """Probe task: (policy, pool_size_sockets, pool_capacity_gb, dram).

    The policy arrives as this worker's own unpickled copy (decisions are
    digest-keyed, so a copy decides identically); its accounting is zeroed
    so the outcome's ``policy_stats`` is a clean per-probe delta -- the
    session merges these back into the caller's policy so parallel searches
    keep the stats accounting the sequential in-process replays would have
    accumulated.
    """
    policy, pool_size_sockets, pool_capacity_gb, dram = task
    if policy is not None:
        # The shipped policy may carry stats accumulated before this search
        # (policy reuse across calls); zero the copy's accounting so the
        # outcome really is a per-probe delta.
        stats = getattr(policy, "stats", None)
        if stats is not None:
            policy.stats = type(stats)()
    state = _PROBE_STATE
    result = capacity_probe_replay(
        state["trace"], policy,
        state["n_servers"], state["server_config"], pool_size_sockets,
        pool_capacity_gb, dram, state["sample_interval_s"],
    )
    return probe_outcome_of(result, policy)


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Finalizer-safe executor shutdown (no session references captured)."""
    executor.shutdown(wait=False, cancel_futures=True)


def _probe_fingerprint(obj) -> Optional[bytes]:
    """Value-based fingerprint of a policy (or policy factory) for memo keys.

    Reused sessions memoise probe outcomes across calls, so the key must
    change when a policy is *mutated in place* between searches -- an
    identity token would silently serve the pre-mutation outcome.  The
    fingerprint pickles the object's state with the ``stats`` accounting
    stripped (stats accumulate during probing but never influence
    decisions, so including them would spuriously invalidate every memo).
    Returns ``None`` when the object cannot be fingerprinted (unpicklable
    state); callers fall back to a pinned identity token.
    """
    if obj is None:
        return None
    try:
        getstate = getattr(obj, "__getstate__", None)
        if getstate is not None:
            state = getstate()
        elif hasattr(obj, "__dict__"):
            state = dict(obj.__dict__)
        else:
            state = None
        if isinstance(state, dict):
            payload = (
                type(obj).__module__,
                type(obj).__qualname__,
                {k: v for k, v in state.items() if k != "stats"},
            )
        else:
            payload = obj
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


class _ProbeSessionBase:
    """Shared mechanics of the reusable capacity-probe sessions.

    Owns what :class:`_CapacityProbeSession` (dimensioner) and the fleet's
    ``_FleetProbeSession`` have in common, so the two cannot drift: the
    memo/future tables, value-based policy tokens (:func:`_probe_fingerprint`
    with a pinned-identity fallback), per-token pending-stat draining, the
    in-flight cap helper, and the executor lifecycle (idempotent ``close``,
    context-manager protocol, a ``weakref.finalize`` guard for sessions
    dropped unclosed).
    """

    def __init__(self) -> None:
        self._outcomes: Dict[tuple, CapacityProbeOutcome] = {}
        self._futures: Dict[tuple, object] = {}
        #: fallback identity tokens for un-fingerprintable objects (strong
        #: refs pin them so ids are never recycled; in-place mutation is
        #: then indistinguishable, which is the best an identity key can do).
        self._id_tokens: Dict[int, tuple] = {}
        self._pinned: list = []
        #: probe-stat deltas not yet drained, keyed by token.
        self._pending_stats: Dict[object, list] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._finalizer = None
        self._max_inflight = 0
        #: speculative submits not yet consumed by an ``outcome`` call.
        self._spec_keys: set = set()
        self._spec_issued = 0
        self._spec_hits = 0
        #: adaptive speculation depth, kept warm across calls on a reused
        #: session (the workload's hit profile rarely changes between calls).
        self._spec_depth = _SPEC_DEPTH_INITIAL
        self._spec_window_issued = 0
        self._spec_window_hits = 0

    def _attach_executor(self, executor: ProcessPoolExecutor,
                         max_inflight: int) -> None:
        self._executor = executor
        self._max_inflight = max_inflight
        self._finalizer = weakref.finalize(self, _shutdown_executor, executor)

    def _token(self, obj):
        """Stable memo-key token: value-based when possible, pinned identity
        otherwise."""
        if obj is None:
            return None
        digest = _probe_fingerprint(obj)
        if digest is not None:
            return digest
        token = self._id_tokens.get(id(obj))  # repro: noqa DET002 -- _pinned keeps every keyed object alive for the session, so its address cannot be recycled
        if token is None:  # repro: noqa DET002 -- token is a synthetic ("id", ordinal) tuple, not a raw address
            token = ("id", len(self._pinned))
            self._id_tokens[id(obj)] = token  # repro: noqa DET002 -- _pinned keeps every keyed object alive for the session, so its address cannot be recycled
            self._pinned.append(obj)
        return token

    def _inflight_full(self) -> bool:
        return sum(
            1 for f in self._futures.values() if not f.done()
        ) >= self._max_inflight

    # -- adaptive speculation ----------------------------------------------------------
    def _mark_speculative(self, key: tuple) -> None:
        """Count one speculative submit (prefetch paths only)."""
        self._spec_keys.add(key)
        self._spec_issued += 1
        self._spec_window_issued += 1

    def _note_consumed(self, key: tuple) -> None:
        """A blocking ``outcome`` reached ``key``: a hit if it was speculated."""
        if key in self._spec_keys:
            self._spec_keys.discard(key)
            self._spec_hits += 1
            self._spec_window_hits += 1

    def _adaptive_depth(self, fanout: int = 1) -> int:
        """Current speculative-bisection depth.

        Hit-rate driven: every ``_SPEC_WINDOW`` issued probes, the depth
        deepens when speculation keeps paying off and backs off when most
        speculated probes go unused.  Occupancy guarded: the frontier a
        depth implies (``(2**depth - 1) * fanout`` probes, ``fanout`` = probes
        per candidate) is shrunk to what the pool's idle capacity can absorb,
        so speculation never starves the probe the search blocks on next.
        Depth changes which probes are *warm*, never which verdicts the
        search sees -- probes are deterministic and memoised per key.
        """
        if self._executor is None:
            return 0
        if self._spec_window_issued >= _SPEC_WINDOW:
            rate = self._spec_window_hits / self._spec_window_issued
            if rate >= 0.5 and self._spec_depth < _SPEC_DEPTH_MAX:
                self._spec_depth += 1
            elif rate < 0.2 and self._spec_depth > _SPEC_DEPTH_MIN:
                self._spec_depth -= 1
            self._spec_window_issued = 0
            self._spec_window_hits = 0
        inflight = sum(1 for f in self._futures.values() if not f.done())
        idle = max(0, self._max_inflight - inflight)
        depth = self._spec_depth
        while depth > _SPEC_DEPTH_MIN and \
                (2 ** depth - 1) * fanout > max(idle, fanout):
            depth -= 1
        return depth

    def drain_speculation_stats(self) -> "SpeculationStats":
        """Pop (once) the speculation counters accumulated since the last
        drain; still-unconsumed speculative probes count as wasted."""
        stats = SpeculationStats(
            issued=self._spec_issued,
            hits=self._spec_hits,
            wasted=len(self._spec_keys),
            final_depth=self._spec_depth,
        )
        self._spec_keys.clear()
        self._spec_issued = 0
        self._spec_hits = 0
        return stats

    def _record_outcome(self, key: tuple,
                        outcome: CapacityProbeOutcome) -> None:
        self._outcomes[key] = outcome
        if outcome.policy_stats is not None and key[0] is not None:
            self._pending_stats.setdefault(key[0], []).append(
                outcome.policy_stats
            )

    def _drain_stat_deltas(self, obj) -> list:
        """Pop (once) the stat deltas of ``obj``'s probes run since the last
        drain; memoised probes from earlier calls are never double-counted."""
        token = self._token(obj)
        if token is None:
            return []
        return self._pending_stats.pop(token, [])

    def close(self) -> None:
        if self._executor is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._futures.clear()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _CapacityProbeSession(_ProbeSessionBase):
    """Memoised capacity-search probes, inline or on a process pool.

    Probes are keyed on ``(policy, pool_size_sockets, pool_capacity_gb,
    dram)`` -- the policy via a value-based fingerprint
    (:func:`_probe_fingerprint`), so mutating a policy in place between
    searches changes the key instead of serving a stale memoised outcome
    (unpicklable policies fall back to a pinned identity token, which cannot
    detect in-place mutation).  The parallel session ships the trace to
    workers once (pool initializer); policies ride along with each probe
    task, so **one session serves every policy and pool size of a study
    grid**.  :meth:`submit` / :meth:`prefetch_bisection` let independent
    probes -- the rejection-budget replay, the pool-provisioning replay, and
    speculative bisection candidates -- run concurrently while the caller
    blocks only on the probe it needs next.  Sequential and parallel
    sessions produce identical outcomes; parallelism only changes *when*
    probes run.

    Sessions are reusable across ``evaluate_capacity_search`` calls
    (memoised outcomes are sound: probes are deterministic per key);
    :class:`PoolDimensioner` owns one and invalidates it when the trace or
    the dimensioner configuration changes.  ``close()`` is idempotent, the
    context-manager protocol closes on exit, and a ``weakref.finalize``
    guard shuts the worker pool down if the session is dropped unclosed.
    """

    def __init__(self, dimensioner: "PoolDimensioner",
                 trace: ClusterTrace) -> None:
        super().__init__()
        self._dimensioner = dimensioner
        self._trace = trace
        workers = dimensioner.max_workers
        if workers is not None and workers > 1:
            self._attach_executor(
                ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_capacity_probe_init,
                    initargs=(
                        trace, dimensioner.n_servers,
                        dimensioner.server_config,
                        dimensioner.sample_interval_s,
                    ),
                ),
                max_inflight=2 * workers,
            )

    @property
    def parallel(self) -> bool:
        return self._executor is not None

    def submit(self, policy: Optional[PoolPolicy], pool_size_sockets: int,
               pool_capacity_gb: float, dram: Optional[float],
               speculative: bool = False) -> None:
        """Non-blocking probe; no-op when sequential or saturated.

        ``speculative`` marks prefetch-issued probes for the adaptive
        controller's accounting (warm-start probes the search will certainly
        need are not speculative).
        """
        if self._executor is None:
            return
        key = (self._token(policy), pool_size_sockets, pool_capacity_gb, dram)
        if key in self._outcomes or key in self._futures:
            return
        if self._inflight_full():
            return
        self._futures[key] = self._executor.submit(
            _run_capacity_probe,
            (policy, pool_size_sockets, pool_capacity_gb, dram),
        )
        if speculative:
            self._mark_speculative(key)

    def outcome(self, policy: Optional[PoolPolicy], pool_size_sockets: int,
                pool_capacity_gb: float,
                dram: Optional[float]) -> CapacityProbeOutcome:
        """Blocking probe result (memoised)."""
        key = (self._token(policy), pool_size_sockets, pool_capacity_gb, dram)
        self._note_consumed(key)
        cached = self._outcomes.get(key)
        if cached is not None:
            return cached
        future = self._futures.pop(key, None)
        if future is not None:
            result = future.result()
        elif self._executor is not None:
            result = self._executor.submit(
                _run_capacity_probe,
                (policy, pool_size_sockets, pool_capacity_gb, dram),
            ).result()
        else:
            dim = self._dimensioner
            result = probe_outcome_of(capacity_probe_replay(
                self._trace, policy,
                dim.n_servers, dim.server_config, pool_size_sockets,
                pool_capacity_gb, dram, dim.sample_interval_s,
            ))
        self._record_outcome(key, result)
        return result

    def prefetch_bisection(self, policy: Optional[PoolPolicy],
                           pool_size_sockets: int,
                           pool_capacity_gb: float, lo: float, hi: float,
                           depth: Optional[int] = None) -> None:
        """Speculatively submit the bisection tree under ``(lo, hi)``.

        Breadth-first: the midpoint the search will probe next goes in
        first, then both candidates it could probe after, and so on --
        whichever way each verdict lands, the following probe is already
        running.  Mis-speculated candidates stay memoised in case a later
        interval revisits them.  ``depth=None`` (the default) lets the
        adaptive controller pick the depth from the recent hit rate and the
        pool's idle capacity (:meth:`_ProbeSessionBase._adaptive_depth`);
        an explicit depth pins it (tests, ablations).
        """
        if self._executor is None:
            return
        if depth is None:
            depth = self._adaptive_depth()
        frontier = [(lo, hi)]
        for _ in range(depth):
            next_frontier = []
            for low, high in frontier:
                mid = (low + high) / 2.0
                self.submit(policy, pool_size_sockets, pool_capacity_gb, mid,
                            speculative=True)
                next_frontier.append((low, mid))
                next_frontier.append((mid, high))
            frontier = next_frontier

    def drain_policy_stats(self, policy: Optional[PoolPolicy]):
        """Merge (and clear) the stat deltas of ``policy``'s new probes.

        Draining keeps reused sessions honest: a probe memoised by an
        earlier call already folded its delta into the caller's policy then
        and is not counted again.  Returns ``None`` when there is nothing
        to fold.
        """
        merged = None
        for stats in self._drain_stat_deltas(policy):
            if merged is None:
                merged = copy.deepcopy(stats)
            else:
                merged.add(stats)
        return merged


def bisect_min_dram(hi: float, steps: int, budget: int,
                    rejections: Callable[[float], int],
                    prefetch: Optional[Callable[[float, float], None]] = None,
                    widen_rounds: int = 4) -> float:
    """Smallest per-server DRAM (after ``steps`` bisections) within budget.

    ``rejections(dram)`` is a blocking probe; ``prefetch(lo, hi)`` is an
    optional non-blocking hint that warms candidates the search may need
    next (speculative bisection).  The probe *sequence* is exactly the
    legacy sequential one -- the search path is a pure function of the
    deterministic, memoised rejection counts -- which is why parallel and
    sequential searches return identical results.  Shared by
    :class:`PoolDimensioner` and ``FleetSimulator.capacity_search``.
    """
    lo = 0.0
    feasible = False
    for _ in range(widen_rounds):
        if prefetch is not None:
            prefetch(lo, hi)
        if rejections(hi) <= budget:
            feasible = True
            break
        hi *= 1.5
    if not feasible:
        return hi
    for _ in range(steps):
        if prefetch is not None:
            prefetch(lo, hi)
        mid = (lo + hi) / 2.0
        if rejections(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


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
        # (the previous scheme) are reused by CPython once a trace is garbage
        # collected, which let a new trace silently inherit a stale baseline
        # or rejection count.  Weak keys vanish with the trace instead.
        self._baseline_cache: "weakref.WeakKeyDictionary[ClusterTrace, float]" = (
            weakref.WeakKeyDictionary()
        )
        self._peak_baseline_cache: "weakref.WeakKeyDictionary[ClusterTrace, float]" = (
            weakref.WeakKeyDictionary()
        )
        self._rejection_cache: "weakref.WeakKeyDictionary[ClusterTrace, int]" = (
            weakref.WeakKeyDictionary()
        )
        # Reusable probe session (ROADMAP: sessions survive across
        # evaluate_capacity_search calls).  Valid for one trace identity and
        # one dimensioner configuration; the trace is pinned by strong
        # reference while the session lives (``close()`` releases it).
        self._probe_session: Optional[_CapacityProbeSession] = None
        self._probe_session_trace: Optional[ClusterTrace] = None
        self._probe_session_fingerprint: Optional[tuple] = None
        #: Speculation accounting of the most recent
        #: :meth:`evaluate_capacity_search` call (drained per call; all
        #: zeros for sequential searches).  Purely diagnostic -- speculation
        #: never changes probe verdicts or the returned savings.
        self.last_speculation: Optional[SpeculationStats] = None

    # -- probe-session lifecycle -------------------------------------------------------
    def _session_fingerprint(self) -> tuple:
        """The configuration a probe session (and its memos) depends on."""
        return (
            self.n_servers, self.server_config, self.sample_interval_s,
            self.max_workers,
        )

    def probe_session(self, trace: ClusterTrace) -> _CapacityProbeSession:
        """The reusable probe session for ``trace``, created on first use.

        One session -- one worker pool, one shipped trace -- serves every
        ``evaluate_capacity_search`` call over the same trace, across pool
        sizes *and* policies (policies travel with each probe task).  A
        different trace, or any change to the dimensioner's configuration,
        invalidates the session: its memoised outcomes were computed under
        the old key, so it is closed and rebuilt.
        """
        fingerprint = self._session_fingerprint()
        if (self._probe_session is not None
                and self._probe_session_trace is trace
                and self._probe_session_fingerprint == fingerprint):
            return self._probe_session
        self.close()
        self._probe_session = _CapacityProbeSession(self, trace)
        self._probe_session_trace = trace
        self._probe_session_fingerprint = fingerprint
        return self._probe_session

    def close(self) -> None:
        """Shut down the reusable probe session (idempotent).

        The dimensioner stays usable; the next capacity search lazily builds
        a fresh session.
        """
        if self._probe_session is not None:
            self._probe_session.close()
            self._probe_session = None
        self._probe_session_trace = None
        self._probe_session_fingerprint = None

    def __enter__(self) -> "PoolDimensioner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- simulation helpers -----------------------------------------------------------
    def _simulate(
        self,
        trace: ClusterTrace,
        policy: Optional[PoolPolicy],
        pool_size_sockets: int,
        pool_capacity_gb: float,
        dram_per_server_gb: Optional[float],
    ) -> SimulationResult:
        return capacity_probe_replay(
            trace, policy, self.n_servers, self.server_config,
            pool_size_sockets, pool_capacity_gb, dram_per_server_gb,
            self.sample_interval_s,
        )

    def _core_only_rejections(
        self, trace: ClusterTrace,
        session: Optional[_CapacityProbeSession] = None,
    ) -> int:
        """Rejections due to core/NUMA fragmentation alone (memory unconstrained)."""
        if trace not in self._rejection_cache:
            if session is not None:
                rejected = session.outcome(None, 0, float("inf"), None).rejected_vms
            else:
                rejected = self._simulate(trace, None, 0, float("inf"), None).rejected_vms
            self._rejection_cache[trace] = rejected
        return self._rejection_cache[trace]

    def _rejection_budget(
        self, trace: ClusterTrace,
        session: Optional[_CapacityProbeSession] = None,
    ) -> int:
        return self._core_only_rejections(trace, session) + max(
            1, int(self.rejection_tolerance * len(trace))
        )

    def _min_uniform_server_dram(
        self,
        trace: ClusterTrace,
        policy: Optional[PoolPolicy],
        pool_size_sockets: int,
        pool_capacity_gb: float,
        session: Optional[_CapacityProbeSession] = None,
    ) -> float:
        """Binary-search the smallest uniform per-server DRAM that still fits.

        With a parallel ``session`` the bisection speculates: bracketing
        candidates are probed concurrently on the process pool and memoised,
        so each verdict's follow-up probe is usually already running.  The
        probe sequence (and therefore the result) is identical either way.
        """
        budget = self._rejection_budget(trace, session)
        if session is None:
            def rejections(dram: float) -> int:
                return self._simulate(
                    trace, policy, pool_size_sockets, pool_capacity_gb, dram
                ).rejected_vms

            prefetch = None
        else:
            def rejections(dram: float) -> int:
                return session.outcome(
                    policy, pool_size_sockets, pool_capacity_gb, dram
                ).rejected_vms

            if session.parallel:
                def prefetch(lo: float, hi: float) -> None:
                    session.prefetch_bisection(
                        policy, pool_size_sockets, pool_capacity_gb, lo, hi
                    )
            else:
                prefetch = None
        return bisect_min_dram(
            self.server_config.total_dram_gb, self.search_steps, budget,
            rejections, prefetch,
        )

    # -- baseline ------------------------------------------------------------------
    def _baseline_required_dram_gb(
        self, trace: ClusterTrace,
        session: Optional[_CapacityProbeSession] = None,
    ) -> float:
        if trace not in self._baseline_cache:
            per_server = self._min_uniform_server_dram(trace, None, 0, 0.0, session)
            self._baseline_cache[trace] = per_server * self.n_servers
        return self._baseline_cache[trace]

    def baseline_required_dram_gb(self, trace: ClusterTrace) -> float:
        """Required DRAM with every VM entirely on local memory (no pooling)."""
        return self._baseline_required_dram_gb(trace)

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
        result = self._simulate(trace, policy, pool_size_sockets, float("inf"), None)
        uniform_pool_gb = self._uniform_pool_requirement_gb(result, pool_size_sockets)
        return PoolSavings(
            pool_size_sockets=pool_size_sockets,
            baseline_dram_gb=baseline,
            required_local_dram_gb=result.uniform_required_local_dram_gb,
            required_pool_dram_gb=uniform_pool_gb,
            average_pool_fraction=result.average_pool_fraction,
        )

    def _uniform_pool_requirement_gb(self, result: SimulationResult,
                                     pool_size_sockets: int) -> float:
        return uniform_pool_requirement_gb(
            result, pool_size_sockets, self.server_config.sockets, self.n_servers
        )

    def peak_baseline_required_dram_gb(self, trace: ClusterTrace) -> float:
        """No-pooling baseline under uniform peak-observation provisioning."""
        if trace not in self._peak_baseline_cache:
            result = self._simulate(trace, None, 0, 0.0, None)
            self._peak_baseline_cache[trace] = result.uniform_required_local_dram_gb
        return self._peak_baseline_cache[trace]

    def evaluate_capacity_search(
        self,
        trace: ClusterTrace,
        pool_size_sockets: int,
        policy: PoolPolicy,
    ) -> PoolSavings:
        """Capacity-search mode: the smallest uniform server DRAM that still fits.

        The memory-constrained replay lets the scheduler divert VMs to other
        servers (the paper's "moves the VMs to another server"), so this mode
        credits rescheduling slack to the *local* side; the pool is provisioned
        from the unconstrained per-group peak.  Used by the provisioning-
        methodology ablation benchmark; the fleet-scale lift of the same
        search is :meth:`repro.cluster.fleet.FleetSimulator.capacity_search`.

        The algorithm, step by step:

        1. **Rejection budget.**  Replay the trace memory-unconstrained with
           no pool and count rejections -- those are due to core/NUMA
           fragmentation alone and can never be fixed by DRAM.  The budget is
           that count plus ``max(1, rejection_tolerance * len(trace))``
           (the paper tolerates "rare cases").
        2. **Pool provisioning.**  Replay once more, memory-unconstrained but
           *with* the pool and policy, and provision every pool group with
           ``pool_headroom`` times the worst observed per-group peak.
        3. **Binary search.**  Find the smallest uniform per-server DRAM such
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

        With ``max_workers > 1`` the search's replays run as parallel probes
        on a process pool: the rejection-budget replay, the pool-provisioning
        replay, and the first candidates of both binary searches start
        concurrently up front, and each bisection speculates its bracketing
        candidates (see :func:`bisect_min_dram`).  The returned savings are
        identical to the sequential search -- parallelism only changes when
        probes run, never which verdicts they produce.

        The probe pool is a **reusable session** (see :meth:`probe_session`):
        repeated searches over the same trace -- a Figure-21 grid sweeping
        pool sizes and policies -- share one worker pool, one shipped trace,
        and the memoised probe outcomes, instead of paying worker spawn and
        trace shipping once per cell.  The session is torn down whenever the
        trace or the dimensioner configuration changes, on any exception,
        and by :meth:`close` / the context-manager exit.
        """
        session = self.probe_session(trace)
        try:
            inf = float("inf")
            if session.parallel:
                # Warm start: the probe chains that do not depend on each
                # other begin together (budget replay, no-pool baseline upper
                # bound, pool-provisioning replay).
                if trace not in self._rejection_cache:
                    session.submit(None, 0, inf, None)
                if trace not in self._baseline_cache:
                    session.submit(None, 0, 0.0, self.server_config.total_dram_gb)
                if pool_size_sockets:
                    session.submit(policy, pool_size_sockets, inf, None)
            baseline = self._baseline_required_dram_gb(trace, session)
            if pool_size_sockets == 0:
                self.last_speculation = session.drain_speculation_stats()
                return PoolSavings(
                    pool_size_sockets=0,
                    baseline_dram_gb=baseline,
                    required_local_dram_gb=baseline,
                    required_pool_dram_gb=0.0,
                    average_pool_fraction=0.0,
                )
            unconstrained = session.outcome(policy, pool_size_sockets, inf, None)
            if unconstrained.pool_peak_gb:
                per_group_pool = self.pool_headroom * max(
                    unconstrained.pool_peak_gb.values()
                )
                n_groups = len(unconstrained.pool_peak_gb)
            else:
                per_group_pool = 0.0
                n_groups = 0
            per_server = self._min_uniform_server_dram(
                trace, policy, pool_size_sockets, per_group_pool, session
            )
            if session.parallel:
                # Parallel probes ran pickled policy copies in the workers;
                # fold their per-probe stat deltas back into the caller's
                # policy so `policy.stats` keeps working like the sequential
                # search (the executed probe multiset can differ --
                # speculation -- but every probe replays the same trace, so
                # the stats ratios are preserved).  Draining takes only the
                # deltas of probes run since the last call, so a reused
                # session never double-counts.
                stats = getattr(policy, "stats", None)
                probe_stats = session.drain_policy_stats(policy)
                if stats is not None and probe_stats is not None:
                    stats.add(probe_stats)
            self.last_speculation = session.drain_speculation_stats()
            return PoolSavings(
                pool_size_sockets=pool_size_sockets,
                baseline_dram_gb=baseline,
                required_local_dram_gb=per_server * self.n_servers,
                required_pool_dram_gb=per_group_pool * n_groups,
                average_pool_fraction=unconstrained.average_pool_fraction,
            )
        except BaseException:
            # Executor lifecycle hardening: a failed search must not leave a
            # half-used probe pool behind (the next call rebuilds one).
            self.close()
            raise

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
