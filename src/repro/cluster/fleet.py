"""Sharded fleet simulator: million-VM pooling studies across many clusters.

The paper's evaluation replays traces from ~100 production clusters (Section
6.1, Figure 21); one :class:`~repro.cluster.simulator.ClusterSimulator`
models a single cluster, so fleet-scale studies shard the workload across
``N`` independent clusters and merge the results.  Each shard is one
cluster: its own synthetic trace (materialised via the vectorized
``TraceGenerator.generate_bulk`` path, or replayed as a lazy
``GeneratedTraceStream`` when ``stream_chunk_size`` is set so no shard trace
is ever held in full), its own simulator replay, and its own policy
instance.  Because policy decisions are keyed on stable per-VM digests (see
``repro.core.policies``), sharding never changes any VM's allocation -- a
fleet result is exactly the sum of its shards' single-cluster results,
which the fleet benchmark asserts.

Every fleet call replays one pool-connected component per task (one shard
per component unless pool groups span shards), optionally on a reusable
``concurrent.futures`` process pool (``max_workers``; everything a task
needs -- ``TraceGenConfig``, the policy factory, optionally a pregenerated
trace -- must be picklable, so policy factories are built from module-level
functions via ``functools.partial``).  The default is in-process serial
execution, which is also what the fleet benchmark times so the batch-vs-
callback comparison is not confounded by pool overhead.

Savings are computed per shard in peak-observation mode (the same
uniform-provisioning model as ``PoolDimensioner.evaluate``): the baseline is
a memory-unconstrained replay with no pooling, the pooled requirement is the
uniform per-server local peak plus the uniform per-group pool peak.
:meth:`FleetSimulator.capacity_search` is the constrained alternative and
the only capacity search (``PoolDimensioner`` calls it on a one-shard
fleet): the smallest shared fleet-wide server DRAM size within a rejection
budget aggregated across shards, probed one pool-connected component at a
time (DESIGN.md section 5).

``pool_topology`` relaxes the shard independence: fleet-owned pool groups
may span shards, whose component then replays as one merged time-ordered
event stream (:mod:`repro.cluster.pool_topology`, DESIGN.md section 8).
Executors are reused across calls (DESIGN.md section 7; release with
:meth:`FleetSimulator.close` or the context-manager protocol).
"""

from __future__ import annotations

import functools
import pickle
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.cluster.faults import FaultImpactStats, FaultSchedule
from repro.cluster.pool import (
    PoolSavings,
    SpeculationStats,
    capacity_candidate_config,
    uniform_pool_requirement_gb,
)
from repro.cluster.pool_topology import PoolTopology, replay_crossshard
from repro.cluster.simulator import SimulationResult, TraceInput
from repro.cluster.trace import ClusterTrace
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator, fleet_shard_configs
from repro.core.control_plane.online import (
    OnlineControlConfig,
    OnlineControlStats,
)
from repro.core.policies import (
    AllLocalPolicy,
    PolicyStats,
    PondTracePolicy,
    PredictionPolicy,
    StaticFractionPolicy,
)
from repro.core.prediction.combined import CombinedOperatingPoint

__all__ = [
    "FleetSimulator",
    "FleetResult",
    "FleetShardResult",
    "FleetCapacitySearchResult",
    "PoolTopology",
    "pond_policy_factory",
    "static_policy_factory",
    "all_local_policy_factory",
    "prediction_policy_factory",
]

#: A policy factory builds one fresh policy per shard (index -> policy); it
#: runs inside the worker, so per-shard policies never share mutable state.
PolicyFactory = Callable[[int], object]


# -- picklable policy factories ------------------------------------------------------
def _build_pond_policy(operating_point: CombinedOperatingPoint,
                       kwargs: dict, shard_index: int) -> PondTracePolicy:
    return PondTracePolicy(operating_point, **kwargs)


def pond_policy_factory(operating_point: CombinedOperatingPoint,
                        **kwargs) -> PolicyFactory:
    """Picklable factory producing one ``PondTracePolicy`` per shard.

    All shards share the same seed (default 0 via ``PondTracePolicy``), which
    is safe *and* required: decisions are keyed per VM id, so a VM gets the
    same allocation no matter which shard evaluates it.
    """
    return functools.partial(_build_pond_policy, operating_point, kwargs)


def _build_static_policy(kwargs: dict, shard_index: int) -> StaticFractionPolicy:
    return StaticFractionPolicy(**kwargs)


def static_policy_factory(**kwargs) -> PolicyFactory:
    """Picklable factory producing one ``StaticFractionPolicy`` per shard."""
    return functools.partial(_build_static_policy, kwargs)


def _build_all_local_policy(shard_index: int) -> AllLocalPolicy:
    return AllLocalPolicy()


def all_local_policy_factory() -> PolicyFactory:
    """Picklable factory producing one ``AllLocalPolicy`` per shard."""
    return _build_all_local_policy


def _build_prediction_policy(policy: PredictionPolicy,
                             shard_index: int) -> PredictionPolicy:
    # Fresh stats per shard, shared (read-only) trained models: policies
    # travel to workers by pickle, so the original's counters never alias.
    return PredictionPolicy(
        policy.untouched_model,
        policy.latency_model,
        slice_gb=policy.slice_gb,
        touch_violation_probability=policy.touch_violation_probability,
        seed=policy.seed,
    )


def prediction_policy_factory(policy: Optional[PredictionPolicy] = None,
                              **train_kwargs) -> PolicyFactory:
    """Picklable factory producing one ``PredictionPolicy`` per shard.

    Train once, fan out everywhere: the models are trained here (or passed
    in pre-trained via ``policy``) and shipped to every shard worker by
    pickle, so all shards decide with identical model state.  Like the other
    factories, decisions are keyed per VM id -- a VM gets the same zNUMA
    split no matter which shard evaluates it.
    """
    if policy is None:
        policy = PredictionPolicy.train(**train_kwargs)
    elif train_kwargs:
        raise ValueError("pass either a pre-trained policy or train kwargs")
    return functools.partial(_build_prediction_policy, policy)


@dataclass(frozen=True)
class FleetShardResult:
    """One shard's replay: the cluster result plus savings inputs."""

    shard_id: str
    shard_index: int
    n_vms: int
    n_servers: int
    sockets_per_server: int
    pool_size_sockets: int
    result: SimulationResult
    #: Memory-unconstrained no-pooling uniform baseline, if requested.
    baseline_required_dram_gb: Optional[float]
    policy_stats: Optional[PolicyStats]
    #: Wall-clock seconds of the pooled replay alone (excludes trace
    #: generation and the baseline replay) -- the fleet benchmark compares
    #: these across the batch and per-VM-callback paths.
    run_seconds: float

    @property
    def required_local_dram_gb(self) -> float:
        return self.result.uniform_required_local_dram_gb

    @property
    def required_pool_dram_gb(self) -> float:
        return uniform_pool_requirement_gb(
            self.result, self.pool_size_sockets,
            self.sockets_per_server, self.n_servers,
        )

    @property
    def savings(self) -> PoolSavings:
        """This shard's single-cluster savings (requires a baseline run)."""
        if self.baseline_required_dram_gb is None:
            raise ValueError(
                "shard was run with compute_baseline=False; savings need the "
                "no-pooling baseline"
            )
        return PoolSavings(
            pool_size_sockets=self.pool_size_sockets,
            baseline_dram_gb=self.baseline_required_dram_gb,
            required_local_dram_gb=self.required_local_dram_gb,
            required_pool_dram_gb=self.required_pool_dram_gb,
            average_pool_fraction=self.result.average_pool_fraction,
        )


@dataclass
class FleetResult:
    """Merged view over all shards of one fleet run."""

    shards: List[FleetShardResult] = field(default_factory=list)
    #: Cross-shard pool topology of the run (``None`` for a fleet without
    #: one, where every shard pools alone).
    pool_topology: Optional[PoolTopology] = None
    #: Fleet-level per-group pool peaks (topology runs only), keyed by fleet
    #: group id.  Spanning groups have no owning shard, so their peaks live
    #: here rather than in any shard's ``result.pool_peak_gb``.
    fleet_pool_peak_gb: Optional[Dict[int, float]] = None

    # -- merged per-entity views ----------------------------------------------------
    @property
    def server_peak_local_gb(self) -> Dict[str, float]:
        """Per-server local peaks across the fleet, keyed ``shard/server``."""
        merged: Dict[str, float] = {}
        for shard in self.shards:
            for server_id, peak in shard.result.server_peak_local_gb.items():
                merged[f"{shard.shard_id}/{server_id}"] = peak
        return merged

    @property
    def pool_peak_gb(self) -> Dict[Tuple[str, int], float]:
        """Per-pool-group peaks across the fleet, keyed ``(shard, group)``."""
        merged: Dict[Tuple[str, int], float] = {}
        for shard in self.shards:
            for group, peak in shard.result.pool_peak_gb.items():
                merged[(shard.shard_id, group)] = peak
        return merged

    def results(self) -> Dict[str, SimulationResult]:
        """Per-shard simulation results (e.g. for stranding analysis)."""
        return {shard.shard_id: shard.result for shard in self.shards}

    # -- aggregates -----------------------------------------------------------------
    @property
    def n_vms(self) -> int:
        return sum(s.n_vms for s in self.shards)

    @property
    def placed_vms(self) -> int:
        return sum(s.result.placed_vms for s in self.shards)

    @property
    def rejected_vms(self) -> int:
        return sum(s.result.rejected_vms for s in self.shards)

    @property
    def required_local_dram_gb(self) -> float:
        return sum(s.required_local_dram_gb for s in self.shards)

    @property
    def required_pool_dram_gb(self) -> float:
        """Uniform pool provisioning for the fleet.

        Per-shard groups sum each shard's own uniform requirement; a
        topology that is not per-shard has fleet-owned groups, so the
        requirement comes from the fleet's per-group peaks instead.
        """
        if self.pool_topology is not None and not self.pool_topology.is_per_shard:
            return self.pool_topology.uniform_pool_requirement_gb(
                self.fleet_pool_peak_gb or {}
            )
        return sum(s.required_pool_dram_gb for s in self.shards)

    @property
    def baseline_dram_gb(self) -> float:
        if any(s.baseline_required_dram_gb is None for s in self.shards):
            raise ValueError("fleet was run with compute_baseline=False")
        return sum(s.baseline_required_dram_gb for s in self.shards)

    @property
    def total_run_seconds(self) -> float:
        """Summed pooled-replay seconds across shards (timing, not savings)."""
        return sum(s.run_seconds for s in self.shards)

    @property
    def policy_stats(self) -> PolicyStats:
        """Policy accounting merged across shards."""
        return PolicyStats.merged(shard.policy_stats for shard in self.shards)

    @property
    def online_stats(self) -> OnlineControlStats:
        """Online QoS/mitigation accounting merged across shards.

        All zeros when the fleet ran without ``online=...`` (shards then
        carry no stats) or with mitigation disabled.
        """
        return OnlineControlStats.merged(
            shard.result.online_stats for shard in self.shards)

    @property
    def fault_stats(self) -> FaultImpactStats:
        """EMC fault-impact accounting merged across shards.

        All zeros when the fleet ran without ``faults=...`` (shards then
        carry no stats) or when no scheduled event fired.  Blast radii are
        keyed by fleet group id, so two shards' failure domains stay apart.
        """
        return FaultImpactStats.merged(
            shard.result.fault_stats for shard in self.shards)

    @property
    def savings(self) -> PoolSavings:
        """Fleet DRAM savings: the component-wise sum of the shard savings."""
        if not self.shards:
            raise ValueError("fleet result has no shards")
        total_memory = sum(
            s.result.total_memory_gb_allocated for s in self.shards
        )
        total_pool = sum(s.result.total_pool_gb_allocated for s in self.shards)
        return PoolSavings(
            pool_size_sockets=self.shards[0].pool_size_sockets,
            baseline_dram_gb=self.baseline_dram_gb,
            required_local_dram_gb=self.required_local_dram_gb,
            required_pool_dram_gb=self.required_pool_dram_gb,
            average_pool_fraction=(total_pool / total_memory) if total_memory else 0.0,
        )


@dataclass(frozen=True)
class FleetCapacitySearchResult:
    """Output of :meth:`FleetSimulator.capacity_search`.

    ``savings`` is directly comparable with
    :meth:`PoolDimensioner.evaluate_capacity_search` output (and equal to it
    for a single-shard fleet); the extra fields expose the dimensioning the
    search converged on.
    """

    savings: PoolSavings
    #: The shared uniform per-server DRAM the searches converged on.
    baseline_per_server_gb: float
    pooled_per_server_gb: float
    #: Per-shard pool-blade capacity (GB per pool group), aligned with
    #: ``shard_configs``.  Populated for searches without a topology and
    #: for degenerate per-shard topologies; empty for spanning topologies,
    #: whose provisioning lives in ``pool_capacity_gb_by_group``.
    per_shard_pool_capacity_gb: Tuple[float, ...]
    total_vms: int
    #: Fleet-aggregated rejection budget the constrained replays had to meet.
    rejection_budget: int
    #: Policy accounting merged over the probes this call executed (each
    #: probe re-evaluates the same VMs, and memoised probes are not re-run),
    #: so use the percentage properties, which are invariant to the number
    #: of probes.
    policy_stats: PolicyStats
    #: Cross-shard topology the search provisioned for (``None``: the call
    #: gave none and provisioned per-shard groups at ``pool_size_sockets``).
    pool_topology: Optional[PoolTopology] = None
    #: Per-group provisioned pool capacity for topology searches, keyed by
    #: fleet group id (uniform within each provisioning domain).
    pool_capacity_gb_by_group: Optional[Dict[int, float]] = None
    #: Speculative-probe accounting of this call (parallel searches only;
    #: ``None`` for sequential searches).  Purely diagnostic -- speculation
    #: never changes probe verdicts or the returned dimensioning.
    speculation: Optional[SpeculationStats] = field(
        default=None, compare=False
    )


def _shard_trace_input(cfg: TraceGenConfig, trace: Optional[TraceInput],
                       stream_chunk_size: Optional[int]) -> TraceInput:
    """Resolve a shard's replay input: supplied trace/stream, lazy stream,
    or (the legacy default) a freshly materialised trace."""
    if trace is not None:
        return trace
    if stream_chunk_size is not None:
        return TraceGenerator(cfg).stream(stream_chunk_size)
    return TraceGenerator(cfg).generate_bulk()


def _same_traces(traces: Optional[Sequence[TraceInput]],
                 key: Optional[Sequence[TraceInput]]) -> bool:
    """Whether ``traces`` is the input set the capacity memos were built
    for: both the fleet's own inputs (``None``), or the same objects."""
    if traces is None or key is None:
        return traces is key
    return len(traces) == len(key) and all(
        a is b for a, b in zip(traces, key))


def _run_component(
    topology: PoolTopology,
    fleet_ids: Tuple[int, ...],
    shards: Tuple[int, ...],
    configs: Sequence[TraceGenConfig],
    traces: Sequence[Optional[TraceInput]],
    factory: Optional[PolicyFactory],
    capacity: Union[float, Dict[int, float]],
    constrain_memory: bool,
    sample_interval_s: float,
    batch: bool = True,
    online: Optional[OnlineControlConfig] = None,
    faults: Optional[FaultSchedule] = None,
    stream_chunk_size: Optional[int] = None,
    compute_baseline: bool = False,
    baselines: Optional[Sequence[Optional[float]]] = None,
) -> Tuple[List[FleetShardResult], Dict[int, float]]:
    """Replay one pool-connected component of a fleet on its own, then
    each requested no-pooling baseline on the same input (module-level, so
    a process pool can pickle it).  A component shares no pool group with
    the rest of the fleet, so this is exactly its slice of a whole-fleet
    replay.  ``topology`` is the component's own (groups ``0 .. k-1``);
    ``fleet_ids`` maps them to the fleet ids that a ``capacity`` dict,
    ``faults``, the returned pool peaks and the blast radii use.
    """
    inputs = [_shard_trace_input(cfg, trace, stream_chunk_size)
              for cfg, trace in zip(configs, traces)]
    policies = [factory(shard) if factory is not None else None
                for shard in shards]
    replay_policies = [
        policy.__call__
        if not batch and hasattr(policy, "decide_batch") else policy
        for policy in policies
    ]
    if isinstance(capacity, dict):
        capacity = {local: capacity[g] for local, g in enumerate(fleet_ids)}
    if faults is not None:
        local = {g: i for i, g in enumerate(fleet_ids)}
        faults = FaultSchedule(
            [replace(e, group=local[e.group]) for e in faults
             if e.group in local],
            migration_retry_budget=faults.migration_retry_budget)
    start = time.perf_counter()
    results, ledger = replay_crossshard(
        inputs, replay_policies, [cfg.n_servers for cfg in configs],
        [cfg.server_config for cfg in configs], topology, capacity,
        constrain_memory, sample_interval_s, online=online, faults=faults,
    )
    # A component's shards replay interleaved: they share its wall-clock.
    run_seconds = (time.perf_counter() - start) / len(inputs)
    fleet_shards = []
    for shard, cfg, trace, result, policy, baseline in zip(
            shards, configs, inputs, results, policies,
            baselines or [None] * len(shards)):
        if baseline is None and compute_baseline:
            # The same input on an unpooled, memory-unconstrained cluster.
            (unpooled,), _peaks = _run_component(
                PoolTopology.per_shard([cfg.n_servers],
                                       cfg.server_config.sockets, 0),
                (), (shard,), (cfg,), (trace,), None, float("inf"), False,
                sample_interval_s)
            baseline = unpooled.result.uniform_required_local_dram_gb
        if result.fault_stats is not None:
            result.fault_stats.blast_radius_by_group = {
                fleet_ids[g]: n
                for g, n in result.fault_stats.blast_radius_by_group.items()}
        fleet_shards.append(FleetShardResult(
            shard_id=cfg.cluster_id,
            shard_index=shard,
            # Every record is either placed or rejected, so this equals the
            # trace length -- without needing a __len__, which streams
            # don't have.
            n_vms=result.placed_vms + result.rejected_vms,
            n_servers=cfg.n_servers,
            sockets_per_server=cfg.server_config.sockets,
            pool_size_sockets=topology.pool_size_sockets,
            result=result,
            baseline_required_dram_gb=baseline,
            policy_stats=getattr(policy, "stats", None),
            run_seconds=run_seconds,
        ))
    return fleet_shards, {fleet_ids[g]: peak
                          for g, peak in ledger.peak_gb.items()}


# -- capacity-search probes ------------------------------------------------------------
@dataclass(frozen=True)
class CapacityProbeOutcome:
    """Everything a capacity search needs from one component replay.

    A probe worker returns this instead of the full
    :class:`~repro.cluster.simulator.SimulationResult` list so
    cross-process traffic stays tiny regardless of trace size.
    """

    placed_vms: int
    rejected_vms: int
    #: Per-group pool peaks, keyed by fleet group id.
    pool_peak_gb: Dict[int, float]
    #: Pool and total memory allocated per shard of the component, in its
    #: shard order (the search sums them in fleet shard order).
    pool_gb: Tuple[float, ...]
    memory_gb: Tuple[float, ...]
    #: Policy accounting of this probe (the policies are built per probe,
    #: so these are per-probe deltas).
    policy_stats: Optional[PolicyStats] = field(default=None, compare=False)


#: One probe: ``(policy_factory, topology, component, caps_items, dram)``.
#: ``component`` is one of ``topology.components``; ``caps_items`` (sorted
#: ``(fleet group, GB)`` pairs) is the provisioned pool, ``None`` for an
#: unlimited one; ``dram`` is the candidate per-server DRAM, ``None`` for a
#: memory-unconstrained replay of the shards' own servers.
ProbeTask = Tuple[Optional[PolicyFactory], PoolTopology, Tuple[int, ...],
                  Optional[Tuple[Tuple[int, float], ...]], Optional[float]]

#: Per-process probe inputs, set by the pool initializer (the heavy shard
#: inputs ship once per worker, not per probe; policy factories -- tiny
#: picklables -- travel with each task so one session serves every policy
#: of a study grid).
_PROBE_STATE: dict = {}


def _probe_init(state: dict) -> None:
    _PROBE_STATE.update(state)


def _run_probe(task: ProbeTask,
               state: Optional[dict] = None) -> CapacityProbeOutcome:
    """Replay one pool-connected component of ``task``'s topology
    (:func:`_run_component`), on the candidate server of size ``dram``
    when one is given.  Policies are built per probe, which makes the
    returned ``policy_stats`` a clean per-probe delta.  ``state`` is the
    inline session's copy of the worker state.
    """
    factory, topology, component, caps_items, dram = task
    if state is None:
        state = _PROBE_STATE
    configs = [state["shard_configs"][shard] for shard in component]
    if dram is not None:
        server = capacity_candidate_config(configs[0].server_config, dram)
        configs = [replace(cfg, server_config=server) for cfg in configs]
    shards, peaks = _run_component(
        *topology.component_topology(component), component, configs,
        [state["inputs"][shard] for shard in component], factory,
        float("inf") if caps_items is None else dict(caps_items),
        dram is not None, state["sample_interval_s"],
    )
    merged = FleetResult(shards=shards)
    return CapacityProbeOutcome(
        placed_vms=merged.placed_vms,
        rejected_vms=merged.rejected_vms,
        pool_peak_gb=peaks,
        pool_gb=tuple(s.result.total_pool_gb_allocated for s in shards),
        memory_gb=tuple(s.result.total_memory_gb_allocated for s in shards),
        policy_stats=merged.policy_stats,
    )


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Finalizer-safe executor shutdown (no session references captured)."""
    executor.shutdown(wait=False, cancel_futures=True)


def _decision_state(obj):
    """``obj``'s pickle payload with its ``stats`` accounting stripped."""
    getstate = getattr(obj, "__getstate__", None)
    if getstate is not None:
        state = getstate()
    else:
        state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        return (type(obj).__module__, type(obj).__qualname__,
                {k: v for k, v in state.items() if k != "stats"})
    return obj


def _probe_fingerprint(obj) -> Optional[bytes]:
    """Value-based fingerprint of a policy factory or topology for memo keys.

    Reused sessions memoise probe outcomes across calls, so the key must
    change when an object is *mutated in place* between searches -- an
    identity token would silently serve the pre-mutation outcome.  The
    fingerprint pickles the object's state with the ``stats`` accounting
    stripped, also from the arguments a ``functools.partial`` factory binds
    (stats accumulate during probing but never influence decisions, so
    including them would spuriously invalidate every memo).  Returns
    ``None`` when the object cannot be fingerprinted (unpicklable state);
    callers fall back to a pinned identity token.
    """
    if obj is None:
        return None
    try:
        if isinstance(obj, functools.partial):
            payload = (obj.func, tuple(map(_decision_state, obj.args)),
                       obj.keywords)
        else:
            payload = _decision_state(obj)
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


#: Adaptive speculation-depth bounds (see ``_ProbeSession._adaptive_depth``).
_SPEC_DEPTH_MIN = 1
_SPEC_DEPTH_MAX = 4
_SPEC_DEPTH_INITIAL = 2
#: Issued probes per adaptation window.
_SPEC_WINDOW = 8


class _ProbeSession:
    """Memoised capacity-search probes, inline or on a process pool.

    A probe replays one pool-connected component of a topology
    (:func:`_run_probe`); a candidate DRAM size is one probe per component.
    Probes are memoised on ``(factory token, topology token, component,
    caps, dram)``.  Tokens are value-based (:func:`_probe_fingerprint`), so
    mutating a factory between searches changes its key instead of serving
    a stale outcome; unpicklable objects fall back to a pinned identity
    token, which cannot see in-place mutation.

    With ``max_workers > 1`` the probes run on a process pool: the pool
    initializer ships the shard inputs once, factories ride along with
    each task, :meth:`submit` starts the probes the search will need
    without blocking, and :meth:`prefetch` speculates the bisection's next
    candidates.  Otherwise :meth:`outcome` replays inline.  Both modes see
    the same outcomes; the pool only changes *when* probes run.

    ``FleetSimulator`` keeps one session per trace-input set and fleet
    configuration, so memoised outcomes survive across ``capacity_search``
    calls (probes are deterministic per key).  ``close()`` is idempotent,
    and a ``weakref.finalize`` guard shuts the pool down if the session is
    dropped unclosed.

    The pool initializer hands every worker the full shard-input list.
    Under the fork start method (Linux, the deployment target) that is
    copy-on-write, but under spawn each worker deserialises its own copy,
    so memory-constrained spawn platforms should prefer
    ``stream_chunk_size`` (lazy streams are tiny to ship) over
    pregenerated materialised traces.
    """

    def __init__(self, shard_configs: Sequence[TraceGenConfig],
                 inputs: Sequence[TraceInput], sample_interval_s: float,
                 max_workers: Optional[int]) -> None:
        self._state = dict(shard_configs=list(shard_configs),
                           inputs=list(inputs),
                           sample_interval_s=sample_interval_s)
        self._outcomes: Dict[tuple, CapacityProbeOutcome] = {}
        self._futures: Dict[tuple, object] = {}
        #: fallback identity tokens for un-fingerprintable objects (strong
        #: refs pin them so ids are never recycled; in-place mutation is
        #: then indistinguishable, which is the best an identity key can do).
        self._id_tokens: Dict[int, tuple] = {}
        self._pinned: list = []
        #: probe-stat deltas not yet drained, keyed by factory token.
        self._pending_stats: Dict[object, list] = {}
        #: speculative submits not yet consumed by an ``outcome`` call.
        self._spec_keys: set = set()
        self._spec_issued = 0
        self._spec_hits = 0
        #: adaptive speculation depth, kept warm across calls (the
        #: workload's hit profile rarely changes between calls).
        self._spec_depth = _SPEC_DEPTH_INITIAL
        self._spec_window_issued = 0
        self._spec_window_hits = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._max_inflight = 0
        if max_workers is not None and max_workers > 1:
            self._executor = ProcessPoolExecutor(
                max_workers=max_workers, initializer=_probe_init,
                initargs=(self._state,),
            )
            self._max_inflight = max(2 * max_workers, 2 * len(inputs))
            self._finalizer = weakref.finalize(
                self, _shutdown_executor, self._executor)

    @property
    def parallel(self) -> bool:
        return self._executor is not None

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

    def _key(self, task: ProbeTask) -> tuple:
        factory, topology, component, caps_items, dram = task
        # key[0] is the factory token, which _pending_stats is keyed on.
        return (self._token(factory), self._token(topology), component,
                caps_items, dram)

    def _inflight(self) -> int:
        return sum(1 for f in self._futures.values() if not f.done())

    # -- probes ---------------------------------------------------------------------
    def submit(self, task: ProbeTask, speculative: bool = False) -> None:
        """Start one probe on the pool without blocking (inline: no-op).

        Deliberately uncapped: the search blocks on what it submits here;
        only :meth:`prefetch` throttles, and marks its submits
        ``speculative`` for the adaptive controller's accounting.
        """
        if self._executor is None:
            return
        key = self._key(task)
        if key in self._outcomes or key in self._futures:
            return
        self._futures[key] = self._executor.submit(_run_probe, task)
        if speculative:
            self._spec_keys.add(key)
            self._spec_issued += 1
            self._spec_window_issued += 1

    def outcome(self, task: ProbeTask) -> CapacityProbeOutcome:
        """Blocking probe result (memoised)."""
        key = self._key(task)
        if key in self._spec_keys:
            self._spec_keys.discard(key)
            self._spec_hits += 1
            self._spec_window_hits += 1
        cached = self._outcomes.get(key)
        if cached is None:
            future = self._futures.pop(key, None)
            if future is not None:
                cached = future.result()
            elif self._executor is not None:
                cached = self._executor.submit(_run_probe, task).result()
            else:
                cached = _run_probe(task, self._state)
            self._outcomes[key] = cached
            if cached.policy_stats is not None and key[0] is not None:
                self._pending_stats.setdefault(key[0], []).append(
                    cached.policy_stats)
        return cached

    def outcomes(self, factory: Optional[PolicyFactory],
                 topology: PoolTopology, caps_items,
                 dram: Optional[float]) -> Iterator[CapacityProbeOutcome]:
        """One candidate's component outcomes, in shard order; every
        component is submitted before the first is awaited."""
        tasks = [(factory, topology, component, caps_items, dram)
                 for component in topology.components]
        for task in tasks:
            self.submit(task)
        return (self.outcome(task) for task in tasks)

    def rejections(self, factory: Optional[PolicyFactory],
                   topology: PoolTopology, caps_items, budget: int,
                   dram: float) -> int:
        """One candidate's fleet rejections, summed over the components in
        shard order.  The sum stops once it exceeds ``budget`` -- the
        verdict is already known -- so later components of a clearly
        infeasible candidate are not waited for (nor, inline, replayed)."""
        total = 0
        for outcome in self.outcomes(factory, topology, caps_items, dram):
            total += outcome.rejected_vms
            if total > budget:
                break
        return total

    def prefetch(self, factory: Optional[PolicyFactory],
                 topology: PoolTopology, caps_items,
                 lo: float, hi: float) -> None:
        """Speculatively submit the bisection tree under ``(lo, hi)``.

        Breadth-first: the midpoint the search will probe next goes in
        first, then both candidates it could probe after, and so on --
        whichever way each verdict lands, the following probe is already
        running.  Mis-speculated candidates stay memoised in case a later
        interval revisits them.  A candidate costs one probe per component
        (the controller's fanout).  Inline sessions do not speculate.
        """
        if self._executor is None:
            return
        components = topology.components
        frontier = [(lo, hi)]
        for _ in range(self._adaptive_depth(len(components))):
            next_frontier = []
            for low, high in frontier:
                if self._inflight() >= self._max_inflight:
                    return
                mid = (low + high) / 2.0
                for component in components:
                    self.submit((factory, topology, component, caps_items,
                                 mid), speculative=True)
                next_frontier.append((low, mid))
                next_frontier.append((mid, high))
            frontier = next_frontier

    def _adaptive_depth(self, fanout: int) -> int:
        """Current speculative-bisection depth.

        Hit-rate driven: every ``_SPEC_WINDOW`` issued probes, the depth
        deepens when speculation keeps paying off and backs off when most
        speculated probes go unused.  Occupancy guarded: the frontier a
        depth implies (``(2**depth - 1) * fanout`` probes, ``fanout`` =
        probes per candidate) is shrunk to what the pool's idle capacity
        can absorb, so speculation never starves the probe the search
        blocks on next.  Depth changes which probes are *warm*, never which
        verdicts the search sees -- probes are deterministic and memoised.
        """
        if self._spec_window_issued >= _SPEC_WINDOW:
            rate = self._spec_window_hits / self._spec_window_issued
            if rate >= 0.5 and self._spec_depth < _SPEC_DEPTH_MAX:
                self._spec_depth += 1
            elif rate < 0.2 and self._spec_depth > _SPEC_DEPTH_MIN:
                self._spec_depth -= 1
            self._spec_window_issued = 0
            self._spec_window_hits = 0
        idle = max(0, self._max_inflight - self._inflight())
        depth = self._spec_depth
        while depth > _SPEC_DEPTH_MIN and \
                (2 ** depth - 1) * fanout > max(idle, fanout):
            depth -= 1
        return depth

    # -- accounting -----------------------------------------------------------------
    def drain_stats(self, factory: Optional[PolicyFactory]) -> PolicyStats:
        """Merge (and clear) the stat deltas of ``factory``'s new probes.

        Draining keeps reused sessions honest: a probe memoised by an
        earlier call contributed its stats to *that* call's result and is
        not counted again.
        """
        return PolicyStats.merged(
            self._pending_stats.pop(self._token(factory), []))

    def drain_speculation_stats(self) -> SpeculationStats:
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

    # -- lifecycle ------------------------------------------------------------------
    def close(self) -> None:
        if self._executor is not None:
            self._finalizer.detach()
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._futures.clear()


def bisect_min_dram(hi: float, steps: int, budget: int,
                    rejections: Callable[[float], int],
                    prefetch: Optional[Callable[[float, float], None]] = None,
                    widen_rounds: int = 4) -> float:
    """Smallest per-server DRAM (after ``steps`` bisections) within budget.

    ``rejections(dram)`` is a blocking probe; ``prefetch(lo, hi)`` is an
    optional non-blocking hint that warms candidates the search may need
    next (speculative bisection).  The probe *sequence* is a pure function
    of the deterministic, memoised rejection counts, which is why parallel
    and sequential searches return identical results.
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


class FleetSimulator:
    """Shards a fleet workload across cluster simulations.

    Each shard is one cluster with its own trace (materialised, or streamed
    with ``stream_chunk_size``) and policy instance.  ``pool_topology`` maps
    servers to fleet pool groups that may span shards; without one, every
    shard pools alone at ``pool_size_sockets``.  :meth:`run`,
    :meth:`compute_baselines` and :meth:`capacity_search` replay one
    pool-connected component per task, inline or, with ``max_workers >
    1``, on a process pool (DESIGN.md sections 3-5, 7 and 8).

    Reusable executors (the component-task pool and the capacity-search
    probe session) stay alive across calls; ``close()`` -- or using the
    fleet as a context manager -- releases them.

    Worked example -- a streamed 4-cluster savings study::

        base = TraceGenConfig(n_servers=32, duration_days=3.0)
        fleet = FleetSimulator.sharded(
            4, base, pool_size_sockets=16, stream_chunk_size=8192
        )
        result = fleet.run(pond_policy_factory(operating_point))
        print(result.savings.savings_percent)   # summed across shards

        search = fleet.capacity_search(pond_policy_factory(operating_point))
        print(search.savings.savings_percent)   # constrained-replay variant
    """

    def __init__(
        self,
        shard_configs: Sequence[TraceGenConfig],
        pool_size_sockets: int = 0,
        pool_capacity_gb_per_group: float = float("inf"),
        constrain_memory: bool = False,
        sample_interval_s: float = 3600.0,
        max_workers: Optional[int] = None,
        stream_chunk_size: Optional[int] = None,
        pool_topology: Optional[PoolTopology] = None,
    ) -> None:
        if not shard_configs:
            raise ValueError("need at least one shard config")
        ids = [cfg.cluster_id for cfg in shard_configs]
        if len(set(ids)) != len(ids):
            raise ValueError("shard cluster_ids must be unique")
        if stream_chunk_size is not None and stream_chunk_size < 1:
            raise ValueError("stream_chunk_size must be >= 1")
        self.shard_configs = list(shard_configs)
        if pool_topology is not None:
            self._validate_topology(pool_topology, self.shard_configs)
            if pool_size_sockets not in (0, pool_topology.pool_size_sockets):
                raise ValueError(
                    f"pool_size_sockets={pool_size_sockets} conflicts with "
                    f"the topology's {pool_topology.pool_size_sockets}"
                )
            pool_size_sockets = pool_topology.pool_size_sockets
        #: Cross-shard pool topology; ``None``: every shard pools alone at
        #: ``pool_size_sockets``.
        self.pool_topology = pool_topology
        self.pool_size_sockets = pool_size_sockets
        self.pool_capacity_gb_per_group = pool_capacity_gb_per_group
        self.constrain_memory = constrain_memory
        self.sample_interval_s = sample_interval_s
        self.max_workers = max_workers
        self.stream_chunk_size = stream_chunk_size
        # capacity_search memos -- (core rejections, total VMs) and the
        # no-pool baseline per (search_steps, rejection_tolerance) -- both
        # pool-size- and policy-independent, so a Figure-21-style grid pays
        # for them once instead of once per cell.  Valid per trace-input set:
        # ``_capacity_cache_key`` holds the traces they were computed for
        # (``None`` = the fleet's own deterministic inputs) by strong
        # reference, so their identities cannot be recycled while cached.
        self._capacity_cache_key: Optional[Sequence[TraceInput]] = None
        self._capacity_core_stats: Optional[Tuple[int, int]] = None
        self._capacity_baseline_cache: Dict[Tuple[int, float], float] = {}
        # Reusable executors (ROADMAP: probe-pool sessions survive across
        # calls).  ``_capacity_inputs`` caches the resolved per-shard replay
        # inputs alongside the memos above, so a reused probe session and a
        # repeated capacity_search agree on input identity; ``close()`` (or
        # the context-manager exit) releases everything.
        self._capacity_inputs: Optional[List[TraceInput]] = None
        self._probe_session: Optional[_ProbeSession] = None
        self._probe_session_fingerprint: Optional[tuple] = None
        self._shard_pool: Optional[ProcessPoolExecutor] = None

    @staticmethod
    def _validate_topology(topology: PoolTopology,
                           shard_configs: Sequence[TraceGenConfig]) -> None:
        sizes = tuple(cfg.n_servers for cfg in shard_configs)
        if topology.shard_sizes != sizes:
            raise ValueError(
                f"topology maps shard sizes {topology.shard_sizes}, fleet "
                f"has {sizes}"
            )
        server_config = shard_configs[0].server_config
        if any(cfg.server_config != server_config for cfg in shard_configs):
            raise ValueError(
                "cross-shard pool topologies require a homogeneous "
                "ServerConfig across shards"
            )
        if topology.sockets_per_server != server_config.sockets:
            raise ValueError(
                f"topology assumes {topology.sockets_per_server} sockets per "
                f"server, shard configs have {server_config.sockets}"
            )

    # -- lifecycle -------------------------------------------------------------------
    def close(self) -> None:
        """Shut down reusable executors and drop cached capacity inputs.

        Idempotent; the fleet remains usable afterwards (executors and
        sessions are recreated lazily on the next call).
        """
        self._close_probe_session()
        if self._shard_pool is not None:
            self._shard_pool_finalizer.detach()
            self._shard_pool.shutdown(wait=True, cancel_futures=True)
            self._shard_pool = None
        self._capacity_inputs = None
        self._capacity_cache_key = None
        self._capacity_core_stats = None
        self._capacity_baseline_cache = {}

    def __enter__(self) -> "FleetSimulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def sharded(cls, n_shards: int, base_config: TraceGenConfig,
                **kwargs) -> "FleetSimulator":
        """Homogeneous fleet: ``n_shards`` copies of ``base_config`` with
        per-shard cluster ids and seeds (``base seed + index``)."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        configs = [
            replace(
                base_config,
                cluster_id=f"{base_config.cluster_id}-shard-{i:03d}",
                region=f"region-{i % 3}",
                seed=base_config.seed + i,
            )
            for i in range(n_shards)
        ]
        return cls(configs, **kwargs)

    @classmethod
    def utilization_sweep(cls, n_shards: int, base_config: TraceGenConfig,
                          utilization_range: Sequence[float] = (0.55, 0.95),
                          seed: int = 3, **kwargs) -> "FleetSimulator":
        """Fleet with utilisation spread over ``utilization_range`` (the
        Figure 2a fleet shape; mirrors ``tracegen.generate_fleet``)."""
        configs = fleet_shard_configs(n_shards, base_config, utilization_range, seed)
        return cls(configs, **kwargs)

    # -- execution -------------------------------------------------------------------
    def generate_traces(self) -> List[ClusterTrace]:
        """Pregenerate every shard's trace (serially, in this process)."""
        return [TraceGenerator(cfg).generate_bulk() for cfg in self.shard_configs]

    def compute_baselines(
        self, traces: Optional[Sequence[TraceInput]] = None
    ) -> List[float]:
        """No-pooling uniform baseline per shard, for reuse across runs.

        The baseline replay is pool-independent, so callers sweeping several
        pool sizes or policies over the same traces should compute it once
        here and pass it to :meth:`run` via ``baselines`` instead of letting
        every run repeat it per shard.
        """
        shards, _peaks = self._run_components(
            0, traces, factory=None, capacity=float("inf"),
            constrain_memory=False)
        return [shard.result.uniform_required_local_dram_gb
                for shard in shards]

    def run(
        self,
        policy_factory: Optional[PolicyFactory] = None,
        traces: Optional[Sequence[TraceInput]] = None,
        batch: bool = True,
        compute_baseline: Optional[bool] = None,
        baselines: Optional[Sequence[float]] = None,
        online: Optional[OnlineControlConfig] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> FleetResult:
        """Run every pool-connected component and merge the results.

        ``traces`` optionally supplies pregenerated shard traces (aligned
        with ``shard_configs``); otherwise each task generates its own,
        which parallelises generation under a process pool.  ``batch``
        selects the vectorized ``decide_batch`` path (default) or forces the
        legacy per-VM callback.  ``compute_baseline`` adds a no-pooling
        baseline replay per shard so savings can be computed; it defaults to
        on exactly when the fleet pools memory.  ``baselines`` supplies
        precomputed per-shard baselines (see :meth:`compute_baselines`) and
        skips those replays entirely.  ``online`` activates the online
        QoS/mitigation stage in every pooled replay; per-shard accounting
        lands on each ``shard.result.online_stats``.  ``faults`` injects a
        seeded EMC fault schedule (see :mod:`repro.cluster.faults`) on fleet
        group ids; without a topology, an event names group ``group`` of
        shard ``shard`` instead, numbered as in :meth:`PoolTopology.per_shard`
        (an unknown one raises ``ValueError``).  Impact accounting lands on
        each ``shard.result.fault_stats``, blast radii by fleet group id.
        A component's shards share its replay's wall-clock evenly as
        ``run_seconds``; under a topology that is not per-shard their
        ``pool_peak_gb`` is ``{}`` (read ``fleet_pool_peak_gb``).
        """
        if compute_baseline is None:
            compute_baseline = bool(self.pool_size_sockets)
        topology = self.pool_topology
        shards, peaks = self._run_components(
            self.pool_size_sockets, traces, baselines, faults,
            compute_baseline=compute_baseline, factory=policy_factory,
            capacity=self.pool_capacity_gb_per_group,
            constrain_memory=self.constrain_memory, batch=batch,
            online=online,
        )
        if topology is not None and not topology.is_per_shard:
            for shard in shards:
                shard.result.pool_peak_gb = {}
        return FleetResult(shards=shards, pool_topology=topology,
                           fleet_pool_peak_gb=None if topology is None
                           else dict(sorted(peaks.items())))

    def _run_components(
        self,
        pool_size_sockets: int,
        traces: Optional[Sequence[TraceInput]],
        baselines: Optional[Sequence[float]] = None,
        faults: Optional[FaultSchedule] = None,
        **settings,
    ) -> Tuple[List[FleetShardResult], Dict[int, float]]:
        """:func:`_run_component` on every pool-connected component, inline
        or on the shard pool.  Without a topology (or a pool), every shard
        is its own component, numbered as in :meth:`PoolTopology.per_shard`
        -- per shard, so shards of different ``ServerConfig`` keep working.
        """
        for name, items in (("traces", traces), ("baselines", baselines)):
            if items is not None and len(items) != len(self.shard_configs):
                raise ValueError(f"got {len(items)} {name} for "
                                 f"{len(self.shard_configs)} shards")
        topology = self.pool_topology
        if topology is not None and pool_size_sockets:
            parts = [(*topology.component_topology(component), component)
                     for component in topology.components]
            fleet_id = {g: g for g in range(topology.n_groups)}
        else:
            parts, fleet_id = [], {}
            for shard, cfg in enumerate(self.shard_configs):
                sub = PoolTopology.per_shard(
                    [cfg.n_servers], cfg.server_config.sockets,
                    pool_size_sockets)
                ids = tuple(range(len(fleet_id), len(fleet_id) + sub.n_groups))
                fleet_id.update(((shard, g), i) for g, i in enumerate(ids))
                parts.append((sub, ids, (shard,)))
        if faults is not None:
            try:
                settings["faults"] = FaultSchedule(
                    [replace(e, group=fleet_id[
                        e.group if topology is not None else (e.shard, e.group)])
                     for e in faults],
                    migration_retry_budget=faults.migration_retry_budget)
            except KeyError as missing:
                raise ValueError(f"fault schedule names pool group {missing}"
                                 ", which this fleet does not have") from None
        tasks = [
            functools.partial(
                _run_component, sub, fleet_ids, members,
                [self.shard_configs[s] for s in members],
                [traces[s] if traces is not None else None for s in members],
                sample_interval_s=self.sample_interval_s,
                stream_chunk_size=self.stream_chunk_size,
                baselines=None if baselines is None
                else [baselines[s] for s in members],
                **settings,
            )
            for sub, fleet_ids, members in parts
        ]
        if self.max_workers and self.max_workers > 1 and len(tasks) > 1:
            if self._shard_pool is None:
                # Kept alive across calls (a pool per call would pay worker
                # startup on every cell of a study grid); the finalizer
                # stops fleets dropped without close() from leaking workers.
                self._shard_pool = ProcessPoolExecutor(self.max_workers)
                self._shard_pool_finalizer = weakref.finalize(
                    self, _shutdown_executor, self._shard_pool)
            try:
                futures = [self._shard_pool.submit(task) for task in tasks]
                outputs = [future.result() for future in futures]
            except BaseException:
                # Executor hardening: never leave a reusable pool in an
                # unknown state after a failure -- tear it down (a later
                # call recreates it lazily).
                self.close()
                raise
        else:
            outputs = [task() for task in tasks]
        shards = sorted((shard for part, _peaks in outputs for shard in part),
                        key=lambda shard: shard.shard_index)
        peaks = {g: peak for _part, part_peaks in outputs
                 for g, peak in part_peaks.items()}
        return shards, peaks

    # -- fleet-level capacity search ---------------------------------------------------
    def _ensure_probe_session(
        self, inputs: Sequence[TraceInput]
    ) -> _ProbeSession:
        """The reusable probe session for the cached inputs.

        One session serves every ``capacity_search`` call over the same
        trace-input set -- worker spawn and trace shipping are paid once per
        grid, not once per cell -- and is invalidated (closed and rebuilt)
        when the fleet configuration changes.  Input-set changes are handled
        by the caller alongside the capacity memos.
        """
        fingerprint = (
            tuple(self.shard_configs), self.sample_interval_s,
            self.max_workers,
        )
        if (self._probe_session is not None
                and self._probe_session_fingerprint == fingerprint):
            return self._probe_session
        self._close_probe_session()
        self._probe_session = _ProbeSession(
            self.shard_configs, inputs, self.sample_interval_s,
            self.max_workers,
        )
        self._probe_session_fingerprint = fingerprint
        return self._probe_session

    def _close_probe_session(self) -> None:
        if self._probe_session is not None:
            self._probe_session.close()
            self._probe_session = None
            self._probe_session_fingerprint = None

    def capacity_search(
        self,
        policy_factory: Optional[PolicyFactory] = None,
        traces: Optional[Sequence[TraceInput]] = None,
        search_steps: int = 7,
        rejection_tolerance: float = 0.002,
        pool_headroom: float = 1.05,
        pool_size_sockets: Optional[int] = None,
        pool_topology: Optional[PoolTopology] = None,
    ) -> FleetCapacitySearchResult:
        """The constrained capacity search: smallest shared server DRAM.

        Servers are bought with **one** DRAM configuration fleet-wide, so the
        binary search probes a *shared* candidate per-server DRAM size across
        every shard and aggregates the verdict: a candidate is feasible when
        the fleet's memory-constrained replays reject no more VMs than one
        fleet-wide budget (core-only rejections plus
        ``max(1, rejection_tolerance * total_vms)``).  The algorithm
        (DESIGN.md section 5):

        1. one memory-unconstrained unpooled replay fixes the rejection
           budget;
        2. binary search the smallest shared per-server DRAM with no pooling
           -- the baseline;
        3. one memory-unconstrained *pooled* replay provisions every pool
           group at ``pool_headroom`` times its provisioning domain's worst
           observed peak;
        4. binary search the smallest shared per-server DRAM with those
           pools in place.

        Every replay runs over a pool topology: ``pool_topology`` (per
        call, or set on the fleet), else ``PoolTopology.per_shard`` at
        ``pool_size_sockets`` (which overrides the fleet's pool size for
        this call), and the unpooled per-shard topology for steps 1-2.  A
        probe replays one **pool-connected component** of the topology --
        the shards linked by shared groups, so one shard per component for
        per-shard topologies and seam-free spanning ones -- and a
        candidate's verdict sums the components in shard order.  Probes
        are memoised per component and candidate; sequential searches stop
        summing once the budget is exceeded, so later components of a
        clearly infeasible candidate are never replayed.  With
        ``stream_chunk_size`` set (and no pregenerated ``traces``), every
        probe replays lazy streams and the search never materialises a
        shard trace.

        With ``max_workers > 1`` the probes run on a process pool: the
        independent up-front replays (rejection budget, baseline upper
        bound, pool provisioning) start together, every component of a
        candidate runs concurrently, and the bisections speculate their
        bracketing candidates (:func:`bisect_min_dram`).  Parallel and
        sequential searches return identical savings and dimensioning --
        the search path is a pure function of the deterministic
        per-candidate rejection counts.  ``policy_stats`` is a diagnostic
        aggregate over the probes newly executed by this call (a probe
        memoised by an earlier call is not counted again), and
        ``speculation`` is ``None`` for sequential searches.

        The pool-independent work (the rejection budget and the no-pool
        baseline search) is memoised per trace-input set, so a pool-size
        sweep over one ``FleetSimulator`` pays for it once.  The fleet's
        own inputs are deterministic per config; supplied ``traces`` are
        tracked by identity (strong references).  The probe session and
        its memoised outcomes survive across calls until the trace-input
        set or the fleet configuration changes (or :meth:`close`), so a
        Figure-21-style grid pays worker spawn and trace shipping once;
        any exception tears the session down before propagating.

        All shards must share one ``ServerConfig``: uniform fleet
        provisioning is the premise of the search.  For a single-shard
        fleet this is exactly ``PoolDimensioner.evaluate_capacity_search``
        (which is a call on a one-shard fleet).  Classic calls (no
        topology) report ``pool_topology=None`` and per-shard pool
        capacities; spanning topologies report their provisioning in
        ``pool_capacity_gb_by_group`` only.
        """
        if search_steps < 1:
            raise ValueError("search_steps must be >= 1")
        if rejection_tolerance < 0:
            raise ValueError("rejection_tolerance cannot be negative")
        if pool_headroom < 1.0:
            raise ValueError("pool_headroom must be >= 1.0")
        if traces is not None and len(traces) != len(self.shard_configs):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.shard_configs)} shards"
            )
        server_config = self.shard_configs[0].server_config
        if any(cfg.server_config != server_config for cfg in self.shard_configs):
            raise ValueError(
                "capacity_search requires a homogeneous ServerConfig across "
                "shards (servers are provisioned with one DRAM size fleet-wide)"
            )
        sizes = [cfg.n_servers for cfg in self.shard_configs]
        topology = pool_topology if pool_topology is not None \
            else self.pool_topology
        if topology is not None:
            self._validate_topology(topology, self.shard_configs)
            if pool_size_sockets is not None \
                    and pool_size_sockets != topology.pool_size_sockets:
                raise ValueError(
                    f"pool_size_sockets={pool_size_sockets} conflicts with "
                    f"the topology's {topology.pool_size_sockets}"
                )
            pool_size = topology.pool_size_sockets
        else:
            pool_size = self.pool_size_sockets if pool_size_sockets is None \
                else pool_size_sockets
        unpooled = PoolTopology.per_shard(sizes, server_config.sockets, 0)
        pooled = topology if topology is not None else \
            PoolTopology.per_shard(sizes, server_config.sockets, pool_size)

        if not _same_traces(traces, self._capacity_cache_key):
            self._capacity_cache_key = None if traces is None else list(traces)
            self._capacity_core_stats = None
            self._capacity_baseline_cache = {}
            # The probe session shipped the previous input set to its
            # workers; a new input set invalidates both.
            self._capacity_inputs = None
            self._close_probe_session()
        # Per-shard replay inputs, resolved once per input set and cached so
        # repeated searches (and the reusable probe session) agree on input
        # identity: a pregenerated trace, a re-iterable lazy stream, or a
        # materialised trace (legacy default).
        if self._capacity_inputs is None:
            self._capacity_inputs = [
                _shard_trace_input(
                    cfg, traces[i] if traces is not None else None,
                    self.stream_chunk_size,
                )
                for i, cfg in enumerate(self.shard_configs)
            ]
        session = self._ensure_probe_session(self._capacity_inputs)
        baseline_key = (search_steps, rejection_tolerance)
        total_dram = server_config.total_dram_gb
        try:
            # Warm start (pool only): every probe that depends on no verdict
            # begins immediately -- the budget replays, the baseline
            # search's upper bound and the pool provisioning replays.
            if self._capacity_core_stats is None:
                for component in unpooled.components:
                    session.submit((None, unpooled, component, None, None))
            if baseline_key not in self._capacity_baseline_cache:
                for component in unpooled.components:
                    session.submit((None, unpooled, component, None,
                                    total_dram))
            if pool_size:
                for component in pooled.components:
                    session.submit((policy_factory, pooled, component, None,
                                    None))

            # 1. Rejection budget: core/NUMA-fragmentation rejections can
            # never be fixed by DRAM, so they are excluded from every
            # candidate's verdict.  Memoised across calls per input set.
            if self._capacity_core_stats is None:
                outcomes = list(session.outcomes(None, unpooled, None, None))
                self._capacity_core_stats = (
                    sum(o.rejected_vms for o in outcomes),
                    sum(o.placed_vms + o.rejected_vms for o in outcomes),
                )
            core_only_rejections, total_vms = self._capacity_core_stats
            budget = core_only_rejections + max(
                1, int(rejection_tolerance * total_vms)
            )

            def min_shared_server_dram(factory, topo, caps_items) -> float:
                return bisect_min_dram(
                    total_dram, search_steps, budget,
                    functools.partial(session.rejections, factory, topo,
                                      caps_items, budget),
                    functools.partial(session.prefetch, factory, topo,
                                      caps_items),
                )

            # 2. No-pooling baseline under the shared-DRAM constraint
            # (pool-size- and policy-independent; memoised like the budget).
            if baseline_key not in self._capacity_baseline_cache:
                self._capacity_baseline_cache[baseline_key] = \
                    min_shared_server_dram(None, unpooled, None)
            baseline_per_server = self._capacity_baseline_cache[baseline_key]
            baseline_gb = baseline_per_server * sum(sizes)

            pooled_per_server = baseline_per_server
            caps: Dict[int, float] = {}
            required_pool_gb = 0.0
            average_pool_fraction = 0.0
            if pool_size:
                # 3. Provision the pool groups from one unconstrained replay:
                # every group of a provisioning domain is sized at headroom
                # times the domain's worst observed peak.
                peaks: Dict[int, float] = {}
                pool_gb = [0.0] * len(sizes)
                memory_gb = [0.0] * len(sizes)
                outcomes = session.outcomes(policy_factory, pooled, None, None)
                for component, outcome in zip(pooled.components, outcomes):
                    peaks.update(outcome.pool_peak_gb)
                    for shard, pool, memory in zip(
                            component, outcome.pool_gb, outcome.memory_gb):
                        pool_gb[shard] = pool
                        memory_gb[shard] = memory
                total_pool = 0.0
                total_memory = 0.0
                for pool, memory in zip(pool_gb, memory_gb):
                    total_pool += pool
                    total_memory += memory
                if total_memory:
                    average_pool_fraction = total_pool / total_memory
                caps, required_pool_gb = pooled.provision_capacities(
                    peaks, pool_headroom)
                # 4. Smallest shared per-server DRAM with the pools in place.
                pooled_per_server = min_shared_server_dram(
                    policy_factory, pooled, tuple(sorted(caps.items())))
            if not pool_size:
                per_shard_caps = tuple(0.0 for _ in sizes)
            elif pooled.is_per_shard:
                per_shard_caps = tuple(
                    caps[pooled.groups_of_shard(shard)[0]]
                    for shard in range(len(sizes))
                )
            else:
                # A spanned group belongs to no single shard; read the
                # provisioning off ``pool_capacity_gb_by_group``.
                per_shard_caps = ()
            explicit = pool_size and topology is not None
            return FleetCapacitySearchResult(
                savings=PoolSavings(
                    pool_size_sockets=pool_size,
                    baseline_dram_gb=baseline_gb,
                    required_local_dram_gb=pooled_per_server * sum(sizes),
                    required_pool_dram_gb=required_pool_gb,
                    average_pool_fraction=average_pool_fraction,
                ),
                baseline_per_server_gb=baseline_per_server,
                pooled_per_server_gb=pooled_per_server,
                per_shard_pool_capacity_gb=per_shard_caps,
                total_vms=total_vms,
                rejection_budget=budget,
                policy_stats=session.drain_stats(policy_factory),
                pool_topology=topology if explicit else None,
                pool_capacity_gb_by_group=caps if explicit else None,
                speculation=(session.drain_speculation_stats()
                             if session.parallel else None),
            )
        except BaseException:
            # Executor lifecycle hardening: a failed search must not leave
            # a half-used probe pool behind (the next call rebuilds one).
            self._close_probe_session()
            raise
