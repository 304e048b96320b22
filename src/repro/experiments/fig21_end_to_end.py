"""Figure 21: end-to-end DRAM savings under performance constraints.

The end-to-end simulation evaluates, per pool size, the DRAM required when
VM memory is split between local and pool DRAM by:

* **Pond** at the operating point its combined model chooses under the
  configured PDM/TP (for both the 182 % and 222 % latency scenarios -- the
  higher latency makes the insensitivity model more conservative and thus
  saves less), and
* the **static** strawman that puts 15 % of every VM's memory on the pool.

The scheduling-misprediction rate of every policy is also tracked to verify
the TP constraint holds.

Runs on the batch policy engine: each policy's pool allocations are computed
once per replay as a vectorized array (``decide_batch``), so the simulator's
hot loop never calls back into Python per VM.  With ``n_shards > 1`` the
study scales out through the sharded :class:`FleetSimulator` -- one
independent cluster per shard, savings summed across the fleet -- which is
how the paper's ~100-cluster evaluation shape is reproduced.  The sharded
mode streams every shard trace by default (``stream_chunk_size``), so the
fleet's peak trace memory stays O(generation window + chunk) no matter
how many VMs the study replays; ``provisioning="capacity"`` switches the savings model from
peak-observation to the constrained capacity search
(``FleetSimulator.capacity_search``; one cluster runs it as a one-shard
fleet through ``PoolDimensioner.evaluate_capacity_search``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.fleet import (
    FleetSimulator,
    PolicyFactory,
    PoolTopology,
    pond_policy_factory,
    prediction_policy_factory,
    static_policy_factory,
)
from repro.cluster.pool import PoolDimensioner, PoolSavings
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.config import PondConfig
from repro.core.control_plane.online import (
    OnlineControlConfig,
    OnlineControlStats,
)
from repro.core.prediction.combined import CombinedOperatingPoint

__all__ = ["EndToEndStudy", "run_end_to_end_study", "format_end_to_end_table"]

DEFAULT_POOL_SIZES = (2, 8, 16, 32, 64)

#: Default operating points used when the caller does not supply solved ones.
#: They match the paper's Figure 20 outcome at a ~2 % misprediction target:
#: the 182 % scenario can place more VMs fully on the pool than the 222 % one.
DEFAULT_OPERATING_POINTS: Dict[str, CombinedOperatingPoint] = {
    "182": CombinedOperatingPoint(fp_percent=1.5, op_percent=2.0,
                                  li_percent=30.0, um_percent=22.0),
    "222": CombinedOperatingPoint(fp_percent=1.5, op_percent=2.0,
                                  li_percent=18.0, um_percent=22.0),
}


@dataclass
class EndToEndStudy:
    """Required-DRAM percentages per policy and pool size (Figure 21)."""

    pool_sizes: List[int]
    #: policy label -> list of PoolSavings aligned with ``pool_sizes``.
    savings: Dict[str, List[PoolSavings]]
    #: policy label -> scheduling misprediction percent observed.
    misprediction_percent: Dict[str, float]
    #: policy label -> online QoS/mitigation accounting accumulated over the
    #: pool-size sweep (``mode="online"`` runs only; ``None`` otherwise).
    online_stats: Optional[Dict[str, OnlineControlStats]] = None

    def required_dram_percent(self, policy: str, pool_size: int) -> float:
        for entry in self.savings[policy]:
            if entry.pool_size_sockets == pool_size:
                return entry.required_dram_percent
        raise KeyError(f"no entry for policy {policy!r} at pool size {pool_size}")

    def savings_percent(self, policy: str, pool_size: int) -> float:
        return 100.0 - self.required_dram_percent(policy, pool_size)


def run_end_to_end_study(
    config: Optional[PondConfig] = None,
    n_servers: int = 32,
    duration_days: float = 3.0,
    target_utilization: float = 0.85,
    pool_sizes: Sequence[int] = DEFAULT_POOL_SIZES,
    operating_points: Optional[Dict[str, CombinedOperatingPoint]] = None,
    static_fraction: float = 0.15,
    seed: int = 61,
    n_shards: int = 1,
    max_workers: Optional[int] = None,
    stream_chunk_size: Optional[int] = 16384,
    provisioning: str = "peaks",
    pool_scope: str = "cluster",
    mode: str = "static",
    qos_threshold_percent: float = 5.0,
    migration_cost_s_per_gb: float = 0.2,
) -> EndToEndStudy:
    """Run the Figure 21 sweep.

    ``n_shards == 1`` (default) evaluates one synthetic cluster trace through
    the :class:`PoolDimensioner`; ``n_shards > 1`` shards the study across a
    fleet of independent clusters (``n_servers`` each) and sums the per-shard
    savings, optionally fanning shards out over ``max_workers`` processes.
    The sharded mode replays lazy trace streams by default (peak trace
    memory O(``stream_chunk_size``)); pass ``stream_chunk_size=None`` to
    pregenerate and reuse materialised shard traces across the grid.  That
    is faster when the fleet fits in memory, since streams regenerate on
    every replay: a 4 x 12-server, 1-day study (seed 0, one call per fresh
    interpreter, median of 5) took 0.155 s streamed and 0.114 s
    materialised on a 2-vCPU host, with identical savings.

    ``provisioning`` selects the savings model: ``"peaks"`` (default) uses
    uniform peak-observation provisioning; ``"capacity"`` runs the
    constrained capacity search instead: ``FleetSimulator.capacity_search``
    on the sharded fleet, or on one cluster through
    ``PoolDimensioner.evaluate_capacity_search`` (a one-shard fleet call).

    ``pool_scope`` selects where pool groups may live: ``"cluster"``
    (default) confines every group to one shard, the paper's per-cluster
    deployment; ``"fleet"`` lets groups span shard boundaries
    (``PoolTopology.spanning``, requires ``n_shards > 1``) -- the rack-scale
    regime where one pool serves servers from two clusters.

    ``mode="online"`` runs the full prediction-driven control loop instead
    of the one-shot allocation replay: a trained
    :class:`~repro.core.policies.PredictionPolicy` joins the policy grid
    (label ``"prediction"``), every pooled replay runs with the online
    QoS/mitigation stage (``qos_threshold_percent`` /
    ``migration_cost_s_per_gb``), and per-policy mitigation accounting is
    returned in :attr:`EndToEndStudy.online_stats`.  Online mode uses peak
    provisioning (the capacity search replays are static by construction).
    """
    if provisioning not in ("peaks", "capacity"):
        raise ValueError("provisioning must be 'peaks' or 'capacity'")
    if pool_scope not in ("cluster", "fleet"):
        raise ValueError("pool_scope must be 'cluster' or 'fleet'")
    if pool_scope == "fleet" and n_shards < 2:
        raise ValueError("pool_scope='fleet' needs n_shards > 1 to span")
    if mode not in ("static", "online"):
        raise ValueError("mode must be 'static' or 'online'")
    online: Optional[OnlineControlConfig] = None
    if mode == "online":
        if provisioning != "peaks":
            raise ValueError("mode='online' requires provisioning='peaks'")
        online = OnlineControlConfig(
            qos_threshold_percent=qos_threshold_percent,
            migration_cost_s_per_gb=migration_cost_s_per_gb,
        )
    config = config or PondConfig()
    points = operating_points or DEFAULT_OPERATING_POINTS
    cfg = TraceGenConfig(
        cluster_id="end-to-end",
        n_servers=n_servers,
        duration_days=duration_days,
        target_core_utilization=target_utilization,
        seed=seed,
    )
    usable_sizes = [s for s in pool_sizes if s <= n_servers * cfg.server_config.sockets]
    factories: Dict[str, PolicyFactory] = {
        "pond_182": pond_policy_factory(
            points["182"], slice_gb=config.slice_gb, seed=seed
        ),
        "pond_222": pond_policy_factory(
            points["222"], slice_gb=config.slice_gb, seed=seed + 1
        ),
        "static_15pct": static_policy_factory(
            fraction=static_fraction, seed=seed + 2
        ),
    }
    if mode == "online":
        # Trained once here; the models ship to every shard worker with the
        # factory, so all shards decide from identical model state.
        factories["prediction"] = prediction_policy_factory(
            seed=seed, policy_seed=seed + 3
        )

    savings: Dict[str, List[PoolSavings]] = {}
    mispredictions: Dict[str, float] = {}
    online_stats: Optional[Dict[str, OnlineControlStats]] = (
        {} if online is not None else None
    )
    if n_shards > 1 or online is not None:
        fleet_kwargs = dict(
            max_workers=max_workers, stream_chunk_size=stream_chunk_size
        )

        def topology_for(size: int) -> Optional[PoolTopology]:
            if pool_scope != "fleet":
                return None
            return PoolTopology.spanning(
                [n_servers] * n_shards, cfg.server_config.sockets, size
            )

        base_fleet = FleetSimulator.sharded(n_shards, cfg, **fleet_kwargs)
        # Streaming mode regenerates shard traces lazily per replay; the
        # materialised mode pregenerates them once and reuses them.
        fleet_traces = None if stream_chunk_size is not None \
            else base_fleet.generate_traces()
        if provisioning == "capacity":
            # One fleet for the whole grid: capacity_search takes the pool
            # size (or spanning topology) per call and memoises the pool-
            # and policy-independent work (rejection budget, no-pool
            # baseline search) across cells; its probe-pool session is
            # likewise reused across every cell of the grid and released
            # when the grid is done (even on failure).
            with base_fleet:
                for label, factory in factories.items():  # repro: noqa DET007 -- policy grid dict is built in fixed literal order
                    savings[label] = []
                    for size in usable_sizes:
                        search = base_fleet.capacity_search(
                            factory, traces=fleet_traces,
                            pool_size_sockets=(
                                size if pool_scope == "cluster" else None
                            ),
                            pool_topology=topology_for(size),
                        )
                        savings[label].append(search.savings)
                        mispredictions[label] = (
                            search.policy_stats.misprediction_percent
                        )
        else:
            # The no-pooling baseline is pool-size- and policy-independent:
            # replay it once per shard and reuse it across the whole grid.
            # Per-cell fleets are closed deterministically so their
            # persistent shard pools never outlive the cell.
            with base_fleet:
                baselines = base_fleet.compute_baselines(fleet_traces)
            for label, factory in factories.items():  # repro: noqa DET007 -- policy grid dict is built in fixed literal order
                savings[label] = []
                for size in usable_sizes:
                    with FleetSimulator.sharded(
                        n_shards, cfg,
                        pool_size_sockets=(
                            size if pool_scope == "cluster" else 0
                        ),
                        pool_topology=topology_for(size),
                        **fleet_kwargs,
                    ) as fleet:
                        fleet_result = fleet.run(
                            factory, traces=fleet_traces, baselines=baselines,
                            online=online,
                        )
                    savings[label].append(fleet_result.savings)
                    mispredictions[label] = (
                        fleet_result.policy_stats.misprediction_percent
                    )
                    if online_stats is not None:
                        online_stats.setdefault(
                            label, OnlineControlStats()
                        ).add(fleet_result.online_stats)
    else:
        trace = TraceGenerator(cfg).generate_bulk()
        dimensioner = PoolDimensioner(n_servers=n_servers)
        for label, factory in factories.items():
            policy = factory(0)
            if provisioning == "capacity":
                savings[label] = [
                    dimensioner.evaluate_capacity_search(trace, size, policy)
                    for size in usable_sizes
                ]
            else:
                savings[label] = dimensioner.sweep_pool_sizes(
                    trace, usable_sizes, policy
                )
            mispredictions[label] = policy.stats.misprediction_percent

    return EndToEndStudy(
        pool_sizes=list(usable_sizes),
        savings=savings,
        misprediction_percent=mispredictions,
        online_stats=online_stats,
    )


def format_end_to_end_table(study: EndToEndStudy) -> str:
    """Text table matching the Figure 21 presentation."""
    lines = [
        "Figure 21 -- required overall DRAM [%] vs pool size",
        "policy \\ sockets    " + " ".join(f"{s:>7d}" for s in study.pool_sizes),
    ]
    for policy in study.savings:
        row = [f"{policy:>18} "]
        for size in study.pool_sizes:
            row.append(f"{study.required_dram_percent(policy, size):>7.1f}")
        lines.append(" ".join(row))
    lines.append("")
    for policy, rate in study.misprediction_percent.items():  # repro: noqa DET007 -- keyed in the study's fixed policy order
        lines.append(f"  {policy}: {rate:.2f}% scheduling mispredictions")
    if study.online_stats:
        lines.append("")
        for policy, stats in study.online_stats.items():  # repro: noqa DET007 -- keyed in the study's fixed policy order
            lines.append(
                f"  {policy}: {stats.n_mitigations} mitigations "
                f"({stats.migrated_gb:.0f} GB pool->local, "
                f"{stats.mean_mitigation_s:.2f} s each, "
                f"{stats.n_failed_mitigations} deferred)"
            )
    return "\n".join(lines)
