"""Failure-domain survivability study: EMC faults vs pod size and scope.

Pond's pool groups are hardware failure domains -- an external memory
controller (EMC) that dies takes its whole pool slice with it (paper
Section 4.1; ROADMAP "EMC-failure injection").  This family measures what
the paper's provisioning story presumes: that the fleet degrades
*gracefully* when a group fails.  The sweep crosses

* **pod size** -- ``pool_size_sockets``, i.e. how many servers share one
  EMC group: bigger pods save more DRAM but widen the blast radius;
* **pool scope** -- per-shard groups (the paper's per-cluster deployment)
  vs spanning groups that cross cluster seams (the rack-scale regime of
  Octopus-style sparse topologies), replayed through the same merged
  cross-shard pump;
* **failure rate** -- seeded mean time between EMC failures, with a fixed
  repair delay.

Every cell replays the same traces through
:func:`repro.cluster.pool_topology.replay_crossshard` with a seeded
:class:`~repro.cluster.faults.FaultSchedule` and reports the merged
:class:`~repro.cluster.faults.FaultImpactStats`: the survivability curve
is ``survival_rate`` (affected VMs not killed) against failure rate, per
pod size and scope; blast radius and stranded GB quantify the
per-failure cost the pod-size lever trades against DRAM savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.faults import FaultImpactStats, FaultSchedule
from repro.cluster.pool_topology import PoolTopology, replay_crossshard
from repro.cluster.server import ServerConfig
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.core.policies import StaticFractionPolicy

__all__ = [
    "FailureDomainRow",
    "FailureDomainStudy",
    "run_failure_domain_study",
    "format_failure_domain_table",
]

DEFAULT_POOL_SIZES = (8, 16)
DEFAULT_MTBF_HOURS = (4.0, 12.0)
SCOPES = ("per_shard", "spanning")


@dataclass(frozen=True)
class FailureDomainRow:
    """One cell of the sweep: a (pod size, scope, failure rate) replay."""

    pool_size_sockets: int
    scope: str
    mtbf_hours: float
    n_groups: int
    n_fail_events: int
    n_repair_events: int
    vms_affected: int
    vms_migrated_local: int
    vms_live_migrated: int
    vms_killed: int
    survival_rate: float
    stranded_gb: float
    killed_gb: float
    mean_recovery_latency_s: float
    #: Mean VMs pushed onto the degradation ladder per failing group.
    mean_blast_radius: float


@dataclass
class FailureDomainStudy:
    """Survivability curves across pod size x scope x failure rate."""

    rows: List[FailureDomainRow]
    n_shards: int
    n_servers_per_shard: int
    duration_days: float
    repair_delay_s: float

    def row(self, pool_size: int, scope: str,
            mtbf_hours: float) -> FailureDomainRow:
        for entry in self.rows:
            if (entry.pool_size_sockets == pool_size
                    and entry.scope == scope
                    and entry.mtbf_hours == mtbf_hours):
                return entry
        raise KeyError(
            f"no row for pool_size={pool_size} scope={scope!r} "
            f"mtbf={mtbf_hours}"
        )

    def survival_curve(self, pool_size: int,
                       scope: str) -> List[tuple]:
        """``(mtbf_hours, survival_rate)`` points, fastest failures first."""
        points = [
            (entry.mtbf_hours, entry.survival_rate)
            for entry in self.rows
            if entry.pool_size_sockets == pool_size and entry.scope == scope
        ]
        return sorted(points)


def run_failure_domain_study(
    n_shards: int = 2,
    n_servers: int = 10,
    duration_days: float = 1.0,
    pool_sizes: Sequence[int] = DEFAULT_POOL_SIZES,
    mtbf_hours: Sequence[float] = DEFAULT_MTBF_HOURS,
    repair_delay_s: float = 2.0 * 3600.0,
    pool_capacity_gb_per_group: float = 500.0,
    static_fraction: float = 0.6,
    dram_per_socket_gb: float = 48.0,
    migration_retry_budget: int = 2,
    seed: int = 83,
    server_config: Optional[ServerConfig] = None,
) -> FailureDomainStudy:
    """Run the failure-domain sweep.

    Servers are deliberately DRAM-tight (``dram_per_socket_gb``) and the
    policy pool-heavy (``static_fraction``), so a group failure cannot
    always be absorbed by the first ladder rung and the sweep exercises
    live migration and kills -- the regime where pod size matters.  All
    cells replay the same per-shard traces; only the topology and the
    seeded fault timeline (one schedule per distinct group count, same
    ``seed``) vary, so differences between rows are attributable to the
    swept axes.  Deterministic end to end: traces, schedules, and replays
    all derive from ``seed``.
    """
    if n_shards < 2:
        raise ValueError("the scope axis needs n_shards >= 2 to span")
    server_config = server_config or ServerConfig(
        name="failure-domain", sockets=2, cores_per_socket=24,
        dram_per_socket_gb=dram_per_socket_gb,
    )
    configs = [
        TraceGenConfig(
            cluster_id=f"fd-{i:02d}", n_servers=n_servers,
            duration_days=duration_days, mean_lifetime_hours=6.0,
            target_core_utilization=0.95, seed=seed + i,
            server_config=server_config,
        )
        for i in range(n_shards)
    ]
    traces = [TraceGenerator(cfg).generate_bulk() for cfg in configs]
    horizon_s = duration_days * 86400.0
    shard_sizes = [n_servers] * n_shards
    rows: List[FailureDomainRow] = []
    for pool_size in pool_sizes:
        for scope in SCOPES:
            topology = getattr(PoolTopology, scope)(
                shard_sizes, server_config.sockets, pool_size
            )
            for mtbf in mtbf_hours:
                schedule = FaultSchedule.seeded(
                    groups=range(topology.n_groups),
                    horizon_s=horizon_s,
                    mean_time_between_failures_s=mtbf * 3600.0,
                    repair_delay_s=repair_delay_s,
                    seed=seed,
                    migration_retry_budget=migration_retry_budget,
                )
                policies = [
                    StaticFractionPolicy(fraction=static_fraction,
                                         seed=seed)
                    for _ in range(n_shards)
                ]
                results, _ = replay_crossshard(
                    traces, policies, shard_sizes,
                    [cfg.server_config for cfg in configs], topology,
                    pool_capacity_gb_per_group, True, 3600.0,
                    faults=schedule,
                )
                merged = FaultImpactStats.merged(
                    result.fault_stats for result in results)
                blast = merged.blast_radius_by_group
                rows.append(FailureDomainRow(
                    pool_size_sockets=pool_size,
                    scope=scope,
                    mtbf_hours=mtbf,
                    n_groups=topology.n_groups,
                    n_fail_events=merged.n_fail_events,
                    n_repair_events=merged.n_repair_events,
                    vms_affected=merged.vms_affected,
                    vms_migrated_local=merged.vms_migrated_local,
                    vms_live_migrated=merged.vms_live_migrated,
                    vms_killed=merged.vms_killed,
                    survival_rate=merged.survival_rate,
                    stranded_gb=merged.stranded_gb,
                    killed_gb=merged.killed_gb,
                    mean_recovery_latency_s=merged.mean_recovery_latency_s,
                    mean_blast_radius=(
                        sum(blast.values()) / len(blast) if blast else 0.0
                    ),
                ))
    return FailureDomainStudy(
        rows=rows,
        n_shards=n_shards,
        n_servers_per_shard=n_servers,
        duration_days=duration_days,
        repair_delay_s=repair_delay_s,
    )


def format_failure_domain_table(study: FailureDomainStudy) -> str:
    """Text table: one row per sweep cell, survivability last."""
    lines = [
        "Failure domains -- EMC fault injection survivability "
        f"({study.n_shards} shards x {study.n_servers_per_shard} servers, "
        f"{study.duration_days:g} days, repair "
        f"{study.repair_delay_s / 3600.0:g} h)",
        "pod  scope      MTBF[h]  groups  fails  affected  local  live  "
        "killed  stranded[GB]  blast  survival",
    ]
    for row in study.rows:
        lines.append(
            f"{row.pool_size_sockets:>3d}  {row.scope:<9s}  "
            f"{row.mtbf_hours:>7.1f}  {row.n_groups:>6d}  "
            f"{row.n_fail_events:>5d}  {row.vms_affected:>8d}  "
            f"{row.vms_migrated_local:>5d}  {row.vms_live_migrated:>4d}  "
            f"{row.vms_killed:>6d}  {row.stranded_gb:>12.1f}  "
            f"{row.mean_blast_radius:>5.1f}  {row.survival_rate:>8.3f}"
        )
    return "\n".join(lines)
