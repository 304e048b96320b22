"""Fault-determinism differential check (``repro.analysis determinism``).

Runs a fixed set of seeded fault-injected replays -- every replay path
that can carry a :class:`~repro.cluster.faults.FaultSchedule` -- and
emits canonical JSON (sorted keys) on stdout, one object per line:

* a single-cluster array replay,
* cross-shard replays on both topologies (per-shard and spanning, with
  the shard sizes chosen so spanning groups cross the shard seam),
* a fleet run, serial vs process-pool (``(shard, group)`` event routing).

CI runs this twice with different ``PYTHONHASHSEED`` values and diffs the
outputs: seeded fault injection must be hash-seed independent (DESIGN.md
section 11).  The check fails within one process if the serial and
process-pool fleets disagree.

Historically ``scripts/check_fault_determinism.py`` (still a thin shim);
the replay set and constants moved here unchanged so the CLI, the shim,
and future checks share one definition.
"""

from __future__ import annotations

import json
import sys
from typing import List

__all__ = ["run_determinism_check", "main"]

N_SERVERS = 10
DURATION_DAYS = 0.5
POOL_CAPACITY_GB_PER_GROUP = 300.0
SEED = 21


def _server_config():
    from repro.cluster.server import ServerConfig

    return ServerConfig(
        name="fault-determinism", sockets=2, cores_per_socket=24,
        dram_per_socket_gb=48.0,
    )


def _make_config(index, server_config):
    from repro.cluster import TraceGenConfig

    return TraceGenConfig(
        cluster_id=f"det-{index:02d}", n_servers=N_SERVERS,
        duration_days=DURATION_DAYS, mean_lifetime_hours=4.0,
        target_core_utilization=0.95, seed=SEED + index,
        server_config=server_config,
    )


def _make_schedule(n_groups, shard=0):
    from repro.cluster.faults import FaultSchedule

    return FaultSchedule.seeded(
        groups=range(n_groups),
        horizon_s=DURATION_DAYS * 86400.0,
        mean_time_between_failures_s=3.0 * 3600.0,
        repair_delay_s=3600.0,
        seed=SEED,
        shard=shard,
        migration_retry_budget=1,
    )


def run_determinism_check(emit=print) -> int:
    """Emit canonical per-replay fault stats; 1 if serial != pool fleet."""
    from repro.cluster import ClusterSimulator, TraceGenerator
    from repro.cluster.faults import FaultSchedule
    from repro.cluster.fleet import FleetSimulator, static_policy_factory
    from repro.cluster.pool_topology import PoolTopology, replay_crossshard
    from repro.core.policies import StaticFractionPolicy

    server_config = _server_config()

    def line(label, stats):
        emit(json.dumps({"replay": label, "stats": stats.as_dict()},
                        sort_keys=True))

    traces = [
        TraceGenerator(_make_config(i, server_config)).generate_bulk()
        for i in range(2)
    ]
    policy = StaticFractionPolicy(fraction=0.6, seed=SEED)

    # Single-cluster array replay.
    sim = ClusterSimulator(
        n_servers=N_SERVERS, pool_size_sockets=8,
        pool_capacity_gb_per_group=POOL_CAPACITY_GB_PER_GROUP,
        constrain_memory=True, sample_interval_s=3600.0,
        server_config=server_config,
    )
    n_groups = -(-N_SERVERS * server_config.sockets // 8)  # ceil
    single = sim.run(traces[0], policy, faults=_make_schedule(n_groups))
    line("single_cluster", single.fault_stats)

    # Cross-shard replays, both topologies.  N_SERVERS=10 with pool size 8
    # (4 servers/group) leaves spanning group 2 straddling the shard seam.
    shard_sizes = [N_SERVERS, N_SERVERS]
    configs = [server_config, server_config]
    policies = [StaticFractionPolicy(fraction=0.6, seed=SEED)
                for _ in range(2)]
    for scope in ("per_shard", "spanning"):
        topology = getattr(PoolTopology, scope)(
            shard_sizes, server_config.sockets, 8
        )
        results, _ = replay_crossshard(
            traces, policies, shard_sizes, configs, topology,
            POOL_CAPACITY_GB_PER_GROUP, True, 3600.0,
            faults=_make_schedule(topology.n_groups),
        )
        for shard, result in enumerate(results):
            line(f"crossshard_{scope}_shard{shard}", result.fault_stats)

    # Fleet, serial vs process pool: events routed by (shard, group).
    events: List = []
    for shard in range(2):
        events.extend(_make_schedule(2, shard=shard).events)
    schedule = FaultSchedule(events=tuple(events), migration_retry_budget=1)
    fleet_stats = []
    for workers in (None, 2):
        fleet = FleetSimulator(
            shard_configs=[_make_config(i, server_config) for i in range(2)],
            pool_size_sockets=8,
            pool_capacity_gb_per_group=POOL_CAPACITY_GB_PER_GROUP,
            constrain_memory=True,
            max_workers=workers,
        )
        with fleet:
            result = fleet.run(
                static_policy_factory(fraction=0.6, seed=SEED),
                compute_baseline=False, faults=schedule,
            )
        fleet_stats.append(result.fault_stats.as_dict())
        label = "serial" if workers is None else f"pool{workers}"
        line(f"fleet_{label}", result.fault_stats)
    if fleet_stats[0] != fleet_stats[1]:
        print("FAIL: serial and process-pool fleets disagree",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    return run_determinism_check()
