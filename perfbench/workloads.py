"""The benchmark's four workloads over the Pond simulator.

Each workload is an object with

* ``setup(seed, size)``, which builds every input the user-facing call
  needs -- imports, pregenerated traces, trained models, fleets and
  topologies -- and returns them as one state object;
* ``call(state)``, the user-facing call the benchmark times;
* ``outputs(state, result)``, which reduces the call's simulated
  statistics to plain data that must repeat bit for bit;
* ``invariants(state, result, outputs)``, named output checks that hold
  for every seed, and ``input_vms(state, result)``, the input size;
* optionally ``fresh(state)``, a guard that no memo can serve the call,
  and ``static_check(...)``, a once-per-run check that costs a replay.

Sizes come in two scales: ``full`` is what the benchmark measures,
``small`` is what the harness self-test runs.  The seed changes every
generated input (traces and fault schedules); model training and the
policy operating points are fixed.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Per-workload sizes; ``full`` is the measured scale.
SIZES = {
    "fig21_stream": {
        "full": dict(n_shards=4, n_servers=12, duration_days=1.0),
        "small": dict(n_shards=2, n_servers=8, duration_days=0.25),
    },
    "capacity_spanning": {
        "full": dict(n_shards=4, n_servers=32, duration_days=1.5,
                     max_workers=2, search_steps=5),
        "small": dict(n_shards=2, n_servers=8, duration_days=0.25,
                      max_workers=2, search_steps=2),
    },
    "online_faults": {
        "full": dict(n_servers=120, duration_days=2.0),
        "small": dict(n_servers=16, duration_days=0.5),
    },
    "controls_off": {
        "full": dict(n_shards=4, n_servers=60, duration_days=2.0),
        "small": dict(n_shards=2, n_servers=8, duration_days=0.25),
    },
}

POOL_SIZE_SOCKETS = 16


def digest_rows(rows) -> str:
    """sha256 of a float64 sample-row array, bit for bit."""
    return hashlib.sha256(rows.tobytes()).hexdigest()


def digest(outputs: dict) -> str:
    """sha256 of an outputs dict in canonical JSON form."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _peaks(peaks: dict) -> dict:
    return {str(group): peaks[group] for group in sorted(peaks)}


def _savings(savings) -> list:
    return [savings.pool_size_sockets, savings.baseline_dram_gb,
            savings.required_local_dram_gb, savings.required_pool_dram_gb,
            savings.average_pool_fraction]


# -- fig21_stream ---------------------------------------------------------------------
class Fig21Stream:
    """``run_end_to_end_study`` streamed, peak provisioning, cluster scope."""

    def setup(self, seed: int, size: dict) -> dict:
        from repro.experiments.fig21_end_to_end import run_end_to_end_study

        return dict(study=run_end_to_end_study, seed=seed, **size)

    def call(self, state: dict):
        return state["study"](
            n_shards=state["n_shards"], n_servers=state["n_servers"],
            duration_days=state["duration_days"], seed=state["seed"],
            stream_chunk_size=16384, provisioning="peaks",
            pool_scope="cluster",
        )

    def input_vms(self, state: dict, result) -> int:
        """Input VMs of the study: each shard's trace counted once."""
        from repro.cluster.fleet import FleetSimulator
        from repro.cluster.tracegen import TraceGenConfig, TraceGenerator

        fleet = FleetSimulator.sharded(state["n_shards"], TraceGenConfig(
            cluster_id="end-to-end", n_servers=state["n_servers"],
            duration_days=state["duration_days"],
            target_core_utilization=0.85, seed=state["seed"],
        ))
        return sum(
            sum(len(block) for block in TraceGenerator(cfg).iter_window_records())
            for cfg in fleet.shard_configs
        )

    def outputs(self, state: dict, result) -> dict:
        return {
            "savings": {
                label: [_savings(cell) for cell in cells]
                for label, cells in sorted(result.savings.items())
            },
            "misprediction_percent": dict(sorted(
                result.misprediction_percent.items())),
        }

    def invariants(self, state: dict, result, outputs: dict) -> dict:
        cells = sum(len(c) for c in result.savings.values())
        return {"fig21_cells_filled": cells == 3 * len(result.pool_sizes) > 0}


# -- capacity_spanning ----------------------------------------------------------------
class CapacitySpanning:
    """Fleet ``capacity_search`` over a spanning topology on 2 workers."""

    def setup(self, seed: int, size: dict) -> dict:
        from repro.cluster.fleet import (
            FleetSimulator, PoolTopology, pond_policy_factory)
        from repro.cluster.tracegen import TraceGenConfig
        from repro.experiments.fig21_end_to_end import DEFAULT_OPERATING_POINTS

        cfg = TraceGenConfig(
            cluster_id="capacity", n_servers=size["n_servers"],
            duration_days=size["duration_days"],
            target_core_utilization=0.9, seed=seed,
        )
        fleet = FleetSimulator.sharded(size["n_shards"], cfg,
                                       max_workers=size["max_workers"])
        traces = fleet.generate_traces()
        topology = PoolTopology.spanning(
            [size["n_servers"]] * size["n_shards"],
            cfg.server_config.sockets, POOL_SIZE_SOCKETS,
        )
        factory = pond_policy_factory(DEFAULT_OPERATING_POINTS["182"],
                                      seed=seed)
        return dict(fleet=fleet, traces=traces, topology=topology,
                    factory=factory, search_steps=size["search_steps"])

    def fresh(self, state: dict) -> bool:
        """No memo of an earlier search can serve this call."""
        fleet = state["fleet"]
        return (fleet._capacity_core_stats is None
                and not fleet._capacity_baseline_cache
                and fleet._probe_session is None)

    def call(self, state: dict):
        # The with-block is part of the call: closing joins the probe
        # workers, so their CPU time is accounted to the call.
        with state["fleet"] as fleet:
            return fleet.capacity_search(
                state["factory"], traces=state["traces"],
                search_steps=state["search_steps"],
                pool_topology=state["topology"],
            )

    def input_vms(self, state: dict, result) -> int:
        return sum(len(trace) for trace in state["traces"])

    def outputs(self, state: dict, result) -> dict:
        return {
            "savings": _savings(result.savings),
            "baseline_per_server_gb": result.baseline_per_server_gb,
            "pooled_per_server_gb": result.pooled_per_server_gb,
            "pool_capacity_gb_by_group": _peaks(
                result.pool_capacity_gb_by_group or {}),
            "total_vms": result.total_vms,
            "rejection_budget": result.rejection_budget,
        }

    def invariants(self, state: dict, result, outputs: dict) -> dict:
        return {
            "capacity_total_vms": result.total_vms == self.input_vms(state, result),
            "capacity_pooled_le_baseline": (
                result.pooled_per_server_gb <= result.baseline_per_server_gb),
        }


# -- online_faults --------------------------------------------------------------------
class OnlineFaults:
    """One cluster: prediction policy, online QoS ticks and EMC faults."""

    def setup(self, seed: int, size: dict) -> dict:
        from repro.cluster import ClusterSimulator, ServerConfig
        from repro.cluster.faults import FaultSchedule
        from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
        from repro.core.control_plane.online import OnlineControlConfig
        from repro.core.policies import PredictionPolicy

        server = ServerConfig(dram_per_socket_gb=112.0)
        n_servers = size["n_servers"]
        cfg = TraceGenConfig(
            cluster_id="online-faults", n_servers=n_servers,
            server_config=server, duration_days=size["duration_days"],
            target_core_utilization=0.95, mean_lifetime_hours=2.0, seed=seed,
        )
        trace = TraceGenerator(cfg).generate_bulk()
        policy = PredictionPolicy.train(seed=3)
        n_groups = n_servers // (POOL_SIZE_SOCKETS // server.sockets)
        schedule = FaultSchedule.seeded(
            groups=range(n_groups), horizon_s=cfg.duration_s,
            mean_time_between_failures_s=6 * 3600.0,
            repair_delay_s=2 * 3600.0, seed=seed + 9,
            migration_retry_budget=1,
        )
        simulator = ClusterSimulator(
            n_servers=n_servers, server_config=server,
            pool_size_sockets=POOL_SIZE_SOCKETS,
            pool_capacity_gb_per_group=2000.0, constrain_memory=True,
            sample_interval_s=3600.0, record_placements=False,
        )
        return dict(trace=trace, policy=policy, schedule=schedule,
                    simulator=simulator,
                    online=OnlineControlConfig(qos_threshold_percent=5.0))

    def call(self, state: dict):
        return state["simulator"].run(
            state["trace"], state["policy"], online=state["online"],
            faults=state["schedule"],
        )

    def input_vms(self, state: dict, result) -> int:
        return len(state["trace"])

    def outputs(self, state: dict, result) -> dict:
        online = result.online_stats
        faults = result.fault_stats.as_dict()
        faults["killed_vm_ids"] = hashlib.sha256(
            "\n".join(faults["killed_vm_ids"]).encode()).hexdigest()
        return {
            "placed_vms": result.placed_vms,
            "rejected_vms": result.rejected_vms,
            "pool_peak_gb": _peaks(result.pool_peak_gb),
            "sample_rows_sha256": digest_rows(result.sample_buffer.rows()),
            "qos": [online.n_ticks, online.n_checks, online.n_mitigations,
                    online.n_failed_mitigations, online.migrated_gb,
                    online.migration_time_s],
            "faults": faults,
        }

    def invariants(self, state: dict, result, outputs: dict) -> dict:
        stats = result.fault_stats
        return {
            "online_vms_conserved": (result.placed_vms + result.rejected_vms
                                     == len(state["trace"])),
            "online_qos_mitigated": result.online_stats.n_mitigations > 0,
            "online_ladder_migrated_local": stats.vms_migrated_local > 0,
            "online_ladder_live_migrated": stats.vms_live_migrated > 0,
            "online_ladder_killed": stats.vms_killed > 0,
        }


# -- controls_off ---------------------------------------------------------------------
class ControlsOff:
    """Spanning fleet ``run`` with mitigation disabled and no faults."""

    def setup(self, seed: int, size: dict) -> dict:
        from repro.cluster.faults import FaultSchedule
        from repro.cluster.fleet import (
            FleetSimulator, PoolTopology, pond_policy_factory)
        from repro.cluster.tracegen import TraceGenConfig
        from repro.core.control_plane.online import OnlineControlConfig
        from repro.experiments.fig21_end_to_end import DEFAULT_OPERATING_POINTS

        cfg = TraceGenConfig(
            cluster_id="controls-off", n_servers=size["n_servers"],
            duration_days=size["duration_days"], mean_lifetime_hours=2.0,
            seed=seed,
        )
        topology = PoolTopology.spanning(
            [size["n_servers"]] * size["n_shards"],
            cfg.server_config.sockets, POOL_SIZE_SOCKETS,
        )
        fleet = FleetSimulator.sharded(size["n_shards"], cfg,
                                       pool_topology=topology)
        return dict(
            fleet=fleet, traces=fleet.generate_traces(),
            factory=pond_policy_factory(DEFAULT_OPERATING_POINTS["182"],
                                        seed=seed),
            online=OnlineControlConfig(qos_threshold_percent=math.inf),
            faults=FaultSchedule(),
        )

    def call(self, state: dict):
        return state["fleet"].run(
            state["factory"], traces=state["traces"], compute_baseline=False,
            online=state["online"], faults=state["faults"],
        )

    def input_vms(self, state: dict, result) -> int:
        return sum(len(trace) for trace in state["traces"])

    def outputs(self, state: dict, result) -> dict:
        return {
            "shard_sample_rows_sha256": [
                digest_rows(shard.result.sample_buffer.rows())
                for shard in result.shards
            ],
            "fleet_pool_peak_gb": _peaks(result.fleet_pool_peak_gb or {}),
            "placed_vms": result.placed_vms,
            "rejected_vms": result.rejected_vms,
        }

    def invariants(self, state: dict, result, outputs: dict) -> dict:
        return {
            "controls_off_no_mitigation": result.online_stats.n_ticks == 0,
            "controls_off_no_faults": result.fault_stats.vms_affected == 0,
        }

    def static_check(self, state: dict, result, outputs: dict) -> dict:
        """The same fleet's static replay must give identical output."""
        static = state["fleet"].run(state["factory"], traces=state["traces"],
                                    compute_baseline=False)
        return {"controls_off_equals_static": self.outputs(state, static) == outputs}


WORKLOADS = {
    "fig21_stream": Fig21Stream(),
    "capacity_spanning": CapacitySpanning(),
    "online_faults": OnlineFaults(),
    "controls_off": ControlsOff(),
}
