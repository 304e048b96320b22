"""Pinned outputs of single-cluster online + fault replays.

``ClusterSimulator.run`` replays a cluster with online QoS control or EMC
faults as a one-shard ``replay_crossshard`` (the engine-method events
loop).  Before that routing, a dedicated single-cluster loop ran these
replays.  ``fixtures/single_cluster_online.json`` holds that loop's
outputs on the four small cases below -- materialised and streamed, a
fallback-slowdown and a prediction policy, every rung of the degradation
ladder (migrate to local, live-migrate, kill) reached, placements
recorded -- and this test asserts the current path reproduces them byte
for byte: sample rows, placements, peaks, ``OnlineControlStats`` and
``FaultImpactStats``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    ServerConfig,
    TraceGenConfig,
    TraceGenerator,
)
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import PredictionPolicy, StaticFractionPolicy

FIXTURE = Path(__file__).parent / "fixtures" / "single_cluster_online.json"

TIGHT = ServerConfig(name="tight", sockets=2, cores_per_socket=24,
                     dram_per_socket_gb=48.0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tight_case(chunk_size=None):
    """Static 0.6 pool fraction (fallback slowdown estimate) on a tight
    cluster whose two group failures exhaust the whole ladder."""
    cfg = TraceGenConfig(n_servers=12, duration_days=1.0,
                         mean_lifetime_hours=6.0,
                         target_core_utilization=0.95, seed=13,
                         server_config=TIGHT)
    trace = TraceGenerator(cfg).generate()
    simulator = ClusterSimulator(
        n_servers=12, server_config=TIGHT, pool_size_sockets=8,
        pool_capacity_gb_per_group=500.0, constrain_memory=True,
        sample_interval_s=3600.0, record_placements=True)
    schedule = FaultSchedule([FaultEvent(30000.0, "fail", 0),
                              FaultEvent(33000.0, "fail", 1)],
                             migration_retry_budget=1)
    return dict(
        simulator=simulator,
        trace=trace if chunk_size is None else trace.stream(chunk_size),
        policy=StaticFractionPolicy(fraction=0.6),
        online=OnlineControlConfig(qos_threshold_percent=10.0,
                                   migration_cost_s_per_gb=0.5),
        faults=schedule,
    )


def prediction_case(chunk_size=None):
    """``PredictionPolicy`` sizing plus seeded fail/repair events."""
    server = ServerConfig(dram_per_socket_gb=80.0)
    cfg = TraceGenConfig(cluster_id="fixture-online", n_servers=16,
                         server_config=server, duration_days=1.0,
                         target_core_utilization=0.95,
                         mean_lifetime_hours=2.0, seed=7)
    trace = TraceGenerator(cfg).generate_bulk()
    simulator = ClusterSimulator(
        n_servers=16, server_config=server, pool_size_sockets=8,
        pool_capacity_gb_per_group=300.0, constrain_memory=True,
        sample_interval_s=3600.0, record_placements=True)
    schedule = FaultSchedule.seeded(
        groups=range(4), horizon_s=cfg.duration_s,
        mean_time_between_failures_s=4 * 3600.0,
        repair_delay_s=2 * 3600.0, seed=16, migration_retry_budget=1)
    return dict(
        simulator=simulator,
        trace=trace if chunk_size is None else trace.stream(chunk_size),
        policy=PredictionPolicy.train(seed=3),
        online=OnlineControlConfig(qos_threshold_percent=5.0),
        faults=schedule,
    )


CASES = {
    "tight_materialised": lambda: tight_case(),
    "tight_streamed": lambda: tight_case(chunk_size=97),
    "prediction_materialised": lambda: prediction_case(),
    "prediction_streamed": lambda: prediction_case(chunk_size=4096),
}


def digest(result) -> dict:
    """Plain-data fingerprint of everything a replay reports."""
    rows = np.ascontiguousarray(result.sample_buffer.rows())
    online = result.online_stats
    faults = result.fault_stats.as_dict()
    faults["killed_vm_ids"] = _sha256("\n".join(faults["killed_vm_ids"]))
    out = {
        "sample_rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
        "n_samples": result.n_samples,
        "placements_sha256": _sha256("\n".join(
            f"{vm_id}={server_id}"
            for vm_id, server_id in result.placements.items())),
        "placed_vms": result.placed_vms,
        "rejected_vms": result.rejected_vms,
        "total_memory_gb_allocated": result.total_memory_gb_allocated,
        "total_pool_gb_allocated": result.total_pool_gb_allocated,
        "server_peak_local_gb": result.server_peak_local_gb,
        "server_peak_total_gb": result.server_peak_total_gb,
        "pool_peak_gb": {str(g): v for g, v in result.pool_peak_gb.items()},
        "online_stats": {
            "n_ticks": online.n_ticks,
            "n_checks": online.n_checks,
            "n_mitigations": online.n_mitigations,
            "n_failed_mitigations": online.n_failed_mitigations,
            "migrated_gb": online.migrated_gb,
            "migration_time_s": online.migration_time_s,
            "mitigated_vm_ids": _sha256("\n".join(online.mitigated_vm_ids)),
        },
        "fault_stats": faults,
    }
    # Round-trip so tuples, int keys and floats compare as the file does.
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_fixture(name, expected):
    case = CASES[name]()
    result = case["simulator"].run(case["trace"], case["policy"],
                                   online=case["online"],
                                   faults=case["faults"])
    got = digest(result)
    want = expected[name]
    # Every ladder rung and the mitigation stage really fired.
    stats = want["fault_stats"]
    assert stats["vms_migrated_local"] > 0
    assert stats["vms_live_migrated"] > 0
    assert stats["vms_killed"] > 0
    assert want["online_stats"]["n_mitigations"] > 0
    for key in want:
        assert got[key] == want[key], key
    assert got == want
