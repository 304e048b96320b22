"""Pinned outputs of cross-shard replays with online control and faults.

``fixtures/crossshard_controls.json`` holds the outputs of the retired
engine-method events loop (a heap-driven cross-shard replay) on the small
fleets below: two and three shards, per-shard and seamed spanning
topologies, online QoS control only, EMC faults only and both,
materialised traces and multi-shard streams at a small chunk size, plus
static multi-shard streams.  Every case records placements.  This test
asserts that :func:`replay_crossshard` reproduces each entry byte for
byte: sample rows, placements, server and ledger peaks, totals,
``OnlineControlStats`` and ``FaultImpactStats``.

Regenerate (only when an intended behaviour change is made and explained):
``PYTHONPATH=src python tests/test_crossshard_controls_fixture.py --write``.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ServerConfig, TraceGenConfig, TraceGenerator
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.cluster.pool_topology import (
    PoolGroupLedger,
    PoolTopology,
    replay_crossshard,
)
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import StaticFractionPolicy

FIXTURE = Path(__file__).parent / "fixtures" / "crossshard_controls.json"

TIGHT = ServerConfig(name="tight", sockets=2, cores_per_socket=24,
                     dram_per_socket_gb=48.0)
#: Servers per pool group (8-socket groups of 2-socket servers).
POOL_SOCKETS = 8
CHUNK = 37


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def _trace(shard: int, n_servers: int):
    cfg = TraceGenConfig(cluster_id=f"controls-{shard}", n_servers=n_servers,
                         duration_days=0.5, mean_lifetime_hours=4.0,
                         target_core_utilization=0.95, seed=40 + shard,
                         server_config=TIGHT)
    return TraceGenerator(cfg).generate()


def _topology(kind: str, sizes):
    if kind == "per_shard":
        return PoolTopology.per_shard(sizes, TIGHT.sockets, POOL_SOCKETS)
    return PoolTopology.spanning(sizes, TIGHT.sockets, POOL_SOCKETS)


def _schedule(topology: PoolTopology, budget: int) -> FaultSchedule:
    """Fail the spanned (or first) groups mid-trace; repair one of them."""
    groups = topology.spanning_group_ids or (0, topology.n_groups - 1)
    first, last = groups[0], groups[-1]
    return FaultSchedule([
        FaultEvent(14000.0, "fail", first, 0.7),
        FaultEvent(15000.0, "fail", last),
        FaultEvent(15000.0, "fail", first),
        FaultEvent(30000.0, "repair", first),
    ], migration_retry_budget=budget)


def build_case(name: str) -> dict:
    """Replay arguments of one named case (see :data:`CASES`)."""
    kind, controls, source = name.split("-")
    sizes = [8, 8] if kind == "per_shard" else [6, 6, 6]
    topology = _topology(kind, sizes)
    traces = [_trace(s, n) for s, n in enumerate(sizes)]
    fractions = (0.6, 0.4, 0.5)
    policies = [StaticFractionPolicy(fraction=fractions[s])
                for s in range(len(sizes))]
    online = faults = None
    if controls in ("online", "both"):
        online = OnlineControlConfig(qos_threshold_percent=10.0,
                                     migration_cost_s_per_gb=0.5)
    if controls in ("faults", "both"):
        faults = _schedule(topology, budget=2 if controls == "both" else 1)
    inputs = traces if source == "materialised" else [
        trace.stream(CHUNK) for trace in traces]
    return dict(
        inputs=inputs, policies=policies, n_servers_per_shard=sizes,
        server_configs=[TIGHT] * len(sizes), topology=topology,
        capacity=260.0, constrain_memory=True, sample_interval_s=3600.0,
        record_placements=True, online=online, faults=faults,
    )


CASES = [
    f"{kind}-{controls}-{source}"
    for kind in ("per_shard", "seamed")
    for controls in ("online", "faults", "both")
    for source in ("materialised", "streamed")
] + ["per_shard-static-streamed", "seamed-static-streamed"]


def _shard_digest(result) -> dict:
    rows = np.ascontiguousarray(result.sample_buffer.rows())
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
        "server_peaks_sha256": _sha256("\n".join(
            f"{server}={local!r}/{result.server_peak_total_gb[server]!r}"
            for server, local in result.server_peak_local_gb.items())),
        "pool_peak_gb": {str(g): v for g, v in result.pool_peak_gb.items()},
    }
    online = result.online_stats
    if online is not None:
        out["online_stats"] = {
            "n_ticks": online.n_ticks,
            "n_checks": online.n_checks,
            "n_mitigations": online.n_mitigations,
            "n_failed_mitigations": online.n_failed_mitigations,
            "migrated_gb": online.migrated_gb,
            "migration_time_s": online.migration_time_s,
            "mitigated_vm_ids": _sha256("\n".join(online.mitigated_vm_ids)),
        }
    if result.fault_stats is not None:
        faults = result.fault_stats.as_dict()
        faults["killed_vm_ids"] = _sha256("\n".join(faults["killed_vm_ids"]))
        out["fault_stats"] = faults
    return out


def digest(results, ledger: PoolGroupLedger) -> dict:
    """Plain-data fingerprint of a fleet replay's results and ledger."""
    out = {
        "shards": [_shard_digest(r) for r in results],
        "ledger_peak_gb": {str(g): ledger.peak_gb[g]
                           for g in sorted(ledger.peak_gb)},
        "ledger_used_gb": {str(g): ledger.used_gb[g]
                           for g in sorted(ledger.used_gb)},
        "ledger_free_gb": {str(g): ledger.free_gb[g]
                           for g in sorted(ledger.free_gb)},
    }
    # Round-trip so int keys and floats compare as the file does.
    return json.loads(json.dumps(out))


def replay_case(name: str) -> dict:
    return digest(*replay_crossshard(**build_case(name)))


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


def test_fixture_reaches_every_rung(expected):
    """Across the cases, every control outcome really happened."""
    totals = {}
    for entry in expected.values():
        for shard in entry["shards"]:
            for block in ("online_stats", "fault_stats"):
                for key, value in shard.get(block, {}).items():
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0) + value
    for key in ("vms_migrated_local", "vms_live_migrated", "vms_killed",
                "n_mitigations", "n_failed_mitigations", "n_recoveries"):
        assert totals[key] > 0, key


def test_a_degraded_group_is_resynced(monkeypatch):
    """A release on a degraded group re-clamps its free capacity."""
    clamped = []
    original = PoolGroupLedger.resync

    def spy(self, group):
        before = self.free_gb[group]
        original(self, group)
        if self.free_gb[group] != before:
            clamped.append(group)

    monkeypatch.setattr(PoolGroupLedger, "resync", spy)
    replay_case("seamed-both-materialised")
    assert clamped


@pytest.mark.parametrize("name", CASES)
def test_replay_reproduces_fixture(name, expected):
    got = replay_case(name)
    want = expected[name]
    for index, (g, w) in enumerate(zip(got["shards"], want["shards"])):
        for key in w:
            assert g.get(key) == w[key], (index, key)
    assert got == want


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps(
        {name: replay_case(name) for name in CASES}, indent=1,
        sort_keys=True) + "\n")
