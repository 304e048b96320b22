"""Shared helpers for the static replay differentials.

``fixtures/object_engine.json`` pins the outputs of the retired
object-engine replay (a scheduler over per-server objects) on the cases
in ``test_object_engine_fixture.py`` and on the cluster-scale benchmark
trace.  :func:`digest` turns a ``SimulationResult`` into the same
plain-data form, so a fixture entry and a fresh replay compare with ``==``.
:func:`raw_record` builds the degenerate trace records those tests feed in.
"""

import hashlib
import json
from pathlib import Path

from repro.cluster.trace import VMTraceRecord

FIXTURE = Path(__file__).parent / "fixtures" / "object_engine.json"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest(result) -> dict:
    """Everything a static replay reports, as JSON-comparable data.

    Float dicts are hashed over their ``repr`` (exact for floats) so large
    clusters stay small in the fixture; sample rows are hashed over their
    raw float64 bytes.
    """
    rows = result.sample_buffer.rows().copy()
    out = {
        "sample_rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
        "n_samples": result.n_samples,
        "placements_sha256": _sha256(
            f"{vm}={server}" for vm, server in result.placements.items()),
        "n_placements": len(result.placements),
        "placed_vms": result.placed_vms,
        "rejected_vms": result.rejected_vms,
        "total_memory_gb_allocated": result.total_memory_gb_allocated,
        "total_pool_gb_allocated": result.total_pool_gb_allocated,
        "server_peaks_sha256": _sha256(
            f"{server}={local!r}/{result.server_peak_total_gb[server]!r}"
            for server, local in result.server_peak_local_gb.items()),
        "pool_peak_gb": {str(g): v for g, v in result.pool_peak_gb.items()},
    }
    # Round-trip so int keys and floats compare as the file does.
    return json.loads(json.dumps(out))


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def raw_record(vm_id, arrival_s, lifetime_s, cores, memory_gb):
    """A trace record that skips ``VMTraceRecord``'s validation, so it may
    carry a zero or negative lifetime or zero cores."""
    record = VMTraceRecord(vm_id=vm_id, cluster_id="raw", arrival_s=arrival_s,
                           lifetime_s=1.0, cores=1, memory_gb=memory_gb)
    object.__setattr__(record, "lifetime_s", lifetime_s)
    object.__setattr__(record, "cores", cores)
    return record
