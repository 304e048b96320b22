"""Cluster substrate: traces, scheduling, and datacenter-scale simulation.

The paper's stranding analysis (Section 3.1) and end-to-end savings results
(Section 6.5) are driven by VM-to-server traces from 100 Azure clusters over
75 days.  Those traces are proprietary; this package provides:

* :mod:`repro.cluster.server` / :mod:`repro.cluster.vm_types` -- server and VM
  SKU definitions matching the paper's hardware (two-socket servers, a mix of
  VM sizes with varying DRAM-to-core ratios).
* :mod:`repro.cluster.trace` -- the VM arrival/departure trace format with
  CSV round-tripping, plus the chunked ``TraceStream`` protocol that replays
  traces from generators or CSV files without materialising them.
* :mod:`repro.cluster.tracegen` -- a synthetic trace generator whose knobs
  (target core utilisation, DRAM:core skew, lifetime distribution, customer
  mix) reproduce the statistical conditions that cause stranding; its
  ``generate_bulk`` path draws everything vectorized for 10^5..10^6-VM traces.
* :mod:`repro.cluster.scheduler` -- the NUMA-aware bin-packing VM scheduler,
  with an indexed candidate structure (default) and a legacy linear scan kept
  for differential testing.
* :mod:`repro.cluster.engine` -- the struct-of-arrays placement engine behind
  ``engine="array"`` (the default hot path): flat per-node/per-server arrays,
  integer VM handles, and the same best-fit bucket walk as the indexed
  scheduler, byte-identical to the object path.
* :mod:`repro.cluster.simulator` -- an event-driven cluster simulator tracking
  per-server and per-pool memory at VM-event granularity over one merged
  arrival/departure/sample event stream; a cluster replays as a one-shard
  fleet through :mod:`repro.cluster.pool_topology` except for static
  streams and degenerate traces, which keep its calendar-queue loop.
* :mod:`repro.cluster.stranding` -- stranding metrics (Figure 2).
* :mod:`repro.cluster.pool` -- pool dimensioning / DRAM-savings estimation
  (Figures 3 and 21).
* :mod:`repro.cluster.fleet` -- sharded fleet simulator merging N independent
  cluster replays (with batch policy evaluation, optional streaming, and a
  fleet-level capacity search) for million-VM studies.
* :mod:`repro.cluster.pool_topology` -- fleet-level pool topologies: pool
  groups that span cluster shards, a fleet-owned group ledger, and the
  merged cross-shard event replay behind ``FleetSimulator(pool_topology=)``.
* :mod:`repro.cluster.faults` -- deterministic EMC fault injection: seeded
  ``FaultSchedule`` timelines, graceful pool-group degradation through the
  ledger, the mitigate/migrate/kill degradation ladder, and per-replay
  ``FaultImpactStats`` (DESIGN.md section 11).
"""

from repro.cluster.engine import ArrayPlacementEngine, PLACEMENT_ENGINES
from repro.cluster.faults import FaultEvent, FaultImpactStats, FaultSchedule
from repro.cluster.server import ServerConfig, ClusterServer
from repro.cluster.vm_types import VMType, VM_TYPE_CATALOG, sample_vm_type
from repro.cluster.pool_topology import PoolGroupLedger, PoolTopology
from repro.cluster.trace import (
    VMTraceRecord,
    ClusterTrace,
    TraceColumns,
    TraceStream,
    MaterializedTraceStream,
    CsvTraceStream,
    write_csv,
)
from repro.cluster.tracegen import TraceGenerator, TraceGenConfig, GeneratedTraceStream
from repro.cluster.scheduler import VMScheduler, PlacementError, SCHEDULER_STRATEGIES
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.cluster.stranding import StrandingAnalyzer, stranding_vs_utilization
from repro.cluster.pool import PoolDimensioner, PoolSavings

_FLEET_EXPORTS = ("FleetSimulator", "FleetResult", "FleetShardResult",
                  "FleetCapacitySearchResult")


def __getattr__(name):
    # repro.cluster.fleet builds on repro.core.policies, which itself imports
    # repro.cluster.trace -- importing fleet eagerly here would make the
    # package cycle on itself when repro.core initialises first.  Resolve the
    # fleet exports lazily instead (PEP 562).
    if name in _FLEET_EXPORTS:
        from repro.cluster import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FleetSimulator",
    "FleetResult",
    "FleetShardResult",
    "FleetCapacitySearchResult",
    "ArrayPlacementEngine",
    "PLACEMENT_ENGINES",
    "FaultEvent",
    "FaultSchedule",
    "FaultImpactStats",
    "PoolTopology",
    "PoolGroupLedger",
    "write_csv",
    "ServerConfig",
    "ClusterServer",
    "VMType",
    "VM_TYPE_CATALOG",
    "sample_vm_type",
    "VMTraceRecord",
    "ClusterTrace",
    "TraceColumns",
    "TraceStream",
    "MaterializedTraceStream",
    "CsvTraceStream",
    "GeneratedTraceStream",
    "TraceGenerator",
    "TraceGenConfig",
    "VMScheduler",
    "PlacementError",
    "SCHEDULER_STRATEGIES",
    "ClusterSimulator",
    "SimulationResult",
    "StrandingAnalyzer",
    "stranding_vs_utilization",
    "PoolDimensioner",
    "PoolSavings",
]
