"""Figure 2: memory stranding at fleet scale.

(a) Daily-average stranded memory bucketed by the percentage of scheduled CPU
    cores, with 5th/95th-percentile error bars.
(b) Stranding over time for a set of racks, including a workload-shift event
    that suddenly increases stranding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.fleet import FleetSimulator
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.stranding import StrandingAnalyzer, StrandingBucket, stranding_vs_utilization
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator

__all__ = ["StrandingStudy", "run_stranding_study", "run_rack_timeseries", "format_stranding_table"]


@dataclass
class StrandingStudy:
    """Results backing Figure 2a plus fleet-level percentiles."""

    buckets: List[StrandingBucket]
    fleet_p5: float
    fleet_p95: float
    fleet_max: float
    n_clusters: int


def run_stranding_study(
    n_clusters: int = 12,
    n_servers: int = 24,
    duration_days: float = 4.0,
    utilization_range: Tuple[float, float] = (0.55, 0.97),
    seed: int = 5,
    max_workers: Optional[int] = None,
    stream_chunk_size: Optional[int] = 16384,
) -> StrandingStudy:
    """Simulate a fleet of clusters and aggregate stranding (Figure 2a).

    The fleet is run through the sharded :class:`FleetSimulator` (one shard
    per cluster, memory-constrained, no pool); ``max_workers`` optionally
    fans the shards out over a process pool.  By default each shard replays
    a lazy trace stream (``stream_chunk_size`` records per chunk) rather
    than materialising its trace -- the results are identical (streamed and
    materialised generation produce the same records), only peak memory
    changes; pass ``stream_chunk_size=None`` for the materialised path.
    """
    base = TraceGenConfig(
        n_servers=n_servers,
        duration_days=duration_days,
        mean_lifetime_hours=6.0,
    )
    fleet = FleetSimulator.utilization_sweep(
        n_clusters,
        base,
        utilization_range=utilization_range,
        seed=seed,
        constrain_memory=True,
        sample_interval_s=3600.0,
        max_workers=max_workers,
        stream_chunk_size=stream_chunk_size,
    )
    results = fleet.run().results()
    analyzer = StrandingAnalyzer(results)
    buckets = stranding_vs_utilization(list(results.values()))
    all_samples = np.concatenate(
        [r.sample_array("stranded_percent") for r in results.values() if r.n_samples]  # repro: noqa DET007 -- results are inserted in cluster submission order, fixed by the study config
    )
    return StrandingStudy(
        buckets=buckets,
        fleet_p5=float(np.percentile(all_samples, 5)),
        fleet_p95=float(np.percentile(all_samples, 95)),
        fleet_max=float(all_samples.max()),
        n_clusters=n_clusters,
    )


def run_rack_timeseries(
    n_racks: int = 8,
    n_servers: int = 16,
    duration_days: float = 8.0,
    shift_day: float = 4.0,
    seed: int = 9,
    stream_chunk_size: int = 16384,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Stranding-over-time series for a set of racks (Figure 2b).

    Half of the racks experience a workload change at ``shift_day`` that
    triples the weight of memory-optimised VMs, which changes how much of
    their DRAM is stranded.
    Each rack's trace is replayed as a lazy stream, so only one chunk of
    records exists at a time.
    """
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for rack in range(n_racks):
        shifted = rack % 2 == 0
        cfg = TraceGenConfig(
            cluster_id=f"rack-{rack}",
            n_servers=n_servers,
            duration_days=duration_days,
            target_core_utilization=0.85,
            shift_day=shift_day if shifted else None,
            shift_memory_factor=3.0,
            seed=seed + rack,
        )
        simulator = ClusterSimulator(
            n_servers=n_servers, constrain_memory=True, sample_interval_s=3600.0
        )
        result = simulator.run(TraceGenerator(cfg).stream(stream_chunk_size))
        analyzer = StrandingAnalyzer({cfg.cluster_id: result})
        series[cfg.cluster_id] = analyzer.daily_average(cfg.cluster_id)
    return series


def format_stranding_table(study: StrandingStudy) -> str:
    """Text table matching the Figure 2a presentation."""
    lines = [
        "Figure 2a -- stranded memory vs scheduled CPU cores",
        f"{'cores sched [%]':>16} {'mean stranded [%]':>19} {'p5 [%]':>8} {'p95 [%]':>9}",
    ]
    for bucket in study.buckets:
        lines.append(
            f"{bucket.scheduled_cores_percent:>16.0f} "
            f"{bucket.mean_stranded_percent:>19.1f} "
            f"{bucket.p5_stranded_percent:>8.1f} "
            f"{bucket.p95_stranded_percent:>9.1f}"
        )
    lines.append(
        f"fleet: p5={study.fleet_p5:.1f}%  p95={study.fleet_p95:.1f}%  "
        f"max={study.fleet_max:.1f}%  ({study.n_clusters} clusters)"
    )
    return "\n".join(lines)
