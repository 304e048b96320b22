"""Online prediction-driven control loop over the production replay.

The paper's end-to-end system (Sections 4.3-4.4, Figure 11, Figure 21) is
not a one-shot allocation policy: an ML pipeline sizes each VM's zNUMA at
scheduling time, and a QoS monitor watches running VMs and triggers
mitigation (pool -> local reconfiguration) when a misprediction surfaces.
This module carries the *fleet-scale* counterpart of that loop: the
configuration knob block, the per-replay accounting, and the slowdown
estimator the replay's QoS tick consumes.

The loop itself runs inside the array-engine replays
(:meth:`repro.cluster.simulator.ClusterSimulator.run` with ``online=...``
and the cross-shard pump in :mod:`repro.cluster.pool_topology`); the event
ordering contract is DESIGN.md section 10.  The hypervisor-level
single-host actors (:class:`~repro.core.control_plane.qos_monitor.QoSMonitor`,
:class:`~repro.core.control_plane.mitigation.MitigationManager`) stay the
behavioural reference for one host; this module is their struct-of-arrays
projection at 100k+-VM scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.counters import Counters

__all__ = [
    "OnlineControlConfig",
    "OnlineControlStats",
    "estimate_slowdown_batch",
    "at_risk_mask",
    "FALLBACK_SLOWDOWN_SCALE_PERCENT",
]

#: Fallback slowdown scale (percent at 100 % spill) used when the policy
#: does not expose ``predict_slowdown_batch``.  Matches the worst-case
#: pool-latency slowdowns the paper measures for fully pool-backed
#: latency-sensitive workloads (Figure 5: up to ~25 %).
FALLBACK_SLOWDOWN_SCALE_PERCENT = 25.0


@dataclass(frozen=True)
class OnlineControlConfig:
    """Knobs for the online QoS/mitigation stage of a replay.

    ``qos_threshold_percent`` is the PDM the QoS tick enforces: a live VM
    whose estimated slowdown exceeds it is mitigated (its pool share is
    migrated to NUMA-local DRAM).  ``math.inf`` disables mitigation
    entirely -- the replay is then byte-identical to the static replay of
    the same policy (differential-tested).

    ``migration_cost_s_per_gb`` prices each pool -> local move; it only
    feeds the mitigation-latency accounting (`OnlineControlStats`), never
    the replay's event ordering, so charging a different cost cannot change
    placements.
    """

    qos_threshold_percent: float = 5.0
    migration_cost_s_per_gb: float = 0.2

    def __post_init__(self) -> None:
        if not self.qos_threshold_percent > 0:
            raise ValueError("qos_threshold_percent must be positive")
        if self.migration_cost_s_per_gb < 0:
            raise ValueError("migration_cost_s_per_gb cannot be negative")

    @property
    def mitigation_enabled(self) -> bool:
        return not math.isinf(self.qos_threshold_percent)


@dataclass
class OnlineControlStats(Counters):
    """Accounting for one online replay (mergeable across fleet shards)."""

    n_ticks: int = 0
    n_checks: int = 0
    n_mitigations: int = 0
    n_failed_mitigations: int = 0
    migrated_gb: float = 0.0
    migration_time_s: float = 0.0
    mitigated_vm_ids: List[str] = field(default_factory=list)

    @property
    def mean_mitigation_s(self) -> float:
        """Mean modelled latency of one successful mitigation."""
        if not self.n_mitigations:
            return 0.0
        return self.migration_time_s / self.n_mitigations


def _trace_memory_untouched(trace):
    """(memory_gb, untouched_fraction) arrays for a trace-like input."""
    columns = trace.columns() if hasattr(trace, "columns") else trace
    memory = getattr(columns, "memory_gb", None)
    untouched = getattr(columns, "untouched_fraction", None)
    if memory is not None and untouched is not None:
        return np.asarray(memory, float), np.asarray(untouched, float)
    records = list(trace)
    memory = np.fromiter((r.memory_gb for r in records), float, len(records))
    untouched = np.fromiter(
        (r.untouched_fraction for r in records), float, len(records)
    )
    return memory, untouched


def estimate_slowdown_batch(policy, trace, pool_gb: np.ndarray) -> np.ndarray:
    """Estimated slowdown percent per VM, aligned with the trace order.

    Prefers the policy's own model -- ``predict_slowdown_batch(trace,
    pool_gb)`` (the :class:`~repro.core.policies.PredictionPolicy` path,
    which reruns the latency forest deterministically) -- and falls back to
    a spill-fraction heuristic for policies without one: the estimated
    slowdown scales with the fraction of the VM's memory that its pool
    share forces beyond the actual untouched set.

    NaN estimates are sanitised to ``+inf`` here: the QoS tick treats an
    unmeasurable slowdown on a pool-exposed VM as a PDM violation (the
    same conservative direction :class:`QoSMonitor` takes on broken
    telemetry), instead of letting a ``NaN > threshold`` comparison
    silently drop the VM from mitigation.
    """
    pool_gb = np.asarray(pool_gb, dtype=np.float64)
    method = getattr(policy, "predict_slowdown_batch", None)
    if method is not None:
        slowdown = np.asarray(method(trace, pool_gb), dtype=np.float64)
    else:
        memory_gb, untouched_fraction = _trace_memory_untouched(trace)
        spilled_gb = np.maximum(pool_gb - untouched_fraction * memory_gb, 0.0)
        spill_fraction = spilled_gb / np.maximum(memory_gb, 1e-12)
        slowdown = FALLBACK_SLOWDOWN_SCALE_PERCENT * spill_fraction
    if slowdown.shape != pool_gb.shape:
        raise ValueError(
            f"slowdown estimate shape {slowdown.shape} does not match "
            f"pool_gb shape {pool_gb.shape}"
        )
    return np.where(np.isnan(slowdown), np.inf, slowdown)


def at_risk_mask(slowdowns: np.ndarray, pool_gb: np.ndarray,
                 qos_threshold_percent: float) -> np.ndarray:
    """Which VMs the QoS tick will flag: pool-exposed and beyond the PDM.

    Monotone in the threshold by construction: lowering
    ``qos_threshold_percent`` can only grow the mask (property-tested).
    """
    slowdowns = np.asarray(slowdowns, dtype=np.float64)
    pool_gb = np.asarray(pool_gb, dtype=np.float64)
    return (pool_gb > 0.0) & (slowdowns > qos_threshold_percent)
