"""Deterministic EMC fault injection and graceful pool degradation.

Pond's pool groups are real hardware failure domains: one external memory
controller (EMC) backs one group, and when it dies every GB it serves is
gone at once (paper Section 4.1; the permission table is *per EMC*, so
there is no partial survival story beyond multi-EMC groups losing a
fraction of their capacity).  This module carries the whole failure-domain
subsystem:

* :class:`FaultEvent` / :class:`FaultSchedule` -- timed ``fail`` /
  ``repair`` events for pool groups, either hand-built or generated from a
  seeded renewal process (:meth:`FaultSchedule.seeded`).  Schedules are
  plain data (picklable, hashable event tuples) so process-pool fleet
  workers replay the exact same failures as a serial fleet.
* :class:`FaultImpactStats` -- per-replay accounting (VMs affected /
  migrated / killed, GB stranded, capacity lost, recovery latency, blast
  radius per group), mergeable across fleet shards exactly like
  ``OnlineControlStats``.
* :class:`FaultInjector` -- the replay-side driver.  It owns the event
  cursor, transitions the :class:`~repro.cluster.pool_topology
  .PoolGroupLedger` to degraded capacity on ``fail`` and back on
  ``repair``, and runs the **degradation ladder** over the affected live
  VMs: first :meth:`ArrayPlacementEngine.migrate_pool_to_local` (the
  headroom-checked pool->local reconfiguration), then a live migration to
  any server with all-local headroom, then -- only after the configured
  retry budget is exhausted -- a recorded kill.  Nothing is ever silently
  dropped: every outcome lands in the stats.

The event-ordering contract (fault ticks vs QoS ticks vs samples) is
DESIGN.md section 11.  The injector is engine-agnostic on purpose: it
drives :class:`~repro.cluster.engine.ArrayPlacementEngine` methods only,
so the cross-shard events pump (which also runs faulted single-cluster
replays as one-shard fleets) needs no engine internals, and the fault-free
replay paths never touch this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultImpactStats",
    "FaultInjector",
    "FAULT_KINDS",
]

#: Valid ``FaultEvent.kind`` values (EMC_FAIL / EMC_REPAIR in the issue's
#: terms; lower-case strings keep schedules JSON-friendly).
FAULT_KINDS = ("fail", "repair")


@dataclass(frozen=True)
class FaultEvent:
    """One timed pool-group fault transition.

    ``severity`` is the fraction of the group's healthy capacity lost on
    ``fail`` (``1.0`` = the whole EMC; ``0.5`` = half the blades of a
    multi-EMC group).  ``shard`` addresses the event in *shardwise* fleet
    runs (no :class:`PoolTopology`): group ids are shard-local there, so
    the schedule tags each event with the fleet shard it belongs to and
    :meth:`FaultSchedule.for_shard` routes it.  Topology replays use
    fleet-level group ids and ignore ``shard``.
    """

    time_s: float
    kind: str
    group: int
    severity: float = 1.0
    shard: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.time_s >= 0.0:
            raise ValueError("fault time_s cannot be negative")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        if self.group < 0:
            raise ValueError("group id cannot be negative")
        if self.shard < 0:
            raise ValueError("shard index cannot be negative")


class FaultSchedule:
    """An immutable, time-sorted sequence of :class:`FaultEvent`.

    ``migration_retry_budget`` caps the degradation ladder: each affected
    VM gets that many ladder attempts (the attempt at fail time plus
    retries on later evacuation ticks) before it is killed.  A budget of
    ``1`` kills at the first failed attempt; the default leaves room for
    departures to free headroom first.

    An **empty** schedule is valid: it is an "off" switch.  The replay
    entry points drop it before dispatch, so the replay runs on the static
    loops and reports a zeroed :class:`FaultImpactStats`.  Passed directly
    to the fault-aware loops, it must reproduce the static replay byte for
    byte (differential-tested).
    """

    def __init__(self, events: Iterable[FaultEvent] = (),
                 migration_retry_budget: int = 3) -> None:
        if migration_retry_budget < 1:
            raise ValueError("migration_retry_budget must be >= 1")
        ordered = list(events)
        for event in ordered:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(event)!r}")
        # Stable sort: events at equal times fire in authoring order.
        ordered.sort(key=lambda e: e.time_s)
        self.events: Tuple[FaultEvent, ...] = tuple(ordered)
        self.migration_retry_budget = migration_retry_budget

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} events, "
                f"retry_budget={self.migration_retry_budget})")

    @classmethod
    def seeded(
        cls,
        groups: Sequence[int],
        horizon_s: float,
        mean_time_between_failures_s: float,
        repair_delay_s: float,
        severity: float = 1.0,
        seed: int = 0,
        shard: int = 0,
        migration_retry_budget: int = 3,
    ) -> "FaultSchedule":
        """Seeded renewal process: per-group exponential fail inter-arrivals.

        Each group draws independent exponential gaps (mean
        ``mean_time_between_failures_s``) between *repair and next fail*,
        and every fail is repaired ``repair_delay_s`` later (repairs past
        ``horizon_s`` are dropped together with their fail, so every
        scheduled fail inside the horizon has a visible lifetime).  Uses
        ``random.Random(seed)`` only -- schedules are bit-identical across
        processes and ``PYTHONHASHSEED`` values.
        """
        if horizon_s <= 0.0:
            raise ValueError("horizon_s must be positive")
        if mean_time_between_failures_s <= 0.0:
            raise ValueError("mean_time_between_failures_s must be positive")
        if repair_delay_s < 0.0:
            raise ValueError("repair_delay_s cannot be negative")
        rng = random.Random(seed)
        rate = 1.0 / mean_time_between_failures_s
        events: List[FaultEvent] = []
        for group in groups:
            t = rng.expovariate(rate)
            while t < horizon_s:
                events.append(FaultEvent(t, "fail", group, severity, shard))
                repair_t = t + repair_delay_s
                if repair_t >= horizon_s:
                    break
                events.append(
                    FaultEvent(repair_t, "repair", group, severity, shard))
                t = repair_t + rng.expovariate(rate)
        return cls(events, migration_retry_budget=migration_retry_budget)

    def for_shard(self, shard: int) -> "FaultSchedule":
        """The sub-schedule addressed to one fleet shard, re-homed to 0.

        Shardwise fleet workers replay each shard as an independent
        single-cluster simulation, so the filtered events are re-tagged
        ``shard=0`` (their group ids are already shard-local).
        """
        return FaultSchedule(
            (FaultEvent(e.time_s, e.kind, e.group, e.severity, 0)
             for e in self.events if e.shard == shard),
            migration_retry_budget=self.migration_retry_budget,
        )

    def groups(self) -> Tuple[int, ...]:
        """Distinct group ids the schedule touches (ascending)."""
        return tuple(sorted({e.group for e in self.events}))


@dataclass
class FaultImpactStats:
    """Accounting for one faulted replay (mergeable across fleet shards).

    VM-level counters are attributed to the shard the VM runs in;
    event/group-level counters (events, capacity, stranding, recovery
    latency, blast radius) to the failing group's *home shard* -- the
    lowest-indexed shard attached to the group -- so merging shard stats
    never double-counts a spanning failure.
    """

    n_fail_events: int = 0
    n_repair_events: int = 0
    #: VMs the degradation ladder touched (= migrated + killed + pending).
    vms_affected: int = 0
    vms_migrated_local: int = 0
    vms_live_migrated: int = 0
    vms_killed: int = 0
    migrated_local_gb: float = 0.0
    live_migrated_gb: float = 0.0
    killed_gb: float = 0.0
    #: Pool GB in use beyond the surviving capacity at each fail instant --
    #: the demand the failure strands until evacuation or repair.
    stranded_gb: float = 0.0
    #: Healthy capacity removed by fail events (finite groups only).
    capacity_lost_gb: float = 0.0
    recovery_latency_s_total: float = 0.0
    recovery_latency_s_max: float = 0.0
    n_recoveries: int = 0
    #: Fail events with no matching repair by the end of the replay.
    n_unrecovered: int = 0
    #: group id -> VMs its failures pushed onto the ladder.
    blast_radius_by_group: Dict[int, int] = field(default_factory=dict)
    killed_vm_ids: List[str] = field(default_factory=list)

    @property
    def mean_recovery_latency_s(self) -> float:
        if not self.n_recoveries:
            return 0.0
        return self.recovery_latency_s_total / self.n_recoveries

    @property
    def survival_rate(self) -> float:
        """Fraction of ladder-affected VMs that were *not* killed."""
        if not self.vms_affected:
            return 1.0
        return 1.0 - self.vms_killed / self.vms_affected

    def add(self, other: "FaultImpactStats") -> "FaultImpactStats":
        """Accumulate another stats block (e.g. merging fleet shards)."""
        self.n_fail_events += other.n_fail_events
        self.n_repair_events += other.n_repair_events
        self.vms_affected += other.vms_affected
        self.vms_migrated_local += other.vms_migrated_local
        self.vms_live_migrated += other.vms_live_migrated
        self.vms_killed += other.vms_killed
        self.migrated_local_gb += other.migrated_local_gb
        self.live_migrated_gb += other.live_migrated_gb
        self.killed_gb += other.killed_gb
        self.stranded_gb += other.stranded_gb
        self.capacity_lost_gb += other.capacity_lost_gb
        self.recovery_latency_s_total += other.recovery_latency_s_total
        self.recovery_latency_s_max = max(
            self.recovery_latency_s_max, other.recovery_latency_s_max)
        self.n_recoveries += other.n_recoveries
        self.n_unrecovered += other.n_unrecovered
        for group, count in other.blast_radius_by_group.items():
            self.blast_radius_by_group[group] = (
                self.blast_radius_by_group.get(group, 0) + count)
        self.killed_vm_ids.extend(other.killed_vm_ids)
        return self

    def as_dict(self) -> Dict[str, object]:
        """Canonical plain-data view (determinism checks, BENCH reports).

        Dict keys are emitted in sorted order so serialised comparisons are
        independent of accumulation order (and of ``PYTHONHASHSEED``).
        """
        return {
            "n_fail_events": self.n_fail_events,
            "n_repair_events": self.n_repair_events,
            "vms_affected": self.vms_affected,
            "vms_migrated_local": self.vms_migrated_local,
            "vms_live_migrated": self.vms_live_migrated,
            "vms_killed": self.vms_killed,
            "migrated_local_gb": self.migrated_local_gb,
            "live_migrated_gb": self.live_migrated_gb,
            "killed_gb": self.killed_gb,
            "stranded_gb": self.stranded_gb,
            "capacity_lost_gb": self.capacity_lost_gb,
            "recovery_latency_s_total": self.recovery_latency_s_total,
            "recovery_latency_s_max": self.recovery_latency_s_max,
            "n_recoveries": self.n_recoveries,
            "n_unrecovered": self.n_unrecovered,
            "blast_radius_by_group": {
                str(g): self.blast_radius_by_group[g]
                for g in sorted(self.blast_radius_by_group)
            },
            "killed_vm_ids": list(self.killed_vm_ids),
        }


class FaultInjector:
    """Drives one replay's fault schedule against engines over a ledger.

    Constructed by the fault-aware replay loop (the cross-shard events
    pump, which also runs every faulted single-cluster replay as a
    one-shard fleet); never by users.  The loop routes every placement and
    departure through the injector's **token** indirection: the departure
    heap stores a stable token, and
    the injector maps it to the VM's current engine handle -- live
    migration rewrites the mapping, a kill voids it (``-1``), so a
    departure of a migrated VM releases the right placement and a departure
    of a killed VM is a no-op instead of corrupting a recycled handle.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        ledger,
        engines: Sequence[object],
        at_risk: Sequence[Dict[int, str]],
        stats: Sequence[FaultImpactStats],
        group_shards: Dict[int, Tuple[int, ...]],
        done: Sequence[bool],
    ) -> None:
        self.schedule = schedule
        self.ledger = ledger
        self.engines = list(engines)
        self.at_risk = list(at_risk)
        self.stats = list(stats)
        known = ledger.capacity_gb
        unknown = sorted({e.group for e in schedule.events
                          if e.group not in known})
        if unknown:
            raise ValueError(
                f"fault schedule names pool groups {unknown[:8]} that do not "
                f"exist in this replay (known groups: "
                f"{sorted(known)[:8]}{'...' if len(known) > 8 else ''})"
            )
        #: group -> shards attached to it (blast-radius / liveness gating).
        self.group_shards = group_shards
        #: The replay's per-shard ``done`` flags: a group's fault and retry
        #: work stops once every shard attached to it is past its horizon.
        self.done = done

        self._cursor = 0
        #: token -> current engine handle (-1 once killed or departed).
        self._token_handle: List[int] = []
        self._token_shard: List[int] = []
        #: group -> {token: vm_id} of live pool-exposed VMs, insertion order.
        self._pool_vms: Dict[int, Dict[int, str]] = {g: {} for g in known}
        self._token_group: Dict[int, int] = {}
        #: token -> failed ladder attempts so far (insertion ordered).
        self._pending: Dict[int, int] = {}
        #: group -> earliest unrepaired fail time (recovery latency).
        self._open_failures: Dict[int, float] = {}

    # -- schedule cursor ---------------------------------------------------------
    @property
    def next_time(self) -> float:
        """Arrival time of the next unfired event (``inf`` when drained)."""
        events = self.schedule.events
        if self._cursor >= len(events):
            return math.inf
        return events[self._cursor].time_s

    def _home_stats(self, group: int) -> FaultImpactStats:
        return self.stats[self.group_shards[group][0]]

    def _live_group(self, group: int) -> bool:
        done = self.done
        return any(not done[s] for s in self.group_shards[group])

    # -- loop callbacks ----------------------------------------------------------
    def note_place(self, shard: int, handle: int, vm_id: str,
                   pool_gb: float) -> int:
        """Register a successful placement; returns its departure token."""
        token = len(self._token_handle)
        self._token_handle.append(handle)
        self._token_shard.append(shard)
        if pool_gb > 0.0:
            engine = self.engines[shard]
            group = engine.group_of[engine.vm_server[handle]]
            if group >= 0:
                self._pool_vms[group][token] = vm_id
                self._token_group[token] = group
        return token

    def on_departure(self, token: int) -> None:
        """Process one departure event by token (kill-aware)."""
        handle = self._token_handle[token]
        if handle < 0:
            return  # killed earlier; the heap entry is stale
        shard = self._token_shard[token]
        self.at_risk[shard].pop(handle, None)
        self._drop_pool_vm(token)
        self.engines[shard].remove(handle)
        self._token_handle[token] = -1
        self.resync_degraded()

    def resync_degraded(self) -> None:
        """Re-clamp ``free = max(0, capacity - used)`` on degraded groups.

        The engines' unmediated ``pool_free += released`` on departures and
        pool->local migrations can overshoot a degraded group's surviving
        capacity; the loops call this after any engine operation that
        releases pool memory.  A no-op while nothing is degraded, so the
        empty-schedule replay's arithmetic is untouched.
        """
        ledger = self.ledger
        for group in ledger.degraded_groups:
            ledger.resync(group)

    # -- event firing ------------------------------------------------------------
    def fire_next(self) -> None:
        """Fire the event at the cursor (fail -> degrade + ladder; repair)."""
        event = self.schedule.events[self._cursor]
        self._cursor += 1
        if not self._live_group(event.group):
            # Every shard attached to the group is past its replay horizon:
            # a replay of any of those shards alone would have ended before
            # this event.
            return
        if event.kind == "fail":
            self._fire_fail(event)
        else:
            self._fire_repair(event)

    def _fire_fail(self, event: FaultEvent) -> None:
        ledger = self.ledger
        group = event.group
        stats = self._home_stats(group)
        stats.n_fail_events += 1
        before = ledger.capacity_gb[group]
        deficit = ledger.degrade(group, event.severity)
        after = ledger.capacity_gb[group]
        if not math.isinf(before):
            lost = before - after
            if lost > 0.0:
                stats.capacity_lost_gb += lost
        if deficit > 0.0:
            stats.stranded_gb += deficit
        if group not in self._open_failures:
            self._open_failures[group] = event.time_s
        self._evacuate(group)

    def _fire_repair(self, event: FaultEvent) -> None:
        ledger = self.ledger
        group = event.group
        stats = self._home_stats(group)
        stats.n_repair_events += 1
        if not ledger.is_degraded(group):
            return
        ledger.repair(group)
        fail_time = self._open_failures.pop(group, None)
        if fail_time is not None:
            latency = event.time_s - fail_time
            stats.recovery_latency_s_total += latency
            if latency > stats.recovery_latency_s_max:
                stats.recovery_latency_s_max = latency
            stats.n_recoveries += 1
        # Pending evacuations of a repaired group are cancelled: the VMs
        # keep running against the restored capacity.
        for token in [t for t, g in self._token_group.items()  # repro: noqa DET007 -- tokens are inserted in placement order, which is deterministic replay order
                      if g == group and t in self._pending]:
            self._pending.pop(token, None)

    def _evacuate(self, group: int) -> None:
        """Run the ladder over the group's pool VMs until demand fits."""
        victims = self._pool_vms.get(group)
        if not victims:
            return
        ledger = self.ledger
        for token in list(victims):
            if ledger.used_gb[group] <= ledger.capacity_gb[group] + 1e-9:
                break  # surviving capacity absorbs the remaining demand
            self._touch(token, first=True)

    def retry_tick(self, shard: int) -> None:
        """Retry pending evacuations of one shard (after its QoS tick)."""
        if not self._pending:
            return
        ledger = self.ledger
        for token in list(self._pending):
            if self._token_shard[token] != shard:
                continue
            group = self._token_group[token]
            if (not ledger.is_degraded(group)
                    or ledger.used_gb[group]
                    <= ledger.capacity_gb[group] + 1e-9):
                # Repaired, or departures cleared the deficit: the VM stays.
                self._pending.pop(token, None)
                continue
            self._touch(token, first=False)

    def _touch(self, token: int, first: bool) -> None:
        """One ladder attempt; books keeping for affected/pending/kill."""
        shard = self._token_shard[token]
        if self.engines[shard].vm_pool_gb[self._token_handle[token]] <= 0.0:
            # Already all-local (e.g. the QoS tick mitigated it since
            # placement): the failure cannot touch it; retire it quietly.
            self._drop_pool_vm(token)
            return
        if first:
            group = self._token_group[token]
            stats = self.stats[shard]
            stats.vms_affected += 1
            home = self._home_stats(group)
            home.blast_radius_by_group[group] = (
                home.blast_radius_by_group.get(group, 0) + 1)
        if self._attempt(token):
            self._pending.pop(token, None)
            return
        attempts = self._pending.get(token, 0) + 1
        if attempts >= self.schedule.migration_retry_budget:
            self._pending.pop(token, None)
            self._kill(token)
        else:
            self._pending[token] = attempts

    def _attempt(self, token: int) -> bool:
        """Ladder rungs 1+2: pool->local reconfigure, then live migration."""
        shard = self._token_shard[token]
        engine = self.engines[shard]
        handle = self._token_handle[token]
        moved = engine.migrate_pool_to_local(handle)
        stats = self.stats[shard]
        if moved >= 0.0:
            stats.vms_migrated_local += 1
            stats.migrated_local_gb += moved
            self.at_risk[shard].pop(handle, None)
            self._drop_pool_vm(token)
            self.resync_degraded()
            return True
        # No NUMA-node headroom in place: live-migrate to any server that
        # fits the VM all-local (pre-copy model: the new placement commits
        # before the old one releases, so the transient double-occupancy is
        # accounted like a real live migration would occupy both hosts).
        cores = engine.vm_cores[handle]
        total_gb = engine.vm_local_gb[handle] + engine.vm_pool_gb[handle]
        new_handle = engine.place(cores, total_gb, 0.0)
        if new_handle < 0:
            return False
        engine.remove(handle)
        self._token_handle[token] = new_handle
        self.at_risk[shard].pop(handle, None)
        stats.vms_live_migrated += 1
        stats.live_migrated_gb += total_gb
        self._drop_pool_vm(token)
        self.resync_degraded()
        return True

    def _kill(self, token: int) -> None:
        """Ladder rung 3: recorded kill (never a silent drop)."""
        shard = self._token_shard[token]
        engine = self.engines[shard]
        handle = self._token_handle[token]
        group = self._token_group[token]
        vm_id = self._pool_vms[group].get(token, "")
        gb = engine.vm_local_gb[handle] + engine.vm_pool_gb[handle]
        self.at_risk[shard].pop(handle, None)
        self._drop_pool_vm(token)
        engine.remove(handle)
        self._token_handle[token] = -1
        stats = self.stats[shard]
        stats.vms_killed += 1
        stats.killed_gb += gb
        stats.killed_vm_ids.append(vm_id)
        self.resync_degraded()

    def _drop_pool_vm(self, token: int) -> None:
        group = self._token_group.pop(token, None)
        if group is not None:
            self._pool_vms[group].pop(token, None)
        self._pending.pop(token, None)

    # -- end of replay -----------------------------------------------------------
    def finalize(self) -> None:
        """Close the books: unrepaired failures become ``n_unrecovered``."""
        for group in self._open_failures:
            self._home_stats(group).n_unrecovered += 1
        self._open_failures.clear()
