"""Fault-injection benchmark: EMC failures inside the replay hot path.

The fault-injection subsystem (``repro.cluster.faults``, DESIGN.md
section 11) rides inside the merged event pump, so its cost and its
byte-identity promise both need pinning at benchmark scale:

* the **faulted** replay (seeded ``FaultSchedule``, full degradation
  ladder) sustains a sane VMs/s rate with a recorded floor,
* an **empty** schedule -- an "off" switch, which ``run`` drops before
  the replay, so the replay is the static one -- stays byte-identical to
  the static replay at >=100k VMs, and its cost relative to the static
  replay is recorded as ``empty_schedule_over_static``: the median over
  reps of the per-rep ratio, the two replays alternating which runs first
  (no floor; ROADMAP aim 2 wants it within 10% of 1.0),
* a seeded faulted replay re-run is **bit-identical** (``as_dict``
  canonical forms), and
* the emitted ``BENCH_fault_injection.json`` report carries the numbers,
  including the full ladder accounting (migrated/live-migrated/killed).

Replays run serially in-process with interleaved timing (min of N per
path).
"""

import statistics
import time

import numpy as np
import pytest

from _bench_report import (
    check_perf_floors,
    emit_report,
    pick,
    timed_pair,
    validate_report,
)
from repro.cluster import ClusterSimulator, TraceGenerator, TraceGenConfig
from repro.cluster.faults import FaultSchedule
from repro.core.policies import StaticFractionPolicy

N_SERVERS = pick(200, 16)
DURATION_DAYS = pick(3.5, 0.5)
MIN_TOTAL_VMS = pick(100_000, 500)
MIN_VMS_PER_S = pick(15_000, 500)
POOL_SIZE_SOCKETS = 16
POOL_CAPACITY_GB_PER_GROUP = 2000.0
STATIC_FRACTION = 0.3
MTBF_S = pick(6.0, 2.0) * 3600.0
REPAIR_DELAY_S = 2.0 * 3600.0
FAULT_SEED = 9
#: Timed runs per path; each path's time is the min (interleaved runs damp
#: the +-30% single-shot noise a shared host shows).
TIMING_REPS = pick(3, 2)


@pytest.fixture(scope="module")
def trace_and_policy():
    cfg = TraceGenConfig(
        cluster_id="fault-injection",
        n_servers=N_SERVERS,
        duration_days=DURATION_DAYS,
        mean_lifetime_hours=2.0,
        target_core_utilization=0.85,
        seed=42,
    )
    start = time.perf_counter()
    trace = TraceGenerator(cfg).generate_bulk()
    gen_seconds = time.perf_counter() - start
    print(f"\ngenerated {len(trace):,} VMs in {gen_seconds:.1f}s")
    assert len(trace) >= MIN_TOTAL_VMS
    return trace, StaticFractionPolicy(fraction=STATIC_FRACTION)


def make_simulator():
    return ClusterSimulator(
        n_servers=N_SERVERS,
        pool_size_sockets=POOL_SIZE_SOCKETS,
        pool_capacity_gb_per_group=POOL_CAPACITY_GB_PER_GROUP,
        constrain_memory=True,
        sample_interval_s=3600.0,
        record_placements=False,
    )


def make_schedule():
    sockets = TraceGenConfig().server_config.sockets
    n_groups = N_SERVERS // max(1, POOL_SIZE_SOCKETS // sockets)
    return FaultSchedule.seeded(
        groups=range(n_groups),
        horizon_s=DURATION_DAYS * 86400.0,
        mean_time_between_failures_s=MTBF_S,
        repair_delay_s=REPAIR_DELAY_S,
        seed=FAULT_SEED,
    )


def test_bench_fault_injection_at_scale(trace_and_policy):
    trace, policy = trace_and_policy
    n_vms = len(trace)
    schedule = make_schedule()
    assert schedule.events, "seeded schedule must fire at benchmark scale"

    # Interleaved min-of-N timing: one rep runs every path back to back, so
    # a noise spike on the host hits them alike.  Replays are
    # deterministic, so keeping the last rep's results is exact.  The
    # static and empty-schedule replays alternate which runs first, and
    # their ratio is the median of the per-rep ratios.
    static_times, empty_times, faulted_times, rerun_times = [], [], [], []
    empty_ratios = []
    static = empty = faulted = rerun = None
    for rep in range(TIMING_REPS):
        static, static_s, empty, empty_s = timed_pair(
            rep, lambda: make_simulator().run(trace, policy),
            lambda: make_simulator().run(trace, policy,
                                         faults=FaultSchedule()))
        static_times.append(static_s)
        empty_times.append(empty_s)
        empty_ratios.append(empty_s / static_s)
        start = time.perf_counter()
        faulted = make_simulator().run(trace, policy, faults=schedule)
        faulted_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        rerun = make_simulator().run(trace, policy, faults=schedule)
        rerun_times.append(time.perf_counter() - start)

    static_seconds = min(static_times)
    empty_seconds = min(empty_times)
    empty_over_static = statistics.median(empty_ratios)
    faulted_seconds = min(faulted_times)
    vms_per_s = n_vms / faulted_seconds

    # Empty-schedule replay is byte-identical to the static replay: an
    # "off" switch must not perturb the fault-free path.
    assert np.array_equal(static.sample_buffer.rows(),
                          empty.sample_buffer.rows())
    assert static.server_peak_local_gb == empty.server_peak_local_gb
    assert static.server_peak_total_gb == empty.server_peak_total_gb
    assert static.pool_peak_gb == empty.pool_peak_gb
    assert static.placed_vms == empty.placed_vms
    assert static.rejected_vms == empty.rejected_vms
    assert empty.fault_stats.n_fail_events == 0
    assert empty.fault_stats.vms_affected == 0

    # Seeded faulted replays are bit-reproducible.
    assert faulted.fault_stats.as_dict() == rerun.fault_stats.as_dict()
    assert np.array_equal(faulted.sample_buffer.rows(),
                          rerun.sample_buffer.rows())

    stats = faulted.fault_stats
    assert stats.n_fail_events > 0
    assert stats.vms_affected > 0
    assert stats.vms_affected >= (stats.vms_migrated_local
                                  + stats.vms_live_migrated
                                  + stats.vms_killed)
    assert 0.0 <= stats.survival_rate <= 1.0
    assert len(stats.killed_vm_ids) == stats.vms_killed

    print(f"\n{'path':<20} {'seconds':>9} {'VMs/s':>14}")
    print(f"{'static replay':<20} {static_seconds:>9.2f} "
          f"{n_vms / static_seconds:>14,.0f}")
    print(f"{'faults (empty)':<20} {empty_seconds:>9.2f} "
          f"{n_vms / empty_seconds:>14,.0f}  "
          f"({empty_over_static:.2f}x static, median of per-rep ratios)")
    print(f"{'faults (seeded)':<20} {faulted_seconds:>9.2f} "
          f"{vms_per_s:>14,.0f}")
    print(f"faults: {stats.n_fail_events} fail / {stats.n_repair_events} "
          f"repair events; ladder: {stats.vms_migrated_local} local, "
          f"{stats.vms_live_migrated} live-migrated, {stats.vms_killed} "
          f"killed of {stats.vms_affected} affected "
          f"(survival {stats.survival_rate:.3f}, "
          f"{stats.stranded_gb:,.0f} GB stranded)")

    report_path = emit_report("fault_injection", {
        "n_vms": n_vms,
        "n_servers": N_SERVERS,
        "pool_size_sockets": POOL_SIZE_SOCKETS,
        "pool_capacity_gb_per_group": POOL_CAPACITY_GB_PER_GROUP,
        "mtbf_s": MTBF_S,
        "repair_delay_s": REPAIR_DELAY_S,
        "fault_seed": FAULT_SEED,
        "timing_reps": TIMING_REPS,
        "static_seconds": static_seconds,
        "empty_schedule_seconds": empty_seconds,
        "empty_schedule_over_static": empty_over_static,
        "faulted_seconds": faulted_seconds,
        "vms_per_s": vms_per_s,
        "vms_per_s_floor": MIN_VMS_PER_S,
        "n_fail_events": stats.n_fail_events,
        "n_repair_events": stats.n_repair_events,
        "vms_affected": stats.vms_affected,
        "vms_migrated_local": stats.vms_migrated_local,
        "vms_live_migrated": stats.vms_live_migrated,
        "vms_killed": stats.vms_killed,
        "stranded_gb": stats.stranded_gb,
        "killed_gb": stats.killed_gb,
        "survival_rate": stats.survival_rate,
        "mean_recovery_latency_s": stats.mean_recovery_latency_s,
    })
    # The report must round-trip the schema and floor checks CI enforces.
    check_perf_floors(validate_report(report_path), name="fault_injection")
    assert vms_per_s >= MIN_VMS_PER_S, (
        f"faulted replay sustained only {vms_per_s:,.0f} VMs/s "
        f"(required >= {MIN_VMS_PER_S:,})"
    )


def test_bench_failure_domain_study_smoke():
    """The experiment entry point end to end at reduced sweep size."""
    from repro.experiments.fig_failure_domains import (
        format_failure_domain_table,
        run_failure_domain_study,
    )

    study = run_failure_domain_study(
        n_servers=pick(10, 6),
        duration_days=pick(1.0, 0.4),
        pool_sizes=(8,),
        mtbf_hours=(4.0,),
    )
    assert len(study.rows) == 2  # per_shard + spanning
    for row in study.rows:
        assert row.n_fail_events > 0
        assert 0.0 <= row.survival_rate <= 1.0
    table = format_failure_domain_table(study)
    assert "survival" in table
    print("\n" + table)
