"""Online control-loop benchmark: prediction-driven replay at >=100k VMs.

The paper's production system is a closed loop: scheduling-time ML predicts
each VM's zNUMA split, and a QoS monitor mitigates mispredictions by moving
pool memory back to local DRAM (Sections 4.3-4.4).  This benchmark drives
that loop at fleet scale on the array engine and asserts that

* the trained :class:`~repro.core.policies.PredictionPolicy` sustains a
  sane vectorized inference rate (``predictions_per_s`` with a recorded
  floor -- the GBM + forest predict path is the per-arrival hot loop of the
  online scheduler),
* the online replay (``online=OnlineControlConfig(...)``) covers >=100k VMs
  with mitigation enabled and sustains a sane event-loop throughput,
* with mitigation disabled (threshold ``inf``) -- an "off" switch, which
  ``run`` drops before the replay, so the replay is the static one --
  the replay is **byte-identical** to the static replay of the same policy
  (the differential contract the test suite locks down at small scale
  holds at benchmark scale too), and its cost relative to the static
  replay is recorded as ``disabled_over_static``: the median over reps of
  the per-rep ratio, the two replays alternating which runs first (no
  floor; ROADMAP aim 2 wants it within 10% of 1.0), and
* the emitted ``BENCH_online_control.json`` report carries the numbers,
  including the modelled mitigation-latency accounting.

Replays run serially in-process; the prediction timing isolates
``decide_batch`` (pure model inference) from replay bookkeeping.
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
from repro.core.control_plane.online import OnlineControlConfig
from repro.core.policies import PredictionPolicy

N_SERVERS = pick(200, 16)
DURATION_DAYS = pick(3.5, 0.5)
MIN_TOTAL_VMS = pick(100_000, 500)
MIN_PREDICTIONS_PER_S = pick(50_000, 2_000)
MIN_VMS_PER_S = pick(15_000, 500)
POOL_SIZE_SOCKETS = 16
QOS_THRESHOLD_PERCENT = 5.0
MIGRATION_COST_S_PER_GB = 0.2
#: Timed runs per path; each path's time is the min (interleaved runs damp
#: the +-30% single-shot noise a shared host shows).
TIMING_REPS = pick(3, 2)


@pytest.fixture(scope="module")
def trace_and_policy():
    cfg = TraceGenConfig(
        cluster_id="online-control",
        n_servers=N_SERVERS,
        duration_days=DURATION_DAYS,
        mean_lifetime_hours=2.0,
        target_core_utilization=0.85,
        seed=42,
    )
    start = time.perf_counter()
    trace = TraceGenerator(cfg).generate_bulk()
    gen_seconds = time.perf_counter() - start
    start = time.perf_counter()
    policy = PredictionPolicy.train(seed=3)
    train_seconds = time.perf_counter() - start
    print(f"\ngenerated {len(trace):,} VMs in {gen_seconds:.1f}s, "
          f"trained models in {train_seconds:.1f}s")
    assert len(trace) >= MIN_TOTAL_VMS
    return trace, policy


def test_bench_online_control_loop_at_scale(trace_and_policy):
    trace, policy = trace_and_policy
    n_vms = len(trace)

    def simulator():
        return ClusterSimulator(
            n_servers=N_SERVERS,
            pool_size_sockets=POOL_SIZE_SOCKETS,
            constrain_memory=False,
            sample_interval_s=3600.0,
            record_placements=False,
        )

    online_config = OnlineControlConfig(
        qos_threshold_percent=QOS_THRESHOLD_PERCENT,
        migration_cost_s_per_gb=MIGRATION_COST_S_PER_GB,
    )
    disabled_config = OnlineControlConfig(
        qos_threshold_percent=float("inf"),
        migration_cost_s_per_gb=MIGRATION_COST_S_PER_GB,
    )

    # Interleaved min-of-N timing: one rep runs every path back to back, so
    # a noise spike on the host hits them alike.  Replays and predictions
    # are deterministic, so keeping the last rep's results is exact.  The
    # static and mitigation-disabled replays alternate which runs first,
    # and their ratio is the median of the per-rep ratios.
    predict_times, static_times, online_times, disabled_times = [], [], [], []
    disabled_ratios = []
    static = online = disabled = None
    for rep in range(TIMING_REPS):
        # vectorized model inference alone (the online scheduler's hot path)
        start = time.perf_counter()
        allocations = policy.decide_batch(trace)
        predict_times.append(time.perf_counter() - start)
        # static reference replay, and mitigation disabled: the "off"
        # switch (the differential contract)
        static, static_s, disabled, disabled_s = timed_pair(
            rep, lambda: simulator().run(trace, policy),
            lambda: simulator().run(trace, policy, online=disabled_config))
        static_times.append(static_s)
        disabled_times.append(disabled_s)
        disabled_ratios.append(disabled_s / static_s)
        # online replay, mitigation enabled
        start = time.perf_counter()
        online = simulator().run(trace, policy, online=online_config)
        online_times.append(time.perf_counter() - start)
    assert allocations.shape == (n_vms,)

    predict_seconds = min(predict_times)
    static_seconds = min(static_times)
    online_seconds = min(online_times)
    disabled_seconds = min(disabled_times)
    disabled_over_static = statistics.median(disabled_ratios)
    predictions_per_s = n_vms / predict_seconds
    vms_per_s = n_vms / online_seconds

    # Mitigation-disabled online replay is byte-identical to the static
    # replay: same sample rows, same peaks, same counters.
    assert np.array_equal(static.sample_buffer.rows(),
                          disabled.sample_buffer.rows())
    assert static.server_peak_local_gb == disabled.server_peak_local_gb
    assert static.server_peak_total_gb == disabled.server_peak_total_gb
    assert static.pool_peak_gb == disabled.pool_peak_gb
    assert static.placed_vms == disabled.placed_vms
    assert static.rejected_vms == disabled.rejected_vms
    assert disabled.online_stats.n_mitigations == 0
    assert disabled.online_stats.n_ticks == 0

    stats = online.online_stats
    assert stats.n_ticks > 0
    assert stats.n_mitigations > 0
    assert stats.migrated_gb > 0.0
    assert len(stats.mitigated_vm_ids) == stats.n_mitigations
    # Every mitigated VM came from the placed population.
    assert stats.n_mitigations <= static.placed_vms

    print(f"\n{'path':<18} {'seconds':>9} {'per-second':>14}")
    print(f"{'predict (batch)':<18} {predict_seconds:>9.2f} "
          f"{predictions_per_s:>14,.0f}")
    print(f"{'static replay':<18} {static_seconds:>9.2f} "
          f"{n_vms / static_seconds:>14,.0f}")
    print(f"{'online (enabled)':<18} {online_seconds:>9.2f} {vms_per_s:>14,.0f}")
    print(f"{'online (disabled)':<18} {disabled_seconds:>9.2f} "
          f"{n_vms / disabled_seconds:>14,.0f}  "
          f"({disabled_over_static:.2f}x static, median of per-rep ratios)")
    print(f"mitigations: {stats.n_mitigations} "
          f"({stats.migrated_gb:,.0f} GB pool->local, "
          f"{stats.mean_mitigation_s:.2f} s modelled each, "
          f"{stats.n_failed_mitigations} deferred over {stats.n_ticks} ticks)")

    report_path = emit_report("online_control", {
        "n_vms": n_vms,
        "n_servers": N_SERVERS,
        "pool_size_sockets": POOL_SIZE_SOCKETS,
        "qos_threshold_percent": QOS_THRESHOLD_PERCENT,
        "migration_cost_s_per_gb": MIGRATION_COST_S_PER_GB,
        "timing_reps": TIMING_REPS,
        "predict_seconds": predict_seconds,
        "static_seconds": static_seconds,
        "online_seconds": online_seconds,
        "disabled_seconds": disabled_seconds,
        "disabled_over_static": disabled_over_static,
        "predictions_per_s": predictions_per_s,
        "predictions_per_s_floor": MIN_PREDICTIONS_PER_S,
        "vms_per_s": vms_per_s,
        "vms_per_s_floor": MIN_VMS_PER_S,
        "n_ticks": stats.n_ticks,
        "n_checks": stats.n_checks,
        "n_mitigations": stats.n_mitigations,
        "n_failed_mitigations": stats.n_failed_mitigations,
        "migrated_gb": stats.migrated_gb,
        "migration_time_s": stats.migration_time_s,
        "mean_mitigation_s": stats.mean_mitigation_s,
    })
    # The report must round-trip the schema and floor checks CI enforces.
    check_perf_floors(validate_report(report_path), name="online_control")
    assert predictions_per_s >= MIN_PREDICTIONS_PER_S, (
        f"prediction path sustained only {predictions_per_s:,.0f} "
        f"predictions/s (required >= {MIN_PREDICTIONS_PER_S:,})"
    )
    assert vms_per_s >= MIN_VMS_PER_S, (
        f"online replay sustained only {vms_per_s:,.0f} VMs/s "
        f"(required >= {MIN_VMS_PER_S:,})"
    )


def test_bench_online_fig21_smoke(trace_and_policy):
    """``fig21(mode="online")`` end to end at reduced grid size.

    The full-scale coverage is the loop benchmark above; this pins the
    experiment entry point (prediction factory row, online stats table) at
    a size fit for the smoke job.
    """
    from repro.experiments.fig21_end_to_end import (
        format_end_to_end_table,
        run_end_to_end_study,
    )

    study = run_end_to_end_study(
        n_servers=pick(32, 8),
        duration_days=pick(1.0, 0.25),
        pool_sizes=(POOL_SIZE_SOCKETS,),
        mode="online",
        qos_threshold_percent=QOS_THRESHOLD_PERCENT,
        stream_chunk_size=None,
    )
    assert "prediction" in study.savings
    assert study.online_stats is not None
    assert set(study.online_stats) == set(study.savings)
    table = format_end_to_end_table(study)
    assert "mitigations" in table
    print("\n" + table)
