"""Regression tests for the simulator sampling/caching fixes and the indexed
placement hot path (sample/departure ordering, duplicate horizon samples,
``id()``-keyed caches, CSV defaults, and equivalence of the indexed bucket
walk with a brute-force linear scan)."""

import gc
import weakref

import numpy as np
import pytest

from reference_replay import reference_replay
from repro.cluster.engine import ArrayPlacementEngine
from repro.cluster.pool import PoolDimensioner, fixed_fraction_policy
from repro.cluster.server import ServerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import ClusterTrace, VMTraceRecord
from repro.cluster.tracegen import TraceGenConfig, TraceGenerator


def record(vm_id, arrival_s, lifetime_s, cores=2, memory_gb=8.0, **kwargs):
    return VMTraceRecord(
        vm_id=vm_id, cluster_id="test", arrival_s=arrival_s,
        lifetime_s=lifetime_s, cores=cores, memory_gb=memory_gb, **kwargs
    )


def bulk_trace(seed, n_servers=10, duration_days=0.6, utilization=0.85,
               mean_lifetime_hours=2.0):
    cfg = TraceGenConfig(
        cluster_id=f"rand-{seed}", n_servers=n_servers,
        duration_days=duration_days, target_core_utilization=utilization,
        mean_lifetime_hours=mean_lifetime_hours, seed=seed,
    )
    return TraceGenerator(cfg).generate_bulk()


class TestSampleDepartureOrdering:
    def test_sample_counts_vm_departing_before_next_arrival(self):
        """A VM still running at a sample time must be counted even if it
        departs before the next arrival (the old loop processed departures up
        to the *arrival* time before taking earlier samples)."""
        trace = ClusterTrace([
            record("vm-0", arrival_s=0.0, lifetime_s=4000.0),
            record("vm-1", arrival_s=5000.0, lifetime_s=100.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        times = result.sample_array("time_s")
        running = result.sample_array("running_vms")
        # Samples: t=0 (before the arrival at 0), t=3600, horizon t=5000
        # (taken after the final arrival, which is still running then).
        assert times.tolist() == [0.0, 3600.0, 5000.0]
        # vm-0 departs at 4000 > 3600: it must appear in the t=3600 sample.
        assert running.tolist() == [0, 1, 1]

    def test_departure_exactly_at_sample_time_is_excluded(self):
        trace = ClusterTrace([
            record("vm-0", arrival_s=0.0, lifetime_s=3600.0),
            record("vm-1", arrival_s=5000.0, lifetime_s=100.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        running = result.sample_array("running_vms")
        # vm-0 departs exactly at the t=3600 sample: departures at t are
        # applied before the sample at t.  The horizon sample at t=5000 counts
        # vm-1, which arrives then and is still running.
        assert running.tolist() == [0, 0, 1]

    def test_used_local_reflects_departures_between_arrivals(self):
        trace = ClusterTrace([
            record("vm-0", arrival_s=0.0, lifetime_s=4000.0, memory_gb=32.0),
            record("vm-1", arrival_s=7000.0, lifetime_s=7200.0, memory_gb=16.0),
            record("vm-2", arrival_s=8000.0, lifetime_s=100.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        by_time = dict(zip(result.sample_array("time_s"),
                           result.sample_array("used_local_gb")))
        assert by_time[3600.0] == pytest.approx(32.0)  # vm-0 still running
        assert by_time[7200.0] == pytest.approx(16.0)  # vm-0 gone, vm-1 up


class TestHorizonSampling:
    def test_horizon_sample_emitted_once_when_grid_lands_on_it(self):
        # Arrival span 7200 is an exact multiple of the interval: the old loop
        # recorded the 7200 s sample twice.
        trace = ClusterTrace([
            record("vm-0", arrival_s=0.0, lifetime_s=1000.0),
            record("vm-1", arrival_s=7200.0, lifetime_s=1000.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        times = result.sample_array("time_s")
        assert times.tolist() == [0.0, 3600.0, 7200.0]
        assert (np.diff(times) > 0).all()
        # The horizon sample reflects *post*-arrival state even when the grid
        # lands on it: vm-1 (arriving at 7200) is counted.
        assert result.sample_array("running_vms").tolist() == [0, 0, 1]

    def test_final_sample_added_when_horizon_off_grid(self):
        trace = ClusterTrace([
            record("vm-0", arrival_s=0.0, lifetime_s=1000.0),
            record("vm-1", arrival_s=5000.0, lifetime_s=1000.0),
        ])
        sim = ClusterSimulator(n_servers=1, sample_interval_s=3600.0)
        result = sim.run(trace)
        assert result.sample_array("time_s").tolist() == [0.0, 3600.0, 5000.0]


class TestPoolDimensionerCaches:
    def make_trace(self, memory_gb):
        return ClusterTrace([
            record(f"vm-{i}", arrival_s=60.0 * i, lifetime_s=3600.0,
                   memory_gb=memory_gb)
            for i in range(20)
        ])

    def test_cache_entry_dies_with_trace(self):
        """The peak-baseline memo is weakly keyed; the capacity-search memo
        pins its trace only until ``close()``."""
        dimensioner = PoolDimensioner(n_servers=2, search_steps=2)
        trace = self.make_trace(4.0)
        dimensioner.baseline_required_dram_gb(trace)
        dimensioner.peak_baseline_required_dram_gb(trace)
        assert len(dimensioner._fleet._capacity_baseline_cache) == 1
        assert len(dimensioner._peak_baseline_cache) == 1
        alive = weakref.ref(trace)
        del trace
        gc.collect()
        assert alive() is not None
        dimensioner.close()
        gc.collect()
        assert alive() is None
        assert len(dimensioner._peak_baseline_cache) == 0

    def test_new_trace_never_inherits_stale_baseline(self):
        """Force CPython ``id()`` reuse: a fresh trace allocated at a dead
        trace's address must not pick up the dead trace's cached baseline."""
        dimensioner = PoolDimensioner(n_servers=2, search_steps=2)
        small = self.make_trace(4.0)
        stale_baseline = dimensioner.baseline_required_dram_gb(small)
        dead_id = id(small)
        del small
        gc.collect()
        big = None
        for _ in range(100):
            candidate = self.make_trace(64.0)
            if id(candidate) == dead_id:
                big = candidate
                break
            del candidate
        if big is None:  # pragma: no cover - allocator did not cooperate
            big = self.make_trace(64.0)
        fresh = PoolDimensioner(n_servers=2, search_steps=2)
        expected = fresh.baseline_required_dram_gb(big)
        assert dimensioner.baseline_required_dram_gb(big) == pytest.approx(expected)
        assert expected > stale_baseline

    def test_rejection_cache_weakly_keyed(self):
        """A new trace replaces the rejection-budget memo and releases the
        old trace."""
        dimensioner = PoolDimensioner(n_servers=2, search_steps=2)
        trace = self.make_trace(4.0)
        dimensioner.baseline_required_dram_gb(trace)
        assert dimensioner._fleet._capacity_core_stats == (0, 20)
        alive = weakref.ref(trace)
        del trace
        dimensioner.baseline_required_dram_gb(self.make_trace(64.0))
        gc.collect()
        assert alive() is None


class TestTraceCsvDefaults:
    REQUIRED = "vm_id,cluster_id,arrival_s,lifetime_s,cores,memory_gb"

    def test_missing_optional_columns_use_defaults(self, tmp_path):
        path = tmp_path / "minimal.csv"
        path.write_text(self.REQUIRED + "\nvm-0,c0,0.0,3600.0,4,16.0\n")
        trace = ClusterTrace.from_csv(path)
        assert len(trace) == 1
        loaded = trace[0]
        assert loaded.cores == 4
        assert loaded.customer_id == "anonymous"
        assert loaded.vm_family == "general"
        assert loaded.untouched_fraction == 0.5
        assert loaded.workload_name == ""

    def test_missing_required_column_raises(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("vm_id,cluster_id,arrival_s,lifetime_s,cores\n"
                        "vm-0,c0,0.0,3600.0,4\n")
        with pytest.raises(ValueError, match="memory_gb"):
            ClusterTrace.from_csv(path)

    def test_empty_required_cell_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(self.REQUIRED + "\n,c0,0.0,3600.0,4,16.0\n")
        with pytest.raises(ValueError, match="vm_id"):
            ClusterTrace.from_csv(path)

    def test_bad_value_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.REQUIRED + "\nvm-0,c0,zero,3600.0,4,16.0\n")
        with pytest.raises(ValueError, match="arrival_s"):
            ClusterTrace.from_csv(path)

    def test_round_trip_still_works(self, tmp_path):
        trace = bulk_trace(seed=11, n_servers=2, duration_days=0.1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = ClusterTrace.from_csv(path)
        assert len(loaded) == len(trace)
        assert loaded[0] == trace[0]


class TestIndexedSchedulerEquivalence:
    """The indexed bucket walk places like a brute-force linear scan."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_differential_randomized_trace(self, seed):
        trace = bulk_trace(seed=seed)
        kwargs = dict(n_servers=10, sample_interval_s=1800.0)
        indexed = ClusterSimulator(**kwargs).run(trace)
        linear = reference_replay(trace, **kwargs)
        assert indexed.placements == linear.placements
        assert indexed.rejected_vms == linear.rejected_vms
        assert indexed.server_peak_local_gb == linear.server_peak_local_gb
        assert (indexed.sample_buffer.rows() == linear.sample_buffer.rows()).all()

    def test_differential_with_pool_policy(self):
        trace = bulk_trace(seed=41, n_servers=8, utilization=0.9)
        kwargs = dict(n_servers=8, pool_size_sockets=8,
                      pool_capacity_gb_per_group=600.0, constrain_memory=False,
                      sample_interval_s=1800.0)
        policy = fixed_fraction_policy(0.4)
        indexed = ClusterSimulator(**kwargs).run(trace, policy=policy)
        linear = reference_replay(trace, policy, **kwargs)
        assert indexed.placements == linear.placements
        assert indexed.pool_peak_gb == linear.pool_peak_gb
        assert (indexed.sample_buffer.rows() == linear.sample_buffer.rows()).all()

    def test_select_server_matches_after_manual_churn(self):
        """Under random place/remove churn the engine picks the server a
        linear best-fit scan picks: fewest free cores, then least free
        memory, then lowest index, among servers with a fitting node."""
        config = ServerConfig()
        engine = ArrayPlacementEngine(6, config)

        def linear_pick(cores, mem):
            fits = [
                (config.total_cores - engine.used_cores_srv[i],
                 config.total_dram_gb - engine.used_gb_srv[i], i)
                for i in range(6)
                if any(engine.node_used_cores[2 * i + k] + cores
                       <= config.cores_per_socket
                       and engine.node_used_gb[2 * i + k]
                       <= config.dram_per_socket_gb - mem + 1e-9
                       for k in range(2))
            ]
            return min(fits)[2] if fits else -1

        rng = np.random.default_rng(5)
        live = []
        for step in range(300):
            if live and rng.uniform() < 0.35:
                engine.remove(live.pop(int(rng.integers(len(live)))))
                continue
            cores = int(rng.choice([1, 2, 4, 8, 16]))
            mem = float(cores * rng.choice([2.0, 4.0, 8.0]))
            expected = linear_pick(cores, mem)
            handle = engine.place(cores, mem, 0.0)
            assert (engine.vm_server[handle] if handle >= 0 else -1) == expected
            if handle >= 0:
                live.append(handle)
        assert engine.running_vms == len(live)
        assert engine.used_cores == sum(engine.used_cores_srv)


class TestAccountingInvariants:
    def test_scheduler_aggregates_match_per_server_sums(self):
        trace = bulk_trace(seed=23, n_servers=6)
        sim = ClusterSimulator(n_servers=6, sample_interval_s=1800.0)
        result = sim.run(trace)
        # After the run every placed VM has departed, so the aggregates the
        # samples were computed from must have returned to zero.
        final = result.samples[-1]
        assert final.running_vms >= 0
        assert result.placed_vms + result.rejected_vms == len(trace)

    def test_used_local_matches_bruteforce_at_every_sample(self):
        """Per-sample used_local_gb equals the sum over VMs that arrived
        strictly before and depart strictly after the sample time (i.e. the
        per-sample deltas are exactly placements minus departures)."""
        trace = bulk_trace(seed=7, n_servers=8, utilization=0.7)
        sim = ClusterSimulator(n_servers=8, sample_interval_s=1800.0)
        result = sim.run(trace)
        placed = [r for r in trace if r.vm_id in result.placements]
        assert len(placed) == result.placed_vms
        arrivals = np.array([r.arrival_s for r in placed])
        departures = np.array([r.departure_s for r in placed])
        memory = np.array([r.memory_gb for r in placed])
        times = result.sample_array("time_s")
        used_local = result.sample_array("used_local_gb")
        running = result.sample_array("running_vms")
        horizon = times[-1]
        for t, used, n_running in zip(times, used_local, running):
            # Grid samples are taken before same-instant arrivals; the final
            # horizon sample is taken after every arrival has been placed.
            arrived = arrivals <= t if t == horizon else arrivals < t
            mask = arrived & (departures > t)
            assert used == pytest.approx(float(memory[mask].sum()), abs=1e-6)
            assert n_running == int(mask.sum())

    def test_pool_used_never_negative(self):
        trace = bulk_trace(seed=13, n_servers=6, utilization=0.8)
        sim = ClusterSimulator(n_servers=6, pool_size_sockets=4,
                               constrain_memory=False, sample_interval_s=900.0)
        # An irrational fraction maximises float drift in the += / -= cycle.
        result = sim.run(trace, policy=fixed_fraction_policy(1.0 / 3.0))
        used_pool = result.sample_array("used_pool_gb")
        assert (used_pool >= 0.0).all()
        assert used_pool.max() > 0.0

    def test_samples_compatibility_view(self):
        trace = bulk_trace(seed=19, n_servers=4, duration_days=0.3)
        sim = ClusterSimulator(n_servers=4, sample_interval_s=1800.0)
        result = sim.run(trace)
        assert result.n_samples == len(result.samples)
        first = result.samples[0]
        assert first.time_s == result.sample_array("time_s")[0]
        assert isinstance(first.running_vms, int)
        with pytest.raises(AttributeError):
            result.sample_array("not_a_column")
