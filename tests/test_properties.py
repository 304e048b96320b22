"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.vm_types import (
    DEFAULT_FAMILY_WEIGHTS,
    VM_TYPE_CATALOG,
    sample_vm_type,
    sample_vm_type_indices,
)
from repro.cxl.emc import EMCDevice
from repro.cxl.latency import LatencyModel
from repro.hypervisor.guest_os import GuestMemoryAllocator
from repro.hypervisor.numa import build_vm_topology
from repro.hypervisor.page_table import HypervisorPageTable
from repro.hypervisor.vm import VMInstance, VMRequest
from repro.ml.gbm import QuantileGradientBoostingRegressor
from repro.ml.metrics import insensitive_tradeoff_curve, mean_pinball_loss
from repro.ml.tree import DecisionTreeRegressor
from repro.workloads.catalog import build_catalog
from repro.workloads.sensitivity import SCENARIO_182, SCENARIO_222, slowdown_under_spill


CATALOG = build_catalog(seed=7)
WORKLOADS = list(CATALOG)


@st.composite
def family_weight_overrides(draw):
    """``None`` or overrides of a random family subset; zeros allowed, but
    the merged weights are never all zero."""
    if draw(st.booleans()):
        return None
    families = sorted(DEFAULT_FAMILY_WEIGHTS)
    chosen = draw(st.lists(st.sampled_from(families), unique=True, min_size=1))
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
    overrides = {f: draw(weight) for f in chosen}
    if all(overrides.get(f, DEFAULT_FAMILY_WEIGHTS[f]) == 0.0 for f in families):
        overrides[chosen[0]] = 1.0
    return overrides


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=600),
       weights=family_weight_overrides())
@settings(max_examples=60, deadline=None)
def test_vectorised_vm_type_sampler_equals_sequential_calls(seed, n, weights):
    sequential = np.random.default_rng(seed)
    vectorised = np.random.default_rng(seed)
    expected = [sample_vm_type(sequential, weights) for _ in range(n)]
    indices = sample_vm_type_indices(vectorised, n, weights)
    assert [VM_TYPE_CATALOG[i] for i in indices] == expected
    assert vectorised.bit_generator.state == sequential.bit_generator.state


@given(pool_sockets=st.integers(min_value=2, max_value=128))
def test_pool_latency_always_exceeds_local(pool_sockets):
    model = LatencyModel()
    pond = model.pond_pool(pool_sockets).total_ns
    assert pond > model.local_dram().total_ns
    assert model.switch_only_pool(pool_sockets).total_ns >= pond


@given(
    cores=st.integers(min_value=1, max_value=64),
    local=st.floats(min_value=0.0, max_value=512.0),
    pool=st.floats(min_value=0.0, max_value=512.0),
)
def test_vm_topology_memory_is_conserved(cores, local, pool):
    if local + pool <= 0:
        return
    topo = build_vm_topology(cores=cores, local_memory_gb=local, pool_memory_gb=pool)
    assert np.isclose(topo.total_memory_gb, local + pool)
    assert topo.total_cores == cores
    assert topo.znuma_memory_gb <= pool + 1e-9


@given(
    memory=st.floats(min_value=1.0, max_value=256.0),
    local_fraction=st.floats(min_value=0.0, max_value=1.0),
    touched_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_vm_instance_accounting_invariants(memory, local_fraction, touched_fraction):
    local = memory * local_fraction
    request = VMRequest.create(cores=4, memory_gb=memory)
    vm = VMInstance(request=request, host_id="h", local_memory_gb=local,
                    pool_memory_gb=memory - local)
    vm.record_touch(memory * touched_fraction)
    assert 0.0 <= vm.untouched_memory_gb <= memory + 1e-9
    assert 0.0 <= vm.spilled_gb <= vm.pool_memory_gb + 1e-9
    assert np.isclose(vm.total_memory_gb, memory)


@given(
    vm_memory=st.floats(min_value=1.0, max_value=128.0),
    local_share=st.floats(min_value=0.0, max_value=1.0),
    touched_share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50)
def test_page_table_untouched_plus_touched_is_total(vm_memory, local_share, touched_share):
    table = HypervisorPageTable(vm_memory_gb=vm_memory,
                                local_memory_gb=vm_memory * local_share)
    table.touch_gb(vm_memory * touched_share)
    assert table.untouched_pages + table.ever_accessed_pages == table.n_pages
    assert 0.0 <= table.untouched_fraction <= 1.0


@given(
    working_set_fraction=st.floats(min_value=0.0, max_value=1.0),
    local_fraction=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=50)
def test_guest_allocator_prefers_local_node(working_set_fraction, local_fraction):
    total = 64.0
    local = total * local_fraction
    pool = total - local
    topo = build_vm_topology(cores=4, local_memory_gb=local, pool_memory_gb=pool)
    allocator = GuestMemoryAllocator(topo)
    working_set = min(total * 0.95, total * working_set_fraction)
    profile = allocator.run_workload(working_set_gb=working_set)
    # The zNUMA node is only used once the local node is (nearly) full.
    local_free = allocator.free_gb(0)
    znuma_used = allocator.znuma_allocated_gb()
    assert znuma_used < 1e-6 or local_free < 1.0


@given(
    spill_a=st.floats(min_value=0.0, max_value=1.0),
    spill_b=st.floats(min_value=0.0, max_value=1.0),
    index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
)
@settings(max_examples=80)
def test_spill_slowdown_is_monotone_and_bounded(spill_a, spill_b, index):
    workload = WORKLOADS[index]
    lo, hi = sorted((spill_a, spill_b))
    s_lo = slowdown_under_spill(workload, SCENARIO_182, lo)
    s_hi = slowdown_under_spill(workload, SCENARIO_182, hi)
    assert s_lo <= s_hi + 1e-9
    assert s_hi <= slowdown_under_spill(workload, SCENARIO_222, hi) + 1e-9


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=30)
def test_emc_slice_assignment_conserves_capacity(n_slices):
    emc = EMCDevice("emc-prop", capacity_gb=64, n_ports=4)
    emc.attach_host("h1")
    assigned = 0
    for _ in range(n_slices):
        if emc.free_slices == 0:
            break
        emc.assign_slice("h1")
        assigned += 1
    assert emc.assigned_gb == assigned
    assert emc.assigned_gb + emc.free_gb == emc.capacity_gb
    for slice_index in list(emc.slices_of("h1")):
        emc.release_slice("h1", slice_index)
    assert emc.free_gb == emc.capacity_gb


@given(
    scores=st.lists(st.floats(min_value=-10, max_value=10), min_size=5, max_size=60),
    pdm=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=50)
def test_tradeoff_curve_outputs_are_valid_percentages(scores, pdm):
    rng = np.random.default_rng(0)
    slowdowns = rng.uniform(0, 40, size=len(scores))
    fractions, fps = insensitive_tradeoff_curve(np.array(scores), slowdowns, pdm)
    assert np.all((fractions >= 0) & (fractions <= 100))
    assert np.all((fps >= 0) & (fps <= 100))


@given(alpha=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=10, deadline=None)
def test_quantile_gbm_coverage_tracks_alpha(alpha):
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(300, 2))
    y = X[:, 0] + rng.normal(0, 0.05, size=300)
    model = QuantileGradientBoostingRegressor(
        alpha=alpha, n_estimators=25, max_depth=2, min_samples_leaf=20, random_state=0
    ).fit(X, y)
    coverage = float(np.mean(model.predict(X) <= y))
    assert abs(coverage - (1.0 - alpha)) < 0.25


@given(
    y_true=st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=30),
)
@settings(max_examples=50)
def test_pinball_loss_zero_for_perfect_predictions(y_true):
    y = np.array(y_true)
    assert mean_pinball_loss(y, y, alpha=0.3) == 0.0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_regression_tree_predictions_bounded_by_targets(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(80, 2))
    y = rng.uniform(-5, 5, size=80)
    tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
    pred = tree.predict(X)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9
