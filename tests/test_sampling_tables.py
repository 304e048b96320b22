"""Per-config sampling tables of the trace generator, bit for bit.

Trace generation draws categorical samples as
``cdf.searchsorted(rng.random(m), side="right")`` over tables built once
per config, and builds the customer population with one broadcast beta
draw.  These tests pin both against the code they replaced:

* ``Generator.choice(k, size=m, p=p)`` equals the ``searchsorted`` draw
  on ``choice_cdf(p)``, values and generator state after, so a numpy
  release that changes ``choice`` fails here first;
* :class:`UntouchedMemoryModel` equals a per-customer scalar-loop
  reference kept below (means, consistencies, ids, profiles, generator
  state), at 10,001 customers too, where sorted-id order leaves index
  order;
* the cached tables are read-only and shared across configs.

Derandomized, no database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.tracegen import TraceGenConfig, TraceGenerator
from repro.cluster.vm_types import (
    choice_cdf,
    family_probabilities,
    family_sampling_tables,
    family_size_distribution,
)
from repro.workloads.memory_behavior import (
    CustomerProfile,
    UntouchedMemoryModel,
)

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)


class ScalarMemoryModel:
    """The per-customer loop :class:`UntouchedMemoryModel` replaced."""

    def __init__(self, n_customers, seed):
        self.rng = np.random.default_rng(seed)
        self.customers = {}
        for i in range(n_customers):
            customer_id = f"customer-{i:04d}"
            mean = float(min(max(self.rng.beta(1.6, 1.6), 0.02), 0.95))
            consistency = float(min(max(self.rng.beta(6.0, 1.8), 0.2), 0.98))
            self.customers[customer_id] = CustomerProfile(
                customer_id=customer_id, mean_untouched_fraction=mean,
                consistency=consistency)
        self.customer_ids = sorted(self.customers)
        profiles = [self.customers[c] for c in self.customer_ids]
        self.means = np.array([p.mean_untouched_fraction for p in profiles])
        self.consistency = np.array([p.consistency for p in profiles])


def assert_same_model(model, reference):
    assert model.customer_ids == reference.customer_ids
    assert model._means.tobytes() == reference.means.tobytes()
    assert model._consistency.tobytes() == reference.consistency.tobytes()
    assert list(model.customers.items()) == list(reference.customers.items())
    assert model._rng.bit_generator.state == reference.rng.bit_generator.state


class TestMemoryModel:
    @PROPS
    @given(n=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_scalar_loop(self, n, seed):
        model = UntouchedMemoryModel(n_customers=n, seed=seed)
        reference = ScalarMemoryModel(n, seed)
        # Draws after construction continue from the same state.
        assert_same_model(model, reference)

    def test_sorted_order_leaves_index_order(self):
        model = UntouchedMemoryModel(n_customers=10_001, seed=23)
        reference = ScalarMemoryModel(10_001, 23)
        assert model.customer_ids.index("customer-10000") == 1001
        assert_same_model(model, reference)
        # The vectorised draw path reads the sorted-order columns.
        idx = np.array([0, 1001, 10_000])
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        drawn = model.sample_untouched_fractions_by_index(
            idx, np.zeros(3), rng_a)
        scalar = [model.sample_untouched_fraction(model.customer_ids[i],
                                                  "general", rng_b)
                  for i in idx]
        assert drawn.tolist() == scalar

    def test_profiles_built_on_first_read(self):
        model = UntouchedMemoryModel(n_customers=5, seed=1)
        assert model._customers is None
        profile = model.profile("customer-0003")
        assert model.customers is model.customers
        assert profile is model.customers["customer-0003"]
        with pytest.raises(KeyError):
            model.profile("customer-0005")


class TestChoiceIsSearchsorted:
    @PROPS
    @given(weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12)
           .filter(lambda w: sum(w) > 0.0),
           size=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_choice_equals_cdf_searchsorted(self, weights, size, seed):
        p = np.array(weights) / np.sum(weights)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        chosen = a.choice(len(p), size=size, p=p)
        searched = choice_cdf(p).searchsorted(b.random(size), side="right")
        assert chosen.dtype == searched.dtype
        assert chosen.tolist() == searched.tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("weights", [
        None, {"memory_optimized": 0.0, "burstable": 0.3},
        {"general": 0.9}])
    def test_family_tables_match_their_sources(self, weights):
        families, family_cdf, sizes = family_sampling_tables(weights)
        names, probs = family_probabilities(weights)
        assert list(families) == names
        assert family_cdf.tobytes() == choice_cdf(probs).tobytes()
        for family, (candidates, size_cdf) in zip(families, sizes):
            expected, size_weights = family_size_distribution(family)
            assert candidates.tolist() == expected
            assert size_cdf.tobytes() == choice_cdf(size_weights).tobytes()

    def test_tables_are_shared_and_read_only(self):
        first = family_sampling_tables({"general": 0.9, "burstable": 0.1})
        # Same override in another key order: the same tables.
        assert family_sampling_tables({"burstable": 0.1,
                                       "general": 0.9}) is first
        assert family_sampling_tables(None) is family_sampling_tables({})
        _, family_cdf, sizes = first
        with pytest.raises(ValueError):
            family_cdf[0] = 0.5
        with pytest.raises(ValueError):
            sizes[0][1][0] = 0.5

    def test_unknown_family_raises_only_when_drawn(self):
        cfg = TraceGenConfig(n_servers=2, duration_days=0.2,
                             family_weights={"gpu": 0.0})
        assert len(TraceGenerator(cfg).generate()) > 0
        cfg = TraceGenConfig(n_servers=2, duration_days=0.2,
                             family_weights={"gpu": 5.0})
        with pytest.raises(KeyError, match="gpu"):
            TraceGenerator(cfg).generate()


def test_generators_share_the_calibration():
    cfg = TraceGenConfig(n_servers=4, duration_days=0.5, seed=41)
    first = TraceGenerator(cfg)
    rate = first.arrival_rate_per_s()
    # A fresh generator on an equal config reads the cached calibration.
    assert TraceGenerator(TraceGenConfig(**vars(cfg))).arrival_rate_per_s() == rate
    # The calibration draw itself: 500 sample_vm_type calls from seed + 7.
    from repro.cluster.vm_types import CATALOG_CORES, sample_vm_type_indices

    types = sample_vm_type_indices(np.random.default_rng(48), 500)
    mean_cores = float(np.mean(CATALOG_CORES[types]))
    expected = (cfg.target_core_utilization * cfg.total_cores
                / (cfg.mean_lifetime_hours * 3600.0 * mean_cores))
    assert rate == expected
