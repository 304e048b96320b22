"""Untouched-memory behaviour of VM populations (paper Section 3.2).

The paper measures that ~50 % of VMs touch less than 50 % of their rented
memory, that behaviour varies widely across clusters, and -- crucially for the
untouched-memory model -- that VMs from the same customer tend to behave
similarly (which is why customer-history percentiles are the model's most
important feature).

:class:`UntouchedMemoryModel` is the *generative* model of this behaviour used
to synthesise labelled data: every customer has a latent mean untouched
fraction and consistency, every VM type shifts it, and each VM's realised
untouched fraction is drawn around that.  :class:`VMMemoryBehavior` converts a
fraction into a time series of touched memory for one VM (ramp-up towards the
final working set), which drives the access-bit scanning and the
guest-committed counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["UntouchedMemoryModel", "VMMemoryBehavior", "CustomerProfile",
           "vm_type_shift"]


@dataclass(frozen=True)
class CustomerProfile:
    """Latent untouched-memory behaviour of one customer."""

    customer_id: str
    mean_untouched_fraction: float
    consistency: float  # 0 = erratic, 1 = every VM behaves identically

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_untouched_fraction <= 0.98:
            raise ValueError("mean untouched fraction must be in [0, 0.98]")
        if not 0.0 <= self.consistency <= 1.0:
            raise ValueError("consistency must be in [0, 1]")


#: Shift applied to a customer's untouched fraction per VM type.  Memory-
#: optimised VMs tend to be sized for peak datasets (more untouched); compute-
#: optimised VMs tend to use what they rent.
_VM_TYPE_SHIFT: Dict[str, float] = {
    "general": 0.0,
    "memory_optimized": 0.10,
    "compute_optimized": -0.10,
    "burstable": 0.05,
    "gpu": -0.05,
}


def vm_type_shift(vm_type: str) -> float:
    """Untouched-fraction shift of one VM type (0 for unknown types)."""
    return _VM_TYPE_SHIFT.get(vm_type, 0.0)


class UntouchedMemoryModel:
    """Generative model for per-VM untouched-memory fractions.

    The population is tuned so the 50th percentile of untouched memory is
    roughly 50 % (Section 3.2) while clusters/customers differ widely.
    """

    def __init__(self, n_customers: int = 200, seed: int = 23) -> None:
        if n_customers < 1:
            raise ValueError("need at least one customer")
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # Customer i draws Beta(1.6, 1.6) for its mean untouched fraction
        # (median 0.5, substantial spread), then Beta(6.0, 1.8) for its
        # consistency: customers are fairly consistent across their VMs --
        # the paper's justification for using customer history as the
        # dominant feature.  One broadcast draw makes the same beta calls,
        # in the same order, as a per-customer scalar loop.
        draws = self._rng.beta(np.tile([1.6, 6.0], n_customers),
                               np.tile([1.6, 1.8], n_customers))
        ids = [f"customer-{i:04d}" for i in range(n_customers)]
        # Sorted-id order, which leaves index order at 10,000 customers
        # ("customer-10000" < "customer-1001").
        order = sorted(range(n_customers), key=ids.__getitem__)
        self._order = order
        self._customer_ids = [ids[i] for i in order]
        self._means = np.clip(draws[0::2], 0.02, 0.95)[order]
        self._consistency = np.clip(draws[1::2], 0.2, 0.98)[order]
        self._customers: Optional[Dict[str, CustomerProfile]] = None

    @property
    def customers(self) -> Dict[str, CustomerProfile]:
        """Every customer's profile, in index order (built on first read)."""
        if self._customers is None:
            ids = self._customer_ids
            means = self._means.tolist()
            consistency = self._consistency.tolist()
            # Position k holds customer self._order[k].
            by_index = np.argsort(self._order).tolist()
            self._customers = {
                ids[k]: CustomerProfile(
                    customer_id=ids[k],
                    mean_untouched_fraction=means[k],
                    consistency=consistency[k],
                )
                for k in by_index
            }
        return self._customers

    @property
    def customer_ids(self) -> List[str]:
        """Customer ids in sorted order (computed once; do not mutate)."""
        return self._customer_ids

    def profile(self, customer_id: str) -> CustomerProfile:
        if customer_id not in self.customers:
            raise KeyError(f"unknown customer {customer_id!r}")
        return self.customers[customer_id]

    def sample_customer(self, rng: Optional[np.random.Generator] = None) -> str:
        rng = rng or self._rng
        return str(rng.choice(self.customer_ids))

    @staticmethod
    def _centre_and_spread(mean_untouched, consistency, vm_type_shift):
        """Shared centre/spread formula; accepts scalars or numpy arrays."""
        centre = np.clip(mean_untouched + vm_type_shift, 0.01, 0.97)
        # Higher consistency -> tighter spread around the customer's centre.
        spread = 0.30 * (1.0 - consistency) + 0.02
        return centre, spread

    def sample_untouched_fraction(
        self,
        customer_id: str,
        vm_type: str = "general",
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Draw one VM's untouched fraction for the given customer and type."""
        rng = rng or self._rng
        profile = self.profile(customer_id)
        centre, spread = self._centre_and_spread(
            profile.mean_untouched_fraction,
            profile.consistency,
            vm_type_shift(vm_type),
        )
        value = rng.normal(float(centre), float(spread))
        return float(np.clip(value, 0.0, 0.98))

    def sample_untouched_fractions_by_index(
        self,
        customer_idx: np.ndarray,
        vm_type_shifts: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`sample_untouched_fraction` over aligned arrays.

        ``customer_idx`` indexes :attr:`customer_ids`; ``vm_type_shifts``
        holds each VM's :func:`vm_type_shift`.  Uses the same centre/spread
        formula as the scalar path (so the two stay statistically
        equivalent by construction) but draws all normals in one call,
        which trace generation relies on.
        """
        if len(customer_idx) != len(vm_type_shifts):
            raise ValueError("customer_idx and vm_type_shifts must be aligned")
        rng = rng or self._rng
        centres, spreads = self._centre_and_spread(
            self._means[customer_idx], self._consistency[customer_idx],
            vm_type_shifts,
        )
        values = rng.normal(centres, spreads)
        return np.clip(values, 0.0, 0.98)

    def customer_history_percentiles(
        self,
        customer_id: str,
        n_previous_vms: int = 20,
        percentiles: Sequence[float] = (0, 25, 50, 75, 100),
        vm_type: str = "general",
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Feature vector: untouched-fraction percentiles of recent VMs.

        This is the "percentiles of memory usage in previous VMs by the same
        customer" feature of Figure 14.  Customers with no prior VMs should be
        handled by the caller (Pond falls back to local-only placement).
        """
        rng = rng or self._rng
        samples = np.array([
            self.sample_untouched_fraction(customer_id, vm_type, rng)
            for _ in range(max(1, n_previous_vms))
        ])
        return np.percentile(samples, percentiles)


@dataclass
class VMMemoryBehavior:
    """Touched-memory trajectory of one VM over its lifetime.

    The VM ramps from an initial touched fraction up to its final working set
    (``1 - untouched_fraction`` of its memory) over ``ramp_hours``; after that
    the working set stays flat.  This matches the paper's observation that the
    minimum untouched memory over the lifetime is the right label.
    """

    memory_gb: float
    untouched_fraction: float
    ramp_hours: float = 2.0
    initial_touched_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ValueError("memory must be positive")
        if not 0.0 <= self.untouched_fraction <= 1.0:
            raise ValueError("untouched_fraction must be in [0, 1]")
        if self.ramp_hours <= 0:
            raise ValueError("ramp_hours must be positive")
        if not 0.0 <= self.initial_touched_fraction <= 1.0:
            raise ValueError("initial_touched_fraction must be in [0, 1]")

    @property
    def final_touched_gb(self) -> float:
        return self.memory_gb * (1.0 - self.untouched_fraction)

    def touched_gb_at(self, hours_since_start: float) -> float:
        """Touched memory (GB) ``hours_since_start`` hours into the VM's life."""
        if hours_since_start < 0:
            raise ValueError("time cannot be negative")
        initial = min(self.initial_touched_fraction * self.memory_gb,
                      self.final_touched_gb)
        if hours_since_start >= self.ramp_hours:
            return self.final_touched_gb
        progress = hours_since_start / self.ramp_hours
        return initial + (self.final_touched_gb - initial) * progress

    def untouched_gb_at(self, hours_since_start: float) -> float:
        return self.memory_gb - self.touched_gb_at(hours_since_start)

    def minimum_untouched_fraction(self, lifetime_hours: float) -> float:
        """The training label: minimum untouched fraction over the lifetime."""
        if lifetime_hours <= 0:
            raise ValueError("lifetime must be positive")
        return self.untouched_gb_at(lifetime_hours) / self.memory_gb
