"""VM SKU catalog and sampling.

Cloud VMs come in families with different DRAM-to-core ratios; the mismatch
between the VM mix's aggregate ratio and the servers' ratio is what produces
stranding (paper Section 2).  The catalog below mirrors typical public-cloud
families (general purpose ~4 GB/core, memory optimised ~8 GB/core, compute
optimised ~2 GB/core) across several core counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "VMType",
    "VM_TYPE_CATALOG",
    "CATALOG_CORES",
    "CATALOG_MEMORY_GB",
    "family_probabilities",
    "family_size_distribution",
    "family_sampling_tables",
    "choice_cdf",
    "sample_vm_type",
    "sample_vm_type_indices",
    "vm_mix_dram_per_core",
]


@dataclass(frozen=True)
class VMType:
    """One rentable VM shape."""

    name: str
    family: str
    cores: int
    memory_gb: float

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.memory_gb <= 0:
            raise ValueError("memory must be positive")

    @property
    def memory_per_core_gb(self) -> float:
        return self.memory_gb / self.cores


def _family(prefix: str, family: str, gb_per_core: float, core_counts: Sequence[int]) -> List[VMType]:
    return [
        VMType(name=f"{prefix}{c}", family=family, cores=c, memory_gb=c * gb_per_core)
        for c in core_counts
    ]


#: The rentable VM catalog: three families spanning 2-48 cores.
VM_TYPE_CATALOG: List[VMType] = (
    _family("D", "general", 4.0, (2, 4, 8, 16, 32, 48))
    + _family("E", "memory_optimized", 8.0, (2, 4, 8, 16, 32, 48))
    + _family("F", "compute_optimized", 2.0, (2, 4, 8, 16, 32, 48))
    + _family("B", "burstable", 4.0, (1, 2, 4))
)

_CATALOG_BY_NAME: Dict[str, VMType] = {t.name: t for t in VM_TYPE_CATALOG}

#: Catalog columns indexed by catalog (type) index, for columnar sampling.
CATALOG_CORES = np.array([t.cores for t in VM_TYPE_CATALOG], dtype=np.int64)
CATALOG_MEMORY_GB = np.array([t.memory_gb for t in VM_TYPE_CATALOG],
                             dtype=np.float64)

#: Default popularity of each family.  General-purpose VMs dominate by count;
#: memory-optimised VMs carry a large share of memory, which keeps the VM
#: mix's aggregate DRAM:core ratio at roughly 70-80 % of the servers' ratio --
#: the regime in which core exhaustion strands the remaining DRAM.
DEFAULT_FAMILY_WEIGHTS: Dict[str, float] = {
    "general": 0.42,
    "memory_optimized": 0.36,
    "compute_optimized": 0.14,
    "burstable": 0.08,
}

#: Smaller VMs are far more common than large ones; the steep exponent keeps
#: the typical server hosting dozens of VMs, as in production clusters.
_SIZE_WEIGHT_EXPONENT = -1.8


def get_vm_type(name: str) -> VMType:
    if name not in _CATALOG_BY_NAME:
        raise KeyError(f"unknown VM type {name!r}")
    return _CATALOG_BY_NAME[name]


def family_probabilities(
    family_weights: Optional[Dict[str, float]] = None,
) -> Tuple[List[str], np.ndarray]:
    """Normalised family sampling distribution (defaults merged with overrides).

    Single source of truth for both the per-VM sampler below and the bulk
    trace-generation path.
    """
    weights = dict(DEFAULT_FAMILY_WEIGHTS)
    if family_weights:
        weights.update(family_weights)
    families = sorted(weights)
    probs = np.array([max(0.0, weights[f]) for f in families], dtype=float)
    if probs.sum() <= 0:
        raise ValueError("family weights must not all be zero")
    probs /= probs.sum()
    return families, probs


def family_size_distribution(family: str) -> Tuple[List[int], np.ndarray]:
    """Catalog indices of one family and their power-law size popularity."""
    indices = [i for i, t in enumerate(VM_TYPE_CATALOG) if t.family == family]
    if not indices:
        raise KeyError(f"no catalog entries for family {family!r}")
    size_weights = np.array(
        [VM_TYPE_CATALOG[i].cores ** _SIZE_WEIGHT_EXPONENT for i in indices]
    )
    size_weights /= size_weights.sum()
    return indices, size_weights


def sample_vm_type(
    rng: np.random.Generator,
    family_weights: Optional[Dict[str, float]] = None,
) -> VMType:
    """Sample a VM type: family by weight, size by a power-law popularity."""
    families, probs = family_probabilities(family_weights)
    family = str(rng.choice(families, p=probs))
    indices, size_weights = family_size_distribution(family)
    idx = int(rng.choice(len(indices), p=size_weights))
    return VM_TYPE_CATALOG[indices[idx]]


def sample_vm_type_indices(
    rng: np.random.Generator,
    n: int,
    family_weights: Optional[Dict[str, float]] = None,
) -> np.ndarray:
    """Catalog indices of ``n`` sequential :func:`sample_vm_type` calls.

    Bit for bit the same types, and the same generator state afterwards.
    A scalar ``rng.choice(k, p=p)`` draws one ``rng.random()`` double ``u``
    and returns ``cdf.searchsorted(u, side="right")`` over the
    :func:`family_sampling_tables` CDF of ``p``.  Each
    :func:`sample_vm_type` call makes two such draws (family, then size),
    so the even doubles of one ``rng.random(2 * n)`` pick families and the
    odd ones pick sizes.
    """
    families, family_cdf, sizes = family_sampling_tables(family_weights)
    draws = rng.random(2 * n)
    family_draw = family_cdf.searchsorted(draws[0::2], side="right")
    size_draws = draws[1::2]
    indices = np.empty(n, dtype=np.int64)
    for family_idx, family in enumerate(families):
        mask = family_draw == family_idx
        if mask.any():
            # ``None`` re-raises the family's KeyError (no catalog entries).
            candidates, size_cdf = (sizes[family_idx]
                                    or family_size_distribution(family))
            picks = size_cdf.searchsorted(size_draws[mask], side="right")
            indices[mask] = candidates[picks]
    return indices


def family_sampling_tables(
    family_weights: Optional[Dict[str, float]] = None,
) -> Tuple[Tuple[str, ...], np.ndarray, tuple]:
    """``(families, family CDF, size tables)`` for one family-weight override.

    ``families`` and the family CDF follow :func:`family_probabilities`;
    entry ``i`` of the size tables is ``(catalog indices, size CDF)`` of
    ``families[i]`` from :func:`family_size_distribution` (``None`` for a
    family with no catalog entries, whose ``KeyError`` is raised only
    once that family is drawn).  Each CDF is the one
    ``Generator.choice(k, p=p)`` searches (:func:`choice_cdf`), so
    ``cdf.searchsorted(rng.random(m), side="right")`` is bit for bit
    ``rng.choice(k, size=m, p=p)``, generator state included.  The tables
    are built once per distinct override and are read-only.
    """
    key = tuple(sorted(family_weights.items())) if family_weights else None
    return _sampling_tables(key)


@lru_cache(maxsize=64)
def _sampling_tables(key) -> Tuple[Tuple[str, ...], np.ndarray, tuple]:
    families, probs = family_probabilities(dict(key) if key else None)
    sizes = []
    for family in families:
        try:
            candidates, size_weights = family_size_distribution(family)
        except KeyError:
            sizes.append(None)
            continue
        sizes.append((_read_only(np.asarray(candidates)),
                      choice_cdf(size_weights)))
    return tuple(families), choice_cdf(probs), tuple(sizes)


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The read-only cumulative distribution ``Generator.choice`` searches."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return _read_only(cdf)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def vm_mix_dram_per_core(
    rng: np.random.Generator,
    n_samples: int = 1000,
    family_weights: Optional[Dict[str, float]] = None,
) -> float:
    """Estimate the aggregate DRAM:core ratio of a sampled VM mix."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    indices = sample_vm_type_indices(rng, n_samples, family_weights)
    # Catalog memory sizes are whole GB, so the float sum is exact in any order.
    return float(CATALOG_MEMORY_GB[indices].sum()) / int(CATALOG_CORES[indices].sum())
