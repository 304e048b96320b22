"""Synthetic VM trace generation calibrated to the paper's cluster statistics.

The generator produces per-cluster VM arrival/departure traces with the
statistical properties that drive stranding and pooling savings:

* a target steady-state core utilisation (the x-axis of Figure 2a),
* a VM mix whose DRAM:core ratio deviates from the servers' ratio (the root
  cause of stranding),
* heavy-tailed lifetimes (most VMs are short, a few live for days),
* a customer population with consistent untouched-memory behaviour (from
  :class:`repro.workloads.memory_behavior.UntouchedMemoryModel`), and
* optional mid-trace workload shifts (the day-36 event in Figure 2b).

Arrivals follow a Poisson process whose rate is derived from Little's law so
that the requested utilisation is reached in steady state.

Generation is **windowed** (DESIGN.md section 4): the trace is produced one
fixed time window at a time, each window drawing from its own SplitMix64-
derived RNG substream keyed on ``(config.seed, window index)``.  Because a
window's content depends only on its substream -- never on how many records
came before -- the materialised path (:meth:`TraceGenerator.generate_bulk`)
and the streaming path (:meth:`TraceGenerator.stream`, which re-buffers the
same windows into fixed-size chunks) produce byte-for-byte identical records,
and streaming holds at most one window plus one chunk in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.rng import GOLDEN, MASK64, splitmix64
from repro.cluster.server import ServerConfig
from repro.cluster.trace import (
    ClusterTrace,
    TraceColumns,
    TraceStream,
    VMTraceRecord,
    check_record_columns,
)
from repro.cluster.vm_types import (
    CATALOG_CORES,
    CATALOG_MEMORY_GB,
    DEFAULT_FAMILY_WEIGHTS,
    VM_TYPE_CATALOG,
    choice_cdf,
    family_sampling_tables,
    family_size_distribution,
    sample_vm_type_indices,
)
from repro.workloads.memory_behavior import UntouchedMemoryModel, vm_type_shift

__all__ = [
    "TraceGenConfig",
    "TraceGenerator",
    "GeneratedTraceStream",
    "fleet_shard_configs",
    "generate_fleet",
]

DAY_S = 86_400.0
HOUR_S = 3_600.0

#: Length of one generation window.  Window boundaries are part of the
#: generator's definition (each window has its own RNG substream), so this is
#: a constant, not a knob: changing it would change every generated trace.
GENERATION_WINDOW_S = DAY_S

#: Per-catalog-type columns that the generation windows index by type.
_CATALOG_FAMILIES = [t.family for t in VM_TYPE_CATALOG]
_CATALOG_UNTOUCHED_SHIFT = np.array([vm_type_shift(f) for f in _CATALOG_FAMILIES])

#: Workload names attached to VMs, used to look up latency sensitivity.
_WORKLOAD_NAMES = (
    "web-frontend", "api-server", "redis-cache", "mysql-oltp", "spark-batch",
    "ml-training", "video-transcode", "analytics-olap", "ci-runner",
    "game-server", "mail-relay", "search-index",
)


@dataclass(frozen=True)
class _RecordColumns:
    """The attributes of a generated block that only its records need.

    A generated :class:`TraceColumns` block carries these as its
    ``record_source``: batch policies and the replay loops read the block's
    own columns, and :meth:`build_records` runs only when a consumer reads
    ``block.records``.  ``customer_ids`` is the memory model's customer
    pool, indexed by ``customer_index``; ``type_index`` indexes the VM
    type catalog and ``workload_index`` the generator's workload names.
    """

    cluster_id: str
    region: str
    customer_ids: Sequence[str]
    lifetime_s: np.ndarray
    customer_index: np.ndarray
    type_index: np.ndarray
    is_linux: np.ndarray
    workload_index: np.ndarray

    #: The per-row columns (``_concat_rows`` slices and concatenates them).
    ROW_FIELDS = ("lifetime_s", "customer_index", "type_index", "is_linux",
                  "workload_index")

    def take(self, rows) -> "_RecordColumns":
        """The source of the block's ``rows`` (see :meth:`TraceColumns.take`)."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name in self.ROW_FIELDS})

    def build_records(self, block: TraceColumns) -> Tuple[VMTraceRecord, ...]:
        """The block's records, through the :class:`VMTraceRecord`
        constructor, from ``.tolist()`` copies of the columns."""
        n = len(block)
        customers = self.customer_ids
        return tuple(map(  # positional, in VMTraceRecord field order
            VMTraceRecord,
            block.vm_ids,
            repeat(self.cluster_id, n),
            block.arrival_s.tolist(),
            self.lifetime_s.tolist(),
            block.cores.tolist(),
            block.memory_gb.tolist(),
            [customers[i] for i in self.customer_index.tolist()],
            [_CATALOG_FAMILIES[t] for t in self.type_index.tolist()],
            ["linux" if linux else "windows" for linux in self.is_linux.tolist()],
            repeat(self.region, n),
            [_WORKLOAD_NAMES[w] for w in self.workload_index.tolist()],
            block.untouched_fraction.tolist(),
        ))


@dataclass
class TraceGenConfig:
    """Knobs controlling one cluster's synthetic trace."""

    cluster_id: str = "cluster-0"
    n_servers: int = 40
    server_config: ServerConfig = field(default_factory=ServerConfig)
    duration_days: float = 10.0
    target_core_utilization: float = 0.80
    mean_lifetime_hours: float = 6.0
    lifetime_sigma: float = 1.4
    family_weights: Optional[Dict[str, float]] = None
    n_customers: int = 100
    region: str = "region-0"
    #: If set, multiply the memory-optimised family weight (the default
    #: weight merged with ``family_weights``) by this factor from
    #: ``shift_day`` onwards (the Figure 2b workload-change event).
    shift_day: Optional[float] = None
    shift_memory_factor: float = 3.0
    #: Start the trace with a steady-state population already running at t=0
    #: (residual lifetimes drawn from the equilibrium distribution).  Without
    #: this, heavy-tailed lifetimes make the cluster take many days to reach
    #: its target utilisation.
    warm_start: bool = True
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if self.duration_days <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < self.target_core_utilization <= 1.0:
            raise ValueError("target utilisation must be in (0, 1]")
        if self.mean_lifetime_hours <= 0:
            raise ValueError("mean lifetime must be positive")
        if self.n_customers < 1:
            raise ValueError("need at least one customer")

    @property
    def total_cores(self) -> int:
        return self.n_servers * self.server_config.total_cores

    @property
    def duration_s(self) -> float:
        return self.duration_days * DAY_S


class TraceGenerator:
    """Generates synthetic cluster traces from a :class:`TraceGenConfig`."""

    def __init__(self, config: TraceGenConfig,
                 memory_model: Optional[UntouchedMemoryModel] = None) -> None:
        self.config = config
        self.memory_model = memory_model or UntouchedMemoryModel(
            n_customers=config.n_customers, seed=config.seed + 1000
        )

    def _substream_rng(self, stream_index: int) -> np.random.Generator:
        """Independent RNG substream for one generation window.

        Stream 0 is the warm-start population; stream ``i + 1`` is time
        window ``i``.  Each substream's seed is a pure SplitMix64 function of
        ``(config.seed, stream_index)``, so any window can be generated
        without generating the ones before it -- the property the streaming
        path relies on for its byte-for-byte-equality guarantee.
        """
        base = splitmix64((self.config.seed & MASK64) ^ GOLDEN)
        return np.random.default_rng(
            splitmix64(base ^ ((stream_index + 1) * GOLDEN))
        )

    # -- arrival-rate calibration ---------------------------------------------------
    def _expected_cores_per_vm(self) -> float:
        weights = self.config.family_weights
        return _calibrated_mean_cores(
            self.config.seed,
            tuple(sorted(weights.items())) if weights else None)

    def arrival_rate_per_s(self) -> float:
        """Poisson arrival rate achieving the target utilisation (Little's law).

        target_used_cores = rate * mean_lifetime * mean_cores_per_vm
        """
        cfg = self.config
        target_used_cores = cfg.target_core_utilization * cfg.total_cores
        mean_lifetime_s = cfg.mean_lifetime_hours * HOUR_S
        mean_cores = self._expected_cores_per_vm()
        return target_used_cores / (mean_lifetime_s * mean_cores)

    # -- sampling helpers -------------------------------------------------------------
    def _family_weights_at(self, time_s: float) -> Optional[Dict[str, float]]:
        cfg = self.config
        if cfg.shift_day is None or time_s < cfg.shift_day * DAY_S:
            return cfg.family_weights
        weights = dict(DEFAULT_FAMILY_WEIGHTS)
        weights.update(cfg.family_weights or {})
        weights["memory_optimized"] *= cfg.shift_memory_factor
        return weights

    # -- bulk (vectorized) generation --------------------------------------------------
    def _window_arrival_times(self, rate: float, window_len: float,
                              rng: np.random.Generator) -> np.ndarray:
        """Poisson arrival times in ``[0, window_len)``, drawn in bulk.

        Poisson processes restrict cleanly to sub-intervals, so drawing each
        generation window independently (from its own substream) still yields
        one Poisson process over the full duration.
        """
        expected = rate * window_len
        gaps: List[np.ndarray] = []
        total = 0.0
        # Over-draw slightly, then top up until the cumulative time passes the
        # window; two iterations suffice in practice.
        chunk = int(expected + 6.0 * np.sqrt(expected) + 16.0)
        while total < window_len:
            draw = rng.exponential(1.0 / rate, size=chunk)
            gaps.append(draw)
            total += float(draw.sum())
            chunk = max(chunk // 4, 1024)
        times = np.cumsum(np.concatenate(gaps))
        return times[times < window_len]

    def _bulk_vm_types(self, arrivals: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Catalog index of one VM type per arrival, honouring the mid-trace
        shift."""
        cfg = self.config
        n = arrivals.size
        shift_s = None if cfg.shift_day is None else cfg.shift_day * DAY_S
        type_indices = np.empty(n, dtype=np.int64)
        if shift_s is None:
            masks = [(np.ones(n, dtype=bool), cfg.family_weights)]
        else:
            before = arrivals < shift_s
            masks = [
                (before, self._family_weights_at(0.0)),
                (~before, self._family_weights_at(shift_s)),
            ]
        for mask, family_weights in masks:
            count = int(mask.sum())
            if not count:
                continue
            families, family_cdf, sizes = family_sampling_tables(family_weights)
            # rng.choice(len(families), size=count, p=probs), bit for bit.
            family_draw = family_cdf.searchsorted(rng.random(count),
                                                  side="right")
            # Per-family size popularity follows the same power law as
            # sample_vm_type (both share family_size_distribution).
            slot_indices = np.flatnonzero(mask)
            for family_idx, family in enumerate(families):
                family_mask = family_draw == family_idx
                n_family = int(family_mask.sum())
                if not n_family:
                    continue
                # ``None`` re-raises the family's KeyError (no catalog
                # entries).
                candidates, size_cdf = (sizes[family_idx]
                                        or family_size_distribution(family))
                picks = size_cdf.searchsorted(rng.random(n_family),
                                              side="right")
                type_indices[slot_indices[family_mask]] = candidates[picks]
        return type_indices

    def _bulk_customers(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Customer draw for ``n`` VMs (indices into the pool), in bulk.

        Zipf-like popularity (a few customers create most VMs), drawn as
        ``rng.choice(n_customers, size=n, p=popularity)`` would.
        """
        idx = _customer_cdf(self.config.n_customers).searchsorted(
            rng.random(n), side="right")
        return idx % len(self.memory_model.customer_ids)

    def _window_block(self, arrivals: np.ndarray, lifetimes: np.ndarray,
                      first_index: int,
                      rng: np.random.Generator) -> TraceColumns:
        """One generation window as a self-contained :class:`TraceColumns`.

        The columns come straight from the draws and are validated in bulk
        (:func:`check_record_columns`).  The attributes only records need
        ride along as :class:`_RecordColumns`, so the block's records are
        built only if a consumer reads them.
        """
        cfg = self.config
        n = arrivals.size
        types = self._bulk_vm_types(arrivals, rng)
        customer_idx = self._bulk_customers(n, rng)
        untouched = self.memory_model.sample_untouched_fractions_by_index(
            customer_idx, _CATALOG_UNTOUCHED_SHIFT[types], rng
        )
        is_linux = rng.uniform(size=n) < 0.7
        # The draw of rng.choice(_WORKLOAD_NAMES, size=n), kept as indices.
        workload_idx = rng.choice(len(_WORKLOAD_NAMES), size=n)
        cores = CATALOG_CORES[types]
        memory_gb = CATALOG_MEMORY_GB[types]
        check_record_columns(arrivals, lifetimes, cores, memory_gb, untouched)
        prefix = f"{cfg.cluster_id}-vm-"
        vm_ids = tuple(prefix + str(i) for i in range(first_index, first_index + n))
        return TraceColumns(
            vm_ids=vm_ids,
            memory_gb=memory_gb,
            untouched_fraction=untouched,
            arrival_s=arrivals,
            # float64 addition matches VMTraceRecord.departure_s bit-for-bit.
            departure_s=arrivals + lifetimes,
            cores=cores,
            record_source=_RecordColumns(
                cluster_id=cfg.cluster_id,
                region=cfg.region,
                customer_ids=self.memory_model.customer_ids,
                lifetime_s=lifetimes,
                customer_index=customer_idx,
                type_index=types,
                is_linux=is_linux,
                workload_index=workload_idx,
            ),
        )

    def iter_window_records(self) -> Iterator[TraceColumns]:
        """Yield the trace one generation window at a time, in arrival order.

        Each window is one :class:`TraceColumns` block of columns, whose
        records are built only if a consumer reads ``block.records`` (see
        :meth:`_window_block`).

        The first yielded block is the warm-start population (arrivals at
        ``t = 0``, substream 0) when enabled; block ``i + 1`` covers time
        window ``[i * GENERATION_WINDOW_S, (i + 1) * GENERATION_WINDOW_S)``
        from substream ``i + 1``.  Within a window every random quantity
        (arrival process, lifetime model, VM mix, customer population,
        untouched-memory behaviour) is drawn in bulk numpy operations.  This
        is the only generation path: :meth:`generate_bulk` concatenates the
        windows and :meth:`stream` re-buffers them into chunks, which is why
        the two are identical record-for-record.
        """
        cfg = self.config
        rate = self.arrival_rate_per_s()
        mean_s = cfg.mean_lifetime_hours * HOUR_S
        sigma = cfg.lifetime_sigma
        mu = np.log(mean_s) - sigma**2 / 2.0
        count = 0
        if cfg.warm_start:
            rng = self._substream_rng(0)
            n_initial = int(round(rate * mean_s))
            if n_initial:
                totals = np.clip(
                    rng.lognormal(mu + sigma**2, sigma, size=n_initial),
                    60.0, 90.0 * DAY_S,
                )
                residuals = np.maximum(60.0, rng.uniform(0.0, totals))
                block = self._window_block(
                    np.zeros(n_initial), residuals, count, rng
                )
                count += len(block)
                yield block
        duration = cfg.duration_s
        n_windows = int(np.ceil(duration / GENERATION_WINDOW_S))
        for window in range(n_windows):
            rng = self._substream_rng(window + 1)
            start = window * GENERATION_WINDOW_S
            window_len = min(GENERATION_WINDOW_S, duration - start)
            offsets = self._window_arrival_times(rate, window_len, rng)
            arrivals = start + offsets
            lifetimes = np.clip(
                rng.lognormal(mu, sigma, size=arrivals.size), 60.0, 90.0 * DAY_S
            )
            block = self._window_block(arrivals, lifetimes, count, rng)
            count += len(block)
            yield block

    def generate_bulk(self) -> ClusterTrace:
        """Vectorized trace generation (concatenates the generation windows).

        Roughly an order of magnitude faster than a per-record loop for the
        10^5..10^6-VM traces the scale benchmarks replay; :meth:`generate`
        delegates here.  For traces that should never be materialised at
        all, use :meth:`stream` instead -- it yields the very same records.
        The trace holds the concatenated window columns as its block, so
        it builds no record until one is read, just like :meth:`stream`.
        """
        windows = [(block, 0, len(block))
                   for block in self.iter_window_records()]
        if not windows:
            return ClusterTrace([], cluster_id=self.config.cluster_id)
        block = _concat_rows(windows)
        del windows  # the windows' columns are copied: free them first
        return ClusterTrace.from_block(block,
                                       cluster_id=self.config.cluster_id)

    def stream(self, chunk_size: int = 8192) -> "GeneratedTraceStream":
        """Lazy :class:`TraceStream` over this generator's trace.

        Byte-for-byte identical to :meth:`generate_bulk` (both consume
        :meth:`iter_window_records`), while holding at most one generation
        window plus one chunk in memory.
        """
        return GeneratedTraceStream(self, chunk_size=chunk_size)

    # -- generation --------------------------------------------------------------------
    def generate(self) -> ClusterTrace:
        """Generate the full trace for this cluster (delegates to the bulk path)."""
        return self.generate_bulk()


class GeneratedTraceStream(TraceStream):
    """Chunked stream over a :class:`TraceGenerator`'s synthetic trace.

    Re-buffers the generator's window blocks (see
    :meth:`TraceGenerator.iter_window_records`) into ``chunk_size``-record
    :class:`TraceColumns` blocks by slicing and concatenating their columns
    (the record-only ones too); a chunk builds its records only when they
    are read.  Window generation is driven by pure
    per-window RNG substreams, so every :meth:`chunks` call regenerates the
    identical trace -- the stream is re-iterable and picklable (it holds only
    the generator's config and memory model), which is what lets fleet
    workers and capacity-search probes replay it repeatedly.
    """

    def __init__(self, generator: TraceGenerator, chunk_size: int = 8192) -> None:
        self.generator = generator
        self.chunk_size = self._validate_chunk_size(chunk_size)
        self.cluster_id = generator.config.cluster_id

    def chunks(self) -> Iterator[TraceColumns]:
        size = self.chunk_size
        pending: List[Tuple[TraceColumns, int, int]] = []
        held = 0
        for block in self.generator.iter_window_records():
            start, n = 0, len(block)
            while held + n - start >= size:
                stop = start + size - held
                pending.append((block, start, stop))
                yield _concat_rows(pending)
                pending, held, start = [], 0, stop
            if start < n:
                pending.append((block, start, n))
                held += n - start
        if pending:
            yield _concat_rows(pending)


def _concat_rows(parts: Sequence[Tuple[TraceColumns, int, int]]) -> TraceColumns:
    """One block from the rows ``[start, stop)`` of each ``(block, start,
    stop)`` window block, in order; the arrays are copies, so a chunk never
    keeps its windows alive.  The record-only columns are concatenated the
    same way, and no record is built."""
    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(b, name)[i:j] for b, i, j in parts])

    def record_column(name: str) -> np.ndarray:
        return np.concatenate(
            [getattr(b.record_source, name)[i:j] for b, i, j in parts])

    return TraceColumns(
        vm_ids=tuple(chain.from_iterable(b.vm_ids[i:j] for b, i, j in parts)),
        memory_gb=column("memory_gb"),
        untouched_fraction=column("untouched_fraction"),
        arrival_s=column("arrival_s"),
        departure_s=column("departure_s"),
        cores=column("cores"),
        record_source=replace(parts[0][0].record_source, **{
            name: record_column(name) for name in _RecordColumns.ROW_FIELDS}),
    )


@lru_cache(maxsize=1024)
def _calibrated_mean_cores(seed: int, weights) -> float:
    """Mean cores of the 500 calibration VM types drawn for ``seed`` under
    the family-weight override ``weights`` (sorted items, or ``None``):
    the one random term of :meth:`TraceGenerator.arrival_rate_per_s`,
    drawn once per distinct pair."""
    rng = np.random.default_rng(seed + 7)
    types = sample_vm_type_indices(rng, 500, dict(weights) if weights else None)
    return float(np.mean(CATALOG_CORES[types]))


@lru_cache(maxsize=16)
def _customer_cdf(n_customers: int) -> np.ndarray:
    """CDF of the Zipf-like customer popularity ``1 / rank``, built once
    per population size."""
    probs = 1.0 / np.arange(1, n_customers + 1, dtype=float)
    probs /= probs.sum()
    return choice_cdf(probs)


def fleet_shard_configs(
    n_clusters: int,
    base_config: Optional[TraceGenConfig] = None,
    utilization_range: Sequence[float] = (0.55, 0.95),
    seed: int = 3,
) -> List[TraceGenConfig]:
    """Per-cluster configs for a fleet with utilisation spread evenly across
    ``utilization_range`` (so the stranding-vs-utilisation analysis, Figure
    2a, has samples in every bucket).  Shared by :func:`generate_fleet` and
    the sharded :class:`repro.cluster.fleet.FleetSimulator`.
    """
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    lo, hi = utilization_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError("utilization_range must satisfy 0 < lo <= hi <= 1")
    base = base_config or TraceGenConfig()
    configs: List[TraceGenConfig] = []
    for i in range(n_clusters):
        frac = 0.5 if n_clusters == 1 else i / (n_clusters - 1)
        util = lo + (hi - lo) * frac
        configs.append(replace(
            base,
            cluster_id=f"cluster-{i:03d}",
            target_core_utilization=util,
            region=f"region-{i % 3}",
            seed=seed + i,
        ))
    return configs


def generate_fleet(
    n_clusters: int,
    base_config: Optional[TraceGenConfig] = None,
    utilization_range: Sequence[float] = (0.55, 0.95),
    seed: int = 3,
) -> List[ClusterTrace]:
    """Generate traces for a fleet of clusters with varying utilisation."""
    return [
        TraceGenerator(cfg).generate_bulk()
        for cfg in fleet_shard_configs(n_clusters, base_config, utilization_range, seed)
    ]
