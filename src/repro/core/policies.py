"""Memory-allocation policies for the cluster-scale savings simulations.

The end-to-end evaluation (paper Section 6.5, Figure 21) compares:

* an **all-local** baseline (no pooling),
* a **static** strawman that puts a fixed percentage (15 %) of every VM's
  memory on the pool, and
* **Pond**, which per VM either (a) places the whole VM on the pool when the
  latency-insensitivity model says it is safe, or (b) places the predicted
  untouched memory on the pool (GB-aligned, rounded down).

These policies operate on :class:`~repro.cluster.trace.VMTraceRecord` objects
(the simulator's unit of work), so Pond's behaviour is modelled through its
*operating point*: the fraction of VMs it labels insensitive (LI), the false
positive rate among them (FP), and how aggressively it harvests untouched
memory (controlled by the prediction quantile / overprediction rate OP).
Mispredictions are tracked per VM so the experiments can verify the
scheduling-misprediction constraint.

Batch policy contract (see DESIGN.md):

Every policy exposes two evaluation paths that must agree decision-for-
decision:

* ``decide_batch(trace) -> np.ndarray`` -- the vectorized path.  One call
  computes the pool share of every VM in the trace with bulk numpy
  operations; the simulator's hot loop then indexes the result instead of
  calling back into Python per VM.
* ``__call__(record) -> float`` -- the legacy per-record path, retained as a
  thin wrapper that evaluates a batch of one.

Both paths draw their randomness from *stable per-VM digests* (CRC32 of the
VM id, salted with the policy seed) fed through a counter-based bit mixer --
never from sequential RNG state.  The same VM therefore always receives the
same decision regardless of call order, how many simulator passes consume
the policy, which shard of a fleet run evaluates it, or the process's
``PYTHONHASHSEED``.  This is what makes sharded fleet simulation sound:
partitioning a workload across shards cannot change any VM's allocation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence, Tuple, Union
import weakref

import numpy as np

from repro.cluster.rng import GOLDEN, splitmix64, splitmix64_array
from repro.cluster.trace import ClusterTrace, TraceColumns, VMTraceRecord
from repro.core.counters import Counters
from repro.core.prediction.combined import CombinedOperatingPoint

__all__ = [
    "AllLocalPolicy",
    "StaticFractionPolicy",
    "PondTracePolicy",
    "PredictionPolicy",
    "PolicyStats",
    "stable_vm_digests",
    "keyed_uniforms",
]

#: Batch-evaluatable inputs: a full trace (preferred: its columnar view is
#: cached), one streamed :class:`TraceColumns` chunk (the streaming replay
#: path evaluates one of these per chunk), or any sequence of records.
TraceLike = Union[ClusterTrace, TraceColumns, Sequence[VMTraceRecord]]

# One shared SplitMix64 implementation (repro.cluster.rng) serves both the
# policy digests here and the trace generator's window substreams.
_SPREAD = np.uint64(GOLDEN)
_mix64 = splitmix64_array
_mix64_int = splitmix64


#: Fixed salts separating the independent uniform streams each policy draws
#: per VM (overprediction, latency-insensitivity, false-positive, touch).
_STREAM_SALTS = tuple(np.uint64(_mix64_int(k + 1)) for k in range(8))


#: Digests are pure functions of ``(tag, seed, vm_id)`` but cost one CRC32
#: per VM; dimensioning sweeps and differential reruns batch-evaluate the
#: same trace many times (often through *different* policy instances built
#: by a factory), so memoise per trace at module level -- entries die with
#: their traces, and being a pure memo it needs no pickling support.
_DIGEST_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: The latency forest's scores for the last block a
#: :class:`PredictionPolicy` decided: ``[digests ref, latency model ref,
#: scores]``.  The online loop estimates slowdowns for each block right
#: after deciding it, so the next ``predict_slowdown_batch`` takes the
#: scores when both the block's digests array (the one ``_DIGEST_MEMO``
#: hands out per trace) and the model are the same objects; any other
#: block re-scores.  The first estimate empties the memo either way, so a
#: later estimate never reads scores older than the decide just before it.
#: Held at module level, never on the policy, so a decide leaves the
#: policy's pickle bytes untouched.
_LAST_SCORES: list = [None, None, None]


def _forget_scores(digests_ref: "weakref.ref") -> None:
    """Drop the memo's scores once their block's digests are gone."""
    if _LAST_SCORES[0] is digests_ref:
        _LAST_SCORES[:] = (None, None, None)


def stable_vm_digests(vm_ids: Sequence[str], tag: str, seed: int) -> np.ndarray:
    """Stable per-VM digests: CRC32 over ``tag:seed:vm_id``.

    CRC32 is deterministic across processes and platforms, unlike ``hash()``
    whose string hashing is randomised by ``PYTHONHASHSEED`` -- the digest a
    sharded worker computes for a VM is therefore identical to the one the
    parent (or any rerun) computes.  ``tag`` decorrelates different policy
    classes sharing a seed.
    """
    prefix = f"{tag}:{seed}:".encode()
    return np.fromiter(
        (zlib.crc32(prefix + vm_id.encode()) for vm_id in vm_ids),
        dtype=np.uint64,
        count=len(vm_ids),
    )


def keyed_uniforms(digests: np.ndarray, n_streams: int) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)`` keyed on per-VM digests.

    Returns shape ``(len(digests), n_streams)``; column ``k`` is an
    independent uniform draw per VM.  Pure function of the digest, so batch
    and scalar evaluation agree bit-for-bit and no sequential RNG state is
    involved.
    """
    spread = digests * _SPREAD
    out = np.empty((digests.shape[0], n_streams), dtype=np.float64)
    for k in range(n_streams):
        salt = _STREAM_SALTS[k] if k < len(_STREAM_SALTS) else np.uint64(
            _mix64_int(k + 1)
        )
        out[:, k] = (_mix64(spread ^ salt) >> np.uint64(11)) * (2.0 ** -53)
    return out


@dataclass
class PolicyStats(Counters):
    """Per-policy accounting of decisions and mispredictions."""

    n_vms: int = 0
    n_fully_pool_backed: int = 0
    n_znuma: int = 0
    n_all_local: int = 0
    n_mispredictions: int = 0
    pool_gb: float = 0.0
    total_gb: float = 0.0

    @property
    def misprediction_percent(self) -> float:
        return 100.0 * self.n_mispredictions / self.n_vms if self.n_vms else 0.0

    @property
    def pool_fraction_percent(self) -> float:
        return 100.0 * self.pool_gb / self.total_gb if self.total_gb else 0.0


class _BatchPolicy:
    """Shared machinery for the two-phase (batch + scalar) policy engine.

    Subclasses implement :meth:`_decide_arrays`, the single vectorized
    decision function both evaluation paths run through; the scalar
    ``__call__`` is a batch of one, so the differential guarantee holds by
    construction.
    """

    #: Digest salt separating policy classes that share a seed.
    _digest_tag = "policy"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.stats = PolicyStats()

    # -- inputs ------------------------------------------------------------------
    def _trace_arrays(
        self, trace: TraceLike
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(memory_gb, untouched_fraction, digests) for a trace-like input."""
        if isinstance(trace, ClusterTrace):
            columns = trace.columns()
            per_trace = _DIGEST_MEMO.get(trace)
            if per_trace is None:
                per_trace = {}
                _DIGEST_MEMO[trace] = per_trace
            key = (self._digest_tag, self.seed)
            digests = per_trace.get(key)
            if digests is None or digests.shape[0] != len(columns.vm_ids):
                digests = stable_vm_digests(columns.vm_ids, self._digest_tag, self.seed)
                per_trace[key] = digests
            return columns.memory_gb, columns.untouched_fraction, digests
        if isinstance(trace, TraceColumns):
            # One streamed chunk: transient, so digests are not worth caching.
            digests = stable_vm_digests(trace.vm_ids, self._digest_tag, self.seed)
            return trace.memory_gb, trace.untouched_fraction, digests
        records = list(trace)
        memory = np.fromiter((r.memory_gb for r in records), np.float64, len(records))
        untouched = np.fromiter(
            (r.untouched_fraction for r in records), np.float64, len(records)
        )
        digests = stable_vm_digests(
            [r.vm_id for r in records], self._digest_tag, self.seed
        )
        return memory, untouched, digests

    # -- decision core -----------------------------------------------------------
    def _decide_arrays(
        self, memory_gb: np.ndarray, untouched_fraction: np.ndarray,
        digests: np.ndarray,
    ) -> Tuple[np.ndarray, PolicyStats]:
        raise NotImplementedError

    def decide_batch(self, trace: TraceLike) -> np.ndarray:
        """Vectorized path: pool GB for every VM, aligned with trace order."""
        memory_gb, untouched_fraction, digests = self._trace_arrays(trace)
        pool_gb, delta = self._decide_arrays(memory_gb, untouched_fraction, digests)
        self.stats.add(delta)
        return pool_gb

    def __call__(self, record: VMTraceRecord) -> float:
        """Thin per-record path: evaluates a batch of one."""
        digests = stable_vm_digests([record.vm_id], self._digest_tag, self.seed)
        pool_gb, delta = self._decide_arrays(
            np.array([record.memory_gb]),
            np.array([record.untouched_fraction]),
            digests,
        )
        self.stats.add(delta)
        return float(pool_gb[0])


class AllLocalPolicy(_BatchPolicy):
    """Every VM gets all of its memory on NUMA-local DRAM (the baseline)."""

    _digest_tag = "all-local"

    def _decide_arrays(self, memory_gb, untouched_fraction, digests):
        n = memory_gb.shape[0]
        delta = PolicyStats(
            n_vms=n, n_all_local=n, total_gb=float(memory_gb.sum())
        )
        return np.zeros(n, dtype=np.float64), delta


class StaticFractionPolicy(_BatchPolicy):
    """The strawman: a fixed fraction of every VM's memory goes to the pool.

    A VM is counted as a misprediction when its pool share exceeds its actual
    untouched memory (it will touch pool memory) *and* it is latency
    sensitive enough that the resulting spill exceeds the PDM; the paper
    estimates about 1/4 of touching VMs exceed a 5 % PDM.  The violation draw
    is keyed per VM (not a shared sequential RNG), so the verdict for a VM is
    independent of evaluation order and of how a fleet run shards the trace.
    """

    _digest_tag = "static-fraction"

    def __init__(self, fraction: float = 0.15,
                 touch_violation_probability: float = 0.25,
                 seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not 0.0 <= touch_violation_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        super().__init__(seed=seed)
        self.fraction = fraction
        self.touch_violation_probability = touch_violation_probability

    def _decide_arrays(self, memory_gb, untouched_fraction, digests):
        pool_gb = memory_gb * self.fraction
        untouched_gb = memory_gb * untouched_fraction
        touches = pool_gb > untouched_gb + 1e-9
        uniforms = keyed_uniforms(digests, 1)
        violates = touches & (uniforms[:, 0] < self.touch_violation_probability)
        n = memory_gb.shape[0]
        delta = PolicyStats(
            n_vms=n,
            n_znuma=n,
            n_mispredictions=int(violates.sum()),
            pool_gb=float(pool_gb.sum()),
            total_gb=float(memory_gb.sum()),
        )
        return pool_gb, delta


class PondTracePolicy(_BatchPolicy):
    """Pond's allocation behaviour at a given combined-model operating point.

    Parameters
    ----------
    operating_point:
        The solved Eq.(1) operating point (LI %, FP %, OP %, UM %).
    prediction_quantile:
        How conservatively untouched memory is predicted: the prediction is
        this fraction of the VM's actual untouched memory for correctly
        predicted VMs.  Overpredicted VMs (an ``op_percent`` share) instead
        receive a prediction *above* their actual untouched memory.
    slice_gb:
        zNUMA sizes are rounded down to this granularity.
    """

    _digest_tag = "pond-trace"

    #: Uniform stream indices per VM.
    _STREAM_OVERPREDICT, _STREAM_LI, _STREAM_FP, _STREAM_TOUCH = range(4)

    def __init__(
        self,
        operating_point: CombinedOperatingPoint,
        prediction_quantile: float = 0.8,
        overprediction_excess: float = 0.15,
        slice_gb: int = 1,
        touch_violation_probability: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not 0.0 < prediction_quantile <= 1.0:
            raise ValueError("prediction_quantile must be in (0, 1]")
        if overprediction_excess < 0:
            raise ValueError("overprediction_excess cannot be negative")
        if slice_gb < 1:
            raise ValueError("slice_gb must be >= 1")
        super().__init__(seed=seed)
        self.point = operating_point
        self.prediction_quantile = prediction_quantile
        self.overprediction_excess = overprediction_excess
        self.slice_gb = slice_gb
        self.touch_violation_probability = touch_violation_probability

    def _decide_arrays(self, memory_gb, untouched_fraction, digests):
        """Vectorized per-VM decision.

        Capacity modelling note: Pond's production scheduler treats pool
        memory as an additional bin-packing dimension, spreading fully
        pool-backed VMs across hosts and pool groups.  The per-server effect
        of that balancing is captured here by having every VM contribute its
        *expected* pool share (LI-probability-weighted) to capacity, while the
        misprediction accounting still uses per-VM draws -- see DESIGN.md.
        """
        point = self.point
        li = point.li_percent / 100.0
        uniforms = keyed_uniforms(digests, 4)

        # zNUMA branch: size the pool share from the predicted untouched memory.
        overpredicted = uniforms[:, self._STREAM_OVERPREDICT] < point.op_percent / 100.0
        predicted_fraction = np.where(
            overpredicted,
            np.minimum(0.99, untouched_fraction + self.overprediction_excess),
            untouched_fraction * self.prediction_quantile,
        )
        predicted_gb = predicted_fraction * memory_gb
        znuma_gb = np.floor(predicted_gb / self.slice_gb) * self.slice_gb
        znuma_gb = np.minimum(znuma_gb, memory_gb)

        # Misprediction accounting uses per-VM draws of the actual decision.
        fully_backed = uniforms[:, self._STREAM_LI] < li
        false_positive = fully_backed & (
            uniforms[:, self._STREAM_FP] < point.fp_percent / 100.0
        )
        has_znuma = ~fully_backed & (znuma_gb > 0)
        all_local = ~fully_backed & ~has_znuma
        # The VM spills; only a fraction of spilling VMs exceed the PDM.
        untouched_gb = memory_gb * untouched_fraction
        spills = has_znuma & (znuma_gb > untouched_gb + 1e-9) & (
            uniforms[:, self._STREAM_TOUCH] < self.touch_violation_probability
        )

        pool_gb = li * memory_gb + (1.0 - li) * znuma_gb
        delta = PolicyStats(
            n_vms=memory_gb.shape[0],
            n_fully_pool_backed=int(fully_backed.sum()),
            n_znuma=int(has_znuma.sum()),
            n_all_local=int(all_local.sum()),
            n_mispredictions=int(false_positive.sum() + spills.sum()),
            pool_gb=float(pool_gb.sum()),
            total_gb=float(memory_gb.sum()),
        )
        return pool_gb, delta


class PredictionPolicy(_BatchPolicy):
    """Pond's allocation behaviour driven by the *actual* prediction models.

    Where :class:`PondTracePolicy` models the combined pipeline through its
    solved operating point (LI/FP/OP rates), this policy runs the real
    models from :mod:`repro.core.prediction` per VM, vectorized over trace
    chunks:

    * the quantile-GBM :class:`~repro.core.prediction.untouched_model.
      UntouchedMemoryPredictor` sizes the zNUMA from scheduling-time
      metadata (paper Figure 12's path A), and
    * the RandomForest :class:`~repro.core.prediction.latency_model.
      LatencyInsensitivityModel` decides which VMs go fully pool-backed.

    Trace records carry no customer metadata or core-PMU telemetry, so both
    feature vectors are *synthesised deterministically* from the per-VM
    digest streams (the same counter-based RNG every batch policy uses):
    the metadata history percentiles track the VM's true untouched fraction
    plus jitter, and the TMA counters track a latent sensitivity draw.  The
    decision for a VM is therefore a pure function of ``(vm_id, seed)`` and
    the fitted models -- independent of chunking, sharding, call order, and
    ``PYTHONHASHSEED`` -- and the whole policy pickles cleanly for
    process-pool workers (the models are plain numpy/dataclass trees).

    Unlike :class:`PondTracePolicy`'s expected-value capacity accounting,
    the pool share here is the *actual* per-VM decision (full memory for
    insensitive VMs, zNUMA otherwise): the online QoS loop must see and
    mitigate individual mispredicted VMs, not population averages.
    """

    _digest_tag = "prediction"

    #: Uniform stream indices per VM.
    (_STREAM_CORES, _STREAM_FAMILY, _STREAM_OS, _STREAM_REGION,
     _STREAM_HISTORY, _STREAM_TMA, _STREAM_TOUCH, _STREAM_NOISE) = range(8)

    #: Synthetic TMA feature-vector width (matches :meth:`train`'s corpus).
    N_TMA_FEATURES = 4

    #: True slowdown (percent) of a fully pool-backed VM with sensitivity
    #: latent ``s`` is ``SLOWDOWN_SCALE * s**2`` (Figure 5's up-to-~25-50 %
    #: range, quadratic so most VMs sit well under the PDM).
    SLOWDOWN_SCALE_PERCENT = 50.0

    #: History-percentile offsets around the true untouched fraction.
    _HISTORY_OFFSETS = np.linspace(-0.1, 0.1, 5)

    def __init__(
        self,
        untouched_model,
        latency_model,
        slice_gb: int = 1,
        touch_violation_probability: float = 0.25,
        seed: int = 0,
    ) -> None:
        if slice_gb < 1:
            raise ValueError("slice_gb must be >= 1")
        if not 0.0 <= touch_violation_probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        super().__init__(seed=seed)
        self.untouched_model = untouched_model
        self.latency_model = latency_model
        self.slice_gb = slice_gb
        self.touch_violation_probability = touch_violation_probability

    # -- training -----------------------------------------------------------------
    @classmethod
    def train(
        cls,
        seed: int = 0,
        n_samples: int = 512,
        fp_target_percent: float = 2.0,
        pdm_percent: float = 5.0,
        quantile: float = 0.05,
        slice_gb: int = 1,
        policy_seed: int = 0,
    ) -> "PredictionPolicy":
        """Fit both models on a synthetic corpus and return the policy.

        The corpus is drawn from the same generative process the policy
        synthesises features from at decide time (history percentiles
        tracking the untouched fraction; TMA counters tracking a
        sensitivity latent with true slowdown ``SLOWDOWN_SCALE * s**2``),
        so the models carry real signal: the GBM's quantile objective keeps
        overprediction rare, and the forest's threshold is calibrated to
        the FP-rate target exactly as in Figure 17.
        """
        from repro.core.prediction.latency_model import LatencyInsensitivityModel
        from repro.core.prediction.untouched_model import UntouchedMemoryPredictor

        rng = np.random.default_rng(seed)
        untouched = rng.uniform(0.0, 0.9, n_samples)
        jitter = rng.normal(0.0, 0.02, n_samples)
        rows = []
        for i in range(n_samples):
            history = np.clip(
                untouched[i] + jitter[i] + cls._HISTORY_OFFSETS, 0.0, 1.0
            )
            rows.append({
                "memory_gb": float(rng.choice([8.0, 16.0, 32.0, 64.0, 128.0])),
                "cores": float(2 ** rng.integers(0, 4)),
                "vm_family": f"family{rng.integers(0, 4)}",
                "guest_os": f"os{rng.integers(0, 3)}",
                "region": f"region{rng.integers(0, 5)}",
                "history_percentiles": history.tolist(),
            })
        untouched_model = UntouchedMemoryPredictor(
            quantile=quantile, n_estimators=40, min_samples_leaf=20,
            random_state=seed,
        ).fit(rows, untouched)

        sensitivity = rng.uniform(0.0, 1.0, n_samples)
        tma = cls._tma_matrix(sensitivity, rng.uniform(0.0, 1.0, n_samples))
        slowdowns = cls.SLOWDOWN_SCALE_PERCENT * sensitivity ** 2
        latency_model = LatencyInsensitivityModel(
            pdm_percent=pdm_percent, n_estimators=30, max_depth=6,
            random_state=seed,
        ).fit(tma, slowdowns)
        latency_model.calibrate_threshold(tma, slowdowns, fp_target_percent)
        return cls(untouched_model, latency_model, slice_gb=slice_gb,
                   seed=policy_seed)

    # -- deterministic feature synthesis --------------------------------------------
    @staticmethod
    def _tma_matrix(sensitivity: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Synthetic core-PMU features as a function of the latent draws."""
        out = np.empty((sensitivity.shape[0], PredictionPolicy.N_TMA_FEATURES))
        out[:, 0] = 0.05 + 0.9 * sensitivity + (noise - 0.5) * 0.04
        out[:, 1] = 0.02 + 0.7 * sensitivity + (0.5 - noise) * 0.04
        out[:, 2] = 0.5 * noise
        out[:, 3] = 0.3 * (1.0 - noise)
        return out

    def _tma_features(self, digests):
        """(TMA matrix, uniforms) for a batch of VMs: all the forest reads."""
        uniforms = keyed_uniforms(digests, 8)
        tma = self._tma_matrix(
            uniforms[:, self._STREAM_TMA], uniforms[:, self._STREAM_NOISE]
        )
        return tma, uniforms

    def _metadata_matrix(self, memory_gb, untouched_fraction, uniforms):
        """The GBM's metadata matrix for a batch of VMs."""
        encoder = self.untouched_model.encoder
        cores = np.exp2(np.floor(uniforms[:, self._STREAM_CORES] * 4.0))
        codes = []
        for stream, name in (
            (self._STREAM_FAMILY, "vm_family"),
            (self._STREAM_OS, "guest_os"),
            (self._STREAM_REGION, "region"),
        ):
            n_cats = max(encoder.n_categories(name), 1)
            codes.append(np.floor(uniforms[:, stream] * n_cats))
        jitter = (uniforms[:, self._STREAM_HISTORY] - 0.5) * 0.04
        history = np.clip(
            untouched_fraction[:, None] + jitter[:, None]
            + self._HISTORY_OFFSETS[None, :],
            0.0, 1.0,
        )
        return encoder.assemble_matrix(memory_gb, cores, codes, history)

    # -- decision core -----------------------------------------------------------
    def _decide_arrays(self, memory_gb, untouched_fraction, digests):
        tma, uniforms = self._tma_features(digests)
        metadata = self._metadata_matrix(memory_gb, untouched_fraction, uniforms)
        predicted_fraction = self.untouched_model.predict_fraction_from_features(
            metadata
        )
        znuma_gb = np.floor(predicted_fraction * memory_gb / self.slice_gb)
        znuma_gb *= self.slice_gb
        znuma_gb = np.minimum(znuma_gb, memory_gb)

        scores = self.latency_model.insensitivity_score(tma)
        _LAST_SCORES[:] = (weakref.ref(digests, _forget_scores),
                           weakref.ref(self.latency_model), scores)
        fully_backed = scores >= self.latency_model.threshold_
        has_znuma = ~fully_backed & (znuma_gb > 0)
        all_local = ~fully_backed & ~has_znuma

        # Misprediction accounting against the generative ground truth.
        sensitivity = uniforms[:, self._STREAM_TMA]
        true_slowdown = self.SLOWDOWN_SCALE_PERCENT * sensitivity ** 2
        false_positive = fully_backed & (
            true_slowdown > self.latency_model.pdm_percent
        )
        untouched_gb = memory_gb * untouched_fraction
        spills = has_znuma & (znuma_gb > untouched_gb + 1e-9) & (
            uniforms[:, self._STREAM_TOUCH] < self.touch_violation_probability
        )

        pool_gb = np.where(fully_backed, memory_gb, znuma_gb)
        delta = PolicyStats(
            n_vms=memory_gb.shape[0],
            n_fully_pool_backed=int(fully_backed.sum()),
            n_znuma=int(has_znuma.sum()),
            n_all_local=int(all_local.sum()),
            n_mispredictions=int(false_positive.sum() + spills.sum()),
            pool_gb=float(pool_gb.sum()),
            total_gb=float(memory_gb.sum()),
        )
        return pool_gb, delta

    # -- online QoS estimator -----------------------------------------------------
    def predict_slowdown_batch(self, trace: TraceLike,
                               pool_gb: np.ndarray) -> np.ndarray:
        """Estimated slowdown percent per VM under the given pool shares.

        This is the QoS monitor's model view (path B in Figure 11): the
        latency forest is re-evaluated on the VM's (synthesised) telemetry
        and weighted by the pool exposure observed at runtime -- the full
        memory for a fully pool-backed VM, the spilled fraction (pool share
        beyond the actual untouched set, i.e. the untouched-fraction
        telemetry column) for a zNUMA VM.  A pure function of the digests
        and the fitted models, so every engine and shard count computes the
        same estimates.  The scores of a block this policy's model has just
        decided are reused (:data:`_LAST_SCORES`), bit for bit.
        """
        memory_gb, untouched_fraction, digests = self._trace_arrays(trace)
        pool_gb = np.asarray(pool_gb, dtype=np.float64)
        digests_ref, model_ref, scores = _LAST_SCORES
        _LAST_SCORES[:] = (None, None, None)
        if (digests_ref is None or digests_ref() is not digests
                or model_ref() is not self.latency_model):
            tma, _ = self._tma_features(digests)
            scores = self.latency_model.insensitivity_score(tma)
        spilled_gb = np.maximum(
            pool_gb - untouched_fraction * memory_gb, 0.0
        )
        exposure = np.where(
            pool_gb >= memory_gb - 1e-9,
            1.0,
            spilled_gb / np.maximum(memory_gb, 1e-12),
        )
        return self.SLOWDOWN_SCALE_PERCENT * (1.0 - scores) * exposure
