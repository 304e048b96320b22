"""Golden digests of the synthetic trace generator.

Trace generation must stay byte-identical under refactoring: every pinned
perfbench digest, replay fixture and benchmark digest is downstream of it.
This file pins the sha256 of every field of every generated record and of
every column of every stream chunk, over a small config matrix that covers
family-weight overrides (a zero-weight family included), cold starts, a
fractional last generation window, a non-default customer population, two
seeds and the mid-trace workload shift.  A digest here moves only when the
generated traces do.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.tracegen import TraceGenConfig, TraceGenerator

BASE = dict(n_servers=6, duration_days=0.5)

CASES = {
    "defaults": dict(),
    "family_overrides": dict(family_weights={
        "memory_optimized": 0.0, "compute_optimized": 0.5, "burstable": 0.2}),
    "cold_start": dict(warm_start=False),
    "fractional_window": dict(duration_days=1.4),
    "customers_37": dict(n_customers=37),
    "seed_11": dict(seed=11),
    "seed_11_overrides": dict(seed=11, family_weights={"general": 0.9}),
    "shifted": dict(duration_days=1.4, shift_day=0.6, shift_memory_factor=3.0),
}

#: (records sha256, chunk-columns sha256) per case, the chunk digest being
#: the same at every chunk size (chunk boundaries are not hashed).
GOLDEN = {
    "cold_start": ("107b7635c0664af706ea7175488de3401e034a3a7b2a4cdf655e84f17c42d32b",
                   "91d21eff8498a03305752a0f6d2cbc22a5e72df28ee99fcc68cbd94910a3cbcd"),
    "customers_37": ("3a25be9634aa38c9357c291fc18ee2860466cd144d8c5ae80e7804e89fd811d0",
                     "5daf202b186c6411980d4eab6780d59f84a37087bf5471946fd5948ba4291801"),
    "defaults": ("6bc6db0b0716dc517234b1279fd98e5f45f4cb36324189c28d6b654c34e94637",
                 "b443e1d6c684b77a07372aa4c32c619a26d2353b6cb1f3e1da3d7d1d2ef3b3bb"),
    "family_overrides": ("95a329828f2af5594b09ff3c385168011fe189c83559c65916e5716dbeb76e9e",
                         "088c7e64690566142aafe1514a8f512333b1ceb8c951e0946033f208f2d7836c"),
    "fractional_window": ("f29fba8acb6c9ad7be4235b09831703909bee31d1c591ba197261bd384e12466",
                          "83a493299b376a11b1084c85a707167c2818918ce0907f591cb57300680bf02f"),
    "seed_11": ("3a38526cffc40ce7f22f1a9364457fe1f6bc0f84cad658ab281ff74b070136ac",
                "0e59e746c48f0441cf852f5ba8017a6723d70f93cd46e4a276d50e3ae743b099"),
    "seed_11_overrides": ("870d106b73237baf2160bb2dbe0e474392c80af4e0b5b11fcab9842aca582ee1",
                          "80957242101c4f6f32867289f2c72a6d2950ae038a5fbe5e9a534f0699aa0665"),
    # Shifted: the memory-optimised weight is the merged weight (0.36 by
    # default) times shift_memory_factor.
    "shifted": ("746ba37720bb4dabd63ee80b3e33ef9b67e1101d0ef65c7e8c26b43ac0860e96",
                "0a942ff25060a9d2aef6ffc87a7ab0f95ff7a5dcc4745649b68c1f2458d24bf6"),
}

CHUNK_SIZES = (1, 97, 1_000_000)


def config(case):
    return TraceGenConfig(**{**BASE, **CASES[case]})


def records_digest(records):
    h = hashlib.sha256()
    for r in records:
        for name, value in vars(r).items():
            h.update(f"{name}={type(value).__name__}:{value!r};".encode())
        h.update(b"\n")
    return h.hexdigest()


def columns_digest(chunks):
    """Digest of the concatenated chunk columns (content, dtype, order)."""
    h = hashlib.sha256()
    for column in ("memory_gb", "untouched_fraction", "arrival_s",
                   "departure_s", "cores"):
        values = np.concatenate([getattr(c, column) for c in chunks])
        h.update(f"{column}:{values.dtype.str}:".encode())
        h.update(values.tobytes())
    for chunk in chunks:
        h.update("\n".join(chunk.vm_ids).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module", params=sorted(CASES))
def generated(request):
    case = request.param
    return case, TraceGenerator(config(case)).generate_bulk().records


def test_records_match_golden(generated):
    case, records = generated
    assert records_digest(records) == GOLDEN[case][0]


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_stream_chunks_match_golden(generated, chunk_size):
    case, records = generated
    chunks = list(TraceGenerator(config(case)).stream(chunk_size).chunks())
    assert [len(c) for c in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= chunk_size
    assert [r for c in chunks for r in c.records] == records
    assert columns_digest(chunks) == GOLDEN[case][1]
