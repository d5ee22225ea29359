"""Sharded ingestion with crash recovery: the SamplerService end to end.

Scenario: a fleet of sensors streams readings keyed by sensor id. We run a
4-shard :class:`repro.service.SamplerService` with one R-TBS sampler per
shard, checkpoint it mid-stream to a plain directory (a JSON manifest plus
an uncompressed npz archive — no pickle), "crash", restore in a fresh service object, and verify
the recovered trajectory is bit-identical to a run that never crashed.

Run with:

    PYTHONPATH=src python examples/service_checkpointing.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import RTBS
from repro.service import SamplerService, load_service, save_service

NUM_SHARDS = 4
CAPACITY_PER_SHARD = 250
LAMBDA = 0.05
BATCH_SIZE = 2_000
NUM_BATCHES = 40
CRASH_AFTER = 25


def make_sampler(rng: np.random.Generator) -> RTBS:
    """One bounded time-biased sampler per shard, on its own RNG stream."""
    return RTBS(n=CAPACITY_PER_SHARD, lambda_=LAMBDA, rng=rng)


def sensor_batches(count: int, start: int = 0) -> list[np.ndarray]:
    """Synthetic readings; the integer payload doubles as the sensor id."""
    return [
        np.arange(start + index * BATCH_SIZE, start + (index + 1) * BATCH_SIZE)
        for index in range(count)
    ]


def describe(tag: str, service: SamplerService) -> None:
    sizes = {shard: len(sample) for shard, sample in service.shard_samples().items()}
    print(
        f"{tag}: t={service.time:.0f}, batches={service.batches_seen}, "
        f"W_t={service.total_weight:.2f}, C_t={service.expected_sample_size:.2f}, "
        f"shard sizes={sizes}"
    )


def main() -> None:
    # Reference run: never interrupted.
    reference = SamplerService(make_sampler, num_shards=NUM_SHARDS, rng=42)
    reference.ingest(sensor_batches(NUM_BATCHES))
    describe("uninterrupted", reference)

    # Production run: checkpoint mid-stream, crash, restore, carry on.
    live = SamplerService(make_sampler, num_shards=NUM_SHARDS, rng=42)
    live.ingest(sensor_batches(CRASH_AFTER))
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        save_service(live, checkpoint_dir)
        describe(f"checkpointed to {checkpoint_dir}", live)
        del live  # the "crash": every in-memory sampler is gone

        recovered = load_service(checkpoint_dir, make_sampler)
    describe("restored", recovered)
    remaining = sensor_batches(NUM_BATCHES - CRASH_AFTER, start=CRASH_AFTER * BATCH_SIZE)
    recovered.ingest(remaining)
    describe("recovered + resumed", recovered)

    identical = (
        recovered.sample_items() == reference.sample_items()
        and recovered.total_weight == reference.total_weight
        and recovered.expected_sample_size == reference.expected_sample_size
    )
    print(f"\nbit-identical to the uninterrupted run: {identical}")
    assert identical


if __name__ == "__main__":
    main()
