"""Durable ingestion with a write-ahead log: crash, recover, lose nothing.

Plain checkpoints (see ``service_checkpointing.py``) are exact but cost
O(sample) per snapshot, so a production stream takes them sparingly — and a
crash between checkpoints silently loses every batch since the last one.
Passing ``wal_dir=`` closes that gap: every batch is appended to a
CRC-framed write-ahead log *before* it is dispatched. The WAL directory
holds one file, ``batches.wal``, and each checkpoint starts it afresh with
the checkpoint as its first record, so recovery is "the log's checkpoint +
replay of the batches behind it" and lands bit-identical to a run that
never crashed, even for batches a crashed worker never acknowledged.

This example streams sensor readings into a WAL-enabled 4-shard service,
checkpoints once mid-stream, keeps ingesting, then hard-"crashes" (the
service object is dropped without ``close()``). ``recover_service`` rebuilds
the exact state, and the recovered service keeps ingesting on the same
trajectory as an uninterrupted reference run.

Run with:

    PYTHONPATH=src python examples/durable_service.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import RTBS
from repro.service import SamplerService, recover_service

NUM_SHARDS = 4
CAPACITY_PER_SHARD = 250
LAMBDA = 0.05
BATCH_SIZE = 2_000
NUM_BATCHES = 40
CHECKPOINT_AT = 15
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
    durability = service.stats()["durability"]
    print(
        f"{tag}: t={service.time:.0f}, batches={service.batches_seen}, "
        f"W_t={service.total_weight:.2f}, "
        f"watermark={durability.get('checkpoint_watermark', '-')}, "
        f"replay_lag={durability.get('replay_lag_batches', '-')}"
    )


def main() -> None:
    # Reference run: never interrupted, no WAL.
    reference = SamplerService(make_sampler, num_shards=NUM_SHARDS, rng=42)
    reference.ingest(sensor_batches(NUM_BATCHES))
    describe("uninterrupted", reference)

    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = f"{scratch}/wal"

        # Production run: every batch is logged before dispatch.
        live = SamplerService(
            make_sampler, num_shards=NUM_SHARDS, rng=42, wal_dir=wal_dir
        )
        live.ingest(sensor_batches(CHECKPOINT_AT))
        live.checkpoint()  # a fresh log whose first record is this checkpoint
        live.ingest(
            sensor_batches(CRASH_AFTER - CHECKPOINT_AT, start=CHECKPOINT_AT * BATCH_SIZE)
        )
        describe("before the crash", live)

        # Crash: the process dies without close(). The ten batches since the
        # checkpoint were never snapshotted — but they are all in the log.
        del live

        recovered = recover_service(wal_dir, make_sampler)
        describe("recovered", recovered)
        assert recovered.batches_seen == CRASH_AFTER

        # The recovered service is live: finish the stream on it.
        recovered.ingest(
            sensor_batches(NUM_BATCHES - CRASH_AFTER, start=CRASH_AFTER * BATCH_SIZE)
        )
        describe("recovered + finished", recovered)

        if recovered.sample_items() == reference.sample_items():
            print(
                "\nRecovered trajectory is bit-identical to the uninterrupted "
                f"run ({len(reference.sample_items())} sampled items match)."
            )
        else:  # pragma: no cover - the determinism contract forbids this
            raise SystemExit("recovered sample diverged from the reference run")
        recovered.close()


if __name__ == "__main__":
    main()
