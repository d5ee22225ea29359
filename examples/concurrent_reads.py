"""Snapshot-isolated reads: watch a live ingest without perturbing it.

A long-running sampling service is read far more often than it is
reconfigured — dashboards poll ``stats()``, retraining jobs pull
``sample_items()``, checkpoints fire on a timer. This example shows the
snapshot protocol that serves all of those reads without ever draining the
ingest pipeline:

1. reader threads hammer :meth:`~repro.service.SamplerService.snapshot` and
   ``stats(max_staleness_batches=...)`` while the main thread streams
   batches through a process-backed worker pool;
2. every observed :class:`~repro.service.ServiceSnapshot` is a consistent
   committed-watermark cut — per-shard views that add up, items that merge,
   watermarks that only move forward;
3. the final state is bit-identical to a same-seed run with no readers at
   all: reads never create shards, never draw randomness, never touch the
   stream (contract rule ``pure-read``, CONTRACTS.md section 7);
4. ``checkpoint(directory)`` serializes a classic directory checkpoint
   *from a snapshot cut* mid-stream, and it restores exactly.

Run with:  python examples/concurrent_reads.py
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np

from repro import RTBS, SamplerService
from repro.service import load_checkpoint

NUM_SHARDS = 4
SHARD_CAPACITY = 500
LAMBDA = 0.07
NUM_BATCHES = 60
BATCH_SIZE = 20_000


def make_service(executor="serial") -> SamplerService:
    return SamplerService(
        lambda rng: RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng),
        num_shards=NUM_SHARDS,
        rng=11,
        executor=executor,
    )


def batches() -> list[np.ndarray]:
    return [
        np.arange(index * BATCH_SIZE, (index + 1) * BATCH_SIZE)
        for index in range(NUM_BATCHES)
    ]


def read_under_ingest() -> None:
    print("Readers under ingest: 3 threads polling a process-backed service\n")

    quiet = make_service()
    quiet.ingest(batches(), window=4)
    reference = quiet.sample_items()

    observed: dict[str, int] = {"reads": 0}
    watermarks: list[int] = []
    stop = threading.Event()

    with make_service("process:2") as service:

        def reader() -> None:
            last = -1
            while not stop.is_set():
                snap = service.snapshot()
                assert snap.watermark >= last  # cuts only move forward
                last = snap.watermark
                # Per-shard views belong to one moment of the stream.
                assert snap.total_items == sum(
                    view.sample_size for view in snap.views.values()
                )
                assert len(snap.sample_items()) == snap.total_items
                # The stale-tolerant stats path costs no worker round-trip.
                stats = service.stats(max_staleness_batches=8)
                assert stats["total_items"] == sum(
                    shard["items"] for shard in stats["shards"].values()
                )
                observed["reads"] += 1
                watermarks.append(snap.watermark)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        service.ingest(batches(), window=4)
        stop.set()
        for thread in threads:
            thread.join()

        final = service.snapshot()
        print(
            f"ingested {NUM_BATCHES} batches x {BATCH_SIZE:,} items while "
            f"readers took {observed['reads']} consistent cuts "
            f"(watermarks {min(watermarks)} .. {max(watermarks)})"
        )
        assert final.watermark == NUM_BATCHES - 1
        assert service.sample_items() == reference
        print(
            "final sample is bit-identical to the same-seed run with no "
            f"readers at all ({len(reference)} items) — reads left no trace\n"
        )


def checkpoint_from_a_cut() -> None:
    print("Checkpointing from a snapshot cut, mid-stream\n")
    stream = batches()
    with make_service("process:2") as service, tempfile.TemporaryDirectory() as tmp:
        service.ingest(stream[: NUM_BATCHES // 2], window=4)
        service.checkpoint(tmp)  # serialized from a cut — no drain barrier
        service.ingest(stream[NUM_BATCHES // 2 :], window=4)

        state = load_checkpoint(tmp)
        watermark = state["batches_seen"] - 1
        restored = SamplerService.from_state_dict(
            state, lambda rng: RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng)
        )
        print(
            f"checkpoint cut at watermark {watermark} restored "
            f"{len(restored.sample_items())} items; the live service kept "
            f"ingesting to batch {service.batches_seen}"
        )
        assert watermark == NUM_BATCHES // 2 - 1
        assert restored.batches_seen == NUM_BATCHES // 2


def main() -> None:
    read_under_ingest()
    checkpoint_from_a_cut()


if __name__ == "__main__":
    main()
