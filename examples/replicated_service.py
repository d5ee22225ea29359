"""Warm-standby replication: SIGKILL a shard worker, lose nothing.

``durable_service.py`` shows offline recovery — the whole process dies and
``recover_service`` rebuilds it from the WAL. A pipelined deployment has a
second failure mode: one shard *worker* of the process pool dies while the
driver is alive and mid-stream. Passing ``replication=`` to a WAL-enabled
service closes that gap with a **warm standby**: a base cut of every shard,
retaken at every checkpoint, plus the committed log beyond it, promoted automatically when a worker crashes or
stalls. Because every batch is committed to the log *before* it is
dispatched, promotion rebuilds the base and replays the committed tail
beyond it once — every batch since the last checkpoint, so the checkpoint
cadence bounds the replay. No batch is lost, none is applied twice,
and the post-failover trajectory is bit-identical to a run that never
crashed, RNG state included.

This example streams sensor readings through a process-backed replicated
service, SIGKILLs one of the pool's worker processes mid-stream, and lets
the service absorb it: the failure surfaces on the next dispatch, the
standby is promoted, a fresh pool respawns, and the stream finishes on the
same trajectory as an uninterrupted serial reference run.

Run with:

    PYTHONPATH=src python examples/replicated_service.py
"""

from __future__ import annotations

import os
import signal
import tempfile
import time

import numpy as np

from repro.core import RTBS
from repro.service import ReplicationConfig, SamplerService

NUM_SHARDS = 4
CAPACITY_PER_SHARD = 250
LAMBDA = 0.05
BATCH_SIZE = 2_000
NUM_BATCHES = 40
CHECKPOINT_AFTER = 12
KILL_AFTER = 18


def make_sampler(rng: np.random.Generator) -> RTBS:
    """One bounded time-biased sampler per shard, on its own RNG stream."""
    return RTBS(n=CAPACITY_PER_SHARD, lambda_=LAMBDA, rng=rng)


def sensor_batches(count: int, start: int = 0) -> list[np.ndarray]:
    """Synthetic readings; the integer payload doubles as the sensor id."""
    return [
        np.arange(start + index * BATCH_SIZE, start + (index + 1) * BATCH_SIZE)
        for index in range(count)
    ]


def main() -> None:
    # Reference run: serial, never interrupted, no WAL. Every backend —
    # crashed or not — must land bit-identical to this trajectory.
    reference = SamplerService(make_sampler, num_shards=NUM_SHARDS, rng=42)
    reference.ingest(sensor_batches(NUM_BATCHES))

    with tempfile.TemporaryDirectory() as scratch:
        service = SamplerService(
            make_sampler,
            num_shards=NUM_SHARDS,
            rng=42,
            executor="process:2",
            wal_dir=f"{scratch}/wal",
            # The injected clock arms ack-staleness detection; the liveness
            # half (dead child PIDs) needs no clock at all. Modules under
            # repro.* never read ambient time — the caller supplies it.
            replication=ReplicationConfig(clock=time.monotonic, ack_timeout=30.0),
        )

        service.ingest(sensor_batches(CHECKPOINT_AFTER))
        # The checkpoint starts a fresh log and moves the standby's base up
        # to its own cut: a promotion from here replays only what follows.
        service.checkpoint()
        service.ingest(
            sensor_batches(
                KILL_AFTER - CHECKPOINT_AFTER, start=CHECKPOINT_AFTER * BATCH_SIZE
            )
        )
        report = service.check_health()
        replication = service.stats()["durability"]["replication"]
        print(
            f"before the kill: batches={service.batches_seen}, "
            f"workers={report['workers']}, failed_over={report['failed_over']}, "
            f"standby_lag={replication['standby_lag_batches']}"
        )

        # Murder one primary shard worker, pipeline still open. A real
        # deployment meets this as an OOM kill or a node reboot.
        os.kill(report["worker_pids"][0], signal.SIGKILL)

        # The next health probe notices and promotes the standby — exactly
        # what a supervisor loop would do between batches. (Ingesting
        # without probing works too: the failure detector runs after every
        # dispatched window, and a write to the dead worker surfaces as a
        # crash that triggers the same promotion.)
        while not service.check_health()["failed_over"]:
            time.sleep(0.01)  # SIGKILL is in flight; the probe is passive

        # Keep streaming as if nothing happened: the standby was promoted
        # (its base rebuilt, the committed tail beyond it replayed once)
        # and a fresh pool respawns lazily on the next dispatch.
        service.ingest(
            sensor_batches(NUM_BATCHES - KILL_AFTER, start=KILL_AFTER * BATCH_SIZE)
        )
        replication = service.stats()["durability"]["replication"]
        print(
            f"after the kill:  batches={service.batches_seen}, "
            f"failovers={replication['failovers']}, "
            f"standby_lag={replication['standby_lag_batches']}"
        )
        assert replication["failovers"] == 1

        if service.sample_items() == reference.sample_items():
            print(
                "\nPost-failover trajectory is bit-identical to the "
                f"uninterrupted run ({len(reference.sample_items())} sampled "
                "items match) — no batch lost, none applied twice."
            )
        else:  # pragma: no cover - the determinism contract forbids this
            raise SystemExit("post-failover sample diverged from the reference")
        service.close()


if __name__ == "__main__":
    main()
