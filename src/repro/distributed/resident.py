"""Resident worker-side state for the distributed algorithms.

When a :class:`~repro.distributed.cluster.SimulatedCluster` runs on a
transport-capable backend (the persistent-worker
:class:`~repro.engine.executors.ProcessPoolExecutor`), the data the paper's
Section 5 algorithms distribute — D-T-TBS's per-worker sample partitions and
D-R-TBS's reservoir partitions — lives *resident* in the worker processes,
exactly like the sampler service's shards: attached once, mutated in place
by pipelined apply calls, pulled back only when the driver needs the items
(final samples, promote-to-partial). Per-stage payloads shrink from "the
whole partition, pickled, every batch" to "this batch's plan".

Everything here is module-level so it pickles by reference into the
workers. Two kinds of resident objects:

* :class:`TTBSWorkerReservoir` — one D-T-TBS worker's sample partition plus
  its private RNG stream. :meth:`update` replays the exact draw sequence of
  the in-process worker update (thinning mask, per-piece binomial, position
  choice), so the sampled trajectory is bit-identical to the serial
  backend.
* :class:`ReservoirPartitionBucket` — one D-R-TBS reservoir partition. The
  master still *plans* every stochastic decision driver-side (the plan/apply
  split of the engine refactor); the bucket only executes the RNG-free data
  movement, which is why residency cannot change a single master draw.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.arrays import as_item_array, concat_items
from repro.core.random_utils import binomial, generator_from_state, generator_state
from repro.distributed.reservoirs import (
    CoPartitionedReservoir,
    KeyValueStoreReservoir,
)

__all__ = [
    "TTBSWorkerReservoir",
    "ReservoirPartitionBucket",
    "ResidentCoPartitionedReservoir",
    "ResidentKeyValueStoreReservoir",
    "restore_ttbs_worker",
    "snapshot_ttbs_worker",
    "ttbs_update",
    "restore_bucket",
    "snapshot_bucket",
    "bucket_apply_inserts",
    "bucket_apply_deletes",
]


# ----------------------------------------------------------------------
# D-T-TBS: resident worker partitions
# ----------------------------------------------------------------------
class TTBSWorkerReservoir:
    """One D-T-TBS worker's sample partition, resident in a worker process."""

    def __init__(self, items: np.ndarray, rng: np.random.Generator, acceptance: float) -> None:
        self.items = items
        self.rng = rng
        self.acceptance = float(acceptance)

    def update(self, retention: float, pieces: Sequence[tuple[int, Sequence[Any]]]) -> int:
        """One batch update; returns the new partition size.

        Replays :meth:`DistributedTTBS._update_worker` draw for draw: thin
        the current partition with one Bernoulli mask, then for each of this
        worker's batch pieces draw the acceptance count first and
        materialize only the accepted positions.
        """
        current = self.items
        if len(current) and retention < 1.0:
            current = current[self.rng.random(len(current)) < retention]
        collected = [current]
        for size, piece_items in pieces:
            accepted = binomial(self.rng, size, self.acceptance)
            if accepted:
                accepted = min(accepted, size)
                positions = [
                    int(position)
                    for position in self.rng.choice(size, size=accepted, replace=False)
                ]
                collected.append(
                    as_item_array([piece_items[position] for position in positions])
                )
        self.items = concat_items(*collected)
        return len(self.items)


def restore_ttbs_worker(state: dict[str, Any]) -> TTBSWorkerReservoir:
    return TTBSWorkerReservoir(
        items=as_item_array(state["items"]),
        rng=generator_from_state(state["rng_state"]),
        acceptance=state["acceptance"],
    )


def snapshot_ttbs_worker(reservoir: TTBSWorkerReservoir) -> dict[str, Any]:
    return {
        "items": reservoir.items.tolist(),
        "rng_state": generator_state(reservoir.rng),
        "acceptance": reservoir.acceptance,
    }


def ttbs_update(
    residents: dict[Any, Any],
    key: Any,
    retention: float,
    pieces: Sequence[tuple[int, Sequence[Any]]],
) -> int:
    """Transport apply hook: run one resident D-T-TBS worker update."""
    return residents[key].update(retention, pieces)


# ----------------------------------------------------------------------
# D-R-TBS: resident reservoir partition buckets
# ----------------------------------------------------------------------
class ReservoirPartitionBucket:
    """One D-R-TBS reservoir partition's bucket, resident in a worker."""

    def __init__(self, items: list[Any]) -> None:
        self.items = list(items)

    def apply_inserts(self, pieces: Sequence[Sequence[Any]]) -> None:
        for piece in pieces:
            self.items.extend(piece)

    def apply_deletes(self, indices: Sequence[int]) -> list[Any]:
        bucket = self.items
        removed = [bucket[index] for index in indices]
        for index in indices:
            # Swap-with-last removal, identical to the driver-side bucket.
            bucket[index] = bucket[-1]
            bucket.pop()
        return removed


def restore_bucket(state: list[Any]) -> ReservoirPartitionBucket:
    return ReservoirPartitionBucket(state)


def snapshot_bucket(bucket: ReservoirPartitionBucket) -> list[Any]:
    return list(bucket.items)


def bucket_apply_inserts(
    residents: dict[Any, Any], key: Any, pieces: Sequence[Sequence[Any]]
) -> None:
    residents[key].apply_inserts(pieces)
    return None


def bucket_apply_deletes(
    residents: dict[Any, Any], key: Any, indices: Sequence[int]
) -> list[Any]:
    return residents[key].apply_deletes(indices)


class _ResidentReservoirMixin:
    """Reservoir whose partition buckets live resident in transport workers.

    The driver keeps only the per-partition *sizes* (enough for every plan
    draw — victim indices are chosen against a size, never against item
    identity) and mirrors them as apply operations are submitted. Because
    the transport pipe is FIFO per worker, a bucket's size when an operation
    executes always equals the driver's mirror when the operation was
    planned, so planned indices are always valid.

    Applies are pipelined (fire-and-forget): the two D-R-TBS paths that need
    removed items back — promote-to-partial and the classic one-shot
    ``delete_per_partition``/``delete_from_partition`` entry points — run
    their deletes synchronously instead.
    """

    is_resident = True

    def _init_resident(self, pool: Any, reservoir_id: int) -> None:
        self._pool = pool
        self._reservoir_id = int(reservoir_id)
        self._sizes = [0] * self.num_partitions
        for partition in range(self.num_partitions):
            pool.attach(
                self._bucket_key(partition),
                restore_bucket,
                [],
                worker=partition % pool.num_workers,
            )

    def _bucket_key(self, partition: int) -> tuple:
        return ("rsv", self._reservoir_id, partition)

    def _bucket_worker(self, partition: int) -> int:
        return partition % self._pool.num_workers

    # -- queries -------------------------------------------------------
    def partition_sizes(self) -> list[int]:
        return list(self._sizes)

    def total_items(self) -> int:
        return sum(self._sizes)

    def all_items(self) -> list[Any]:
        self._pool.drain()
        items: list[Any] = []
        for partition in range(self.num_partitions):
            items.extend(self._pool.snapshot(self._bucket_key(partition), snapshot_bucket))
        return items

    # -- plan phase (driver-side, sizes only) --------------------------
    def _population(self, partition: int) -> int:
        # plan_deletes (inherited — single-sourced draw order) plans
        # against the driver-side size mirror instead of a local bucket.
        return self._sizes[partition]

    # -- apply phase (shipped to the resident buckets) -----------------
    def apply_inserts(self, partition: int, pieces: Sequence[Sequence[Any]]) -> None:
        added = sum(len(piece) for piece in pieces)
        if not added:
            return
        self._sizes[partition] += added
        self._pool.apply(
            self._bucket_worker(partition),
            bucket_apply_inserts,
            kwargs={
                "key": self._bucket_key(partition),
                "pieces": [list(piece) for piece in pieces],
            },
        )

    def apply_deletes(self, partition: int, indices: Sequence[int]) -> list[Any]:
        """Pipelined delete; the removed items are discarded worker-side."""
        return self._delete(partition, indices, sync=False)

    def _delete(self, partition: int, indices: Sequence[int], sync: bool) -> list[Any]:
        if not indices:
            return []
        self._sizes[partition] -= len(indices)
        result = self._pool.apply(
            self._bucket_worker(partition),
            bucket_apply_deletes,
            kwargs={"key": self._bucket_key(partition), "indices": list(indices)},
            sync=sync,
        )
        return result if sync else []

    # -- one-shot entry points needing removed items back --------------
    def delete_per_partition(
        self, counts: Sequence[int], rng: np.random.Generator | int | None = None
    ) -> list[Any]:
        plans = self.plan_deletes(counts, rng)
        removed: list[Any] = []
        for partition, indices in enumerate(plans):
            removed.extend(self._delete(partition, indices, sync=True))
        return removed

    def delete_from_partition(
        self, partition: int, count: int, rng: np.random.Generator | int | None = None
    ) -> list[Any]:
        counts = [0] * self.num_partitions
        counts[partition] = count
        indices = self.plan_deletes(counts, rng)[partition]
        return self._delete(partition, indices, sync=True)

    # -- lifecycle -----------------------------------------------------
    def discard(self) -> None:
        """Drop every resident bucket (a cleared sample never comes back)."""
        for partition in range(self.num_partitions):
            self._pool.detach(self._bucket_key(partition), None)


class ResidentCoPartitionedReservoir(_ResidentReservoirMixin, CoPartitionedReservoir):
    """Co-partitioned reservoir with transport-resident buckets."""

    def __init__(self, num_partitions: int, pool: Any, reservoir_id: int) -> None:
        CoPartitionedReservoir.__init__(self, num_partitions)
        self._init_resident(pool, reservoir_id)


class ResidentKeyValueStoreReservoir(_ResidentReservoirMixin, KeyValueStoreReservoir):
    """Key-value-store reservoir with transport-resident buckets."""

    def __init__(
        self,
        num_partitions: int,
        pool: Any,
        reservoir_id: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        KeyValueStoreReservoir.__init__(self, num_partitions, rng=rng)
        self._init_resident(pool, reservoir_id)
