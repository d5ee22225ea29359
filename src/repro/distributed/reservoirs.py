"""Distributed reservoir representations (Figure 5 of the paper).

Two implementations of the reservoir data structure are provided, mirroring
the design choices studied in Section 5.2:

* :class:`KeyValueStoreReservoir` — items live in an external distributed
  key-value store (Memcached/Redis in the paper), hash-partitioned by slot
  number. Inserts and deletes are remote put/delete operations, and insert
  items generally travel across the network because the store's partitions do
  not line up with the incoming batch's partitions.
* :class:`CoPartitionedReservoir` — a reservoir partition is co-located with
  each incoming-batch partition, so inserts and deletes are purely local.

Every mutation is split into the two phases the engine executes separately:

* **plan** (driver-side, draws all randomness) — victim indices for deletes,
  destination partitions for inserts. Plans are drawn in partition order
  from the caller's generator, so the draw sequence does not depend on the
  apply phase. Telemetry counters are charged at plan time.
* **apply** (partition-local, RNG-free) — the pure data movement. Apply
  calls for different partitions touch disjoint buckets, so their order
  does not matter; given the same plan, the reservoir ends in the same
  state.

The classic one-shot entry points (:meth:`~DistributedReservoir.insert`,
:meth:`~DistributedReservoir.delete_per_partition`) are retained as
plan-then-apply compositions with the exact same draw order as before the
split.

Both classes track operation counters (key-value round trips, items written
across the network, local item touches) that
:class:`~repro.distributed.drtbs.DistributedRTBS` converts into simulated
time via the cost model. The counters are *not* the data structure's state —
they are telemetry, reset by the caller per stage.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.random_utils import ensure_rng
from repro.engine.shards import group_by_destination

__all__ = ["DistributedReservoir", "CoPartitionedReservoir", "KeyValueStoreReservoir"]


class DistributedReservoir:
    """Base class: a reservoir of full items spread across ``num_partitions``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = int(num_partitions)
        self._partitions: list[list[Any]] = [[] for _ in range(num_partitions)]
        # Telemetry counters, reset by the caller.
        self.kv_operations = 0
        self.network_items = 0
        self.local_items = 0

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the per-stage operation counters."""
        self.kv_operations = 0
        self.network_items = 0
        self.local_items = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def partition_sizes(self) -> list[int]:
        """Number of items currently stored in each partition."""
        return [len(p) for p in self._partitions]

    def total_items(self) -> int:
        """Total number of items in the reservoir."""
        return sum(len(p) for p in self._partitions)

    def all_items(self) -> list[Any]:
        """Every stored item (order is partition-major and not meaningful)."""
        return [item for partition in self._partitions for item in partition]

    def __len__(self) -> int:
        return self.total_items()

    # ------------------------------------------------------------------
    # plan phase (driver-side: all randomness, all telemetry)
    # ------------------------------------------------------------------
    def plan_deletes(
        self, counts: Sequence[int], rng: np.random.Generator | int | None = None
    ) -> list[list[int]]:
        """Choose delete victims for every partition; return index lists.

        Draws happen in partition order from ``rng`` — the identical
        sequence the pre-split ``delete_per_partition`` produced — and each
        partition's indices come back sorted descending, ready for
        swap-with-last removal. Telemetry for the planned deletes is charged
        here.
        """
        rng = ensure_rng(rng)
        plans: list[list[int]] = []
        for partition, count in enumerate(counts):
            population = len(self._partitions[partition])
            count = min(count, population)
            if count == 0:
                plans.append([])
                continue
            indices = sorted(
                (int(i) for i in rng.choice(population, size=count, replace=False)),
                reverse=True,
            )
            self._charge_deletes(len(indices))
            plans.append(indices)
        return plans

    def plan_insert(self, count: int, target_partition: int) -> list[int]:
        """Choose the destination partition of each of ``count`` insert items.

        Telemetry for the planned inserts is charged here. The co-partitioned
        reservoir places every item in the target (co-located) partition; the
        key-value store draws a hash destination per item.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # apply phase (partition-local, RNG-free data movement)
    # ------------------------------------------------------------------
    def apply_deletes(self, partition: int, indices: Sequence[int]) -> list[Any]:
        """Remove the planned ``indices`` (descending) from one partition.

        Pure data movement: no randomness, no telemetry, touches only the
        given partition's bucket — safe to run concurrently with apply
        calls for other partitions.
        """
        bucket = self._partitions[partition]
        removed = [bucket[index] for index in indices]
        for index in indices:
            # Swap-with-last removal keeps deletion O(1) per item.
            bucket[index] = bucket[-1]
            bucket.pop()
        return removed

    def apply_inserts(self, partition: int, pieces: Sequence[Sequence[Any]]) -> None:
        """Append the planned ``pieces`` (in order) to one partition's bucket."""
        bucket = self._partitions[partition]
        for piece in pieces:
            bucket.extend(piece)

    # ------------------------------------------------------------------
    # one-shot entry points (plan + apply, exact legacy draw order)
    # ------------------------------------------------------------------
    def insert(self, items: Sequence[Any], source_partition: int) -> None:
        """Insert items originating from the given incoming-batch partition."""
        if not 0 <= source_partition < self.num_partitions:
            raise IndexError(f"no partition {source_partition}")
        destinations = self.plan_insert(len(items), source_partition)
        for destination, piece in group_by_destination(items, destinations).items():
            self.apply_inserts(destination, [piece])

    def delete_from_partition(
        self, partition: int, count: int, rng: np.random.Generator | int | None = None
    ) -> list[Any]:
        """Delete ``count`` uniformly random items from one partition; return them."""
        counts = [0] * self.num_partitions
        counts[partition] = count
        indices = self.plan_deletes(counts, rng)[partition]
        return self.apply_deletes(partition, indices)

    def delete_per_partition(
        self, counts: Sequence[int], rng: np.random.Generator | int | None = None
    ) -> list[Any]:
        """Delete the given number of random items from each partition."""
        plans = self.plan_deletes(counts, rng)
        removed: list[Any] = []
        for partition, indices in enumerate(plans):
            removed.extend(self.apply_deletes(partition, indices))
        return removed

    # ------------------------------------------------------------------
    # telemetry hooks
    # ------------------------------------------------------------------
    def _charge_deletes(self, count: int) -> None:
        raise NotImplementedError


class CoPartitionedReservoir(DistributedReservoir):
    """Reservoir partitions co-located with incoming-batch partitions (Figure 5(b))."""

    def plan_insert(self, count: int, target_partition: int) -> list[int]:
        if not 0 <= target_partition < self.num_partitions:
            raise IndexError(f"no partition {target_partition}")
        self.local_items += count
        return [target_partition] * count

    def _charge_deletes(self, count: int) -> None:
        self.local_items += count


class KeyValueStoreReservoir(DistributedReservoir):
    """Reservoir stored in an external hash-partitioned key-value store (Figure 5(a)).

    Every insert is a remote ``put`` whose destination partition is chosen by
    the store's hash partitioner (uniformly at random here), so insert items
    cross the network regardless of where they originated. Every delete is a
    remote ``delete`` round trip.
    """

    def __init__(self, num_partitions: int, rng: np.random.Generator | int | None = None) -> None:
        super().__init__(num_partitions)
        self._placement_rng = ensure_rng(rng)

    def plan_insert(self, count: int, target_partition: int) -> list[int]:
        destinations = []
        for _ in range(count):
            destination = int(self._placement_rng.integers(self.num_partitions))
            destinations.append(destination)
            self.kv_operations += 1
            if destination != target_partition:
                self.network_items += 1
        return destinations

    def _charge_deletes(self, count: int) -> None:
        self.kv_operations += count
