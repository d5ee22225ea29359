"""Partitioned incoming batches for the distributed algorithms.

A :class:`DistributedBatch` represents the batch ``B_t`` as it arrives from a
streaming system: split into partitions, one or more per worker. Two flavours
are supported:

* **materialized** — real item payloads are stored per partition; used by the
  statistical-correctness tests and by small-scale examples;
* **virtual** — only partition sizes are stored and items are materialized
  lazily as ``(batch_id, partition, position)`` tuples when selected for
  insertion. This lets the performance experiments simulate batches of 10^7
  to 10^10 items without allocating them.

:class:`DistributedSampler` is the batch plumbing the distributed samplers
share: arrival times, list-to-batch coercion, the virtual/materialized mode
check and the per-batch runtime log.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.base import validate_batch_time
from repro.core.random_utils import ensure_rng
from repro.distributed.cluster import SimulatedCluster

__all__ = ["DistributedBatch", "DistributedSampler"]


class DistributedBatch:
    """The incoming batch ``B_t`` partitioned across workers."""

    def __init__(
        self,
        partition_sizes: Sequence[int],
        partitions: Sequence[Sequence[Any]] | None = None,
        batch_id: int = 0,
    ) -> None:
        sizes = [int(s) for s in partition_sizes]
        if any(s < 0 for s in sizes):
            raise ValueError("partition sizes must be non-negative")
        if partitions is not None:
            if len(partitions) != len(sizes):
                raise ValueError("partitions and partition_sizes disagree in length")
            for index, (partition, size) in enumerate(zip(partitions, sizes)):
                if len(partition) != size:
                    raise ValueError(
                        f"partition {index} holds {len(partition)} items, expected {size}"
                    )
        self.partition_sizes = sizes
        self.partitions = [list(p) for p in partitions] if partitions is not None else None
        self.batch_id = int(batch_id)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_items(
        cls, items: Sequence[Any], num_partitions: int, batch_id: int = 0
    ) -> "DistributedBatch":
        """Materialized batch: spread real items round-robin across partitions."""
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        partitions: list[list[Any]] = [[] for _ in range(num_partitions)]
        for index, item in enumerate(items):
            partitions[index % num_partitions].append(item)
        return cls([len(p) for p in partitions], partitions, batch_id=batch_id)

    @classmethod
    def virtual(cls, size: int, num_partitions: int, batch_id: int = 0) -> "DistributedBatch":
        """Virtual batch of ``size`` anonymous items spread evenly across partitions."""
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        base, remainder = divmod(size, num_partitions)
        sizes = [base + (1 if p < remainder else 0) for p in range(num_partitions)]
        return cls(sizes, None, batch_id=batch_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_materialized(self) -> bool:
        return self.partitions is not None

    @property
    def num_partitions(self) -> int:
        return len(self.partition_sizes)

    def __len__(self) -> int:
        return sum(self.partition_sizes)

    def worker_sizes(self, num_workers: int) -> list[int]:
        """Items per worker, partition ``p`` living on worker ``p % num_workers``."""
        per_worker = [0] * num_workers
        for partition, size in enumerate(self.partition_sizes):
            per_worker[partition % num_workers] += size
        return per_worker

    def item_at(self, partition: int, position: int) -> Any:
        """The item at a ``(partition, position)`` location (lazy for virtual batches)."""
        size = self.partition_sizes[partition]
        if not 0 <= position < size:
            raise IndexError(
                f"position {position} out of range for partition {partition} of size {size}"
            )
        if self.partitions is not None:
            return self.partitions[partition][position]
        return (self.batch_id, partition, position)

    def partition_items(self, partition: int) -> list[Any]:
        """All items of one partition (materializes virtual items lazily)."""
        if self.partitions is not None:
            return list(self.partitions[partition])
        return [
            (self.batch_id, partition, position)
            for position in range(self.partition_sizes[partition])
        ]

    def take(self, partition: int, positions: Sequence[int]) -> list[Any]:
        """The items at the given positions of one partition, in one pass."""
        if self.partitions is not None:
            bucket = self.partitions[partition]
            return [bucket[position] for position in positions]
        return [(self.batch_id, partition, position) for position in positions]

    def sample_positions(
        self,
        partition: int,
        count: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[int]:
        """Uniformly choose ``count`` distinct positions within one partition."""
        rng = ensure_rng(rng)
        size = self.partition_sizes[partition]
        count = min(count, size)
        if count == 0:
            return []
        return [int(i) for i in rng.choice(size, size=count, replace=False)]

    def all_items(self) -> list[Any]:
        """Every item in the batch (materializes virtual items)."""
        return [
            self.item_at(partition, position)
            for partition in range(self.num_partitions)
            for position in range(self.partition_sizes[partition])
        ]


class DistributedSampler:
    """Batch plumbing of a distributed sampler on a simulated cluster.

    A subclass implements :meth:`_process_batch`, which runs one batch's
    priced stages on :attr:`cluster`; this class validates arrival times,
    turns plain item lists into :class:`DistributedBatch` objects, keeps a run
    from mixing virtual and materialized batches, and records each batch's
    simulated runtime in :attr:`batch_runtimes`.
    """

    def __init__(self, cluster: SimulatedCluster) -> None:
        self.cluster = cluster
        self.batch_runtimes: list[float] = []
        # Virtual mode: batches carry no payloads; only counts are tracked.
        self._virtual_mode = False
        self._batches_seen = 0
        self._time = 0.0

    @property
    def time(self) -> float:
        """Arrival time of the most recently processed batch."""
        return self._time

    def process_stream(
        self,
        batches: Iterable[DistributedBatch | Sequence[Any]],
        times: Iterable[float] | None = None,
    ) -> list[float]:
        """Ingest a sequence of batches; return the per-batch simulated runtimes.

        Convenience counterpart of
        :meth:`repro.core.base.Sampler.process_stream`; each batch is
        processed exactly as by :meth:`process_batch`, with ``times``
        consumed in lockstep when given.
        """
        if times is None:
            return [self.process_batch(batch) for batch in batches]
        time_iter = iter(times)
        runtimes = []
        for batch in batches:
            try:
                time = next(time_iter)
            except StopIteration:
                raise ValueError(
                    "times iterable exhausted before batches; provide one "
                    "arrival time per batch or omit times entirely"
                ) from None
            runtimes.append(self.process_batch(batch, time=time))
        return runtimes

    def process_batch(
        self, batch: DistributedBatch | Sequence[Any], time: float | None = None
    ) -> float:
        """Process one batch; return the simulated runtime of this batch (seconds).

        ``time`` is the batch's arrival time, as in
        :meth:`repro.core.base.Sampler.process_batch`: it defaults to the
        previous time plus one and must be strictly increasing, and decay
        spans the true gap since the previous batch (the first batch's gap
        is its distance from time 0). Virtual and materialized batches may
        not be mixed within one run.
        """
        if not isinstance(batch, DistributedBatch):
            batch = DistributedBatch.from_items(
                list(batch), self.cluster.num_workers, batch_id=self._batches_seen + 1
            )
        if self._batches_seen == 0:
            self._virtual_mode = not batch.is_materialized
        elif self._virtual_mode != (not batch.is_materialized):
            raise ValueError("cannot mix virtual and materialized batches in one run")
        self._time, elapsed = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        self._batches_seen += 1
        start_elapsed = self.cluster.elapsed
        self._process_batch(batch, elapsed)
        runtime = self.cluster.elapsed - start_elapsed
        self.batch_runtimes.append(runtime)
        return runtime

    def _process_batch(self, batch: DistributedBatch, elapsed: float) -> None:
        """Run one batch, arriving ``elapsed`` after the previous one, on the cluster."""
        raise NotImplementedError
