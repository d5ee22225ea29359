"""D-T-TBS — embarrassingly parallel distributed T-TBS (Section 5.1).

Each worker independently downsamples its local reservoir partition with
retention probability ``p = e^{-lambda}``, downsamples its local partition of
the incoming batch with acceptance probability ``q = n (1 - e^{-lambda}) / b``,
and unions the results. No master coordination is required beyond launching
the single stage, which is why D-T-TBS is much faster than any D-R-TBS
variant in Figure 7 — at the price of only probabilistic sample-size control
and the requirement that the mean batch size be known in advance.

Worker reservoirs are array-backed: each partition is a 1-D NumPy array and
the retention/acceptance steps are single Bernoulli mask draws over the whole
partition — the same vectorized thinning as the serial
:class:`repro.core.ttbs.TTBS`. Since the engine refactor each worker update
is one partition task submitted through the cluster's ``map_partitions``
(:mod:`repro.engine`), which also charges the single priced stage. Workers
own private RNG streams and disjoint partitions, so each task depends only
on its own worker's state.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.arrays import as_item_array, concat_items, empty_item_array
from repro.core.random_utils import binomial, ensure_rng, spawn_rngs
from repro.distributed.batches import DistributedBatch, DistributedSampler
from repro.distributed.cluster import SimulatedCluster

__all__ = ["DistributedTTBS"]


class DistributedTTBS(DistributedSampler):
    """Distributed targeted-size time-biased sampler over a simulated cluster."""

    def __init__(
        self,
        n: int,
        lambda_: float,
        mean_batch_size: float,
        cluster: SimulatedCluster,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"target sample size must be positive, got {n}")
        if lambda_ < 0:
            raise ValueError(f"decay rate must be non-negative, got {lambda_}")
        if lambda_ == 0:
            # Same degenerate configuration as serial T-TBS: q = 0, nothing
            # is ever accepted.
            raise ValueError(
                "lambda_ = 0 gives D-T-TBS an acceptance probability of 0 (it "
                "would never add any item); use D-R-TBS with lambda_=0 for "
                "undecayed bounded sampling"
            )
        if mean_batch_size <= 0:
            raise ValueError(f"mean batch size must be positive, got {mean_batch_size}")
        super().__init__(cluster)
        self.n = int(n)
        self.lambda_ = float(lambda_)
        self.mean_batch_size = float(mean_batch_size)
        self.retention_probability = math.exp(-lambda_)
        self.acceptance_probability = min(
            1.0, n * (1.0 - self.retention_probability) / mean_batch_size
        )
        self._rng = ensure_rng(rng)
        self._worker_rngs = spawn_rngs(self._rng, cluster.num_workers)
        self._partitions: list[np.ndarray] = [
            empty_item_array() for _ in range(cluster.num_workers)
        ]
        self._virtual_counts: list[int] = [0] * cluster.num_workers

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sample_items(self) -> list[Any]:
        """All sample items across workers (materialized mode only)."""
        if self._virtual_mode:
            raise RuntimeError("sample items are not materialized in virtual mode")
        return [item for partition in self._partitions for item in partition.tolist()]

    def sample_size(self) -> int:
        """Current total sample size across all workers."""
        if self._virtual_mode:
            return sum(self._virtual_counts)
        return sum(len(p) for p in self._partitions)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def _process_batch(self, batch: DistributedBatch, elapsed: float) -> None:
        """One batch as a single priced stage of per-worker thinning.

        Retention over a gap is ``e^{-lambda * elapsed}`` — the same
        per-item survival probability the single-node
        :class:`~repro.core.ttbs.TTBS` applies — while the acceptance
        probability ``q`` stays the per-arrival constant of Algorithm 1.
        """
        retention = math.exp(-self.lambda_ * elapsed)
        model = self.cluster.cost_model
        per_worker_batch = batch.worker_sizes(self.cluster.num_workers)
        worker_times = []
        for worker in range(self.cluster.num_workers):
            if self._virtual_mode:
                reservoir_size = self._virtual_counts[worker]
            else:
                reservoir_size = len(self._partitions[worker])
            worker_times.append(model.local(reservoir_size + per_worker_batch[worker]))
        # One engine task per worker: each task thins its own partition
        # with its own RNG stream. The same call prices the single D-T-TBS
        # stage.
        self.cluster.map_partitions(
            lambda worker: self._update_worker(worker, batch, retention),
            range(self.cluster.num_workers),
            description="local downsample and union",
            costs=worker_times,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _update_worker(self, worker: int, batch: DistributedBatch, retention: float) -> None:
        rng = self._worker_rngs[worker]
        batch_partitions = [
            partition
            for partition in range(batch.num_partitions)
            if partition % self.cluster.num_workers == worker
        ]
        if self._virtual_mode:
            kept = binomial(rng, self._virtual_counts[worker], retention)
            accepted = sum(
                binomial(rng, batch.partition_sizes[p], self.acceptance_probability)
                for p in batch_partitions
            )
            self._virtual_counts[worker] = kept + accepted
            return
        current = self._partitions[worker]
        if len(current) and retention < 1.0:
            current = current[rng.random(len(current)) < retention]
        pieces = [current]
        for partition in batch_partitions:
            # Draw the acceptance count first so only the accepted items are
            # ever materialized — O(accepted), not O(partition size).
            accepted = binomial(
                rng, batch.partition_sizes[partition], self.acceptance_probability
            )
            if accepted:
                positions = batch.sample_positions(partition, accepted, rng)
                pieces.append(as_item_array(batch.take(partition, positions)))
        self._partitions[worker] = concat_items(*pieces)
