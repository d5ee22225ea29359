"""D-R-TBS — distributed reservoir-based time-biased sampling (Section 5).

The distributed algorithm keeps the *statistical* decisions of R-TBS at the
master (total weight ``W``, sample weight ``C``, saturation state, the single
partial item of the latent sample) while distributing the data-heavy work —
scanning the incoming batch, selecting insert/delete victims, and applying
updates to the partitioned reservoir — across the workers of a
:class:`~repro.distributed.cluster.SimulatedCluster`.

Four implementation variants from Figure 7 are supported, combining

* the reservoir representation — external key-value store
  (:class:`~repro.distributed.reservoirs.KeyValueStoreReservoir`) vs
  co-partitioned (:class:`~repro.distributed.reservoirs.CoPartitionedReservoir`);
* the decision strategy — *centralized* (the master generates one slot number
  per insert/delete) vs *distributed* (the master only draws per-worker
  counts from a multivariate hypergeometric distribution and workers choose
  victims locally);
* the join strategy used to retrieve insert items under centralized
  decisions — standard *repartition* join (shuffles the whole batch) vs the
  customized co-located join of Figure 6(a).

The master's decisions are core R-TBS's: :func:`~repro.core.rtbs.rtbs_step`
steps ``(W, C)`` and picks Algorithm 2's branch, and
:func:`~repro.core.latent.downsample_plan` makes Algorithm 3's decision
(how many full items go, whether one is promoted to the partial slot), so
the master's ``W`` and ``C`` follow the single-node
:class:`~repro.core.rtbs.RTBS` trajectory exactly. Only the item movement
is distributed.

Batches may be materialized (real items; used by correctness tests) or
virtual (counts only; used by the Figure 7-9 performance experiments at
cluster scale). In virtual mode the reservoir holds ``floor(C)`` full items
by definition. Cost accounting is identical in both modes because it is
driven by operation counts.

Execution is structured as the engine's plan/apply composition
(:mod:`repro.engine`): the master *plans* every stochastic decision —
insert/delete counts, victim indices, key-value destinations — drawing from
its RNG in a fixed order, then ships the RNG-free *apply* work (the actual
item movement on the partitioned reservoir) through the cluster's
``map_partitions`` and collects removed items with ``reduce_merge``. The
cluster prices each stage with the cost model; applies for different
partitions touch disjoint buckets, so they need no ordering between them.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Sequence

import numpy as np

from repro.core.latent import _floor, _frac, downsample_plan
from repro.core.random_utils import ensure_rng, multivariate_hypergeometric
from repro.core.rtbs import SATURATED, rtbs_step
from repro.distributed.batches import DistributedBatch, DistributedSampler
from repro.distributed.cluster import SimulatedCluster
from repro.engine.shards import group_by_destination, merge_samples
from repro.distributed.reservoirs import (
    CoPartitionedReservoir,
    DistributedReservoir,
    KeyValueStoreReservoir,
)

__all__ = ["ReservoirBackend", "DecisionStrategy", "JoinStrategy", "DistributedRTBS"]


class ReservoirBackend(str, Enum):
    """How the distributed reservoir is stored (Figure 5)."""

    KEY_VALUE = "kvstore"
    CO_PARTITIONED = "copartitioned"


class DecisionStrategy(str, Enum):
    """Who chooses the individual items to insert and delete (Section 5.3)."""

    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"


class JoinStrategy(str, Enum):
    """How insert items are retrieved from the batch under centralized decisions."""

    REPARTITION = "repartition"
    CO_LOCATED = "colocated"


class DistributedRTBS(DistributedSampler):
    """Distributed R-TBS over a simulated cluster.

    Parameters
    ----------
    n:
        Maximum sample size.
    lambda_:
        Exponential decay rate per batch-time unit.
    cluster:
        The simulated cluster providing workers and the cost model.
    reservoir:
        ``"copartitioned"`` (default) or ``"kvstore"``.
    decisions:
        ``"distributed"`` (default) or ``"centralized"``.
    join:
        ``"colocated"`` (default) or ``"repartition"``; only meaningful with
        centralized decisions (distributed decisions never shuffle the batch).
    """

    def __init__(
        self,
        n: int,
        lambda_: float,
        cluster: SimulatedCluster,
        reservoir: ReservoirBackend | str = ReservoirBackend.CO_PARTITIONED,
        decisions: DecisionStrategy | str = DecisionStrategy.DISTRIBUTED,
        join: JoinStrategy | str = JoinStrategy.CO_LOCATED,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"maximum sample size must be positive, got {n}")
        if lambda_ < 0:
            raise ValueError(f"decay rate must be non-negative, got {lambda_}")
        super().__init__(cluster)
        self.n = int(n)
        self.lambda_ = float(lambda_)
        self.reservoir_backend = ReservoirBackend(reservoir)
        self.decisions = DecisionStrategy(decisions)
        self.join = JoinStrategy(join)
        if (
            self.decisions is DecisionStrategy.DISTRIBUTED
            and self.reservoir_backend is ReservoirBackend.KEY_VALUE
        ):
            raise ValueError(
                "distributed decisions require the co-partitioned reservoir; "
                "the key-value store needs centrally generated slot numbers (Section 5.3)"
            )
        self._rng = ensure_rng(rng)
        self._reservoir = self._make_reservoir()
        self._partial_item: Any | None = None
        self._total_weight = 0.0
        self._sample_weight = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Total decayed weight ``W_t`` of all items seen so far."""
        return self._total_weight

    @property
    def sample_weight(self) -> float:
        """Latent sample weight ``C_t = min(n, W_t)``."""
        return self._sample_weight

    @property
    def is_saturated(self) -> bool:
        return self._total_weight >= self.n

    def full_item_count(self) -> int:
        """Number of full items currently in the distributed reservoir."""
        if self._virtual_mode:
            return _floor(self._sample_weight)
        return self._reservoir.total_items()

    def sample_items(self) -> list[Any]:
        """Full items plus the partial item if present (materialized mode only)."""
        if self._virtual_mode:
            raise RuntimeError("sample items are not materialized in virtual mode")
        items = self._reservoir.all_items()
        if self._partial_item is not None:
            items.append(self._partial_item)
        return items

    def realize_sample(self) -> list[Any]:
        """Draw a realized sample: full items plus the partial item w.p. ``frac(C)``."""
        if self._virtual_mode:
            raise RuntimeError("samples cannot be realized in virtual mode")
        items = self._reservoir.all_items()
        if self._partial_item is not None and self._rng.random() < _frac(self._sample_weight):
            items.append(self._partial_item)
        return items

    # ------------------------------------------------------------------
    # batch processing (Algorithm 2, distributed execution)
    # ------------------------------------------------------------------
    def _process_batch(self, batch: DistributedBatch, elapsed: float) -> None:
        """One batch of Algorithm 2: :func:`rtbs_step` sets ``W`` and picks the branch."""
        model = self.cluster.cost_model
        # Stage 1: ingest the batch and aggregate local sizes at the master.
        self.cluster.run_stage(
            "ingest batch & aggregate sizes",
            worker_times=[
                model.local(size) for size in batch.worker_sizes(self.cluster.num_workers)
            ],
        )
        step = rtbs_step(
            self._total_weight, self._sample_weight, self.n, self.lambda_, elapsed, len(batch)
        )
        self._total_weight = step.total_weight
        if step.thinned:
            accepted = step.acceptance(self._rng, len(batch), self.n)
            self._accept(batch, accepted, replace=step.branch == SATURATED)
        else:
            accepted = len(batch)
            if step.empties:
                self._clear_sample()
            else:
                self._downsample(step.target)
            self._insert_all(batch)
        if step.branch != SATURATED:
            # The accepted items entered as full items, replacing nothing.
            self._sample_weight += accepted
        settled = step.settled_weight(accepted, self.n)
        if settled < self._sample_weight:
            # Overshoot: one more round of Algorithm 3 brings C down to n.
            self._downsample(settled)

    def _downsample(self, target_weight: float) -> None:
        """Algorithm 3 on the distributed reservoir; the master holds the partial item."""
        plan = downsample_plan(self._rng, self._sample_weight, target_weight)
        if plan is None:
            return
        if plan.promote and plan.promote_first:
            self._promote(plan.swap)
        self._delete_uniform(plan.deletions)
        if plan.promote and not plan.promote_first:
            self._promote(plan.swap)
        if not plan.keep_partial:
            self._partial_item = None
        self._sample_weight = float(target_weight)
        self._charge_delete_stage(plan.deletions)

    # ------------------------------------------------------------------
    # data-movement primitives (materialized + virtual)
    #
    # Each primitive is a plan/apply composition: the master draws every
    # random decision here (in the exact order the pre-engine implementation
    # drew them), then the RNG-free applies run through the cluster's
    # ``map_partitions``, one task per reservoir partition.
    # ------------------------------------------------------------------
    def _plan_piece_inserts(
        self,
        planned: dict[int, list[list[Any]]],
        source_partition: int,
        items: Sequence[Any],
    ) -> None:
        """Plan destinations for one source partition's insert items (draws here)."""
        destinations = self._reservoir.plan_insert(
            len(items), self._target_partition(source_partition)
        )
        for destination, piece in group_by_destination(items, destinations).items():
            planned.setdefault(destination, []).append(piece)

    def _apply_insert_task(self, task: tuple[int, list[list[Any]]]) -> None:
        destination, pieces = task
        self._reservoir.apply_inserts(destination, pieces)

    def _apply_delete_task(self, task: tuple[int, list[int]]) -> list[Any]:
        partition, indices = task
        return self._reservoir.apply_deletes(partition, indices)

    def _engine_apply_inserts(self, planned: dict[int, list[list[Any]]]) -> None:
        tasks = sorted(planned.items())
        if not tasks:
            return
        self.cluster.map_partitions(
            self._apply_insert_task, tasks, description="apply planned inserts"
        )

    def _engine_apply_deletes(self, plans: list[list[int]]) -> list[Any]:
        tasks = [
            (partition, indices) for partition, indices in enumerate(plans) if indices
        ]
        if not tasks:
            return []
        removed_lists = self.cluster.map_partitions(
            self._apply_delete_task, tasks, description="apply planned deletes"
        )
        return self.cluster.reduce_merge(
            merge_samples, removed_lists, description="collect removed items"
        )

    def _insert_all(self, batch: DistributedBatch) -> None:
        """Insert every batch item as a full item (unsaturated arrival)."""
        if not self._virtual_mode:
            planned: dict[int, list[list[Any]]] = {}
            for partition in range(batch.num_partitions):
                self._plan_piece_inserts(
                    planned, partition, batch.partition_items(partition)
                )
            self._engine_apply_inserts(planned)
        self._charge_insert_stage(len(batch), full_batch=True)

    def _accept(self, batch: DistributedBatch, accepted: int, replace: bool) -> None:
        """Thinned arrival: ``accepted`` random batch items enter as full items.

        With ``replace`` (the classic saturated step) each one overwrites a
        uniformly random reservoir victim; otherwise they add to the
        reservoir.
        """
        victims = accepted if replace else 0
        if accepted > 0 and not self._virtual_mode:
            self._delete_uniform(victims)
            insert_counts = multivariate_hypergeometric(
                self._rng, batch.partition_sizes, accepted
            )
            planned: dict[int, list[list[Any]]] = {}
            for partition, count in enumerate(insert_counts):
                # Interleave position draws and destination planning per
                # partition — the exact draw order of the pre-engine
                # implementation (the KV placement stream is the master
                # RNG, so the interleaving is observable).
                positions = batch.sample_positions(partition, count, self._rng)
                self._plan_piece_inserts(
                    planned, partition, batch.take(partition, positions)
                )
            self._engine_apply_inserts(planned)
        self._charge_plan_stage(accepted, victims)
        self._charge_retrieve_stage(len(batch), accepted)
        self._charge_delete_stage(victims)
        self._charge_insert_stage(accepted, full_batch=False)

    def _delete_uniform(self, count: int) -> None:
        """Delete ``count`` uniformly random full items from the reservoir."""
        if count <= 0 or self._virtual_mode:
            return
        sizes = self._reservoir.partition_sizes()
        count = min(count, sum(sizes))
        counts = multivariate_hypergeometric(self._rng, sizes, count)
        self._engine_apply_deletes(self._reservoir.plan_deletes(counts, self._rng))

    def _promote(self, swap: bool) -> None:
        """``Swap1``/``Move1``: a uniformly random full item becomes the partial item.

        Under ``Swap1`` (``swap``) the old partial item rejoins the reservoir
        as a full item, in a uniformly random partition; under ``Move1`` it
        is dropped. A virtual reservoir stores no items, so there is nothing
        to move.
        """
        old_partial, self._partial_item = self._partial_item, None
        sizes = self._reservoir.partition_sizes()
        if sum(sizes):
            counts = multivariate_hypergeometric(self._rng, sizes, 1)
            self._partial_item = self._reservoir.delete_per_partition(counts, self._rng)[0]
        if swap and old_partial is not None:
            partition = int(self._rng.integers(self.cluster.num_workers))
            self._reservoir.insert([old_partial], partition)

    def _clear_sample(self) -> None:
        self._partial_item = None
        self._sample_weight = 0.0
        if not self._virtual_mode:
            self._reservoir = self._make_reservoir()

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    def _charge_plan_stage(self, inserts: int, deletes: int) -> None:
        """Master decides which items to insert/delete (Section 5.3)."""
        model = self.cluster.cost_model
        workers = self.cluster.num_workers
        if self.decisions is DecisionStrategy.CENTRALIZED:
            driver = model.driver_slots(inserts + deletes)
            worker = model.network((inserts + deletes) / workers)
        else:
            driver = model.driver_counts(2 * workers)
            worker = 0.0
        self.cluster.run_stage("plan inserts and deletes", worker_times=worker, driver_time=driver)

    def _charge_retrieve_stage(self, batch_size: int, inserts: int) -> None:
        """Retrieve the actual insert items from the incoming batch (Figure 6)."""
        model = self.cluster.cost_model
        workers = self.cluster.num_workers
        scan = model.local(batch_size / workers)
        if self.decisions is DecisionStrategy.CENTRALIZED:
            if self.join is JoinStrategy.REPARTITION:
                network = model.network((batch_size + inserts) / workers)
            else:
                network = model.network(inserts / workers)
        else:
            network = 0.0
        self.cluster.run_stage("retrieve insert items", worker_times=scan + network)

    def _charge_delete_stage(self, deletes: int) -> None:
        if deletes <= 0:
            return
        model = self.cluster.cost_model
        workers = self.cluster.num_workers
        # Victim selection touches the local reservoir partition regardless of
        # the storage backend; the backend determines how deletes are applied.
        scan = model.local(self.full_item_count() / workers)
        if self.reservoir_backend is ReservoirBackend.KEY_VALUE:
            worker = scan + model.kv(deletes / workers)
        else:
            worker = scan + model.local(deletes / workers)
        self.cluster.run_stage("apply deletes", worker_times=worker)

    def _charge_insert_stage(self, inserts: int, full_batch: bool) -> None:
        if inserts <= 0:
            return
        model = self.cluster.cost_model
        workers = self.cluster.num_workers
        if self.reservoir_backend is ReservoirBackend.KEY_VALUE:
            worker = model.kv(inserts / workers) + model.network(inserts / workers)
        else:
            worker = model.local(inserts / workers)
        description = "insert full batch" if full_batch else "apply inserts"
        self.cluster.run_stage(description, worker_times=worker)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _make_reservoir(self) -> DistributedReservoir:
        if self.reservoir_backend is ReservoirBackend.KEY_VALUE:
            return KeyValueStoreReservoir(self.cluster.num_workers, rng=self._rng)
        return CoPartitionedReservoir(self.cluster.num_workers)

    def _target_partition(self, batch_partition: int) -> int:
        """Reservoir partition receiving items from the given batch partition."""
        return batch_partition % self.cluster.num_workers
