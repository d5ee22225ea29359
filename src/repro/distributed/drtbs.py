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

Batches may be materialized (real items; used by correctness tests) or
virtual (counts only; used by the Figure 7-9 performance experiments at
cluster scale). Cost accounting is identical in both modes because it is
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

import math
from enum import Enum
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.base import validate_batch_time
from repro.core.random_utils import (
    ensure_rng,
    multivariate_hypergeometric,
    stochastic_round,
)
from repro.distributed.batches import DistributedBatch
from repro.distributed.cluster import SimulatedCluster
from repro.engine.shards import group_by_destination, merge_samples
from repro.distributed.reservoirs import (
    CoPartitionedReservoir,
    DistributedReservoir,
    KeyValueStoreReservoir,
)

__all__ = ["ReservoirBackend", "DecisionStrategy", "JoinStrategy", "DistributedRTBS"]

_WEIGHT_EPSILON = 1e-12


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


def _frac(x: float) -> float:
    f = x - math.floor(x)
    if f < 1e-9 or f > 1.0 - 1e-9:
        return 0.0
    return f


def _floor(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.floor(x))


class DistributedRTBS:
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
        self.n = int(n)
        self.lambda_ = float(lambda_)
        self.cluster = cluster
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
        # Virtual mode: batches carry no payloads; only counts are tracked.
        self._virtual_mode = False
        self._virtual_full_count = 0
        self._virtual_has_partial = False
        self.batch_runtimes: list[float] = []
        self._batches_seen = 0
        self._time = 0.0

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

    @property
    def time(self) -> float:
        """Arrival time of the most recently processed batch."""
        return self._time

    def full_item_count(self) -> int:
        """Number of full items currently in the distributed reservoir."""
        if self._virtual_mode:
            return self._virtual_full_count
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
    # batch processing
    # ------------------------------------------------------------------
    def process_stream(
        self,
        batches: Iterable[DistributedBatch | Sequence[Any]],
        times: Iterable[float] | None = None,
    ) -> list[float]:
        """Ingest a sequence of batches; return the per-batch simulated runtimes.

        Convenience counterpart of
        :meth:`repro.core.base.Sampler.process_stream` so the experiment
        harness can feed whole simulated streams through one uniform
        bulk-ingest interface; each batch is processed exactly as by
        :meth:`process_batch`, with ``times`` consumed in lockstep when
        given. Virtual and materialized batches are both accepted, but may
        not be mixed within one run.
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

        ``time`` is the batch's wall-clock arrival time, mirroring
        :meth:`repro.core.base.Sampler.process_batch`: it defaults to the
        previous time plus one, must be strictly increasing, and the decay
        applied to ``W_t`` is ``e^{-lambda * elapsed}`` for the true gap —
        not a hardcoded one-unit step — so a D-R-TBS trajectory with
        non-unit gaps matches the single-node :class:`~repro.core.rtbs.RTBS`
        bookkeeping exactly.
        """
        batch = self._coerce_batch(batch)
        if self._batches_seen == 0:
            self._virtual_mode = not batch.is_materialized
        elif self._virtual_mode != (not batch.is_materialized):
            raise ValueError("cannot mix virtual and materialized batches in one run")
        elapsed = self._advance_time(time)
        self._batches_seen += 1

        start_elapsed = self.cluster.elapsed
        model = self.cluster.cost_model
        batch_size = len(batch)
        workers = self.cluster.num_workers

        # Stage 1: ingest the batch and aggregate local sizes at the master.
        self.cluster.run_stage(
            "ingest batch & aggregate sizes",
            worker_times=[model.local(size) for size in self._per_worker(batch)],
        )

        decay = math.exp(-self.lambda_ * elapsed)
        if self._total_weight < self.n:
            self._process_unsaturated(batch, batch_size, decay)
        else:
            self._process_saturated(batch, batch_size, decay)

        runtime = self.cluster.elapsed - start_elapsed
        self.batch_runtimes.append(runtime)
        return runtime

    # ------------------------------------------------------------------
    # R-TBS cases (Algorithm 2, distributed execution)
    # ------------------------------------------------------------------
    def _process_unsaturated(
        self, batch: DistributedBatch, batch_size: int, decay: float
    ) -> None:
        new_weight = self._total_weight * decay
        if new_weight > _WEIGHT_EPSILON:
            self._downsample(new_weight)
        else:
            new_weight = 0.0
            self._clear_sample()
        self._insert_all(batch)
        self._total_weight = new_weight + batch_size
        self._sample_weight = self._sample_weight + batch_size
        if self._total_weight > self.n:
            self._downsample(float(self.n))

    def _process_saturated(
        self, batch: DistributedBatch, batch_size: int, decay: float
    ) -> None:
        decayed = self._total_weight * decay
        self._total_weight = decayed + batch_size
        if self._total_weight >= self.n:
            accepted = stochastic_round(
                self._rng, batch_size * self.n / self._total_weight
            )
            accepted = min(accepted, batch_size, self.n)
            self._replace(batch, accepted)
            self._sample_weight = float(self.n)
        else:
            target = self._total_weight - batch_size
            if target > _WEIGHT_EPSILON:
                self._downsample(target)
            else:
                self._clear_sample()
            self._insert_all(batch)
            self._sample_weight = self._sample_weight + batch_size

    # ------------------------------------------------------------------
    # distributed downsampling (Algorithm 3 with master-held partial item)
    # ------------------------------------------------------------------
    def _downsample(self, target_weight: float) -> None:
        current = self._sample_weight
        if target_weight >= current - 1e-12:
            self._sample_weight = min(current, target_weight)
            return
        frac_current = _frac(current)
        frac_target = _frac(target_weight)
        floor_current = _floor(current)
        floor_target = _floor(target_weight)
        u = self._rng.random()

        deletions = 0
        if floor_target == 0:
            # With no partial (frac_current == 0) a full item must become
            # the partial, even on the draw u == 0.0 (as in core.latent).
            if frac_current <= 0.0 or u > frac_current / current:
                self._promote_full_to_partial(drop_old_partial=True)
                deletions = max(0, floor_current - 1)
            else:
                deletions = floor_current
            self._delete_uniform(deletions)
        elif floor_target == floor_current:
            keep_probability = (
                1.0 - (target_weight / current) * frac_current
            ) / (1.0 - frac_target) if frac_target < 1.0 else 0.0
            if u > keep_probability:
                old_partial = self._take_partial()
                self._promote_full_to_partial(drop_old_partial=True)
                self._insert_master_item(old_partial)
        else:
            if frac_current > 0 and u <= (target_weight / current) * frac_current:
                deletions = floor_current - floor_target
                self._delete_uniform(deletions)
                old_partial = self._take_partial()
                self._promote_full_to_partial(drop_old_partial=True)
                self._insert_master_item(old_partial)
            else:
                deletions = floor_current - floor_target - 1
                self._delete_uniform(deletions)
                self._promote_full_to_partial(drop_old_partial=True)

        if frac_target == 0.0:
            self._drop_partial()
        self._sample_weight = float(target_weight)
        self._charge_delete_stage(deletions)

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
        batch_size = len(batch)
        if self._virtual_mode:
            self._virtual_full_count += batch_size
        else:
            planned: dict[int, list[list[Any]]] = {}
            for partition in range(batch.num_partitions):
                self._plan_piece_inserts(
                    planned, partition, batch.partition_items(partition)
                )
            self._engine_apply_inserts(planned)
        self._charge_insert_stage(batch_size, full_batch=True)

    def _replace(self, batch: DistributedBatch, accepted: int) -> None:
        """Saturated case: ``accepted`` batch items replace random reservoir victims."""
        batch_size = len(batch)
        if accepted > 0:
            if self._virtual_mode:
                self._virtual_full_count = min(self.n, self._virtual_full_count)
            else:
                counts = multivariate_hypergeometric(
                    self._rng, self._reservoir.partition_sizes(), min(accepted, len(self._reservoir))
                )
                self._engine_apply_deletes(
                    self._reservoir.plan_deletes(counts, self._rng)
                )
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
        self._charge_plan_stage(accepted, accepted)
        self._charge_retrieve_stage(batch_size, accepted)
        self._charge_delete_stage(accepted)
        self._charge_insert_stage(accepted, full_batch=False)

    def _delete_uniform(self, count: int) -> None:
        """Delete ``count`` uniformly random full items from the reservoir."""
        if count <= 0:
            return
        if self._virtual_mode:
            self._virtual_full_count = max(0, self._virtual_full_count - count)
            return
        sizes = self._reservoir.partition_sizes()
        count = min(count, sum(sizes))
        counts = multivariate_hypergeometric(self._rng, sizes, count)
        self._engine_apply_deletes(self._reservoir.plan_deletes(counts, self._rng))

    def _promote_full_to_partial(self, drop_old_partial: bool) -> None:
        """Remove one uniformly random full item and make it the master's partial item."""
        if drop_old_partial:
            self._partial_item = None
            self._virtual_has_partial = False
        if self._virtual_mode:
            if self._virtual_full_count > 0:
                self._virtual_full_count -= 1
                self._virtual_has_partial = True
            return
        sizes = self._reservoir.partition_sizes()
        total = sum(sizes)
        if total == 0:
            return
        counts = multivariate_hypergeometric(self._rng, sizes, 1)
        removed = self._reservoir.delete_per_partition(counts, self._rng)
        if removed:
            self._partial_item = removed[0]

    def _take_partial(self) -> Any | None:
        item = self._partial_item
        self._partial_item = None
        had = self._virtual_has_partial
        self._virtual_has_partial = False
        if self._virtual_mode:
            return "virtual-partial" if had else None
        return item

    def _drop_partial(self) -> None:
        self._partial_item = None
        self._virtual_has_partial = False

    def _insert_master_item(self, item: Any | None) -> None:
        """Insert a single master-held item back into the reservoir as a full item."""
        if item is None:
            return
        if self._virtual_mode:
            self._virtual_full_count += 1
            return
        partition = int(self._rng.integers(self.cluster.num_workers))
        self._reservoir.insert([item], partition)

    def _clear_sample(self) -> None:
        self._partial_item = None
        self._virtual_has_partial = False
        self._sample_weight = 0.0
        if self._virtual_mode:
            self._virtual_full_count = 0
        else:
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
        scan = model.local(self._reservoir_size_estimate() / workers)
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
    def _advance_time(self, time: float | None) -> float:
        """Validate and apply a batch-arrival time; return the elapsed gap.

        Same contract as :meth:`repro.core.base.Sampler._advance_time`: the
        clock starts at 0, times are strictly increasing, and the first
        batch's elapsed time is its full distance from the origin.
        """
        self._time, elapsed = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        return elapsed

    def _reservoir_size_estimate(self) -> int:
        """Current number of full reservoir items (works in both modes)."""
        if self._virtual_mode:
            return self._virtual_full_count
        return self._reservoir.total_items()

    def _make_reservoir(self) -> DistributedReservoir:
        if self.reservoir_backend is ReservoirBackend.KEY_VALUE:
            return KeyValueStoreReservoir(self.cluster.num_workers, rng=self._rng)
        return CoPartitionedReservoir(self.cluster.num_workers)

    def _target_partition(self, batch_partition: int) -> int:
        """Reservoir partition receiving items from the given batch partition."""
        return batch_partition % self.cluster.num_workers

    def _coerce_batch(self, batch: DistributedBatch | Sequence[Any]) -> DistributedBatch:
        if isinstance(batch, DistributedBatch):
            return batch
        return DistributedBatch.from_items(
            list(batch), self.cluster.num_workers, batch_id=self._batches_seen + 1
        )

    def _per_worker(self, batch: DistributedBatch) -> list[int]:
        """Map batch partitions onto workers and return per-worker item counts."""
        per_worker = [0] * self.cluster.num_workers
        for partition, size in enumerate(batch.partition_sizes):
            per_worker[partition % self.cluster.num_workers] += size
        return per_worker
