"""Simulated master/worker cluster with per-stage cost accounting.

A distributed algorithm executes as a sequence of *stages* (one per Spark
stage in the real system). Each stage has driver-side work (serial) and
per-worker work (parallel); the simulated stage duration is::

    stage_overhead + driver_time + max_over_workers(worker_time + task_overhead * tasks)

The cluster accumulates stage records so experiments can report per-batch
runtimes and break them down by component.

Since the engine refactor the cluster is also an
:class:`~repro.engine.executors.Executor`: partition-local work reaches it
through the same ``map_partitions``/``reduce_merge`` protocol the real
serial/thread/process backends implement. What distinguishes the cluster is
that it *prices* stages with the calibrated
:class:`~repro.distributed.costmodel.CostModel` instead of measuring
wall-clock — the simulator stays the executable cost-model spec of the
paper's Figures 7-9 — while the tasks themselves execute on an optional
inner ``backend`` executor (serial by default, a thread pool if you want the
data movement to really overlap). Pricing is independent of the backend, so
simulated runtimes are reproducible on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.distributed.costmodel import CostModel
from repro.engine.executors import Executor, SerialExecutor, require_in_place_backend

__all__ = ["StageCost", "SimulatedCluster"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class StageCost:
    """Record of one executed (priced) stage."""

    description: str
    driver_time: float
    worker_times: tuple[float, ...]
    duration: float


class SimulatedCluster(Executor):
    """A cluster of ``num_workers`` identical workers driven by one master.

    Parameters
    ----------
    num_workers:
        Number of workers (the paper uses 12, one per processor socket).
    cost_model:
        The :class:`~repro.distributed.costmodel.CostModel` used to price
        operations; algorithms read it via :attr:`cost_model`.
    backend:
        Inner :class:`~repro.engine.executors.Executor` that actually runs
        partition tasks submitted through :meth:`map_partitions`. Defaults
        to a :class:`~repro.engine.executors.SerialExecutor`. A thread
        backend runs the per-partition data movement concurrently without
        changing any simulated cost or any sampling trajectory (tasks are
        RNG-free or own private streams; see the engine's determinism
        contract). A transport-capable process backend
        (:class:`~repro.engine.executors.ProcessPoolExecutor`) is accepted
        too: the distributed algorithms then keep their reservoir/sample
        partitions *resident* in the persistent workers
        (:mod:`repro.distributed.resident`) instead of submitting closures.
        State-shipping backends without a transport are rejected —
        closure tasks cannot mutate driver-held partitions across a
        process boundary.
    """

    name = "simulated"
    # Priced StageCost records ARE the experiment output; runs are bounded
    # and callers reset_clock between them, so no retention cap applies.
    max_stage_records = None

    def __init__(
        self,
        num_workers: int,
        cost_model: CostModel | None = None,
        backend: Executor | None = None,
    ) -> None:
        super().__init__()
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if backend is not None:
            require_in_place_backend(backend, "the simulated cluster")
        self.num_workers = int(num_workers)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.backend = backend if backend is not None else SerialExecutor()
        self.stages: list[StageCost] = []

    # ------------------------------------------------------------------
    # pricing (the cost-model spec)
    # ------------------------------------------------------------------
    def run_stage(
        self,
        description: str,
        worker_times: Sequence[float] | float = 0.0,
        driver_time: float = 0.0,
        tasks_per_worker: int = 1,
    ) -> StageCost:
        """Price one stage and return its cost record.

        ``worker_times`` may be a single number (same work on every worker)
        or one number per worker; the stage lasts as long as its slowest
        worker plus driver work and fixed overheads.
        """
        if isinstance(worker_times, (int, float)):
            per_worker = [float(worker_times)] * self.num_workers
        else:
            per_worker = [float(w) for w in worker_times]
            if len(per_worker) != self.num_workers:
                raise ValueError(
                    f"expected {self.num_workers} worker times, got {len(per_worker)}"
                )
        if driver_time < 0 or any(w < 0 for w in per_worker):
            raise ValueError("stage times must be non-negative")
        slowest = max(per_worker) if per_worker else 0.0
        duration = (
            self.cost_model.stage_overhead
            + driver_time
            + slowest
            + self.cost_model.task_overhead * max(1, tasks_per_worker)
        )
        record = StageCost(
            description=description,
            driver_time=driver_time,
            worker_times=tuple(per_worker),
            duration=duration,
        )
        self.stages.append(record)
        self.elapsed += duration
        return record

    # ------------------------------------------------------------------
    # Executor protocol: execution is delegated, accounting is priced
    # ------------------------------------------------------------------
    def _run_tasks(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return self.backend._run_tasks(fn, tasks)

    def map_partitions(
        self,
        fn: Callable[[T], R],
        partitions: Sequence[T],
        description: str = "map-partitions",
        costs: Sequence[float] | float | None = None,
        driver_time: float = 0.0,
    ) -> list[R]:
        """Run partition tasks on the inner backend; price the stage if asked.

        When ``costs`` is given (one simulated per-worker time, or a
        sequence of them) the stage is charged through :meth:`run_stage`
        under the same description. When ``costs`` is ``None`` the tasks run
        unpriced — the caller accounts for the stage separately, which lets
        an algorithm keep its pricing structure exactly while routing the
        data movement through the engine.
        """
        tasks = list(partitions)
        results = self._run_tasks(fn, tasks)
        if costs is not None:
            self.run_stage(description, worker_times=costs, driver_time=driver_time)
        return results

    def reduce_merge(
        self,
        fn: Callable[[list[R]], object],
        results: Sequence[R],
        description: str = "reduce-merge",
        driver_time: float = 0.0,
    ) -> object:
        """Driver-side merge; priced as driver work when ``driver_time`` is set."""
        merged = fn(list(results))
        if driver_time:
            self.run_stage(description, driver_time=driver_time)
        return merged

    def shutdown(self) -> None:
        self.backend.shutdown()

    # ------------------------------------------------------------------
    # bookkeeping helpers (reset_clock is inherited from Executor)
    # ------------------------------------------------------------------
    def split_evenly(self, items: int) -> list[int]:
        """Split ``items`` into per-worker partition sizes as evenly as possible."""
        if items < 0:
            raise ValueError(f"items must be non-negative, got {items}")
        base, remainder = divmod(items, self.num_workers)
        return [base + (1 if worker < remainder else 0) for worker in range(self.num_workers)]
