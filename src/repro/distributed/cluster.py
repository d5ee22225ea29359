"""Simulated master/worker cluster with per-stage cost accounting.

A distributed algorithm executes as a sequence of *stages* (one per Spark
stage in the real system). Each stage has driver-side work (serial) and
per-worker work (parallel); the simulated stage duration is::

    stage_overhead + driver_time + max_over_workers(worker_time + task_overhead * tasks)

The cluster accumulates stage records so experiments can report per-batch
runtimes and break them down by component.

The cluster is also an :class:`~repro.engine.executors.Executor`, hosting a
sampler service's shards in process like the serial backend. The
D-R-TBS/D-T-TBS algorithms hand it their partition-local work through
:meth:`SimulatedCluster.map_partitions` and
:meth:`SimulatedCluster.reduce_merge`, which *price* stages with the
calibrated :class:`~repro.distributed.costmodel.CostModel` instead of
measuring wall-clock — the simulator stays the executable cost-model spec
of the paper's Figures 7-9. The tasks themselves run in the calling
thread, in partition order, so simulated runtimes are reproducible on any
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.distributed.costmodel import CostModel
from repro.engine.executors import Executor

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
    """

    name = "simulated"

    def __init__(
        self,
        num_workers: int,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__()
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = int(num_workers)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: Every priced stage, in order: the experiment output.
        self.stages: list[StageCost] = []
        #: Total priced seconds of :attr:`stages`.
        self.elapsed = 0.0

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
    # partition tasks: run in process, accounting is priced
    # ------------------------------------------------------------------
    def map_partitions(
        self,
        fn: Callable[[T], R],
        partitions: Sequence[T],
        description: str = "map-partitions",
        costs: Sequence[float] | float | None = None,
        driver_time: float = 0.0,
    ) -> list[R]:
        """Run partition tasks in partition order; price the stage if asked.

        When ``costs`` is given (one simulated per-worker time, or a
        sequence of them) the stage is charged through :meth:`run_stage`
        under the same description. When ``costs`` is ``None`` the tasks run
        unpriced — the caller accounts for the stage separately, which lets
        an algorithm keep its pricing structure exactly while routing the
        data movement through the engine.
        """
        results = [fn(task) for task in partitions]
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

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def reset_clock(self) -> None:
        """Clear accumulated stage records and elapsed time."""
        self.stages.clear()
        self.elapsed = 0.0

    def split_evenly(self, items: int) -> list[int]:
        """Split ``items`` into per-worker partition sizes as evenly as possible."""
        if items < 0:
            raise ValueError(f"items must be non-negative, got {items}")
        base, remainder = divmod(items, self.num_workers)
        return [base + (1 if worker < remainder else 0) for worker in range(self.num_workers)]
