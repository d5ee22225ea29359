"""Pluggable partitioned-execution backends shared by the whole stack.

The paper's Section 5 algorithms and the sampler service share one execution
shape: *partition-local work* (scan a batch partition, downsample a shard,
apply inserts/deletes to a reservoir partition) followed by a *driver-side
merge* (union the partial samples, combine the bookkeeping). An
:class:`Executor` abstracts where that partition-local work runs:

* :class:`SerialExecutor` — in the calling thread, in partition order; the
  reference backend every other backend must match draw for draw.
* :class:`ProcessPoolExecutor` — a pool of *persistent* worker processes
  (:class:`~repro.engine.transport.ShardWorkerPool`). Generic tasks cross a
  process boundary, so the function must be module-level and arguments
  picklable. Stateful callers go further: shard state is *resident* in the
  workers — shipped once on attach, returned only on checkpoint or detach —
  and per-batch arrays cross through shared-memory ring buffers instead of
  pickle (see :mod:`repro.engine.transport`).
* :class:`~repro.distributed.cluster.SimulatedCluster` — the third
  implementation of this protocol: it runs partition tasks in the calling
  thread, like the serial backend, and *prices* stages with the calibrated
  cost model instead of measuring them, which keeps the simulator as the
  executable cost-model spec of the paper's figures.

Determinism contract: all randomness must be drawn either driver-side
(before tasks are submitted) or from per-partition RNG streams owned by the
task. Under that contract every backend produces identical results —
regression-tested in ``tests/engine``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.engine.transport import ShardWorkerPool

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "StageRecord",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "get_executor",
    "require_in_place_backend",
]


@dataclass(frozen=True)
class StageRecord:
    """Record of one executed stage (a ``map_partitions`` or merge call)."""

    description: str
    num_tasks: int
    duration: float  # seconds: wall-clock for real backends, priced for simulated


class Executor(ABC):
    """Runs partition-local tasks and driver-side merges; records stages.

    Subclasses choose *where* tasks run by implementing :meth:`_run_tasks`;
    the bookkeeping (stage records, cumulative :attr:`elapsed` seconds) is
    shared so callers can compare backends — including the simulated
    cluster, whose ``elapsed`` is priced by the cost model rather than
    measured — through one interface.
    """

    #: Short backend identifier, ``"serial"`` or ``"process"``.
    name: str = "executor"
    #: True when tasks cross a process boundary: the task function must be
    #: module-level, and arguments/results must be picklable. Callers that
    #: own live, unpicklable objects (samplers holding RNGs and object
    #: arrays) must ship ``state_dict()`` snapshots instead.
    ships_state: bool = False
    #: True when the backend exposes a :attr:`transport`
    #: (:class:`~repro.engine.transport.ShardWorkerPool`) for resident shard
    #: state and shared-memory array frames. Checked as a flag so callers do
    #: not spawn worker processes just by probing for the capability.
    provides_transport: bool = False
    #: Cap on retained :class:`StageRecord` entries — long-running callers
    #: (the sampler service ingests unbounded streams) dispatch through one
    #: executor forever, so the record list keeps only the most recent
    #: stages while :attr:`elapsed` still accumulates the full total.
    #: ``None`` disables the cap (the simulated cluster's priced records
    #: are the experiment output and are reset per run by the caller).
    max_stage_records: int | None = 1024

    def __init__(self) -> None:
        self.stages: list[StageRecord] = []
        self.elapsed: float = 0.0

    # ------------------------------------------------------------------
    # partition/merge primitives
    # ------------------------------------------------------------------
    def map_partitions(
        self,
        fn: Callable[[T], R],
        partitions: Iterable[T],
        description: str = "map-partitions",
    ) -> list[R]:
        """Apply ``fn`` to every partition; return results in partition order.

        The partition order of the *results* is always preserved regardless
        of completion order, so a deterministic driver-side merge sees the
        same sequence under every backend.
        """
        tasks = list(partitions)
        start = time.perf_counter()
        results = self._run_tasks(fn, tasks)
        self._record(description, len(tasks), time.perf_counter() - start)
        return results

    def reduce_merge(
        self,
        fn: Callable[[list[R]], Any],
        results: Iterable[R],
        description: str = "reduce-merge",
    ) -> Any:
        """Driver-side merge of partition results (always runs in the caller)."""
        collected = list(results)
        start = time.perf_counter()
        merged = fn(collected)
        self._record(description, len(collected), time.perf_counter() - start)
        return merged

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _record(self, description: str, num_tasks: int, duration: float) -> None:
        self.stages.append(StageRecord(description, num_tasks, duration))
        if self.max_stage_records is not None and len(self.stages) > self.max_stage_records:
            del self.stages[: -self.max_stage_records]
        self.elapsed += duration

    def reset_clock(self) -> None:
        """Clear accumulated stage records and elapsed time."""
        self.stages.clear()
        self.elapsed = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release any worker pools.

        The executor stays usable: pooled backends lazily recreate their
        pool on the next dispatch, as a closed ``SamplerService`` respawns
        its workers on the next ingest. Call it when a burst of parallel
        work is done and the workers should not linger.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # backend hook
    # ------------------------------------------------------------------
    @abstractmethod
    def _run_tasks(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Run ``fn`` over ``tasks``; return results in task order."""


class SerialExecutor(Executor):
    """Runs every partition task in the calling thread, in partition order.

    This is the reference backend: parallel backends are correct exactly
    when they reproduce its results (see the determinism contract in the
    module docstring).
    """

    name = "serial"

    def _run_tasks(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return [fn(task) for task in tasks]


class ProcessPoolExecutor(Executor):
    """Runs partition tasks on *persistent* worker processes.

    The task function must be defined at module level and every argument and
    result must be picklable — the move-the-state-not-the-code discipline a
    real cluster enforces. Beyond the classic ``map_partitions`` path, the
    backend exposes its :attr:`transport`
    (:class:`~repro.engine.transport.ShardWorkerPool`): stateful callers
    attach shard state *once* and stream per-batch arrays through
    shared-memory ring buffers, which is what makes the process backend
    faster than re-shipping ``state_dict()`` snapshots every flush. Worker
    failures surface as :class:`~repro.engine.errors.EngineError` subclasses
    naming the dead shard worker, never a raw ``BrokenProcessPool``.
    """

    name = "process"
    ships_state = True
    provides_transport = True

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers
        self._pool: ShardWorkerPool | None = None

    @property
    def transport(self) -> ShardWorkerPool:
        """The persistent worker pool (created on first use)."""
        if self._pool is None:
            self._pool = ShardWorkerPool(max_workers=self._max_workers)
        return self._pool

    def ring_usage(self) -> list[dict[str, int]]:
        """The pool's :meth:`~ShardWorkerPool.ring_usage`; ``[]`` before it starts.

        Unlike :attr:`transport`, never creates the pool: a reader racing
        :meth:`shutdown` must not start workers.
        """
        pool = self._pool
        return [] if pool is None else pool.ring_usage()

    def worker_memory(self) -> list[dict[str, int | None]]:
        """The pool's :meth:`~ShardWorkerPool.worker_memory`; ``[]`` before it starts.

        Like :meth:`ring_usage`, never creates the pool.
        """
        pool = self._pool
        return [] if pool is None else pool.worker_memory()

    def _run_tasks(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        if not tasks:
            return []
        return self.transport.run_tasks(fn, tasks)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def get_executor(spec: "Executor | str | None") -> Executor:
    """Resolve an executor from a backend spec.

    Accepts an existing :class:`Executor` (returned unchanged), ``None``
    (serial), or a string spec: ``"serial"`` or ``"process"``, the latter
    optionally with a worker count as in ``"process:4"``.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"executor spec must be an Executor, a string, or None; "
            f"got {type(spec).__name__}"
        )
    name, separator, workers_part = spec.partition(":")
    max_workers: int | None = None
    if separator:
        try:
            max_workers = int(workers_part)
        except ValueError:
            raise ValueError(f"invalid worker count in executor spec {spec!r}") from None
    name = name.strip().lower()
    if name == "serial":
        if separator:
            raise ValueError("the serial executor takes no worker count")
        return SerialExecutor()
    if name == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    raise ValueError(
        f"unknown executor backend {spec!r}; expected 'serial' or "
        "'process[:N]'"
    )


def require_in_place_backend(backend: Executor, caller: str) -> None:
    """Raise ``ValueError`` for a backend that ships state without a transport.

    The sampler service mutates its shards in place (serial) or keeps them
    resident in transport workers; a plain state-shipping backend would run
    every task on a copy.
    """
    if backend.ships_state and not backend.provides_transport:
        raise ValueError(
            f"{caller} needs the in-process serial backend or a "
            "transport-capable process backend; a plain state-shipping "
            f"backend ({backend.name!r}) cannot mutate driver-held state in "
            "place"
        )
