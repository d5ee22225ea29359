"""Partitioned-execution engine: pluggable backends for partition/merge work.

Everything above :mod:`repro.core` that fans work out over partitions — the
sharded :class:`~repro.service.SamplerService`, the distributed
D-R-TBS/D-T-TBS algorithms, the benchmarks — runs through this package's
:class:`Executor` protocol:

* :mod:`repro.engine.executors` — :class:`SerialExecutor`,
  :class:`ThreadPoolExecutor` and :class:`ProcessPoolExecutor` backends, the
  :class:`StageRecord` bookkeeping they share, the :func:`get_executor`
  spec resolver, and :func:`require_in_place_backend`, which refuses a
  state-shipping backend without a transport;
* :mod:`repro.engine.transport` — the persistent-worker shared-memory
  transport behind the process backend: resident shard state (shipped once
  on attach), per-worker ring buffers for zero-copy array frames, pipelined
  dispatch with acknowledgement-driven backpressure, and
  :class:`~repro.engine.errors.EngineError` failure semantics;
* :mod:`repro.engine.shards` — shard work units: in-process ingest, and
  the transport's attach/snapshot hooks and worker-side
  :func:`service_ingest_routed`, built on the ``state_dict()`` protocol;
* :class:`~repro.distributed.cluster.SimulatedCluster` — the fourth
  implementation of the protocol, living with the distributed layer: it
  *prices* stages with the paper's calibrated cost model instead of
  measuring them.

The free functions :func:`map_partitions` and :func:`reduce_merge` are thin
conveniences over the corresponding executor methods for callers that take
the executor as data.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TypeVar

from repro.engine.errors import (
    EngineError,
    FailoverError,
    RemoteTaskError,
    WorkerCrashError,
)
from repro.engine.executors import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    StageRecord,
    ThreadPoolExecutor,
    get_executor,
    require_in_place_backend,
)
from repro.engine.shards import (
    ShardTask,
    group_by_destination,
    ingest_shard_inplace,
    merge_samples,
    restore_sampler,
    service_ingest_routed,
    service_snapshot_views,
    snapshot_sampler,
)
from repro.engine.transport import ShardWorkerPool

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "StageRecord",
    "get_executor",
    "require_in_place_backend",
    "map_partitions",
    "reduce_merge",
    "ShardTask",
    "ingest_shard_inplace",
    "merge_samples",
    "group_by_destination",
    "restore_sampler",
    "snapshot_sampler",
    "service_ingest_routed",
    "service_snapshot_views",
    "ShardWorkerPool",
    "EngineError",
    "WorkerCrashError",
    "RemoteTaskError",
    "FailoverError",
]


def map_partitions(
    executor: Executor,
    fn: Callable[[T], R],
    partitions: Iterable[T],
    description: str = "map-partitions",
) -> list[R]:
    """Apply ``fn`` to every partition on ``executor``; results in partition order.

    Backend-generic form: for the simulated cluster's priced extensions
    (``costs=``/``driver_time=``) call its method directly.
    """
    return executor.map_partitions(fn, partitions, description=description)


def reduce_merge(
    executor: Executor,
    fn: Callable[[list[R]], Any],
    results: Iterable[R],
    description: str = "reduce-merge",
) -> Any:
    """Merge partition results driver-side on ``executor``."""
    return executor.reduce_merge(fn, results, description=description)
