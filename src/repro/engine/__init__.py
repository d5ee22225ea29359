"""Execution engine: where the sampler service's shards are hosted.

The sharded :class:`~repro.service.SamplerService` hosts its shard samplers
through this package's :class:`Executor` backends, each of which offers one
shard-host surface (adopt, stage, send, drain, snapshot, detach and
``acked_through``), so the service runs one ingest pipeline on every
backend:

* :mod:`repro.engine.executors` — the :class:`SerialExecutor` backend and
  its :class:`InProcessShardHost`, which keeps the live samplers in the
  calling process; the :class:`ProcessPoolExecutor` backend; and the
  :func:`get_executor` spec resolver;
* :mod:`repro.engine.transport` — the persistent-worker shared-memory
  transport behind the process backend: resident shard state (shipped once
  on attach), per-worker ring buffers for zero-copy array frames, staged
  ingest windows (:class:`WindowTask`), pipelined dispatch with
  acknowledgement-driven backpressure, and
  :class:`~repro.engine.errors.EngineError` failure semantics;
* :mod:`repro.engine.shards` — what the hosts run for the service: shard
  construction, the attach/snapshot hooks built on the ``state_dict()``
  protocol, the window ingest :func:`service_ingest_window` and the
  snapshot marker :func:`service_snapshot_views`;
* :class:`~repro.distributed.cluster.SimulatedCluster` — the distributed
  layer's executor: it hosts shards in process, and *prices* the
  D-R-TBS/D-T-TBS partition stages with the paper's calibrated cost model
  instead of measuring them.
"""

from __future__ import annotations

from repro.engine.errors import (
    EngineError,
    FailoverError,
    RemoteTaskError,
    WorkerCrashError,
)
from repro.engine.executors import (
    Executor,
    InProcessShardHost,
    ProcessPoolExecutor,
    SerialExecutor,
    get_executor,
)
from repro.engine.shards import (
    build_shard_sampler,
    group_by_destination,
    merge_samples,
    restore_sampler,
    service_ingest_window,
    service_snapshot_views,
    snapshot_sampler,
)
from repro.engine.transport import ShardWorkerPool, WindowTask

__all__ = [
    "Executor",
    "InProcessShardHost",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "get_executor",
    "build_shard_sampler",
    "merge_samples",
    "group_by_destination",
    "restore_sampler",
    "snapshot_sampler",
    "service_ingest_window",
    "service_snapshot_views",
    "ShardWorkerPool",
    "WindowTask",
    "EngineError",
    "WorkerCrashError",
    "RemoteTaskError",
    "FailoverError",
]
