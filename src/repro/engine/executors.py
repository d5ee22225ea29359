"""Pluggable backends: where the sampler service's shards live and ingest.

An :class:`Executor` decides where shard samplers are *hosted*. Every
backend's host has one surface — adopt, stage, send, drain, snapshot,
detach and ``acked_through`` — so the service runs one ingest pipeline
whatever the backend:

* :class:`SerialExecutor` — an :class:`InProcessShardHost`: the live
  samplers stay in the calling process, and each staged ingest window runs
  in the calling thread when it is sent. The reference backend every other
  backend must match draw for draw.
* :class:`ProcessPoolExecutor` — a pool of *persistent* worker processes
  (:class:`~repro.engine.transport.ShardWorkerPool`): shard state is
  *resident* in the workers — shipped once on attach, returned only on
  snapshot or detach — and per-batch arrays cross through shared-memory
  ring buffers instead of pickle (see :mod:`repro.engine.transport`).
* :class:`~repro.distributed.cluster.SimulatedCluster` — the distributed
  layer's executor: it hosts shards in process like the serial backend,
  and runs the D-R-TBS/D-T-TBS partition stages itself, *pricing* them
  with the calibrated cost model instead of measuring them.

Determinism contract: all randomness must be drawn either driver-side
(before work is staged) or from per-shard RNG streams owned by the shard.
Under that contract every backend produces identical results —
regression-tested in ``tests/engine`` and ``tests/service``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.errors import EngineError
from repro.engine.transport import ShardWorkerPool, WindowTask

__all__ = [
    "Executor",
    "InProcessShardHost",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "get_executor",
]


class InProcessShardHost:
    """Hosts shard samplers in the calling process, behind the pool's surface.

    The in-process counterpart of
    :class:`~repro.engine.transport.ShardWorkerPool`, with one "worker":
    the caller. Objects are adopted as they are, with no state round trip,
    and handed back live on release. The open window holds the staged
    per-shard sub-batches themselves and runs, in the calling thread, when
    it is sent; every other call sends it first, as the pool's FIFO pipe
    does, and acknowledgements are immediate.
    """

    num_workers = 1

    def __init__(self) -> None:
        self._residents: dict[Any, Any] = {}
        self._task: WindowTask | None = None
        self._entries: list[tuple[float, Sequence[tuple[int, np.ndarray, int | None]]]] = []
        #: The first tag not yet known ingested, and the last tag staged.
        self._window_tag: int | None = None
        self._last_tag: int | None = None
        #: Set once a window raised: its first tag stays outstanding.
        self._failed = False

    def adopt(
        self,
        key: Any,
        obj: Any,
        worker: int,
        snapshot_fn: Callable[[Any], Any],
        restore_fn: Callable[[Any], Any],
    ) -> None:
        """Host ``obj`` itself under ``key`` (the hooks serve the pool only)."""
        if key in self._residents:
            raise EngineError(f"key {key!r} is already attached")
        self._residents[key] = obj

    def stage_shards(
        self,
        task: WindowTask,
        rows: np.ndarray,
        sub_batches: Sequence[tuple[int, np.ndarray, int | None]],
        time: float,
        tag: int | None = None,
    ) -> None:
        """Add one batch's ``(shard_id, rows, arrivals)`` sub-batches to the window.

        The window runs as ``task.fn(residents, payload=None,
        entries=[(time, sub_batches), ...])``: with no payload, each entry
        carries its sub-batches' rows itself (see
        :func:`~repro.engine.shards.service_ingest_window`). ``rows`` is the
        buffer they slice, which the pool copies from.
        """
        if task is not self._task:
            self.send_staged()
            self._task = task
        if tag is not None:
            if self._window_tag is None:
                self._window_tag = tag
            self._last_tag = tag
        self._entries.append((float(time), sub_batches))

    def send_staged(self) -> None:
        """Run the open window now, then deliver its result to ``on_result``.

        A window that raises keeps its first tag outstanding for good, as a
        failed command does on the pool.
        """
        task, entries = self._task, self._entries
        if task is None:
            return
        self._task, self._entries = None, []
        try:
            result = task.fn(self._residents, payload=None, entries=entries, **task.kwargs)
        except BaseException:
            self._failed = True
            raise
        if not self._failed:
            self._window_tag = None
        if task.on_result is not None:
            task.on_result(result)

    def drain(self) -> None:
        """Barrier: run the open window (everything else already ran)."""
        self.send_staged()

    def acked_through(self) -> int | None:
        """Highest tag with every batch at or below it ingested (``None`` before any)."""
        if self._window_tag is not None:
            return self._window_tag - 1
        return self._last_tag

    def snapshot(self, key: Any, snapshot_fn: Callable[[Any], Any]) -> Any:
        """``snapshot_fn`` of one hosted object (it stays hosted)."""
        self.send_staged()
        return snapshot_fn(self._residents[key])

    def snapshot_async(
        self, fn: Callable[..., Any], kwargs: dict[str, Any] | None = None
    ) -> list[Any]:
        """Take the cut ``fn(residents, **kwargs)`` now; :meth:`collect` returns it."""
        self.send_staged()
        return [fn(self._residents, **(kwargs or {}))]

    def collect(self, markers: list[Any]) -> list[Any]:
        """The results :meth:`snapshot_async` already took."""
        return markers

    def detach(self, key: Any, snapshot_fn: Callable[[Any], Any] | None = None) -> Any:
        """Stop hosting ``key``; return ``snapshot_fn(object)`` if given."""
        self.send_staged()
        obj = self._residents.pop(key)
        return snapshot_fn(obj) if snapshot_fn is not None else None

    def release(
        self, key: Any, snapshot_fn: Callable[[Any], Any], restore_fn: Callable[[Any], Any]
    ) -> Any:
        """Stop hosting ``key`` and hand the live object back."""
        self.send_staged()
        return self._residents.pop(key)


class Executor:
    """Chooses where shards are hosted; the shard host lives as long as the executor.

    The base class hosts shards in process (:class:`InProcessShardHost`);
    :class:`ProcessPoolExecutor` overrides :attr:`host` with its worker
    pool.
    """

    #: Short backend identifier, ``"serial"`` or ``"process"``.
    name: str = "executor"
    #: True when shards live in worker processes behind a :attr:`transport`
    #: (:class:`~repro.engine.transport.ShardWorkerPool`), so liveness
    #: probes and ring and memory gauges apply. Checked as a flag so callers
    #: do not spawn worker processes just by probing for the capability.
    provides_transport: bool = False

    def __init__(self) -> None:
        self._host: InProcessShardHost | None = None

    @property
    def host(self) -> InProcessShardHost | ShardWorkerPool:
        """The shard host (created on first use)."""
        if self._host is None:
            self._host = InProcessShardHost()
        return self._host

    def shutdown(self) -> None:
        """Release the shard host and everything it still hosts.

        The executor stays usable: the next use of :attr:`host` creates a
        fresh one, as a closed ``SamplerService`` re-attaches its shards on
        the next ingest.
        """
        self._host = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """Hosts every shard in the calling thread (:class:`InProcessShardHost`).

    This is the reference backend: parallel backends are correct exactly
    when they reproduce its results (see the determinism contract in the
    module docstring).
    """

    name = "serial"


class ProcessPoolExecutor(Executor):
    """Hosts shards resident in *persistent* worker processes.

    The backend's :attr:`transport`
    (:class:`~repro.engine.transport.ShardWorkerPool`) is its shard host:
    callers attach shard state *once* and stream per-batch arrays through
    shared-memory ring buffers. What crosses the process boundary is state
    and module-level functions, never live objects — the
    move-the-state-not-the-code discipline a real cluster enforces. Worker
    failures surface as :class:`~repro.engine.errors.EngineError`
    subclasses naming the dead shard worker, never a raw
    ``BrokenProcessPool``.
    """

    name = "process"
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

    @property
    def host(self) -> ShardWorkerPool:
        """The worker pool: the shard host of this backend."""
        return self.transport

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
