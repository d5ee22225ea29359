"""Persistent shard workers with a zero-copy shared-memory transport.

The original process backend paid two taxes on every dispatch: each shard's
full ``state_dict()`` snapshot round-tripped through pickle per flush, and
each per-shard sub-batch was re-materialized and pickled as well. This module
removes both. A :class:`ShardWorkerPool` owns a set of *long-lived* worker
processes where shard state is **resident**: a shard's snapshot crosses the
process boundary exactly once, when the shard is attached (and again only on
snapshot/detach — i.e. on checkpoint or teardown). Per-batch numeric arrays
(payloads, routing keys, timestamps) cross through a per-worker
``multiprocessing.shared_memory`` ring buffer: the driver pays one ``memcpy``
into the ring, the worker maps NumPy views directly onto the shared pages —
no pickle, no second copy.

Dispatch is **pipelined**: ``apply`` calls return as soon as the frame is in
the ring and the command is in the pipe; the worker acknowledges each frame
after processing it, and acknowledgements both release ring space
(backpressure: a full ring blocks the driver until the worker catches up)
and deliver small results (per-shard ingest counts, new partition sizes)
to driver-side callbacks. Each ring is **double-buffered**: the driver fills
one half while the worker reads the other, and flipping halves waits only
for the other half's acknowledgements — driver-side routing of the next
batch overlaps worker-side ingest of the previous one. ``drain()`` is the
barrier; reads (samples, checkpoints, stats) instead enqueue snapshot
markers (:meth:`ShardWorkerPool.snapshot_async`) that cut every worker at
one pipeline position, so observable state is exact without a drain. ``apply``'s ``scatters`` parameter gathers selected
rows of a source array *directly into the ring* (one fused pass), which is
how the service scatters per-shard sub-batches without intermediate copies.

Protocol summary (all control messages are pickled over a duplex pipe; bulk
arrays ride the ring):

=============  =================================================================
``segment``    announce a (new) shared-memory ring segment by name
``attach``     install a resident object: ``restore_fn(state) -> object``
``apply``      run a module-level ``fn(residents, **kwargs)``; ring-backed
               arrays are inserted into ``kwargs`` as NumPy views
``detach``     remove a resident object, optionally returning
               ``snapshot_fn(object)``
``run``        generic map task ``fn(task)`` (the classic executor path)
``close``      shut the worker down
=============  =================================================================

Ordering: the pipe is FIFO per worker, so operations touching one resident
object execute in exactly the order the driver issued them — which is what
makes resident trajectories bit-identical to the serial ones.

Functions shipped by reference (``restore_fn``/``snapshot_fn``/``fn``) must
be module-level (pickle-by-reference), mirroring a real cluster's
code-is-deployed, state-is-shipped discipline. Task functions must not
retain references to ring-backed array views beyond their own call — the
ring space is reused once the frame is acknowledged. (Every sampler in
:mod:`repro.core` honours this already: batch containers are never retained,
and selections copy via fancy/boolean indexing.)

Failures surface as :class:`~repro.engine.errors.EngineError` subclasses: a
dead worker raises :class:`~repro.engine.errors.WorkerCrashError` naming the
worker and the resident shard state lost with it; an exception inside a task
raises :class:`~repro.engine.errors.RemoteTaskError` carrying the original
traceback text.

For supervised failover the pool also exposes passive health probes —
:meth:`ShardWorkerPool.dead_workers` (process liveness, the driver-side
mirror of the workers' own orphan watchdog) and
:meth:`ShardWorkerPool.pending_commands` (submitted-but-unacknowledged
commands, which together with :meth:`ShardWorkerPool.acked_through` lets a
failure detector spot a wedged worker whose acknowledgements stopped
moving). The probes never block and never touch the pipes, so a detector
can run them between every dispatched batch.
"""

from __future__ import annotations

import itertools
import os
import traceback
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.errors import EngineError, RemoteTaskError, WorkerCrashError

__all__ = ["ShardWorkerPool", "DEFAULT_RING_BYTES"]

#: Per-worker ring capacity. Sized so a sustained run of 100k-item float64
#: frames pipelines without backpressure; override with
#: ``REPRO_TRANSPORT_RING_MB`` for constrained machines.
DEFAULT_RING_BYTES = int(os.environ.get("REPRO_TRANSPORT_RING_MB", "16")) * 1024 * 1024

_ALIGN = 64
#: Cap on unacknowledged commands per worker, bounding pickled (non-ring)
#: payload buffered in the pipe.
_MAX_PENDING = 256

#: How often an idle worker wakes to check whether its driver still exists.
_ORPHAN_POLL_SECONDS = 1.0


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _open_shm_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without registering it with the resource tracker.

    Python < 3.13 registers *every* ``SharedMemory`` handle with the resource
    tracker, so a worker merely *opening* the driver's segment would have it
    unlinked when the worker exits. 3.13+ exposes ``track=False``; older
    interpreters get the registration suppressed around the open.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn: Connection, worker_index: int) -> None:
    """Entry point of one persistent worker process."""
    residents: dict[Any, Any] = {}
    segments: dict[int, shared_memory.SharedMemory] = {}
    driver_pid = os.getppid()

    def materialize_frames(kwargs: dict[str, Any], frames: Sequence[tuple]) -> None:
        for name, segment_id, offset, dtype_str, shape in frames:
            segment = segments[segment_id]
            kwargs[name] = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=segment.buf, offset=offset
            )

    while True:
        try:
            # Orphan watchdog. A driver killed outright (SIGKILL, OOM) never
            # sends "close" — and EOF may never arrive either: workers forked
            # after this one inherited the driver-side end of this pipe, so
            # the fd outlives the driver. Wake periodically and exit once
            # re-parented; the cascade of exits then closes every stray end.
            while not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != driver_pid:
                    for segment in segments.values():
                        segment.close()
                    return
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "close":
            break
        seq = message[1]
        try:
            if kind == "segment":
                _, _, segment_id, shm_name, drop_segment_id = message
                segments[segment_id] = _open_shm_untracked(shm_name)
                dropped = segments.pop(drop_segment_id, None)
                if dropped is not None:
                    dropped.close()
                result = None
            elif kind == "attach":
                _, _, key, restore_fn, state = message
                residents[key] = restore_fn(state)
                result = None
            elif kind == "apply":
                _, _, fn, kwargs, frames = message
                kwargs = dict(kwargs)
                materialize_frames(kwargs, frames)
                result = fn(residents, **kwargs)
            elif kind == "detach":
                _, _, key, snapshot_fn = message
                obj = residents.pop(key)
                result = snapshot_fn(obj) if snapshot_fn is not None else None
            elif kind == "run":
                _, _, fn, task = message
                result = fn(task)
            else:  # pragma: no cover - protocol error
                raise EngineError(f"unknown transport message kind {kind!r}")
        # repro-lint: ignore[error-swallowing] -- worker loop catch-all: every failure is forwarded to the driver as a structured nack and re-raised there as RemoteTaskError; the worker must survive arbitrary task exceptions
        except BaseException as error:  # noqa: BLE001 - forwarded to the driver
            payload = (type(error).__name__, str(error), traceback.format_exc())
            try:
                conn.send(("ack", seq, False, payload))
            except (OSError, BrokenPipeError):
                break
            continue
        try:
            conn.send(("ack", seq, True, result))
        except (OSError, BrokenPipeError):
            break
    for segment in segments.values():
        segment.close()
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
class _PendingEntry:
    __slots__ = ("ring_bytes", "on_result", "sink", "tag", "ring_half")

    def __init__(
        self,
        ring_bytes: int = 0,
        on_result: Callable[[Any], None] | None = None,
        sink: tuple[list, int] | None = None,
        tag: int | None = None,
        ring_half: int | None = None,
    ) -> None:
        self.ring_bytes = ring_bytes
        self.on_result = on_result
        self.sink = sink
        self.tag = tag
        self.ring_half = ring_half


class _WorkerHandle:
    """Driver-side state for one persistent worker process."""

    def __init__(self, pool: "ShardWorkerPool", index: int) -> None:
        self.pool = pool
        self.index = index
        parent_conn, child_conn = pool._ctx.Pipe(duplex=True)
        self.conn: Connection = parent_conn
        self.process = pool._ctx.Process(
            target=_worker_main,
            args=(child_conn, index),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._seq = itertools.count()
        self.pending: dict[int, _PendingEntry] = {}
        self.resident_keys: set[Any] = set()
        # Ring state (created lazily on the first array frame). The ring is
        # split into two halves, double-buffered: the driver writes frames
        # into the active half while the worker is still reading frames out
        # of the other, and flipping halves only waits for the *other*
        # half's acknowledgements — so driver-side hashing/scatter of batch
        # k+1 overlaps worker ingest of batch k.
        self.segment: shared_memory.SharedMemory | None = None
        self.segment_id = 0
        self.capacity = 0
        self.head = 0
        self.used = 0
        self.active_half = 0
        self.half_pending = [0, 0]

    # -- low-level messaging ------------------------------------------
    def crash(self, detail: str = "") -> WorkerCrashError:
        pid = self.process.pid
        return WorkerCrashError(self.index, pid, sorted(self.resident_keys, key=repr), detail)

    def send(self, message: tuple[Any, ...]) -> None:
        try:
            self.conn.send(message)
        except (OSError, BrokenPipeError, ValueError) as error:
            raise self.crash(f"pipe write failed ({error})") from error

    def _receive_ack(self, blocking: bool) -> bool:
        """Process one acknowledgement; return whether one was processed."""
        try:
            if not blocking and not self.conn.poll(0):
                return False
            message = self.conn.recv()
        except (EOFError, OSError) as error:
            raise self.crash("worker pipe closed") from error
        _, seq, ok, payload = message
        entry = self.pending.pop(seq)
        self.used -= entry.ring_bytes
        if entry.ring_half is not None:
            # Ring space is reclaimed whether the command succeeded or not —
            # the worker is done reading the frame either way.
            self.half_pending[entry.ring_half] -= 1
        if not ok:
            exc_type, exc_message, tb = payload
            raise RemoteTaskError(self.index, exc_type, exc_message, tb)
        if entry.tag is not None:
            # Successful acknowledgements only: a command that errored (or a
            # worker that died with commands in flight) must leave its tag
            # outstanding, so the durability watermark stays conservative.
            self.pool._tag_acked(entry.tag)
        if entry.on_result is not None:
            entry.on_result(payload)
        if entry.sink is not None:
            results, position = entry.sink
            results[position] = payload
        return True

    def poll_acks(self) -> None:
        while self.pending and self._receive_ack(blocking=False):
            pass

    def drain(self) -> None:
        while self.pending:
            self._receive_ack(blocking=True)

    def next_seq(self) -> int:
        return next(self._seq)

    def submit(
        self,
        message_tail: tuple[Any, ...],
        kind: str,
        ring_bytes: int = 0,
        on_result: Callable[[Any], None] | None = None,
        sink: tuple[list, int] | None = None,
        tag: int | None = None,
        ring_half: int | None = None,
    ) -> int:
        """Send one command, registering its pending acknowledgement."""
        while len(self.pending) >= _MAX_PENDING:
            self._receive_ack(blocking=True)
        seq = self.next_seq()
        self.pending[seq] = _PendingEntry(ring_bytes, on_result, sink, tag, ring_half)
        if ring_half is not None:
            self.half_pending[ring_half] += 1
        self.send((kind, seq, *message_tail))
        return seq

    def wait_for(self, seq: int) -> Any:
        """Block until ``seq`` is acknowledged; return its payload."""
        holder: list[Any] = [None]
        entry = self.pending.get(seq)
        if entry is None:
            raise EngineError(f"no pending command {seq} on worker {self.index}")
        entry.sink = (holder, 0)
        while seq in self.pending:
            self._receive_ack(blocking=True)
        return holder[0]

    # -- ring allocation ----------------------------------------------
    def _install_segment(self, capacity: int) -> None:
        """Create (or grow to) a ring segment of ``capacity`` bytes, synchronously."""
        old = self.segment
        old_id = self.segment_id
        segment = shared_memory.SharedMemory(create=True, size=capacity)
        self.segment_id += 1
        seq = self.submit(
            (self.segment_id, segment.name, old_id), kind="segment"
        )
        self.wait_for(seq)  # worker has opened the new segment / closed the old
        if old is not None:
            old.close()
            old.unlink()
        self.segment = segment
        self.capacity = capacity
        self.head = 0
        self.used = 0
        self.active_half = 0
        self.half_pending = [0, 0]

    def allocate(self, nbytes: int) -> tuple[int, int]:
        """Reserve ``nbytes`` of contiguous ring space; return (offset, half).

        The ring is double-buffered: frames go into the active half, and
        when it fills the driver flips to the other half — waiting only for
        *that* half's outstanding acknowledgements, so writes into one half
        overlap the worker's reads from the other. A frame larger than half
        the ring grows the segment (draining first, since frames never span
        segments).
        """
        if self.segment is None or nbytes > self.capacity // 2:
            self.drain()
            capacity = max(self.pool.ring_bytes, 1 << max(16, (2 * nbytes - 1).bit_length()))
            self._install_segment(capacity)
        half_capacity = self.capacity // 2
        base = self.active_half * half_capacity
        if self.head + nbytes > base + half_capacity:
            # Half-barrier wraparound: the other half may only be rewritten
            # once every frame written there has been acknowledged — the
            # ack proves the worker is done reading it (frames are
            # acknowledged strictly after the task consuming them returns).
            other = 1 - self.active_half
            while self.half_pending[other]:
                self._receive_ack(blocking=True)
            self.active_half = other
            self.head = other * half_capacity
        offset = self.head
        self.head += nbytes
        self.used += nbytes
        return offset, self.active_half

    def write_frame(
        self,
        arrays: dict[str, np.ndarray],
        scatters: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> tuple[list[tuple], int, int]:
        """Copy arrays into the ring; return (frame descriptors, bytes, half).

        ``arrays`` entries are copied wholesale. ``scatters`` entries are
        ``(source, indices)`` pairs gathered *directly into the ring*
        (``np.take(..., out=ring_view)``) — the fused scatter path: no
        intermediate per-worker copy materializes on the driver side.
        """
        contiguous = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
        scatters = scatters or {}
        total = sum(_aligned(array.nbytes) for array in contiguous.values())
        scatter_shapes: dict[str, tuple[int, ...]] = {}
        for name, (source, indices) in scatters.items():
            shape = (len(indices),) + source.shape[1:]
            scatter_shapes[name] = shape
            total += _aligned(
                source.dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            )
        offset, half = self.allocate(total)
        frames: list[tuple] = []
        assert self.segment is not None
        for name, array in contiguous.items():
            destination = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=self.segment.buf,
                offset=offset,
            )
            destination[...] = array
            frames.append(
                (name, self.segment_id, offset, array.dtype.str, array.shape)
            )
            offset += _aligned(array.nbytes)
        for name, (source, indices) in scatters.items():
            destination = np.ndarray(
                scatter_shapes[name],
                dtype=source.dtype,
                buffer=self.segment.buf,
                offset=offset,
            )
            np.take(source, indices, axis=0, out=destination)
            frames.append(
                (name, self.segment_id, offset, source.dtype.str, scatter_shapes[name])
            )
            offset += _aligned(destination.nbytes)
        return frames, total, half

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        try:
            self.conn.send(("close",))
        except (OSError, BrokenPipeError, ValueError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass
        if self.segment is not None:
            self.segment.close()
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.segment = None


def _ring_eligible(value: Any) -> bool:
    """Whether a value can ride the shared-memory ring (fixed-width ndarray)."""
    return (
        isinstance(value, np.ndarray)
        and not value.dtype.hasobject
        and value.nbytes > 0
    )


class ShardWorkerPool:
    """A pool of persistent worker processes hosting resident shard state.

    Parameters
    ----------
    max_workers:
        Number of worker processes; defaults to ``os.cpu_count()`` capped
        at 8 (shard work units are coarse).
    ring_bytes:
        Per-worker shared-memory ring capacity (default
        :data:`DEFAULT_RING_BYTES`).
    start_method:
        ``multiprocessing`` start method; defaults to
        ``REPRO_TRANSPORT_START_METHOD`` or ``"fork"`` where available
        (worker startup is then milliseconds, not an interpreter boot).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        start_method: str | None = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        self.ring_bytes = int(ring_bytes)
        method = start_method or os.environ.get("REPRO_TRANSPORT_START_METHOD")
        if method is None:
            import multiprocessing

            method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        self._ctx = get_context(method)
        self.num_workers = int(max_workers)
        self.workers: list[_WorkerHandle] = [
            _WorkerHandle(self, index) for index in range(self.num_workers)
        ]
        self._key_worker: dict[Any, int] = {}
        self._closed = False
        # Acknowledgement watermark state (see acked_through): tag ->
        # number of still-unacknowledged commands carrying it.
        self._tag_outstanding: dict[int, int] = {}
        self._last_tag: int | None = None

    # ------------------------------------------------------------------
    # resident objects
    # ------------------------------------------------------------------
    def worker_for(self, key: Any) -> int:
        """The worker index hosting ``key`` (raises if not attached)."""
        try:
            return self._key_worker[key]
        except KeyError:
            raise EngineError(f"no resident object attached under key {key!r}") from None

    def attach(
        self,
        key: Any,
        restore_fn: Callable[[Any], Any],
        state: Any,
        worker: int,
    ) -> None:
        """Install a resident object on a worker (state ships exactly once).

        ``restore_fn`` must be a module-level callable; it receives ``state``
        in the worker and returns the live object. Attach is pipelined —
        errors surface at the next drain.
        """
        self._check_open()
        if key in self._key_worker:
            raise EngineError(f"key {key!r} is already attached")
        index = worker % self.num_workers
        handle = self.workers[index]
        handle.submit((key, restore_fn, state), kind="attach")
        handle.resident_keys.add(key)
        self._key_worker[key] = index

    def apply(
        self,
        worker: int,
        fn: Callable[..., Any],
        kwargs: dict[str, Any] | None = None,
        arrays: dict[str, np.ndarray] | None = None,
        sync: bool = False,
        on_result: Callable[[Any], None] | None = None,
        tag: int | None = None,
        scatters: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> Any:
        """Run ``fn(residents, **kwargs)`` on one worker.

        ``arrays`` entries with fixed-width dtypes travel through the
        shared-memory ring (one memcpy in, zero-copy views out); object-dtype
        arrays and everything in ``kwargs`` are pickled over the pipe.
        ``scatters`` entries are ``(source, indices)`` pairs: the selected
        rows are gathered straight into the ring in one pass (the fused
        ingest path), falling back to a pickled driver-side gather for
        object dtypes. With ``sync=False`` (the pipelined default) the call
        returns immediately and ``on_result`` (if given) receives the
        task's return value when its acknowledgement is drained; with
        ``sync=True`` the result is returned directly.

        ``tag`` enrolls the command in the pool's acknowledgement watermark
        (:meth:`acked_through`): several commands may share one tag (a batch
        fanned out to every worker), and the tag counts as acknowledged only
        when all of them have succeeded. Tags must be issued in
        non-decreasing order.
        """
        self._check_open()
        handle = self.workers[worker % self.num_workers]
        handle.poll_acks()
        kwargs = dict(kwargs or {})
        frames: list[tuple] = []
        ring_bytes = 0
        ring_half: int | None = None
        ring_arrays: dict[str, np.ndarray] = {}
        ring_scatters: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if arrays:
            for name, value in arrays.items():
                if _ring_eligible(value):
                    ring_arrays[name] = value
                else:
                    kwargs[name] = value
        if scatters:
            for name, (source, indices) in scatters.items():
                if _ring_eligible(source) and len(indices):
                    ring_scatters[name] = (source, indices)
                else:
                    kwargs[name] = np.take(source, indices, axis=0)
        if ring_arrays or ring_scatters:
            frames, ring_bytes, ring_half = handle.write_frame(
                ring_arrays, ring_scatters
            )
        if tag is not None:
            tag = int(tag)
            if self._last_tag is not None and tag < self._last_tag:
                raise EngineError(
                    f"watermark tags must be non-decreasing: got {tag} after "
                    f"{self._last_tag}"
                )
            self._tag_outstanding[tag] = self._tag_outstanding.get(tag, 0) + 1
            self._last_tag = tag
        seq = handle.submit(
            (fn, kwargs, frames),
            kind="apply",
            ring_bytes=ring_bytes,
            on_result=on_result,
            tag=tag,
            ring_half=ring_half,
        )
        if sync:
            return handle.wait_for(seq)
        return None

    def _tag_acked(self, tag: int) -> None:
        remaining = self._tag_outstanding.get(tag, 0) - 1
        if remaining <= 0:
            self._tag_outstanding.pop(tag, None)
        else:
            self._tag_outstanding[tag] = remaining

    def acked_through(self) -> int | None:
        """Highest tag with every tagged command at or below it acknowledged.

        The durability watermark for pipelined dispatch: a driver that tags
        each batch's commands with the batch's sequence number can read off
        exactly which prefix of the stream the workers have fully processed
        — anything beyond it is pipelined-but-unacknowledged and must be
        replayed (not dropped) after a
        :class:`~repro.engine.errors.WorkerCrashError`. Commands that failed,
        or died with their worker, leave their tag outstanding forever, so
        the watermark never moves past a lost batch. ``None`` until the
        first tagged command is submitted.
        """
        if self._last_tag is None:
            return None
        if self._tag_outstanding:
            return min(self._tag_outstanding) - 1
        return self._last_tag

    # ------------------------------------------------------------------
    # health probes (failure detection)
    # ------------------------------------------------------------------
    def dead_workers(self) -> list[int]:
        """Indices of workers whose process is no longer alive.

        A non-blocking liveness probe (one ``waitpid(WNOHANG)`` per worker):
        a SIGKILLed, OOMed or segfaulted worker shows up here before its
        broken pipe would surface as a :class:`WorkerCrashError` on the next
        send/ack. Returns ``[]`` on a closed pool — close reaps every worker
        deliberately, which is not a failure.
        """
        if self._closed:
            return []
        return [
            handle.index for handle in self.workers if not handle.process.is_alive()
        ]

    def pending_commands(self) -> int:
        """Total submitted-but-unacknowledged commands across all workers.

        Together with :meth:`acked_through` this is the ack-staleness signal:
        a pool whose pending count stays positive while the watermark stops
        advancing has a wedged (or dead) worker.
        """
        return sum(len(handle.pending) for handle in self.workers)

    def worker_pids(self) -> list[int | None]:
        """The OS pid of each worker process, by worker index."""
        return [handle.process.pid for handle in self.workers]

    def snapshot(self, key: Any, snapshot_fn: Callable[[Any], Any]) -> Any:
        """Synchronously snapshot one resident object (it stays resident)."""
        self._check_open()
        handle = self.workers[self.worker_for(key)]
        seq = handle.submit((_snapshot_resident, {"key": key, "snapshot_fn": snapshot_fn}, []), kind="apply")
        return handle.wait_for(seq)

    def snapshot_async(
        self, fn: Callable[..., Any], kwargs: dict[str, Any] | None = None
    ) -> list[tuple[int, int]]:
        """Enqueue a snapshot *marker* on every worker; no ``drain()`` barrier.

        ``fn(residents, **kwargs)`` is a module-level callable that publishes
        a cut of the worker's resident objects (e.g.
        :func:`repro.engine.shards.service_snapshot_views`). The marker rides
        each worker's FIFO command pipe as an ordinary pipelined apply, so it
        executes *after* every command enqueued before it and *before* any
        enqueued after — the per-worker results together form a consistent
        cut at the enqueue point, streamed back as ordinary ack-side frames
        while later commands keep flowing underneath.

        Returns ``[(worker_index, seq), ...]`` markers; pass them to
        :meth:`collect` to gather the per-worker results.
        """
        self._check_open()
        markers: list[tuple[int, int]] = []
        for handle in self.workers:
            handle.poll_acks()
            seq = handle.submit((fn, dict(kwargs or {}), []), kind="apply")
            markers.append((handle.index, seq))
        return markers

    def collect(self, markers: list[tuple[int, int]]) -> list[Any]:
        """Wait for :meth:`snapshot_async` markers only; return their results.

        Not a barrier: each wait processes that worker's acknowledgements up
        to its marker (delivering any pending ``on_result`` callbacks along
        the way) and stops there — commands enqueued after a marker stay
        pipelined and in flight.
        """
        return [self.workers[worker].wait_for(seq) for worker, seq in markers]

    def detach(self, key: Any, snapshot_fn: Callable[[Any], Any] | None = None) -> Any:
        """Remove a resident object; return its final snapshot when asked.

        With ``snapshot_fn=None`` the detach is pipelined and the state is
        discarded worker-side; otherwise the call blocks and returns
        ``snapshot_fn(object)``.
        """
        self._check_open()
        index = self.worker_for(key)
        handle = self.workers[index]
        seq = handle.submit((key, snapshot_fn), kind="detach")
        handle.resident_keys.discard(key)
        del self._key_worker[key]
        if snapshot_fn is not None:
            return handle.wait_for(seq)
        return None

    # ------------------------------------------------------------------
    # generic map (the classic executor path)
    # ------------------------------------------------------------------
    def run_tasks(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Run ``fn`` over ``tasks`` round-robin across workers; ordered results."""
        self._check_open()
        if not tasks:
            return []
        results: list[Any] = [None] * len(tasks)
        for position, task in enumerate(tasks):
            handle = self.workers[position % self.num_workers]
            handle.submit((fn, task), kind="run", sink=(results, position))
        self.drain()
        return results

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Barrier: wait until every submitted command is acknowledged."""
        for handle in self.workers:
            handle.drain()

    @property
    def resident_keys(self) -> set[Any]:
        """Keys of every currently attached resident object."""
        return set(self._key_worker)

    def close(self) -> None:
        """Shut every worker down; resident state not detached first is lost."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            handle.close()
        self._key_worker.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("the shard worker pool has been closed")

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        # repro-lint: ignore[error-swallowing] -- __del__ runs during interpreter teardown where pipes/shm may already be gone; raising from a finalizer would only print an unraisable-exception warning
        except Exception:
            pass


def _snapshot_resident(residents: dict[Any, Any], key: Any, snapshot_fn: Callable[[Any], Any]) -> Any:
    """Worker-side helper behind :meth:`ShardWorkerPool.snapshot`."""
    return snapshot_fn(residents[key])
