"""Persistent shard workers with a zero-copy shared-memory transport.

A :class:`ShardWorkerPool` owns *long-lived* worker processes where shard
state is **resident**: a shard's snapshot crosses the process boundary when
the shard is attached and again only on snapshot/detach, never per batch.
Fixed-width arrays cross through a per-worker ``shared_memory`` ring: the
driver pays one ``memcpy`` in, the worker maps NumPy views onto the shared
pages — no pickle, no second copy.

Dispatch is **pipelined**: commands return once the frame is in the ring
and the command in the pipe; acknowledgements release ring space
(backpressure: a full ring blocks the driver until the worker catches up)
and deliver small results to driver-side callbacks. Each ring is
**double-buffered**: the driver fills one half while the worker reads the
other, and each new frame starts at the beginning of a half with nothing
unacknowledged in it, so a ring touches only the bytes in flight.
``drain()`` is the barrier; reads instead enqueue snapshot markers
(:meth:`ShardWorkerPool.snapshot_async`) that cut every worker at one
pipeline position.

Stream ingest is **staged**: :meth:`ShardWorkerPool.stage` copies runs of
rows back to back into the worker's *open window* frame in its ring, and
:meth:`ShardWorkerPool.send_staged` sends each open window as one command
(a :class:`WindowTask`) — one command per worker per ingest window, not per
batch; :meth:`ShardWorkerPool.stage_shards` stages one routed batch, each
shard's rows on the worker hosting it. A window's frame never spans ring
halves or segments: rows that do not fit the active half, or would grow
the segment, send the open window first, and so does any other command to
the worker, so staging never reorders the worker's FIFO pipe. (The serial
backend's :class:`~repro.engine.executors.InProcessShardHost` offers the
same shard-host surface in process.) Control messages (``segment``,
``attach``, ``apply``, ``detach``, ``close``) are pickled over that pipe,
so operations on one resident object run in exactly the order the driver
issued them — which keeps resident trajectories bit-identical to serial.

Functions shipped by reference must be module-level (code is deployed,
state is shipped), and tasks must not retain ring-backed views beyond
their call: ring space is reused once the command is acknowledged. A dead
worker raises :class:`~repro.engine.errors.WorkerCrashError`, an exception
inside a task :class:`~repro.engine.errors.RemoteTaskError`; the passive
probes :meth:`ShardWorkerPool.dead_workers`,
:meth:`ShardWorkerPool.pending_commands` and
:meth:`ShardWorkerPool.acked_through` let a failure detector spot a dead
or wedged worker without blocking.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.errors import EngineError, RemoteTaskError, WorkerCrashError

__all__ = ["ShardWorkerPool", "WindowTask", "DEFAULT_RING_BYTES"]

#: Per-worker ring capacity. Each half holds a whole ingest window's frame
#: even when nothing is thinned (eight unthinned 100k-item int64 batches
#: over two workers take about 3.2 MB per worker; thinned R-TBS windows take
#: tens of KB), so a window is staged while the worker ingests the previous
#: one. Frames restart at a drained half's start, so only the bytes in
#: flight are ever touched and an idle capacity costs address space, not
#: resident memory. Override with ``REPRO_TRANSPORT_RING_MB`` for
#: constrained machines (smaller halves just send windows early).
DEFAULT_RING_BYTES = int(os.environ.get("REPRO_TRANSPORT_RING_MB", "16")) * 1024 * 1024  # repro-lint: ignore[env-config] -- CI's small-ring step reruns the transport suites with 1 MB rings through this variable

_ALIGN = 64
#: Cap on unacknowledged commands per worker, bounding pickled (non-ring)
#: payload buffered in the pipe.
_MAX_PENDING = 256

#: How often an idle worker wakes to check whether its driver still exists.
_ORPHAN_POLL_SECONDS = 1.0


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _ring_dtype(dtype: np.dtype) -> bool:
    """Whether arrays of ``dtype`` can ride the shared-memory ring."""
    return not dtype.hasobject and dtype.itemsize > 0


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

    while True:
        try:
            # Orphan watchdog: a driver killed outright never sends "close",
            # and EOF may never arrive (later workers inherited the driver's
            # end of this pipe). Exit once re-parented.
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
                for name, segment_id, offset, dtype_str, shape in frames:
                    kwargs[name] = np.ndarray(
                        shape, np.dtype(dtype_str), segments[segment_id].buf, offset
                    )
                result = fn(residents, **kwargs)
            elif kind == "detach":
                _, _, key, snapshot_fn = message
                obj = residents.pop(key)
                result = snapshot_fn(obj) if snapshot_fn is not None else None
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
@dataclass(frozen=True, eq=False)
class WindowTask:
    """The command a worker's staged window is sent as.

    The worker runs ``fn(residents, payload=rows, entries=entries, **kwargs)``
    with every staged run back to back in ``rows`` (a ring view; a pickled
    array for object dtypes) and each :meth:`ShardWorkerPool.stage` call's
    ``entry`` in ``entries``, in staging order. ``on_result`` receives the
    return value on acknowledgement. The in-process host runs it with
    ``payload=None`` (see :meth:`InProcessShardHost.stage_shards
    <repro.engine.executors.InProcessShardHost.stage_shards>`).
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    on_result: Callable[[Any], None] | None = None


@dataclass(slots=True)
class _Window:
    """A worker's open window: staged rows not yet sent as a command."""

    task: WindowTask
    dtype: np.dtype
    #: Ring offset of the first row and the half holding the rows; ``None``
    #: for object dtypes, whose rows collect in ``chunks`` instead.
    offset: int | None = None
    half: int | None = None
    rows: int = 0
    chunks: list[np.ndarray] = field(default_factory=list)
    entries: list[Any] = field(default_factory=list)
    #: The first staged batch's watermark tag (see ``acked_through``).
    tag: int | None = None


@dataclass(slots=True)
class _PendingEntry:
    on_result: Callable[[Any], None] | None = None
    sink: tuple[list, int] | None = None
    tag: int | None = None
    ring_half: int | None = None


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
        # Ring state, created lazily on the first frame. The driver writes
        # into the active half while the worker still reads the other, and
        # flipping halves waits only for the *other* half's acknowledgements.
        self.segment: shared_memory.SharedMemory | None = None
        self.segment_id = 0
        self.capacity = 0
        self.head = 0
        self.active_half = 0
        self.half_pending = [0, 0]
        #: Furthest offset within a half any frame has reached in this segment.
        self.high_water = 0
        self.window: _Window | None = None

    # -- low-level messaging ------------------------------------------
    def crash(self, detail: str = "") -> WorkerCrashError:
        pid = self.process.pid
        return WorkerCrashError(self.index, pid, sorted(self.resident_keys, key=repr), detail)

    def send(self, message: tuple[Any, ...]) -> None:
        try:
            self.conn.send(message)
        except (OSError, BrokenPipeError, ValueError) as error:
            # The cause keeps no traceback: the failed write's frames hold a
            # view over the pickled message's BytesIO, and in a reference
            # cycle the collector may free the BytesIO before the view (an
            # unraisable BufferError under whatever runs next).
            raise self.crash(f"pipe write failed ({error})") from error.with_traceback(None)

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
        self.send_window()
        while self.pending:
            self._receive_ack(blocking=True)

    def submit(self, message_tail: tuple[Any, ...], kind: str, **entry: Any) -> int:
        """Send one command, registering its pending acknowledgement.

        ``entry`` fills the command's :class:`_PendingEntry`. An open window
        is sent first, so commands run in the order their data arrived.
        """
        self.send_window()
        while len(self.pending) >= _MAX_PENDING:
            self._receive_ack(blocking=True)
        seq = next(self._seq)
        pending = self.pending[seq] = _PendingEntry(**entry)
        if pending.ring_half is not None:
            self.half_pending[pending.ring_half] += 1
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
        # Wait until the worker has opened the new segment and closed the old.
        self.wait_for(self.submit((self.segment_id, segment.name, old_id), kind="segment"))
        if old is not None:
            old.close()
            old.unlink()
        self.segment = segment
        self.capacity = capacity
        self.head = 0
        self.active_half = 0
        self.half_pending = [0, 0]
        self.high_water = 0

    def _half_end(self) -> int:
        return (self.active_half + 1) * (self.capacity // 2)

    def _advance(self, nbytes: int) -> None:
        """Move the head past ``nbytes`` of frame, tracking the high water."""
        self.head += nbytes
        reached = self.head - self.active_half * (self.capacity // 2)
        self.high_water = max(self.high_water, reached)

    def allocate(self, nbytes: int) -> tuple[int, int]:
        """Reserve ``nbytes`` of contiguous ring space; return (offset, half).

        A frame starts at the beginning of a half with no unacknowledged
        frame: the active half if it is free, else the other half (an early
        flip). Only while both halves hold unacknowledged frames does it go
        after the active half's frames; one that does not fit there waits
        for the other half's acknowledgements and flips. A frame larger than
        half the ring grows the segment (draining first: frames never span
        segments). An open window is sent first, so a window's frame is
        always the last allocation and may grow in place.
        """
        self.send_window()
        if self.segment is None or nbytes > self.capacity // 2:
            self.drain()
            capacity = max(self.pool.ring_bytes, 1 << max(16, (2 * nbytes - 1).bit_length()))
            self._install_segment(capacity)
        # A half is rewritten only once every frame written there has been
        # acknowledged — the ack proves the worker is done reading it
        # (frames are acknowledged strictly after the task consuming them
        # returns).
        other = 1 - self.active_half
        if not self.half_pending[self.active_half]:
            self.head = self.active_half * (self.capacity // 2)
        elif not self.half_pending[other] or self.head + nbytes > self._half_end():
            while self.half_pending[other]:
                self._receive_ack(blocking=True)
            self.active_half = other
            self.head = other * (self.capacity // 2)
        offset = self.head
        self._advance(nbytes)
        return offset, self.active_half

    def _ring_view(self, shape: tuple[int, ...], dtype: np.dtype, offset: int) -> np.ndarray:
        assert self.segment is not None
        return np.ndarray(shape, dtype=dtype, buffer=self.segment.buf, offset=offset)

    def write_frame(self, arrays: dict[str, np.ndarray]) -> tuple[list[tuple], int]:
        """Copy arrays into the ring; return (frame descriptors, ring half)."""
        contiguous = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
        total = sum(_aligned(array.nbytes) for array in contiguous.values())
        offset, half = self.allocate(total)
        frames: list[tuple] = []
        for name, array in contiguous.items():
            self._ring_view(array.shape, array.dtype, offset)[...] = array
            frames.append((name, self.segment_id, offset, array.dtype.str, array.shape))
            offset += _aligned(array.nbytes)
        return frames, half

    # -- staged windows ------------------------------------------------
    def stage(
        self,
        task: WindowTask,
        source: np.ndarray,
        runs: Sequence[tuple[int, int]],
        entry: Any,
        tag: int | None,
    ) -> None:
        """Append ``source[start:stop]`` for every run to the open window."""
        rows = sum(stop - start for start, stop in runs)
        nbytes = rows * source.dtype.itemsize
        ring = _ring_dtype(source.dtype)
        window = self.window
        if window is not None and (
            window.task is not task
            or window.dtype != source.dtype
            or (ring and self.head + nbytes > self._half_end())
        ):
            self.send_window()
            window = None
        if window is None:
            window = _Window(task, source.dtype)
            if ring:
                window.offset, window.half = self.allocate(nbytes)
            self.window = window
        elif ring:
            self._advance(nbytes)
        if tag is not None:
            # The window counts as outstanding from its first tagged batch
            # on, so staged batches hold the watermark back like sent ones.
            self.pool._issue_tag(tag, outstanding=window.tag is None)
            if window.tag is None:
                window.tag = tag
        if window.offset is not None:
            start_offset = window.offset + window.rows * source.dtype.itemsize
            destination = self._ring_view((rows,), source.dtype, start_offset)
            position = 0
            for start, stop in runs:
                destination[position : position + stop - start] = source[start:stop]
                position += stop - start
        else:
            window.chunks.extend(source[start:stop] for start, stop in runs)
        window.rows += rows
        window.entries.append(entry)

    def send_window(self) -> None:
        """Send the open window (if any) as one command."""
        window, self.window = self.window, None
        if window is None:
            return
        kwargs = {**window.task.kwargs, "entries": window.entries}
        frames: list[tuple] = []
        if window.offset is not None and window.rows:
            # Pad the head back onto the alignment grid (never past the
            # half's end) so the next frame starts aligned.
            self.head = min(_aligned(self.head), self._half_end())
            frames.append(
                ("payload", self.segment_id, window.offset, window.dtype.str, (window.rows,))
            )
        elif window.chunks:
            kwargs["payload"] = np.concatenate(window.chunks)
        else:
            kwargs["payload"] = np.empty(0, dtype=window.dtype)
        self.submit(
            (window.task.fn, kwargs, frames),
            kind="apply",
            on_result=window.task.on_result,
            tag=window.tag,
            ring_half=window.half if frames else None,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # The open window is discarded, never sent: whoever closes the pool
        # condemned the state it describes.
        self.window = None
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


@functools.cache
def _malloc_trim() -> Callable[[ctypes.c_size_t], int] | None:
    """glibc's ``malloc_trim``, or ``None`` where libc does not export it."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:  # pragma: no cover - a statically linked interpreter
        return None
    trim: Callable[[ctypes.c_size_t], int] | None = getattr(libc, "malloc_trim", None)
    return trim


def _release_free_heap() -> None:
    """Return the free pages of this process's heap to the OS (glibc only).

    A forked child starts with a copy of every resident anonymous page of
    its parent, free heap that ``malloc`` is holding included; trimming
    first means each worker inherits only the driver's live memory. A
    no-op where libc has no ``malloc_trim`` (musl, macOS).
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(ctypes.c_size_t(0))


def _process_memory(pid: int | None) -> dict[str, int | None]:
    """``VmRSS`` and ``VmHWM`` of ``pid`` in bytes, ``None`` if unreadable."""
    fields = {b"VmRSS:": "rss_bytes", b"VmHWM:": "peak_rss_bytes"}
    memory: dict[str, int | None] = dict.fromkeys(fields.values())
    if pid is None:
        return memory
    try:
        with open(f"/proc/{pid}/status", "rb") as status:
            lines = status.read().splitlines()
    except OSError:  # no procfs, or the process is gone
        return memory
    for line in lines:
        parts = line.split()
        if parts and parts[0] in fields:
            memory[fields[parts[0]]] = int(parts[1]) * 1024
    return memory


class ShardWorkerPool:
    """A pool of persistent worker processes hosting resident shard state.

    ``max_workers`` defaults to ``os.cpu_count()`` capped at 8;
    ``ring_bytes`` is the per-worker ring capacity (at least 64 KiB is
    used). Workers start by ``fork`` where the platform has it (startup is
    then milliseconds), else by ``spawn``. Before forking, the driver
    returns its free heap pages to the OS, so each worker starts with only
    the driver's live memory; :meth:`worker_memory` reports each worker's
    resident and peak memory.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        self.ring_bytes = int(ring_bytes)
        forkable = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if forkable else "spawn")
        if forkable:
            _release_free_heap()
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
        self, key: Any, restore_fn: Callable[[Any], Any], state: Any, worker: int
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

    def adopt(
        self,
        key: Any,
        obj: Any,
        worker: int,
        snapshot_fn: Callable[[Any], Any],
        restore_fn: Callable[[Any], Any],
    ) -> None:
        """Attach a live driver object: ``snapshot_fn(obj)`` ships, ``restore_fn`` rebuilds it."""
        self.attach(key, restore_fn, snapshot_fn(obj), worker)

    def apply(
        self,
        worker: int,
        fn: Callable[..., Any],
        kwargs: dict[str, Any] | None = None,
        arrays: dict[str, np.ndarray] | None = None,
        sync: bool = False,
        on_result: Callable[[Any], None] | None = None,
        tag: int | None = None,
    ) -> Any:
        """Run ``fn(residents, **kwargs)`` on one worker.

        Fixed-width ``arrays`` travel through the ring; object arrays and
        ``kwargs`` are pickled. Pipelined unless ``sync=True`` (which
        returns the result); ``on_result`` receives it on acknowledgement.
        ``tag`` enrolls the command in :meth:`acked_through`: commands may
        share a tag (a batch fanned out to every worker), which counts as
        acknowledged once all of them succeed. Tags must be non-decreasing.
        """
        self._check_open()
        handle = self.workers[worker % self.num_workers]
        handle.poll_acks()
        kwargs = dict(kwargs or {})
        ring_arrays: dict[str, np.ndarray] = {}
        for name, value in (arrays or {}).items():
            ring = isinstance(value, np.ndarray) and _ring_dtype(value.dtype)
            if ring and value.nbytes > 0:
                ring_arrays[name] = value
            else:
                kwargs[name] = value
        frames: list[tuple] = []
        ring_half: int | None = None
        if ring_arrays:
            frames, ring_half = handle.write_frame(ring_arrays)
        if tag is not None:
            tag = int(tag)
            self._issue_tag(tag, outstanding=True)
        seq = handle.submit(
            (fn, kwargs, frames),
            kind="apply",
            on_result=on_result,
            tag=tag,
            ring_half=ring_half,
        )
        return handle.wait_for(seq) if sync else None

    def stage(
        self,
        worker: int,
        task: WindowTask,
        source: np.ndarray,
        runs: Sequence[tuple[int, int]],
        entry: Any,
        tag: int | None = None,
    ) -> None:
        """Stage rows for ``task`` in one worker's open window (pipelined).

        Copies ``source[start:stop]`` for every run behind the rows staged
        before and records ``entry``. Nothing is sent until
        :meth:`send_staged`, unless the window must close early: a different
        ``task`` (by identity) or dtype, rows that do not fit the active
        ring half, or any other command to the worker. ``tag`` is as in
        :meth:`apply`; the window holds :meth:`acked_through` below its first
        tagged batch until acknowledged. Closing the pool discards it unsent.
        """
        self._check_open()
        handle = self.workers[worker % self.num_workers]
        handle.poll_acks()
        handle.stage(task, source, runs, entry, None if tag is None else int(tag))

    def stage_shards(
        self,
        task: WindowTask,
        rows: np.ndarray,
        sub_batches: Sequence[tuple[int, np.ndarray, int | None]],
        time: float,
        tag: int | None = None,
    ) -> None:
        """Stage one routed batch: each shard's rows in the window of its worker.

        ``sub_batches`` lists ``(shard_id, shard_rows, arrivals)`` per
        receiving shard, their rows lying back to back in ``rows`` in list
        order. Shard ``s`` lives on worker ``s % num_workers`` (where
        :meth:`adopt` puts it when given ``worker=s``), which receives its
        shards' runs and the entry ``(time, [(shard_id, count, arrivals),
        ...])`` that :func:`~repro.engine.shards.service_ingest_window`
        cuts them by. ``tag`` is as in :meth:`stage`.
        """
        num_workers = self.num_workers
        runs: list[list[tuple[int, int]]] = [[] for _ in range(num_workers)]
        entries: list[list[tuple[int, int, int | None]]] = [[] for _ in range(num_workers)]
        start = 0
        for shard_id, shard_rows, arrivals in sub_batches:
            worker = shard_id % num_workers
            runs[worker].append((start, start + len(shard_rows)))
            entries[worker].append((shard_id, len(shard_rows), arrivals))
            start += len(shard_rows)
        for worker in range(num_workers):
            if entries[worker]:
                self.stage(
                    worker, task, rows, runs[worker], (float(time), entries[worker]), tag
                )

    def send_staged(self) -> None:
        """Send every worker's open window as one command each (pipelined)."""
        self._check_open()
        for handle in self.workers:
            handle.send_window()

    def _issue_tag(self, tag: int, outstanding: bool) -> None:
        """Record an issued watermark tag, counting it outstanding if asked."""
        if self._last_tag is not None and tag < self._last_tag:
            raise EngineError(
                f"watermark tags must be non-decreasing: got {tag} after "
                f"{self._last_tag}"
            )
        if outstanding:
            self._tag_outstanding[tag] = self._tag_outstanding.get(tag, 0) + 1
        self._last_tag = tag

    def _tag_acked(self, tag: int) -> None:
        remaining = self._tag_outstanding.pop(tag, 0) - 1
        if remaining > 0:
            self._tag_outstanding[tag] = remaining

    def acked_through(self) -> int | None:
        """Highest tag with every tagged command at or below it acknowledged.

        The durability watermark: with each batch tagged by its sequence
        number, everything beyond it is in flight and must be replayed after
        a :class:`~repro.engine.errors.WorkerCrashError`. Failed or lost
        commands leave their tag outstanding forever, and a staged window
        counts from its first tagged batch, sent or not. ``None`` until the
        first tag is issued.
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
        """Indices of dead worker processes (one ``waitpid(WNOHANG)`` each).

        ``[]`` on a closed pool: close reaps every worker deliberately.
        """
        if self._closed:
            return []
        return [
            handle.index for handle in self.workers if not handle.process.is_alive()
        ]

    def pending_commands(self) -> int:
        """Submitted-but-unacknowledged commands across all workers.

        Positive while :meth:`acked_through` stops advancing: a wedged worker.
        """
        return sum(len(handle.pending) for handle in self.workers)

    def worker_pids(self) -> list[int | None]:
        """The OS pid of each worker process, by worker index."""
        return [handle.process.pid for handle in self.workers]

    def ring_usage(self) -> list[dict[str, int]]:
        """Per-worker ring gauge, by worker index; driver-side, no round-trip.

        ``ring_bytes`` is the segment capacity (0 before the first frame);
        ``ring_high_water_bytes`` is the furthest offset within a half that
        any frame has reached since the segment was installed.
        """
        return [
            {"ring_bytes": handle.capacity, "ring_high_water_bytes": handle.high_water}
            for handle in self.workers
        ]

    def worker_memory(self) -> list[dict[str, int | None]]:
        """Per-worker memory gauge in bytes, by worker index.

        ``rss_bytes`` and ``peak_rss_bytes`` are the worker's ``VmRSS`` and
        ``VmHWM`` from ``/proc/<pid>/status``; both are ``None`` where that
        file cannot be read (no procfs, or the worker is gone), and on a
        closed pool, whose reaped pids the OS may have reused.
        """
        return [
            _process_memory(None if self._closed else handle.process.pid)
            for handle in self.workers
        ]

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

        ``fn(residents, **kwargs)`` publishes a cut of the worker's resident
        objects (e.g. :func:`repro.engine.shards.service_snapshot_views`).
        Each marker rides its worker's FIFO pipe as a pipelined apply, so
        the per-worker results form one consistent cut at the enqueue point.
        Returns ``[(worker_index, seq), ...]`` markers for :meth:`collect`.
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

        Not a barrier: commands enqueued after a marker stay in flight.
        """
        return [self.workers[worker].wait_for(seq) for worker, seq in markers]

    def detach(self, key: Any, snapshot_fn: Callable[[Any], Any] | None = None) -> Any:
        """Remove a resident object; return ``snapshot_fn(object)`` if given.

        Without ``snapshot_fn`` the detach is pipelined and the state dropped.
        """
        self._check_open()
        index = self.worker_for(key)
        handle = self.workers[index]
        seq = handle.submit((key, snapshot_fn), kind="detach")
        handle.resident_keys.discard(key)
        del self._key_worker[key]
        return handle.wait_for(seq) if snapshot_fn is not None else None

    def release(
        self, key: Any, snapshot_fn: Callable[[Any], Any], restore_fn: Callable[[Any], Any]
    ) -> Any:
        """Detach a resident object and rebuild it live on the driver."""
        return restore_fn(self.detach(key, snapshot_fn))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Barrier: send every open window, then wait for every acknowledgement."""
        for handle in self.workers:
            handle.drain()

    @property
    def resident_keys(self) -> set[Any]:
        """Keys of every currently attached resident object."""
        return set(self._key_worker)

    def close(self) -> None:
        """Shut every worker down; resident state not detached is lost.

        Open windows are discarded with it, never sent.
        """
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
