"""Outside-in span tracing: time the calls into each layer's public functions.

The traced run wraps the functions each layer of the service exposes — from
this file, never from inside the program — and records one span per call.
Spans nest per thread, so a layer's *self time* is its span's duration minus
the part its child spans cover, and the self times of one batch add up to
the time the benchmark spent inside the service for it.

Every span is filed under the benchmark operation that caused it (the
outermost frame of its thread's stack: ``ingest``, ``read``, ``checkpoint``,
``tail`` or ``recover``), so per-batch, per-read and per-checkpoint costs
stay apart even when a layer serves several operations (``snapshot`` serves
reads and checkpoints alike).

Name binding matters. ``repro.service.service`` imports the routing
functions by name, so they are wrapped where it looks them up;
``save_service_delta`` and ``load_service_delta`` are imported inside the
functions that call them, so wrapping the ``repro.service.checkpoint``
module attribute is enough. Sampler calls that run in forked transport
workers are invisible here: on the process backend the workers' cost shows
up as ``transport.drain`` and ring-space waits inside ``transport.apply``.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Target", "Tracer", "layer_targets", "installed"]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``getattr(owner, attr)`` becomes a span ``span``.

    ``fresh`` marks calls that take a fresh snapshot cut (the read missed
    the service's cut cache). ``counter`` turns the wrapper into a byte
    counter instead of a span: ``counter(args)`` gives the amount to add.
    """

    owner: Any
    attr: str
    span: str
    fresh: bool = False
    counter: Callable[[tuple], float] | None = None


def _appended_bytes(args: tuple) -> float:
    """Bytes one ``_LogFile.append(self, chunks)`` call writes."""
    return float(sum(memoryview(chunk).nbytes for chunk in args[1]))


def layer_targets() -> list[Target]:
    """The public functions of every layer, as the service calls them."""
    import repro.core.base as core_base
    import repro.core.rtbs as core_rtbs
    import repro.engine.transport as transport
    import repro.service.checkpoint as checkpoint
    import repro.service.replication as replication
    import repro.service.service as service
    import repro.service.wal as wal

    sampler_service = service.SamplerService
    pool = transport.ShardWorkerPool
    log = wal.WriteAheadLog
    return [
        Target(service, "shard_ids_for_keys", "routing.hash"),
        Target(service, "split_order", "routing.group"),
        Target(service, "split_by_shard", "routing.group"),
        Target(core_base.Sampler, "process_stream", "core.process_stream"),
        Target(core_rtbs.RTBS, "snapshot_view", "core.snapshot_view", fresh=True),
        Target(sampler_service, "ingest", "service.ingest"),
        Target(sampler_service, "ingest_batch", "service.ingest"),
        Target(sampler_service, "flush", "service.flush"),
        Target(sampler_service, "checkpoint", "service.checkpoint"),
        Target(sampler_service, "snapshot", "service.snapshot"),
        Target(sampler_service, "stats", "service.stats"),
        Target(service.ServiceSnapshot, "sample_items", "service.materialize"),
        Target(log, "append_batch", "wal.append"),
        Target(log, "flush", "wal.flush"),
        Target(log, "truncate", "wal.truncate"),
        Target(log, "collect_replay", "wal.collect_replay"),
        Target(wal._LogFile, "append", "wal.bytes", counter=_appended_bytes),
        Target(wal, "recover_service", "wal.recover"),
        Target(pool, "apply", "transport.apply"),
        Target(pool, "drain", "transport.drain"),
        Target(pool, "snapshot_async", "transport.snapshot", fresh=True),
        Target(pool, "collect", "transport.snapshot"),
        Target(replication.ShardReplicaSet, "catch_up", "replication.catch_up"),
        Target(replication.FailureDetector, "check", "replication.check"),
        Target(checkpoint, "save_service_delta", "checkpoint.save"),
        Target(checkpoint, "load_service_delta", "checkpoint.load"),
    ]


class _ThreadLog:
    """One thread's span stack and its (operation, span) totals."""

    def __init__(self, role: str) -> None:
        self.role = role
        #: Open frames, outermost first: ``[name, child_seconds, fresh]``.
        self.stack: list[list[Any]] = []
        self.seconds: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.counters: dict[tuple[str, str], float] = {}

    def operation(self) -> str:
        return self.stack[0][0] if self.stack else "none"


class Tracer:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self.set_role(threading.current_thread().name)
        return log

    def set_role(self, role: str) -> _ThreadLog:
        """Name the calling thread's spans (``writer``, ``reader``)."""
        log = _ThreadLog(role)
        self._local.log = log
        with self._lock:
            self._logs.append(log)
        return log

    @contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """A benchmark operation: the outermost frame every span files under."""
        log = self._log()
        if log.stack:
            raise RuntimeError(f"operation {name!r} opened inside {log.operation()!r}")
        frame = [name, 0.0, False]
        log.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            log.stack.pop()
            self._add(log, (name, "bench"), elapsed - frame[1])
            self._add(log, (name, "wall"), elapsed)

    @staticmethod
    def _add(log: _ThreadLog, key: tuple[str, str], seconds: float) -> None:
        log.seconds[key] = log.seconds.get(key, 0.0) + seconds
        log.calls[key] = log.calls.get(key, 0) + 1

    def wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as span ``target.span`` (or counted, for counters)."""
        log_for = self._log
        name = target.span
        if target.counter is not None:
            measure = target.counter

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                log = log_for()
                key = (log.operation(), name)
                log.counters[key] = log.counters.get(key, 0.0) + measure(args)
                return fn(*args, **kwargs)

            return counted
        fresh = target.fresh
        add = self._add

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = log_for()
            stack = log.stack
            if fresh and stack and stack[0][0] == "read" and not stack[0][2]:
                stack[0][2] = True
                key = ("read", "fresh_cuts")
                log.counters[key] = log.counters.get(key, 0.0) + 1.0
            frame = [name, 0.0, False]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                add(log, (stack[0][0] if stack else "none", name), elapsed - frame[1])

        return traced

    def totals(self, roles: tuple[str, ...] | None = None) -> tuple[
        dict[tuple[str, str], float], dict[tuple[str, str], int], dict[tuple[str, str], float]
    ]:
        """Summed ``(seconds, calls, counters)`` by (operation, span), over ``roles``."""
        seconds: dict[tuple[str, str], float] = {}
        calls: dict[tuple[str, str], int] = {}
        counters: dict[tuple[str, str], float] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            if roles is not None and log.role not in roles:
                continue
            for key, value in log.seconds.items():
                seconds[key] = seconds.get(key, 0.0) + value
            for key, count in log.calls.items():
                calls[key] = calls.get(key, 0) + count
            for key, value in log.counters.items():
                counters[key] = counters.get(key, 0.0) + value
        return seconds, calls, counters


@contextmanager
def installed(tracer: Tracer, targets: list[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore it.

    Restoration puts back exactly what the owner held: an attribute the
    owner defined itself is reassigned, one it inherited is deleted again,
    so nothing leaks into the next workload — even when the block raises.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = vars(target.owner).get(target.attr, _MISSING)
            current = getattr(target.owner, target.attr)
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, tracer.wrap(target, current))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
