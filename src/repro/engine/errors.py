"""Engine-level error types.

Every failure the execution engine can surface to a caller is an
:class:`EngineError`, so service- and distributed-layer code can catch one
exception type instead of backend-specific ones (``BrokenProcessPool``,
``BrokenPipeError``, raw ``EOFError`` from a dead pipe). The two concrete
kinds:

* :class:`WorkerCrashError` — a persistent shard worker process died. The
  message names the worker (index and pid) and lists the resident shard
  state that was lost with it, because that state is *authoritative* while
  resident: the only way back is the last checkpoint.
* :class:`RemoteTaskError` — a task function raised inside a worker. The
  worker itself is fine; the original exception's type, message and
  traceback text are carried along for debugging.
* :class:`FailoverError` — a supervised failover (warm-standby promotion in
  :mod:`repro.service.replication`) could not complete: no standby is
  configured, the failover budget is exhausted, the log holds another
  shard layout than the service, or committed batches are missing from
  the log. When this is raised the service is back in the
  offline-recovery regime: restore from the last checkpoint.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["EngineError", "WorkerCrashError", "RemoteTaskError", "FailoverError"]


class EngineError(RuntimeError):
    """Base class for failures raised by the execution engine."""


class WorkerCrashError(EngineError):
    """A persistent worker process died (killed, OOM, segfault, lost pipe)."""

    def __init__(
        self,
        worker_index: int,
        pid: int | None = None,
        resident_keys: Sequence[object] = (),
        detail: str = "",
    ) -> None:
        self.worker_index = int(worker_index)
        self.pid = pid
        self.resident_keys = list(resident_keys)
        who = f"shard worker {worker_index}" + (f" (pid {pid})" if pid else "")
        message = f"{who} died"
        if detail:
            message += f": {detail}"
        if self.resident_keys:
            message += (
                f"; resident shard state lost for {self.resident_keys} — "
                "restore the service from its last checkpoint"
            )
        super().__init__(message)


class FailoverError(EngineError):
    """A warm-standby promotion was requested but could not complete."""

    def __init__(self, detail: str, cause: EngineError | None = None) -> None:
        self.cause = cause
        message = f"failover failed: {detail}"
        if cause is not None:
            message += f" (triggered by: {cause})"
        super().__init__(message)


class RemoteTaskError(EngineError):
    """A task raised inside a worker process; the worker survived."""

    def __init__(self, worker_index: int, exc_type: str, exc_message: str, traceback_text: str = "") -> None:
        self.worker_index = int(worker_index)
        self.exc_type = exc_type
        self.exc_message = exc_message
        self.traceback_text = traceback_text
        message = f"task failed on shard worker {worker_index}: {exc_type}: {exc_message}"
        if traceback_text:
            message += f"\n--- worker traceback ---\n{traceback_text}"
        super().__init__(message)
