"""Summary statistics, memory and machine context for benchmark results."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import resource
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: int) -> float | None:
    """The nearest-rank ``q``-th percentile, or ``None`` if the tail is too thin.

    A percentile means something only when enough samples lie beyond it, so
    this returns ``None`` unless at least :data:`MIN_BEYOND` samples rank
    above it: the median needs 20 samples, the 99th percentile 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    count = len(values)
    rank = -(-q * count // 100)  # ceil(q * count / 100), the 1-based rank
    if count == 0 or count - rank < MIN_BEYOND:
        return None
    return float(np.sort(np.asarray(values, dtype=np.float64))[rank - 1])


def peak_rss_mb(worker_peaks_mb: Sequence[float] = ()) -> float:
    """Peak resident memory of this process plus each worker's peak, in MB.

    ``ru_maxrss`` is in KiB on Linux. The workers' peaks are read while they
    run (see ``workloads._worker_peaks_mb``); pages a forked worker still
    shares with this process count once in each.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return own + math.fsum(worker_peaks_mb)


def stop_child_processes(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has exited.

    Services close their worker pools themselves; any child still alive here
    is terminated. Shared memory also starts ``multiprocessing``'s resource
    tracker, which otherwise runs on after this process exits until it reads
    end-of-file. Closing its pipe ends it; it ignores SIGTERM, so one that
    has not exited within ``timeout`` seconds is killed.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    deadline = perf_counter() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if perf_counter() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, when ``root`` is itself a git work tree.

    Read from ``.git`` directly, so the run needs no ``git`` executable.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def speed_probe() -> float:
    """Seconds a fixed NumPy-plus-interpreter loop takes right now.

    The same loop takes about 30% to 75% longer when the machine is shared
    and busy, so the probe shows which state a run's figures come from.
    """
    values = np.random.default_rng(0).integers(0, 2**62, 100_000)
    start = perf_counter()
    for _ in range(100):
        np.argsort(values.astype(np.uint8), kind="stable")
        sum(range(5_000))
    return perf_counter() - start


def machine(root: Path, seed: int, seconds: float) -> dict[str, Any]:
    """The run context every result is recorded with."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        # os.uname, not platform.platform(), which runs ``uname -p`` as a
        # child process.
        "platform": "{0.sysname}-{0.release}-{0.machine}".format(os.uname()),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "seed": seed,
        "seconds": seconds,
        "speed_probe_s": speed_probe(),
    }
