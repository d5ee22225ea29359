"""Reusable fault-injection harness for durability tests.

The durability layer exposes named *failpoints* (``repro.service.wal._fault``
calls) at every crash-relevant step: each WAL record append, each log flush
and fsync, and each step of a checkpoint's segment swap (the new segment's
write, its fsync, the atomic replace, the directory fsync). This module
turns those into a crash-at-any-point property test:

1. :func:`count_failpoints` runs the canonical workload once with a
   recording hook, learning the ordered list of failpoint sites it passes
   through;
2. :func:`crash_workload` re-runs the workload in a **child process** whose
   hook ``SIGKILL``\\ s it at a chosen failpoint — a real, unclean process
   death, not an exception (no ``finally`` blocks, no buffered-file flush
   on exit);
3. :func:`recover_and_finish` recovers from the crashed child's WAL
   directory, feeds the batches the recovered clock says are still owed,
   and the caller asserts the result is bit-identical to
   :func:`golden_state` — the uninterrupted run.

The workload itself is fixed (same seed, same batches — including an empty
batch, which advances the service clock without touching any shard) so the
golden trajectory is one constant, and the crash point plus executor
backend are the only variables.
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from multiprocessing import get_all_start_methods, get_context

import numpy as np

import repro.service.wal as wal_module
from repro.core import RTBS
from repro.service import MissingCheckpointError, SamplerService, recover_service

NUM_SHARDS = 4
SEED = 123
CKPT_EVERY = 7
NUM_BATCHES = 30
BATCH_SIZE = 200
#: One batch mid-stream is empty: it advances the service clock and is
#: logged as a record with no shard entries — recovery must replay the
#: clock advance anyway or every later default arrival time shifts.
EMPTY_BATCH_INDEX = 11


def make_factory():
    """The workload's shard-sampler factory (fresh per call; not shared)."""
    return lambda rng: RTBS(n=40, lambda_=0.15, rng=rng)


def workload_batches() -> list[np.ndarray]:
    rng = np.random.default_rng(2024)
    batches = [
        rng.integers(0, 100_000, size=BATCH_SIZE) for _ in range(NUM_BATCHES)
    ]
    batches[EMPTY_BATCH_INDEX] = np.array([], dtype=np.int64)
    return batches


def run_workload(
    wal_dir: str, backend: str | None, fsync: str = "os", until: int | None = None
) -> None:
    """The canonical durable-ingest workload (also run by crashing children)."""
    service = SamplerService(
        make_factory(),
        num_shards=NUM_SHARDS,
        rng=SEED,
        executor=backend,
        wal_dir=wal_dir,
        wal_fsync=fsync,
    )
    for index, batch in enumerate(workload_batches()[:until]):
        service.ingest_batch(batch)
        if (index + 1) % CKPT_EVERY == 0:
            service.checkpoint()
    service.close()


def golden_state() -> dict:
    """Final state of the uninterrupted workload (serial, no WAL).

    The WAL must not perturb the trajectory and every backend must match
    serial bit for bit, so this single constant is the reference for every
    (backend, crash point) combination.
    """
    service = SamplerService(make_factory(), num_shards=NUM_SHARDS, rng=SEED)
    for batch in workload_batches():
        service.ingest_batch(batch)
    return service.state_dict()


def count_failpoints(scratch_dir: str, fsync: str = "os") -> list[str]:
    """Ordered failpoint sites one uninterrupted workload passes through.

    Failpoints fire driver-side only (log appends, checkpoint writes), so
    the site sequence is backend-independent; the count is taken on the
    serial backend.
    """
    sites: list[str] = []
    wal_module._FAULT_HOOK = sites.append
    try:
        run_workload(os.path.join(scratch_dir, "failpoint-count"), None, fsync=fsync)
    finally:
        wal_module._FAULT_HOOK = None
    return sites


def install_crash_hook(
    crash_index: int | None = None,
    site_prefix: str | None = None,
    occurrence: int = 1,
) -> None:
    """Install a failpoint hook that ``SIGKILL``\\ s the current process.

    Either at the ``crash_index``-th failpoint overall (1-based), or at the
    ``occurrence``-th failpoint whose site name starts with ``site_prefix``
    — the latter pins a test to a semantically meaningful moment
    (mid-fsync, just before a segment swap) regardless of how many
    failpoints precede it.
    """
    overall = itertools.count(1)
    matched = itertools.count(1)

    def hook(site: str) -> None:
        if site_prefix is not None:
            if site.startswith(site_prefix) and next(matched) == occurrence:
                os.kill(os.getpid(), signal.SIGKILL)
        elif next(overall) == crash_index:
            os.kill(os.getpid(), signal.SIGKILL)

    wal_module._FAULT_HOOK = hook


def _child_main(wal_dir, backend, fsync, crash_index, site_prefix, occurrence):
    install_crash_hook(crash_index, site_prefix, occurrence)
    try:
        run_workload(wal_dir, backend, fsync=fsync)
    finally:
        wal_module._FAULT_HOOK = None


def crash_workload(
    wal_dir: str,
    backend: str | None,
    fsync: str = "os",
    crash_index: int | None = None,
    site_prefix: str | None = None,
    occurrence: int = 1,
) -> int:
    """Run the workload in a child process that dies at the chosen failpoint.

    Returns the child's exit code: ``-SIGKILL`` when the failpoint fired,
    ``0`` when the chosen point lies beyond the workload's last failpoint
    (the run completed — also a valid recovery case: a clean close).
    """
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    process = get_context(method).Process(
        target=_child_main,
        args=(wal_dir, backend, fsync, crash_index, site_prefix, occurrence),
    )
    process.start()
    # Poll ``exitcode`` (waitpid) rather than ``join(timeout=...)``: join's
    # timeout path waits on the process *sentinel* pipe, whose write end is
    # inherited by the child's own worker processes — a SIGKILLed driver
    # with surviving workers would stall join for the full timeout even
    # though the child is already dead.
    deadline = time.monotonic() + 120.0
    while process.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.02)
    if process.exitcode is None:  # pragma: no cover - hang safety net
        process.kill()
        process.join()
        raise AssertionError("crash-workload child hung")
    return process.exitcode


def recover_and_finish(
    wal_dir: str, backend: str | None, fsync: str = "os"
) -> SamplerService:
    """Recover after a crash and feed the batches still owed; return the service.

    ``service.batches_seen`` after recovery tells the producer where to
    resume — exactly the contract a real deployment relies on. A crash
    *before the first durable checkpoint* (mid-construction) raises
    :class:`~repro.service.MissingCheckpointError`: nothing was ever
    durable, so the deployment restarts from scratch with the same
    constructor — same seed, same trajectory.
    """
    batches = workload_batches()
    try:
        service = recover_service(
            wal_dir, make_factory(), executor=backend, fsync=fsync
        )
    except MissingCheckpointError:
        service = SamplerService(
            make_factory(),
            num_shards=NUM_SHARDS,
            rng=SEED,
            executor=backend,
            wal_dir=wal_dir,
            wal_fsync=fsync,
        )
    resume = service.batches_seen
    assert 0 <= resume <= len(batches), resume
    # Replay lag is bounded by the checkpoint cadence: everything at or
    # below the watermark came from the checkpoint, and at most one
    # checkpoint interval of batches (plus the one mid-append batch a crash
    # can lose) rides the log.
    assert service.batches_seen - 1 - service._wal.watermark <= CKPT_EVERY + 1
    for index in range(resume, len(batches)):
        service.ingest_batch(batches[index])
    return service


def install_worker_kill_hook(service: SamplerService, crash_index: int, worker: int = 0) -> list[str]:
    """SIGKILL one of ``service``'s pool workers at the ``crash_index``-th failpoint.

    The replication chaos harness: unlike :func:`install_crash_hook`, the
    *driver stays alive* — a primary shard worker is the victim, so the run
    exercises warm-standby promotion instead of offline recovery. Fires at
    most once, and only while the transport pool is attached (failpoints
    inside the constructor's initial checkpoint precede any worker; those
    indices degenerate to crash-free runs, which the sweep still verifies).
    Returns a list that receives the site name when the kill fires.
    """
    counter = itertools.count(1)
    fired: list[str] = []

    def hook(site: str) -> None:
        if fired or next(counter) != crash_index:
            return
        if not (service.executor.provides_transport and service._attached):
            return
        pool = service.executor.transport
        handle = pool.workers[worker % pool.num_workers]
        fired.append(site)
        os.kill(handle.process.pid, signal.SIGKILL)

    wal_module._FAULT_HOOK = hook
    return fired


def run_replicated_workload(
    wal_dir: str,
    backend: str = "process:2",
    kill_at: int | None = None,
    worker: int = 0,
) -> tuple[dict, int]:
    """The canonical workload on a replicated service, surviving one SIGKILL.

    Runs the exact batch/checkpoint schedule of :func:`run_workload` on a
    warm-standby service, optionally SIGKILLing one primary shard worker at
    the ``kill_at``-th failpoint mid-pipeline. The stream must complete
    *without manual recovery* — promotion is the service's job — and the
    returned final ``state_dict`` must be bit-identical to
    :func:`golden_state`. Returns ``(state_dict, failover_count)``.
    """
    from repro.service import ReplicationConfig

    service = SamplerService(
        make_factory(),
        num_shards=NUM_SHARDS,
        rng=SEED,
        executor=backend,
        wal_dir=wal_dir,
        replication=ReplicationConfig(),
    )
    try:
        if kill_at is not None:
            install_worker_kill_hook(service, kill_at, worker)
        for index, batch in enumerate(workload_batches()):
            service.ingest_batch(batch)
            if (index + 1) % CKPT_EVERY == 0:
                service.checkpoint()
        state = service.state_dict()
        failovers = service.stats()["durability"]["replication"]["failovers"]
    finally:
        wal_module._FAULT_HOOK = None
        service.close()
    return state, failovers


def assert_states_equal(actual, expected, path: str = "") -> None:
    """Recursive bit-exact comparison of two ``state_dict`` trees."""
    assert type(actual) is type(expected) or (
        isinstance(actual, (int, float)) and isinstance(expected, (int, float))
    ), f"{path}: {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            assert_states_equal(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (a, b) in enumerate(zip(actual, expected)):
            assert_states_equal(a, b, f"{path}[{index}]")
    elif isinstance(expected, np.ndarray):
        assert expected.dtype == actual.dtype and np.array_equal(
            actual, expected
        ), path
    else:
        assert actual == expected, path
