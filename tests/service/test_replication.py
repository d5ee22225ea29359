"""Warm-standby replication: the log as the standby, failover, and the layout guards.

Covers the replication module's layers plus the robustness satellites
that ride with it:

* :class:`~repro.service.replication.ShardReplicaSet` bit-identity (the
  log's base plus one replay of the committed tail behind it), long tails,
  and gap detection, and :class:`FailureDetector` verdicts under an
  injected clock;
* promotion on ``serial`` and ``process:2``, each run ending bit-identical
  to ``tests/faults.py::golden_state``: shards that first activate after
  the log's base, a worker killed while a checkpoint cut's markers are in
  flight, a crash right after ``checkpoint()`` truncated the log, and
  checkpoints whose segment swap failed — after the replace (a failed
  directory fsync: promotion replays the new segment) and in a reshard
  (the old layout's log is refused until a checkpoint);
* forced failover on ``serial`` and ``process:2`` (the process backend's
  SIGKILL sweep lives in ``test_replication_chaos.py``);
* ``close()`` idempotency after a worker crash (satellite: double-close
  and masked-exception paths);
* named errors for a damaged or foreign log: a deleted log is a missing
  checkpoint, and a header naming a foreign ``num_shards`` layout raises
  :class:`~repro.service.wal.WALLayoutError`.
"""

from __future__ import annotations

import errno
import os
import signal
import time

import numpy as np
import pytest

from repro.core import RTBS
import repro.engine.transport as transport
import repro.service.wal as wal_module
from repro.engine import FailoverError, ShardWorkerPool, WorkerCrashError
from repro.service import (
    MissingCheckpointError,
    ReplicationConfig,
    SamplerService,
    ShardReplicaSet,
    WALLayoutError,
    WriteAheadLog,
    recover_service,
)
from repro.core.random_utils import generator_state
from repro.service.replication import FailureDetector
from repro.service.wal import read_log_records

from tests import faults
from tests.faults import assert_states_equal
from tests.service.test_service_executors import use_ring_bytes


def _factory():
    return lambda rng: RTBS(n=40, lambda_=0.15, rng=rng)


def _batches(count: int, start: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(404)
    out = [rng.integers(0, 50_000, size=60) for _ in range(start + count)]
    return out[start:]


def _routed(batch: np.ndarray, num_shards: int = 2) -> list:
    return [
        (shard_id, batch[shard_id::num_shards]) for shard_id in range(num_shards)
    ]


# ----------------------------------------------------------------------
# ShardReplicaSet
# ----------------------------------------------------------------------
def _standby(service: SamplerService) -> ShardReplicaSet:
    """The service's standby, read through a second handle on its log."""
    return ShardReplicaSet(
        _factory(), WriteAheadLog.attach(service.wal_dir, service.num_shards)
    )


class TestShardReplicaSet:
    def test_rebuilt_standby_is_bit_identical_at_every_committed_watermark(
        self, tmp_path
    ):
        service = SamplerService(
            _factory(), num_shards=3, rng=11, wal_dir=tmp_path / "wal"
        )
        standby = _standby(service)
        for seq, batch in enumerate(_batches(12)):
            service.ingest_batch(batch)
            if seq % 5 == 4:
                # The log's base moves; the same standby reads the new one.
                service.checkpoint()
            samplers = standby.catch_up(seq)
            assert sorted(samplers) == service.active_shards
            for shard_id in service.active_shards:
                assert_states_equal(
                    samplers[shard_id].state_dict(),
                    service.shard(shard_id).state_dict(),
                )
        service.close()

    def test_promotion_replays_a_long_tail_in_one_pass(self, tmp_path):
        batches = _batches(100)
        service = SamplerService(
            _factory(), num_shards=2, rng=7, wal_dir=tmp_path / "wal"
        )
        for batch in batches:
            service.ingest_batch(batch)
        samplers = _standby(service).catch_up(99)
        assert sorted(samplers) == [0, 1]
        reference = SamplerService(_factory(), num_shards=2, rng=7)
        reference.ingest(batches)
        for shard_id in reference.active_shards:
            assert_states_equal(
                samplers[shard_id].state_dict(),
                reference.shard(shard_id).state_dict(),
            )
        service.close()

    def test_catch_up_refuses_a_gap_in_the_committed_tail(self, tmp_path):
        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=11,
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        for batch in _batches(5):
            service.ingest_batch(batch)
        # The log lost the driver's last committed batch (a damaged or
        # partially copied file): promoting it would silently drop that
        # batch, so it must refuse.
        log = os.path.join(service.wal_dir, "batches.wal")
        last = read_log_records(log).records[-1]
        assert last.seq == service.batches_seen - 1
        with open(log, "r+b") as fh:
            fh.truncate(last.start)
        with pytest.raises(FailoverError, match="committed through batch 4"):
            _standby(service).catch_up(service.batches_seen - 1)
        # So does the live service's own promotion.
        with pytest.raises(FailoverError, match="committed through batch 4"):
            service.failover()
        service.close()


# ----------------------------------------------------------------------
# FailureDetector
# ----------------------------------------------------------------------
class _FakePool:
    def __init__(self):
        self.dead: list[int] = []
        self.acked: int | None = None
        self.pending = 0

    def dead_workers(self):
        return list(self.dead)

    def acked_through(self):
        return self.acked

    def pending_commands(self):
        return self.pending


class TestFailureDetector:
    def test_liveness_probe_fires_without_any_clock(self):
        pool = _FakePool()
        detector = FailureDetector(clock=None)
        assert not detector.check(pool).failed
        pool.dead = [1]
        verdict = detector.check(pool)
        assert verdict.failed and verdict.dead_workers == (1,)

    def test_ack_staleness_needs_the_injected_clock(self):
        pool = _FakePool()
        pool.pending = 3
        assert not FailureDetector(clock=None).check(pool).failed

    def test_stall_is_declared_only_after_the_timeout_without_progress(self):
        now = iter([0.0, 1.0, 2.0, 25.0, 40.0]).__next__
        detector = FailureDetector(clock=now, ack_timeout=30.0)
        pool = _FakePool()
        pool.pending, pool.acked = 2, 5
        assert not detector.check(pool).failed  # t=0: baseline
        assert not detector.check(pool).failed  # t=1: within timeout
        pool.acked = 6
        assert not detector.check(pool).failed  # t=2: watermark moved
        assert not detector.check(pool).failed  # t=25: 23s since progress
        verdict = detector.check(pool)  # t=40: 38s without progress
        assert verdict.failed and verdict.stalled

    def test_an_idle_pool_is_never_stalled(self):
        now = iter([0.0, 1000.0, 2000.0]).__next__
        detector = FailureDetector(clock=now, ack_timeout=1.0)
        pool = _FakePool()
        pool.acked = 9
        for _ in range(3):
            assert not detector.check(pool).failed


# ----------------------------------------------------------------------
# Forced failover on every backend
# ----------------------------------------------------------------------
class TestForcedFailover:
    @pytest.mark.parametrize("backend", [None, "process:2"], ids=["serial", "process"])
    @pytest.mark.parametrize("at_batch", [0, 4, 9])
    def test_mid_stream_promotion_is_bit_identical(self, tmp_path, backend, at_batch):
        batches = _batches(10)
        reference = SamplerService(_factory(), num_shards=4, rng=3)
        reference.ingest(batches)
        golden = reference.state_dict()

        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=3,
            executor=backend,
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        for index, batch in enumerate(batches):
            service.ingest_batch(batch)
            if index == at_batch:
                service.failover()
        assert service.stats()["durability"]["replication"]["failovers"] == 1
        assert_states_equal(service.state_dict(), golden)
        service.close()

    def test_repeated_failovers_and_checkpoints_stay_exact(self, tmp_path):
        batches = _batches(14)
        reference = SamplerService(_factory(), num_shards=2, rng=5)
        reference.ingest(batches)
        golden = reference.state_dict()

        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=5,
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        for index, batch in enumerate(batches):
            service.ingest_batch(batch)
            if index % 5 == 4:
                service.failover()
            if index % 4 == 3:
                service.checkpoint()
        assert_states_equal(service.state_dict(), golden)
        # The post-failover service still recovers offline from its WAL.
        service.close()
        recovered = recover_service(tmp_path / "wal", _factory())
        try:
            assert_states_equal(recovered.state_dict(), golden)
        finally:
            recovered.close()

    def test_failover_without_replication_raises_the_named_error(self, tmp_path):
        service = SamplerService(_factory(), num_shards=2, rng=0)
        with pytest.raises(FailoverError, match="no warm standby"):
            service.failover()

    def test_replication_requires_a_wal(self):
        with pytest.raises(ValueError, match="wal_dir"):
            SamplerService(
                _factory(),
                num_shards=2,
                rng=0,
                replication=ReplicationConfig(),
            )

    def test_failover_budget_exhaustion_raises(self, tmp_path):
        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=0,
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(max_failovers=1),
        )
        service.ingest_batch(np.arange(30))
        service.failover()
        with pytest.raises(FailoverError, match="budget exhausted"):
            service.failover()
        service.close()

    def test_recover_service_re_enables_replication(self, tmp_path):
        batches = _batches(8)
        service = SamplerService(
            _factory(), num_shards=2, rng=9, wal_dir=tmp_path / "wal"
        )
        for batch in batches[:5]:
            service.ingest_batch(batch)
        service.close()

        recovered = recover_service(
            tmp_path / "wal",
            _factory(),
            replication=ReplicationConfig(),
        )
        for index, batch in enumerate(batches[5:]):
            recovered.ingest_batch(batch)
            if index == 1:
                recovered.failover()
        reference = SamplerService(_factory(), num_shards=2, rng=9)
        reference.ingest(batches)
        assert_states_equal(recovered.state_dict(), reference.state_dict())
        recovered.close()


class TestIngestBuildsNoSample:
    def test_ingest_failover_and_recovery_never_materialize_a_sample(
        self, tmp_path, monkeypatch
    ):
        """Every ingest path goes through ``ingest_stream``, never the sample.

        Patched before any pool forks, so the workers inherit it too.
        """

        def refuse(self):
            raise AssertionError("ingest materialized a sample")

        monkeypatch.setattr(RTBS, "sample_items", refuse)
        batches = _batches(12)
        with SamplerService(_factory(), num_shards=2, rng=4) as serial:
            serial.ingest(batches[:6])
        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=4,
            executor="process:2",
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        try:
            service.ingest(batches[:6])
            service.failover()
            service.ingest(batches[6:9])
            service.flush()
        finally:
            service.close()
        recovered = recover_service(tmp_path / "wal", _factory())
        try:
            assert recovered.batches_seen == 9
            recovered.ingest(batches[9:])
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# The log's base: construction, checkpoints, late activation
# ----------------------------------------------------------------------
BASE_BACKENDS = [None, "process:2"]
BASE_IDS = ["serial", "process"]


def _replicated(tmp_path, backend, factory=None):
    return SamplerService(
        factory or faults.make_factory(),
        num_shards=faults.NUM_SHARDS,
        rng=faults.SEED,
        executor=backend,
        wal_dir=tmp_path / "wal",
        replication=ReplicationConfig(),
    )


def _replication_stats(service: SamplerService) -> dict:
    return service.stats()["durability"]["replication"]


def _kill_worker(service: SamplerService, worker: int = 0) -> None:
    """SIGKILL one pool worker and wait until it is dead (and reaped)."""
    process = service.executor.transport.workers[worker].process
    os.kill(process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while process.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestStandbyBase:
    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_bulk_ingest_cuts_see_every_dispatched_batch(self, tmp_path, backend):
        """A windowed ingest never moves the log's base; a checkpoint's cut covers it all."""
        batches = faults.workload_batches()
        service = _replicated(tmp_path, backend)
        try:
            service.ingest(batches[:17], window=5)
            stats = _replication_stats(service)
            assert stats["standby_base_seq"] == -1
            assert stats["standby_lag_batches"] == 17
            service.checkpoint()
            stats = _replication_stats(service)
            assert stats["standby_base_seq"] == service.batches_seen - 1
            assert stats["standby_lag_batches"] == 0
            service.failover()
            service.ingest(batches[17:], window=5)
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            service.close()

    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_shards_first_active_after_the_base_get_pristine_streams(
        self, tmp_path, backend
    ):
        pristine = [
            generator_state(rng)
            for rng in SamplerService(
                faults.make_factory(), faults.NUM_SHARDS, rng=faults.SEED
            )._shard_rngs
        ]
        inner = faults.make_factory()
        promoting: list[bool] = []
        handed: list[dict] = []

        def factory(rng):
            if promoting:
                handed.append(generator_state(rng))
            return inner(rng)

        # No checkpoint: the log's base stays the empty cut the
        # constructor wrote, so every shard first activates during the
        # promotion's replay.
        service = _replicated(tmp_path, backend, factory=factory)
        try:
            for index, batch in enumerate(faults.workload_batches()):
                service.ingest_batch(batch)
                if index == 2:
                    assert _replication_stats(service)["standby_base_seq"] == -1
                    promoting.append(True)
                    service.failover()
                    promoting.clear()
            # The factory ran once per shard, at its first replayed frame,
            # on a clone of the shard's pristine reserved stream.
            assert handed == pristine
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            service.close()

    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_reserved_streams_change_only_on_reshard(self, tmp_path, backend):
        """Factories draw from copies: ingest, failover and close never move a stream."""
        batches = faults.workload_batches()
        service = _replicated(tmp_path, backend)

        def reserved() -> list[dict]:
            return service.state_dict()["shard_rng_states"]

        try:
            pristine = reserved()
            service.ingest(batches[:8])
            assert reserved() == pristine
            service.failover()
            assert reserved() == pristine
            service.close()
            service.ingest(batches[8:16])
            assert reserved() == pristine
            service.reshard(3)
            resharded = reserved()
            assert len(resharded) == 3
            service.ingest(batches[16:24])
            service.failover()
            service.close()
            service.ingest(batches[24:])
            assert reserved() == resharded
        finally:
            service.close()

    def test_worker_killed_with_cut_markers_in_flight(self, tmp_path, monkeypatch):
        """A worker dies while a checkpoint's cut markers are in flight.

        The promotion replays from the previous checkpoint's base, takes no
        cut of its own, and the checkpoint then writes the promoted cut as
        the log's new base.
        """
        from repro.engine.transport import ShardWorkerPool

        service = _replicated(tmp_path, "process:2")
        cuts: list[int] = []
        snapshots_during_failover: list[int] = []
        promoted_from: list[int] = []
        in_failover: list[bool] = []
        snapshot_async = ShardWorkerPool.snapshot_async
        snapshot = SamplerService.snapshot
        catch_up = ShardReplicaSet.catch_up
        failover = SamplerService._failover

        def cut_then_kill(pool, fn, kwargs=None):
            cuts.append(service.batches_seen - 1)
            if len(cuts) != 2:
                return snapshot_async(pool, fn, kwargs)
            # The second checkpoint's cut: its markers are enqueued, and the
            # worker dies before answering them (stopped first, so it
            # cannot answer in the moment before the kill lands).
            os.kill(pool.workers[0].process.pid, signal.SIGSTOP)
            markers = snapshot_async(pool, fn, kwargs)
            _kill_worker(service)
            return markers

        def recording_snapshot(svc, *args, **kwargs):
            if in_failover:
                snapshots_during_failover.append(svc.batches_seen - 1)
            return snapshot(svc, *args, **kwargs)

        def recording_catch_up(replica, through_seq):
            log = os.path.join(service.wal_dir, "batches.wal")
            promoted_from.append(read_log_records(log, base_only=True).watermark)
            return catch_up(replica, through_seq)

        def recording_failover(svc, error):
            in_failover.append(True)
            try:
                return failover(svc, error)
            finally:
                in_failover.pop()

        monkeypatch.setattr(ShardWorkerPool, "snapshot_async", cut_then_kill)
        monkeypatch.setattr(SamplerService, "snapshot", recording_snapshot)
        monkeypatch.setattr(ShardReplicaSet, "catch_up", recording_catch_up)
        monkeypatch.setattr(SamplerService, "_failover", recording_failover)
        try:
            for index, batch in enumerate(faults.workload_batches()):
                service.ingest_batch(batch)
                if index in (3, 7):
                    service.checkpoint()
            # Checkpoints after batches 3 and 7; the second's cut found the
            # pool dead, promoted from the first's base (batch 3) without
            # taking another cut, and the checkpoint wrote the promoted
            # state as the log's base.
            assert cuts == [3, 7]
            assert promoted_from == [3]
            assert snapshots_during_failover == []
            durability = service.stats()["durability"]
            assert durability["replication"]["standby_base_seq"] == 7
            assert durability["checkpoint_watermark"] == 7
            assert durability["replication"]["failovers"] == 1
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            monkeypatch.undo()
            service.close()

    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_crash_after_checkpoint_promotes_from_the_checkpoint_cut(
        self, tmp_path, backend
    ):
        # Only the checkpoints move the base.
        service = _replicated(tmp_path, backend)
        try:
            for index, batch in enumerate(faults.workload_batches()):
                service.ingest_batch(batch)
                if (index + 1) % faults.CKPT_EVERY == 0:
                    service.checkpoint()
                if index == 2 * faults.CKPT_EVERY - 1:
                    # The checkpoint truncated every frame, and its own cut
                    # is the log's base: promotion replays nothing.
                    log = os.path.join(service.wal_dir, "batches.wal")
                    assert read_log_records(log).records == []
                    stats = service.stats()["durability"]
                    assert stats["replication"]["standby_base_seq"] == index
                    assert stats["checkpoint_watermark"] == index
                    if backend is None:
                        service.failover()
                    else:
                        _kill_worker(service, worker=1)
            assert _replication_stats(service)["failovers"] == 1
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            service.close()


# ----------------------------------------------------------------------
# Promotion after a checkpoint's segment swap failed
# ----------------------------------------------------------------------
def _failing_at(prefix: str, code: int):
    """A failpoint hook raising ``OSError(code)`` at the sites named ``prefix``."""

    def hook(site: str) -> None:
        if site.startswith(prefix):
            raise OSError(code, os.strerror(code))

    return hook


class TestPromotionAfterAFailedSwap:
    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_a_failed_directory_fsync_promotes_from_the_new_segment(
        self, tmp_path, backend
    ):
        """The swap landed but its directory fsync raised: the new segment is the log.

        Promotion reads that segment's base and replays the batches behind
        it, so nothing the driver committed is missing from the standby.
        """
        batches = faults.workload_batches()
        service = _replicated(tmp_path, backend)
        try:
            service.ingest(batches[:6])
            wal_module._FAULT_HOOK = _failing_at("wal.segment-dirsync", errno.EIO)
            try:
                with pytest.raises(OSError) as raised:
                    service.checkpoint()
            finally:
                wal_module._FAULT_HOOK = None
            assert raised.value.errno == errno.EIO
            assert service.stats()["durability"]["checkpoint_watermark"] == 5
            service.ingest(batches[6:8])
            service.failover()
            stats = _replication_stats(service)
            assert stats["failovers"] == 1
            assert stats["standby_base_seq"] == 5
            assert stats["standby_lag_batches"] == 2
            service.ingest(batches[8:])
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            service.close()

    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_a_failed_reshard_swap_refuses_promotion_until_a_checkpoint(
        self, tmp_path, backend
    ):
        """The log of the old layout is never promoted into the new one."""
        batches = faults.workload_batches()
        reference = SamplerService(
            faults.make_factory(), num_shards=faults.NUM_SHARDS, rng=faults.SEED
        )
        reference.ingest(batches[:6])
        reference.reshard(3)
        reference.ingest(batches[6:])
        service = _replicated(tmp_path, backend)
        try:
            service.ingest(batches[:6])
            wal_module._FAULT_HOOK = _failing_at("wal.segment-write", errno.ENOSPC)
            try:
                with pytest.raises(OSError, match="No space left"):
                    service.reshard(3)
            finally:
                wal_module._FAULT_HOOK = None
            before = service.state_dict()
            with pytest.raises(FailoverError, match="4-shard layout"):
                service.failover()
            # Refused before anything changed.
            assert service.num_shards == 3
            assert _replication_stats(service)["failovers"] == 0
            assert_states_equal(service.state_dict(), before)
            # The checkpoint installs the new layout's log, and promotion
            # replays from it.
            service.checkpoint()
            service.ingest(batches[6:8])
            service.failover()
            assert _replication_stats(service)["failovers"] == 1
            service.ingest(batches[8:])
            live = service.state_dict()
            assert_states_equal(live, reference.state_dict())
        finally:
            service.close()
        recovered = recover_service(tmp_path / "wal", faults.make_factory())
        try:
            assert_states_equal(recovered.state_dict(), live)
        finally:
            recovered.close()


class TestIngestBatchCountsAfterFailover:
    def test_counts_survive_a_worker_killed_before_the_drain(
        self, tmp_path, monkeypatch
    ):
        """A failover inside ``ingest_batch``'s drain still reports every shard.

        Worker 1 is stopped before the victim batch, so its frame is
        enqueued but never ingested or acknowledged, then killed just
        before the drain. The promotion replays the committed batch, and
        the returned counts must still name worker 1's shards.
        """
        victim = 5
        reference = SamplerService(
            faults.make_factory(), num_shards=faults.NUM_SHARDS, rng=faults.SEED
        )
        service = _replicated(tmp_path, "process:2")
        drain = SamplerService._drain_transport_safely
        stopped: list = []

        def kill_then_drain(svc):
            if svc is service and stopped:
                _kill_worker(svc, worker=1)
                stopped.clear()
            return drain(svc)

        monkeypatch.setattr(
            SamplerService, "_drain_transport_safely", kill_then_drain
        )
        try:
            for index, batch in enumerate(faults.workload_batches()):
                expected = reference.ingest_batch(batch)
                if index == victim:
                    process = service.executor.transport.workers[1].process
                    os.kill(process.pid, signal.SIGSTOP)
                    stopped.append(process)
                assert service.ingest_batch(batch) == expected, index
            assert _replication_stats(service)["failovers"] == 1
            assert_states_equal(service.state_dict(), reference.state_dict())
        finally:
            monkeypatch.undo()
            for process in stopped:
                # Failed before the drain: never leave a stopped worker.
                os.kill(process.pid, signal.SIGKILL)
            service.close()


class TestCrashWhileFramesAreStaged:
    def test_staged_windows_die_with_the_condemned_pool(self, tmp_path, monkeypatch):
        """A crash found while staging discards every staged, unsent window.

        ``window=8`` ends an ingest window every 8 batches, and the
        smallest ring (32 KiB halves) holds one batch's runs (about 20 KB
        per worker), so each staged batch sends the worker's previous one
        early: mid-window a worker holds a sent-but-unacknowledged command
        and an open window at once. The samplers never saturate, so the
        driver ships every arrival instead of a thinned few. After the bulk
        call's first window and its upkeep, the test waits until both
        workers have acknowledged every frame (a full ring would otherwise
        block the next stage on a stopped worker) and stops worker 1, so
        its next early sends stay unacknowledged. It is killed as the
        driver stages its third batch after that: the crash surfaces
        inside ``stage`` while both workers hold staged, unsent frames. The
        promotion replays every committed batch, so those frames must die
        with the condemned pool: not one of them may be sent.
        """
        use_ring_bytes(monkeypatch, 4096)
        rng = np.random.default_rng(8)
        batches = [rng.integers(0, 1 << 40, size=5_000) for _ in range(30)]

        def factory(rng):
            return RTBS(n=100_000, lambda_=0.15, rng=rng)

        reference = SamplerService(factory, num_shards=faults.NUM_SHARDS, rng=faults.SEED)
        service = _replicated(tmp_path, "process:2", factory=factory)
        stopped: list = []
        crashes: list[WorkerCrashError] = []
        condemned: list[ShardWorkerPool] = []
        late_sends: list[int] = []
        tick = SamplerService._replication_tick
        stage = ShardWorkerPool.stage
        send_window = transport._WorkerHandle.send_window

        def stop_after_first_window(svc):
            if svc is service and stopped and not crashes:
                # The precondition was never reached: fail the test rather
                # than hang the next cut on a stopped worker.
                _kill_worker(svc, worker=1)
            tick(svc)
            if svc is service and svc.batches_seen == 12 and not stopped:
                svc.flush()
                process = svc.executor.transport.workers[1].process
                os.kill(process.pid, signal.SIGSTOP)
                stopped.append(process)

        def kill_while_staging(pool, worker, *args, **kwargs):
            handle = pool.workers[worker]
            if worker == 1 and stopped and not crashes:
                if handle.pending and handle.window is not None:
                    assert pool.workers[0].window is not None
                    _kill_worker(service, worker=1)
            try:
                return stage(pool, worker, *args, **kwargs)
            except WorkerCrashError as error:
                crashes.append(error)
                condemned.append(pool)
                raise

        def watched_send(handle):
            if handle.window is not None and handle.pool in condemned:
                late_sends.append(handle.index)
            return send_window(handle)

        monkeypatch.setattr(SamplerService, "_replication_tick", stop_after_first_window)
        monkeypatch.setattr(ShardWorkerPool, "stage", kill_while_staging)
        monkeypatch.setattr(transport._WorkerHandle, "send_window", watched_send)
        try:
            for batch in batches[:4]:
                assert service.ingest_batch(batch) == reference.ingest_batch(batch)
            service.ingest(batches[4:28], window=8)
            reference.ingest(batches[4:28], window=8)
            for batch in batches[28:]:
                assert service.ingest_batch(batch) == reference.ingest_batch(batch)
            assert len(crashes) == 1
            assert late_sends == []
            assert _replication_stats(service)["failovers"] == 1
            assert_states_equal(service.state_dict(), reference.state_dict())
        finally:
            monkeypatch.undo()
            for process in stopped:
                if process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
            service.close()


# ----------------------------------------------------------------------
# close() idempotency after a worker crash (satellite 1)
# ----------------------------------------------------------------------
class TestCloseAfterCrash:
    def test_close_raises_once_then_is_idempotent(self, tmp_path):
        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=0,
            executor="process:2",
            wal_dir=tmp_path / "wal",
        )
        service.ingest_batch(np.arange(50))
        _kill_worker(service, worker=0)
        with pytest.raises(WorkerCrashError):
            service.close()
        # The first close already tore the pool down and closed the log;
        # every further close is a clean no-op — no double-close error, no
        # masked secondary failure.
        service.close()
        service.close()
        # The logs were flushed before the handles closed: offline recovery
        # still replays every committed batch.
        recovered = recover_service(tmp_path / "wal", _factory())
        assert recovered.batches_seen == 1
        recovered.close()

    def test_close_with_replication_promotes_instead_of_raising(self, tmp_path):
        batches = _batches(6)
        reference = SamplerService(_factory(), num_shards=2, rng=1)
        reference.ingest(batches)
        golden_items = reference.sample_items()

        service = SamplerService(
            _factory(),
            num_shards=2,
            rng=1,
            executor="process:2",
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        for batch in batches:
            service.ingest_batch(batch)
        _kill_worker(service, worker=1)
        service.close()  # promotes; must not raise
        assert service.stats()["durability"]["replication"]["failovers"] == 1
        # The promoted service remains fully queryable after close.
        assert service.sample_items() == golden_items
        service.close()

    def test_context_manager_exit_after_crash_is_clean_with_replication(
        self, tmp_path
    ):
        with SamplerService(
            _factory(),
            num_shards=2,
            rng=1,
            executor="process:2",
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        ) as service:
            service.ingest_batch(np.arange(40))
            _kill_worker(service, worker=0)
        assert service.stats()["durability"]["replication"]["failovers"] == 1

    def test_wal_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal", num_shards=2)
        wal.truncate(-1, [b"checkpoint"], 2)
        wal.append_batch(0, 1.0, _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        wal.close()  # second close: no ValueError from closed handles


# ----------------------------------------------------------------------
# WALLayoutError on a damaged or foreign log
# ----------------------------------------------------------------------
class TestLayoutGuards:
    def _deployed(self, tmp_path):
        service = SamplerService(_factory(), num_shards=2, rng=0, wal_dir=tmp_path / "wal")
        for batch in _batches(4):
            service.ingest_batch(batch)
        service.close()
        return os.path.join(tmp_path, "wal")

    def test_a_deleted_log_is_a_missing_checkpoint(self, tmp_path):
        wal_dir = self._deployed(tmp_path)
        os.unlink(os.path.join(wal_dir, "batches.wal"))
        with pytest.raises(MissingCheckpointError, match="batches.wal"):
            recover_service(wal_dir, _factory())

    def test_recover_service_surfaces_the_layout_error(self, tmp_path):
        wal_dir = self._deployed(tmp_path)
        log = os.path.join(wal_dir, "batches.wal")
        with open(log, "r+b") as fh:  # the header's shard count (offset 10)
            fh.seek(10)
            fh.write((4).to_bytes(4, "little"))
        with pytest.raises(WALLayoutError, match="4-shard service"):
            recover_service(wal_dir, _factory())

    def test_foreign_shard_count_with_records_refuses_attach(self, tmp_path):
        wal_dir = self._deployed(tmp_path)
        with pytest.raises(WALLayoutError, match="2-shard service"):
            WriteAheadLog.attach(wal_dir, num_shards=4)
