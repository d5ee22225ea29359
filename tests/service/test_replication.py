"""Warm-standby replication: base cuts, failover, and the layout guards.

Covers the replication module's layers plus the robustness satellites
that ride with it:

* :class:`~repro.service.replication.ShardReplicaSet` bit-identity (a base
  cut plus one replay of the committed log), long tails, and gap
  detection, and :class:`FailureDetector` verdicts under an injected
  clock;
* the standby's base on ``serial`` and ``process:2``, each run ending
  bit-identical to ``tests/faults.py::golden_state``: shards that first
  activate after the base, a worker killed while a cadence cut's markers
  are in flight, and a crash right after ``checkpoint()`` truncated the
  log;
* forced failover on every backend (serial and thread here; the process
  backend's SIGKILL sweep lives in ``test_replication_chaos.py``);
* ``close()`` idempotency after a worker crash (satellite: double-close
  and masked-exception paths);
* :class:`~repro.service.wal.WALLayoutError` on damaged or foreign
  segment sets (satellite: manifest-without-segments and foreign
  ``num_shards`` layouts fail with a named error).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core import RTBS
from repro.engine import FailoverError, WorkerCrashError
from repro.service import (
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
def _base(service: SamplerService) -> ShardReplicaSet:
    return ShardReplicaSet.capture(
        service, service.snapshot(include_items=False, include_state=True)
    )


class TestShardReplicaSet:
    def test_rebuilt_standby_is_bit_identical_at_every_committed_watermark(
        self, tmp_path
    ):
        service = SamplerService(
            _factory(), num_shards=3, rng=11, wal_dir=tmp_path / "wal"
        )
        replica = _base(service)
        for seq, batch in enumerate(_batches(12)):
            service.ingest_batch(batch)
            replica.catch_up(seq)
            for shard_id in service.active_shards:
                assert_states_equal(
                    replica.samplers[shard_id].state_dict(),
                    service.shard(shard_id).state_dict(),
                )
        service.close()

    def test_promotion_replays_a_long_tail_in_one_pass(self, tmp_path):
        batches = _batches(100)
        service = SamplerService(
            _factory(), num_shards=2, rng=7, wal_dir=tmp_path / "wal"
        )
        replica = _base(service)
        for batch in batches:
            service.ingest_batch(batch)
        assert replica.catch_up(99) == {0, 1}
        reference = SamplerService(_factory(), num_shards=2, rng=7)
        reference.ingest(batches)
        for shard_id in reference.active_shards:
            assert_states_equal(
                replica.samplers[shard_id].state_dict(),
                reference.shard(shard_id).state_dict(),
            )
        service.close()

    def test_catch_up_refuses_a_gap_in_the_committed_tail(self, tmp_path):
        service = SamplerService(
            _factory(), num_shards=2, rng=11, wal_dir=tmp_path / "wal"
        )
        # A base taken before any batch, left behind while the primary
        # checkpointed and truncated, has lost the frames it needs:
        # promotion from it would silently drop batches, so it must refuse
        # — whether or not newer commits follow the truncation.
        replica = _base(service)
        for batch in _batches(5):
            service.ingest_batch(batch)
        service.checkpoint()
        with pytest.raises(FailoverError, match="truncat"):
            replica.catch_up(service.batches_seen - 1)
        service.ingest_batch(_batches(1, start=5)[0])
        with pytest.raises(FailoverError, match="truncat"):
            replica.catch_up(service.batches_seen - 1)
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
# Forced failover on in-process backends
# ----------------------------------------------------------------------
class TestForcedFailover:
    @pytest.mark.parametrize("backend", [None, "thread:2"], ids=["serial", "thread"])
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
            replication=ReplicationConfig(ship_interval=3),
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
            replication=ReplicationConfig(ship_interval=2),
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
            replication=ReplicationConfig(ship_interval=1),
        )
        for index, batch in enumerate(batches[5:]):
            recovered.ingest_batch(batch)
            if index == 1:
                recovered.failover()
        reference = SamplerService(_factory(), num_shards=2, rng=9)
        reference.ingest(batches)
        assert_states_equal(recovered.state_dict(), reference.state_dict())
        recovered.close()


# ----------------------------------------------------------------------
# The standby's base: cadence cuts, checkpoint cuts, late activation
# ----------------------------------------------------------------------
BASE_BACKENDS = [None, "process:2"]
BASE_IDS = ["serial", "process"]


def _replicated(tmp_path, backend, ship_interval, factory=None):
    return SamplerService(
        factory or faults.make_factory(),
        num_shards=faults.NUM_SHARDS,
        rng=faults.SEED,
        executor=backend,
        wal_dir=tmp_path / "wal",
        replication=ReplicationConfig(ship_interval=ship_interval),
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
        """In-process bulk ingest buffers a window; the cut waits for its dispatch."""
        batches = faults.workload_batches()
        service = _replicated(tmp_path, backend, ship_interval=3)
        try:
            service.ingest(batches[:17], window=5)
            assert _replication_stats(service)["standby_lag_batches"] < 3
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

        # No cadence cut and no checkpoint: the base stays the empty cut
        # the constructor took, so every shard first activates during the
        # promotion's replay.
        service = _replicated(
            tmp_path, backend, ship_interval=faults.NUM_BATCHES + 1, factory=factory
        )
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

    def test_worker_killed_with_cut_markers_in_flight(self, tmp_path, monkeypatch):
        from repro.engine.transport import ShardWorkerPool

        service = _replicated(tmp_path, "process:2", ship_interval=4)
        cuts: list[int] = []
        snapshots_during_failover: list[int] = []
        promoted_from: list[int] = []
        in_failover: list[bool] = []
        snapshot_async = ShardWorkerPool.snapshot_async
        snapshot = SamplerService.snapshot
        catch_up = ShardReplicaSet.catch_up
        failover = SamplerService._failover

        def cut_then_kill(pool, fn, kwargs=None):
            markers = snapshot_async(pool, fn, kwargs)
            cuts.append(service.batches_seen - 1)
            if len(cuts) == 2:
                # The second cadence cut: its markers are enqueued, and the
                # worker dies before answering them.
                _kill_worker(service)
            return markers

        def recording_snapshot(svc, *args, **kwargs):
            if in_failover:
                snapshots_during_failover.append(svc.batches_seen - 1)
            return snapshot(svc, *args, **kwargs)

        def recording_catch_up(replica, through_seq):
            promoted_from.append(replica.base_seq)
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
            for batch in faults.workload_batches():
                service.ingest_batch(batch)
            # Cadence cuts after batches 3 and 7; the second found the
            # pool dead, promoted from the first's base (batch 3) without
            # taking another cut, and its tick adopted the promoted state.
            assert cuts[:2] == [3, 7]
            assert promoted_from == [3]
            assert snapshots_during_failover == []
            assert _replication_stats(service)["failovers"] == 1
            assert_states_equal(service.state_dict(), faults.golden_state())
        finally:
            monkeypatch.undo()
            service.close()

    @pytest.mark.parametrize("backend", BASE_BACKENDS, ids=BASE_IDS)
    def test_crash_after_checkpoint_promotes_from_the_checkpoint_cut(
        self, tmp_path, backend
    ):
        # No cadence cut: only the checkpoints move the base.
        service = _replicated(tmp_path, backend, ship_interval=faults.NUM_BATCHES + 1)
        try:
            for index, batch in enumerate(faults.workload_batches()):
                service.ingest_batch(batch)
                if (index + 1) % faults.CKPT_EVERY == 0:
                    service.checkpoint()
                if index == 2 * faults.CKPT_EVERY - 1:
                    # The checkpoint truncated every frame, and its own cut
                    # is the base: promotion needs nothing truncation took.
                    commit_log = os.path.join(service.wal_dir, "commit.wal")
                    assert read_log_records(commit_log).records == []
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
        service = _replicated(tmp_path, "process:2", ship_interval=3)
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
            replication=ReplicationConfig(ship_interval=2),
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
        wal.append_batch(0, 1.0, _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        wal.close()  # second close: no ValueError from closed handles


# ----------------------------------------------------------------------
# WALLayoutError on damaged / foreign segment sets (satellite 2)
# ----------------------------------------------------------------------
class TestLayoutGuards:
    def _deployed(self, tmp_path, num_shards=2):
        service = SamplerService(
            _factory(), num_shards=num_shards, rng=0, wal_dir=tmp_path / "wal"
        )
        for batch in _batches(4):
            service.ingest_batch(batch)
        service.close()
        return os.path.join(tmp_path, "wal")

    def test_missing_shard_segments_under_a_live_manifest_refuse_attach(
        self, tmp_path
    ):
        wal_dir = self._deployed(tmp_path)
        os.unlink(os.path.join(wal_dir, "shard-00001.wal"))
        with pytest.raises(WALLayoutError, match=r"missing for shards \[1\]"):
            WriteAheadLog.attach(wal_dir, num_shards=2)

    def test_recover_service_surfaces_the_layout_error(self, tmp_path):
        wal_dir = self._deployed(tmp_path)
        for shard_id in range(2):
            os.unlink(os.path.join(wal_dir, f"shard-{shard_id:05d}.wal"))
        with pytest.raises(WALLayoutError, match="segment"):
            recover_service(wal_dir, _factory())

    def test_foreign_shard_count_with_records_refuses_attach(self, tmp_path):
        wal_dir = self._deployed(tmp_path)
        with pytest.raises(WALLayoutError, match="2-shard service"):
            WriteAheadLog.attach(wal_dir, num_shards=4)

    def test_stray_foreign_segment_with_records_refuses_attach(self, tmp_path):
        wal_dir = self._deployed(tmp_path, num_shards=2)
        # A third shard's log from some other deployment lands in the dir.
        stray = WriteAheadLog.create(tmp_path / "other", num_shards=3)
        stray.append_batch(
            0, 1.0, [(2, np.arange(5))], explicit_keys=False
        )
        stray.close()
        os.replace(
            os.path.join(stray.directory, "shard-00002.wal"),
            os.path.join(wal_dir, "shard-00002.wal"),
        )
        with pytest.raises(WALLayoutError, match="shard-00002"):
            WriteAheadLog.attach(wal_dir, num_shards=2)
