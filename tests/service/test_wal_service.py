"""Service-level durability: the WAL wired through ``SamplerService``.

Complements :mod:`tests.service.test_wal` (format level) and
:mod:`tests.service.test_wal_faults` (crash-at-any-point property). Here the
service is exercised through its public API: logging must not perturb the
sampling trajectory on any backend, recovery after a clean close or a worker
crash must be bit-identical, resharding must swap in the new layout's log
in one step, a checkpoint that fails mid-swap must change nothing, and the
observability surface (``stats()["durability"]``,
``acked_batches``) must tell the truth.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal

import numpy as np
import pytest

import repro.service.wal as wal_module
from repro.engine import EngineError
from repro.service import (
    MissingCheckpointError,
    ReplicationConfig,
    SamplerService,
    WALError,
    load_checkpoint,
    load_service_delta,
    recover_service,
)
from repro.service.wal import read_log_records

from tests.faults import assert_states_equal

BACKENDS = [None, "process:1", "process:2"]
BACKEND_IDS = ["serial", "process-1", "process"]


def _factory():
    from repro.core import RTBS

    return lambda rng: RTBS(n=30, lambda_=0.1, rng=rng)


def _batches(count: int, start: int = 0, size: int = 150) -> list[np.ndarray]:
    rng = np.random.default_rng(555)
    all_batches = [
        rng.integers(0, 50_000, size=size) for _ in range(start + count)
    ]
    return all_batches[start:]


def _golden(batches, num_shards: int = 4, rng: int = 7, **kwargs) -> dict:
    service = SamplerService(_factory(), num_shards=num_shards, rng=rng, **kwargs)
    for batch in batches:
        service.ingest_batch(batch)
    state = service.state_dict()
    service.close()
    return state


class TestTrajectoryUnperturbed:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_wal_does_not_perturb_the_trajectory(self, tmp_path, backend):
        batches = _batches(10)
        golden = _golden(batches)
        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=7,
            executor=backend,
            wal_dir=tmp_path / "wal",
        )
        for batch in batches:
            service.ingest_batch(batch)
        try:
            assert_states_equal(service.state_dict(), golden)
        finally:
            service.close()


class TestRecovery:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_clean_close_then_recover_is_bit_identical(self, tmp_path, backend):
        batches = _batches(9)
        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=7,
            executor=backend,
            wal_dir=tmp_path / "wal",
        )
        for index, batch in enumerate(batches):
            service.ingest_batch(batch)
            if index == 4:
                service.checkpoint()
        service.close()

        recovered = recover_service(tmp_path / "wal", _factory(), executor=backend)
        try:
            assert recovered.batches_seen == len(batches)
            assert_states_equal(recovered.state_dict(), _golden(batches))
            # The recovered service is live: it keeps ingesting and stays on
            # the golden trajectory.
            more = _batches(3, start=len(batches))
            for batch in more:
                recovered.ingest_batch(batch)
            assert_states_equal(
                recovered.state_dict(), _golden(_batches(12))
            )
        finally:
            recovered.close()

    def test_pipelined_unacked_batches_replay_after_worker_crash(self, tmp_path):
        """A worker dies with frames in flight; the log replays them all.

        The WAL records every batch driver-side *before* dispatch, so the
        batches the crashed worker never acknowledged are still durable;
        recovery replays them and lands exactly where an uninterrupted run
        would have.
        """
        batches = _batches(12)
        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=7,
            executor="process:2",
            wal_dir=tmp_path / "wal",
        )
        for batch in batches[:6]:
            service.ingest_batch(batch)
        service.checkpoint()
        # Bulk-enqueue without a barrier: these frames are pipelined, some
        # acknowledged, some not — but every one is already on disk.
        service.ingest(batches[6:])
        assert 0 <= service.acked_batches <= service.batches_seen
        victim = service.executor.transport.workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        with pytest.raises(EngineError):
            service.close()  # first drain after the crash surfaces it

        recovered = recover_service(tmp_path / "wal", _factory())
        try:
            assert recovered.batches_seen == len(batches)
            assert_states_equal(recovered.state_dict(), _golden(batches))
        finally:
            recovered.close()

    def test_recover_from_empty_directory_raises_missing_checkpoint(self, tmp_path):
        with pytest.raises(MissingCheckpointError):
            recover_service(tmp_path / "nothing-here", _factory())


class TestReshard:
    def test_reshard_swaps_in_one_log_for_the_new_layout(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = SamplerService(
            _factory(), num_shards=4, rng=7, wal_dir=wal_dir
        )
        for batch in _batches(8):
            service.ingest_batch(batch)
        assert len(read_log_records(wal_dir / "batches.wal").records) == 8

        service.reshard(6)

        # The log was atomically swapped for one whose header names the new
        # layout and whose base holds every batch that was in the old one;
        # the directory holds nothing else.
        assert service.num_shards == 6
        scan = read_log_records(wal_dir / "batches.wal", strict=True)
        assert scan.records == [] and scan.num_shards == 6
        assert os.listdir(wal_dir) == ["batches.wal"]
        state, watermark = load_service_delta(wal_dir)
        assert watermark == 8 - 1 and state["num_shards"] == 6
        assert service.stats()["durability"]["replay_lag_batches"] == 0

        # The resharded service keeps logging under the new layout, and
        # recovery reproduces it exactly.
        for batch in _batches(4, start=8):
            service.ingest_batch(batch)
        live = service.state_dict()
        service.close()
        recovered = recover_service(wal_dir, _factory())
        try:
            assert_states_equal(recovered.state_dict(), live)
        finally:
            recovered.close()


    def test_a_reshard_whose_swap_failed_refuses_ingest_until_a_checkpoint(
        self, tmp_path
    ):
        wal_dir = tmp_path / "wal"
        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=wal_dir)

        def full_disk(reached: str) -> None:
            if reached.startswith("wal.segment-write:"):
                raise OSError(errno.ENOSPC, "No space left on device")

        try:
            for batch in _batches(6):
                service.ingest_batch(batch)
            wal_module._FAULT_HOOK = full_disk
            try:
                with pytest.raises(OSError, match="No space left"):
                    service.reshard(3)
            finally:
                wal_module._FAULT_HOOK = None
            # The service holds the new layout, the log the old one: a
            # batch logged now would replay onto the wrong shards.
            assert service.num_shards == 3
            assert read_log_records(wal_dir / "batches.wal").num_shards == 4
            with pytest.raises(WALError, match="4-shard layout"):
                service.ingest_batch(_batches(1, start=6)[0])
            assert service.batches_seen == 6
            service.checkpoint()
            for batch in _batches(2, start=6):
                service.ingest_batch(batch)
            live = service.state_dict()
        finally:
            service.close()
        recovered = recover_service(wal_dir, _factory())
        try:
            assert recovered.num_shards == 3
            assert_states_equal(recovered.state_dict(), live)
        finally:
            recovered.close()


class TestLifecycleAndGuards:
    def test_create_refuses_an_existing_deployment_directory(self, tmp_path):
        service = SamplerService(_factory(), num_shards=2, rng=0, wal_dir=tmp_path / "wal")
        service.ingest_batch(np.arange(10))
        service.close()
        with pytest.raises(WALError, match="recover_service"):
            SamplerService(_factory(), num_shards=2, rng=0, wal_dir=tmp_path / "wal")

    def test_paired_checkpoint_requires_a_wal(self):
        service = SamplerService(_factory(), num_shards=2, rng=0)
        with pytest.raises(ValueError, match="wal_dir"):
            service.checkpoint()

    def test_explicit_directory_checkpoint_leaves_the_wal_untouched(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=wal_dir)
        batches = _batches(5)
        for batch in batches:
            service.ingest_batch(batch)
        service.checkpoint(tmp_path / "elsewhere")
        # The side checkpoint is a complete classic directory, but the
        # paired log still owns recovery: nothing was truncated.
        restored = SamplerService.from_state_dict(
            load_checkpoint(tmp_path / "elsewhere"), _factory()
        )
        assert restored.batches_seen == len(batches)
        assert len(read_log_records(wal_dir / "batches.wal").records) == len(batches)
        assert service.stats()["durability"]["checkpoint_watermark"] == -1
        service.close()

    def test_flush_makes_the_log_readable_midstream(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=wal_dir)
        for batch in _batches(3):
            service.ingest_batch(batch)
        service.flush()
        scan = read_log_records(wal_dir / "batches.wal")
        assert [record.seq for record in scan.records] == [0, 1, 2]
        service.close()

    @pytest.mark.parametrize("fsync", ["os", "always", "none"])
    def test_every_fsync_policy_recovers_after_clean_close(self, tmp_path, fsync):
        batches = _batches(6)
        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=7,
            wal_dir=tmp_path / "wal",
            wal_fsync=fsync,
        )
        for index, batch in enumerate(batches):
            service.ingest_batch(batch)
            if index == 2:
                service.checkpoint()
        service.close()
        recovered = recover_service(tmp_path / "wal", _factory(), fsync=fsync)
        try:
            assert_states_equal(recovered.state_dict(), _golden(batches))
        finally:
            recovered.close()


class TestKeysThroughRecovery:
    def test_explicit_keys_round_trip_and_taint_survives(self, tmp_path):
        batches = _batches(6, size=80)
        keys = [batch % 17 for batch in batches]
        golden_service = SamplerService(_factory(), num_shards=4, rng=7)
        for batch, key in zip(batches, keys):
            golden_service.ingest_batch(batch, keys=key)
        golden = golden_service.state_dict()

        service = SamplerService(
            _factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal"
        )
        for batch, key in zip(batches, keys):
            service.ingest_batch(batch, keys=key)
        service.close()
        recovered = recover_service(tmp_path / "wal", _factory())
        try:
            assert_states_equal(recovered.state_dict(), golden)
            # The explicit-keys taint rides the log: without a key_fn the
            # recovered service must still refuse to reshard.
            with pytest.raises(Exception, match="[Kk]ey"):
                recovered.reshard(8)
        finally:
            recovered.close()

    def test_string_payloads_round_trip_through_recovery(self, tmp_path):
        rng = np.random.default_rng(9)
        batches = [
            np.array([f"item-{value}" for value in rng.integers(0, 1000, size=60)])
            for _ in range(5)
        ]
        golden_service = SamplerService(_factory(), num_shards=4, rng=7)
        for batch in batches:
            golden_service.ingest_batch(batch)
        golden = golden_service.state_dict()

        service = SamplerService(
            _factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal"
        )
        for batch in batches:
            service.ingest_batch(batch)
        service.close()
        recovered = recover_service(tmp_path / "wal", _factory())
        try:
            assert_states_equal(recovered.state_dict(), golden)
        finally:
            recovered.close()


class TestObservability:
    def test_durability_block_reports_the_truth(self, tmp_path):
        bare = SamplerService(_factory(), num_shards=2, rng=0)
        assert bare.stats()["durability"] == {
            "wal_enabled": False,
            "replication": None,
        }
        assert bare.acked_batches == bare.batches_seen == 0

        service = SamplerService(
            _factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal", wal_fsync="os"
        )
        for batch in _batches(5):
            service.ingest_batch(batch)
        durability = service.stats()["durability"]
        assert durability["wal_enabled"] is True
        assert durability["wal_dir"] == str(tmp_path / "wal")
        assert durability["fsync"] == "os"
        assert durability["checkpoint_watermark"] == -1
        assert durability["replay_lag_batches"] == 5 - 1 - -1
        assert durability["acked_batches"] == 5
        service.checkpoint()
        durability = service.stats()["durability"]
        assert durability["checkpoint_watermark"] == 4
        assert durability["replay_lag_batches"] == 0
        assert service.wal_dir == str(tmp_path / "wal")
        service.close()


class TestFailedAppendLeavesTheServiceUnchanged:
    """A write error during a batch's log append must not advance anything."""

    @pytest.mark.parametrize("site", ["wal.append:", "wal.flush:"])
    @pytest.mark.parametrize("backend", [None, "process:2"], ids=["serial", "process"])
    def test_enospc_at_the_batch_append_or_its_flush_is_retryable(
        self, tmp_path, backend, site
    ):
        import errno

        import repro.service.wal as wal_module

        batches = _batches(4)
        service = SamplerService(
            _factory(), num_shards=4, rng=7, executor=backend, wal_dir=tmp_path / "wal"
        )
        log = tmp_path / "wal" / "batches.wal"

        def full_disk(reached: str) -> None:
            # The batch's one append, or its flush once the record is
            # written: either way the log is rewound to the batch's start.
            if reached.startswith(site):
                raise OSError(errno.ENOSPC, "No space left on device")

        try:
            service.ingest_batch(batches[0], time=1.0)
            before = service.state_dict()
            wal_module._FAULT_HOOK = full_disk
            try:
                with pytest.raises(OSError, match="No space left"):
                    service.ingest_batch(batches[1], time=2.0)
            finally:
                wal_module._FAULT_HOOK = None
            assert service.time == 1.0 and service.batches_seen == 1
            assert_states_equal(service.state_dict(), before)
            assert [r.seq for r in read_log_records(log, strict=True).records] == [0]
            service.ingest_batch(batches[1], time=2.0)
            service.ingest_batch(batches[2], time=3.0)
            service.ingest_batch(batches[3], time=4.0)
            live = service.state_dict()
        finally:
            service.close()
        golden = _golden(batches)
        assert_states_equal(live, golden)
        recovered = recover_service(tmp_path / "wal", _factory(), executor=backend)
        try:
            assert_states_equal(recovered.state_dict(), golden)
        finally:
            recovered.close()

    @pytest.mark.parametrize("backend", [None, "process:2"], ids=["serial", "process"])
    def test_a_factory_that_builds_no_sampler_commits_nothing(self, tmp_path, backend):
        service = SamplerService(
            lambda rng: object(),
            num_shards=4,
            rng=7,
            executor=backend,
            wal_dir=tmp_path / "wal",
        )
        try:
            with pytest.raises(TypeError, match="must return"):
                service.ingest_batch(_batches(1)[0])
            assert service.time == 0.0 and service.batches_seen == 0
            log = os.path.join(service.wal_dir, "batches.wal")
            assert read_log_records(log).records == []
        finally:
            service.close()


class TestCheckpointDurability:
    """Under every policy a checkpoint is on disk before its segment becomes the log."""

    @staticmethod
    def _record(monkeypatch) -> list[tuple[str, str, str]]:
        events: list[tuple[str, str, str]] = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}"), ""))
            return fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.fspath(src), os.fspath(dst)))
            return replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        return events

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("fsync", ["always", "os", "none"])
    def test_every_policy_syncs_the_segment_before_the_swap_and_the_directory_after(
        self, tmp_path, monkeypatch, fsync
    ):
        service = SamplerService(
            _factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal", wal_fsync=fsync
        )
        try:
            for batch in _batches(3):
                service.ingest_batch(batch)
            events = self._record(monkeypatch)
            service.checkpoint()
            monkeypatch.undo()
        finally:
            service.close()
        wal_dir = os.path.realpath(tmp_path / "wal")
        log = os.path.join(wal_dir, "batches.wal")
        assert events == [
            ("fsync", log + ".tmp", ""),
            ("replace", log + ".tmp", log),
            ("fsync", wal_dir, ""),
        ]


class TestFailedCheckpointLeavesTheServiceUnchanged:
    """An I/O error before a checkpoint's segment swap lands changes nothing."""

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO], ids=["ENOSPC", "EIO"])
    @pytest.mark.parametrize(
        "site", ["wal.segment-write:", "wal.segment-fsync:", "wal.segment-replace:"]
    )
    def test_an_io_error_at_the_swap_is_retryable(self, tmp_path, site, code):
        batches = _batches(6)
        wal_dir = tmp_path / "wal"
        log = wal_dir / "batches.wal"
        service = SamplerService(
            _factory(),
            num_shards=4,
            rng=7,
            wal_dir=wal_dir,
            replication=ReplicationConfig(),
        )

        def failing(reached: str) -> None:
            if reached.startswith(site):
                raise OSError(code, os.strerror(code))

        def observed() -> dict:
            stats = service.stats()
            del stats["profile"]  # wall times, which move on every call
            return stats

        try:
            for batch in batches[:4]:
                service.ingest_batch(batch)
            stats, data = observed(), log.read_bytes()
            wal_module._FAULT_HOOK = failing
            try:
                with pytest.raises(OSError) as raised:
                    service.checkpoint()
            finally:
                wal_module._FAULT_HOOK = None
            assert raised.value.errno == code
            assert observed() == stats
            assert log.read_bytes() == data
            assert os.listdir(wal_dir) == ["batches.wal"]
            # The directory as the failure left it recovers the committed
            # prefix; the retried checkpoint then lands.
            shutil.copytree(wal_dir, tmp_path / "copy")
            copy = recover_service(tmp_path / "copy", _factory())
            try:
                assert_states_equal(copy.state_dict(), _golden(batches[:4]))
            finally:
                copy.close()
            service.checkpoint()
            durability = service.stats()["durability"]
            assert durability["checkpoint_watermark"] == 3
            assert durability["replication"]["standby_base_seq"] == 3
            for batch in batches[4:]:
                service.ingest_batch(batch)
            live = service.state_dict()
        finally:
            service.close()
        assert_states_equal(live, _golden(batches))
        recovered = recover_service(wal_dir, _factory())
        try:
            assert_states_equal(recovered.state_dict(), live)
        finally:
            recovered.close()


class TestPlannedLogRecords:
    def test_saturated_shards_log_only_the_accepted_rows(self, tmp_path):
        batches = _batches(12, size=2_000)
        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal")
        try:
            for batch in batches:
                counts = service.ingest_batch(batch)
            assert sum(counts.values()) == 2_000
        finally:
            service.close()
        last = read_log_records(tmp_path / "wal" / "batches.wal").records[-1]
        entries = {shard_id: (rows, count) for shard_id, rows, count in last.entries}
        # Planned: each entry carries the shard's arrival count, and holds
        # only the few arrivals the driver accepted (n = 30 of about 500).
        rows, arrivals = entries[1]
        assert arrivals == counts[1]
        assert len(rows) < arrivals // 4

    def test_unplanned_records_replay_as_ordinary_batches(self, tmp_path):
        from repro.core import TTBS

        def factory(rng):
            return TTBS(n=30, lambda_=0.1, mean_batch_size=40.0, rng=rng)

        batches = _batches(6)
        service = SamplerService(factory, num_shards=4, rng=7, wal_dir=tmp_path / "wal")
        try:
            for batch in batches:
                service.ingest_batch(batch)
            live = service.state_dict()
        finally:
            service.close()
        records = read_log_records(tmp_path / "wal" / "batches.wal").records
        assert records and all(
            count is None for record in records for _, _, count in record.entries
        )
        recovered = recover_service(tmp_path / "wal", factory)
        try:
            assert_states_equal(recovered.state_dict(), live)
        finally:
            recovered.close()

    def test_a_format_5_directory_is_refused(self, tmp_path):
        import struct

        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal")
        try:
            for batch in _batches(6):
                service.ingest_batch(batch)
        finally:
            service.close()
        # A log whose header names format 5: an earlier build's directory.
        # Recovery refuses it and leaves the log as it was.
        log = tmp_path / "wal" / "batches.wal"
        data = bytearray(log.read_bytes())
        struct.pack_into("<H", data, 8, 5)
        log.write_bytes(bytes(data))
        with pytest.raises(WALError, match="unsupported WAL format version 5; this build reads 6"):
            recover_service(tmp_path / "wal", _factory())
        assert log.read_bytes() == bytes(data)


class TestSamplingVersion:
    def test_checkpoints_record_the_sampling_version_and_plan_key(self, tmp_path):
        from repro.core.rtbs import SAMPLING_VERSION

        service = SamplerService(_factory(), num_shards=4, rng=7, wal_dir=tmp_path / "wal")
        try:
            service.ingest_batch(_batches(1)[0])
            state = service.state_dict()
        finally:
            service.close()
        assert state["sampling_version"] == SAMPLING_VERSION == 2
        assert isinstance(state["plan_key"], int)
        paired, _ = load_service_delta(tmp_path / "wal")
        assert paired["sampling_version"] == 2
        assert paired["plan_key"] == state["plan_key"]

    def test_restore_continues_the_trajectory_and_refuses_other_versions(self):
        batches = _batches(8)
        service = SamplerService(_factory(), num_shards=4, rng=7)
        for batch in batches[:4]:
            service.ingest_batch(batch)
        restored = SamplerService.from_state_dict(service.state_dict(), _factory())
        for batch in batches[4:]:
            service.ingest_batch(batch)
            restored.ingest_batch(batch)
        assert_states_equal(restored.state_dict(), service.state_dict())
        # A build restores only the sampling version it writes: version 1
        # (the draws before the plan streams) is refused like a newer one.
        for version in (1, 3):
            other = {**service.state_dict(), "sampling_version": version}
            with pytest.raises(ValueError, match=f"sampling version {version}; this build reads 2"):
                SamplerService.from_state_dict(other, _factory())
