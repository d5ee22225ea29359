"""Tests for the persistent-worker shared-memory transport layer."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import repro.engine.transport as transport
from repro.core import RTBS
from repro.engine import (
    EngineError,
    ProcessPoolExecutor,
    RemoteTaskError,
    ShardWorkerPool,
    WindowTask,
    WorkerCrashError,
    restore_sampler,
    service_ingest_window,
    snapshot_sampler,
)
from repro.service import ReplicationConfig, SamplerService


def _square(residents, x: int) -> int:
    return x * x


def _fail(residents, x):
    raise ValueError(f"intentional failure on {x!r}")


def _echo_arrays(residents, **kwargs):
    """Return array sums so tests can verify ring contents arrived intact."""
    return {name: float(np.asarray(value).sum()) for name, value in kwargs.items()}


def _get_attached(residents, key):
    return type(residents[key]).__name__


def _boom(residents, **kwargs):
    raise ValueError("boom")


@pytest.fixture
def pool():
    with ShardWorkerPool(max_workers=2, ring_bytes=1 << 20) as pool:
        yield pool


class TestResidentLifecycle:
    def test_attach_ingest_snapshot_detach_round_trip(self, pool):
        """Restore→resident ingest→snapshot equals the in-process trajectory."""
        reference = RTBS(n=50, lambda_=0.2, rng=0)
        shipped = RTBS(n=50, lambda_=0.2, rng=0)
        key = ("svc", 9, 0)
        pool.attach(key, restore_sampler, shipped.state_dict(), worker=0)
        task = WindowTask(service_ingest_window, {"service_id": 9})
        for index in range(5):
            batch = np.arange(index * 100, (index + 1) * 100)
            reference.process_stream([batch], times=[float(index + 1)])
            pool.stage(
                0, task, batch, [(0, len(batch))], (float(index + 1), [(0, len(batch))])
            )
            if index % 2:
                pool.send_staged()
        mid = RTBS.from_state_dict(pool.snapshot(key, snapshot_sampler))
        assert mid.sample_items() == reference.sample_items()
        assert key in pool.resident_keys
        final = RTBS.from_state_dict(pool.detach(key, snapshot_sampler))
        assert final.sample_items() == reference.sample_items()
        assert final.total_weight == reference.total_weight
        assert key not in pool.resident_keys

    def test_stage_shards_puts_each_shard_on_its_worker(self, pool):
        """adopt/stage_shards/release: shard ``s`` lives on worker ``s % 2``."""
        references = {s: RTBS(n=20, lambda_=0.2, rng=s) for s in range(3)}
        for shard_id in range(3):
            sampler = RTBS(n=20, lambda_=0.2, rng=shard_id)
            pool.adopt(("svc", 4, shard_id), sampler, shard_id, snapshot_sampler, restore_sampler)
            assert pool.worker_for(("svc", 4, shard_id)) == shard_id % 2
        task = WindowTask(service_ingest_window, {"service_id": 4})
        for index in range(4):
            rows = np.arange(index * 90, (index + 1) * 90)
            sub_batches = [(s, rows[s * 30 : (s + 1) * 30], None) for s in range(3)]
            for shard_id, shard_rows, _ in sub_batches:
                references[shard_id].process_batch(shard_rows, time=float(index + 1))
            pool.stage_shards(task, rows, sub_batches, float(index + 1))
        pool.send_staged()
        for shard_id, reference in references.items():
            live = pool.release(("svc", 4, shard_id), snapshot_sampler, restore_sampler)
            assert live.sample_items() == reference.sample_items()
            assert live.total_weight == reference.total_weight
        assert pool.resident_keys == set()

    def test_detach_without_snapshot_discards(self, pool):
        pool.attach("junk", restore_sampler, RTBS(n=5, lambda_=0.1, rng=0).state_dict(), worker=1)
        assert pool.detach("junk") is None
        with pytest.raises(EngineError, match="no resident object"):
            pool.worker_for("junk")

    def test_duplicate_attach_is_rejected(self, pool):
        state = RTBS(n=5, lambda_=0.1, rng=0).state_dict()
        pool.attach("dup", restore_sampler, state, worker=0)
        with pytest.raises(EngineError, match="already attached"):
            pool.attach("dup", restore_sampler, state, worker=1)
        pool.detach("dup")


class TestRingBuffer:
    def test_frames_larger_than_the_ring_grow_the_segment(self):
        # A tiny ring forces both wraparound and segment growth.
        with ShardWorkerPool(max_workers=1, ring_bytes=4096) as pool:
            for index in range(10):
                payload = np.arange(index * 1000, (index + 1) * 1000, dtype=np.int64)
                result = pool.apply(
                    0, _echo_arrays, arrays={"payload": payload}, sync=True
                )
                assert result["payload"] == float(payload.sum())

    def test_pipelined_frames_survive_wraparound(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=8192) as pool:
            sums = []
            expected = []
            for index in range(50):
                payload = np.full(200, index, dtype=np.int64)
                expected.append(float(payload.sum()))
                pool.apply(
                    0,
                    _echo_arrays,
                    arrays={"payload": payload},
                    on_result=lambda r: sums.append(r["payload"]),
                )
            pool.drain()
            assert sums == expected

    def test_mixed_dtypes_and_object_fallback(self, pool):
        payload = np.array(["a", "bb", "ccc"], dtype=object)
        numeric = np.linspace(0.0, 1.0, 7)
        result = pool.apply(
            0,
            _echo_arrays,
            kwargs={},
            arrays={"weights": numeric, "payload": np.arange(3)},
            sync=True,
        )
        assert result["weights"] == pytest.approx(float(numeric.sum()))
        # Object arrays cannot ride shared memory; they fall back to pickle.
        name = pool.apply(
            0,
            _get_attached_type_of_payload,
            kwargs={"payload": payload},
            sync=True,
        )
        assert name == "ndarray"


def _get_attached_type_of_payload(residents, payload):
    return type(payload).__name__


class TestGenericTasks:
    def test_remote_errors_carry_the_original_traceback(self, pool):
        with pytest.raises(RemoteTaskError, match="intentional failure"):
            pool.apply(1, _fail, {"x": 1}, sync=True)

    def test_pool_survives_task_errors(self, pool):
        with pytest.raises(RemoteTaskError):
            pool.apply(0, _fail, {"x": 1}, sync=True)
        assert pool.apply(0, _square, {"x": 5}, sync=True) == 25


class TestWorkerCrash:
    def test_killed_worker_raises_worker_crash_error_naming_it(self):
        with ShardWorkerPool(max_workers=2, ring_bytes=1 << 20) as pool:
            key = ("svc", 1, 0)
            pool.attach(key, restore_sampler, RTBS(n=10, lambda_=0.1, rng=0).state_dict(), worker=0)
            pool.drain()
            victim = pool.workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            task = WindowTask(service_ingest_window, {"service_id": 1})
            with pytest.raises(WorkerCrashError, match="shard worker 0") as excinfo:
                for index in range(200):
                    pool.stage(
                        0, task, np.arange(64), [(0, 64)], (1.0 + index, [(0, 64)])
                    )
                    pool.send_staged()
                    pool.drain()
                    time.sleep(0.01)
            # The error names the resident state lost with the worker, and
            # chains the pipe failure that revealed the crash.
            assert "restore" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, (OSError, EOFError, ValueError))

    def test_failed_pipe_write_chains_its_cause_without_a_traceback(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 20) as pool:
            handle = pool.workers[0]
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=10)
            with pytest.raises(WorkerCrashError, match="pipe write failed") as excinfo:
                handle.send(("payload", np.arange(1 << 12)))
        cause = excinfo.value.__cause__
        assert isinstance(cause, OSError)
        # The failed write's frames hold a view over the pickled message's
        # buffer; a cause that kept them would leave that view to the cycle
        # collector, which reports an unraisable BufferError when it frees
        # the buffer first.
        assert cause.__traceback__ is None

    def test_crash_error_is_an_engine_error(self):
        assert issubclass(WorkerCrashError, EngineError)
        assert issubclass(RemoteTaskError, EngineError)


class TestAckWatermark:
    """The tag watermark that tells a WAL-backed driver what is truly done."""

    def test_none_until_the_first_tagged_command(self, pool):
        assert pool.acked_through() is None
        pool.apply(0, _echo_arrays, arrays={"x": np.arange(4)})  # untagged
        pool.drain()
        assert pool.acked_through() is None

    def test_a_fanned_out_tag_acks_only_when_every_command_does(self, pool):
        # One batch fans out to both workers under a single tag; the tag is
        # acknowledged as a unit.
        for worker in (0, 1):
            pool.apply(worker, _echo_arrays, arrays={"x": np.arange(8)}, tag=0)
        pool.drain()
        assert pool.acked_through() == 0
        pool.apply(1, _echo_arrays, arrays={"x": np.arange(8)}, tag=1)
        pool.drain()
        assert pool.acked_through() == 1

    def test_a_failed_command_pins_the_watermark_forever(self, pool):
        pool.apply(0, _echo_arrays, arrays={"x": np.arange(4)}, tag=0)
        pool.drain()
        assert pool.acked_through() == 0
        pool.apply(0, _boom, tag=1)
        with pytest.raises(RemoteTaskError, match="boom"):
            pool.drain()
        # Later batches may still succeed, but the watermark never moves
        # past the lost one — its batch must be replayed, not dropped.
        pool.apply(1, _echo_arrays, arrays={"x": np.arange(4)}, tag=2)
        pool.drain()
        assert pool.acked_through() == 0

    def test_a_crashed_worker_keeps_the_watermark_conservative(self):
        with ShardWorkerPool(max_workers=2, ring_bytes=1 << 20) as pool:
            pool.apply(0, _echo_arrays, arrays={"x": np.arange(4)}, tag=0)
            pool.drain()
            victim = pool.workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerCrashError):
                for index in range(200):
                    pool.apply(
                        0,
                        _echo_arrays,
                        arrays={"x": np.arange(4)},
                        tag=1 + index,
                    )
                    pool.drain()
                    time.sleep(0.01)
            # Everything submitted after the crash died with the worker:
            # the watermark still reports only batch 0 as durable.
            assert pool.acked_through() == 0

    def test_tags_must_be_non_decreasing(self, pool):
        pool.apply(0, _echo_arrays, arrays={"x": np.arange(4)}, tag=5)
        with pytest.raises(EngineError, match="non-decreasing"):
            pool.apply(0, _echo_arrays, arrays={"x": np.arange(4)}, tag=4)
        pool.drain()


class TestExecutorIntegration:
    def test_process_executor_exposes_transport(self):
        with ProcessPoolExecutor(2) as executor:
            assert executor.provides_transport
            pool = executor.transport
            assert pool is executor.transport  # one pool, reused
            assert executor.host is pool  # the pool is the shard host
            assert pool.apply(1, _square, {"x": 3}, sync=True) == 9

    def test_shutdown_closes_and_recreates_the_pool(self):
        executor = ProcessPoolExecutor(1)
        first = executor.transport
        executor.shutdown()
        with pytest.raises(EngineError, match="closed"):
            first.apply(0, _square, {"x": 1}, sync=True)
        second = executor.transport
        assert second is not first
        assert second.apply(0, _square, {"x": 4}, sync=True) == 16
        executor.shutdown()


class TestWorkerMemory:
    """``worker_memory()``: each worker's ``VmRSS``/``VmHWM``, read driver-side."""

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs procfs"
    )
    def test_live_workers_report_resident_and_peak_bytes(self, pool):
        memory = pool.worker_memory()
        assert len(memory) == pool.num_workers
        for worker in memory:
            assert set(worker) == {"rss_bytes", "peak_rss_bytes"}
            assert 0 < worker["rss_bytes"] <= worker["peak_rss_bytes"]

    def test_unreadable_status_reads_none(self):
        with ShardWorkerPool(max_workers=1) as pool:
            pass
        assert pool.worker_memory() == [{"rss_bytes": None, "peak_rss_bytes": None}]
        assert transport._process_memory(None) == {"rss_bytes": None, "peak_rss_bytes": None}

    def test_executor_gauge_never_starts_a_pool(self):
        executor = ProcessPoolExecutor(2)
        assert executor.worker_memory() == []
        assert executor._pool is None
        executor.transport.apply(0, _square, {"x": 1}, sync=True)
        assert len(executor.worker_memory()) == 2
        executor.shutdown()
        assert executor.worker_memory() == []

    def test_check_health_reports_it_on_the_process_backend_only(self):
        with SamplerService(lambda rng: RTBS(n=10, lambda_=0.1, rng=rng), 2) as serial:
            serial.ingest_batch(np.arange(50))
            assert "worker_memory" not in serial.check_health()
        with SamplerService(
            lambda rng: RTBS(n=10, lambda_=0.1, rng=rng), 2, executor="process:2"
        ) as service:
            assert service.check_health()["worker_memory"] == []
            service.ingest_batch(np.arange(50))
            assert len(service.check_health()["worker_memory"]) == 2


def _driver_rss_bytes() -> int:
    rss = transport._process_memory(os.getpid())["rss_bytes"]
    assert rss is not None
    return rss


class TestHeapRelease:
    """Workers fork from a trimmed driver heap (glibc ``malloc_trim``)."""

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status") or transport._malloc_trim() is None,
        reason="needs procfs and glibc's malloc_trim",
    )
    def test_workers_do_not_inherit_the_drivers_free_heap(self):
        # 64 MiB of written heap chunks (below the mmap threshold), pinned
        # under one live chunk so free() cannot shrink the heap, then freed:
        # resident in the driver, free to malloc.
        chunks = [b"\x01" * 65536 for _ in range(1024)]
        pin = b"\x01" * 65536
        del chunks
        driver_rss = _driver_rss_bytes()
        with ShardWorkerPool(max_workers=2) as pool:
            assert pool.apply(1, _square, {"x": 3}, sync=True) == 9
            peaks = [worker["peak_rss_bytes"] for worker in pool.worker_memory()]
        assert len(pin) == 65536
        for peak in peaks:
            assert peak is not None and peak <= driver_rss - 48 * 2**20, (
                f"worker peaked at {peak / 2**20:.1f} MB against a "
                f"{driver_rss / 2**20:.1f} MB driver"
            )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_one_release_per_pool_start(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(transport, "_release_free_heap", lambda: calls.append(1))
        factory = lambda rng: RTBS(n=10, lambda_=0.1, rng=rng)  # noqa: E731
        with SamplerService(factory, 2, wal_dir=tmp_path / "serial") as serial:
            serial.ingest_batch(np.arange(50))
        assert calls == []
        with SamplerService(
            factory,
            2,
            executor="process:2",
            wal_dir=tmp_path / "process",
            replication=ReplicationConfig(),
        ) as service:
            assert calls == []
            service.ingest_batch(np.arange(50))
            service.ingest_batch(np.arange(50, 100))
            assert len(calls) == 1
            service.failover()
            assert len(calls) == 1
            service.ingest_batch(np.arange(100, 150))
            service.ingest_batch(np.arange(150, 200))
            assert len(calls) == 2


def _window_rows(residents, payload, entries):
    return np.asarray(payload).tolist(), list(entries)


class TestStagedWindows:
    """stage/send_staged: runs copied back to back, one command per window."""

    def test_int_runs_ride_the_ring_back_to_back(self, pool):
        source = np.arange(100, dtype=np.int64) * 3
        results = []
        task = WindowTask(_window_rows, on_result=results.append)
        pool.stage(0, task, source, [(5, 8), (40, 42)], "a")
        pool.stage(0, task, source[::-1].copy(), [(0, 2)], "b")
        assert pool.pending_commands() == 0  # staged, not sent
        pool.send_staged()
        pool.drain()
        rows = [15, 18, 21, 120, 123, 297, 294]
        assert results == [(rows, ["a", "b"])]
        assert pool.workers[0].half_pending == [0, 0]

    def test_float_runs_and_one_command_per_worker(self, pool):
        source = np.linspace(0.0, 1.0, 50)
        results = []
        task = WindowTask(_window_rows, on_result=results.append)
        for worker in (0, 1):
            pool.stage(worker, task, source, [(worker, worker + 10)], worker)
        assert pool.pending_commands() == 0
        pool.send_staged()
        assert pool.pending_commands() == 2
        pool.drain()
        assert sorted(results, key=lambda r: r[1]) == [
            (source[0:10].tolist(), [0]),
            (source[1:11].tolist(), [1]),
        ]

    def test_string_runs_ride_the_ring(self, pool):
        source = np.array(["alpha", "beta", "gamma"])
        results = []
        task = WindowTask(_window_rows, on_result=results.append)
        pool.stage(0, task, source, [(2, 3), (0, 1)], None)
        # Any other command to the worker sends its open window first, so
        # the window runs before it.
        assert pool.apply(0, _window_rows, kwargs={"payload": [], "entries": []}, sync=True) == ([], [])
        assert results == [(["gamma", "alpha"], [None])]

    def test_object_runs_fall_back_to_pickle(self, pool):
        source = np.array(["a", "bb", None, 4], dtype=object)
        results = []
        task = WindowTask(_window_rows, on_result=results.append)
        pool.stage(0, task, source, [(2, 3), (0, 1)], 1)
        pool.stage(0, task, source, [(3, 4)], 2)
        pool.send_staged()
        pool.drain()
        assert results == [([None, "a", 4], [1, 2])]

    def test_empty_runs(self, pool):
        results = []
        task = WindowTask(_window_rows, on_result=results.append)
        pool.stage(0, task, np.arange(10), [], "empty")
        pool.stage(0, task, np.arange(10), [(4, 4)], "still empty")
        pool.send_staged()
        pool.drain()
        assert results == [([], ["empty", "still empty"])]


def _echo_slowly(residents, **kwargs):
    """Echo after 2 ms, so a pipelining driver outpaces the worker."""
    time.sleep(0.002)
    return _echo_arrays(residents, **kwargs)


def _echo_when_released(residents, release, **kwargs):
    """Hold the worker (and its acknowledgement) until ``release`` exists."""
    while not os.path.exists(release):
        time.sleep(0.001)
    return _echo_arrays(residents, **kwargs)


def _record_frames(handle) -> list[tuple[int, int, int, list]]:
    """Record every ring frame ``handle`` allocates from now on.

    Each record is ``(offset, nbytes, half, live)``, where ``live`` holds
    the records of the frames still unacknowledged when it was allocated.
    """
    frames: list[tuple[int, int, int, list]] = []
    frame_seqs: dict[int, int] = {}
    allocate, submit = handle.allocate, handle.submit

    def recording_allocate(nbytes):
        offset, half = allocate(nbytes)
        live = [frames[i] for i, seq in frame_seqs.items() if seq in handle.pending]
        frames.append((offset, nbytes, half, live))
        return offset, half

    def recording_submit(message_tail, kind, **entry):
        seq = submit(message_tail, kind, **entry)
        if entry.get("ring_half") is not None:
            frame_seqs[len(frames) - 1] = seq
        return seq

    handle.allocate, handle.submit = recording_allocate, recording_submit
    return frames


class TestDoubleBuffering:
    """The ring's two halves overlap driver writes with worker reads."""

    def test_synchronous_frames_all_start_at_the_ring_start(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 16) as pool:
            frames = _record_frames(pool.workers[0])
            for index in range(20):
                payload = np.full(256 + 64 * index, index, dtype=np.int64)
                result = pool.apply(0, _echo_arrays, arrays={"x": payload}, sync=True)
                assert result["x"] == float(payload.sum())
            # Each frame was acknowledged before the next, so every one
            # reused the first bytes of half 0.
            assert [(offset, half) for offset, _, half, _ in frames] == [(0, 0)] * 20
            assert pool.ring_usage() == [
                {"ring_bytes": 1 << 16, "ring_high_water_bytes": frames[-1][1]}
            ]

    def test_pipelined_frames_never_overlap_an_unacknowledged_frame(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 16) as pool:
            frames = _record_frames(pool.workers[0])
            task = WindowTask(_window_rows)
            results, expected = [], []
            for index in range(200):
                rows = 64 + (index * 37) % 1500  # 0.5-12 KiB frames, 32 KiB halves
                payload = np.full(rows, index, dtype=np.int64)
                expected.append(float(payload.sum()))
                if index % 3:
                    pool.apply(
                        0,
                        _echo_arrays,
                        arrays={"x": payload},
                        on_result=lambda r: results.append(r["x"]),
                    )
                else:
                    pool.stage(0, task, payload, [(0, rows // 2), (rows // 2, rows)], index)
            pool.drain()
            assert results == [e for i, e in enumerate(expected) if i % 3]
            for offset, nbytes, half, live in frames:
                assert half * (1 << 15) <= offset
                assert offset + nbytes <= (half + 1) * (1 << 15)
                for live_offset, live_nbytes, _, _ in live:
                    assert offset + nbytes <= live_offset or live_offset + live_nbytes <= offset

    def test_a_busy_active_half_flips_early_to_the_free_half(self, tmp_path):
        release = str(tmp_path / "release")
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 16) as pool:
            handle = pool.workers[0]
            frames = _record_frames(handle)
            try:
                # The held command keeps half 0 busy while half 1 is free.
                pool.apply(
                    0, _echo_when_released, kwargs={"release": release},
                    arrays={"x": np.arange(100)},
                )
                pool.apply(0, _echo_arrays, arrays={"x": np.arange(200)})
                assert frames[1][:3] == (1 << 15, 1600, 1)
                # Both halves busy: the next frame goes after the active
                # half's frame, on the alignment grid.
                pool.apply(0, _echo_arrays, arrays={"x": np.arange(300)})
                assert frames[2][:3] == ((1 << 15) + 1600, 2432, 1)
            finally:
                open(release, "w").close()
            pool.drain()
            # Both halves free: the active half (1) restarts at its start.
            pool.apply(0, _echo_arrays, arrays={"x": np.arange(50)}, sync=True)
            assert frames[3][:3] == (1 << 15, 448, 1)
            assert handle.high_water == 1600 + 2432

    def test_halves_alternate_under_pipelined_load(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 15) as pool:
            handle = pool.workers[0]
            halves = set()
            results = []
            expected = []
            for index in range(40):
                payload = np.full(512, index, dtype=np.int64)  # 4 KiB frames
                expected.append(float(payload.sum()))
                pool.apply(
                    0,
                    _echo_slowly,
                    arrays={"x": payload},
                    on_result=lambda r: results.append(r["x"]),
                )
                halves.add(handle.active_half)
            pool.drain()
            assert results == expected
            # Frames are allocated while earlier ones are unacknowledged, so
            # the driver must have flipped to the free half — and every flip
            # waited only on the other half's acks.
            assert halves == {0, 1}
            assert handle.half_pending == [0, 0]

    def test_oversized_frame_grows_segment_and_resets_halves(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=4096) as pool:
            handle = pool.workers[0]
            big = np.arange(10_000, dtype=np.int64)  # 80 KB > capacity // 2
            result = pool.apply(0, _echo_arrays, arrays={"x": big}, sync=True)
            assert result["x"] == float(big.sum())
            assert handle.capacity >= 2 * big.nbytes
            assert handle.half_pending == [0, 0]

    def test_half_pending_reclaimed_after_failed_commands(self):
        with ShardWorkerPool(max_workers=1, ring_bytes=1 << 16) as pool:
            handle = pool.workers[0]
            pool.apply(0, _boom, arrays={"x": np.arange(16)})
            with pytest.raises(RemoteTaskError, match="boom"):
                pool.drain()
            # The worker finished reading the frame even though the command
            # failed; its ring half must be reusable.
            assert handle.half_pending == [0, 0]
            result = pool.apply(
                0, _echo_arrays, arrays={"x": np.arange(16)}, sync=True
            )
            assert result["x"] == float(np.arange(16).sum())


class TestServiceIngestWindow:
    """Worker-side ingest of a staged window of pre-routed batches."""

    def test_window_ingest_matches_per_batch_ingest_bit_identically(self):
        reference = {s: RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        residents = {("svc", 7, s): RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        payload = np.arange(120)
        entries = [(1.0, [(0, 30), (2, 20)]), (2.5, [(2, 40)]), (4.0, [(0, 30)])]
        counts, _ = service_ingest_window(residents, payload, entries, 7)
        assert counts == {0: 60, 2: 60}
        reference[0].process_batch(payload[:30], time=1.0)
        reference[2].process_batch(payload[30:50], time=1.0)
        reference[2].process_batch(payload[50:90], time=2.5)
        reference[0].process_batch(payload[90:], time=4.0)
        for shard in (0, 2):
            live = residents[("svc", 7, shard)]
            assert live.sample_items() == reference[shard].sample_items()
            assert live.time == reference[shard].time
            assert live.total_weight == reference[shard].total_weight

    def test_in_process_entries_carry_their_rows(self):
        # No payload frame: each entry lists the sub-batches' rows themselves.
        framed = {("svc", 7, s): RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        in_process = {("svc", 7, s): RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        payload = np.arange(90)
        entries = [(1.0, [(0, 30), (2, 20)]), (2.5, [(2, 10, 40)]), (4.0, [(0, 30)])]
        sliced = [
            (1.0, [(0, payload[:30]), (2, payload[30:50])]),
            (2.5, [(2, payload[50:60], 40)]),
            (4.0, [(0, payload[60:])]),
        ]
        counts, _ = service_ingest_window(framed, payload, entries, 7)
        assert service_ingest_window(in_process, None, sliced, 7)[0] == counts == {0: 60, 2: 60}
        for key, sampler in framed.items():
            assert in_process[key].sample_items() == sampler.sample_items()
            assert in_process[key].total_weight == sampler.total_weight

    def test_profile_reports_ingest_seconds(self):
        residents = {("svc", 1, 0): RTBS(n=5, lambda_=0.1, rng=0)}
        counts, seconds = service_ingest_window(
            residents, np.arange(3), [(1.0, [(0, 3)])], 1
        )
        assert counts == {0: 3}
        assert seconds >= 0.0
