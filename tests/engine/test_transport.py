"""Tests for the persistent-worker shared-memory transport layer."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core import RTBS
from repro.engine import (
    EngineError,
    ProcessPoolExecutor,
    RemoteTaskError,
    ShardWorkerPool,
    WorkerCrashError,
    restore_sampler,
    service_ingest_routed,
    snapshot_sampler,
)


def _square(x: int) -> int:
    return x * x


def _fail(x):
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
        for index in range(5):
            batch = np.arange(index * 100, (index + 1) * 100)
            reference.process_stream([batch], times=[float(index + 1)])
            pool.apply(
                0,
                service_ingest_routed,
                kwargs={
                    "time": float(index + 1),
                    "service_id": 9,
                    "shard_sizes": [(0, len(batch))],
                },
                arrays={"payload": batch},
            )
        mid = RTBS.from_state_dict(pool.snapshot(key, snapshot_sampler))
        assert mid.sample_items() == reference.sample_items()
        assert key in pool.resident_keys
        final = RTBS.from_state_dict(pool.detach(key, snapshot_sampler))
        assert final.sample_items() == reference.sample_items()
        assert final.total_weight == reference.total_weight
        assert key not in pool.resident_keys

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
    def test_run_tasks_preserves_order(self, pool):
        assert pool.run_tasks(_square, list(range(23))) == [x * x for x in range(23)]

    def test_remote_errors_carry_the_original_traceback(self, pool):
        with pytest.raises(RemoteTaskError, match="intentional failure"):
            pool.run_tasks(_fail, [1, 2, 3])

    def test_pool_survives_task_errors(self, pool):
        with pytest.raises(RemoteTaskError):
            pool.run_tasks(_fail, [1])
        assert pool.run_tasks(_square, [5]) == [25]


class TestWorkerCrash:
    def test_killed_worker_raises_worker_crash_error_naming_it(self):
        with ShardWorkerPool(max_workers=2, ring_bytes=1 << 20) as pool:
            key = ("svc", 1, 0)
            pool.attach(key, restore_sampler, RTBS(n=10, lambda_=0.1, rng=0).state_dict(), worker=0)
            pool.drain()
            victim = pool.workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerCrashError, match="shard worker 0") as excinfo:
                for _ in range(200):
                    pool.apply(
                        0,
                        service_ingest_routed,
                        kwargs={
                            "time": 1.0,
                            "service_id": 1,
                            "shard_sizes": [(0, 64)],
                        },
                        arrays={"payload": np.arange(64)},
                    )
                    pool.drain()
                    time.sleep(0.01)
            # The error names the resident state lost with the worker.
            assert "restore" in str(excinfo.value)

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
            assert pool.run_tasks(_square, [3]) == [9]

    def test_shutdown_closes_and_recreates_the_pool(self):
        executor = ProcessPoolExecutor(1)
        first = executor.transport
        executor.shutdown()
        with pytest.raises(EngineError, match="closed"):
            first.run_tasks(_square, [1])
        second = executor.transport
        assert second is not first
        assert second.run_tasks(_square, [4]) == [16]
        executor.shutdown()


def _payload_list(residents, payload):
    return np.asarray(payload).tolist()


class TestScatterFrames:
    """write_frame's scatter path: gather rows straight into the ring."""

    def test_scatter_gathers_rows_into_the_ring(self, pool):
        source = np.arange(100, dtype=np.int64) * 3
        indices = np.array([5, 1, 7, 7, 42], dtype=np.int64)
        result = pool.apply(
            0, _payload_list, scatters={"payload": (source, indices)}, sync=True
        )
        assert result == source[indices].tolist()

    def test_scatter_mixes_with_plain_arrays(self, pool):
        source = np.linspace(0.0, 1.0, 50)
        indices = np.arange(0, 50, 7)
        result = pool.apply(
            0,
            _echo_arrays,
            arrays={"extra": np.arange(4)},
            scatters={"weights": (source, indices)},
            sync=True,
        )
        assert result["extra"] == 6.0
        assert result["weights"] == pytest.approx(float(source[indices].sum()))

    def test_string_dtype_scatter_rides_the_ring(self, pool):
        source = np.array(["alpha", "beta", "gamma"])
        indices = np.array([2, 2, 0])
        result = pool.apply(
            0, _payload_list, scatters={"payload": (source, indices)}, sync=True
        )
        assert result == ["gamma", "gamma", "alpha"]

    def test_object_dtype_scatter_falls_back_to_pickle(self, pool):
        source = np.array(["a", "bb", None, 4], dtype=object)
        indices = np.array([2, 0, 3])
        result = pool.apply(
            0, _payload_list, scatters={"payload": (source, indices)}, sync=True
        )
        assert result == [None, "a", 4]

    def test_empty_scatter_selection(self, pool):
        source = np.arange(10)
        indices = np.empty(0, dtype=np.int64)
        result = pool.apply(
            0, _payload_list, scatters={"payload": (source, indices)}, sync=True
        )
        assert result == []


class TestDoubleBuffering:
    """The ring's two halves overlap driver writes with worker reads."""

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
                    _echo_arrays,
                    arrays={"x": payload},
                    on_result=lambda r: results.append(r["x"]),
                )
                halves.add(handle.active_half)
            pool.drain()
            assert results == expected
            # 16 KiB halves fill after four frames, so the driver must have
            # flipped — and every flip waited only on the other half's acks.
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


class TestServiceIngestRouted:
    """Worker-side ingest of pre-routed frames (the fused dispatch path)."""

    def test_walks_preassembled_slices_bit_identically(self):
        reference = {s: RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        residents = {("svc", 7, s): RTBS(n=20, lambda_=0.1, rng=s) for s in (0, 2)}
        payload = np.arange(50)
        counts = service_ingest_routed(residents, payload, 1.0, 7, [(0, 30), (2, 20)])
        assert counts == {0: 30, 2: 20}
        reference[0].process_stream([payload[:30]], times=[1.0])
        reference[2].process_stream([payload[30:]], times=[1.0])
        for shard in (0, 2):
            assert (
                residents[("svc", 7, shard)].sample_items()
                == reference[shard].sample_items()
            )

    def test_profile_reports_ingest_seconds(self):
        residents = {("svc", 1, 0): RTBS(n=5, lambda_=0.1, rng=0)}
        counts, seconds = service_ingest_routed(
            residents, np.arange(3), 1.0, 1, [(0, 3)], profile=True
        )
        assert counts == {0: 3}
        assert seconds >= 0.0
