"""Executor-backend tests for SamplerService: equivalence + checkpointing.

The engine's determinism contract says the backend changes *where* shard
work runs, never *what* it computes. These tests pin that: a
process-backend smoke test (state ships across the process boundary and
returns bit-exact against serial), and the acceptance scenario — the
4-shard mid-stream checkpoint/restore — driven through the process backend.
"""

from __future__ import annotations

import functools
import os
import signal
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    RTBS,
    TTBS,
    AResSampler,
    BatchedChao,
    BatchedReservoir,
    BTBS,
    SlidingWindow,
    UniformReservoir,
)
import repro.engine.executors as executors
import repro.engine.transport as transport
from repro.engine import (
    EngineError,
    ProcessPoolExecutor,
    ShardWorkerPool,
    WorkerCrashError,
)
from repro.distributed import SimulatedCluster
from repro.service import ReplicationConfig, SamplerService, load_service, save_service


def rtbs_factory(rng):
    return RTBS(n=100, lambda_=0.15, rng=rng)


def _batches(count: int, size: int = 400, start: int = 0) -> list[np.ndarray]:
    return [
        np.arange(start + index * size, start + (index + 1) * size)
        for index in range(count)
    ]


class TestBackendEquivalence:
    def test_serial_and_process_trajectories_are_identical(self):
        batches = _batches(12)
        serial = SamplerService(rtbs_factory, num_shards=4, rng=17, executor="serial")
        with SamplerService(
            rtbs_factory, num_shards=4, rng=17, executor=ProcessPoolExecutor(2)
        ) as shipped:
            # Interleave per-batch and windowed bulk ingest on both.
            for batch in batches[:4]:
                serial.ingest_batch(batch)
                shipped.ingest_batch(batch)
            serial.ingest(batches[4:], window=3)
            shipped.ingest(batches[4:], window=3)
            assert shipped.sample_items() == serial.sample_items()
            assert shipped.total_weight == serial.total_weight
            assert shipped.shard_samples() == serial.shard_samples()
            assert shipped.time == serial.time

    def test_process_backend_smoke(self):
        """Process backend: shard state ships out, returns, and stays exact."""
        batches = _batches(6)
        serial = SamplerService(rtbs_factory, num_shards=4, rng=23)
        serial.ingest(batches)
        with SamplerService(
            rtbs_factory, num_shards=4, rng=23, executor=ProcessPoolExecutor(2)
        ) as shipped:
            shipped.ingest(batches)
            assert shipped.sample_items() == serial.sample_items()
            assert shipped.total_weight == serial.total_weight
            stats = shipped.stats()
            assert stats["executor"] == "process"
            assert stats["active_shards"] == 4

    def test_executor_spec_strings_are_accepted(self):
        service = SamplerService(rtbs_factory, num_shards=2, rng=0, executor="process:2")
        service.ingest_batch(np.arange(100))
        assert len(service.sample_items()) > 0
        service.close()

    @pytest.mark.parametrize("spec", ["gpu", "thread", "thread:2"])
    def test_invalid_executor_spec_is_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown executor backend"):
            SamplerService(rtbs_factory, num_shards=2, rng=0, executor=spec)


class TestStats:
    def test_stats_reports_per_shard_fill(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=3)
        assert service.stats()["active_shards"] == 0
        service.ingest(_batches(10))
        stats = service.stats()
        assert stats["num_shards"] == 4
        assert stats["executor"] == "serial"
        assert stats["batches_seen"] == 10
        assert stats["total_items"] == len(service.sample_items())
        assert stats["total_weight"] == pytest.approx(service.total_weight)
        for shard_id, shard in stats["shards"].items():
            sampler = service.shard(shard_id)
            assert shard["items"] == len(sampler)
            assert shard["capacity"] == 100
            assert shard["fill_fraction"] == pytest.approx(len(sampler) / 100)
            assert shard["batches_seen"] == sampler.batches_seen
            assert shard["time"] == sampler.time

    def test_stats_is_read_only(self):
        service = SamplerService(rtbs_factory, num_shards=8, rng=0)
        service.ingest_batch([42])
        before = service.state_dict()
        service.stats()
        after = service.state_dict()
        assert set(before["shards"]) == set(after["shards"])
        assert before["rng_state"] == after["rng_state"]


class TestSamplerFacade:
    def test_process_batch_ingests_and_returns_merged_sample(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=5)
        sample = service.process_batch(np.arange(500), time=2.0)
        assert sample == service.sample_items()
        assert service.time == 2.0

    def test_process_stream_matches_ingest(self):
        batches = _batches(5)
        via_facade = SamplerService(rtbs_factory, num_shards=4, rng=5)
        final = via_facade.process_stream(batches)
        via_ingest = SamplerService(rtbs_factory, num_shards=4, rng=5)
        via_ingest.ingest(batches)
        assert final == via_ingest.sample_items()


_CORE_SAMPLER_FACTORIES = {
    "rtbs": lambda rng: RTBS(n=60, lambda_=0.15, rng=rng),
    "ttbs": lambda rng: TTBS(n=60, lambda_=0.15, mean_batch_size=100, rng=rng),
    "chao": lambda rng: BatchedChao(n=60, lambda_=0.15, rng=rng),
    "ares": lambda rng: AResSampler(n=60, lambda_=0.15, rng=rng),
    "btbs": lambda rng: BTBS(lambda_=0.15, rng=rng),
    "brs": lambda rng: BatchedReservoir(n=60, rng=rng),
    "uniform": lambda rng: UniformReservoir(n=60, rng=rng),
    "window": lambda rng: SlidingWindow(n=60, rng=rng),
}


def _assert_states_equal(actual, expected, path=""):
    """Recursive exact equality over snapshot dicts (incl. RNG bit state)."""
    assert type(actual) is type(expected) or (
        isinstance(actual, (int, float)) and isinstance(expected, (int, float))
    ), path
    if isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            _assert_states_equal(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (a, b) in enumerate(zip(actual, expected)):
            _assert_states_equal(a, b, f"{path}[{index}]")
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(actual, expected), path
    else:
        assert actual == expected, path


class TestProcessBitIdentityAcrossSamplers:
    """Every core sampler's resident trajectory must equal the serial one."""

    @pytest.mark.parametrize("name", sorted(_CORE_SAMPLER_FACTORIES))
    def test_serial_and_process_checkpoints_are_bit_identical(self, name):
        factory = _CORE_SAMPLER_FACTORIES[name]
        batches = _batches(8, size=100)
        serial = SamplerService(factory, num_shards=4, rng=11)
        serial.ingest(batches)
        with SamplerService(
            factory, num_shards=4, rng=11, executor="process:2"
        ) as resident:
            resident.ingest(batches)
            assert resident.sample_items() == serial.sample_items()
            _assert_states_equal(resident.state_dict(), serial.state_dict())
            # One batch per window: every window's frame reuses ring bytes
            # an earlier one filled, while the same resident shards live on.
            more = _batches(40, size=100, start=800)
            serial.ingest(more, window=1)
            resident.ingest(more, window=1)
            assert resident.sample_items() == serial.sample_items()
            _assert_states_equal(resident.state_dict(), serial.state_dict())


def _drawing_factory(rng):
    """Pathological factory: draws from the shard stream at construction."""
    seed_items = list(rng.integers(0, 1000, 3))
    return RTBS(n=60, lambda_=0.15, initial_items=seed_items, rng=rng)


class TestDrawingFactoryBitIdentity:
    def test_idle_shard_reserved_streams_stay_pristine(self):
        # All items share one routing key, so exactly one shard activates.
        # Serial never invokes the factory for the idle shards; the
        # transport builds them eagerly (routing is worker-side) but must
        # not let those construction draws leak into the reserved streams.
        batches = [np.full(50, 7) for _ in range(4)]
        serial = SamplerService(_drawing_factory, num_shards=4, rng=19)
        for index, batch in enumerate(batches):
            serial.ingest_batch(batch, time=float(index + 1))
        with SamplerService(
            _drawing_factory, num_shards=4, rng=19, executor="process:2"
        ) as resident:
            for index, batch in enumerate(batches):
                resident.ingest_batch(batch, time=float(index + 1))
            assert resident.active_shards == serial.active_shards
            assert len(resident.active_shards) == 1
            _assert_states_equal(resident.state_dict(), serial.state_dict())


class TestTransportRoutingModes:
    """Each of the three frame routing modes must match serial routing."""

    def test_object_payload_with_key_fn_routes_driver_side(self):
        # key_fn is driver-side code; items are tuples (object payload), so
        # frames fall back to pickled payloads + precomputed shard ids.
        items = [[(index, batch) for index in range(120)] for batch in range(6)]
        serial = SamplerService(
            rtbs_factory, num_shards=4, rng=5, key_fn=lambda item: item[0]
        )
        serial.ingest(items)
        with SamplerService(
            rtbs_factory,
            num_shards=4,
            rng=5,
            key_fn=lambda item: item[0],
            executor="process:2",
        ) as resident:
            resident.ingest(items)
            assert resident.sample_items() == serial.sample_items()

    def test_string_key_arrays_route_worker_side(self):
        rng = np.random.default_rng(3)
        batches = _batches(6, size=200)
        keys = [
            np.asarray([f"user-{value}" for value in rng.integers(0, 50, 200)])
            for _ in range(6)
        ]
        serial = SamplerService(rtbs_factory, num_shards=4, rng=7)
        serial.ingest(batches, keys=list(keys))
        with SamplerService(
            rtbs_factory, num_shards=4, rng=7, executor="process:2"
        ) as resident:
            resident.ingest(batches, keys=list(keys))
            assert resident.sample_items() == serial.sample_items()
            assert resident.shard_samples() == serial.shard_samples()

    def test_explicit_numeric_keys_route_worker_side(self):
        batches = _batches(5)
        keys = [np.arange(400) % 37 for _ in range(5)]
        serial = SamplerService(rtbs_factory, num_shards=4, rng=2)
        serial.ingest(batches, keys=list(keys))
        with SamplerService(
            rtbs_factory, num_shards=4, rng=2, executor="process:2"
        ) as resident:
            resident.ingest(batches, keys=list(keys))
            assert resident.sample_items() == serial.sample_items()


class TestOnePipeline:
    """Every backend hosts its shards; the serial host runs windows in process."""

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_changing_a_shard_read_leaves_the_service_as_it_was(self, backend):
        with SamplerService(rtbs_factory, num_shards=4, rng=5, executor=backend) as service:
            service.ingest(_batches(4))
            for _ in ("attached", "detached by close"):
                before = service.state_dict()
                shard_id = service.active_shards[0]
                service.shard(shard_id).process_batch(
                    np.arange(10**6, 10**6 + 50), time=service.time + 1.0
                )
                _assert_states_equal(service.state_dict(), before)
                service.close()

    def test_each_shard_ingests_once_per_window(self, monkeypatch):
        # The amortization bulk ingest rests on: one ingest_stream call per
        # active shard per window, holding every batch of the window.
        calls: list[tuple[int, int]] = []
        ingest_stream = RTBS.ingest_stream

        def spy(sampler, batches, *args, **kwargs):
            calls.append((id(sampler), len(batches)))
            return ingest_stream(sampler, batches, *args, **kwargs)

        monkeypatch.setattr(RTBS, "ingest_stream", spy)
        service = SamplerService(rtbs_factory, num_shards=4, rng=9)
        service.ingest(_batches(8), window=3)
        assert len(service.active_shards) == 4
        assert sorted(size for _, size in calls) == [2] * 4 + [3] * 8
        assert sorted(Counter(sampler for sampler, _ in calls).values()) == [3] * 4
        calls.clear()
        for batch in _batches(2, start=10_000):
            service.ingest_batch(batch)
        assert [size for _, size in calls] == [1] * 8

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_each_pristine_shard_is_built_once(self, backend):
        # The first batch's plan builds every shard's sampler to read its
        # mirror; the attach that follows hosts those very samplers.
        built: list[int] = []

        def counting_factory(rng):
            built.append(1)
            return _drawing_factory(rng)

        reference = SamplerService(_drawing_factory, num_shards=8, rng=23)
        reference.ingest(_batches(5))
        with SamplerService(
            counting_factory, num_shards=8, rng=23, executor=backend
        ) as service:
            service.ingest(_batches(5))
            assert len(built) == 8
            _assert_states_equal(service.state_dict(), reference.state_dict())

    def test_the_simulated_cluster_hosts_shards_in_process(self):
        batches = _batches(6)
        serial = SamplerService(rtbs_factory, num_shards=4, rng=13)
        serial.ingest(batches)
        with SamplerService(
            rtbs_factory, num_shards=4, rng=13, executor=SimulatedCluster(2)
        ) as simulated:
            simulated.ingest(batches)
            _assert_states_equal(simulated.state_dict(), serial.state_dict())


class TestExecutorLifecycle:
    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_close_detaches_and_later_ingest_reattaches(self, tmp_path, backend):
        batches = _batches(12)
        uninterrupted = SamplerService(rtbs_factory, num_shards=4, rng=31)
        uninterrupted.ingest(batches)
        service = SamplerService(
            rtbs_factory,
            num_shards=4,
            rng=31,
            executor=backend,
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        )
        service.ingest(batches[:6])
        service.close()  # shards taken back to the driver; workers gone
        halfway = SamplerService(rtbs_factory, num_shards=4, rng=31)
        halfway.ingest(batches[:6])
        # Reads of the detached service see the driver's samplers.
        assert service.sample_items() == halfway.sample_items()
        assert service.stats()["active_shards"] == 4
        service.ingest(batches[6:])  # transparently re-attaches (and respawns)
        try:
            assert service.sample_items() == uninterrupted.sample_items()
            _assert_states_equal(service.state_dict(), uninterrupted.state_dict())
        finally:
            service.close()

    def test_flush_is_a_barrier_and_a_noop_in_process(self):
        serial = SamplerService(rtbs_factory, num_shards=2, rng=0)
        serial.flush()  # no-op, never spawns workers
        with SamplerService(
            rtbs_factory, num_shards=2, rng=0, executor="process:1"
        ) as resident:
            resident.ingest(_batches(3))
            resident.flush()
            assert len(resident) > 0

    def test_one_pool_is_reused_across_ingest_calls(self):
        with SamplerService(
            rtbs_factory, num_shards=2, rng=0, executor="process:1"
        ) as service:
            service.ingest(_batches(2))
            pool_before = service.executor.transport
            service.ingest(_batches(2, start=2 * 400))
            assert service.executor.transport is pool_before

    def test_killed_shard_worker_surfaces_as_engine_error(self):
        # Raised once on the ingest path, and again if close() is called
        # directly afterwards (resident state could not be detached) —
        # while the with-block form below never double-raises.
        with pytest.raises(EngineError):
            with SamplerService(
                rtbs_factory, num_shards=4, rng=13, executor="process:2"
            ) as service:
                service.ingest(_batches(2))
                service.flush()
                victim = service.executor.transport.workers[1].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                with pytest.raises(EngineError, match="shard worker 1"):
                    for index in range(200):
                        service.ingest(_batches(1, start=(index + 2) * 400))
                        service.flush()
                # Leaving the with-block "cleanly" now: close() re-raises
                # the crash (resident state could not be detached), caught
                # by the outer raises.

    def test_with_block_does_not_mask_a_propagating_exception(self):
        with pytest.raises(RuntimeError, match="user error"):
            with SamplerService(
                rtbs_factory, num_shards=2, rng=0, executor="process:1"
            ) as service:
                service.ingest(_batches(1))
                service.flush()
                victim = service.executor.transport.workers[0].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                raise RuntimeError("user error")

    def test_close_as_first_drain_after_crash_raises_instead_of_losing_data(self):
        service = SamplerService(
            rtbs_factory, num_shards=4, rng=13, executor="process:2"
        )
        service.ingest(_batches(2))
        service.flush()
        victim = service.executor.transport.workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        # The crash must surface on whichever call drains first — possibly
        # close() itself — never be swallowed.
        with pytest.raises(EngineError, match="shard worker 0"):
            service.ingest(_batches(1, start=800))
            service.close()

    def test_worker_crash_error_names_resident_shards(self):
        assert issubclass(WorkerCrashError, EngineError)


@pytest.mark.parametrize("backend", ["process:2", "process:3"])
class TestCheckpointThroughParallelBackends:
    """The 4-shard mid-stream restore scenario, on even and uneven pools."""

    def test_mid_stream_checkpoint_restore_is_bit_identical(self, tmp_path, backend):
        prefix = _batches(10)
        suffix = _batches(10, start=10 * 400)

        uninterrupted = SamplerService(rtbs_factory, num_shards=4, rng=21)
        uninterrupted.ingest(prefix)

        with SamplerService(
            rtbs_factory, num_shards=4, rng=21, executor=backend
        ) as interrupted:
            interrupted.ingest(prefix)
            save_service(interrupted, tmp_path / "ckpt")

        with load_service(tmp_path / "ckpt", rtbs_factory, executor=backend) as restored:
            assert len(restored.active_shards) >= 4
            uninterrupted.ingest(suffix)
            restored.ingest(suffix)

            assert restored.sample_items() == uninterrupted.sample_items()
            assert restored.total_weight == uninterrupted.total_weight
            assert restored.expected_sample_size == uninterrupted.expected_sample_size
            assert restored.time == uninterrupted.time
            assert restored.batches_seen == uninterrupted.batches_seen
            for shard_id in uninterrupted.active_shards:
                original = uninterrupted.shard(shard_id)
                clone = restored.shard(shard_id)
                assert clone.total_weight == original.total_weight
                assert clone.sample_items() == original.sample_items()


def use_ring_bytes(monkeypatch, ring_bytes: int) -> None:
    """Give the process backend's worker pools a ring of ``ring_bytes``."""
    monkeypatch.setattr(
        executors,
        "ShardWorkerPool",
        functools.partial(ShardWorkerPool, ring_bytes=ring_bytes),
    )


class TestTransportGauge:
    """``stats()["transport"]``: per-worker ring use, read driver-side."""

    def test_serial_backend_reports_none(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=3)
        service.ingest(_batches(2))
        assert service.stats()["transport"] is None

    def test_rings_hold_only_the_frames_in_flight(self, tmp_path):
        rng = np.random.default_rng(31)
        batches = [rng.integers(0, 1 << 40, 1000) for _ in range(151)]
        with SamplerService(
            lambda r: RTBS(n=60, lambda_=0.15, rng=r),
            num_shards=4,
            rng=7,
            executor="process:2",
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        ) as service:
            assert service.stats()["transport"] == []
            # The first window ships its whole (unthinned) batch: the
            # largest frame of the run.
            service.ingest(batches[:1])
            first = service.stats()["transport"]
            service.ingest(batches[1:], window=1)
            usage = service.stats()["transport"]
        assert len(usage) == 2
        for before, after in zip(first, usage):
            assert after["ring_bytes"] == before["ring_bytes"] == transport.DEFAULT_RING_BYTES
            # 150 more windows, each starting at a drained half's start:
            # the high water stays near the first frame, far below a half
            # (the windows' frames add up to several times the first).
            assert 0 < before["ring_high_water_bytes"]
            assert after["ring_high_water_bytes"] <= 2 * before["ring_high_water_bytes"]


class TestTransportWindows:
    """One ring frame per worker per window: the half rule and the watermark."""

    def test_windows_crossing_halves_and_growing_the_segment_match_serial(
        self, monkeypatch
    ):
        # 512 KiB halves hold one 100k-item batch's runs per worker (about
        # 400 KB), so every window is sent in several commands; the last
        # batch's runs (about 1.2 MB per worker) outgrow a half and grow the
        # segment mid-window. The samplers never saturate, so the driver
        # ships every arrival instead of a thinned few.
        use_ring_bytes(monkeypatch, 1 << 20)

        def rtbs_factory(rng):
            return RTBS(n=1_000_000, lambda_=0.15, rng=rng)

        sends: list[int] = []
        send_window = transport._WorkerHandle.send_window

        def counted(handle):
            if handle.window is not None:
                sends.append(handle.index)
            return send_window(handle)

        monkeypatch.setattr(transport._WorkerHandle, "send_window", counted)
        rng = np.random.default_rng(11)
        sizes = [100_000] * 8 + [300_000]
        batches = [rng.integers(0, 1 << 40, size=size) for size in sizes]
        reference = SamplerService(rtbs_factory, num_shards=4, rng=5)
        reference.ingest(batches)
        with SamplerService(
            rtbs_factory, num_shards=4, rng=5, executor="process:2"
        ) as service:
            service.ingest(batches, window=3)
            capacities = [h.capacity for h in service.executor.transport.workers]
            _assert_states_equal(service.state_dict(), reference.state_dict())
        # Three windows, two workers: one command each would be 6 sends.
        assert sends.count(0) == sends.count(1) == len(batches)
        assert min(capacities) > 1 << 20

    def test_watermark_never_passes_a_staged_or_unacknowledged_batch(
        self, tmp_path, monkeypatch
    ):
        observed: list[tuple[int, int | None, list[int]]] = []
        stage = ShardWorkerPool.stage

        def checked(pool, worker, task, source, runs, entry, tag=None):
            open_tags = [h.window.tag for h in pool.workers if h.window is not None]
            observed.append((tag, pool.acked_through(), open_tags))
            return stage(pool, worker, task, source, runs, entry, tag=tag)

        monkeypatch.setattr(ShardWorkerPool, "stage", checked)
        service = SamplerService(
            rtbs_factory,
            num_shards=4,
            rng=3,
            executor="process:2",
            wal_dir=tmp_path / "wal",
        )
        try:
            service.ingest(_batches(20), window=5)
            service.flush()
            assert service.acked_batches == service.batches_seen == 20
        finally:
            service.close()
        assert any(open_tags for _, _, open_tags in observed)
        for tag, acked, open_tags in observed:
            if acked is not None:
                assert acked < tag
                assert all(acked < first for first in open_tags)
