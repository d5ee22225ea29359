"""Executor-backend tests for SamplerService: equivalence + checkpointing.

The engine's determinism contract says the backend changes *where* shard
work runs, never *what* it computes. These tests pin that: identical sample
trajectories across serial/thread backends for a fixed seed, a
process-backend smoke test (state ships across the process boundary and
returns bit-exact), and the acceptance scenario — the 4-shard mid-stream
checkpoint/restore — driven through the thread and process backends.
"""

from __future__ import annotations

import os
import signal

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
from repro.engine import (
    EngineError,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    WorkerCrashError,
)
from repro.service import SamplerService, load_service, save_service


def rtbs_factory(rng):
    return RTBS(n=100, lambda_=0.15, rng=rng)


def _batches(count: int, size: int = 400, start: int = 0) -> list[np.ndarray]:
    return [
        np.arange(start + index * size, start + (index + 1) * size)
        for index in range(count)
    ]


class TestBackendEquivalence:
    def test_serial_and_thread_trajectories_are_identical(self):
        batches = _batches(12)
        serial = SamplerService(rtbs_factory, num_shards=4, rng=17, executor="serial")
        with SamplerService(
            rtbs_factory, num_shards=4, rng=17, executor=ThreadPoolExecutor(3)
        ) as threaded:
            # Interleave per-batch and windowed bulk ingest on both.
            for batch in batches[:4]:
                serial.ingest_batch(batch)
                threaded.ingest_batch(batch)
            serial.ingest(batches[4:], window=3)
            threaded.ingest(batches[4:], window=3)
            assert threaded.sample_items() == serial.sample_items()
            assert threaded.total_weight == serial.total_weight
            assert threaded.shard_samples() == serial.shard_samples()
            assert threaded.time == serial.time

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
        service = SamplerService(rtbs_factory, num_shards=2, rng=0, executor="thread:2")
        service.ingest_batch(np.arange(100))
        assert len(service.sample_items()) > 0
        service.shutdown()

    def test_invalid_executor_spec_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            SamplerService(rtbs_factory, num_shards=2, rng=0, executor="gpu")


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


class TestPlainStateShippingExecutor:
    def test_plain_state_shipping_backend_is_rejected(self):
        # A backend that ships state but has no resident transport would
        # ingest into copies of the shards: refused at construction and on
        # restore, before any state exists.
        class SnapshotShipper(SerialExecutor):
            name = "shipper"
            ships_state = True

        with pytest.raises(ValueError, match="transport-capable"):
            SamplerService(
                rtbs_factory, num_shards=4, rng=29, executor=SnapshotShipper()
            )
        serial = SamplerService(rtbs_factory, num_shards=4, rng=29)
        serial.ingest(_batches(2))
        with pytest.raises(ValueError, match="transport-capable"):
            SamplerService.from_state_dict(
                serial.state_dict(), rtbs_factory, executor=SnapshotShipper()
            )


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


class TestExecutorLifecycle:
    def test_close_detaches_and_later_ingest_reattaches(self):
        batches = _batches(12)
        serial = SamplerService(rtbs_factory, num_shards=4, rng=31)
        serial.ingest(batches)
        resident = SamplerService(
            rtbs_factory, num_shards=4, rng=31, executor="process:2"
        )
        resident.ingest(batches[:6])
        resident.close()  # workers gone; state pulled back to the driver
        resident.ingest(batches[6:])  # transparently respawns + re-attaches
        try:
            assert resident.sample_items() == serial.sample_items()
            _assert_states_equal(resident.state_dict(), serial.state_dict())
        finally:
            resident.close()

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


@pytest.mark.parametrize("backend", ["thread", "process:2"])
class TestCheckpointThroughParallelBackends:
    """The 4-shard mid-stream restore scenario, driven through each backend."""

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
