"""The always-on ingest phase timers behind ``stats()["profile"]``.

The service accumulates per-phase wall time (hash/split/wal/dispatch/
worker_ingest/ack) from construction on and reports it through ``stats()``.
The timers must stay strictly observational: timings ride alongside
results, never through the RNG or the routed data, so trajectories are
unchanged. On the serial backend the phases never overlap, so their sum
stays within the wall time of the ingest calls.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np
import pytest

from tests.faults import assert_states_equal

from repro.core import RTBS
from repro.service import ReplicationConfig, SamplerService

PHASES = ("hash", "split", "wal", "dispatch", "worker_ingest", "ack")


def rtbs_factory(rng):
    return RTBS(n=100, lambda_=0.1, rng=rng)


class TestProfile:
    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_every_phase_starts_at_zero(self, backend):
        with SamplerService(
            rtbs_factory, num_shards=4, rng=0, executor=backend
        ) as service:
            assert service.stats()["profile"] == {
                "batches": 0,
                "seconds": dict.fromkeys(PHASES, 0.0),
            }

    def test_in_process_phases_accumulate(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=0)
        service.ingest_batch(np.arange(500))
        service.ingest_batch(np.arange(500, 1000))
        profile = service.stats()["profile"]
        assert profile["batches"] == 2
        assert tuple(profile["seconds"]) == PHASES
        for phase in ("hash", "split", "dispatch", "worker_ingest"):
            assert profile["seconds"][phase] > 0.0, phase
        assert profile["seconds"]["wal"] == 0.0

    def test_wal_phase_recorded(self, tmp_path):
        service = SamplerService(
            rtbs_factory, num_shards=2, rng=0, wal_dir=tmp_path / "wal"
        )
        try:
            service.ingest_batch(np.arange(64))
            assert service.stats()["profile"]["seconds"]["wal"] > 0.0
        finally:
            service.close()

    def test_transport_phases_include_worker_side_timing(self):
        with SamplerService(
            rtbs_factory, num_shards=4, rng=0, executor="process:1"
        ) as service:
            service.ingest_batch(np.arange(1000))
            profile = service.stats()["profile"]
            assert profile["batches"] == 1
            for phase in ("hash", "split", "dispatch", "ack", "worker_ingest"):
                assert profile["seconds"][phase] > 0.0, phase

    def test_serial_phases_never_exceed_the_ingest_wall_time(self):
        # A filling sample accepts every arrival, so the shards' window
        # ingest is a large share of each call: counted inside dispatch as
        # well, the phases would add up to more than the wall time.
        service = SamplerService(
            lambda rng: RTBS(n=1_000_000, lambda_=0.01, rng=rng),
            num_shards=8,
            rng=5,
        )
        wall = 0.0
        for call in range(4):
            batches = [
                np.arange(start, start + 20_000)
                for start in range(call * 160_000, (call + 1) * 160_000, 20_000)
            ]
            begin = perf_counter()
            service.ingest(batches, window=4)
            service.ingest_batch(np.arange(-20_000, 0) - call * 20_000)
            wall += perf_counter() - begin
            profile = service.stats()["profile"]
            assert profile["batches"] == 9 * (call + 1)
            assert sum(profile["seconds"].values()) <= wall
        assert profile["seconds"]["worker_ingest"] > 0.0

    def test_serial_and_process_trajectories_match(self):
        batches = [np.arange(start, start + 2000) for start in range(0, 20_000, 2000)]
        serial = SamplerService(rtbs_factory, num_shards=4, rng=3)
        serial.ingest(batches, window=3)
        with SamplerService(
            rtbs_factory, num_shards=4, rng=3, executor="process:2"
        ) as process:
            process.ingest(batches, window=3)
            assert_states_equal(process.state_dict(), serial.state_dict())


def test_reader_sees_every_phase_while_a_durable_service_ingests(tmp_path):
    # The profile dict is read without the service lock: a poller running
    # beside the first windows of a replicated process service must never
    # raise, and must find every phase from its first read on.
    reads: list[dict] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    with SamplerService(
        rtbs_factory,
        num_shards=8,
        rng=11,
        executor="process:2",
        wal_dir=tmp_path / "wal",
        replication=ReplicationConfig(),
    ) as service:

        def poll() -> None:
            try:
                while not stop.is_set() or not reads:
                    reads.append(service.stats(max_staleness_batches=8)["profile"])
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        reader = threading.Thread(target=poll, daemon=True)
        reader.start()
        try:
            for call in range(3):
                first = call * 40_000
                batches = [
                    np.arange(start, start + 5_000)
                    for start in range(first, first + 40_000, 5_000)
                ]
                service.ingest(batches, window=2)
        finally:
            stop.set()
            reader.join(timeout=30)
        assert not reader.is_alive()
        if errors:
            raise errors[0]
        assert reads
        for profile in reads:
            assert tuple(profile["seconds"]) == PHASES
        assert reads[-1]["batches"] <= service.stats()["profile"]["batches"] == 24
