"""Snapshot-isolated read stress tests.

Readers hammer ``snapshot()`` / ``stats()`` from threads while the main
thread streams 100k-item batches through ``ingest`` on every executor
backend. Each observed cut must be internally consistent (committed
watermark, per-shard views that add up, mergeable items), and — the core
purity guarantee — the final service state must be bit-identical to a
same-seed run with no readers at all: reads never draw randomness, never
create shards, never perturb the stream.

The checkpoint half pins the other acceptance criterion: a checkpoint
serialized from a snapshot cut restores bit-identical to the drained
``state_dict()`` of the same service, on both backends (the process
backend with one worker hosting every shard, and with two).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import RTBS
from repro.service import (
    ReplicationConfig,
    SamplerService,
    ServiceSnapshot,
    load_checkpoint,
)

BACKENDS = ["serial", "process:1", "process:2"]

_BATCH = 100_000
_BATCHES = 12
_SHARDS = 8
_READERS = 3


def rtbs_factory(rng):
    return RTBS(n=200, lambda_=0.1, rng=rng)


def _batches(count: int = _BATCHES, size: int = _BATCH) -> list[np.ndarray]:
    return [np.arange(index * size, (index + 1) * size) for index in range(count)]


def _assert_states_equal(actual, expected, path=""):
    """Recursive exact equality over state dicts (incl. RNG bit state)."""
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
    elif isinstance(expected, float) and expected != expected:
        assert actual != actual, path  # nan == nan for state purposes
    else:
        assert actual == expected, path


def _check_cut(snap: ServiceSnapshot) -> None:
    """Internal-consistency invariants every observed cut must satisfy."""
    assert isinstance(snap, ServiceSnapshot)
    assert -1 <= snap.watermark < _BATCHES
    assert snap.num_shards == _SHARDS
    assert snap.total_items == sum(
        view.sample_size for view in snap.views.values()
    )
    assert len(snap.sample_items()) == snap.total_items
    per_shard = snap.shard_samples()
    assert sorted(per_shard) == snap.active_shards
    for shard_id, view in snap.views.items():
        assert len(per_shard[shard_id]) == view.sample_size
        assert view.capacity == 200
        assert view.sample_size <= view.capacity
        # R-TBS realizes floor(C_t) or ceil(C_t) items — never further off.
        assert abs(view.expected_size - view.sample_size) <= 1.0
        assert view.batches_seen >= 1


class _Reader(threading.Thread):
    """Polls snapshots/stats until stopped; records cuts and any failure."""

    def __init__(self, service: SamplerService, stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.service = service
        self.stop_event = stop
        self.snapshots = 0
        self.watermarks: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while not self.stop_event.is_set():
                snap = self.service.snapshot()
                _check_cut(snap)
                stats = self.service.stats(max_staleness_batches=4)
                assert stats["watermark"] <= stats["batches_seen"] - 1
                assert stats["total_items"] == sum(
                    shard["items"] for shard in stats["shards"].values()
                )
                self.watermarks.append(snap.watermark)
                self.snapshots += 1
        except BaseException as error:  # noqa: BLE001 - re-raised by the test
            self.error = error


@pytest.mark.parametrize("backend", BACKENDS)
class TestReadersUnderIngest:
    def test_concurrent_readers_see_consistent_cuts_and_leave_no_trace(
        self, backend
    ):
        batches = _batches()

        quiet = SamplerService(rtbs_factory, num_shards=_SHARDS, rng=41)
        quiet.ingest(batches, window=2)
        reference = quiet.state_dict()

        with SamplerService(
            rtbs_factory, num_shards=_SHARDS, rng=41, executor=backend
        ) as service:
            stop = threading.Event()
            readers = [_Reader(service, stop) for _ in range(_READERS)]
            for reader in readers:
                reader.start()
            try:
                service.ingest(batches, window=2)
            finally:
                stop.set()
                for reader in readers:
                    reader.join(timeout=30)
            for reader in readers:
                if reader.error is not None:
                    raise reader.error
                assert not reader.is_alive()
                # Watermarks only move forward within one reader.
                assert reader.watermarks == sorted(reader.watermarks)
            assert sum(reader.snapshots for reader in readers) > 0

            # A final cut agrees with the quiesced stream...
            final = service.snapshot()
            assert final.watermark == _BATCHES - 1
            _check_cut(final)
            # ...and the readers left the trajectory bit-identical to the
            # same-seed run that had no readers at all.
            _assert_states_equal(service.state_dict(), reference)


class TestStaleTolerantReadsDuringAWindow:
    def test_bounded_reads_stay_within_their_bound_through_long_windows(
        self, tmp_path
    ):
        """A bounded read is served within its bound, from cache or a fresh cut.

        The standby takes no cuts of its own, so nothing refreshes the
        cached cut inside a 16-batch window: a read whose bound the
        cached cut exceeds takes the lock and waits for the window to end.
        Either way its watermark may trail the ``batches_seen`` read just
        before the call by at most the bound.
        """
        staleness = 4
        batches = _batches(count=32, size=_BATCH // 10)
        quiet = SamplerService(rtbs_factory, num_shards=_SHARDS, rng=23)
        quiet.ingest(batches, window=16)
        reference = quiet.state_dict()

        with SamplerService(
            rtbs_factory,
            num_shards=_SHARDS,
            rng=23,
            executor="process:2",
            wal_dir=tmp_path / "wal",
            replication=ReplicationConfig(),
        ) as service:
            stop = threading.Event()
            reads: list[tuple[int, int]] = []
            errors: list[BaseException] = []

            def poll() -> None:
                try:
                    while not stop.is_set():
                        before = service.batches_seen
                        stats = service.stats(max_staleness_batches=staleness)
                        reads.append((before, stats["watermark"]))
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)

            reader = threading.Thread(target=poll, daemon=True)
            reader.start()
            try:
                service.ingest(batches, window=16)
            finally:
                stop.set()
                reader.join(timeout=30)
            if errors:
                raise errors[0]
            assert not reader.is_alive()
            assert reads
            for before, watermark in reads:
                assert watermark >= before - 1 - staleness, (before, watermark)
            _assert_states_equal(service.state_dict(), reference)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSnapshotCheckpoint:
    def test_snapshot_checkpoint_matches_drained_state(self, tmp_path, backend):
        batches = _batches(count=8)
        with SamplerService(
            rtbs_factory, num_shards=_SHARDS, rng=7, executor=backend
        ) as service:
            service.ingest(batches, window=2)
            service.checkpoint(tmp_path / "cut")

            state = load_checkpoint(tmp_path / "cut")
            assert state["batches_seen"] == len(batches)
            restored = SamplerService.from_state_dict(state, rtbs_factory)
            # The snapshot-based checkpoint restores bit-identical to the
            # drained state_dict of the service that wrote it.
            _assert_states_equal(restored.state_dict(), service.state_dict())

    def test_checkpoint_mid_stream_does_not_perturb_the_run(
        self, tmp_path, backend
    ):
        prefix, suffix = _batches(count=5), _batches(count=5, size=_BATCH // 10)

        uninterrupted = SamplerService(rtbs_factory, num_shards=_SHARDS, rng=13)
        uninterrupted.ingest(prefix, window=2)
        uninterrupted.ingest(suffix, window=2)

        with SamplerService(
            rtbs_factory, num_shards=_SHARDS, rng=13, executor=backend
        ) as service:
            service.ingest(prefix, window=2)
            service.checkpoint(tmp_path / "mid")  # snapshot cut, no drain
            service.ingest(suffix, window=2)
            _assert_states_equal(service.state_dict(), uninterrupted.state_dict())
