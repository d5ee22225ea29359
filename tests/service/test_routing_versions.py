"""Routing-version compatibility: v1 checkpoints restore under exact v1 hashing.

``ROUTING_VERSION`` is 2 (batch-vectorized FNV-1a/SplitMix64 string hashing);
version 1 (per-key BLAKE2b) is retained so checkpoints written under it keep
their per-key affinity. A restored service routes *new* arrivals under the
version its checkpoint recorded, a load-time spot check rejects snapshots
whose recorded version disagrees with their actual layout, and
:meth:`reshard` re-homes everything onto the current encoding.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.faults import assert_states_equal

from repro.core import RTBS
from repro.service import SamplerService, shard_ids_for_keys
from repro.service.routing import ROUTING_VERSION, SUPPORTED_ROUTING_VERSIONS


def rtbs_factory(rng):
    return RTBS(n=64, lambda_=0.05, rng=rng)


def string_keys(count: int, offset: int = 0) -> np.ndarray:
    return np.array([f"user-{index:06d}" for index in range(offset, offset + count)])


def build_service(version: int, num_shards: int = 8) -> SamplerService:
    service = SamplerService(rtbs_factory, num_shards=num_shards, rng=7)
    # Simulate a deployment built when `version` was current: the instance
    # version drives every shard_ids_for_keys call the service makes.
    service._routing_version = version
    return service


def disagreeing_key(num_shards: int = 8) -> str:
    for index in range(10_000):
        key = f"probe-{index}"
        batch = np.array([key])
        v1 = int(shard_ids_for_keys(batch, num_shards, 1)[0])
        v2 = int(shard_ids_for_keys(batch, num_shards, 2)[0])
        if v1 != v2:
            return key
    raise AssertionError("v1 and v2 agree on 10k probe keys; not credible")


class TestVersionRecording:
    def test_fresh_service_records_current_version(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=0)
        assert service.routing_version == ROUTING_VERSION == 2
        assert service.state_dict()["routing_version"] == 2
        assert service.stats()["routing_version"] == 2

    def test_supported_versions_are_exactly_one_and_two(self):
        assert SUPPORTED_ROUTING_VERSIONS == (1, 2)


class TestV1Restore:
    def test_v1_checkpoint_restores_and_keeps_v1_routing(self):
        service = build_service(version=1)
        service.ingest_batch(string_keys(400))
        state = service.state_dict()
        assert state["routing_version"] == 1

        restored = SamplerService.from_state_dict(state, rtbs_factory)
        assert restored.routing_version == 1
        # New arrivals route under the *recorded* encoding, not the build's:
        # a key whose v1 and v2 shards differ must land on its v1 shard.
        key = disagreeing_key()
        counts = restored.ingest_batch(np.array([key]))
        assert counts == {int(shard_ids_for_keys(np.array([key]), 8, 1)[0]): 1}

    def test_v1_restore_continues_the_exact_v1_trajectory(self):
        live = build_service(version=1)
        live.ingest_batch(string_keys(300))

        restored = SamplerService.from_state_dict(live.state_dict(), rtbs_factory)
        more = string_keys(300, offset=300)
        live.ingest_batch(more)
        restored.ingest_batch(more)
        assert restored.sample_items() == live.sample_items()
        assert_states_equal(restored.state_dict(), live.state_dict())

    def test_unknown_version_is_rejected(self):
        service = SamplerService(rtbs_factory, num_shards=4, rng=0)
        service.ingest_batch(np.arange(50))
        state = service.state_dict()
        state["routing_version"] = 99
        with pytest.raises(ValueError, match="key-encoding version 99"):
            SamplerService.from_state_dict(state, rtbs_factory)


class TestTamperedVersionDetection:
    def test_v2_layout_claiming_v1_is_rejected_at_load(self):
        service = SamplerService(rtbs_factory, num_shards=8, rng=0)
        service.ingest_batch(string_keys(800))
        state = service.state_dict()
        state["routing_version"] = 1  # supported, but not this layout's
        with pytest.raises(ValueError, match="integrity check failed"):
            SamplerService.from_state_dict(state, rtbs_factory)

    def test_v1_layout_claiming_v2_is_rejected_at_load(self):
        service = build_service(version=1)
        service.ingest_batch(string_keys(800))
        state = service.state_dict()
        state["routing_version"] = 2
        with pytest.raises(ValueError, match="integrity check failed"):
            SamplerService.from_state_dict(state, rtbs_factory)

    def test_numeric_layouts_are_version_agnostic(self):
        # v1 and v2 share the numeric encoding, so relabeling a numeric
        # checkpoint is harmless and must not be rejected.
        service = SamplerService(rtbs_factory, num_shards=8, rng=0)
        service.ingest_batch(np.arange(500))
        state = service.state_dict()
        state["routing_version"] = 1
        restored = SamplerService.from_state_dict(state, rtbs_factory)
        assert restored.routing_version == 1

    def test_explicit_key_layouts_skip_the_spot_check(self):
        # Explicit keys are not a function of the payload: there is nothing
        # to recompute, so the mismatch cannot be (and is not) probed.
        service = SamplerService(rtbs_factory, num_shards=4, rng=0)
        service.ingest_batch(np.arange(100), keys=string_keys(100))
        state = service.state_dict()
        state["routing_version"] = 1
        restored = SamplerService.from_state_dict(state, rtbs_factory)
        assert restored.routing_version == 1


class TestReshardMigration:
    def test_reshard_rehomes_onto_the_current_encoding(self):
        service = build_service(version=1)
        service.ingest_batch(string_keys(600))
        service.reshard(5)
        assert service.routing_version == ROUTING_VERSION
        # Every retained item now lives on its v2 shard.
        for shard_id in service.active_shards:
            items = np.array(service.shard(shard_id).sample_items())
            destinations = shard_ids_for_keys(items, 5, ROUTING_VERSION)
            assert bool(np.all(destinations == shard_id))

    def test_restore_with_new_shard_count_migrates_v1_checkpoints(self):
        service = build_service(version=1)
        service.ingest_batch(string_keys(600))
        restored = SamplerService.from_state_dict(
            service.state_dict(), rtbs_factory, num_shards=3
        )
        assert restored.routing_version == ROUTING_VERSION
        for shard_id in restored.active_shards:
            items = np.array(restored.shard(shard_id).sample_items())
            destinations = shard_ids_for_keys(items, 3, ROUTING_VERSION)
            assert bool(np.all(destinations == shard_id))
