"""Elastic resharding golden tests — the acceptance scenario of this layer.

An ``N``-shard deployment (live, or restored from an ``N``-shard
checkpoint) must become an ``M``-shard deployment — growing, shrinking,
and non-power-of-two ``M`` — such that

* **affinity**: every retained item sits on the shard its routing key
  hashes to under ``M``;
* **conservation**: ``total_weight`` and ``expected_sample_size`` are
  conserved to float tolerance (aggregate capacity held constant via the
  re-provisioned factory);
* **determinism**: the post-reshard samples, subsequent trajectories, and
  checkpoints are identical on the serial and process backends
  for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RTBS, TTBS
from repro.service import (
    SamplerService,
    load_service,
    save_service,
    shard_ids_for_keys,
)

#: Large enough that the 10-batch workload never saturates any shard under
#: any layout in this suite (steady-state decayed weight ~2.7k, far below
#: every per-shard capacity), so ``C = W`` holds everywhere and both
#: aggregates must be conserved *exactly* through a reshard. Divisible by
#: every shard count used.
_TOTAL_CAPACITY = 9600
_LAMBDA = 0.12


def scaled_factory(num_shards):
    """R-TBS factory holding aggregate capacity constant across layouts."""

    def factory(rng):
        return RTBS(n=_TOTAL_CAPACITY // num_shards, lambda_=_LAMBDA, rng=rng)

    return factory


def _batches(count, size=300, start=0):
    return [
        np.arange(start + index * size, start + (index + 1) * size)
        for index in range(count)
    ]


def _assert_states_equal(actual, expected, path=""):
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


def _assert_affinity(service):
    for shard_id, sample in service.shard_samples().items():
        if sample:
            routed = shard_ids_for_keys(np.array(sample), service.num_shards)
            assert (routed == shard_id).all(), f"shard {shard_id} holds foreign keys"


# ----------------------------------------------------------------------
# the acceptance scenario: N-shard checkpoint restored as M shards
# ----------------------------------------------------------------------
@pytest.mark.parametrize("new_count", [8, 2, 3, 5])  # 2N, N/2, non-pow2
class TestCheckpointPortableRestore:
    def test_restore_with_new_shard_count(self, tmp_path, new_count):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=21)
        service.ingest(_batches(10))
        weight = service.total_weight
        expected = service.expected_sample_size
        save_service(service, tmp_path / "ckpt")

        restored = load_service(
            tmp_path / "ckpt", scaled_factory(new_count), num_shards=new_count
        )
        assert restored.num_shards == new_count
        _assert_affinity(restored)
        assert restored.total_weight == pytest.approx(weight, rel=1e-12)
        assert restored.expected_sample_size == pytest.approx(expected, rel=1e-9)
        # Aggregate item identity: re-homing moves items, it never invents
        # any (subsampling only occurs past a destination's capacity).
        assert set(restored.sample_items()) <= set(
            item for sample in service.shard_samples().values() for item in sample
        ) | {None}

    def test_restore_reshard_equals_live_reshard(self, tmp_path, new_count):
        live = SamplerService(scaled_factory(4), num_shards=4, rng=21)
        live.ingest(_batches(10))
        save_service(live, tmp_path / "ckpt")
        live.reshard(new_count, scaled_factory(new_count))

        restored = load_service(
            tmp_path / "ckpt", scaled_factory(new_count), num_shards=new_count
        )
        _assert_states_equal(restored.state_dict(), live.state_dict())

    def test_post_reshard_trajectory_continues(self, tmp_path, new_count):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=21)
        service.ingest(_batches(10))
        save_service(service, tmp_path / "ckpt")
        restored = load_service(
            tmp_path / "ckpt", scaled_factory(new_count), num_shards=new_count
        )
        restored.ingest(_batches(6, start=10 * 300))
        _assert_affinity(restored)
        assert restored.batches_seen == 16
        # Unsaturated everywhere, so the R-TBS invariant C = W holds in the
        # new layout just as it would have without the reshard.
        assert restored.expected_sample_size == pytest.approx(
            restored.total_weight, rel=1e-9
        )


# ----------------------------------------------------------------------
# backend identity: serial / process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("new_count", [8, 2, 3])
class TestBackendIdentity:
    def test_reshard_is_bit_identical_across_backends(self, tmp_path, new_count):
        states = {}
        samples = {}
        for backend in ("serial", "process:2"):
            with SamplerService(
                scaled_factory(4), num_shards=4, rng=17, executor=backend
            ) as service:
                service.ingest(_batches(8))
                service.reshard(new_count, scaled_factory(new_count))
                service.ingest(_batches(5, start=8 * 300))
                samples[backend] = service.sample_items()
                states[backend] = service.state_dict()
                save_service(service, tmp_path / f"ckpt-{service.executor.name}")
        assert samples["process:2"] == samples["serial"]
        _assert_states_equal(states["process:2"], states["serial"])
        # The persisted checkpoints restore to the same deployment too.
        reference = load_service(
            tmp_path / "ckpt-serial", scaled_factory(new_count)
        ).state_dict()
        _assert_states_equal(
            load_service(tmp_path / "ckpt-process", scaled_factory(new_count)).state_dict(),
            reference,
        )


# ----------------------------------------------------------------------
# behaviour details
# ----------------------------------------------------------------------
class TestReshardSemantics:
    def test_same_count_is_a_noop(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest(_batches(4))
        before = service.state_dict()
        service.reshard(4)
        _assert_states_equal(service.state_dict(), before)

    def test_invalid_count_is_rejected(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        with pytest.raises(ValueError, match="num_shards must be positive"):
            service.reshard(0)

    def test_idle_shards_decay_before_their_items_move(self):
        # A shard that last saw data at t=1 must decay its weight over the
        # whole gap to the service clock before the split; otherwise its
        # items would carry stale weight into the new layout.
        service = SamplerService(scaled_factory(2), num_shards=2, rng=5)
        keys = np.arange(4_000)
        ids = shard_ids_for_keys(keys, 2)
        service.ingest_batch(keys[ids == 0][:400], time=1.0)
        service.ingest_batch(keys[ids == 1][:400], time=9.0)
        weight = service.total_weight  # both shards decayed to their own time
        stale = sum(
            service.shard(shard_id).total_weight for shard_id in service.active_shards
        )
        assert weight == pytest.approx(stale)
        service.reshard(3, scaled_factory(3))
        decayed_idle = 400.0 * np.exp(-_LAMBDA * 8.0) + 400.0
        assert service.total_weight == pytest.approx(decayed_idle, rel=1e-9)

    def test_key_fn_routing_reshards_on_recomputed_keys(self):
        def key_fn(item):
            return item[0]

        def factory(rng):
            return RTBS(n=100, lambda_=0.1, rng=rng)

        service = SamplerService(factory, num_shards=4, key_fn=key_fn, rng=2)
        pairs = [(f"user-{index % 37}", index) for index in range(2_000)]
        service.ingest([pairs[i : i + 400] for i in range(0, 2_000, 400)])
        service.reshard(7)
        for shard_id, sample in service.shard_samples().items():
            for item in sample:
                assert int(shard_ids_for_keys([key_fn(item)], 7)[0]) == shard_id

    def test_explicit_keys_without_key_fn_refuse_to_reshard(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest_batch(np.arange(100), keys=np.arange(100) % 11)
        with pytest.raises(ValueError, match="explicit keys"):
            service.reshard(8)

    def test_explicit_keys_flag_survives_checkpoints(self, tmp_path):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest_batch(np.arange(100), keys=np.arange(100) % 11)
        save_service(service, tmp_path / "ckpt")
        with pytest.raises(ValueError, match="explicit keys"):
            load_service(tmp_path / "ckpt", scaled_factory(8), num_shards=8)

    @pytest.mark.parametrize(
        "field", ["routing_version", "explicit_keys_used", "sampling_version", "plan_key"]
    )
    def test_snapshots_missing_a_recorded_field_are_refused(self, field):
        # Pre-elastic snapshots recorded neither routing_version nor the
        # explicit-keys flag, and snapshots before sampling version 2 neither
        # sampling_version nor plan_key. A build restores only what it
        # writes, so each missing field is refused by name, with or without
        # a reshard on restore.
        service = SamplerService(scaled_factory(4), num_shards=4, rng=3)
        service.ingest(_batches(5))
        state = service.state_dict()
        del state[field]
        with pytest.raises(ValueError, match=f"no '{field}'"):
            SamplerService.from_state_dict(state, scaled_factory(4))
        with pytest.raises(ValueError, match=f"no '{field}'"):
            SamplerService.from_state_dict(
                state, scaled_factory(6), key_fn=lambda item: item, num_shards=6
            )

    def test_an_unknown_explicit_keys_flag_is_refused(self):
        # A pre-elastic restore once saved its unknown flag as null.
        service = SamplerService(scaled_factory(4), num_shards=4, rng=3)
        service.ingest(_batches(5))
        state = {**service.state_dict(), "explicit_keys_used": None}
        with pytest.raises(ValueError, match="'explicit_keys_used' must be a bool"):
            SamplerService.from_state_dict(state, scaled_factory(4))

    def test_refused_reshard_leaves_the_service_untouched(self):
        # A failed reshard must not have partially mutated anything — in
        # particular the replacement factory must not be installed.
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest_batch(np.arange(100), keys=np.arange(100) % 11)
        before = service.state_dict()
        with pytest.raises(ValueError, match="explicit keys"):
            service.reshard(8, scaled_factory(8))
        _assert_states_equal(service.state_dict(), before)
        # Shards lazily created later still come from the original factory.
        assert service._factory(np.random.default_rng(0)).n == _TOTAL_CAPACITY // 4

    @pytest.mark.parametrize(
        "refused, message",
        [
            (lambda rng: object(), "must return"),
            # Retained R-TBS state cannot be absorbed into T-TBS shards.
            (
                lambda rng: TTBS(n=50, lambda_=0.1, mean_batch_size=10, rng=rng),
                "builds TTBS, but the active shards are RTBS",
            ),
        ],
        ids=["not-a-sampler", "another-class"],
    )
    @pytest.mark.parametrize("backend", [None, "process:2"], ids=["serial", "process"])
    def test_a_refused_factory_is_not_installed(self, backend, refused, message):
        def build():
            service = SamplerService(
                scaled_factory(8), num_shards=8, rng=0, executor=backend
            )
            service.ingest_batch(np.full(50, 42))
            return service

        with build() as service, build() as twin:
            before = service.state_dict()
            with pytest.raises(TypeError, match=message):
                service.reshard(3, refused)
            _assert_states_equal(service.state_dict(), before)
            # Activating a shard after the refusal uses the original factory.
            for target in (service, twin):
                target.ingest_batch(np.arange(200))
            assert len(service.active_shards) > 1
            for target in (service, twin):
                target.reshard(3)
            _assert_states_equal(service.state_dict(), twin.state_dict())

    def test_a_restored_factory_of_another_class_is_refused(self):
        # A restore takes whatever factory it is given; resharding onto it
        # would absorb R-TBS state into T-TBS samplers.
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest(_batches(2))
        restored = SamplerService.from_state_dict(
            service.state_dict(),
            lambda rng: TTBS(n=50, lambda_=0.1, mean_batch_size=10, rng=rng),
        )
        before = restored.state_dict()
        with pytest.raises(TypeError, match="builds TTBS, but the active shards are RTBS"):
            restored.reshard(3)
        _assert_states_equal(restored.state_dict(), before)

    def test_rejected_explicit_key_batches_do_not_poison_resharding(self):
        # A batch whose explicit keys never routed (bad type, bad length)
        # leaves no unrecoverable key behind, so resharding stays allowed.
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.ingest(_batches(3))
        with pytest.raises(TypeError, match="cannot route key"):
            service.ingest_batch(np.arange(10), keys=[object()] * 10)
        with pytest.raises(ValueError, match="one routing key per item"):
            service.ingest_batch(np.arange(10), keys=[1, 2])
        service.reshard(6, scaled_factory(6))
        _assert_affinity(service)

    def test_unknown_routing_version_is_rejected(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=3)
        service.ingest(_batches(2))
        state = service.state_dict()
        state["routing_version"] = 99
        with pytest.raises(ValueError, match="key-encoding version"):
            SamplerService.from_state_dict(state, scaled_factory(4))

    def test_reshard_with_inactive_shards(self):
        # Only one shard ever activated; the others must not block the
        # reshard, and the lone shard's items re-route under the new map.
        service = SamplerService(scaled_factory(8), num_shards=8, rng=0)
        service.ingest_batch(np.full(200, 42))
        assert len(service.active_shards) == 1
        service.reshard(3, scaled_factory(3))
        _assert_affinity(service)
        # One key -> all 200 copies live on exactly one shard of the new map.
        assert service.active_shards == [int(shard_ids_for_keys([42], 3)[0])]
        assert len(service) == 200
        assert service.total_weight == pytest.approx(200.0)

    def test_reshard_empty_service(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=0)
        service.reshard(9, scaled_factory(9))
        assert service.num_shards == 9
        assert service.active_shards == []
        service.ingest(_batches(3))
        _assert_affinity(service)

    def test_repeated_reshard_round_trip(self):
        service = SamplerService(scaled_factory(4), num_shards=4, rng=13)
        service.ingest(_batches(6))
        weight = service.total_weight
        for count in (8, 3, 6, 4):
            service.reshard(count, scaled_factory(count))
            _assert_affinity(service)
            assert service.total_weight == pytest.approx(weight, rel=1e-9)
        service.ingest(_batches(3, start=6 * 300))
        assert service.batches_seen == 9

    def test_ttbs_service_reshards(self):
        def factory(rng):
            return TTBS(n=60, lambda_=0.2, mean_batch_size=300, rng=rng)

        service = SamplerService(factory, num_shards=4, rng=8)
        service.ingest(_batches(8))
        size = len(service)
        service.reshard(6)
        _assert_affinity(service)
        assert len(service) == size  # T-TBS merge is pure concatenation
        service.ingest(_batches(4, start=8 * 300))

    def test_growing_saturated_deployment_conserves_both_aggregates(self):
        # N -> 2N with fixed per-shard capacity: destinations inherit the
        # underfull state; W and C are both conserved exactly.
        def fixed(rng):
            return RTBS(n=120, lambda_=_LAMBDA, rng=rng)

        service = SamplerService(fixed, num_shards=4, rng=31)
        service.ingest(_batches(12))
        weight, expected = service.total_weight, service.expected_sample_size
        service.reshard(8)
        assert service.total_weight == pytest.approx(weight, rel=1e-12)
        assert service.expected_sample_size == pytest.approx(expected, rel=1e-9)
        _assert_affinity(service)


class TestPlanMirrorsAfterReshard:
    """The driver's plan mirrors track every shard, underfull ones included."""

    @pytest.mark.parametrize("backend", [None, "process:2"], ids=["serial", "process"])
    def test_mirrors_match_the_shards_after_growing_a_saturated_service(self, backend):
        def factory(rng):
            return RTBS(n=40, lambda_=0.2, rng=rng)

        with SamplerService(factory, num_shards=2, rng=4, executor=backend) as service:
            service.ingest(_batches(6, size=400))
            # Growing a saturated layout leaves destinations underfull
            # (C < min(n, W)): their next batches take the underfull branch.
            service.reshard(5)
            for index, batch in enumerate(_batches(8, size=37, start=10_000)):
                service.ingest_batch(batch)
                mirrors = service._mirrors
                for shard_id in service.active_shards:
                    assert mirrors[shard_id] == service.shard(shard_id).plan_state(), (
                        index,
                        shard_id,
                    )
            reference = SamplerService(factory, num_shards=2, rng=4)
            reference.ingest(_batches(6, size=400))
            reference.reshard(5)
            reference.ingest(_batches(8, size=37, start=10_000), window=3)
            _assert_states_equal(service.state_dict(), reference.state_dict())
