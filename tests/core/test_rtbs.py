"""Tests for the R-TBS algorithm (Algorithm 2, Theorems 4.2-4.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.analysis import rtbs_appearance_probability, rtbs_expected_size
from repro.core.rtbs import RTBS
from tests.conftest import empirical_inclusion_by_batch, make_batches


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RTBS(n=0, lambda_=0.1)

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError):
            RTBS(n=10, lambda_=-0.1)

    def test_rejects_oversized_initial_sample(self):
        with pytest.raises(ValueError):
            RTBS(n=2, lambda_=0.1, initial_items=[1, 2, 3])

    def test_initial_sample_is_reported(self):
        sampler = RTBS(n=5, lambda_=0.1, initial_items=["a", "b"], rng=0)
        assert sorted(sampler.sample_items()) == ["a", "b"]
        assert sampler.total_weight == 2.0


class TestSizeBound:
    def test_never_exceeds_capacity(self, rng):
        sampler = RTBS(n=25, lambda_=0.2, rng=rng)
        for batch in make_batches(100, 40):
            sample = sampler.process_batch(batch)
            assert len(sample) <= 25

    def test_bound_holds_under_bursty_batches(self, rng):
        sampler = RTBS(n=50, lambda_=0.05, rng=rng)
        for batch_index in range(1, 80):
            size = 500 if batch_index % 10 == 0 else 3
            sampler.process_batch([(batch_index, i) for i in range(size)])
            assert len(sampler) <= 50

    def test_empty_batches_shrink_the_sample(self, rng):
        sampler = RTBS(n=100, lambda_=0.5, rng=rng)
        sampler.process_batch([("x", i) for i in range(100)])
        initial = len(sampler)
        for _ in range(10):
            sampler.process_batch([])
        assert len(sampler) < initial

    def test_sample_items_are_stream_items_without_duplicates(self, rng):
        sampler = RTBS(n=30, lambda_=0.1, rng=rng)
        seen: set = set()
        for batch in make_batches(50, 20):
            seen.update(batch)
            sample = sampler.process_batch(batch)
            assert len(sample) == len(set(sample))
            assert set(sample) <= seen


class TestWeights:
    def test_total_weight_recursion(self, rng):
        lambda_ = 0.13
        sampler = RTBS(n=10, lambda_=lambda_, rng=rng)
        sizes = [7, 0, 12, 5, 30, 1]
        expected = 0.0
        for batch_index, size in enumerate(sizes, start=1):
            sampler.process_batch([(batch_index, i) for i in range(size)])
            expected = expected * math.exp(-lambda_) + size
            assert sampler.total_weight == pytest.approx(expected)

    def test_sample_weight_is_min_of_capacity_and_total(self, rng):
        sampler = RTBS(n=40, lambda_=0.1, rng=rng)
        for batch in make_batches(60, 10):
            sampler.process_batch(batch)
            assert sampler.sample_weight == pytest.approx(
                min(40.0, sampler.total_weight), abs=1e-9
            )

    def test_unsaturated_expected_size_matches_theory(self, rng):
        lambda_, batches, size = 0.1, 50, 30
        sampler = RTBS(n=10_000, lambda_=lambda_, rng=rng)
        for batch in make_batches(batches, size):
            sampler.process_batch(batch)
        assert sampler.sample_weight == pytest.approx(
            rtbs_expected_size([size] * batches, lambda_, 10_000)
        )

    def test_saturation_flag(self, rng):
        sampler = RTBS(n=10, lambda_=0.1, rng=rng)
        sampler.process_batch(list(range(5)))
        assert not sampler.is_saturated
        sampler.process_batch(list(range(100, 130)))
        assert sampler.is_saturated


class TestRealizedSampleSize:
    def test_realized_size_is_floor_or_ceil_of_weight(self, rng):
        sampler = RTBS(n=1000, lambda_=0.3, rng=rng)
        for batch in make_batches(40, 17):
            sample = sampler.process_batch(batch)
            weight = sampler.sample_weight
            assert len(sample) in {math.floor(weight), math.ceil(weight)}

    def test_expected_sample_size_property(self, rng):
        sampler = RTBS(n=100, lambda_=0.2, rng=rng)
        sampler.process_batch(list(range(30)))
        assert sampler.expected_sample_size == pytest.approx(sampler.sample_weight)


class TestAppearanceProbabilities:
    """Empirical check of invariant (4) / criterion (1)."""

    @staticmethod
    def _final_samples(trials, num_batches, batch_size, n, lambda_, seed=0):
        samples = []
        for trial in range(trials):
            sampler = RTBS(n=n, lambda_=lambda_, rng=seed + trial)
            for batch in make_batches(num_batches, batch_size):
                sampler.process_batch(batch)
            samples.append(sampler.sample_items())
        return samples

    def test_saturated_inclusion_probabilities(self):
        trials, num_batches, batch_size, n, lambda_ = 600, 12, 40, 60, 0.3
        samples = self._final_samples(trials, num_batches, batch_size, n, lambda_)
        empirical = empirical_inclusion_by_batch(samples, num_batches, batch_size)
        sizes = [batch_size] * num_batches
        for batch_index in range(1, num_batches + 1):
            theory = rtbs_appearance_probability(sizes, lambda_, n, batch_index)
            assert empirical[batch_index - 1] == pytest.approx(theory, abs=0.05)

    def test_relative_appearance_ratio(self):
        # Criterion (1): the ratio between consecutive batches' appearance
        # probabilities equals e^{-lambda} wherever probabilities are < 1.
        trials, num_batches, batch_size, n, lambda_ = 800, 10, 30, 50, 0.25
        samples = self._final_samples(trials, num_batches, batch_size, n, lambda_, seed=100)
        empirical = empirical_inclusion_by_batch(samples, num_batches, batch_size)
        ratio = math.exp(-lambda_)
        for older in range(3, num_batches - 1):
            observed = empirical[older - 1] / empirical[older]
            assert observed == pytest.approx(ratio, rel=0.2)

    def test_unsaturated_newest_items_always_included(self, rng):
        sampler = RTBS(n=1000, lambda_=0.1, rng=rng)
        for batch in make_batches(20, 10):
            sample = sampler.process_batch(batch)
        assert all(item in sample for item in batch)

    def test_theoretical_inclusion_probability_helper(self, rng):
        sampler = RTBS(n=10, lambda_=0.5, rng=rng)
        for batch in make_batches(10, 10):
            sampler.process_batch(batch)
        assert sampler.theoretical_inclusion_probability(0.0) == pytest.approx(
            sampler.sample_weight / sampler.total_weight
        )
        with pytest.raises(ValueError):
            sampler.theoretical_inclusion_probability(-1.0)


class TestTimeHandling:
    def test_arbitrary_real_valued_times(self, rng):
        sampler = RTBS(n=100, lambda_=0.2, rng=rng)
        sampler.process_batch(list(range(10)), time=1.0)
        weight_before = sampler.total_weight
        sampler.process_batch([], time=3.5)
        assert sampler.total_weight == pytest.approx(weight_before * math.exp(-0.2 * 2.5))

    def test_non_increasing_times_rejected(self, rng):
        sampler = RTBS(n=10, lambda_=0.1, rng=rng)
        sampler.process_batch([1], time=2.0)
        with pytest.raises(ValueError):
            sampler.process_batch([2], time=2.0)

    def test_history_recording(self, rng):
        sampler = RTBS(n=10, lambda_=0.1, rng=rng, record_history=True)
        for batch in make_batches(5, 3):
            sampler.process_batch(batch)
        assert len(sampler.history) == 5
        assert sampler.history[-1].time == 5.0
        assert sampler.history[-1].sample_size <= 10


class TestZeroDecay:
    def test_lambda_zero_keeps_all_items_until_saturation(self, rng):
        sampler = RTBS(n=1000, lambda_=0.0, rng=rng)
        for batch in make_batches(10, 50):
            sampler.process_batch(batch)
        # Without decay and below capacity, nothing is ever dropped.
        assert len(sampler) == 500
        assert sampler.total_weight == pytest.approx(500.0)


class TestPlannedSteps:
    """``rtbs_step`` mirrors the sampler exactly; planned batches apply as drawn."""

    @staticmethod
    def _regimes():
        rng = np.random.default_rng(31)
        for trial in range(120):
            n = int(rng.integers(1, 60))
            lambda_ = float(rng.choice([0.0, 0.05, 0.3, 1.5]))
            initial = list(range(int(rng.integers(0, n + 1)))) if trial % 3 == 0 else None
            gaps = rng.choice([1.0, 0.5, 3.0, 1e-3], size=50)
            sizes = rng.choice([0, 1, 2, 5, 40, 200], size=50)
            yield trial, n, lambda_, initial, np.cumsum(gaps), sizes

    def test_the_scalar_step_tracks_the_sampler_bit_for_bit(self):
        from repro.core.rtbs import rtbs_step

        for trial, n, lambda_, initial, times, sizes in self._regimes():
            sampler = RTBS(n=n, lambda_=lambda_, initial_items=initial, rng=trial)
            mirror = sampler.plan_state()
            plan_rng = np.random.default_rng(trial)
            for time, size in zip(times.tolist(), sizes.tolist()):
                step = rtbs_step(
                    mirror.total_weight, mirror.sample_weight, n, lambda_,
                    time - mirror.time, size,
                )
                accepted = step.acceptance(plan_rng, size, n) if step.thinned else size
                sampler.process_stream([np.arange(accepted)], times=[time], arrivals=[size])
                mirror = mirror._replace(
                    total_weight=step.total_weight,
                    sample_weight=step.settled_weight(accepted, n),
                    time=time,
                )
                assert mirror == sampler.plan_state(), (trial, time)

    def test_plans_that_disagree_with_the_state_are_refused(self):
        sampler = RTBS(n=10, lambda_=0.1, rng=0)

        def refused(batch, arrivals):
            before = (sampler.time, sampler.plan_state(), sampler.sample_items())
            with pytest.raises(ValueError, match="disagrees"):
                sampler.process_stream([batch], arrivals=[arrivals])
            # A refused plan leaves the clock and the state where they were.
            assert (sampler.time, sampler.plan_state(), sampler.sample_items()) == before

        refused(np.arange(3), 5)  # unsaturated: every arrival must enter
        sampler.process_stream([np.arange(40)], arrivals=[40])
        assert sampler.time == 1.0
        refused(np.arange(11), 40)  # saturated: at most n arrivals can enter
        sampler.process_stream([np.arange(5)], arrivals=[40])
        assert sampler.time == 2.0

    def test_other_samplers_take_no_planned_batches(self):
        from repro.core.brs import BatchedReservoir

        sampler = BatchedReservoir(n=10, rng=0)
        with pytest.raises(NotImplementedError, match="no planned batches"):
            sampler.process_stream([np.arange(4)], arrivals=[4])
        assert sampler.time == 0.0

    def test_saturated_step_overwrites_victims_in_place(self):
        sampler = RTBS(n=50, lambda_=0.2, rng=3)
        sampler.process_batch(np.arange(100))
        before = sampler.latent.full_array.copy()
        view = sampler.snapshot_view()
        sampler.process_stream([np.arange(1_000, 1_007)], arrivals=[60])
        after = sampler.latent.full_array
        changed = np.flatnonzero(after != before)
        assert len(changed) == 7 and set(after[changed]) == set(range(1_000, 1_007))
        assert sampler.latent.weight == 50.0
        # Copy-on-write: the view taken before still shows the old sample.
        assert np.array_equal(view.items, before)
