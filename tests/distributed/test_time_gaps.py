"""Regression tests: distributed samplers decay by the true batch-time gap.

The seed implementations hardcoded ``decay = e^{-lambda}`` per batch, so any
deployment whose batches do not arrive at exactly ``t = 1, 2, 3, ...``
applied the wrong decay. These tests pin the corrected contract: with
explicit arrival times, the D-R-TBS ``W_t``/``C_t`` trajectory matches the
single-node R-TBS bookkeeping exactly, and D-T-TBS retention uses the
per-gap survival probability.

D-R-TBS steps ``(W, C)`` with the same :func:`~repro.core.rtbs.rtbs_step`
and decides Algorithm 3 with the same
:func:`~repro.core.latent.downsample_plan` as :class:`RTBS`, so the
agreement is exact float equality, full-item counts included, also at the
tolerance edges (``lambda`` near 0, a ``C`` left just above ``n``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.rtbs import RTBS, UNDERFULL, rtbs_step
from repro.distributed.batches import DistributedBatch
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.drtbs import DistributedRTBS
from repro.distributed.dttbs import DistributedTTBS


def _batches(sizes: list[int]) -> list[list[int]]:
    batches, counter = [], 0
    for size in sizes:
        batches.append(list(range(counter, counter + size)))
        counter += size
    return batches


class TestDistributedRTBSTimeGaps:
    @pytest.mark.parametrize(
        "times",
        [
            [0.5, 1.0, 3.25, 3.5, 7.0, 11.125, 12.0, 20.0],
            [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
        ],
    )
    def test_non_unit_gaps_match_single_node_trajectory(self, times):
        """W_t and C_t depend only on batch sizes and gaps, so the
        distributed and serial bookkeeping must agree to the last bit."""
        lambda_ = 0.3
        sizes = [15, 40, 5, 0, 25, 10, 30, 20]
        serial = RTBS(n=40, lambda_=lambda_, rng=0)
        cluster = SimulatedCluster(num_workers=4)
        distributed = DistributedRTBS(n=40, lambda_=lambda_, cluster=cluster, rng=1)
        for batch, time in zip(_batches(sizes), times):
            serial.process_batch(batch, time=time)
            distributed.process_batch(batch, time=time)
            assert distributed.total_weight == serial.total_weight
            assert distributed.sample_weight == serial.sample_weight
            assert distributed.is_saturated == serial.is_saturated
            assert distributed.time == serial.time

    def test_default_times_preserve_unit_gap_behaviour(self):
        lambda_ = 0.2
        sizes = [10, 10, 10, 10, 10]
        explicit = DistributedRTBS(
            n=30, lambda_=lambda_, cluster=SimulatedCluster(num_workers=2), rng=0
        )
        implicit = DistributedRTBS(
            n=30, lambda_=lambda_, cluster=SimulatedCluster(num_workers=2), rng=0
        )
        for index, batch in enumerate(_batches(sizes)):
            explicit.process_batch(batch, time=float(index + 1))
            implicit.process_batch(batch)
            assert implicit.total_weight == explicit.total_weight
            assert implicit.sample_weight == explicit.sample_weight

    def test_process_stream_accepts_times(self):
        lambda_ = 0.25
        sizes = [12, 8, 20]
        times = [1.5, 2.0, 9.0]
        serial = RTBS(n=500, lambda_=lambda_, rng=0)
        serial.process_stream(_batches(sizes), times=times)
        distributed = DistributedRTBS(
            n=500, lambda_=lambda_, cluster=SimulatedCluster(num_workers=3), rng=0
        )
        distributed.process_stream(_batches(sizes), times=times)
        assert distributed.total_weight == pytest.approx(serial.total_weight, rel=1e-12)
        assert distributed.sample_weight == pytest.approx(serial.sample_weight, rel=1e-12)

    def test_times_iterable_must_cover_batches(self):
        distributed = DistributedRTBS(
            n=10, lambda_=0.1, cluster=SimulatedCluster(num_workers=2), rng=0
        )
        with pytest.raises(ValueError, match="exhausted"):
            distributed.process_stream(_batches([5, 5]), times=[1.0])

    def test_non_increasing_times_rejected(self):
        distributed = DistributedRTBS(
            n=10, lambda_=0.1, cluster=SimulatedCluster(num_workers=2), rng=0
        )
        distributed.process_batch([1, 2], time=3.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            distributed.process_batch([3], time=3.0)
        fresh = DistributedRTBS(
            n=10, lambda_=0.1, cluster=SimulatedCluster(num_workers=2), rng=0
        )
        with pytest.raises(ValueError, match="first batch time"):
            fresh.process_batch([1], time=-1.0)


def _assert_same_kernel_state(distributed: DistributedRTBS, serial: RTBS, label: str) -> None:
    assert distributed.total_weight == serial.total_weight, label
    assert distributed.sample_weight == serial.sample_weight, label
    assert distributed.full_item_count() == serial.latent.full_count, label


def _lockstep(n, lambda_, sizes, times, materialized, seed=0):
    """Feed the same batches and times to RTBS and D-R-TBS, comparing after each."""
    workers = 3
    serial = RTBS(n=n, lambda_=lambda_, rng=seed)
    distributed = DistributedRTBS(
        n=n, lambda_=lambda_, cluster=SimulatedCluster(num_workers=workers), rng=seed
    )
    for index, (batch, time) in enumerate(zip(_batches(sizes), times)):
        serial.process_batch(batch, time=time)
        if not materialized:
            batch = DistributedBatch.virtual(len(batch), workers, batch_id=index + 1)
        distributed.process_batch(batch, time=time)
        _assert_same_kernel_state(
            distributed, serial, f"n={n} lambda={lambda_} seed={seed} batch={index}"
        )
    return serial, distributed


class TestDistributedRTBSKernelAgreement:
    @pytest.mark.parametrize("materialized", [True, False], ids=["materialized", "virtual"])
    @pytest.mark.parametrize("lambda_", [0.0, 1e-11, 0.01, 0.25, 1.0, 3.0])
    def test_seed_sweep_matches_rtbs_exactly(self, lambda_, materialized):
        """W, C and the full-item count equal RTBS's after every batch."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 401))
            sizes = [int(size) for size in rng.integers(0, 61, size=40)]
            times = np.cumsum(rng.uniform(0.25, 7.0, size=40)).tolist()
            _lockstep(n, lambda_, sizes, times, materialized, seed=seed)

    @pytest.mark.parametrize("materialized", [True, False], ids=["materialized", "virtual"])
    def test_weight_left_just_above_n_takes_the_underfull_branch(self, materialized):
        """The overshoot's 1e-9 snap leaves C = 20.0000000005 > n = 20.

        RTBS keeps that weight and steps the next batch through UNDERFULL:
        its arrivals enter without victims, and the sample then downsamples
        to n. D-R-TBS must hold the same C, not snap it to n.
        """
        second = 1.0 + math.log(19 / 18.0000000005)
        serial, distributed = _lockstep(20, 1.0, [19, 2], [1.0, second], materialized)
        assert serial.sample_weight > 20
        step = rtbs_step(serial.total_weight, serial.sample_weight, 20, 1.0, 0.01, 5)
        assert step.branch == UNDERFULL
        third = list(range(21, 26))
        serial.process_batch(third, time=second + 0.01)
        if not materialized:
            third = DistributedBatch.virtual(5, 3, batch_id=3)
        distributed.process_batch(third, time=second + 0.01)
        _assert_same_kernel_state(distributed, serial, "batch 3")
        assert distributed.sample_weight == 20.0


class TestDistributedTTBSTimeGaps:
    def test_large_gap_decimates_retention(self):
        """After a 50-unit silence with lambda = 0.2, survival probability is
        e^{-10} ~ 5e-5 — the old hardcoded e^{-0.2} would keep ~82%."""
        cluster = SimulatedCluster(num_workers=4)
        algorithm = DistributedTTBS(
            n=400, lambda_=0.2, mean_batch_size=500, cluster=cluster, rng=0
        )
        algorithm.process_batch(list(range(500)), time=1.0)
        size_before = algorithm.sample_size()
        # q = n (1 - e^{-0.2}) / 500 ~ 0.145 -> ~72 of 500 accepted.
        assert size_before > 40
        algorithm.process_batch([], time=51.0)
        # Binomial(size_before, e^-10): expected < 0.01 survivors.
        assert algorithm.sample_size() <= 2

    def test_unit_gap_statistics_unchanged(self):
        lambda_, batch = 0.2, 500
        cluster = SimulatedCluster(num_workers=4)
        algorithm = DistributedTTBS(
            n=400, lambda_=lambda_, mean_batch_size=batch, cluster=cluster, rng=3
        )
        for index in range(30):
            algorithm.process_batch(list(range(index * batch, (index + 1) * batch)))
        # Theorem 3.1: the size drifts to the target n.
        assert algorithm.sample_size() == pytest.approx(400, rel=0.25)

    def test_lambda_zero_rejected(self):
        cluster = SimulatedCluster(num_workers=2)
        with pytest.raises(ValueError, match="acceptance probability of 0"):
            DistributedTTBS(n=10, lambda_=0.0, mean_batch_size=5, cluster=cluster)

    def test_retention_probability_uses_true_gap(self):
        lambda_ = 0.1
        cluster = SimulatedCluster(num_workers=2)
        algorithm = DistributedTTBS(
            n=100, lambda_=lambda_, mean_batch_size=100, cluster=cluster, rng=0
        )
        algorithm.process_batch(list(range(100)), time=2.0)
        assert algorithm.time == 2.0
        runtimes = algorithm.process_stream(
            [_batches([100])[0]], times=[4.5]
        )
        assert len(runtimes) == 1
        assert algorithm.time == 4.5


class TestSerialFirstBatchDecayRegression:
    def test_initial_items_decay_by_explicit_first_time(self):
        """The _advance_time regression: a first batch at explicit time t
        decays pre-loaded items by e^{-lambda t}, not e^{-lambda}."""
        lambda_, t = 0.4, 3.5
        sampler = RTBS(n=100, lambda_=lambda_, initial_items=[1, 2, 3, 4, 5], rng=0)
        sampler.process_batch([], time=t)
        assert sampler.total_weight == pytest.approx(5.0 * math.exp(-lambda_ * t))
        # Ages are measured from the time-0 origin, never negative.
        assert (sampler.sample_ages() >= 0).all()
        assert sampler.sample_ages().max() == pytest.approx(t)

    def test_first_batch_must_arrive_after_time_zero(self):
        sampler = RTBS(n=10, lambda_=0.1, initial_items=[1], rng=0)
        with pytest.raises(ValueError, match="first batch time"):
            sampler.process_batch([2], time=0.0)
