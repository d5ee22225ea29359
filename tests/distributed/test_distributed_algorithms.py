"""Tests for D-R-TBS and D-T-TBS on the simulated cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import rtbs_expected_size
from repro.distributed.batches import DistributedBatch
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.drtbs import DistributedRTBS
from repro.distributed.dttbs import DistributedTTBS
from tests.conftest import ForcedFirstDraw, make_batches


def _run_drtbs(num_batches, batch_size, n, lambda_, workers=4, seed=0, **kwargs):
    cluster = SimulatedCluster(num_workers=workers)
    algorithm = DistributedRTBS(n=n, lambda_=lambda_, cluster=cluster, rng=seed, **kwargs)
    for batch in make_batches(num_batches, batch_size):
        algorithm.process_batch(batch)
    return algorithm


class TestDistributedRTBSConstruction:
    def test_rejects_bad_parameters(self):
        cluster = SimulatedCluster(num_workers=2)
        with pytest.raises(ValueError):
            DistributedRTBS(n=0, lambda_=0.1, cluster=cluster)
        with pytest.raises(ValueError):
            DistributedRTBS(n=5, lambda_=-1.0, cluster=cluster)

    def test_rejects_distributed_decisions_with_kvstore(self):
        cluster = SimulatedCluster(num_workers=2)
        with pytest.raises(ValueError):
            DistributedRTBS(
                n=5, lambda_=0.1, cluster=cluster, reservoir="kvstore", decisions="distributed"
            )


class TestDistributedRTBSStatistics:
    def test_size_bounded_by_capacity(self):
        algorithm = _run_drtbs(60, 30, n=40, lambda_=0.2)
        assert algorithm.full_item_count() <= 40
        assert len(algorithm.realize_sample()) <= 40

    def test_weights_match_serial_recursion(self):
        lambda_ = 0.15
        algorithm = _run_drtbs(25, 12, n=1000, lambda_=lambda_)
        assert algorithm.total_weight == pytest.approx(
            rtbs_expected_size([12] * 25, lambda_, 10**9), rel=1e-9
        )
        assert algorithm.sample_weight == pytest.approx(
            rtbs_expected_size([12] * 25, lambda_, 1000)
        )

    def test_unsaturated_full_count_matches_weight(self):
        algorithm = _run_drtbs(30, 10, n=500, lambda_=0.1)
        assert algorithm.full_item_count() == int(algorithm.sample_weight)

    def test_items_come_from_stream_without_duplicates(self):
        algorithm = _run_drtbs(40, 15, n=30, lambda_=0.3)
        sample = algorithm.sample_items()
        assert len(sample) == len(set(sample))
        assert all(isinstance(item, tuple) and len(item) == 2 for item in sample)

    def test_recency_bias_in_saturated_regime(self):
        algorithm = _run_drtbs(50, 50, n=60, lambda_=0.3, seed=11)
        ages = [50 - batch_index for batch_index, _ in algorithm.sample_items()]
        # Most retained items should be recent when the decay rate is high.
        assert np.mean(ages) < 10

    def test_both_backends_give_similar_expected_sizes(self):
        copartitioned = _run_drtbs(40, 20, n=50, lambda_=0.2, decisions="distributed")
        kvstore = _run_drtbs(
            40, 20, n=50, lambda_=0.2, reservoir="kvstore", decisions="centralized", seed=5
        )
        assert copartitioned.sample_weight == pytest.approx(kvstore.sample_weight)
        assert copartitioned.full_item_count() == kvstore.full_item_count()

    def test_virtual_and_materialized_agree_on_counts(self):
        materialized = _run_drtbs(30, 25, n=40, lambda_=0.25, seed=3)
        cluster = SimulatedCluster(num_workers=4)
        virtual = DistributedRTBS(n=40, lambda_=0.25, cluster=cluster, rng=3)
        for batch_index in range(1, 31):
            virtual.process_batch(DistributedBatch.virtual(25, 4, batch_id=batch_index))
        assert virtual.sample_weight == pytest.approx(materialized.sample_weight)
        assert virtual.full_item_count() == materialized.full_item_count()

    def test_virtual_mode_rejects_item_access(self):
        cluster = SimulatedCluster(num_workers=2)
        algorithm = DistributedRTBS(n=10, lambda_=0.1, cluster=cluster, rng=0)
        algorithm.process_batch(DistributedBatch.virtual(5, 2, batch_id=1))
        with pytest.raises(RuntimeError):
            algorithm.sample_items()
        with pytest.raises(RuntimeError):
            algorithm.realize_sample()

    def test_mixing_modes_rejected(self):
        cluster = SimulatedCluster(num_workers=2)
        algorithm = DistributedRTBS(n=10, lambda_=0.1, cluster=cluster, rng=0)
        algorithm.process_batch([1, 2, 3])
        with pytest.raises(ValueError):
            algorithm.process_batch(DistributedBatch.virtual(5, 2, batch_id=2))


class TestDistributedRTBSZeroDraw:
    def test_integral_weight_below_one_keeps_a_partial_on_zero_draw(self):
        """Decay below weight 1 with no partial must promote a full item.

        Two items (weight 2.0, no partial) decay to about 0.74 before the
        next batch lands. Whatever ``u`` is, one of them must survive as
        the master's partial item, also on the draw ``u == 0.0``: deleting
        both would keep a positive fractional weight with no partial item.
        """
        # The first batch draws no scalar, so the forced draw is the
        # second batch's downsampling ``u``.
        rng = ForcedFirstDraw(0.0, seed=3)
        algorithm = DistributedRTBS(
            n=10, lambda_=1.0, cluster=SimulatedCluster(num_workers=2), rng=rng
        )
        algorithm.process_batch(["a", "b"], time=1.0)
        assert rng._pending == 0.0
        algorithm.process_batch(["c"], time=2.0)
        assert rng._pending is None
        assert algorithm.sample_weight == pytest.approx(2.0 * np.exp(-1.0) + 1.0)
        assert algorithm.full_item_count() == 1
        items = algorithm.sample_items()
        assert len(items) == 2
        assert items[0] == "c"
        assert items[1] in ("a", "b")


class TestDistributedRTBSCosts:
    @staticmethod
    def _steady_state_runtime(num_batches=40, **kwargs):
        cluster = SimulatedCluster(num_workers=12)
        algorithm = DistributedRTBS(
            n=2_000_000, lambda_=0.07, cluster=cluster, rng=0, **kwargs
        )
        for batch_index in range(1, num_batches + 1):
            algorithm.process_batch(
                DistributedBatch.virtual(1_000_000, 12, batch_id=batch_index)
            )
        return float(np.mean(algorithm.batch_runtimes[-10:]))

    def test_figure7_ordering(self):
        kv_repartition = self._steady_state_runtime(
            reservoir="kvstore", decisions="centralized", join="repartition"
        )
        kv_colocated = self._steady_state_runtime(
            reservoir="kvstore", decisions="centralized", join="colocated"
        )
        centralized_cp = self._steady_state_runtime(
            reservoir="copartitioned", decisions="centralized", join="colocated"
        )
        distributed_cp = self._steady_state_runtime(
            reservoir="copartitioned", decisions="distributed", join="colocated"
        )
        assert kv_repartition > kv_colocated > centralized_cp > distributed_cp

    def test_runtime_recorded_per_batch(self):
        cluster = SimulatedCluster(num_workers=2)
        algorithm = DistributedRTBS(n=100, lambda_=0.1, cluster=cluster, rng=0)
        algorithm.process_batch(DistributedBatch.virtual(50, 2, batch_id=1))
        algorithm.process_batch(DistributedBatch.virtual(50, 2, batch_id=2))
        assert len(algorithm.batch_runtimes) == 2
        assert all(runtime > 0 for runtime in algorithm.batch_runtimes)


class TestDistributedTTBS:
    def test_rejects_bad_parameters(self):
        cluster = SimulatedCluster(num_workers=2)
        with pytest.raises(ValueError):
            DistributedTTBS(n=0, lambda_=0.1, mean_batch_size=10, cluster=cluster)
        with pytest.raises(ValueError):
            DistributedTTBS(n=10, lambda_=-0.1, mean_batch_size=10, cluster=cluster)
        with pytest.raises(ValueError):
            DistributedTTBS(n=10, lambda_=0.1, mean_batch_size=0, cluster=cluster)

    def test_sample_size_converges_to_target(self):
        cluster = SimulatedCluster(num_workers=4)
        algorithm = DistributedTTBS(
            n=200, lambda_=0.1, mean_batch_size=50, cluster=cluster, rng=1
        )
        sizes = []
        for batch in make_batches(150, 50):
            algorithm.process_batch(batch)
            sizes.append(algorithm.sample_size())
        assert np.mean(sizes[50:]) == pytest.approx(200, rel=0.15)

    def test_items_without_duplicates(self):
        cluster = SimulatedCluster(num_workers=3)
        algorithm = DistributedTTBS(
            n=50, lambda_=0.2, mean_batch_size=20, cluster=cluster, rng=2
        )
        for batch in make_batches(40, 20):
            algorithm.process_batch(batch)
        sample = algorithm.sample_items()
        assert len(sample) == len(set(sample))

    def test_virtual_mode_counts_only(self):
        cluster = SimulatedCluster(num_workers=4)
        algorithm = DistributedTTBS(
            n=1000, lambda_=0.07, mean_batch_size=10_000, cluster=cluster, rng=0
        )
        for batch_index in range(1, 30):
            algorithm.process_batch(DistributedBatch.virtual(10_000, 4, batch_id=batch_index))
        assert algorithm.sample_size() > 0
        with pytest.raises(RuntimeError):
            algorithm.sample_items()

    def test_faster_than_drtbs(self):
        # D-T-TBS is embarrassingly parallel, so its per-batch simulated
        # runtime must undercut the best D-R-TBS variant (Figure 7).
        cluster_ttbs = SimulatedCluster(num_workers=12)
        ttbs = DistributedTTBS(
            n=2_000_000, lambda_=0.07, mean_batch_size=1_000_000, cluster=cluster_ttbs, rng=0
        )
        cluster_rtbs = SimulatedCluster(num_workers=12)
        rtbs = DistributedRTBS(n=2_000_000, lambda_=0.07, cluster=cluster_rtbs, rng=0)
        for batch_index in range(1, 25):
            batch = DistributedBatch.virtual(1_000_000, 12, batch_id=batch_index)
            ttbs.process_batch(batch)
            rtbs.process_batch(batch)
        assert np.mean(ttbs.batch_runtimes[-5:]) < np.mean(rtbs.batch_runtimes[-5:])
