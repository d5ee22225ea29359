"""Tests for evaluation metrics and the online model-management loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rtbs import RTBS
from repro.core.sliding_window import SlidingWindow
from repro.ml.knn import KNNClassifier
from repro.ml.linreg import LinearRegressionModel
from repro.ml.metrics import expected_shortfall, mean_squared_error, misclassification_rate
from repro.ml.retraining import ModelManager, RetrainingResult
from repro.service import SamplerService
from repro.streams.gaussian_mixture import GaussianMixtureStream
from repro.streams.items import Batch, LabeledItem
from repro.streams.patterns import Mode
from repro.streams.regression import RegressionStream


class TestMisclassificationRate:
    def test_all_correct(self):
        assert misclassification_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert misclassification_rate([1, 1], [2, 2]) == 100.0

    def test_partial(self):
        assert misclassification_rate([1, 1, 1, 1], [1, 1, 2, 2]) == 50.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            misclassification_rate([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            misclassification_rate([], [])


class TestMeanSquaredError:
    def test_zero_error(self):
        assert mean_squared_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert mean_squared_error([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])


class TestExpectedShortfall:
    def test_average_of_worst_fraction(self):
        losses = list(range(1, 11))  # 1..10
        assert expected_shortfall(losses, level=0.2) == pytest.approx(9.5)

    def test_level_one_is_the_mean(self):
        losses = [1.0, 2.0, 3.0, 4.0]
        assert expected_shortfall(losses, level=1.0) == pytest.approx(np.mean(losses))

    def test_small_series_uses_at_least_one_value(self):
        assert expected_shortfall([5.0, 1.0], level=0.1) == 5.0

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            expected_shortfall([1.0], level=0.0)
        with pytest.raises(ValueError):
            expected_shortfall([1.0], level=1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_shortfall([], level=0.1)

    def test_es_never_below_mean(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 100, size=50)
        assert expected_shortfall(losses, 0.1) >= np.mean(losses)


class TestRetrainingResult:
    def test_mean_and_shortfall(self):
        result = RetrainingResult(losses=[10.0, 20.0, 30.0, 100.0])
        assert result.mean_loss() == pytest.approx(40.0)
        assert result.mean_loss(skip=2) == pytest.approx(65.0)
        assert result.shortfall(level=0.25) == 100.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RetrainingResult(losses=[1.0]).mean_loss(skip=5)
        with pytest.raises(ValueError):
            RetrainingResult(losses=[]).shortfall()


class TestModelManager:
    @staticmethod
    def _classification_batches(num_batches: int, batch_size: int, seed: int = 0):
        generator = GaussianMixtureStream(num_classes=4, rng=seed)
        return [
            Batch(
                time=float(index),
                items=generator.generate_batch(batch_size, Mode.NORMAL, index),
            )
            for index in range(1, num_batches + 1)
        ]

    def test_rejects_bad_parameters(self):
        sampler = SlidingWindow(n=10, rng=0)
        with pytest.raises(ValueError):
            ModelManager(sampler, KNNClassifier, misclassification_rate, retrain_every=0)
        with pytest.raises(ValueError):
            ModelManager(sampler, KNNClassifier, misclassification_rate, min_train_size=0)

    def test_run_records_one_loss_per_batch(self):
        batches = self._classification_batches(6, 30)
        manager = ModelManager(
            SlidingWindow(n=100, rng=1), lambda: KNNClassifier(k=3), misclassification_rate
        )
        result = manager.run(batches)
        assert len(result.losses) == 6
        assert len(result.sample_sizes) == 6
        assert result.modes == ["normal"] * 6

    def test_learning_reduces_loss(self):
        batches = self._classification_batches(12, 60, seed=3)
        manager = ModelManager(
            SlidingWindow(n=300, rng=1), lambda: KNNClassifier(k=3), misclassification_rate
        )
        result = manager.run(batches)
        # After warm-up on several batches the classifier should beat the
        # untrained first-batch prediction by a wide margin.
        assert np.mean(result.losses[4:]) < result.losses[0]

    def test_warmup_records_nothing_but_trains(self):
        batches = self._classification_batches(5, 40)
        manager = ModelManager(
            SlidingWindow(n=200, rng=1), lambda: KNNClassifier(k=3), misclassification_rate
        )
        manager.warmup(batches[:4])
        assert manager.model.is_fitted
        result = manager.run(batches[4:])
        assert len(result.losses) == 1

    def test_step_rejects_empty_batch(self):
        manager = ModelManager(
            SlidingWindow(n=10, rng=0), lambda: KNNClassifier(k=1), misclassification_rate
        )
        with pytest.raises(ValueError):
            manager.step([])

    def test_min_train_size_keeps_previous_model(self):
        sampler = RTBS(n=100, lambda_=3.0, rng=0)  # aggressive decay empties the sample
        manager = ModelManager(
            sampler,
            lambda: KNNClassifier(k=1),
            misclassification_rate,
            min_train_size=50,
        )
        batches = self._classification_batches(3, 5)
        manager.run(batches)
        # The sample never reaches 50 items, so no model is ever trained.
        assert not manager.model.is_fitted

    def test_retrain_every_controls_refresh(self):
        batches = self._classification_batches(4, 20)
        manager = ModelManager(
            SlidingWindow(n=100, rng=0),
            lambda: KNNClassifier(k=1),
            misclassification_rate,
            retrain_every=2,
        )
        manager.step(batches[0])
        model_after_first = manager.model
        manager.step(batches[1])
        assert manager.model is not model_after_first

    def test_regression_manager(self):
        generator = RegressionStream(rng=5)
        batches = [
            Batch(time=float(i), items=generator.generate_batch(50, Mode.NORMAL, i))
            for i in range(1, 8)
        ]
        manager = ModelManager(
            SlidingWindow(n=200, rng=1),
            LinearRegressionModel,
            mean_squared_error,
            min_train_size=2,
        )
        result = manager.run(batches)
        assert result.losses[-1] < result.losses[0]
        assert result.losses[-1] < 2.5


class TestModelManagerWithSamplerService:
    """The Sections 1/6 loop running sharded and parallel end to end."""

    @staticmethod
    def _service(executor, num_shards: int = 4) -> SamplerService:
        # LabeledItem is not directly routable (it is a dataclass), so the
        # service routes on the feature tuple — a stable, hashable key.
        return SamplerService(
            lambda rng: RTBS(n=80, lambda_=0.1, rng=rng),
            num_shards=num_shards,
            key_fn=lambda item: item.features,
            rng=13,
            executor=executor,
        )

    @staticmethod
    def _batches(num_batches: int, batch_size: int, seed: int = 0):
        generator = GaussianMixtureStream(num_classes=4, rng=seed)
        return [
            Batch(
                time=float(index),
                items=generator.generate_batch(batch_size, Mode.NORMAL, index),
            )
            for index in range(1, num_batches + 1)
        ]

    def test_sharded_loop_runs_and_learns(self):
        batches = self._batches(10, 60, seed=3)
        manager = ModelManager(
            self._service("serial"), lambda: KNNClassifier(k=3), misclassification_rate
        )
        result = manager.run(batches)
        assert len(result.losses) == 10
        assert manager.model.is_fitted
        assert np.mean(result.losses[4:]) < result.losses[0]
        service = manager.sampler
        assert len(service.active_shards) == 4
        # The training set really is the union of the shard samples.
        assert len(service.sample_items()) == service.stats()["total_items"]

    def test_process_executor_loss_series_matches_serial(self):
        batches = self._batches(8, 40, seed=7)
        serial = ModelManager(
            self._service("serial"), lambda: KNNClassifier(k=3), misclassification_rate
        )
        serial_result = serial.run(batches)
        with self._service("process:2") as service:
            shipped = ModelManager(
                service, lambda: KNNClassifier(k=3), misclassification_rate
            )
            shipped_result = shipped.run(batches)
        assert shipped_result.losses == serial_result.losses
        assert shipped_result.sample_sizes == serial_result.sample_sizes
