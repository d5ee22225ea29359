"""Tests for the experiment harness (reduced-scale versions of each figure/table)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.distributed_perf import (
    FIGURE7_VARIANTS,
    run_figure7,
    run_figure8,
    run_figure9,
)
from repro.experiments.knn import KNNExperimentConfig, TABLE1_PATTERNS, run_knn_experiment, run_table1
from repro.experiments.naive_bayes import NaiveBayesExperimentConfig, run_naive_bayes_experiment
from repro.experiments.regression import (
    FIGURE12_CONFIGS,
    RegressionExperimentConfig,
    run_regression_experiment,
)
from repro.experiments.results import ExperimentResult, QualitySeries, SampleSizeSeries
from repro.experiments.sample_size import (
    FIGURE1_SCENARIOS,
    SampleSizeScenario,
    run_sample_size_scenario,
)
from repro.streams.batch_sizes import DeterministicBatchSize, GeometricBatchSize
from repro.streams.patterns import PeriodicPattern, SingleEventPattern


class TestResultContainers:
    def test_sample_size_series(self):
        series = SampleSizeSeries(label="x", sizes=[1, 2, 3, 4])
        assert series.mean() == 2.5
        assert series.maximum() == 4
        assert series.tail_mean(2) == 3.5
        with pytest.raises(ValueError):
            SampleSizeSeries(label="empty").mean()

    def test_quality_series(self):
        series = QualitySeries(label="x", losses=[10.0, 20.0])
        assert series.mean_loss() == 15.0
        with pytest.raises(ValueError):
            series.mean_loss(skip=5)

    def test_experiment_result(self):
        result = ExperimentResult(name="demo")
        result.add_series("a", [1, 2])
        result.add_metric("m", 3)
        assert result.series["a"] == [1.0, 2.0]
        assert result.metrics["m"] == 3.0


class TestFigure1:
    def test_scenarios_are_registered(self):
        assert set(FIGURE1_SCENARIOS) == {
            "fig1a_growing",
            "fig1b_stable_deterministic",
            "fig1c_stable_uniform",
            "fig1d_decaying",
        }

    def test_growing_batches_overflow_ttbs_but_not_rtbs(self):
        scenario = SampleSizeScenario(
            name="mini_growing",
            lambda_=0.05,
            batch_sizes=GeometricBatchSize(initial=100, phi=1.01, change_point=50),
            target_size=500,
            num_batches=300,
        )
        result = run_sample_size_scenario(scenario, rng=0)
        assert result.metrics["rtbs_max_size"] <= 500
        assert result.metrics["ttbs_max_size"] > 1000
        assert len(result.series["T-TBS"]) == 300

    def test_stable_batches_keep_both_near_target(self):
        scenario = SampleSizeScenario(
            name="mini_stable",
            lambda_=0.1,
            batch_sizes=DeterministicBatchSize(100),
            target_size=500,
            num_batches=200,
        )
        result = run_sample_size_scenario(scenario, rng=1)
        assert result.metrics["rtbs_tail_mean"] == pytest.approx(500, rel=0.02)
        assert result.metrics["ttbs_tail_mean"] == pytest.approx(500, rel=0.10)

    def test_decaying_batches_shrink_both(self):
        scenario = SampleSizeScenario(
            name="mini_decaying",
            lambda_=0.05,
            batch_sizes=GeometricBatchSize(initial=100, phi=0.5, change_point=50),
            target_size=500,
            num_batches=250,
        )
        result = run_sample_size_scenario(scenario, rng=2)
        assert result.metrics["rtbs_tail_mean"] < 200
        assert result.metrics["ttbs_tail_mean"] < 200


class TestKNNExperiment:
    @pytest.fixture(scope="class")
    def small_result(self):
        config = KNNExperimentConfig(
            pattern=SingleEventPattern(3, 6),
            sample_size=300,
            warmup_batches=20,
            num_batches=10,
            num_classes=20,
            shortfall_skip=0,
            runs=1,
        )
        return run_knn_experiment(config, rng=0)

    def test_series_lengths(self, small_result):
        for label in ("R-TBS", "SW", "Unif"):
            assert len(small_result.series[label]) == 10

    def test_metrics_present(self, small_result):
        for label in ("R-TBS", "SW", "Unif"):
            assert f"{label}_mean_miss" in small_result.metrics
            assert f"{label}_expected_shortfall" in small_result.metrics
            assert 0 <= small_result.metrics[f"{label}_mean_miss"] <= 100

    def test_table1_patterns_registered(self):
        assert set(TABLE1_PATTERNS) == {"Single Event", "P(10,10)", "P(20,10)", "P(30,10)"}

    def test_with_pattern_copy(self):
        config = KNNExperimentConfig(pattern=SingleEventPattern(3, 6))
        other = config.with_pattern(PeriodicPattern(2, 2), num_batches=12)
        assert other.num_batches == 12
        assert config.pattern is not other.pattern

    def test_run_table1_reduced(self):
        # A heavily reduced Table 1: one lambda, tiny horizon, small samples.
        result = run_table1(lambdas=(0.1,), runs=1, sample_size=200, rng=3)
        # 4 patterns x (R-TBS miss+es) + 4 patterns x (SW, Unif) x (miss+es)
        assert len(result.metrics) == 4 * 2 + 4 * 2 * 2
        assert all(value >= 0 for value in result.metrics.values())


class TestRegressionExperiment:
    def test_figure12_configs_registered(self):
        assert set(FIGURE12_CONFIGS) == {
            "fig12a_n1000_p10",
            "fig12b_n1600_p10",
            "fig12c_n1600_p16",
        }

    def test_small_run_produces_series_and_metrics(self):
        config = RegressionExperimentConfig(
            pattern=PeriodicPattern(3, 3),
            sample_size=400,
            warmup_batches=20,
            num_batches=12,
            shortfall_skip=0,
        )
        result = run_regression_experiment(config, rng=0)
        for label in ("R-TBS", "SW", "Unif"):
            assert len(result.series[label]) == 12
            assert result.metrics[f"{label}_mean_mse"] > 0
        assert result.metrics["rtbs_mean_sample_size"] <= 400

    def test_unsaturated_rtbs_sample_smaller_than_cap(self):
        # With n much larger than the equilibrium weight, R-TBS never saturates.
        config = RegressionExperimentConfig(
            pattern=PeriodicPattern(3, 3),
            sample_size=5000,
            warmup_batches=30,
            num_batches=5,
            shortfall_skip=0,
        )
        result = run_regression_experiment(config, rng=1)
        assert result.metrics["rtbs_mean_sample_size"] < 2000


class TestNaiveBayesExperiment:
    def test_small_run(self):
        config = NaiveBayesExperimentConfig(num_messages=300, context_length=75, batch_size=50)
        result = run_naive_bayes_experiment(config, rng=0)
        for label in ("R-TBS", "SW", "Unif"):
            assert len(result.series[label]) == 6
            assert 0 <= result.metrics[f"{label}_mean_miss"] <= 100


class TestDistributedPerformance:
    def test_figure7_variants_registered(self):
        labels = [variant.label for variant in FIGURE7_VARIANTS]
        assert labels == [
            "D-R-TBS (Cent,KV,RJ)",
            "D-R-TBS (Cent,KV,CJ)",
            "D-R-TBS (Cent,CP)",
            "D-R-TBS (Dist,CP)",
            "D-T-TBS (Dist,CP)",
        ]

    def test_figure7_ordering_at_reduced_scale(self):
        result = run_figure7(
            num_workers=4, batch_size=100_000, reservoir_size=200_000, num_batches=45
        )
        runtimes = [result.metrics[variant.label] for variant in FIGURE7_VARIANTS]
        # Strictly decreasing: every optimization helps, and D-T-TBS is fastest.
        assert all(earlier > later for earlier, later in zip(runtimes, runtimes[1:]))
        # The priced runtimes themselves, pinned: the cost model is
        # deterministic, so any change here is a change to the simulator.
        assert result.metrics == pytest.approx(
            {
                "D-R-TBS (Cent,KV,RJ)": 5.260489599999988,
                "D-R-TBS (Cent,KV,CJ)": 5.010489599999988,
                "D-R-TBS (Cent,CP)": 4.270716799999991,
                "D-R-TBS (Dist,CP)": 4.1079131999999845,
                "D-T-TBS (Dist,CP)": 0.8726337999999998,
            },
            rel=1e-12,
        )
        assert result.series == {}

    def test_figure8_runtime_decreases_with_workers(self):
        result = run_figure8(
            worker_counts=(2, 4, 8),
            batch_size=1_000_000,
            reservoir_size=200_000,
            num_batches=45,
        )
        runtimes = result.series["runtime"]
        assert runtimes[0] > runtimes[1] > runtimes[2]
        pinned = [5.114626400000009, 4.55791320000003, 4.280156600000032]
        assert runtimes == pytest.approx(pinned, rel=1e-12)
        assert result.metrics == pytest.approx(
            {f"workers={workers}": value for workers, value in zip((2, 4, 8), pinned)},
            rel=1e-12,
        )

    def test_figure9_runtime_increases_with_batch_size(self):
        result = run_figure9(
            batch_sizes=(10_000, 1_000_000, 100_000_000),
            num_workers=4,
            reservoir_size=200_000,
            num_batches=45,
        )
        runtimes = result.series["runtime"]
        assert runtimes[0] < runtimes[2]
        # Small batches are dominated by fixed overheads, so the curve is flat
        # at the low end and rises sharply at the high end.
        assert (runtimes[2] - runtimes[1]) > (runtimes[1] - runtimes[0])
        pinned = [2.4400141499999877, 4.55791320000003, 54.05791320000026]
        assert runtimes == pytest.approx(pinned, rel=1e-12)
        assert result.metrics == pytest.approx(
            {
                f"batch_size={size}": value
                for size, value in zip((10_000, 1_000_000, 100_000_000), pinned)
            },
            rel=1e-12,
        )
