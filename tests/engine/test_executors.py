"""Tests for the partitioned-execution engine backends."""

from __future__ import annotations

import threading

import pytest

from repro.distributed import SimulatedCluster
from repro.engine import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    get_executor,
    map_partitions,
    merge_samples,
    reduce_merge,
)


def _square(x: int) -> int:
    return x * x


class TestBackends:
    @pytest.mark.parametrize("spec", ["serial", "process", "process:1", "process:2"])
    def test_map_partitions_preserves_partition_order(self, spec):
        with get_executor(spec) as executor:
            assert executor.map_partitions(_square, range(20)) == [
                x * x for x in range(20)
            ]

    def test_empty_partition_list(self):
        for executor in (SerialExecutor(), ProcessPoolExecutor(2)):
            with executor:
                assert executor.map_partitions(_square, []) == []

    def test_reduce_merge_runs_driver_side(self):
        with ProcessPoolExecutor(2) as executor:
            driver_thread = threading.get_ident()
            seen: list[int] = []

            def merge(parts):
                seen.append(threading.get_ident())
                return sum(parts)

            assert executor.reduce_merge(merge, [1, 2, 3]) == 6
            assert seen == [driver_thread]

    def test_serial_tasks_share_the_interpreter(self):
        # The in-process backend may close over live mutable state.
        counter = {"value": 0}

        def bump(_):
            counter["value"] += 1

        with SerialExecutor() as executor:
            executor.map_partitions(bump, range(50))
        assert counter["value"] == 50

    def test_stage_records_accumulate_and_reset(self):
        executor = SerialExecutor()
        executor.map_partitions(_square, range(3), description="first")
        executor.reduce_merge(sum, [1, 2], description="second")
        assert [record.description for record in executor.stages] == ["first", "second"]
        assert executor.stages[0].num_tasks == 3
        assert executor.elapsed >= 0.0
        executor.reset_clock()
        assert executor.stages == [] and executor.elapsed == 0.0

    def test_stage_records_are_capped_for_long_running_callers(self):
        # An unbounded-stream service dispatches forever through one
        # executor; only the most recent records are retained while the
        # elapsed total keeps accumulating.
        executor = SerialExecutor()
        executor.max_stage_records = 10
        for index in range(25):
            executor.map_partitions(_square, [index], description=f"stage-{index}")
        assert len(executor.stages) == 10
        assert executor.stages[-1].description == "stage-24"
        assert executor.stages[0].description == "stage-15"

    def test_ships_state_flags(self):
        assert not SerialExecutor().ships_state
        assert ProcessPoolExecutor().ships_state

    def test_module_level_primitives_delegate(self):
        executor = SerialExecutor()
        assert map_partitions(executor, _square, [2, 3]) == [4, 9]
        assert reduce_merge(executor, sum, [4, 9]) == 13


class TestGetExecutor:
    def test_resolves_specs(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process"), ProcessPoolExecutor)

    def test_instances_pass_through(self):
        executor = ProcessPoolExecutor(2)
        assert get_executor(executor) is executor

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_executor("gpu")
        with pytest.raises(ValueError, match="worker count"):
            get_executor("process:many")
        with pytest.raises(ValueError, match="no worker count"):
            get_executor("serial:4")
        with pytest.raises(TypeError, match="executor spec"):
            get_executor(3)
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolExecutor(0)
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolExecutor(-1)

    def test_rejects_trailing_colon_with_empty_worker_count(self):
        # Regression: "process:"/"serial:" used to be silently accepted
        # because the empty worker field is falsy.
        with pytest.raises(ValueError, match="worker count"):
            get_executor("serial:")
        with pytest.raises(ValueError, match="worker count"):
            get_executor("process:")


class TestShardTasks:
    def test_merge_samples_preserves_partition_order(self):
        assert merge_samples([[1, 2], [], [3], [4, 5]]) == [1, 2, 3, 4, 5]


class TestSimulatedClusterAsExecutor:
    def test_cluster_implements_the_protocol(self):
        cluster = SimulatedCluster(num_workers=3)
        assert isinstance(cluster, Executor)
        assert cluster.name == "simulated"
        # Unpriced map: tasks run, clock untouched (pricing is separate).
        assert cluster.map_partitions(_square, [1, 2, 3]) == [1, 4, 9]
        assert cluster.elapsed == 0.0
        # Priced map: the same call charges the cost-model stage.
        cluster.map_partitions(_square, [1, 2, 3], description="work", costs=[1.0, 2.0, 3.0])
        assert cluster.elapsed > 3.0
        assert cluster.stages[-1].description == "work"
        assert cluster.stages[-1].worker_times == (1.0, 2.0, 3.0)

    def test_constructor_takes_no_backend(self):
        # Pricing is independent of where tasks run, so the cluster runs them
        # in process and has no backend to choose.
        with pytest.raises(TypeError, match="backend"):
            SimulatedCluster(num_workers=2, backend=SerialExecutor())

    def test_tasks_run_in_the_calling_thread_in_partition_order(self):
        caller = threading.get_ident()
        seen: list[tuple[int, int]] = []

        def record(partition):
            seen.append((threading.get_ident(), partition))
            return partition

        cluster = SimulatedCluster(num_workers=4)
        assert cluster.map_partitions(record, [3, 1, 2, 0], costs=1.0) == [3, 1, 2, 0]
        assert seen == [(caller, 3), (caller, 1), (caller, 2), (caller, 0)]

    def test_tasks_may_close_over_driver_state(self):
        # Nothing is pickled: a closure can mutate the partitions it is given.
        partitions = [[1], [2, 3], []]
        cluster = SimulatedCluster(num_workers=3)
        cluster.map_partitions(lambda part: part.append(len(part)), partitions)
        assert partitions == [[1, 1], [2, 3, 2], [0]]

    def test_reduce_merge_prices_driver_work_only_when_given(self):
        cluster = SimulatedCluster(num_workers=2)
        assert cluster.reduce_merge(sum, [1, 2, 3]) == 6
        assert cluster.stages == [] and cluster.elapsed == 0.0
        assert cluster.reduce_merge(sum, [4, 5], description="merge", driver_time=0.5) == 9
        (stage,) = cluster.stages
        assert stage.description == "merge"
        assert stage.driver_time == 0.5
        assert cluster.elapsed == stage.duration > 0.5

    def test_shutdown_keeps_the_clock_and_the_cluster_usable(self):
        with SimulatedCluster(num_workers=2) as cluster:
            cluster.map_partitions(_square, [1, 2], description="before", costs=1.0)
        elapsed = cluster.elapsed
        cluster.shutdown()
        assert cluster.elapsed == elapsed
        assert cluster.map_partitions(_square, [3, 4], description="after", costs=1.0) == [9, 16]
        assert [stage.description for stage in cluster.stages] == ["before", "after"]
