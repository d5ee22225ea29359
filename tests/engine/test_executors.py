"""Tests for the partitioned-execution engine backends."""

from __future__ import annotations

import threading

import pytest

from repro.distributed import SimulatedCluster
from repro.engine import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    get_executor,
    map_partitions,
    merge_samples,
    reduce_merge,
)


def _square(x: int) -> int:
    return x * x


class TestBackends:
    @pytest.mark.parametrize("spec", ["serial", "thread", "thread:2", "process:2"])
    def test_map_partitions_preserves_partition_order(self, spec):
        with get_executor(spec) as executor:
            assert executor.map_partitions(_square, range(20)) == [
                x * x for x in range(20)
            ]

    def test_empty_partition_list(self):
        for executor in (SerialExecutor(), ThreadPoolExecutor(2), ProcessPoolExecutor(2)):
            with executor:
                assert executor.map_partitions(_square, []) == []

    def test_reduce_merge_runs_driver_side(self):
        with ThreadPoolExecutor(2) as executor:
            driver_thread = threading.get_ident()
            seen: list[int] = []

            def merge(parts):
                seen.append(threading.get_ident())
                return sum(parts)

            assert executor.reduce_merge(merge, [1, 2, 3]) == 6
            assert seen == [driver_thread]

    def test_thread_tasks_share_the_interpreter(self):
        # In-process backends may close over live mutable state.
        counter = {"value": 0}
        lock = threading.Lock()

        def bump(_):
            with lock:
                counter["value"] += 1

        with ThreadPoolExecutor(4) as executor:
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
        assert not ThreadPoolExecutor().ships_state
        assert ProcessPoolExecutor().ships_state

    def test_module_level_primitives_delegate(self):
        executor = SerialExecutor()
        assert map_partitions(executor, _square, [2, 3]) == [4, 9]
        assert reduce_merge(executor, sum, [4, 9]) == 13


class TestGetExecutor:
    def test_resolves_specs(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadPoolExecutor)
        assert isinstance(get_executor("process"), ProcessPoolExecutor)
        assert isinstance(get_executor("thread:3"), ThreadPoolExecutor)

    def test_instances_pass_through(self):
        executor = ThreadPoolExecutor(2)
        assert get_executor(executor) is executor

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_executor("gpu")
        with pytest.raises(ValueError, match="worker count"):
            get_executor("thread:many")
        with pytest.raises(ValueError, match="no worker count"):
            get_executor("serial:4")
        with pytest.raises(TypeError, match="executor spec"):
            get_executor(3)
        with pytest.raises(ValueError, match="max_workers"):
            ThreadPoolExecutor(0)
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolExecutor(-1)

    def test_rejects_trailing_colon_with_empty_worker_count(self):
        # Regression: "thread:"/"serial:" used to be silently accepted
        # because the empty worker field is falsy.
        with pytest.raises(ValueError, match="worker count"):
            get_executor("thread:")
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

    def test_thread_backend_runs_tasks_without_changing_prices(self):
        serial = SimulatedCluster(num_workers=4)
        threaded = SimulatedCluster(num_workers=4, backend=ThreadPoolExecutor(2))
        for cluster in (serial, threaded):
            cluster.map_partitions(_square, range(4), description="stage", costs=2.0)
        assert serial.elapsed == threaded.elapsed
        assert serial.stages[-1].duration == threaded.stages[-1].duration
        threaded.shutdown()

    def test_transport_capable_process_backend_is_accepted(self):
        # The persistent-worker process backend provides a transport, so
        # distributed algorithms can keep partitions resident; module-level
        # tasks also run through the generic map path.
        with ProcessPoolExecutor(2) as backend:
            cluster = SimulatedCluster(num_workers=2, backend=backend)
            assert cluster.map_partitions(_square, [2, 3]) == [4, 9]

    def test_plain_state_shipping_backend_is_rejected(self):
        class Shipper(SerialExecutor):
            ships_state = True

        with pytest.raises(ValueError, match="transport-capable"):
            SimulatedCluster(num_workers=2, backend=Shipper())
