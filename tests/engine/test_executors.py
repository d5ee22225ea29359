"""Tests for the engine's execution backends and their shard hosts."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import RTBS
from repro.distributed import SimulatedCluster
from repro.engine import (
    EngineError,
    Executor,
    InProcessShardHost,
    ProcessPoolExecutor,
    SerialExecutor,
    WindowTask,
    get_executor,
    merge_samples,
    restore_sampler,
    service_ingest_window,
    service_snapshot_views,
    snapshot_sampler,
)


def _square(x: int) -> int:
    return x * x


def _adopt(host: InProcessShardHost, sampler: RTBS, shard_id: int) -> None:
    host.adopt(("svc", 1, shard_id), sampler, shard_id, snapshot_sampler, restore_sampler)


class TestBackends:
    def test_serial_and_simulated_backends_host_in_process(self):
        for executor in (SerialExecutor(), SimulatedCluster(num_workers=2)):
            host = executor.host
            assert isinstance(host, InProcessShardHost)
            assert executor.host is host  # one host, reused
            assert not executor.provides_transport
            executor.shutdown()
            assert executor.host is not host

    def test_process_backend_flags_its_transport_without_starting_it(self):
        executor = ProcessPoolExecutor(2)
        assert executor.provides_transport
        assert executor._pool is None


class TestInProcessShardHost:
    def test_adopt_and_release_move_the_live_object(self):
        # No state round trip: the host holds, and hands back, the very object.
        host = InProcessShardHost()
        sampler = RTBS(n=5, lambda_=0.1, rng=0)
        _adopt(host, sampler, 0)
        with pytest.raises(EngineError, match="already attached"):
            _adopt(host, sampler, 0)
        assert host.release(("svc", 1, 0), snapshot_sampler, restore_sampler) is sampler
        _adopt(host, sampler, 0)
        assert host.detach(("svc", 1, 0)) is None

    def test_a_window_runs_in_the_calling_thread_when_sent(self):
        host = InProcessShardHost()
        reference = RTBS(n=20, lambda_=0.2, rng=3)
        live = RTBS(n=20, lambda_=0.2, rng=3)
        _adopt(host, live, 2)
        threads: list[int] = []
        results: list[tuple[dict[int, int], float]] = []

        def ingest(residents, **kwargs):
            threads.append(threading.get_ident())
            return service_ingest_window(residents, **kwargs)

        task = WindowTask(ingest, {"service_id": 1}, results.append)
        for index in range(3):
            rows = np.arange(index * 40, (index + 1) * 40)
            reference.process_batch(rows, time=float(index + 1))
            host.stage_shards(task, rows, [(2, rows, None)], float(index + 1), tag=index)
            assert live.batches_seen == 0 and host.acked_through() == -1
        host.send_staged()
        assert threads == [threading.get_ident()]
        assert [counts for counts, _ in results] == [{2: 120}]
        assert host.acked_through() == 2
        assert live.sample_items() == reference.sample_items()
        assert live.total_weight == reference.total_weight

    def test_reads_see_every_staged_batch(self):
        # As on the pool's FIFO pipe, a read sends the open window first.
        host = InProcessShardHost()
        _adopt(host, RTBS(n=20, lambda_=0.2, rng=0), 0)
        task = WindowTask(service_ingest_window, {"service_id": 1})
        host.stage_shards(task, np.arange(10), [(0, np.arange(10), None)], 1.0)
        markers = host.snapshot_async(service_snapshot_views, {"service_id": 1})
        (views,) = host.collect(markers)
        assert views[0].batches_seen == 1
        host.stage_shards(task, np.arange(5), [(0, np.arange(5), None)], 2.0)
        assert host.snapshot(("svc", 1, 0), snapshot_sampler)["batches_seen"] == 2

    def test_a_failed_window_keeps_its_tag_outstanding(self):
        host = InProcessShardHost()

        def fail(residents, **kwargs):
            raise ValueError("boom")

        host.stage_shards(WindowTask(fail), np.arange(3), [], 1.0, tag=4)
        with pytest.raises(ValueError, match="boom"):
            host.drain()
        assert host.acked_through() == 3
        host.drain()  # nothing staged: the failed window is gone
        # A later window that runs does not acknowledge the failed one.
        task = WindowTask(service_ingest_window, {"service_id": 1})
        host.stage_shards(task, np.arange(0), [], 2.0, tag=5)
        host.drain()
        assert host.acked_through() == 3


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
