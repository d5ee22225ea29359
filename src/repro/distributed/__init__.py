"""Distributed D-T-TBS / D-R-TBS on a simulated Spark-like cluster (Section 5).

The paper's performance study (Figures 7-9) runs the distributed algorithms
on a 13-node Spark cluster with Memcached as an optional key-value store.
That hardware is unavailable offline, so this subpackage provides a
**cost-model simulator**: the distributed algorithms really execute — data is
partitioned across simulated workers, insert/delete decisions are made
centrally or per-worker, reservoirs are stored in a simulated key-value store
or co-partitioned structure — and every operation is charged to a calibrated
cost model so per-batch "runtimes" can be compared across implementation
strategies.

Public surface:

* :class:`~repro.distributed.costmodel.CostModel` and
  :class:`~repro.distributed.cluster.SimulatedCluster` — the execution
  substrate. The cluster is a :mod:`repro.engine` ``Executor`` with priced
  ``map_partitions``/``reduce_merge`` stages: partition tasks run in
  process, in partition order, while stages are *priced* by the cost
  model, so simulated runtimes are reproducible anywhere.
* :class:`~repro.distributed.batches.DistributedBatch` — a partitioned
  incoming batch, either materialized (real items) or virtual (counts only)
  for cluster-scale workloads.
* :class:`~repro.distributed.reservoirs.CoPartitionedReservoir` and
  :class:`~repro.distributed.reservoirs.KeyValueStoreReservoir` — the two
  reservoir representations of Figure 5.
* :class:`~repro.distributed.drtbs.DistributedRTBS` — D-R-TBS with the four
  implementation variants of Figure 7.
* :class:`~repro.distributed.dttbs.DistributedTTBS` — embarrassingly
  parallel D-T-TBS.
"""

from repro.distributed.costmodel import CostModel
from repro.distributed.cluster import SimulatedCluster, StageCost
from repro.distributed.batches import DistributedBatch
from repro.distributed.reservoirs import (
    CoPartitionedReservoir,
    DistributedReservoir,
    KeyValueStoreReservoir,
)
from repro.distributed.drtbs import DecisionStrategy, DistributedRTBS, JoinStrategy
from repro.distributed.dttbs import DistributedTTBS

__all__ = [
    "CostModel",
    "SimulatedCluster",
    "StageCost",
    "DistributedBatch",
    "DistributedReservoir",
    "CoPartitionedReservoir",
    "KeyValueStoreReservoir",
    "DistributedRTBS",
    "DistributedTTBS",
    "DecisionStrategy",
    "JoinStrategy",
]
