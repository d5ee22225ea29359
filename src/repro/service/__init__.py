"""Production ingestion layer: sharded, checkpointable sampler service.

This subpackage turns the single-process samplers of :mod:`repro.core` into
a long-running service:

* :mod:`repro.service.routing` — process-stable key hashing (vectorized
  SplitMix64 for numeric key arrays, BLAKE2b for arbitrary keys) and
  one-argsort batch splitting;
* :mod:`repro.service.service` — :class:`SamplerService`: hash-routed
  per-shard samplers with lazy creation, deterministic per-shard RNG
  streams, bulk ingest through the vectorized ``process_stream`` hot path
  fanned out over a pluggable :mod:`repro.engine` executor
  (serial/process), snapshot-isolated reads (``snapshot()`` yields
  a :class:`ServiceSnapshot` — a consistent committed-watermark cut served
  without draining the pipeline; ``stats()`` and the sample queries read
  from such cuts), and elastic ``reshard()`` — the shard layout scales
  live (or at restore time) without discarding the sample;
* :mod:`repro.service.checkpoint` — pickle-free directory checkpoints
  (JSON manifest + npz arrays) with exact, bit-identical restore of every
  sampler trajectory; damaged checkpoints raise :class:`CheckpointError`
  naming the bad file. A WAL's paired checkpoint
  (:func:`save_service_delta`) encodes the same tree as one log record;
* :mod:`repro.service.wal` — the durability layer: a write-ahead log
  (``wal_dir=`` on the service) records every batch, as one record, before
  dispatch, each paired checkpoint starts a fresh log as its first record,
  and
  :func:`recover_service` rebuilds a crashed service bit-identically —
  last checkpoint plus log replay, on any executor backend;
* :mod:`repro.service.replication` — a warm standby that is the same
  log: with :class:`ReplicationConfig` (``replication=`` on the service) a
  worker crash (or failed health probe) promotes the log in place — its
  base record rebuilt, the committed tail behind it replayed once, as
  :func:`recover_service` does — pipelined
  ingest resumes without dropping a batch, bit-identical to an
  uninterrupted run.
"""

from repro.service.checkpoint import (
    CheckpointError,
    MissingCheckpointError,
    load_checkpoint,
    load_sampler,
    load_service,
    load_service_delta,
    save_checkpoint,
    save_sampler,
    save_service,
    save_service_delta,
)
from repro.service.routing import (
    ROUTING_VERSION,
    shard_ids_for_keys,
    split_by_shard,
    stable_hash,
)
from repro.service.replication import (
    FailureDetector,
    ReplicationConfig,
    ShardReplicaSet,
)
from repro.service.service import SamplerService, ServiceSnapshot
from repro.service.wal import (
    WALError,
    WALLayoutError,
    WriteAheadLog,
    recover_service,
)

__all__ = [
    "SamplerService",
    "ServiceSnapshot",
    "ROUTING_VERSION",
    "CheckpointError",
    "MissingCheckpointError",
    "WALError",
    "WALLayoutError",
    "WriteAheadLog",
    "ReplicationConfig",
    "ShardReplicaSet",
    "FailureDetector",
    "recover_service",
    "shard_ids_for_keys",
    "split_by_shard",
    "stable_hash",
    "save_checkpoint",
    "load_checkpoint",
    "save_sampler",
    "load_sampler",
    "save_service",
    "load_service",
    "save_service_delta",
    "load_service_delta",
]
