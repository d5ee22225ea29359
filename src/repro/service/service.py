"""Sharded, checkpointable sampler service — the production ingestion layer.

A :class:`SamplerService` runs one sampler per shard and routes each arriving
item to a shard by a stable hash of its routing key
(:mod:`repro.service.routing`). That gives the three properties a
long-running deployment of R-TBS/T-TBS needs (the whole point of a bounded
time-biased sample is to stay alive over an unbounded stream):

* **horizontal scale** — sub-streams are independent, so shards can be
  ingested in parallel or hosted on different processes;
* **key affinity** — all items of one key land in one shard's sample, and
  routing is stable across processes and restarts;
* **elasticity** — :meth:`SamplerService.reshard` changes the shard count
  of a *live* service (and a checkpoint saved with ``N`` shards restores
  as an ``M``-shard service), re-homing every retained item onto the shard
  its key hashes to under the new layout while conserving total weight and
  expected sample size;
* **durability** — the whole service (every shard's sampler, including its
  RNG stream, plus the service clock and the RNG streams reserved for shards
  that have not been created yet) snapshots to a plain dict of scalars and
  NumPy arrays, persisted by :mod:`repro.service.checkpoint` without pickle.

Shards are created lazily on first arrival. Each shard owns an independent
RNG stream spawned deterministically up front (``spawn_rngs``), so the
statistical trajectory of shard ``k`` does not depend on the order in which
other shards first see data. Per-shard clocks advance only when the shard
receives items; decay over the skipped interval is exact because the
samplers decay by the true elapsed gap (see ``Sampler._advance_time``).

Every backend takes a batch through one step: route it once (hash, then
radix-group into a :class:`~repro.service.routing.RoutedBatch`), advance
the clock, append it to the write-ahead log if durability is on, and only
then dispatch it through a pluggable :mod:`repro.engine` executor:

* ``"serial"`` (default) and ``"thread"`` ingest in-process: one gather
  through the routed order yields contiguous per-shard NumPy slices (the
  sub-batches the WAL records), buffered for up to ``window`` batches and
  handed out as one engine task per shard;
* ``"process"`` runs the persistent-worker transport
  (:mod:`repro.engine.transport`): shard samplers live *resident* in the
  worker processes — their state crosses the boundary on attach and again
  only on checkpoint/read/close — and each worker's items are scattered
  through the routed order straight into its double-buffered shared-memory
  ring. Ingestion is pipelined: ``ingest`` returns once the frames are
  enqueued. A dead worker raises
  :class:`~repro.engine.errors.WorkerCrashError` naming the worker.

A backend that ships state without a transport is refused at construction
(:func:`~repro.engine.executors.require_in_place_backend`).

Every read takes a **snapshot cut**: :meth:`SamplerService.snapshot`
produces a :class:`ServiceSnapshot` — one immutable copy-on-write view per
active shard (:meth:`~repro.core.base.Sampler.snapshot_view`), all cut at
the same committed batch watermark. On the transport backend a snapshot
marker is enqueued into each worker's FIFO command pipe *behind* every
batch dispatched so far, so the views form a consistent cut without
draining the pipeline. ``stats()``, ``sample_items()``, ``shard_samples()``
and ``active_shards`` read such cuts and never create shards, draw
randomness, or block dispatch (the *pure-read* contract, enforced by the
``pure-read`` lint rule); ``state_dict()`` and ``checkpoint()`` serialize
from a state-bearing cut. Only :meth:`SamplerService.flush`,
``ingest_batch``'s barrier, and detaching shards (close, reshard) drain.

Shards are statistically independent with private RNG streams, so every
backend produces bit-identical samples and checkpoints for a fixed seed.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.arrays import as_item_array
from repro.core.base import (
    STATE_FORMAT_VERSION,
    Sampler,
    SamplerSnapshotView,
    validate_batch_time,
)
from repro.core.random_utils import (
    ensure_rng,
    generator_from_state,
    generator_state,
    spawn_rngs,
)
from repro.core.resharding import reshard_samplers
from repro.engine import (
    EngineError,
    Executor,
    FailoverError,
    WorkerCrashError,
    get_executor,
    ingest_shard_inplace,
    require_in_place_backend,
    restore_sampler,
    service_ingest_routed,
    service_snapshot_views,
    snapshot_sampler,
)
from repro.service.replication import (
    FailureDetector,
    FailureVerdict,
    ReplicationConfig,
    ReplicationRuntime,
    ShardReplicaSet,
)
from repro.service.routing import (
    ROUTING_VERSION,
    SUPPORTED_ROUTING_VERSIONS,
    RoutedBatch,
    shard_ids_for_keys,
    # Unused here, but kept bound in this namespace: the benchmark tracer
    # wraps it by name as a routing layer.
    split_by_shard,  # noqa: F401
    split_order,
)
from repro.service.wal import WriteAheadLog

__all__ = ["SamplerService", "ServiceSnapshot"]

SamplerFactory = Callable[[np.random.Generator], Sampler]

#: Distinguishes the resident-shard keys of different services sharing one
#: executor's worker pool.
_SERVICE_IDS = itertools.count(1)


@dataclass(frozen=True)
class ServiceSnapshot:
    """An immutable, consistent cut of a :class:`SamplerService`.

    Holds one copy-on-write :class:`~repro.core.base.SamplerSnapshotView`
    per active shard, all taken at the same committed batch ``watermark``
    (the global sequence number of the last batch the cut reflects). The
    views share their backing arrays with the live samplers — taking a cut
    copies scalars, never payloads — and stay valid bit-for-bit however far
    ingestion advances afterwards.

    Which tiers a cut carries is decided at capture time:
    ``has_items``/``has_state`` report whether every view includes realized
    items / a full restorable ``state_dict()`` (see
    :meth:`SamplerService.snapshot`'s ``include_items``/``include_state``).
    """

    #: Global sequence number of the last batch this cut reflects
    #: (``batches_seen - 1`` at capture).
    watermark: int
    #: Service clock at the watermark.
    time: float
    #: Shard-layout size at capture.
    num_shards: int
    #: Executor backend name at capture.
    executor: str
    #: Key-encoding version the layout routed under at capture.
    routing_version: int
    #: Per-shard copy-on-write views, keyed by shard id.
    views: dict[int, SamplerSnapshotView] = field(default_factory=dict)

    @property
    def active_shards(self) -> list[int]:
        """Ids of shards holding data at the watermark, ascending."""
        return sorted(self.views)

    @property
    def has_items(self) -> bool:
        """Whether every view carries realized items (``include_items``)."""
        return all(view.items is not None for view in self.views.values())

    @property
    def has_state(self) -> bool:
        """Whether every view carries a restorable state (``include_state``)."""
        return all(view.state is not None for view in self.views.values())

    @property
    def total_items(self) -> int:
        """Realized sample size across all shards at the watermark."""
        return sum(view.sample_size for view in self.views.values())

    @property
    def total_weight(self) -> float:
        """Sum of the shard cuts' ``W_t`` (``nan`` where any shard is weightless)."""
        if not self.views:
            return 0.0
        return float(sum(view.total_weight for view in self.views.values()))

    @property
    def expected_sample_size(self) -> float:
        """Sum of the shard cuts' expected sample sizes."""
        return float(sum(view.expected_size for view in self.views.values()))

    def sample_items(self) -> list[Any]:
        """The merged realized sample at the watermark (ascending shard id)."""
        merged: list[Any] = []
        for shard_id in sorted(self.views):
            merged.extend(self.views[shard_id].items_list())
        return merged

    def shard_samples(self) -> dict[int, list[Any]]:
        """Per-shard realized samples at the watermark, keyed by shard id.

        Mutually consistent by construction: every shard's list comes from
        the same committed-watermark cut.
        """
        return {
            shard_id: self.views[shard_id].items_list()
            for shard_id in sorted(self.views)
        }


class SamplerService:
    """Routes keyed sub-streams to per-shard samplers with exact restore.

    Parameters
    ----------
    sampler_factory:
        Callable receiving the shard's private RNG and returning a fresh
        :class:`~repro.core.base.Sampler`, e.g.
        ``lambda rng: RTBS(n=10_000, lambda_=0.07, rng=rng)``. Called once
        per shard, lazily, on the shard's first arrival. The sampler class
        must implement the snapshot protocol for the service to be
        checkpointable.
    num_shards:
        Number of hash shards in the current layout. The layout is
        *elastic*: :meth:`reshard` changes it live (and
        :meth:`from_state_dict` / :func:`~repro.service.checkpoint.load_service`
        accept a different ``num_shards`` than the checkpoint was saved
        with), re-homing every retained item onto the shard its key hashes
        to under the new count — growing, shrinking, and non-power-of-two
        counts included — so per-key affinity holds under the new layout
        and aggregate bookkeeping is conserved.
    key_fn:
        Optional per-item routing-key extractor used when ``ingest`` is not
        given explicit keys; defaults to routing on the item itself.
    rng:
        Master seed/generator. Shard RNG streams are spawned from it
        deterministically at construction, so two services built with the
        same seed shard identically regardless of data order.
    executor:
        Where per-shard ingest work runs: an
        :class:`~repro.engine.Executor`, a backend spec string
        (``"serial"``, ``"thread[:N]"``, ``"process[:N]"``), or ``None``
        for serial. The backend changes *where* shard updates execute,
        never *what* they compute — samples are bit-identical across
        backends for a fixed seed. The service owns the executor's worker
        lifecycle: one pool is reused across every ingest call, and
        :meth:`close` (or the context manager) releases it.
    wal_dir:
        Enable durability: every ingested batch is appended to a
        write-ahead log in this directory *before* dispatch, and
        :meth:`checkpoint` writes delta checkpoints that truncate the log
        at their watermark. After a crash,
        :func:`~repro.service.wal.recover_service` rebuilds the service
        bit-identically from the last checkpoint plus log replay. The
        directory must be empty (or new); a directory holding a previous
        deployment's logs is refused — recover it instead. A WAL-enabled
        service should not share its executor's worker pool with other
        services (the acknowledgement watermark is pool-wide).
    wal_fsync:
        Log flush policy: ``"os"`` (default) flushes every batch to the OS
        page cache — durable against process crash; ``"always"`` fsyncs
        every batch — durable against power loss, at a large latency cost;
        ``"none"`` buffers in userspace until ``flush()``/checkpoint/close
        — fastest, replay lag bounded by the last flush.
    replication:
        Optional :class:`~repro.service.replication.ReplicationConfig`
        enabling a warm standby: a driver-side base cut of every shard,
        retaken every ``ship_interval`` batches and at every checkpoint,
        plus the committed WAL beyond it. A
        :class:`~repro.engine.errors.WorkerCrashError` (or a failed health
        probe) promotes the standby *in place* — the base is rebuilt, the
        committed log tail beyond it is replayed, RNG streams are
        reconciled, and pipelined ingest resumes on a fresh worker pool
        without dropping a batch; post-failover trajectories are
        bit-identical to an uninterrupted run. Requires ``wal_dir`` (the
        promotion replays the log, and its safety argument rests on the
        log's commit watermark).

    Examples
    --------
    >>> from repro.core import RTBS
    >>> service = SamplerService(
    ...     lambda rng: RTBS(n=100, lambda_=0.1, rng=rng), num_shards=4, rng=0
    ... )
    >>> service.ingest([range(200), range(200, 400)])
    >>> len(service.sample_items()) <= 400
    True
    """

    def __init__(
        self,
        sampler_factory: SamplerFactory,
        num_shards: int = 4,
        key_fn: Callable[[Any], Any] | None = None,
        rng: np.random.Generator | int | None = None,
        executor: Executor | str | None = None,
        wal_dir: str | os.PathLike | None = None,
        wal_fsync: str = "os",
        replication: ReplicationConfig | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if replication is not None and wal_dir is None:
            raise ValueError(
                "replication requires a write-ahead log (promotion replays the "
                "committed log beyond the standby's base); pass wal_dir= as well"
            )
        self._factory = sampler_factory
        self.num_shards = int(num_shards)
        self.key_fn = key_fn
        self._executor = get_executor(executor)
        require_in_place_backend(self._executor, "SamplerService")
        self._rng = ensure_rng(rng)
        #: The key-encoding version this service's shard layout was computed
        #: under. New services always use the current contract; a restore
        #: pins the version its checkpoint recorded so retained items keep
        #: their affinity, and :meth:`reshard` re-homes onto the current one.
        self._routing_version = int(ROUTING_VERSION)
        # Reserve every shard's RNG stream up front: shard k's stream is a
        # deterministic function of the master seed alone, never of which
        # shards happened to receive data first.
        self._shard_rngs: list[np.random.Generator] = spawn_rngs(
            self._rng, self.num_shards
        )
        self._shards: dict[int, Sampler] = {}
        self._time: float = 0.0
        self._batches_seen: int = 0
        #: Whether any batch was ever routed on caller-supplied explicit
        #: keys. Explicit keys are not a function of the payload, so a
        #: service that used them (and has no ``key_fn``) cannot recompute
        #: retained items' keys — which :meth:`reshard` needs. ``None``
        #: means *unknown*: the service was restored from a pre-elastic
        #: checkpoint that did not record the flag.
        self._explicit_keys_used: bool | None = False
        self._init_transport_state()
        if wal_dir is not None:
            self._wal = WriteAheadLog.create(
                wal_dir, self.num_shards, fsync=wal_fsync
            )
            # The master seed and reserved shard streams exist only in
            # memory until the first checkpoint; write one now so a crash
            # at any point — including before the first batch — recovers.
            self.checkpoint()
        if replication is not None:
            self._enable_replication(replication)

    def _init_transport_state(self) -> None:
        self._service_id = next(_SERVICE_IDS)
        #: Serializes writes (ingest/checkpoint/reshard/close) against
        #: snapshot capture. Reentrant so write paths may nest (reshard →
        #: checkpoint → snapshot). Reads hold it only while *taking* a cut,
        #: never while consuming one.
        self._lock = threading.RLock()
        #: The most recent cut, served to reads that tolerate staleness
        #: (``snapshot(max_staleness_batches=...)``) without touching the
        #: workers. Invalidated on reshard and failover; ordinary ingest
        #: just ages it past its staleness bound.
        self._snapshot_cache: ServiceSnapshot | None = None
        #: Shards that have received at least one item (mirrors the keys of
        #: ``_shards`` on in-process backends; fed by worker acknowledgements
        #: on the transport backend).
        self._activated: set[int] = set(self._shards)
        #: Whether shard k's sampler shares its RNG object with
        #: ``_shard_rngs[k]`` (the usual factory pattern); governs whether
        #: pulling the shard's state back refreshes the reserved stream,
        #: matching serial bookkeeping.
        self._retained_rng: dict[int, bool] = {}
        #: Pristine snapshots of factory-built samplers for shards that have
        #: not seen data yet, so a close/reopen cycle never re-invokes the
        #: factory (serial calls it exactly once per shard).
        self._standby_states: dict[int, dict[str, Any]] = {}
        #: The generator handed to the factory for each not-yet-activated
        #: shard. Promoted into ``_shard_rngs`` only when the shard first
        #: receives items — the moment the lazily-creating serial path would
        #: have invoked the factory — so the reserved streams of shards that
        #: never see data stay pristine in checkpoints, exactly as serial.
        self._standby_rngs: dict[int, np.random.Generator] = {}
        self._transport_attached = False
        #: The write-ahead log, when durability is enabled (``wal_dir=`` at
        #: construction, or attached by ``recover_service``).
        self._wal: WriteAheadLog | None = None
        #: Global sequence number of the last batch covered by the paired
        #: delta checkpoint; everything after it lives only in the WAL.
        self._wal_watermark: int = -1
        #: Shards ingested since the last delta checkpoint; cleared only by
        #: :meth:`checkpoint`.
        self._ckpt_dirty: set[int] = set()
        #: Warm-standby replication state (config + replica + failure
        #: detector), or ``None`` when replication is off.
        self._replication: ReplicationRuntime | None = None
        #: Opt-in phase-breakdown profiling (``REPRO_SERVICE_PROFILE=1``):
        #: wall time accumulated per ingest phase (hash/split/wal/dispatch/
        #: worker_ingest/ack), reported by :meth:`stats`. ``perf_counter``
        #: deltas only — never part of the statistical trajectory.
        self._profile_enabled = os.environ.get(
            "REPRO_SERVICE_PROFILE", ""
        ) not in ("", "0")
        self._profile_times: dict[str, float] = {}
        self._profile_batches = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Arrival time of the most recently ingested batch."""
        return self._time

    @property
    def batches_seen(self) -> int:
        """Number of batches ingested by the service."""
        return self._batches_seen

    @property
    def routing_version(self) -> int:
        """The key-encoding version the shard layout routes under.

        Equals :data:`~repro.service.routing.ROUTING_VERSION` for services
        built fresh; a service restored from an older checkpoint keeps the
        version the checkpoint recorded (exact per-key hashing fallback)
        until a :meth:`reshard` re-homes it onto the current encoding.
        """
        return self._routing_version

    @property
    def active_shards(self) -> list[int]:
        """Ids of shards that have received at least one item, ascending.

        Read from a scalar-only snapshot cut, so shards activated by batches
        still in flight on the transport are included without a drain.
        """
        return self.snapshot(include_items=False).active_shards

    def shard(self, shard_id: int) -> Sampler:
        """The sampler behind one *active* shard — a pure read.

        Raises ``KeyError`` for a shard that has not received any items yet:
        inspecting an idle shard must not create its sampler (that would
        grow :attr:`active_shards` and every subsequent checkpoint as a side
        effect of monitoring). On the transport backend the returned sampler
        is rebuilt from the shard's resident snapshot at its current
        pipeline position — no ``drain()`` barrier, other workers keep
        ingesting; in-process backends return the live sampler.
        """
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(
                f"shard id {shard_id} out of range for {self.num_shards} shards"
            )
        with self._lock:
            if self._transport_attached:
                try:
                    state = self._executor.transport.snapshot(
                        self._shard_key(shard_id), snapshot_sampler
                    )
                except WorkerCrashError as error:
                    self._failover(error)
                else:
                    sampler = Sampler.from_state_dict(state)
                    if sampler.batches_seen == 0:
                        # A pristine standby resident: attached so the next
                        # batch may route to it, but it holds no data and is
                        # not part of the active set.
                        raise KeyError(
                            f"shard {shard_id} has no sampler yet (no items "
                            f"routed to it); active shards: "
                            f"{sorted(self._activated)}"
                        )
                    return sampler
            try:
                return self._shards[shard_id]
            except KeyError:
                raise KeyError(
                    f"shard {shard_id} has no sampler yet (no items routed to it); "
                    f"active shards: {sorted(self._activated)}"
                ) from None

    def _get_or_create_shard(self, shard_id: int) -> Sampler:
        """The sampler behind one shard, created lazily on first arrival."""
        sampler = self._shards.get(shard_id)
        if sampler is None:
            sampler = self._factory(self._shard_rngs[shard_id])
            if not isinstance(sampler, Sampler):
                raise TypeError(
                    "sampler_factory must return a repro.core.base.Sampler, "
                    f"got {type(sampler).__name__}"
                )
            self._shards[shard_id] = sampler
            self._activated.add(shard_id)
        return sampler

    def snapshot(
        self,
        max_staleness_batches: int = 0,
        include_items: bool = True,
        include_state: bool = False,
    ) -> ServiceSnapshot:
        """A consistent, immutable cut of every active shard — a pure read.

        The cut is a *single committed-watermark* view: all shards are
        captured at the same ``batches_seen`` watermark, so the per-shard
        views are mutually consistent (their items, weights and clocks
        belong to one moment of the stream). Taking a cut never creates
        shards, draws no randomness, and never blocks dispatch: on the
        transport backend a snapshot marker is enqueued into each worker's
        FIFO command pipe behind every batch dispatched so far, the workers
        publish copy-on-write views at that batch boundary, and ingest of
        later batches proceeds underneath — there is no ``drain()``
        barrier. In-process backends read the driver's samplers directly
        (writes are serialized against capture by the service lock).

        Parameters
        ----------
        max_staleness_batches:
            Tolerated cut age. ``0`` (default) always captures a fresh cut;
            a positive bound re-serves the cached cut while it is at most
            this many batches behind :attr:`batches_seen` (and carries the
            requested tiers) — the 100-Hz-dashboard path, costing no worker
            round-trip at all.
        include_items:
            Include realized items (and, where cheap, per-item weights) in
            each view. Scalar-only cuts (``False``) are lighter and serve
            :meth:`stats`.
        include_state:
            Include a full restorable ``state_dict()`` per view — the tier
            :meth:`checkpoint` and replica capture serialize from.
        """
        # Stale-tolerant fast path, deliberately outside the lock: the
        # cached cut is immutable once published and the staleness bound is
        # the caller's explicit tolerance, so serving it needs no mutual
        # exclusion — readers polling at 100+ Hz never queue behind an
        # in-flight ingest window or flush barrier.
        cached = self._snapshot_cache
        if self._serves(cached, max_staleness_batches, include_items, include_state):
            return cached
        with self._lock:
            cached = self._snapshot_cache
            if self._serves(
                cached, max_staleness_batches, include_items, include_state
            ):
                return cached
            if self._transport_attached:
                views = self._collect_transport_views(
                    include_items, include_state
                )
            else:
                views = {
                    shard_id: self._shards[shard_id].snapshot_view(
                        include_items=include_items,
                        include_state=include_state,
                    )
                    for shard_id in sorted(self._activated)
                }
            cut = ServiceSnapshot(
                watermark=self._batches_seen - 1,
                time=self._time,
                num_shards=self.num_shards,
                executor=self._executor.name,
                routing_version=self._routing_version,
                views=views,
            )
            # Cache the cut — unless an equally fresh cached cut carries a
            # superset of its tiers (a scalar-only stats cut must not evict
            # a same-watermark items/state cut).
            if not (
                cached is not None
                and cached.watermark == cut.watermark
                and (not cut.has_items or cached.has_items)
                and (not cut.has_state or cached.has_state)
            ):
                self._snapshot_cache = cut
            return cut

    def _serves(
        self,
        cached: ServiceSnapshot | None,
        max_staleness_batches: int,
        include_items: bool,
        include_state: bool,
    ) -> bool:
        """Whether a cached cut is fresh enough and carries the requested tiers."""
        return (
            cached is not None
            and max_staleness_batches > 0
            and self._batches_seen - 1 - cached.watermark <= max_staleness_batches
            and (not include_items or cached.has_items)
            and (not include_state or cached.has_state)
        )

    def sample_items(self) -> list[Any]:
        """The merged realized sample across all shards (ascending shard id).

        Reads one committed-watermark cut (:meth:`snapshot`), so the
        per-shard contributions are mutually consistent and the call never
        drains the ingest pipeline.
        """
        return self.snapshot().sample_items()

    def shard_samples(self) -> dict[int, list[Any]]:
        """Per-shard realized samples, keyed by shard id.

        All lists come from one committed-watermark cut — a single
        :meth:`snapshot` call, not one synchronization per shard — so they
        are mutually consistent even while ingest streams underneath.
        """
        return self.snapshot().shard_samples()

    def stats(self, max_staleness_batches: int = 0) -> dict[str, Any]:
        """Observability cut: per-shard fill state plus service aggregates.

        A cheap, read-only endpoint for dashboards and load-balancing
        decisions — it never creates shards, draws no randomness, and never
        drains the ingest pipeline. The per-shard numbers come from one
        committed-watermark cut (:meth:`snapshot` with scalar-only views);
        the cut's watermark is reported under ``"watermark"``, while
        ``"batches_seen"``/``"time"`` remain the live driver clock, so
        ``batches_seen - 1 - watermark`` is the cut's staleness. Pass
        ``max_staleness_batches > 0`` to re-serve a recent cached cut at
        most that many batches old — the high-frequency polling path, which
        costs no worker round-trip. Each active shard reports its item
        count, fill fraction (``nan`` for samplers without a capacity
        attribute ``n``), total decayed weight ``W_t`` (``nan`` where
        weightless), expected sample size, batches seen, and clock.
        """
        cut = self.snapshot(
            max_staleness_batches=max_staleness_batches, include_items=False
        )
        shards: dict[int, dict[str, Any]] = {}
        total_items = 0
        for shard_id in sorted(cut.views):
            view = cut.views[shard_id]
            size = view.sample_size
            capacity = view.capacity
            shards[shard_id] = {
                "items": size,
                "capacity": int(capacity) if capacity is not None else None,
                "fill_fraction": (
                    size / capacity if capacity else float("nan")
                ),
                "total_weight": float(view.total_weight),
                "expected_sample_size": float(view.expected_size),
                "batches_seen": view.batches_seen,
                "time": view.time,
            }
            total_items += size
        durability: dict[str, Any] = {"wal_enabled": self._wal is not None}
        if self._wal is not None:
            durability.update(
                wal_dir=self._wal.directory,
                fsync=self._wal.fsync,
                checkpoint_watermark=self._wal_watermark,
                replay_lag_batches=self._batches_seen - 1 - self._wal_watermark,
                acked_batches=self.acked_batches,
            )
        rt = self._replication
        durability["replication"] = (
            None
            if rt is None
            else {
                "standby_base_seq": rt.replica.base_seq,
                "standby_lag_batches": rt.replica.lag(self._batches_seen - 1),
                "ship_interval": rt.config.ship_interval,
                "failovers": rt.failovers,
                "failure_detection": (
                    "liveness+ack-staleness"
                    if rt.config.clock is not None
                    else "liveness"
                ),
            }
        )
        report: dict[str, Any] = {
            "num_shards": self.num_shards,
            "active_shards": len(shards),
            "executor": self._executor.name,
            "routing_version": self._routing_version,
            "batches_seen": self._batches_seen,
            "time": self._time,
            "watermark": cut.watermark,
            "total_items": total_items,
            "total_weight": cut.total_weight,
            "expected_sample_size": cut.expected_sample_size,
            "durability": durability,
            "shards": shards,
        }
        if self._profile_enabled:
            report["profile"] = {
                "batches": self._profile_batches,
                "seconds": {
                    phase: self._profile_times[phase]
                    for phase in sorted(self._profile_times)
                },
            }
        return report

    @property
    def total_weight(self) -> float:
        """Sum of the shard samplers' ``W_t`` (``nan`` if any shard has no notion of weight)."""
        return self.snapshot(include_items=False).total_weight

    @property
    def expected_sample_size(self) -> float:
        """Sum of the shard samplers' expected sample sizes."""
        return self.snapshot(include_items=False).expected_sample_size

    def __len__(self) -> int:
        return self.snapshot(include_items=False).total_items

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The engine backend running per-shard ingest work."""
        return self._executor

    def _dispatch(self, pending: dict[int, tuple[list[Any], list[float]]]) -> None:
        """Fan buffered per-shard sub-streams out through an in-process executor.

        One engine task per shard, submitted in ascending shard order so
        every backend sees the same task list: the live shard sampler plus
        its buffered sub-batches — contiguous slices of the per-batch gather
        in :meth:`_ingest_step` — and their arrival times, so thread-pool
        tasks go straight into GIL-releasing NumPy kernels. The transport
        backend never buffers (its step scatters each batch to the workers
        at once), so ``pending`` is always empty there.
        """
        shard_ids = sorted(pending)
        if not shard_ids:
            return
        begin = perf_counter() if self._profile_enabled else 0.0
        self._ckpt_dirty.update(shard_ids)
        tasks = [
            (self._get_or_create_shard(shard_id), *pending[shard_id])
            for shard_id in shard_ids
        ]
        try:
            self._executor.map_partitions(
                ingest_shard_inplace, tasks, description="ingest shard sub-streams"
            )
        finally:
            if self._profile_enabled:
                self._note_phase("dispatch", perf_counter() - begin)

    def _ingest_step(
        self,
        batch: np.ndarray,
        keys: Sequence[Any] | np.ndarray | None,
        time: float | None,
        pending: dict[int, tuple[list[Any], list[float]]],
    ) -> RoutedBatch | None:
        """Route, advance the clock, log, then dispatch one batch (lock held).

        The one per-batch step of every backend. Routing is validated
        before the clock advances, so a rejected batch leaves the service
        untouched, and the batch is logged before any shard sees it. The
        transport then scatters it to the workers (pipelined); in-process
        backends buffer each shard's sub-batch in ``pending`` for the
        caller's next :meth:`_dispatch`. One gather through
        ``routed.order`` yields the sub-batches the WAL records and the
        in-process shards ingest (so log replay matches the live run bit for
        bit); it is skipped when neither needs it. Returns the routing
        result, ``None`` for an empty batch.
        """
        routed = self._route(batch, keys)
        time = self._advance_time(time)
        transport = self._executor.provides_transport
        sub_batches: list[tuple[int, np.ndarray]] = []
        if routed is not None and (self._wal is not None or not transport):
            begin = perf_counter() if self._profile_enabled else 0.0
            gathered = batch[routed.order]
            offsets = routed.offsets
            sub_batches = [
                (shard_id, gathered[offsets[shard_id] : offsets[shard_id + 1]])
                for shard_id in range(self.num_shards)
                if routed.counts[shard_id]
            ]
            if self._profile_enabled:
                self._note_phase("split", perf_counter() - begin)
        self._wal_log(sub_batches, time)
        if not transport:
            for shard_id, sub_batch in sub_batches:
                shard_batches, shard_times = pending.setdefault(shard_id, ([], []))
                shard_batches.append(sub_batch)
                shard_times.append(time)
        elif routed is not None:
            try:
                self._dispatch_routed(batch, routed, time)
            except WorkerCrashError as error:
                # The batch is already committed to the WAL, so the
                # promotion's log replay delivers it to the promoted
                # samplers: the dispatch is simply abandoned.
                self._failover(error)
        return routed

    def ingest_batch(
        self,
        items: Sequence[Any] | Iterable[Any] | np.ndarray,
        keys: Sequence[Any] | np.ndarray | None = None,
        time: float | None = None,
    ) -> dict[int, int]:
        """Route one arriving batch to its shards; return per-shard item counts.

        Only shards that receive items are touched: each ingests its
        sub-batch at the batch's absolute arrival time, so a shard that sat
        idle for several batches decays its sample by the full elapsed gap
        on its next arrival — identical bookkeeping to a shard that saw
        every batch. The batch takes the same step as in :meth:`ingest`
        (route, clock, WAL, dispatch), and the call returns only once every
        shard has ingested it: on the transport backend it waits for the
        workers (failing over if one died). The counts come from the
        batch's routing, so they are the same on every backend, failover
        included.

        Routing is validated *before* the service clock advances: a batch
        rejected for bad keys leaves the clock untouched, so the corrected
        call can be retried with the same arrival time.
        """
        batch = as_item_array(items)
        with self._lock:
            pending: dict[int, tuple[list[Any], list[float]]] = {}
            routed = self._ingest_step(batch, keys, time, pending)
            counts: dict[int, int] = {}
            if routed is not None:
                self._dispatch(pending)
                self._drain_transport_safely()
                counts = {
                    shard_id: int(count)
                    for shard_id, count in enumerate(routed.counts)
                    if count
                }
            self._replication_tick()
            return counts
    def process_batch(
        self,
        batch: Sequence[Any] | Iterable[Any] | np.ndarray,
        time: float | None = None,
    ) -> list[Any]:
        """Sampler-compatible facade: ingest one batch, return the merged sample.

        Lets the service stand in wherever a bare
        :class:`~repro.core.base.Sampler` is expected — most importantly the
        :class:`~repro.ml.retraining.ModelManager` loop, which then trains
        on the union of the shard samples while ingestion fans out over the
        executor.
        """
        self.ingest_batch(batch, time=time)
        return self.sample_items()

    def process_stream(
        self,
        batches: Iterable[Sequence[Any] | Iterable[Any] | np.ndarray],
        times: Iterable[float] | None = None,
    ) -> list[Any]:
        """Sampler-compatible bulk facade over :meth:`ingest`."""
        self.ingest(batches, times=times)
        return self.sample_items()

    def ingest(
        self,
        batches: Iterable[Sequence[Any] | Iterable[Any] | np.ndarray],
        keys: Iterable[Sequence[Any] | np.ndarray] | None = None,
        times: Iterable[float] | None = None,
        window: int = 64,
    ) -> None:
        """Bulk-ingest many batches through the per-shard ``process_stream`` hot path.

        Every batch takes the same per-batch step as in :meth:`ingest_batch`
        (route, clock, WAL append, dispatch). In-process backends buffer the
        routed sub-batches into one sub-stream (batches + arrival times) per
        shard; every ``window`` batches, each shard ingests its buffered
        sub-stream in a single :meth:`~repro.core.base.Sampler.process_stream`
        call, fanned out as one engine task per shard. That keeps the
        per-shard amortization of bulk ingest while bounding buffered memory
        to O(``window`` × batch size) — a generator of a million batches
        streams through, it is never materialized whole.

        On the transport (process) backend the step has already scattered
        each worker's items into its double-buffered shared-memory ring as
        one pipelined frame, so the loop flushes after every batch
        (buffered memory is bounded by the ring capacity, which doubles as
        backpressure). The call returns as soon as the frames are enqueued —
        routing of the next batch overlaps worker ingest of the previous
        one. Call :meth:`flush` to wait for the workers; reads need not,
        they take snapshot cuts.

        If a batch fails mid-stream (bad keys, non-increasing time), every
        batch before it is flushed to the shards and the error is raised;
        the failing batch itself never advances the service clock.

        Parameters
        ----------
        batches:
            Iterable of batches (lists, arrays, or iterables of items).
        keys:
            Optional iterable of per-batch key arrays, consumed in lockstep
            with ``batches``; when omitted, keys come from ``key_fn`` or the
            items themselves.
        times:
            Optional iterable of strictly increasing arrival times; when
            omitted, batches arrive at ``t+1, t+2, ...``.
        window:
            Number of batches buffered between per-shard flushes
            (in-process backends only).
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        key_iter = iter(keys) if keys is not None else None
        time_iter = iter(times) if times is not None else None
        flush_every = 1 if self._executor.provides_transport else window
        pending: dict[int, tuple[list[Any], list[float]]] = {}
        buffered = 0
        # Snapshot consistency: a cut must never observe an advanced service
        # clock whose batches have not reached the shards yet. The lock is
        # held from a window's first batch until its flush, so readers see
        # cuts only at window boundaries, where clock and shard state agree
        # (a transport window is one batch: its step already dispatched it).
        held = False

        def acquire() -> None:
            nonlocal held
            if not held:
                self._lock.acquire()
                held = True

        def release() -> None:
            nonlocal held
            if held:
                self._lock.release()
                held = False

        def flush() -> None:
            nonlocal buffered
            self._dispatch(pending)
            pending.clear()
            buffered = 0
            # The standby's cut must see every logged batch dispatched, so
            # buffered batches only meet the replication tick here.
            self._replication_tick()

        try:
            for batch in batches:
                batch_keys = None
                if key_iter is not None:
                    try:
                        batch_keys = next(key_iter)
                    except StopIteration:
                        raise ValueError(
                            "keys iterable exhausted before batches; provide one "
                            "key array per batch or omit keys entirely"
                        ) from None
                time = None
                if time_iter is not None:
                    try:
                        time = next(time_iter)
                    except StopIteration:
                        raise ValueError(
                            "times iterable exhausted before batches; provide one "
                            "arrival time per batch or omit times entirely"
                        ) from None
                items = as_item_array(batch)
                acquire()
                self._ingest_step(items, batch_keys, time, pending)
                buffered += 1
                if buffered >= flush_every or self._standby_cut_due():
                    flush()
                    release()
        except BaseException:
            # Deliver the complete batches routed before the failure, so the
            # observable state is "everything before the bad batch was
            # ingested" — the same semantics as a per-batch ingest loop.
            acquire()
            try:
                flush()
            finally:
                release()
            raise
        acquire()
        try:
            flush()
        finally:
            release()

    def flush(self) -> None:
        """Barrier: wait until every enqueued batch has been ingested.

        A no-op on in-process backends, whose ingest calls are synchronous.
        With a WAL, the log is also flushed — to the OS page cache (and to
        disk under the ``"always"`` policy), making everything logged so
        far durable under the configured policy.
        """
        with self._lock:
            self._drain_transport_safely()
            if self._wal is not None:
                self._wal.flush()

    # ------------------------------------------------------------------
    # durability (write-ahead log + delta checkpoints)
    # ------------------------------------------------------------------
    def _wal_log(self, routed: list[tuple[int, np.ndarray]], time: float) -> None:
        """Append one batch's per-shard sub-batches to the WAL (after the clock advanced)."""
        if self._wal is None:
            return
        begin = perf_counter() if self._profile_enabled else 0.0
        self._wal.append_batch(
            self._batches_seen - 1, time, routed, bool(self._explicit_keys_used)
        )
        if self._profile_enabled:
            self._note_phase("wal", perf_counter() - begin)

    @property
    def wal_dir(self) -> str | None:
        """The write-ahead log directory, or ``None`` when durability is off."""
        return self._wal.directory if self._wal is not None else None

    @property
    def acked_batches(self) -> int:
        """Number of leading batches fully acknowledged by the backend.

        On in-process backends ingestion is synchronous, so this equals
        :attr:`batches_seen`. On the transport backend with a WAL, batches
        are pipelined and each one is tagged with its sequence number; this
        property reads the acknowledgement watermark — batches beyond it
        are in flight (or lost with a crashed worker) and recovery replays
        them from the log rather than trusting the pipeline.
        """
        if self._wal is not None and self._transport_attached:
            acked = self._executor.transport.acked_through()
            if acked is not None:
                return acked + 1
        return self._batches_seen

    def checkpoint(self, directory: str | os.PathLike | None = None) -> None:
        """Write a delta checkpoint, rewriting only shards changed since the last.

        With no ``directory`` the WAL's paired checkpoint
        (``<wal_dir>/checkpoint``) is written, after which each log is
        truncated at the checkpoint watermark — the log shrinks back to
        (usually) nothing, and recovery replay is bounded by the data that
        arrived since this call. An explicit ``directory`` writes a
        self-contained delta checkpoint elsewhere (every shard rewritten;
        incremental reuse is only safe against the paired directory's own
        history) and leaves the WAL untouched.

        The save serializes from a committed-watermark snapshot cut
        (:meth:`snapshot` with ``include_state=True``) rather than draining
        the pipeline: shard states are published at the cut's batch
        boundary while ingest of later batches proceeds underneath. It
        uses the same atomic-swap protocol as
        :func:`~repro.service.checkpoint.save_checkpoint` — a crash mid-save
        leaves the previous checkpoint fully loadable.
        """
        from repro.service.checkpoint import save_service_delta

        paired = directory is None
        if paired:
            if self._wal is None:
                raise ValueError(
                    "checkpoint() without a directory writes the WAL's paired "
                    "checkpoint, but this service has no WAL; pass a directory "
                    "or construct the service with wal_dir="
                )
            directory = self._wal.checkpoint_dir
        with self._lock:
            cut = self.snapshot(include_items=False, include_state=True)
            self._refresh_driver_cut(cut)
            shard_states = {
                shard_id: cut.views[shard_id].state
                for shard_id in sorted(cut.views)
            }
            watermark = cut.watermark
            save_service_delta(
                self._scalar_state(),
                shard_states,
                directory,
                watermark,
                dirty=set(self._ckpt_dirty) if paired else None,
            )
            if paired:
                self._ckpt_dirty.clear()
                self._wal_watermark = watermark
                if self._replication is not None:
                    # Truncation drops every frame at or below the
                    # watermark; promotion replays from the standby's base,
                    # so the base moves up to this very cut first.
                    self._replication.replica = ShardReplicaSet.capture(self, cut)
                self._wal.truncate(watermark)

    # ------------------------------------------------------------------
    # transport (process backend) dispatch
    # ------------------------------------------------------------------
    def _note_phase(self, phase: str, seconds: float) -> None:
        """Accumulate one profiled phase's wall time (profiling enabled only)."""
        self._profile_times[phase] = self._profile_times.get(phase, 0.0) + seconds

    def _shard_key(self, shard_id: int) -> tuple:
        return ("svc", self._service_id, shard_id)

    def _attach_all_shards(self) -> None:
        """Make every shard's sampler resident in the worker pool.

        Existing shards ship their current snapshots; shards with no data
        yet are built by the factory now (any shard may receive items the
        moment the next batch is routed) — but they only count as
        *active*, and only appear in checkpoints, once a worker reports
        items for them. The factory receives a generator carrying shard
        ``k``'s reserved stream state, exactly as the lazily-creating serial
        path would hand it.
        """
        pool = self._executor.transport
        for shard_id in range(self.num_shards):
            sampler = self._shards.get(shard_id)
            if sampler is not None:
                self._retained_rng[shard_id] = (
                    getattr(sampler, "_rng", None) is self._shard_rngs[shard_id]
                )
                state = sampler.state_dict()
            elif shard_id in self._standby_states:
                state = self._standby_states[shard_id]
            else:
                clone = generator_from_state(
                    generator_state(self._shard_rngs[shard_id])
                )
                sampler = self._factory(clone)
                if not isinstance(sampler, Sampler):
                    raise TypeError(
                        "sampler_factory must return a repro.core.base.Sampler, "
                        f"got {type(sampler).__name__}"
                    )
                # The clone (including any construction-time draws) becomes
                # the shard's reserved stream only on activation — see
                # ``_standby_rngs``.
                self._standby_rngs[shard_id] = clone
                self._retained_rng[shard_id] = getattr(sampler, "_rng", None) is clone
                state = sampler.state_dict()
                self._standby_states[shard_id] = state
            pool.attach(
                self._shard_key(shard_id),
                restore_sampler,
                state,
                worker=shard_id % pool.num_workers,
            )
        self._transport_attached = True

    def _note_counts(self, counts: dict[int, int]) -> None:
        """Acknowledgement callback: record which shards received items."""
        for shard_id in counts:
            shard_id = int(shard_id)
            self._activated.add(shard_id)
            self._ckpt_dirty.add(shard_id)
            self._standby_states.pop(shard_id, None)
            standby_rng = self._standby_rngs.pop(shard_id, None)
            if standby_rng is not None:
                # First arrival: adopt the factory's construction-time draws
                # into the reserved stream, as serial's lazy creation would.
                self._shard_rngs[shard_id] = standby_rng

    def _dispatch_routed(
        self, batch: np.ndarray, routed_batch: RoutedBatch, time: float
    ) -> None:
        """Scatter one routed batch into per-worker ring frames (pipelined).

        Each worker receives exactly its shards' items, gathered straight
        from the batch into its double-buffered shared-memory ring by the
        transport's scatter path (no intermediate per-shard copies
        materialize driver-side), plus the ``(shard_id, count)`` slice map
        — the worker just walks contiguous slices, it never re-hashes.
        Sub-batch contents and within-shard order match the serial path
        exactly, so trajectories stay bit-identical.
        """
        if not self._transport_attached:
            self._attach_all_shards()
        pool = self._executor.transport
        profile = self._profile_enabled
        order = routed_batch.order
        counts = routed_batch.counts
        offsets = routed_batch.offsets

        def on_result(result: Any) -> None:
            if profile:
                result, seconds = result
                self._note_phase("worker_ingest", seconds)
            self._note_counts(result)

        begin = perf_counter() if profile else 0.0
        # With a WAL, every command of this batch is tagged with the batch's
        # global sequence number, feeding the pool's acknowledgement
        # watermark (`acked_through`): after a worker crash, the watermark
        # tells recovery exactly which pipelined batches never landed. Only
        # submitted commands feed the watermark, so workers that received
        # no items are safely skipped.
        tag = self._batches_seen - 1 if self._wal is not None else None
        num_workers = pool.num_workers
        for worker in range(min(num_workers, self.num_shards)):
            owned = [
                shard_id
                for shard_id in range(worker, self.num_shards, num_workers)
                if counts[shard_id]
            ]
            if not owned:
                continue
            if num_workers == 1:
                # One worker owns every shard: the grouping permutation is
                # the routed order itself (zero-count shards contribute
                # nothing to it).
                permutation = order
            elif len(owned) == 1:
                shard_id = owned[0]
                permutation = order[offsets[shard_id] : offsets[shard_id + 1]]
            else:
                permutation = np.concatenate(
                    [order[offsets[s] : offsets[s + 1]] for s in owned]
                )
            pool.apply(
                worker,
                service_ingest_routed,
                kwargs={
                    "time": float(time),
                    "service_id": self._service_id,
                    "shard_sizes": [(int(s), int(counts[s])) for s in owned],
                    "profile": profile,
                },
                scatters={"payload": (batch, permutation)},
                on_result=on_result,
                tag=tag,
            )
        if profile:
            self._note_phase("dispatch", perf_counter() - begin)

    def _collect_transport_views(
        self, include_items: bool, include_state: bool
    ) -> dict[int, SamplerSnapshotView]:
        """Take the committed-watermark cut from the resident worker shards.

        Enqueues one snapshot marker per worker behind every batch
        dispatched so far (:meth:`ShardWorkerPool.snapshot_async`), then
        collects the per-worker view dicts. The collect waits only for the
        marker acknowledgements — batch acks en route are processed as
        ordinary ack-side frames — so the pipeline is never drained and
        commands enqueued after the markers stay in flight. Workers
        enumerate *all* their resident shards of this service (skipping
        pristine standbys), so shards activated by still-unacknowledged
        batches are part of the cut.
        """
        pool = self._executor.transport
        try:
            markers = pool.snapshot_async(
                service_snapshot_views,
                kwargs={
                    "service_id": self._service_id,
                    "include_items": include_items,
                    "include_state": include_state,
                },
            )
            views: dict[int, SamplerSnapshotView] = {}
            for worker_views in pool.collect(markers):
                views.update(worker_views)
        except WorkerCrashError as error:
            # The cut found the pool dead. With a standby, promote: the
            # replayed log tail covers everything the crashed workers held,
            # so the cut completes on the promoted samplers.
            self._failover(error)
            return {
                shard_id: self._shards[shard_id].snapshot_view(
                    include_items=include_items, include_state=include_state
                )
                for shard_id in sorted(self._activated)
            }
        return {shard_id: views[shard_id] for shard_id in sorted(views)}

    def _refresh_driver_cut(self, cut: ServiceSnapshot) -> None:
        """Adopt a state-bearing cut as the driver's authoritative shard state.

        The second half of the one state-bearing read (:meth:`state_dict`
        and :meth:`checkpoint` both take it): on the transport backend every
        view's ``state_dict()`` is restored driver-side and the reserved RNG
        streams are re-aliased as a detach would, but the states come from
        the snapshot cut — no barrier. Collecting the cut's markers
        processed every earlier acknowledgement, so activation bookkeeping
        is current too. Must be called under the service lock with a cut
        taken at the current watermark (no writes can have interleaved);
        in-process backends are a no-op because the driver's samplers are
        already authoritative.
        """
        if not self._transport_attached:
            return
        for shard_id in sorted(cut.views):
            state = cut.views[shard_id].state
            if state is None:
                raise ValueError(
                    "driver refresh needs a state-bearing cut; take the "
                    "snapshot with include_state=True"
                )
            sampler = Sampler.from_state_dict(state)
            self._shards[shard_id] = sampler
            if self._retained_rng.get(shard_id):
                self._shard_rngs[shard_id] = sampler._rng

    # ------------------------------------------------------------------
    # warm-standby replication & supervised failover
    # ------------------------------------------------------------------
    def _enable_replication(self, config: ReplicationConfig) -> None:
        """Capture a warm standby of the current state and start supervising.

        Called from the constructor (``replication=``) and by
        :func:`~repro.service.wal.recover_service`. The standby's first base
        is a cut at the current committed watermark; from then on it trails
        the primary only by the committed log beyond its base.
        """
        if self._wal is None:
            raise ValueError(
                "replication requires a write-ahead log; construct the "
                "service with wal_dir= (or recover one that has it)"
            )
        if self._replication is not None:
            raise ValueError("replication is already enabled on this service")
        # The base is the same committed-watermark cut the checkpoint path
        # serializes: a state-bearing snapshot, not a drain barrier.
        cut = self.snapshot(include_items=False, include_state=True)
        self._replication = ReplicationRuntime(
            config=config,
            replica=ShardReplicaSet.capture(self, cut),
            detector=FailureDetector(
                clock=config.clock, ack_timeout=config.ack_timeout
            ),
        )

    def _standby_cut_due(self) -> bool:
        """Whether ``ship_interval`` committed batches lie beyond the base."""
        rt = self._replication
        return rt is not None and (
            rt.replica.lag(self._batches_seen - 1) >= rt.config.ship_interval
        )

    def _owns_reserved_stream(self, shard_id: int) -> bool:
        """Whether shard ``shard_id``'s sampler draws from its reserved stream.

        Answers for the moment of a cut taken under the service lock: the
        transport backend recorded the aliasing when it attached the shard;
        in-process backends hold the live sampler.
        """
        if self._transport_attached:
            return self._retained_rng.get(shard_id, False)
        return getattr(self._shards.get(shard_id), "_rng", None) is self._shard_rngs[shard_id]

    def _replication_tick(self) -> None:
        """Per-batch replication upkeep: retake the base on cadence, probe the workers.

        Runs *after* a batch is committed and dispatched — never between
        commit and dispatch, where a promotion would replay the batch into
        the promoted samplers and the still-pending dispatch would then
        double-apply it, and where a cut would miss the batch. A crash found
        by the cadence cut promotes from the previous base inside
        :meth:`snapshot`; the cut it returns is then the promoted state.
        """
        rt = self._replication
        if rt is None:
            return
        if self._standby_cut_due():
            cut = self.snapshot(include_items=False, include_state=True)
            rt.replica = ShardReplicaSet.capture(self, cut)
        if self._transport_attached:
            verdict = rt.detector.check(self._executor.transport)
            if verdict.failed:
                self._failover(self._verdict_error(verdict))

    def _verdict_error(self, verdict: FailureVerdict) -> WorkerCrashError:
        """Materialize a failure-detector verdict as the error that caused it."""
        pool = self._executor.transport
        if verdict.dead_workers:
            index = verdict.dead_workers[0]
            return WorkerCrashError(
                index,
                pool.worker_pids()[index],
                detail="liveness probe found the worker process dead",
            )
        for handle in pool.workers:
            if handle.pending:
                return WorkerCrashError(
                    handle.index,
                    handle.process.pid,
                    detail="acknowledgements stalled past the failure "
                    "detector's timeout",
                )
        return WorkerCrashError(
            0, None, detail="acknowledgements stalled past the timeout"
        )

    def _drain_transport_safely(self) -> None:
        """Drain the pipeline, failing over instead of raising when possible."""
        if not self._transport_attached:
            return
        begin = perf_counter() if self._profile_enabled else 0.0
        try:
            self._executor.transport.drain()
        except WorkerCrashError as error:
            self._failover(error)
        finally:
            if self._profile_enabled:
                self._note_phase("ack", perf_counter() - begin)

    def _failover(self, error: WorkerCrashError | None) -> None:
        """Promote the warm standby over the (dead or condemned) worker pool.

        Without a standby, a worker crash (``error``) is re-raised as is.

        The safety argument: every batch the driver ever observed as
        ingested was committed to the WAL *before* dispatch, so the
        standby's base plus the committed log beyond it — replayed through
        the last committed sequence number — is bit-identical to an
        uninterrupted run through that batch. Worker
        state is therefore never salvaged: the pool is discarded wholesale,
        whatever pipeline position it died at, and no batch is dropped or
        double-applied regardless of when the failure was detected.
        """
        rt = self._replication
        if rt is None:
            if error is not None:
                raise error
            raise FailoverError(
                "no warm standby is configured; construct the service with "
                "replication=ReplicationConfig(...)",
                cause=error,
            )
        if (
            rt.config.max_failovers is not None
            and rt.failovers >= rt.config.max_failovers
        ):
            raise FailoverError(
                f"failover budget exhausted ({rt.failovers} of "
                f"{rt.config.max_failovers} used); a repeating crash at this "
                "rate suggests a poisoned batch or a sick host — recover "
                "offline and investigate",
                cause=error,
            )
        # 1. Condemn the pool. Surviving workers hold shards at
        # indeterminate pipeline positions; none of that state is salvaged
        # — the log is the authority. shutdown() leaves the executor
        # usable: the next dispatch lazily respawns a fresh pool and
        # re-attaches the promoted shards.
        self._transport_attached = False
        self._retained_rng = {}
        self._standby_states = {}
        self._standby_rngs = {}
        # Cached cuts may reference the condemned pool's shard states.
        self._snapshot_cache = None
        self._executor.shutdown()
        # 2. Rebuild the base, replay the log through the last committed
        # batch, then promote the samplers and reserved RNG streams in
        # place. The base stays: it describes this same trajectory.
        committed = self._batches_seen - 1
        rt.replica.catch_up(committed)
        samplers, rngs = rt.replica.promote()
        self._shards = samplers
        self._activated = set(samplers)
        for shard_id in sorted(rngs):
            self._shard_rngs[shard_id] = rngs[shard_id]
        # Every promoted shard must land in the next delta checkpoint: the
        # paired checkpoint's shard files describe the pre-failover sync
        # points, and only dirty shards are rewritten.
        self._ckpt_dirty.update(self._activated)
        rt.failovers += 1
        rt.events.append(
            f"failover {rt.failovers} at batch {committed}: "
            + (str(error) if error is not None else "operator-forced promotion")
        )
        rt.detector.reset()

    def failover(self) -> None:
        """Promote the warm standby now (operator-forced).

        Runs the exact promotion the failure detector performs on a worker
        crash: the current (possibly healthy) worker pool is discarded,
        the standby's base is rebuilt and the committed log tail beyond it
        replayed, and the service
        continues on the promoted samplers — bit-identically to never
        having failed over, on any backend. Requires ``replication=``;
        raises :class:`~repro.engine.errors.FailoverError` otherwise.
        """
        with self._lock:
            self._failover(None)

    def check_health(self) -> dict[str, Any]:
        """Probe the worker pool; with replication enabled, fail over on failure.

        A passive, non-blocking endpoint for supervisors: reports worker
        liveness and pipeline progress without draining anything. When the
        failure detector condemns the pool and a standby is configured,
        the promotion happens here and ``failed_over`` is reported
        ``True``. In-process backends (and a detached pool) always report
        healthy — there are no worker processes to lose.
        """
        with self._lock:
            report: dict[str, Any] = {
                "backend": self._executor.name,
                "failed_over": False,
            }
            if not self._transport_attached:
                return report
            pool = self._executor.transport
            report.update(
                workers=pool.num_workers,
                worker_pids=pool.worker_pids(),
                dead_workers=pool.dead_workers(),
                pending_commands=pool.pending_commands(),
                acked_batches=self.acked_batches,
            )
            rt = self._replication
            if rt is None:
                return report
            verdict = rt.detector.check(pool)
            if verdict.failed:
                self._failover(self._verdict_error(verdict))
                report["failed_over"] = True
            return report

    def _coerce_keys(
        self, keys: Any, batch: np.ndarray
    ) -> Sequence[Any] | np.ndarray | None:
        """Materialize and validate one batch's explicit keys (or ``None``).

        Sized-less iterables (generators, ``map`` objects) are materialized
        exactly as batches are; a non-iterable ``keys`` entry raises a
        ``ValueError`` naming the argument instead of an opaque
        ``TypeError`` from a ``len`` call deep in the routing layer.
        """
        if keys is None:
            return None
        if not hasattr(keys, "__len__"):
            try:
                keys = list(keys)
            except TypeError:
                raise ValueError(
                    "keys must be a sequence, array, or iterable of routing "
                    f"keys (one per item); got {type(keys).__name__}"
                ) from None
        if len(keys) != len(batch):
            raise ValueError(
                f"{len(keys)} keys for {len(batch)} items; provide exactly "
                "one routing key per item"
            )
        return keys

    def _route(
        self, batch: np.ndarray, keys: Sequence[Any] | np.ndarray | None
    ) -> RoutedBatch | None:
        """Hash and shard-bucket one batch: the routing result every stage reuses.

        One driver-side pass produces the shard ids, the shard-grouping
        permutation, and the per-shard counts and offsets, so the WAL, the
        in-process sub-batches and the per-worker ring scatters all consume
        the same result instead of re-touching (or re-hashing) the batch.
        Raises on malformed keys *before* the caller advances the service
        clock; returns ``None`` for an empty batch.
        """
        keys = self._coerce_keys(keys, batch)
        explicit = keys is not None
        if not len(batch):
            return None
        if keys is None:
            if self.key_fn is not None:
                keys = [self.key_fn(item) for item in batch]
            else:
                keys = batch
        profile = self._profile_enabled
        begin = perf_counter() if profile else 0.0
        shard_ids = shard_ids_for_keys(keys, self.num_shards, self._routing_version)
        if profile:
            self._note_phase("hash", perf_counter() - begin)
            begin = perf_counter()
        order, counts, offsets = split_order(shard_ids, self.num_shards)
        if profile:
            self._note_phase("split", perf_counter() - begin)
        if explicit:
            # Recorded only once the keys actually routed items: a rejected
            # ingest (unroutable key types, length mismatch) must not
            # poison the service's ability to reshard.
            self._explicit_keys_used = True
        return RoutedBatch(shard_ids, order, counts, offsets)

    def _advance_time(self, time: float | None) -> float:
        self._time, _ = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        self._batches_seen += 1
        if self._profile_enabled:
            self._profile_batches += 1
        return self._time

    # ------------------------------------------------------------------
    # elastic resharding
    # ------------------------------------------------------------------
    def _recover_keys(self, items: np.ndarray) -> Sequence[Any] | np.ndarray:
        """Recompute the routing keys of retained item payloads.

        Keys come from ``key_fn`` when one is configured, otherwise the
        items route on themselves. A service that was fed caller-supplied
        explicit keys and has no ``key_fn`` cannot do this — the keys were
        never a function of the payload — so resharding refuses rather than
        silently re-routing on the wrong keys.
        """
        self._check_keys_recoverable()
        if self.key_fn is not None:
            return [self.key_fn(item) for item in items]
        return items

    def _check_keys_recoverable(self) -> None:
        """Refuse resharding when retained items' keys cannot be recomputed.

        With a ``key_fn``, keys are always recoverable — explicit keys
        passed alongside one are treated as a precomputed cache of
        ``key_fn`` (the contract of mixing the two; if they disagreed, the
        original routing was already inconsistent with the configured
        ``key_fn``). Without one, explicit keys are unrecoverable; and a
        pre-elastic checkpoint (``explicit_keys_used`` missing, restored as
        ``None``) cannot *prove* explicit keys were never used, so it is
        refused too rather than risking silent mis-affinity.
        """
        if self.key_fn is not None:
            return
        if self._explicit_keys_used:
            raise ValueError(
                "cannot reshard: this service ingested batches with explicit "
                "keys and has no key_fn, so retained items' routing keys "
                "cannot be recomputed. Construct (or restore) the service "
                "with a key_fn that derives each item's key, or route on the "
                "items themselves."
            )
        if self._explicit_keys_used is None:
            raise ValueError(
                "cannot reshard: this checkpoint predates key-usage "
                "recording, so it cannot prove explicit keys were never "
                "used. Restore with a key_fn that derives each item's key; "
                "or, if the deployment routed on the items themselves, set "
                "'explicit_keys_used' to false in the snapshot and restore "
                "again (one more save then records it permanently)."
            )

    def reshard(
        self, num_shards: int, sampler_factory: SamplerFactory | None = None
    ) -> None:
        """Change the shard layout of a *live* service to ``num_shards``.

        Every retained item moves to the shard its routing key hashes to
        under the new count — growing, shrinking, and non-power-of-two
        counts all supported — so key affinity holds under the new layout
        exactly as if the service had always run with ``num_shards``
        shards. Aggregate bookkeeping is conserved: total weight exactly
        (up to float summation), expected sample size exactly unless a
        destination lands over its sampler's capacity (key skew, or
        shrinking a saturated deployment below its retained mass), where
        the capacity bound necessarily subsamples — for R-TBS via
        Algorithm 3, preserving relative inclusion probabilities.

        Mechanics: the ingest pipeline is drained and resident shard state
        detached from the worker pool (the next ingest re-attaches under
        the new layout); every active shard is synchronized to the service
        clock (an empty batch at the current time, so idle shards decay by
        their full gap before their items move); the per-sampler
        split/merge primitives (:mod:`repro.core.resharding`) re-partition
        the synchronized shards; and fresh per-shard RNG streams for the
        new layout are spawned deterministically from the master RNG. The
        whole operation runs driver-side, so it is bit-identical across
        serial/thread/process backends and through checkpoint/restore.

        ``sampler_factory``, when given, replaces the service's factory for
        the new layout (and all shards created after it) — the idiomatic
        way to keep *aggregate* capacity constant across a reshard:
        ``service.reshard(2 * k, lambda rng: RTBS(n=total // (2 * k), ...))``.
        With the default factory kept, shrinking a saturated deployment
        necessarily caps each destination at the old per-shard capacity.

        Requires recoverable routing keys and a shard sampler type that
        implements the resharding protocol. Keys are recoverable when a
        ``key_fn`` is configured or items route on themselves; a service
        fed caller-supplied explicit keys without a ``key_fn`` refuses
        (the keys were never a function of the payload), as does one
        restored from a pre-elastic checkpoint that cannot prove explicit
        keys were unused. Mixing explicit keys *with* a ``key_fn`` is
        supported under the contract that the explicit keys are a
        precomputed cache of ``key_fn(item)`` — resharding re-routes on
        ``key_fn``, so keys that disagreed with it would already have been
        routed inconsistently at ingest time. A same-count reshard with no
        new factory is a no-op.
        """
        with self._lock:
            self._reshard_locked(num_shards, sampler_factory)

    def _reshard_locked(
        self, num_shards: int, sampler_factory: SamplerFactory | None
    ) -> None:
        new_count = int(num_shards)
        if new_count <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if sampler_factory is None and new_count == self.num_shards:
            return
        # All validation happens before any state changes: a refused reshard
        # must leave the service exactly as it was (same factory included).
        self._check_keys_recoverable()
        if self._wal is not None:
            # Checkpoint + truncate before re-homing: the logs' per-shard
            # records are keyed by the *old* layout, so everything in them
            # must be durable in the checkpoint before the layout changes.
            self.checkpoint()
        if sampler_factory is not None:
            self._factory = sampler_factory
        if self._transport_attached:
            # Drain + detach: the driver's samplers become authoritative and
            # the next ingest re-attaches them under the new layout.
            try:
                self._detach_all_shards()
            except WorkerCrashError as error:
                # The checkpoint above made its cut the standby's base, so
                # promotion loses nothing; the reshard proceeds on the
                # promoted samplers.
                self._failover(error)
        # Bring every active shard to the service clock so the split sees
        # fully decayed bookkeeping (idle shards decay by their whole gap).
        for shard_id in sorted(self._activated):
            sampler = self._shards[shard_id]
            if sampler.time < self._time:
                sampler.process_batch([], time=self._time)

        new_rngs = spawn_rngs(self._rng, new_count)

        def make_sampler(shard_id: int) -> Sampler:
            sampler = self._factory(new_rngs[shard_id])
            if not isinstance(sampler, Sampler):
                raise TypeError(
                    "sampler_factory must return a repro.core.base.Sampler, "
                    f"got {type(sampler).__name__}"
                )
            return sampler

        def destinations_for(items: np.ndarray) -> np.ndarray:
            # Re-home under the *current* encoding, whatever version the
            # service routed under before: every retained item's shard is
            # recomputed from scratch, so a reshard doubles as the
            # migration path off older key encodings.
            return shard_ids_for_keys(
                self._recover_keys(items), new_count, ROUTING_VERSION
            )

        new_shards = reshard_samplers(
            {shard_id: self._shards[shard_id] for shard_id in sorted(self._activated)},
            destinations_for,
            make_sampler,
            new_count,
        )

        self.num_shards = new_count
        self._routing_version = int(ROUTING_VERSION)
        self._shard_rngs = new_rngs
        self._shards = new_shards
        self._activated = set(new_shards)
        self._retained_rng = {}
        self._standby_states = {}
        self._standby_rngs = {}
        # Cached cuts describe the old layout (shard ids, num_shards).
        self._snapshot_cache = None
        if self._wal is not None:
            # Fresh, empty logs for the new layout, and a checkpoint of the
            # re-homed state: every shard changed identity, so all are
            # dirty, and a crash right after this point must recover the
            # *post*-reshard deployment.
            self._wal.reset_layout(new_count)
            self._ckpt_dirty = set(new_shards)
            # The checkpoint also makes the re-homed state the standby's
            # base, replacing the old layout's.
            self.checkpoint()
            if self._replication is not None:
                self._replication.detector.reset()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """A complete, restorable snapshot of the service.

        Includes the master RNG, the reserved per-shard RNG streams (so
        shards that have *not* been created yet still get the exact stream
        they would have received), and one sampler snapshot per active
        shard. Contains only plain containers and NumPy arrays. It
        serializes from the same state-bearing snapshot cut as
        :meth:`checkpoint`, so on the transport backend a snapshot taken
        mid-stream is exact and bit-identical to the serial backend's
        without draining the pipeline.
        """
        with self._lock:
            cut = self.snapshot(include_items=False, include_state=True)
            self._refresh_driver_cut(cut)
            return {
                **self._scalar_state(),
                "shards": {
                    str(shard_id): cut.views[shard_id].state
                    for shard_id in sorted(cut.views)
                },
            }

    def _scalar_state(self) -> dict[str, Any]:
        """The service-level half of :meth:`state_dict` (everything but shards).

        Delta checkpoints persist this part on every save (it is tiny) and
        the per-shard sampler snapshots separately, rewriting only dirty
        ones. A pure read: callers take a state-bearing cut and
        :meth:`_refresh_driver_cut` first, so the reserved RNG streams match
        the cut's shard states.
        """
        return {
            "format_version": STATE_FORMAT_VERSION,
            "service_type": type(self).__name__,
            "num_shards": self.num_shards,
            # The routing contract the shard layout was computed under, and
            # whether explicit keys were ever used — both are what a restore
            # with a different shard count needs to re-route safely. A
            # service restored from an older checkpoint keeps routing under
            # the version it recorded (until a reshard re-homes it), so the
            # *instance* version is persisted, not the build's. A
            # pre-elastic restore's *unknown* (None) is preserved as null,
            # never laundered into a confident False.
            "routing_version": self._routing_version,
            "explicit_keys_used": self._explicit_keys_used,
            "time": float(self._time),
            "batches_seen": int(self._batches_seen),
            "rng_state": generator_state(self._rng),
            "shard_rng_states": [generator_state(rng) for rng in self._shard_rngs],
        }

    def _detach_all_shards(self) -> None:
        """Drain the pipeline and pull every resident shard off the workers.

        After this the driver's samplers are authoritative again and the
        pool holds no state for this service — the precondition for both
        :meth:`close` (which then releases the pool) and :meth:`reshard`
        (which re-partitions driver-side; the next ingest re-attaches the
        shards under the new layout).
        """
        pool = self._executor.transport
        pool.drain()
        for shard_id in range(self.num_shards):
            key = self._shard_key(shard_id)
            if shard_id in self._activated:
                snapshot = pool.detach(key, snapshot_sampler)
                sampler = Sampler.from_state_dict(snapshot)
                self._shards[shard_id] = sampler
                if self._retained_rng.get(shard_id):
                    self._shard_rngs[shard_id] = sampler._rng
            else:
                pool.detach(key, None)
        self._transport_attached = False

    def close(self) -> None:
        """Detach resident shard state and release the executor's workers.

        The service owns its executor lifecycle: one worker pool serves
        every ingest call, and ``close`` (or leaving the ``with`` block)
        ends it. Resident shard snapshots are pulled back first, so the
        service and its samplers stay fully queryable afterwards — and a
        later ingest transparently re-attaches and respawns workers. (If
        several services share one executor, closing any of them releases
        the shared pool; close the services together.)

        ``close`` is idempotent, including after a worker crash: a second
        call finds the transport detached and the pool torn down, closes
        the (already-closed) log handles again, and returns cleanly. With
        replication enabled a crash discovered *here* promotes the standby
        instead of raising — the service closes cleanly and stays
        queryable, with every acked batch accounted for.
        """
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        failure: BaseException | None = None
        try:
            if self._transport_attached:
                try:
                    self._detach_all_shards()
                except WorkerCrashError as error:
                    self._transport_attached = False
                    if self._replication is not None:
                        # Promote rather than raise: the committed log tail
                        # holds every acked batch, so close completes with
                        # the service still queryable and nothing lost.
                        self._failover(error)
                    else:
                        # A worker died with work possibly still in flight.
                        # Tear the pool down, then re-raise: close may be
                        # the *first* drain after the crash, and swallowing
                        # it would lose pipelined batches silently — under
                        # a WAL those batches are on disk and
                        # recover_service replays them. (The ``finally``
                        # still closes the log handles, so the logs are
                        # flushed and ready for recovery. ``__exit__``
                        # suppresses the re-raise when another exception —
                        # usually this same crash, surfaced on the ingest
                        # path — is already propagating.)
                        self._executor.shutdown()
                        raise
                except EngineError:
                    # Same teardown-then-reraise for non-crash engine
                    # failures (a closed pool, a lost pipe outside a
                    # worker death): nothing to promote over.
                    self._transport_attached = False
                    self._executor.shutdown()
                    raise
                finally:
                    self._transport_attached = False
            self._executor.shutdown()
        except BaseException as error:
            failure = error
            raise
        finally:
            if self._wal is not None:
                try:
                    self._wal.close()
                except OSError:
                    # The log handles are flushed per-batch; a secondary
                    # close failure must not mask the crash already
                    # propagating — that one names the actionable problem.
                    if failure is None:
                        raise

    def shutdown(self) -> None:
        """Alias of :meth:`close` (kept for backward compatibility)."""
        self.close()

    def __enter__(self) -> "SamplerService":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        try:
            self.close()
        except EngineError:
            if exc_type is None:
                raise
            # An exception (typically the same worker crash) is already
            # propagating out of the with-block; don't mask it.

    @classmethod
    def from_state_dict(
        cls,
        state: dict[str, Any],
        sampler_factory: SamplerFactory,
        key_fn: Callable[[Any], Any] | None = None,
        executor: Executor | str | None = None,
        num_shards: int | None = None,
    ) -> "SamplerService":
        """Reconstruct a service from :meth:`state_dict`.

        ``sampler_factory`` (and ``key_fn``, if one was used) are code, not
        data — snapshots never contain pickled callables — so the caller
        supplies them again; the factory is only invoked for shards created
        *after* the restore. The same goes for ``executor``: the backend is
        deployment configuration, not state, so a service checkpointed under
        one backend may restore under any other without changing its
        trajectory. Active shards are rebuilt from their own snapshots via
        ``Sampler.from_state_dict``.

        ``num_shards`` makes the restore *checkpoint-portable across shard
        layouts*: passing an ``M`` different from the ``N`` the snapshot
        was saved with restores the ``N``-shard deployment and immediately
        :meth:`reshard`\\ s it to ``M`` — every retained item lands on the
        shard its key hashes to under ``M``, with aggregate bookkeeping
        conserved. Snapshots record the routing contract they were built
        under (``routing_version``); pre-elastic snapshots without the
        field are migrated as version-1 layouts (version 1 was the only
        encoding then). Any supported version restores with its exact
        per-key hashing preserved — the service keeps routing new arrivals
        under the recorded version so per-key affinity with retained items
        holds — and a spot check verifies that retained items actually
        route back to the shards holding them, rejecting snapshots whose
        recorded version disagrees with the layout on disk.
        """
        version = state.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported service state format {version!r}; "
                f"this build reads version {STATE_FORMAT_VERSION}"
            )
        # Old-layout snapshots (pre-elastic) carry no routing_version; they
        # predate version 2, so they migrate as version-1 layouts. Every
        # version in SUPPORTED_ROUTING_VERSIONS restores exactly (the build
        # keeps the old per-key hashing alongside the current one); a
        # snapshot from an *unknown* encoding cannot: its key→shard map is
        # not reproducible here.
        routing_version = int(state.get("routing_version", 1))
        if routing_version not in SUPPORTED_ROUTING_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_ROUTING_VERSIONS)
            raise ValueError(
                f"checkpoint was routed under key-encoding version "
                f"{routing_version}, but this build implements versions "
                f"{{{supported}}}; its key->shard map cannot be reproduced"
            )
        service = cls.__new__(cls)
        service._factory = sampler_factory
        service.num_shards = int(state["num_shards"])
        service.key_fn = key_fn
        service._executor = get_executor(executor)
        require_in_place_backend(service._executor, "SamplerService")
        service._rng = generator_from_state(state["rng_state"])
        shard_rng_states = state["shard_rng_states"]
        if len(shard_rng_states) != service.num_shards:
            raise ValueError(
                f"snapshot holds {len(shard_rng_states)} shard RNG streams "
                f"for {service.num_shards} shards"
            )
        service._shard_rngs = [generator_from_state(s) for s in shard_rng_states]
        service._time = float(state["time"])
        service._batches_seen = int(state["batches_seen"])
        flag = state.get("explicit_keys_used")
        service._explicit_keys_used = None if flag is None else bool(flag)
        service._shards = {
            int(shard_id): Sampler.from_state_dict(sampler_state)
            for shard_id, sampler_state in state["shards"].items()
        }
        # Re-establish the RNG aliasing the live service had: with the
        # usual factory pattern (the sampler retains the generator it was
        # handed), shard k's sampler and the reserved stream k are one
        # object, so the reserved stream advances as the sampler draws.
        # The snapshot stores them as two equal states; restoring them as
        # two *objects* would freeze the reserved stream while the sampler
        # draws on — and every later snapshot would diverge from an
        # uninterrupted run's. Equal states at snapshot time mean the pair
        # was (observationally) aliased, so re-alias.
        for shard_id, sampler in service._shards.items():
            sampler_rng = getattr(sampler, "_rng", None)
            if sampler_rng is not None and generator_state(
                sampler_rng
            ) == generator_state(service._shard_rngs[shard_id]):
                service._shard_rngs[shard_id] = sampler_rng
        service._routing_version = routing_version
        service._init_transport_state()
        service._verify_restored_routing()
        if num_shards is not None and int(num_shards) != service.num_shards:
            service.reshard(int(num_shards))
        return service

    def _verify_restored_routing(self, probe_limit: int = 64) -> None:
        """Spot-check that retained items route back to the shards holding them.

        A checkpoint records the key-encoding version its layout was
        computed under; if the recorded version disagrees with the layout
        actually on disk (a hand-edited snapshot, a mis-tagged migration),
        every later ingest would silently break per-key affinity — v1 and
        v2 disagree on almost every string key. Re-route up to
        ``probe_limit`` retained items per shard under the recorded
        version and reject the restore on any mismatch. Skipped when keys
        are not a function of the payload (explicit keys, or a pre-elastic
        checkpoint that cannot rule them out): there is nothing to
        recompute, and :meth:`reshard` already refuses those layouts.
        """
        if self._explicit_keys_used is not False:
            return
        for shard_id in sorted(self._shards):
            items = self._shards[shard_id].sample_items()[:probe_limit]
            if not len(items):
                continue
            keys = (
                [self.key_fn(item) for item in items]
                if self.key_fn is not None
                else items
            )
            try:
                destinations = shard_ids_for_keys(
                    keys, self.num_shards, self._routing_version
                )
            except TypeError:
                # Payloads that are not routable keys: the deployment must
                # have routed through a key_fn this restore does not
                # reproduce. Nothing to verify against.
                return
            if not bool(np.all(destinations == shard_id)):
                raise ValueError(
                    f"checkpoint integrity check failed: retained items of "
                    f"shard {shard_id} do not route back to it under the "
                    f"recorded key-encoding version {self._routing_version}; "
                    "the snapshot's routing_version disagrees with its "
                    "layout (tampered or mis-migrated snapshot), and "
                    "restoring it would silently break per-key affinity"
                )
