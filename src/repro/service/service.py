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

Every backend takes a batch through one pipeline: hash every key to its
shard, *plan* the batch, append the plan to the write-ahead log if
durability is on, advance the clock once the log holds it, and only then
stage it on the shard host of a pluggable :mod:`repro.engine` executor.
Planning is
Algorithm 2's acceptance decision taken in the driver: for every R-TBS
shard the driver mirrors ``W``, ``C`` and the shard clock
(:func:`~repro.core.rtbs.rtbs_step`), and a saturated shard, which keeps
only ``StochRound(B n / W)`` of its ``B`` arrivals, has those drawn here
from a per-batch plan stream. Only the accepted rows are then
radix-grouped, gathered, logged and shipped — at steady state well under
one percent of a large batch — while every shard still learns its
arrival count (see :meth:`~repro.core.base.Sampler.ingest_stream`). One
gather of the accepted rows yields contiguous per-shard NumPy slices (the
sub-batches the WAL records), staged for up to ``window`` batches; at the
window's end each shard ingests its sub-batches in one ``ingest_stream``
call. The shards are *attached* to the host while the service ingests,
and detached again by close, failover and reshard:

* ``"serial"`` (default) hosts them in process
  (:class:`~repro.engine.executors.InProcessShardHost`): the window holds
  the slices themselves and runs in the calling thread when it is sent;
* ``"process"`` runs the persistent-worker transport
  (:mod:`repro.engine.transport`): shard samplers live *resident* in the
  worker processes — their state crosses the boundary on attach and again
  only on checkpoint/read/close. Each worker's runs of the gather are
  copied into its double-buffered shared-memory ring as the batch is
  logged, and each window goes out as one command per worker. Ingestion
  is pipelined: ``ingest`` returns once the windows are sent. A dead
  worker raises :class:`~repro.engine.errors.WorkerCrashError`.

Every read takes a **snapshot cut**: :meth:`SamplerService.snapshot`
produces a :class:`ServiceSnapshot` — one immutable copy-on-write view per
active shard (:meth:`~repro.core.base.Sampler.snapshot_view`), all cut at
the same committed batch watermark. A snapshot marker is enqueued on the
shard host *behind* every batch dispatched so far — on the process
backend into each worker's FIFO command pipe — so the views form a
consistent cut without draining the pipeline. ``stats()``, ``sample_items()``, ``shard_samples()``
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
import math
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
from repro.core.rtbs import RTBS, SAMPLING_VERSION, RTBSPlanState, rtbs_step
from repro.engine import (
    EngineError,
    Executor,
    FailoverError,
    WindowTask,
    WorkerCrashError,
    build_shard_sampler,
    get_executor,
    restore_sampler,
    service_ingest_window,
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
    _numeric_shard_ids,
    shard_ids_for_keys,
    # Unused here, but kept bound in this namespace: the benchmark tracer
    # wraps it by name as a routing layer.
    split_by_shard,  # noqa: F401
    split_order,
)
from repro.service.wal import WALError, WriteAheadLog

__all__ = ["SamplerService", "ServiceSnapshot"]

SamplerFactory = Callable[[np.random.Generator], Sampler]

#: Distinguishes the resident-shard keys of different services sharing one
#: executor's worker pool.
_SERVICE_IDS = itertools.count(1)

#: Mixed into every plan stream's seed, so no plan stream coincides with a
#: generator seeded from the same key alone.
_PLAN_TAG = 0x504C414E

#: The ingest phases ``stats()["profile"]`` reports, in pipeline order.
_PHASES = ("hash", "split", "wal", "dispatch", "worker_ingest", "ack")


def _derive_plan_key(rng: np.random.Generator) -> int:
    """A service's plan key: the master stream's next draw, without advancing it."""
    return int(generator_from_state(generator_state(rng)).integers(0, 2**63 - 1))


class _PlannedBatch(NamedTuple):
    """One batch after planning: the accepted rows, grouped by shard."""

    #: The accepted rows in ascending shard order, arrival order within a
    #: shard; shard ``s`` holds ``rows[offsets[s]:offsets[s + 1]]``.
    rows: np.ndarray
    offsets: np.ndarray
    #: Items routed to each shard, accepted or not (length ``num_shards``).
    arrivals: np.ndarray
    #: The R-TBS shards' mirrors after this batch, adopted once it commits.
    mirrors: dict[int, RTBSPlanState]

    def sub_batches(self) -> list[tuple[int, np.ndarray, int | None]]:
        """``(shard_id, accepted rows, arrivals)`` per receiving shard.

        ``arrivals`` is ``None`` for a shard the driver does not plan (not
        R-TBS): its rows are its whole sub-batch, an ordinary batch.
        """
        offsets = self.offsets
        return [
            (
                shard_id,
                self.rows[offsets[shard_id] : offsets[shard_id + 1]],
                int(count) if shard_id in self.mirrors else None,
            )
            for shard_id, count in enumerate(self.arrivals.tolist())
            if count
        ]


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


def _choose_accepted(
    rng: np.random.Generator,
    shard_ids: np.ndarray,
    arrivals: np.ndarray,
    thinned: dict[int, int],
) -> np.ndarray:
    """Positions of ``thinned[s]`` uniformly chosen arrivals of each shard ``s``.

    Takes, per shard, its first ``thinned[s]`` positions in a uniformly
    random order of the batch, so each shard's choice is a uniform subset
    of its arrivals. Only a random prefix of that order is drawn — long
    enough that every shard's quota lies inside it with overwhelming
    probability, about ``max(thinned[s] / arrivals[s])`` of the batch —
    so the cost follows the accepted items, not the batch. Should any
    shard come up short, the whole order is drawn afresh; the event does
    not depend on which of a shard's arrivals the prefix holds, so the
    choice stays exactly uniform either way.
    """
    size = len(shard_ids)
    quota = np.zeros(len(arrivals), dtype=np.int64)
    for shard_id, accepted in thinned.items():
        quota[shard_id] = accepted
    ids = np.fromiter(thinned, dtype=np.int64, count=len(thinned))
    wanted = quota[ids] + 4.0 * np.sqrt(quota[ids]) + 8.0
    length = min(size, math.ceil(float(np.max(wanted * size / arrivals[ids]))))
    if length < size:
        order = rng.choice(size, size=length, replace=False)
    else:
        order = rng.permutation(size)
    grouped, counts, offsets = split_order(shard_ids[order], len(arrivals))
    if np.any(counts < quota):
        order = rng.permutation(size)
        grouped, counts, offsets = split_order(shard_ids[order], len(arrivals))
    rank = np.arange(len(order)) - np.repeat(offsets[:-1], counts)
    return order[grouped[rank < np.repeat(quota, counts)]]


class SamplerService:
    """Routes keyed sub-streams to per-shard samplers with exact restore.

    Parameters
    ----------
    sampler_factory:
        Callable receiving the shard's private RNG and returning a fresh
        :class:`~repro.core.base.Sampler`, e.g.
        ``lambda rng: RTBS(n=10_000, lambda_=0.07, rng=rng)``. Each call
        receives its own copy of the shard's reserved stream, and the
        service calls it again for a shard with no data each time the shards
        are re-attached (after a close or a failover), so it must build the
        same sampler from the same stream. The sampler class must implement
        the snapshot protocol for the service to be checkpointable.
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
        (``"serial"`` or ``"process[:N]"``), or ``None``
        for serial. The backend changes *where* shard updates execute,
        never *what* they compute — samples are bit-identical across
        backends for a fixed seed. The service owns the executor's worker
        lifecycle: one pool is reused across every ingest call, and
        :meth:`close` (or the context manager) releases it.
    wal_dir:
        Enable durability: every ingested batch is appended to a
        write-ahead log in this directory *before* dispatch, and
        :meth:`checkpoint` starts a fresh log whose first record is the
        checkpoint. After a crash,
        :func:`~repro.service.wal.recover_service` rebuilds the service
        bit-identically from the last checkpoint plus log replay. The
        directory must be empty (or new); a directory holding a previous
        deployment's log is refused — recover it instead. A WAL-enabled
        service should not share its executor's worker pool with other
        services (the acknowledgement watermark is pool-wide).
    wal_fsync:
        Log flush policy: ``"os"`` (default) flushes every batch to the OS
        page cache — durable against process crash; ``"always"`` fsyncs
        every batch — durable against power loss, at a large latency cost;
        ``"none"`` hands records to the page cache but promises
        durability only at ``flush()``/checkpoint/close — fastest, replay
        lag bounded by the last flush.
    replication:
        Optional :class:`~repro.service.replication.ReplicationConfig`
        enabling a warm standby: a driver-side base cut of every shard,
        taken at construction (or recovery) and retaken at every paired
        checkpoint, plus the committed WAL beyond it. A
        :class:`~repro.engine.errors.WorkerCrashError` (or a failed health
        probe) promotes the standby *in place* — the base is rebuilt, the
        committed log tail beyond it is replayed, and pipelined ingest
        resumes on a fresh worker pool without dropping a batch;
        post-failover trajectories are bit-identical to an uninterrupted
        run. Requires ``wal_dir`` (the
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
        #: Seeds the per-batch plan streams (``default_rng([tag, key, seq])``)
        #: the driver draws R-TBS shards' acceptances from; checkpointed.
        self._plan_key = _derive_plan_key(self._rng)
        #: The driver's samplers of the active shards. While the shards are
        #: attached the host holds the live ones and these date from the
        #: attach (the in-process host adopts these very objects); detach,
        #: failover, restore and reshard each set them anew.
        self._shards: dict[int, Sampler] = {}
        self._time: float = 0.0
        self._batches_seen: int = 0
        #: Whether any batch was ever routed on caller-supplied explicit
        #: keys. Explicit keys are not a function of the payload, so a
        #: service that used them (and has no ``key_fn``) cannot recompute
        #: retained items' keys — which :meth:`reshard` needs.
        self._explicit_keys_used = False
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
        #: The driver's mirror of every R-TBS shard's scalars (``None`` for
        #: other samplers), advanced by :func:`~repro.core.rtbs.rtbs_step`
        #: as each batch commits. ``None`` until first needed, and again
        #: after every event that replaces shard state wholesale (restore,
        #: failover, reshard): it is then rebuilt from the driver's
        #: samplers, which those events leave authoritative.
        self._mirrors: dict[int, RTBSPlanState | None] | None = None
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
        #: Shards that have received at least one item: the keys of
        #: ``_shards`` while detached, fed by the host's acknowledgements
        #: while attached.
        self._activated: set[int] = set(self._shards)
        #: Whether the shards live on the executor's host (see
        #: :meth:`_attach_all_shards`).
        self._attached = False
        #: The write-ahead log, when durability is enabled (``wal_dir=`` at
        #: construction, or attached by ``recover_service``).
        self._wal: WriteAheadLog | None = None
        #: Warm-standby replication state (config + replica + failure
        #: detector), or ``None`` when replication is off.
        self._replication: ReplicationRuntime | None = None
        #: Wall time per ingest phase and the batches it covers, since
        #: construction or restore. The key set is fixed here, so
        #: :meth:`stats` reads the dict without the lock.
        self._phase_seconds = dict.fromkeys(_PHASES, 0.0)
        self._phase_batches = 0
        #: Time of the windows run in the calling thread (see _phase_clock).
        self._inline_seconds = 0.0
        #: Samplers the plan built for shards with no data, for the attach.
        self._pristine: dict[int, Sampler] = {}
        #: The command the open ingest window's staged frames are sent as.
        #: Held only while a window is open: its callback references the
        #: service, and a lasting cycle would keep closed services alive.
        self._window_task: WindowTask | None = None

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
        still in flight on the shard host are included without a drain.
        """
        return self.snapshot(include_items=False).active_shards

    def shard(self, shard_id: int) -> Sampler:
        """The sampler behind one *active* shard — a pure read.

        Raises ``KeyError`` for a shard that has not received any items yet:
        inspecting an idle shard must not create its sampler (that would
        grow :attr:`active_shards` and every subsequent checkpoint as a side
        effect of monitoring). The returned sampler is a copy, rebuilt from
        the shard's snapshot at its current pipeline position — no
        ``drain()`` barrier, other workers keep ingesting — so changing it
        leaves the service as it was.
        """
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(
                f"shard id {shard_id} out of range for {self.num_shards} shards"
            )
        with self._lock:
            state = None
            if self._attached:
                try:
                    state = self._executor.host.snapshot(
                        self._shard_key(shard_id), snapshot_sampler
                    )
                except WorkerCrashError as error:
                    self._failover(error)
            if state is None and shard_id in self._shards:
                state = self._shards[shard_id].state_dict()
            # Attached, a shard with no data yet is a pristine standby: the
            # next batch may route to it, but it is not part of the active
            # set.
            if state is None or state["batches_seen"] == 0:
                raise KeyError(
                    f"shard {shard_id} has no sampler yet (no items routed to it); "
                    f"active shards: {sorted(self._activated)}"
                )
            return Sampler.from_state_dict(state)

    def _get_or_create_shard(self, shard_id: int) -> Sampler:
        """The sampler behind one shard, created lazily on first arrival."""
        sampler = self._shards.get(shard_id)
        if sampler is None:
            sampler = self._build_shard(shard_id)
            self._shards[shard_id] = sampler
            self._activated.add(shard_id)
        return sampler

    def _build_shard(self, shard_id: int) -> Sampler:
        """A fresh sampler for one shard, built on a copy of its reserved stream.

        Every factory call gets its own copy, so the reserved streams
        change only on reshard and each call for a shard builds the same
        sampler.
        """
        return build_shard_sampler(
            self._factory, generator_state(self._shard_rngs[shard_id])
        )

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
        shards, draws no randomness, and never blocks dispatch: a snapshot
        marker is enqueued on the shard host behind every batch dispatched
        so far (on the process backend into each worker's FIFO command
        pipe), the host publishes copy-on-write views at that batch
        boundary, and ingest of later batches proceeds underneath — there
        is no ``drain()`` barrier. Detached shards are read from the
        driver's samplers directly (writes are serialized against capture
        by the service lock).

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
        # exclusion. While the cached cut is within the bound, readers
        # polling at 100+ Hz never queue behind an in-flight ingest window
        # or flush barrier; once it is not, the read takes the lock and
        # waits for the window to end (``ingest(window=...)`` bounds that).
        cached = self._snapshot_cache
        if self._serves(cached, max_staleness_batches, include_items, include_state):
            return cached
        with self._lock:
            cached = self._snapshot_cache
            if self._serves(
                cached, max_staleness_batches, include_items, include_state
            ):
                return cached
            if self._attached:
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
        ``"transport"`` is ``None`` on the serial backend; on the process
        backend it lists each worker's ring capacity (``ring_bytes``) and
        the furthest offset within a ring half any frame has reached
        (``ring_high_water_bytes``), read without a worker round-trip
        (``[]`` while no worker pool runs). ``"profile"`` holds the ingest
        phase timers, whose schema ``docs/CONTRACTS.md`` gives.
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
                checkpoint_watermark=self._wal.watermark,
                replay_lag_batches=self._batches_seen - 1 - self._wal.watermark,
                acked_batches=self.acked_batches,
            )
        rt = self._replication
        durability["replication"] = (
            None
            if rt is None
            else {
                "standby_base_seq": rt.replica.base_seq,
                "standby_lag_batches": rt.replica.lag(self._batches_seen - 1),
                "failovers": rt.failovers,
                "failure_detection": (
                    "liveness+ack-staleness"
                    if rt.config.clock is not None
                    else "liveness"
                ),
            }
        )
        return {
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
            "transport": (
                self._executor.ring_usage()
                if self._executor.provides_transport
                else None
            ),
            "shards": shards,
            "profile": {
                "batches": self._phase_batches,
                "seconds": dict(self._phase_seconds),
            },
        }

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

    def _dispatch(self) -> None:
        """End an ingest window: send the host's staged window.

        On the process backend each worker's window goes out as one
        command; the in-process host runs its window in the calling thread.
        Either way each shard takes one ``ingest_stream`` call over its
        sub-batches (contiguous slices of the per-batch gather in
        :meth:`_ingest_step`), their arrival times and arrival counts.
        """
        self._window_task = None
        if self._attached:
            self._call_host("dispatch", self._executor.host.send_staged)

    def _ingest_step(
        self,
        batch: np.ndarray,
        keys: Sequence[Any] | np.ndarray | None,
        time: float | None,
    ) -> np.ndarray | None:
        """Route, plan, log, commit, then stage one batch (lock held).

        The one per-batch step of every backend. Keys and the arrival time
        are validated first, and nothing changes until the WAL holds the
        batch: the service clock, ``batches_seen`` and the plan mirrors
        advance only after the batch's log record lands, so a rejected
        batch or a failed append (a full disk) leaves the service as it was
        and the same batch can be retried. The plan's one gather of the
        accepted rows yields the per-shard sub-batches: the WAL records them
        (so log replay matches the live run bit for bit) and the shard host
        stages them, handing them to the shards at the window's end
        (:meth:`_dispatch`). Returns the items routed to each shard,
        ``None`` for an empty batch.
        """
        shard_ids, explicit = self._route(batch, keys)
        time, _ = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        seq = self._batches_seen
        plan = None
        sub_batches: list[tuple[int, np.ndarray, int | None]] = []
        if shard_ids is not None:
            begin = self._phase_clock()
            plan = self._plan_batch(batch, shard_ids, time, seq)
            sub_batches = plan.sub_batches()
            self._note_phase("split", begin)
        explicit = explicit or self._explicit_keys_used
        if self._wal is not None:
            if self._wal.num_shards != self.num_shards:
                raise WALError(
                    f"the log still holds the {self._wal.num_shards}-shard "
                    "layout: the checkpoint of a reshard failed; call "
                    "checkpoint() to install the new layout's log first"
                )
            begin = self._phase_clock()
            self._wal.append_batch(seq, time, sub_batches, explicit)
            self._note_phase("wal", begin)
        # Committed: the batch is the service's from here on.
        self._time = time
        self._batches_seen = seq + 1
        self._phase_batches += 1
        if explicit:
            # Recorded only once the keys actually routed items: a rejected
            # ingest (unroutable key types, length mismatch) must not
            # poison the service's ability to reshard.
            self._explicit_keys_used = True
        if plan is None:
            return None
        self._mirrors.update(plan.mirrors)
        try:
            self._stage_planned(plan.rows, sub_batches, time)
        except WorkerCrashError as error:
            # The batch is already committed to the WAL, so the promotion's
            # log replay delivers it (and every staged batch before it) to
            # the promoted samplers.
            self._failover(error)
        return plan.arrivals

    def _plan_mirrors(self) -> dict[int, RTBSPlanState | None]:
        """The plan mirrors, rebuilt from the driver's samplers when stale.

        An active shard is read from its sampler; a shard that has seen no
        data from the sampler it will start as (:meth:`_build_shard`), which
        the next attach then hosts. A factory that builds no sampler is
        refused here, before the batch reaches the log.
        """
        if self._mirrors is None:
            mirrors: dict[int, RTBSPlanState | None] = {}
            for shard_id in range(self.num_shards):
                if shard_id in self._activated:
                    sampler = self._shards[shard_id]
                else:
                    sampler = self._pristine[shard_id] = self._build_shard(shard_id)
                mirrors[shard_id] = (
                    sampler.plan_state() if isinstance(sampler, RTBS) else None
                )
            self._mirrors = mirrors
        return self._mirrors

    def _plan_batch(
        self, batch: np.ndarray, shard_ids: np.ndarray, time: float, seq: int
    ) -> _PlannedBatch:
        """Decide which rows of one routed batch each shard accepts.

        Every R-TBS shard's mirror steps over its arrival count. A shard in
        a thinning branch accepts ``StochRound(B n / W)`` of its ``B``
        arrivals, drawn — count first, in ascending shard order, then the
        positions — from the batch's plan stream, ``default_rng([tag, plan
        key, seq])``: a function of the batch's place in the stream only,
        so every backend, window and replay plans alike. Every other shard
        accepts all its arrivals. Only the accepted rows are grouped and
        gathered.
        """
        num_shards = self.num_shards
        mirrors = self._plan_mirrors()
        arrivals = np.bincount(shard_ids, minlength=num_shards)
        updates: dict[int, RTBSPlanState] = {}
        thinned: dict[int, int] = {}
        plan_rng: np.random.Generator | None = None
        for shard_id in np.flatnonzero(arrivals).tolist():
            mirror = mirrors[shard_id]
            if mirror is None:
                continue
            count = int(arrivals[shard_id])
            step = rtbs_step(
                mirror.total_weight,
                mirror.sample_weight,
                mirror.n,
                mirror.lambda_,
                time - mirror.time,
                count,
            )
            accepted = count
            if step.thinned:
                if plan_rng is None:
                    plan_rng = np.random.default_rng([_PLAN_TAG, self._plan_key, seq])
                accepted = step.acceptance(plan_rng, count, mirror.n)
                thinned[shard_id] = accepted
            updates[shard_id] = mirror._replace(
                total_weight=step.total_weight,
                sample_weight=step.settled_weight(accepted, mirror.n),
                time=time,
            )
        if plan_rng is None:
            order, _, offsets = split_order(shard_ids, num_shards)
            return _PlannedBatch(batch[order], offsets, arrivals, updates)
        accepted_rows = _choose_accepted(plan_rng, shard_ids, arrivals, thinned)
        if len(thinned) < np.count_nonzero(arrivals):
            # Shards taking every arrival alongside thinned ones (the
            # sample is still filling somewhere): keep all their rows too.
            keep_all = arrivals > 0
            keep_all[list(thinned)] = False
            accepted_rows = np.concatenate(
                [accepted_rows, np.flatnonzero(keep_all[shard_ids])]
            )
        accepted_rows.sort()
        order, _, offsets = split_order(shard_ids[accepted_rows], num_shards)
        return _PlannedBatch(batch[accepted_rows[order]], offsets, arrivals, updates)

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
        shard has ingested it: on the process backend it waits for the
        workers (failing over if one died). The counts come from the
        batch's routing, so they are the same on every backend, failover
        included.

        Routing is validated *before* the service clock advances: a batch
        rejected for bad keys leaves the clock untouched, so the corrected
        call can be retried with the same arrival time.
        """
        batch = as_item_array(items)
        with self._lock:
            arrivals = self._ingest_step(batch, keys, time)
            counts: dict[int, int] = {}
            if arrivals is not None:
                self._dispatch()
                self._drain_transport_safely()
                counts = {
                    shard_id: int(count)
                    for shard_id, count in enumerate(arrivals)
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
        on the union of the shard samples while the shards ingest on the
        executor's host.
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
        """Bulk-ingest many batches through the per-shard ``ingest_stream`` hot path.

        Every batch takes the same per-batch step as in :meth:`ingest_batch`
        (route, clock, WAL append, stage). The routed sub-batches collect
        into one sub-stream (batches + arrival times) per shard; every
        ``window`` batches, each shard ingests its sub-stream in a single
        :meth:`~repro.core.base.Sampler.ingest_stream` call. That keeps the
        per-shard amortization of bulk ingest while bounding buffered memory
        to O(``window`` × batch size) — a generator of a million batches
        streams through, it is never materialized whole.

        The serial backend's host holds the sub-batches and runs the window
        in the calling thread. The process backend copies each worker's
        runs into its double-buffered shared-memory ring as each batch is
        logged and sends the window as one pipelined command per worker; a
        window that outgrows a ring half is sent in several commands, and a
        full ring blocks until the worker catches up. The call returns as
        soon as the last window is sent — routing of the next window
        overlaps worker ingest of the previous one. Call :meth:`flush` to
        wait for the workers; reads need not, they take snapshot cuts.

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
            Number of batches per window on every backend; the last window
            ends with the call (or at a failing batch). The lock is held
            for a whole window, so ``window`` also bounds how long a read
            that the cached cut cannot serve waits.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        key_iter = iter(keys) if keys is not None else None
        time_iter = iter(times) if times is not None else None
        buffered = 0
        # Snapshot consistency: a cut must never observe an advanced service
        # clock whose batches have not reached the shards yet. The lock is
        # held from a window's first batch until its flush, so readers see
        # cuts only at window boundaries, where clock and shard state agree.
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
            self._dispatch()
            buffered = 0
            # A promotion replays every logged batch, so the failure probe
            # runs only once the buffered batches are dispatched.
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
                self._ingest_step(items, batch_keys, time)
                buffered += 1
                if buffered >= window:
                    flush()
                    release()
        finally:
            # Deliver every batch routed so far. After a failure, the
            # observable state is "everything before the bad batch was
            # ingested": the same semantics as a per-batch ingest loop.
            acquire()
            try:
                flush()
            finally:
                release()

    def flush(self) -> None:
        """Barrier: wait until every enqueued batch has been ingested.

        A no-op on the serial backend, whose ingest calls are synchronous.
        With a WAL, the log is also flushed — to the OS page cache (and to
        disk under the ``"always"`` policy), making everything logged so
        far durable under the configured policy.
        """
        with self._lock:
            self._drain_transport_safely()
            if self._wal is not None:
                self._wal.flush()

    # ------------------------------------------------------------------
    # durability (write-ahead log + paired checkpoint)
    # ------------------------------------------------------------------
    @property
    def wal_dir(self) -> str | None:
        """The write-ahead log directory, or ``None`` when durability is off."""
        return self._wal.directory if self._wal is not None else None

    @property
    def acked_batches(self) -> int:
        """Number of leading batches fully acknowledged by the backend.

        With a WAL, each batch is staged on the shard host tagged with its
        sequence number, and this property reads the host's
        acknowledgement watermark — on the process backend, batches beyond
        it are in flight (or lost with a crashed worker) and recovery
        replays them from the log rather than trusting the pipeline. On the
        serial backend, whose windows run as they are sent, it equals
        :attr:`batches_seen` at every window's end; so it does whenever the
        shards are detached.
        """
        if self._wal is not None and self._attached:
            acked = self._executor.host.acked_through()
            if acked is not None:
                return acked + 1
        return self._batches_seen

    def checkpoint(self, directory: str | os.PathLike | None = None) -> None:
        """Checkpoint the service.

        With no ``directory`` the WAL's paired checkpoint is written: the
        log is replaced by a fresh segment whose first record is the
        checkpoint, so recovery replay is bounded by the data that arrives
        after this call. An explicit ``directory`` receives a classic
        directory checkpoint (:func:`~repro.service.checkpoint.save_service`,
        restored by :func:`~repro.service.checkpoint.load_service`) and the
        WAL is left untouched.

        Both serialize from a committed-watermark snapshot cut
        (:meth:`snapshot` with ``include_state=True``) rather than draining
        the pipeline: shard states are published at the cut's batch
        boundary while ingest of later batches proceeds underneath. Both
        are atomic: a crash or an I/O error mid-save leaves the previous
        checkpoint (and its log) as it was.
        """
        from repro.service.checkpoint import save_service, save_service_delta

        if directory is not None:
            save_service(self, directory)
            return
        if self._wal is None:
            raise ValueError(
                "checkpoint() without a directory writes the WAL's paired "
                "checkpoint, but this service has no WAL; pass a directory "
                "or construct the service with wal_dir="
            )
        with self._lock:
            cut = self.snapshot(include_items=False, include_state=True)
            shard_states = {
                shard_id: cut.views[shard_id].state
                for shard_id in sorted(cut.views)
            }
            save_service_delta(
                self._scalar_state(), shard_states, self._wal, cut.watermark
            )
            if self._replication is not None:
                # The new segment holds no batch at or below the cut, and
                # promotion replays from the standby's base: the base moves
                # up to this very cut.
                self._replication.replica = ShardReplicaSet.capture(self, cut)

    # ------------------------------------------------------------------
    # shard host dispatch
    # ------------------------------------------------------------------
    def _phase_clock(self) -> float:
        """``perf_counter`` stopped while a window runs in the calling thread.

        A dispatch or ack that runs a window so leaves its time to
        ``worker_ingest``, and no two phases overlap.
        """
        return perf_counter() - self._inline_seconds

    def _note_phase(self, phase: str, begin: float) -> None:
        """Add the phase-clock time since ``begin`` to ``phase``."""
        self._phase_seconds[phase] += self._phase_clock() - begin

    def _shard_key(self, shard_id: int) -> tuple:
        return ("svc", self._service_id, shard_id)

    def _attach_all_shards(self) -> None:
        """Put every shard's sampler on the executor's shard host.

        The in-process host adopts the driver's samplers as they are; the
        process backend ships their snapshots, shard ``k`` to worker
        ``k % num_workers``. Shards with no data yet are built by the
        factory now (any shard may receive items the moment the next batch
        is routed) — but they only count as *active*, and only appear in
        checkpoints, once the host reports items for them. The factory
        receives a copy of shard ``k``'s reserved stream
        (:meth:`_build_shard`), unless the plan already built the sampler.
        """
        host = self._executor.host
        pristine, self._pristine = self._pristine, {}
        for shard_id in range(self.num_shards):
            sampler = self._shards.get(shard_id, pristine.get(shard_id))
            if sampler is None:
                sampler = self._build_shard(shard_id)
            host.adopt(
                self._shard_key(shard_id),
                sampler,
                shard_id,
                snapshot_sampler,
                restore_sampler,
            )
        self._attached = True

    def _on_window_result(self, result: Any) -> None:
        """Acknowledgement callback of an ingest window: note its shards and its time."""
        counts, seconds = result
        self._phase_seconds["worker_ingest"] += seconds
        if not self._executor.provides_transport:
            # The window ran in the calling thread, inside another phase.
            self._inline_seconds += seconds
        self._activated.update(counts)

    def _stage_planned(
        self,
        rows: np.ndarray,
        sub_batches: list[tuple[int, np.ndarray, int | None]],
        time: float,
    ) -> None:
        """Stage one planned batch's per-shard sub-batches in the host's window.

        ``rows`` holds the accepted rows grouped by shard and
        ``sub_batches`` the receiving shards' slices of it (see
        :meth:`_PlannedBatch.sub_batches`), so each shard's rows are one
        contiguous run: the process backend copies each worker's runs into
        its ring, and the in-process host keeps the slices. The shards never
        re-hash. A shard that accepted none of its arrivals gets an empty
        sub-batch: it still has to decay and count them.
        """
        if not self._attached:
            self._attach_all_shards()
        if self._window_task is None:
            self._window_task = WindowTask(
                service_ingest_window,
                {"service_id": self._service_id},
                self._on_window_result,
            )
        begin = self._phase_clock()
        # With a WAL, each staged batch carries its global sequence number
        # into the host's acknowledgement watermark (`acked_through`): after
        # a worker crash, it tells recovery exactly which batches never
        # landed. Workers that received no items are safely skipped.
        tag = self._batches_seen - 1 if self._wal is not None else None
        self._executor.host.stage_shards(
            self._window_task, rows, sub_batches, time, tag=tag
        )
        self._note_phase("dispatch", begin)

    def _collect_transport_views(
        self, include_items: bool, include_state: bool
    ) -> dict[int, SamplerSnapshotView]:
        """Take the committed-watermark cut from the hosted shards.

        Enqueues one snapshot marker per worker behind every batch
        dispatched so far (:meth:`ShardWorkerPool.snapshot_async`; the
        in-process host takes the cut at once), then collects the
        per-worker view dicts. The collect waits only for the
        marker acknowledgements — batch acks en route are processed as
        ordinary ack-side frames — so the pipeline is never drained and
        commands enqueued after the markers stay in flight. Workers
        enumerate *all* their resident shards of this service (skipping
        pristine standbys), so shards activated by still-unacknowledged
        batches are part of the cut.
        """
        host = self._executor.host
        try:
            markers = host.snapshot_async(
                service_snapshot_views,
                kwargs={
                    "service_id": self._service_id,
                    "include_items": include_items,
                    "include_state": include_state,
                },
            )
            views: dict[int, SamplerSnapshotView] = {}
            for worker_views in host.collect(markers):
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

    def _replication_tick(self) -> None:
        """Per-window failure probe of the workers; a failed pool fails over.

        Runs once per ingest window on every backend, *after* the window's
        batches are committed and dispatched — never between commit and
        dispatch, where a promotion would replay a batch into the promoted
        samplers and the still-pending dispatch would then double-apply
        it. The standby's base does not move here: only a paired
        :meth:`checkpoint` retakes it.
        """
        rt = self._replication
        if rt is None:
            return
        if self._attached and self._executor.provides_transport:
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
        if self._attached:
            self._call_host("ack", self._executor.host.drain)

    def _call_host(self, phase: str, call: Callable[[], None]) -> None:
        """Run one host call timed as ``phase``; a worker crash fails over."""
        begin = self._phase_clock()
        try:
            call()
        except WorkerCrashError as error:
            self._failover(error)
        finally:
            self._note_phase(phase, begin)

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
        # 1. Condemn the host. Surviving workers hold shards at
        # indeterminate pipeline positions; none of that state is salvaged
        # — the log is the authority. Releasing the host discards every
        # staged, unsent window too: the replay below covers its batches,
        # so sending it would double-apply them. shutdown() leaves the
        # executor usable: the next batch lazily creates a fresh host and
        # re-attaches the promoted shards.
        self._attached = False
        # Cached cuts may reference the condemned pool's shard states.
        self._snapshot_cache = None
        self._executor.shutdown()
        # 2. Rebuild the base, replay the log through the last committed
        # batch, then promote the samplers in place. The reserved RNG
        # streams never moved, so they need no reconciling. The base stays:
        # it describes this same trajectory.
        committed = self._batches_seen - 1
        rt.replica.catch_up(committed)
        samplers = rt.replica.promote()
        self._shards = samplers
        self._activated = set(samplers)
        self._mirrors = None
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
        ``True``. The serial backend (and a detached pool) always reports
        healthy — there are no worker processes to lose. The process
        backend also reports ``worker_memory``: each worker's resident and
        peak memory in bytes (``[]`` while no pool runs). It reads
        ``/proc`` per worker, which is why it is here and not in
        :meth:`stats`.
        """
        with self._lock:
            report: dict[str, Any] = {
                "backend": self._executor.name,
                "failed_over": False,
            }
            if not self._executor.provides_transport:
                return report
            report["worker_memory"] = self._executor.worker_memory()
            if not self._attached:
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
    ) -> tuple[np.ndarray | None, bool]:
        """Hash one batch's keys: ``(shard ids, whether keys were explicit)``.

        Every key is hashed — each shard's arrival count is part of its
        decay bookkeeping, accepted items or not. Raises on malformed keys
        *before* the caller changes any state; the ids are ``None`` for an
        empty batch.
        """
        keys = self._coerce_keys(keys, batch)
        explicit = keys is not None
        if not len(batch):
            return None, False
        if keys is None:
            if self.key_fn is not None:
                keys = [self.key_fn(item) for item in batch]
            else:
                keys = batch
        begin = self._phase_clock()
        if isinstance(keys, np.ndarray) and keys.ndim == 1 and keys.dtype.kind in "iubf":
            shard_ids = _numeric_shard_ids(keys, self.num_shards)
        else:
            shard_ids = shard_ids_for_keys(keys, self.num_shards, self._routing_version)
        self._note_phase("hash", begin)
        return shard_ids, explicit

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
        ``key_fn``). Without one, explicit keys are unrecoverable.
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

        Mechanics: the ingest pipeline is drained and the shards detached
        from the executor's host (the next ingest re-attaches them under
        the new layout); every active shard is synchronized to the service
        clock (an empty batch at the current time, so idle shards decay by
        their full gap before their items move); the per-sampler
        split/merge primitives (:mod:`repro.core.resharding`) re-partition
        the synchronized shards; and fresh per-shard RNG streams for the
        new layout are spawned deterministically from the master RNG. The
        whole operation runs driver-side, so it is bit-identical across
        serial/process backends and through checkpoint/restore.

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
        (the keys were never a function of the payload). Mixing explicit
        keys *with* a ``key_fn`` is supported under the contract that the
        explicit keys are a precomputed cache of ``key_fn(item)`` —
        resharding re-routes on ``key_fn``, so keys that disagreed with it
        would already have been routed inconsistently at ingest time. A
        same-count reshard with no new factory is a no-op.
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
        factory = self._factory if sampler_factory is None else sampler_factory
        # A factory that builds no sampler is refused now, not once a shard
        # of the new layout first needs one; so is one that builds another
        # class than the active shards' (a new one, or one a restore was
        # given), whose samplers cannot absorb their retained state.
        probe = build_shard_sampler(factory, generator_state(self._shard_rngs[0]))
        active = self.active_shards
        if active:
            current = type(self.shard(active[0]))
            if type(probe) is not current:
                raise TypeError(
                    f"sampler_factory builds {type(probe).__name__}, but the "
                    f"active shards are {current.__name__}; a reshard moves "
                    "retained state between samplers of one class"
                )
        if self._attached:
            # Drain + detach: the driver's samplers become authoritative and
            # the next ingest re-attaches them under the new layout.
            try:
                self._detach_all_shards()
            except WorkerCrashError as error:
                # The old layout's log still holds every batch beyond the
                # standby's base, so promotion loses nothing; the reshard
                # proceeds on the promoted samplers.
                self._failover(error)
        # Bring every active shard to the service clock so the split sees
        # fully decayed bookkeeping (idle shards decay by their whole gap).
        for shard_id in sorted(self._activated):
            sampler = self._shards[shard_id]
            if sampler.time < self._time:
                sampler.process_batch([], time=self._time)

        new_rngs = spawn_rngs(self._rng, new_count)

        def make_sampler(shard_id: int) -> Sampler:
            return build_shard_sampler(factory, generator_state(new_rngs[shard_id]))

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

        self._factory = factory
        self.num_shards = new_count
        self._routing_version = int(ROUTING_VERSION)
        self._shard_rngs = new_rngs
        self._shards = new_shards
        self._activated = set(new_shards)
        self._mirrors = None
        self._pristine = {}
        # Cached cuts describe the old layout (shard ids, num_shards).
        self._snapshot_cache = None
        if self._wal is not None:
            # One swap replaces the old layout's log (its checkpoint and
            # every batch since, keyed by the old shard ids) with a log for
            # the new layout whose base is the re-homed state: a crash on
            # either side of it recovers a whole deployment. The checkpoint
            # also makes the re-homed state the standby's base.
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
        they would have received; they change only on reshard), and one
        sampler snapshot per active shard. Contains only plain containers
        and NumPy arrays. It serializes from the same state-bearing
        snapshot cut as :meth:`checkpoint`, so on the process backend a
        snapshot taken mid-stream is exact and bit-identical to the serial
        backend's without draining the pipeline.
        """
        with self._lock:
            cut = self.snapshot(include_items=False, include_state=True)
            return {
                **self._scalar_state(),
                "shards": {
                    str(shard_id): cut.views[shard_id].state
                    for shard_id in sorted(cut.views)
                },
            }

    def _scalar_state(self) -> dict[str, Any]:
        """The service-level half of :meth:`state_dict` (everything but shards).

        The paired checkpoint takes it next to the cut's per-shard sampler
        snapshots. A pure read of driver-side scalars; each active shard's
        own generator travels in its sampler snapshot.
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
            # *instance* version is persisted, not the build's.
            "routing_version": self._routing_version,
            "explicit_keys_used": self._explicit_keys_used,
            # The draws a fixed seed's trajectory is made of, and the key
            # of the plan streams the driver draws acceptances from.
            "sampling_version": SAMPLING_VERSION,
            "plan_key": self._plan_key,
            "time": float(self._time),
            "batches_seen": int(self._batches_seen),
            "rng_state": generator_state(self._rng),
            "shard_rng_states": [generator_state(rng) for rng in self._shard_rngs],
        }

    def _detach_all_shards(self) -> None:
        """Drain the pipeline and take every shard back from the host.

        After this the driver's samplers are authoritative again and the
        host holds no state for this service — the precondition for both
        :meth:`close` (which then releases the host) and :meth:`reshard`
        (which re-partitions driver-side; the next ingest re-attaches the
        shards under the new layout). The in-process host hands back the
        live samplers; the process backend rebuilds them from snapshots.
        """
        host = self._executor.host
        host.drain()
        for shard_id in range(self.num_shards):
            key = self._shard_key(shard_id)
            if shard_id in self._activated:
                self._shards[shard_id] = host.release(
                    key, snapshot_sampler, restore_sampler
                )
            else:
                host.detach(key, None)
        self._attached = False

    def close(self) -> None:
        """Detach the shards and release the executor's shard host and workers.

        The service owns its executor lifecycle: one shard host (on the
        process backend, one worker pool) serves every ingest call, and
        ``close`` (or leaving the ``with`` block) ends it. The shards are
        taken back first, so the service and its samplers stay fully
        queryable afterwards — and a later ingest transparently re-attaches
        them (and respawns workers). (If several services share one
        executor, closing any of them releases the shared host; close the
        services together.)

        ``close`` is idempotent, including after a worker crash: a second
        call finds the shards detached and the pool torn down, closes
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
            if self._attached:
                try:
                    self._detach_all_shards()
                except WorkerCrashError as error:
                    self._attached = False
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
                        # still closes the log handle, so the log is
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
                    self._attached = False
                    self._executor.shutdown()
                    raise
                finally:
                    self._attached = False
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
        under (``routing_version``), and a snapshot missing any recorded
        field is refused. Any supported version restores with its exact
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
        for field in ("routing_version", "explicit_keys_used", "sampling_version", "plan_key"):
            if field not in state:
                raise ValueError(
                    f"service snapshot has no {field!r}; this build restores "
                    "only snapshots that record it"
                )
        # Every version in SUPPORTED_ROUTING_VERSIONS restores exactly (the
        # build keeps the old per-key hashing alongside the current one); a
        # snapshot from an *unknown* encoding cannot: its key→shard map is
        # not reproducible here.
        routing_version = int(state["routing_version"])
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
        service._rng = generator_from_state(state["rng_state"])
        if state["sampling_version"] != SAMPLING_VERSION:
            raise ValueError(
                f"checkpoint was sampled under unsupported sampling version "
                f"{state['sampling_version']!r}; this build reads {SAMPLING_VERSION}"
            )
        if not isinstance(state["explicit_keys_used"], bool):
            raise ValueError(
                f"service snapshot's 'explicit_keys_used' must be a bool, got "
                f"{state['explicit_keys_used']!r}"
            )
        service._plan_key = int(state["plan_key"])
        shard_rng_states = state["shard_rng_states"]
        if len(shard_rng_states) != service.num_shards:
            raise ValueError(
                f"snapshot holds {len(shard_rng_states)} shard RNG streams "
                f"for {service.num_shards} shards"
            )
        service._shard_rngs = [generator_from_state(s) for s in shard_rng_states]
        service._time = float(state["time"])
        service._batches_seen = int(state["batches_seen"])
        service._explicit_keys_used = state["explicit_keys_used"]
        service._shards = {
            int(shard_id): Sampler.from_state_dict(sampler_state)
            for shard_id, sampler_state in state["shards"].items()
        }
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
        are not a function of the payload (explicit keys were used): there
        is nothing to recompute, and :meth:`reshard` already refuses those
        layouts.
        """
        if self._explicit_keys_used:
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
