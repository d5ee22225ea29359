"""Warm-standby shard replicas: a base cut plus the log, and supervised failover.

A WAL-enabled :class:`~repro.service.service.SamplerService` already
recovers bit-identically after a crash — but *offline*: a
:class:`~repro.engine.errors.WorkerCrashError` stops ingestion until
someone restarts the process and calls
:func:`~repro.service.wal.recover_service`. This module keeps the service
*serving through* the crash. Three pieces:

* :class:`ShardReplicaSet` — the warm standby, kept as a *base* (the
  per-shard states of a committed-watermark snapshot cut, plus the
  reserved RNG states of the shards the cut holds no state for) and the
  committed log beyond it.
  The service takes the base when replication starts (construction or
  recovery) and retakes it only at every paired checkpoint; the standby
  does no per-batch work. Promotion
  rebuilds the samplers from the base and replays ``(base, committed]``
  once through :meth:`~repro.service.wal.WriteAheadLog.collect_replay` —
  the reader, and the checkpoint-plus-replay argument, of offline
  recovery. The operator's checkpoint cadence bounds that replay, as it
  bounds offline recovery's.
* :class:`FailureDetector` — declares the worker pool failed from two
  passive signals: process liveness (the driver-side mirror of the
  workers' orphan watchdog) and acknowledgement staleness (the pool's ack
  watermark stopped moving while commands stayed pending). Staleness needs
  a notion of elapsed time; the clock is **injected** via
  :class:`ReplicationConfig` — this module never reads the wall clock
  itself, keeping the failover path inside the determinism contract.
* :class:`ReplicationConfig` / :class:`ReplicationRuntime` — the
  deployment knobs (``SamplerService(replication=...)``) and the live
  state the service carries alongside them.

Why promotion is safe (the watermark argument)
----------------------------------------------

``append_batch`` completes — the batch's one log record, whose frame is
its commit point — *before* it is dispatched to any worker. So every batch
the driver has ever observed as ingested is durably committed in the log,
no matter how far the pipelined workers got with it. Failover therefore
never salvages worker state: the pool is discarded wholesale, the base is
rebuilt and the committed tail ``(base, committed]`` replayed into it, and
the promoted samplers are bit-identical to an uninterrupted run through
the last committed batch — independent of *when* the failure was
detected, with no batch dropped and none double-applied. The base stays
valid across a promotion (the promoted trajectory is the same one), so a
second failure before the next checkpoint promotes from it again. Truncation
must never drop a frame the base still needs: a paired checkpoint adopts
its own cut as the base *before* it truncates the log.

RNG rule
--------

Every factory call gets a fresh copy of the shard's reserved stream, and
reserved streams change only on reshard — so a shard active in the base is
rebuilt from its cut state (which embeds its generator), and any other
shard's factory gets a copy of its reserved state on its first replayed
frame, exactly as the primary's did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.base import Sampler
from repro.core.random_utils import generator_state
from repro.engine.errors import FailoverError
from repro.engine.shards import build_shard_sampler
from repro.service.wal import WALError, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.transport import ShardWorkerPool
    from repro.service.service import SamplerService, ServiceSnapshot

__all__ = [
    "ReplicationConfig",
    "ReplicationRuntime",
    "ShardReplicaSet",
    "FailureDetector",
    "FailureVerdict",
]


@dataclass(frozen=True)
class ReplicationConfig:
    """Deployment knobs for warm-standby replication.

    The standby's base moves at every paired checkpoint, so the
    deployment's checkpoint cadence bounds a promotion's replay.

    Parameters
    ----------
    clock:
        Injectable monotonic clock (e.g. ``time.monotonic`` passed in by
        the deployment) enabling acknowledgement-staleness detection. With
        the default ``None`` the failure detector is liveness-only — the
        deterministic default, since this module never reads ambient time.
    ack_timeout:
        Seconds (of ``clock`` time) the pool's ack watermark may sit still
        with commands pending before the detector declares it wedged.
    max_failovers:
        Optional budget; once spent, further failures raise
        :class:`~repro.engine.errors.FailoverError` instead of promoting —
        a circuit breaker against crash loops (a poisoned batch that kills
        every worker it meets would otherwise respawn-and-crash forever).
    """

    clock: Callable[[], float] | None = None
    ack_timeout: float = 30.0
    max_failovers: int | None = None

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.max_failovers is not None and self.max_failovers < 1:
            raise ValueError(
                f"max_failovers must be at least 1 (or None), got {self.max_failovers}"
            )


class ShardReplicaSet:
    """The warm standby: a base cut of every shard plus the committed log.

    The base lives driver-side (the driver survives worker crashes — the
    failure domain replication defends against is the worker pool) and is
    never advanced batch by batch: the service replaces the whole replica
    set with a fresh :meth:`capture` at every paired checkpoint.
    :meth:`catch_up` rebuilds the samplers from the base and replays the
    committed tail beyond it through ``ingest_stream`` — the
    identical replay path offline recovery uses, so the rebuilt samplers
    are bit-identical to the primary's at the replayed watermark.
    """

    def __init__(
        self,
        factory: Callable[[np.random.Generator], Sampler],
        wal: WriteAheadLog,
        base_seq: int,
        states: dict[int, dict[str, Any]],
        rng_states: dict[int, dict[str, Any]],
    ) -> None:
        self._factory = factory
        self._wal = wal
        #: Global sequence number of the last batch the base covers.
        self.base_seq = int(base_seq)
        #: ``state_dict()`` of every shard active at the base, by shard id.
        self._states = states
        #: Reserved-stream states of the shards not active at the base,
        #: handed to the factory on a first replayed frame.
        self._rng_states = rng_states
        #: Samplers rebuilt by :meth:`catch_up`, by shard id; handed over
        #: (and cleared) by :meth:`promote`.
        self.samplers: dict[int, Sampler] = {}

    @classmethod
    def capture(cls, service: "SamplerService", cut: "ServiceSnapshot") -> "ShardReplicaSet":
        """Take ``cut`` — a state-bearing cut at the committed watermark — as the base.

        The caller holds the service lock and took ``cut`` with
        ``include_state=True`` at the current watermark. The cut's states
        are kept as they are (cuts are immutable); shards without a view
        contribute only their reserved-stream state (see the RNG rule in the
        module docstring).
        """
        assert service._wal is not None  # replication requires a WAL
        states: dict[int, dict[str, Any]] = {}
        rng_states: dict[int, dict[str, Any]] = {}
        for shard_id in range(service.num_shards):
            view = cut.views.get(shard_id)
            if view is None:
                rng_states[shard_id] = generator_state(service._shard_rngs[shard_id])
            elif view.state is None:
                raise ValueError(
                    "a standby base needs a state-bearing cut; take the "
                    "snapshot with include_state=True"
                )
            else:
                states[shard_id] = view.state
        return cls(service._factory, service._wal, cut.watermark, states, rng_states)

    def lag(self, committed_seq: int) -> int:
        """How many committed batches lie beyond the base."""
        return int(committed_seq) - self.base_seq

    def catch_up(self, through_seq: int) -> set[int]:
        """Rebuild the samplers from the base and replay ``(base, through_seq]``.

        Returns the shards the replay touched. ``through_seq`` is the
        driver's committed sequence number; the log must end exactly there
        and hold every commit beyond the base. A missing commit means
        frames the base needs were truncated away (or the log is damaged),
        and promoting such a standby would silently lose batches — that is
        a :class:`~repro.engine.errors.FailoverError`, never a quiet gap.
        """
        through_seq = int(through_seq)
        try:
            plan = self._wal.collect_replay(self.base_seq)
        except WALError as error:
            raise FailoverError(
                f"the standby's base is batch {self.base_seq}, but the log "
                f"cannot replay the committed tail beyond it ({error}); "
                "restore offline from the last checkpoint"
            ) from error
        if plan.last_seq != through_seq:
            raise FailoverError(
                f"the log's last commit is batch {plan.last_seq}, but the "
                f"driver committed through batch {through_seq}; committed "
                "frames left the log (truncated past the standby's base "
                f"{self.base_seq}) or the log is damaged — restore offline "
                "from the last checkpoint"
            )
        samplers = {
            shard_id: Sampler.from_state_dict(self._states[shard_id])
            for shard_id in sorted(self._states)
        }
        for shard_id in sorted(plan.per_shard):
            sampler = samplers.get(shard_id)
            if sampler is None:
                sampler = build_shard_sampler(
                    self._factory, self._rng_states[shard_id]
                )
                samplers[shard_id] = sampler
            batches, times = plan.per_shard[shard_id]
            sampler.ingest_stream(
                batches, times=times, arrivals=plan.arrivals[shard_id]
            )
        self.samplers = samplers
        return set(plan.per_shard)

    def promote(self) -> dict[int, Sampler]:
        """Hand over the samplers :meth:`catch_up` rebuilt.

        The caller (the service's failover) adopts them as the new
        primaries. The base is kept: it still describes the promoted
        trajectory, so a later promotion replays from it again until the
        next cut replaces it.
        """
        samplers, self.samplers = self.samplers, {}
        return samplers


@dataclass(frozen=True)
class FailureVerdict:
    """One failure-detector probe's outcome."""

    #: Worker indices whose processes are dead (liveness probe).
    dead_workers: tuple[int, ...] = ()
    #: The ack watermark sat still past the timeout with commands pending.
    stalled: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.dead_workers) or self.stalled


class FailureDetector:
    """Declares a worker pool failed from liveness and ack-staleness probes.

    Liveness needs no clock: a probe asks the OS whether each worker
    process still exists. Ack staleness — a *wedged* worker whose process
    lives but whose acknowledgements stopped — requires measuring elapsed
    time, so it activates only when an injectable monotonic ``clock`` is
    supplied (:class:`ReplicationConfig.clock`); the detector itself never
    reads ambient time. Probes are passive and non-blocking, cheap enough
    to run between every dispatched batch.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        ack_timeout: float = 30.0,
    ) -> None:
        self._clock = clock
        self._ack_timeout = float(ack_timeout)
        self._last_watermark: int | None = None
        self._progress_at: float | None = None

    def reset(self) -> None:
        """Forget staleness history (after a failover installed a new pool)."""
        self._last_watermark = None
        self._progress_at = None

    def check(self, pool: "ShardWorkerPool") -> FailureVerdict:
        """Probe ``pool`` once; never blocks, never touches the pipes."""
        dead = tuple(pool.dead_workers())
        if dead:
            return FailureVerdict(dead_workers=dead)
        if self._clock is None:
            return FailureVerdict()
        now = float(self._clock())
        watermark = pool.acked_through()
        if pool.pending_commands() == 0 or watermark != self._last_watermark:
            self._last_watermark = watermark
            self._progress_at = now
            return FailureVerdict()
        if self._progress_at is None:
            self._progress_at = now
            return FailureVerdict()
        return FailureVerdict(stalled=(now - self._progress_at) > self._ack_timeout)


@dataclass
class ReplicationRuntime:
    """Live replication state a service carries alongside its config."""

    config: ReplicationConfig
    replica: ShardReplicaSet
    detector: FailureDetector
    #: Completed promotions over this service's lifetime.
    failovers: int = 0
    #: One short human-readable line per promotion, oldest first.
    events: list[str] = field(default_factory=list)
