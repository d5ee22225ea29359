"""Warm-standby shard replicas: the log is the standby, and supervised failover.

A WAL-enabled :class:`~repro.service.service.SamplerService` already
recovers bit-identically after a crash — but *offline*: a
:class:`~repro.engine.errors.WorkerCrashError` stops ingestion until
someone restarts the process and calls
:func:`~repro.service.wal.recover_service`. This module keeps the service
*serving through* the crash. Three pieces:

* :class:`ShardReplicaSet` — the warm standby, which is the log itself:
  its base record (the paired checkpoint) and the committed batches behind
  it. Nothing else is kept, so the standby can never drift from the log,
  and it does no work until a promotion. Promotion reads the base, rebuilds
  the samplers from it and replays the committed tail once through
  :func:`~repro.service.wal.replay_tail` — offline recovery's replay, run
  inside the live service. The operator's checkpoint cadence bounds that
  replay, as it bounds offline recovery.
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
never salvages worker state: the pool is discarded wholesale, the log's
base is rebuilt and its committed tail replayed into it, and the promoted
samplers are bit-identical to an uninterrupted run through the last
committed batch — independent of *when* the failure was detected, with no
batch dropped and none double-applied. Whatever the last checkpoint did —
swapped in its segment, or failed before or after the swap — the log on
disk is a base plus every commit since, so promotion needs no ordering
rule of its own. The one log it cannot promote is one of another shard
layout, which only a reshard whose segment swap failed leaves behind; the
service refuses to fail over onto it until a ``checkpoint()`` installs the
new layout's log.

RNG rule
--------

Every factory call gets a fresh copy of the shard's reserved stream, and
reserved streams change only on reshard — so a shard active in the base is
rebuilt from its cut state (which embeds its generator), and any other
shard's factory gets a copy of its reserved state, read from the base, on
its first replayed frame, exactly as the primary's did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.base import Sampler
from repro.engine.errors import FailoverError
from repro.service import checkpoint
from repro.service.wal import WALError, WriteAheadLog, replay_tail

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.transport import ShardWorkerPool

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

    The standby is the log, whose base moves at every paired checkpoint,
    so the deployment's checkpoint cadence bounds a promotion's replay.

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
    """The warm standby, which is the log: its base record plus the committed tail.

    Holds no shard state — only the factory that builds shards the base
    holds none for, and the log. :meth:`catch_up` reads the log's base
    record (the paired checkpoint) and replays the committed tail behind
    it through :func:`~repro.service.wal.replay_tail`, the replay offline
    recovery runs, so the rebuilt samplers are bit-identical to the
    primary's at the replayed watermark.
    """

    def __init__(
        self, factory: Callable[[np.random.Generator], Sampler], wal: WriteAheadLog
    ) -> None:
        self._factory = factory
        self._wal = wal

    def catch_up(self, through_seq: int) -> dict[int, Sampler]:
        """Rebuild every shard from the log's base and replay ``(base, through_seq]``.

        Returns the rebuilt samplers by shard id. ``through_seq`` is the
        driver's committed sequence number; the log must end exactly there
        and hold every commit beyond its base. A missing commit means the
        log is damaged, and promoting it would silently lose batches — that
        is a :class:`~repro.engine.errors.FailoverError`, never a quiet gap.
        """
        through_seq = int(through_seq)
        try:
            state, watermark = checkpoint.load_service_delta(self._wal.directory)
            samplers = {
                int(shard_id): Sampler.from_state_dict(shard_state)
                for shard_id, shard_state in state["shards"].items()
            }
            plan = replay_tail(
                self._wal,
                watermark,
                samplers,
                self._factory,
                state["shard_rng_states"],
            )
        except (WALError, checkpoint.MissingCheckpointError) as error:
            raise FailoverError(
                "the log cannot replay the committed batches behind its base "
                f"({error}); restore offline from the last checkpoint"
            ) from error
        if plan.last_seq != through_seq:
            raise FailoverError(
                f"the log's last commit is batch {plan.last_seq}, but the "
                f"driver committed through batch {through_seq}; committed "
                "frames left the log or the log is damaged — restore offline "
                "from the last checkpoint"
            )
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
    detector: FailureDetector
    #: Completed promotions over this service's lifetime.
    failovers: int = 0
    #: One short human-readable line per promotion, oldest first.
    events: list[str] = field(default_factory=list)
